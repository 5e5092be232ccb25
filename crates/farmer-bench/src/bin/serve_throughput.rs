//! Serving-tier throughput: read scaling, ingest under load, and the
//! zero-allocation query hot path — the `farmer-serve` acceptance record.
//!
//! Pre-loads a [`FarmerServe`] tier with one HP-style workload, then
//! measures:
//!
//! * **read scaling** — aggregate queries/sec of 1, 4 and 16 concurrent
//!   readers, each serving flat-out from the published snapshot. Under
//!   `--check`, aggregate(N)/aggregate(1) must reach the core-adaptive
//!   floor ([`read_scaling_floor`]): half of linear scaling up to the
//!   host's core count, and at least the no-collapse floor (0.5×)
//!   everywhere — a single-core host cannot physically show 2×, so the
//!   record carries the measured core count instead of pretending.
//! * **ingest** — events/sec through the lock-free ring into the sharded
//!   miner (including periodic epoch-swapped publications), unloaded and
//!   then with 16 duty-cycled readers querying concurrently. Under
//!   `--check`, the loaded rate must keep at least
//!   [`INGEST_UNDER_LOAD_FLOOR`] of the unloaded rate: wait-free readers
//!   must not stall the miner.
//! * **zero-alloc hot path** — a counting global allocator proves the
//!   steady-state reader query path performs **zero allocations**
//!   (asserted unconditionally, not just under `--check`).
//!
//! Output is a single JSON object on stdout; progress goes to stderr.
//!
//! ```text
//! cargo run --release -p farmer-bench --bin serve_throughput            # full
//! cargo run --release -p farmer-bench --bin serve_throughput -- --quick --check
//! ```

// The counting allocator is the bin's only unsafe; each op carries a
// SAFETY: proof and must mark its internal unsafe operations explicitly.
#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use farmer_bench::format::{BenchArgs, Json};
use farmer_bench::serve::{read_scaling_floor, INGEST_UNDER_LOAD_FLOOR};
use farmer_core::Correlator;
use farmer_serve::{FarmerServe, ServeConfig};
use farmer_trace::{FileId, Trace, WorkloadSpec};

/// Prefetch-group-sized k every query leg uses.
const K: usize = 8;
/// Ingest volume at full scale (events per ingest leg).
const EVENTS_AT_FULL_SCALE: f64 = 1_500_000.0;
/// Wall-clock length of each read-scaling leg at full scale.
const READ_LEG_MS_FULL: u64 = 400;
/// Reader fan-outs measured by the read-scaling legs.
const READER_COUNTS: [usize; 3] = [1, 4, 16];

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to the System allocator plus a Relaxed
// counter bump; every GlobalAlloc contract obligation is System's own.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds GlobalAlloc's contract; forwarded unchanged.
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(l) }
    }
    // SAFETY: caller upholds GlobalAlloc's contract; forwarded unchanged.
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        // SAFETY: (p, l) came from this allocator, i.e. from System.
        unsafe { System.dealloc(p, l) }
    }
    // SAFETY: caller upholds GlobalAlloc's contract; forwarded unchanged.
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: (p, l) came from this allocator; n validated by caller.
        unsafe { System.realloc(p, l, n) }
    }
    // SAFETY: caller upholds GlobalAlloc's contract; forwarded unchanged.
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(l) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Aggregate queries/sec of `n` readers serving flat-out for `dur`.
/// Readers warm up before the start flag flips, so the measured segment
/// is the steady state.
fn read_leg(serve: &FarmerServe, hot: &[FileId], n: usize, dur: Duration) -> f64 {
    let start = AtomicBool::new(false);
    let stop = AtomicBool::new(false);
    let mut elapsed = 0.0f64;
    let mut total = 0u64;
    std::thread::scope(|s| {
        let mut threads = Vec::with_capacity(n);
        for _ in 0..n {
            let mut r = serve.reader();
            let (start, stop) = (&start, &stop);
            threads.push(s.spawn(move || {
                let mut out: Vec<Correlator> = Vec::with_capacity(K);
                for &f in hot.iter().take(2048) {
                    r.top_k_into(f, K, 0.0, &mut out);
                }
                while !start.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                let mut queries = 0u64;
                let mut i = 0usize;
                let mut checksum = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    r.top_k_into(hot[i], K, 0.0, &mut out);
                    checksum = checksum.wrapping_add(out.len());
                    queries += 1;
                    i += 1;
                    if i == hot.len() {
                        i = 0;
                    }
                }
                black_box(checksum);
                queries
            }));
        }
        let t0 = Instant::now();
        start.store(true, Ordering::Release);
        std::thread::sleep(dur);
        stop.store(true, Ordering::Release);
        total = threads.into_iter().map(|t| t.join().unwrap()).sum();
        elapsed = t0.elapsed().as_secs_f64();
    });
    let qps = total as f64 / elapsed.max(1e-9);
    assert!(
        qps.is_finite() && qps > 0.0,
        "read throughput is not a positive finite number: {qps}"
    );
    qps
}

/// Ingest `events` trace events through a fresh tier and flush (mine +
/// publish everything), returning events/sec. When `readers > 0`, that
/// many duty-cycled readers (query bursts between 1 ms sleeps — the
/// metadata-server pattern of query traffic) run concurrently.
fn ingest_leg(trace: &Trace, events: usize, readers: usize) -> f64 {
    let cfg = ServeConfig::default();
    let serve = FarmerServe::spawn(cfg);
    let stop = AtomicBool::new(false);
    let mut rate = 0.0f64;
    std::thread::scope(|s| {
        for _ in 0..readers {
            let mut r = serve.reader();
            let stop = &stop;
            s.spawn(move || {
                let mut out: Vec<Correlator> = Vec::with_capacity(K);
                let mut f = 0u32;
                let files = 1u32.max(u32::try_from(r.snapshot().tracked_files.max(1)).unwrap_or(1));
                while !stop.load(Ordering::Relaxed) {
                    for _ in 0..32 {
                        r.top_k_into(FileId::new(f % files), K, 0.0, &mut out);
                        f = f.wrapping_add(1);
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
        }
        let mut tx = serve.handle();
        let t0 = Instant::now();
        for e in trace.stream().take(events) {
            assert!(tx.ingest_event(trace, &e), "tier refused mid-run ingest");
        }
        serve.flush();
        rate = events as f64 / t0.elapsed().as_secs_f64().max(1e-9);
        stop.store(true, Ordering::Release);
    });
    let stats = serve.shutdown();
    assert_eq!(stats.events, events as u64, "tier lost ingested events");
    assert!(
        rate.is_finite() && rate > 0.0,
        "ingest throughput is not a positive finite number: {rate}"
    );
    rate
}

fn main() {
    let args = BenchArgs::parse(0.02);
    let events = ((EVENTS_AT_FULL_SCALE * args.scale) as usize).max(30_000);
    let leg_ms = if args.quick { 120 } else { READ_LEG_MS_FULL };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // --- Pre-load: one mined, published workload shared by the read legs.
    let trace = WorkloadSpec::hp().scaled(0.3).generate();
    let serve = FarmerServe::spawn(ServeConfig::default());
    let mut tx = serve.handle();
    for e in &trace.events {
        assert!(tx.ingest_event(&trace, e));
    }
    serve.flush();

    // Hot set: the files the published snapshot actually serves.
    let (_, snap) = serve.cell().load();
    let mut hot: Vec<FileId> = Vec::new();
    {
        use farmer_core::CorrelationSource;
        snap.for_each_list(&mut |owner, _| hot.push(owner));
    }
    hot.sort_unstable_by_key(|f| f.raw());
    assert!(hot.len() > 100, "workload published too few served files");
    drop(snap);

    eprintln!(
        "serve_throughput: {} hot files, read legs {leg_ms} ms x {READER_COUNTS:?} readers, \
         ingest legs {events} events, {cores} core(s) ({})",
        hot.len(),
        trace.label
    );

    // --- Read-scaling legs.
    let mut read_qps = [0.0f64; READER_COUNTS.len()];
    for (slot, &n) in read_qps.iter_mut().zip(READER_COUNTS.iter()) {
        *slot = read_leg(&serve, &hot, n, Duration::from_millis(leg_ms));
        eprintln!("  read x{n:<2}: {slot:>12.0} queries/s aggregate");
    }
    let scaling: Vec<f64> = read_qps
        .iter()
        .map(|&q| q / read_qps[0].max(1e-9))
        .collect();

    // --- Zero-allocation hot path, measured on the quiesced main thread:
    // shut the tier down (readers outlive it by design) so nothing else
    // can touch the allocator during the measured segment.
    let mut r = serve.reader();
    let stats = serve.shutdown();
    assert_eq!(stats.events, trace.len() as u64);
    let mut out: Vec<Correlator> = Vec::with_capacity(K);
    for &f in &hot {
        r.top_k_into(f, K, 0.0, &mut out);
    }
    let before = allocs();
    let mut checksum = 0usize;
    for lap in 0..3 {
        for &f in &hot {
            r.top_k_into(f, K, 0.0, &mut out);
            checksum = checksum.wrapping_add(out.len() + lap);
        }
    }
    let hot_path_allocs = allocs() - before;
    black_box(checksum);
    assert_eq!(
        hot_path_allocs, 0,
        "reader query hot path allocated {hot_path_allocs} times in steady state"
    );

    // --- Ingest legs: unloaded, then under 16 duty-cycled readers.
    let unloaded = ingest_leg(&trace, events, 0);
    eprintln!("  ingest unloaded : {unloaded:>12.0} events/s");
    let loaded = ingest_leg(&trace, events, 16);
    eprintln!("  ingest w/readers: {loaded:>12.0} events/s");
    let ingest_ratio = loaded / unloaded.max(1e-9);

    // --- Acceptance bands (core-adaptive; see farmer_bench::serve).
    if args.check {
        for (i, &n) in READER_COUNTS.iter().enumerate() {
            let floor = read_scaling_floor(n, cores);
            assert!(
                scaling[i] >= floor,
                "read scaling x{n} = {:.2} below the {floor:.2} floor ({cores} cores)",
                scaling[i]
            );
        }
        assert!(
            ingest_ratio >= INGEST_UNDER_LOAD_FLOOR,
            "ingest under load kept only {:.0}% of the unloaded rate (floor {:.0}%)",
            ingest_ratio * 100.0,
            INGEST_UNDER_LOAD_FLOOR * 100.0
        );
    }

    let mut legs = Json::obj();
    for (i, &n) in READER_COUNTS.iter().enumerate() {
        legs = legs.field(
            &format!("readers_{n}"),
            Json::obj()
                .field("aggregate_queries_per_sec", Json::Fixed(read_qps[i], 0))
                .field("scaling_vs_1_reader", Json::Fixed(scaling[i], 3))
                .field("check_floor", Json::Fixed(read_scaling_floor(n, cores), 2)),
        );
    }
    let record = Json::obj()
        .field("bench", Json::str("serve_throughput"))
        .field("workload", Json::str(&trace.label))
        .field("cores", Json::UInt(cores as u64))
        .field("k", Json::UInt(K as u64))
        .field("hot_files", Json::UInt(hot.len() as u64))
        .field("read_leg_ms", Json::UInt(leg_ms))
        .field("read_scaling", legs)
        .field("hot_path_steady_state_allocs", Json::UInt(hot_path_allocs))
        .field("ingest_events", Json::UInt(events as u64))
        .field("ingest_unloaded_events_per_sec", Json::Fixed(unloaded, 0))
        .field("ingest_loaded_events_per_sec", Json::Fixed(loaded, 0))
        .field("ingest_under_load_ratio", Json::Fixed(ingest_ratio, 3))
        .field(
            "ingest_check_floor",
            Json::Fixed(INGEST_UNDER_LOAD_FLOOR, 2),
        );
    println!("{}", record.render());
}
