//! Correlation-query throughput: the serving hot path behind the
//! `CorrelationSource` redesign.
//!
//! Mines one HP-style workload, then measures queries/sec of:
//!
//! * **full_list** — the pre-redesign bespoke path: materialize a whole
//!   `CorrelatorList` from the graph (filter + full sort + fresh
//!   allocation) and take the top k;
//! * **farmer_topk** — `CorrelationSource::top_k_into` on the live model
//!   (sorted-view cache + partial select, caller-owned buffer);
//! * **table_topk** — the same query against an exported
//!   `CorrelatorTable`;
//! * **farmer_strongest** — the head-of-list query (`strongest`), one
//!   O(deg) scan.
//!
//! A counting global allocator verifies the redesign's core claim: the
//! trait paths perform **zero allocations in steady state** (the full-list
//! path allocates per query, by construction). The run fails on any
//! steady-state allocation, on non-finite throughput, or if top-k (k ≤ 8)
//! is not at least 2× the full-list path — which is what the CI smoke step
//! relies on. Output is a single JSON object on stdout.
//!
//! ```text
//! cargo run --release -p farmer-bench --bin query_throughput          # full
//! cargo run --release -p farmer-bench --bin query_throughput -- --quick
//! ```

// The counting allocator is the bin's only unsafe; each op carries a
// SAFETY: proof and must mark its internal unsafe operations explicitly.
#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use farmer_bench::format::{BenchArgs, Json};
use farmer_core::{CorrelationSource, Correlator, CorrelatorList, Farmer, FarmerConfig};
use farmer_trace::{FileId, WorkloadSpec};

/// Queries per measured path at full scale.
const QUERIES_AT_FULL_SCALE: f64 = 4_000_000.0;
/// The prefetch-group-sized k the acceptance bar is stated for.
const K: usize = 8;

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

struct PathReport {
    queries_per_sec: f64,
    steady_allocs: u64,
}

/// Time `queries` invocations of `op` over a cycling hot set, counting
/// allocations over the measured (post-warm-up) segment only.
fn measure(hot: &[FileId], queries: usize, mut op: impl FnMut(FileId) -> usize) -> PathReport {
    let mut checksum = 0usize;
    // Warm-up lap: populate caches and grow every reusable buffer.
    for &f in hot {
        checksum = checksum.wrapping_add(op(f));
    }
    let before = allocs();
    let start = Instant::now();
    let mut i = 0;
    for _ in 0..queries {
        checksum = checksum.wrapping_add(op(hot[i]));
        i += 1;
        if i == hot.len() {
            i = 0;
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let steady_allocs = allocs() - before;
    black_box(checksum);
    let queries_per_sec = queries as f64 / elapsed.max(1e-9);
    assert!(
        queries_per_sec.is_finite() && queries_per_sec > 0.0,
        "throughput is not a positive finite number: {queries_per_sec}"
    );
    PathReport {
        queries_per_sec,
        steady_allocs,
    }
}

/// The pre-redesign query: build the whole sorted list, take the head k.
fn full_list_top(farmer: &Farmer, file: FileId, k: usize) -> usize {
    let cfg = farmer.config();
    let list = CorrelatorList::build(
        file,
        farmer.graph().edges(file, cfg).map(|e| Correlator {
            file: e.to,
            degree: e.degree,
        }),
        cfg.max_strength,
    );
    list.top(k).len()
}

fn json_path(r: &PathReport) -> Json {
    Json::obj()
        .field("queries_per_sec", Json::Fixed(r.queries_per_sec, 0))
        .field("steady_state_allocs", Json::UInt(r.steady_allocs))
}

fn main() {
    let args = BenchArgs::parse(0.02);
    let queries = ((QUERIES_AT_FULL_SCALE * args.scale) as usize).max(50_000);

    let trace = WorkloadSpec::hp().scaled(0.3).generate();
    let farmer = Farmer::mine_trace(&trace, FarmerConfig::default());

    // Hot set: every file with at least one valid correlator (the files a
    // serving tier actually gets asked about).
    let hot: Vec<FileId> = (0..trace.num_files() as u32)
        .map(FileId::new)
        .filter(|&f| farmer.strongest(f, farmer.config().max_strength).is_some())
        .collect();
    assert!(hot.len() > 100, "workload mined too few served files");

    // Exported-table backend over the identical mined state.
    let table = farmer.correlator_table();

    eprintln!(
        "query_throughput: {queries} queries x 4 paths over {} hot files ({})",
        hot.len(),
        trace.label
    );

    let full = measure(&hot, queries, |f| full_list_top(&farmer, f, K));
    let mut buf: Vec<Correlator> = Vec::new();
    let thr = farmer.config().max_strength;
    let farmer_topk = measure(&hot, queries, |f| {
        farmer.top_k_into(f, K, thr, &mut buf);
        buf.len()
    });
    let table_topk = measure(&hot, queries, |f| {
        table.top_k_into(f, K, 0.0, &mut buf);
        buf.len()
    });
    let strongest = measure(&hot, queries, |f| {
        farmer
            .strongest(f, thr)
            .map_or(0, |c| c.file.raw() as usize)
    });

    // The acceptance bar: unified top-k ≥ 2× the full-list path, with zero
    // steady-state allocations on every trait path.
    let speedup = farmer_topk.queries_per_sec / full.queries_per_sec.max(1e-9);
    assert!(
        speedup >= 2.0,
        "top-k (k={K}) must be ≥2x the full-list path, got {speedup:.2}x"
    );
    for (name, r) in [
        ("farmer_topk", &farmer_topk),
        ("table_topk", &table_topk),
        ("farmer_strongest", &strongest),
    ] {
        assert_eq!(
            r.steady_allocs, 0,
            "{name} allocated {} times in steady state",
            r.steady_allocs
        );
    }

    let record = Json::obj()
        .field("bench", Json::str("query_throughput"))
        .field("workload", Json::str(&trace.label))
        .field("k", Json::UInt(K as u64))
        .field("queries_per_path", Json::UInt(queries as u64))
        .field("hot_files", Json::UInt(hot.len() as u64))
        .field("full_list", json_path(&full))
        .field("farmer_topk", json_path(&farmer_topk))
        .field("table_topk", json_path(&table_topk))
        .field("farmer_strongest", json_path(&strongest))
        .field("topk_over_full_list", Json::Fixed(speedup, 3));
    println!("{}", record.render());
}
