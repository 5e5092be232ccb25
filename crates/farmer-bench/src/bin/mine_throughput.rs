//! Mining hot-path throughput: events/sec and resident bytes for the
//! single-miner observe loop, on an IPA-path workload, under two file-id
//! regimes:
//!
//! * **dense** — the trace's native dense ids (`0..num_files`), the best
//!   case for any id-indexed storage;
//! * **sparse** — the same events with file ids spread injectively over a
//!   ~10^7 universe, the open-ended-namespace case that used to blow up
//!   the dense node spine (ROADMAP open item).
//!
//! Output is a single JSON object on stdout; the run fails on NaN or
//! non-finite throughput, which is what the CI smoke step relies on.
//!
//! The record also carries the **observability-overhead leg**: the dense
//! regime re-run twice through the same loop instrumented with a
//! `farmer-obs` per-event counter and a per-chunk latency span — once
//! against a disabled registry (no-op handles) and once against an
//! enabled one. Both overheads are *measured* against the uninstrumented
//! baseline, and the run asserts the enabled-registry leg stays within
//! [`MAX_OBS_OVERHEAD`] of it — the CI-gated "zero-overhead" number.
//!
//! ```text
//! cargo run --release -p farmer-bench --bin mine_throughput          # full
//! cargo run --release -p farmer-bench --bin mine_throughput 0.2     # scaled
//! cargo run --release -p farmer-bench --bin mine_throughput -- --quick
//! cargo run --release -p farmer-bench --bin mine_throughput -- --obs
//! ```

use std::time::Instant;

use farmer_bench::format::{BenchArgs, Json};
use farmer_core::{Farmer, FarmerConfig, Request};
use farmer_obs::Registry;
use farmer_trace::{FileId, WorkloadSpec};

/// Sparse-id universe: ids are spread injectively over `[0, ID_UNIVERSE)`.
const ID_UNIVERSE: u32 = 10_000_000;

/// Events mined per regime at scale 1.0 (cyclic replay of the HP trace).
const EVENTS_AT_FULL_SCALE: f64 = 2_000_000.0;

/// Largest tolerated relative slowdown of the enabled-registry mining leg
/// against the uninstrumented baseline (5 %). Relaxed-atomic counters and
/// one span per [`OBS_CHUNK`] events cost well under 1 % in practice; the
/// margin absorbs shared-runner timing noise without letting a hot-path
/// regression (e.g. a per-event syscall) through.
const MAX_OBS_OVERHEAD: f64 = 0.05;

/// Events per latency span of the instrumented leg — the same
/// batch-granularity the streaming pipeline instruments at.
const OBS_CHUNK: usize = 4096;

struct RegimeReport {
    elapsed_sec: f64,
    events_per_sec: f64,
    graph_heap_bytes: usize,
    model_bytes: usize,
    num_edges: usize,
    active_nodes: usize,
    max_file_id: u32,
}

fn mine(trace: &farmer_trace::Trace, events: usize, spread: Option<u32>) -> RegimeReport {
    // Decay + periodic pruning on, so the run exercises the aging path the
    // streaming deployment uses, not just raw edge updates.
    let cfg = FarmerConfig::default().with_decay(0.95);
    let mut farmer = Farmer::new(cfg);
    let mut max_file_id = 0u32;
    let start = Instant::now();
    for e in trace.stream().take(events) {
        let mut req = Request::from_event(&e);
        if let Some(stride) = spread {
            req.file = FileId::new(e.file.raw() * stride);
        }
        max_file_id = max_file_id.max(req.file.raw());
        farmer.observe(req, trace.path_of(e.file));
    }
    let elapsed = start.elapsed().as_secs_f64();
    let events_per_sec = events as f64 / elapsed.max(1e-9);
    assert!(
        events_per_sec.is_finite() && events_per_sec > 0.0,
        "throughput is not a positive finite number: {events_per_sec}"
    );
    // Sanity: the mined state must be non-degenerate and NaN-free.
    assert!(farmer.graph().num_edges() > 0, "mined no edges");
    let probe = trace.events[0].file;
    let probe = spread.map_or(probe, |s| FileId::new(probe.raw() * s));
    for c in farmer.correlators_with_threshold(probe, 0.0).iter() {
        assert!(c.degree.is_finite(), "NaN/inf degree for {}", c.file);
    }
    RegimeReport {
        elapsed_sec: elapsed,
        events_per_sec,
        graph_heap_bytes: farmer.graph().heap_bytes(),
        model_bytes: farmer.memory_bytes(),
        num_edges: farmer.graph().num_edges(),
        active_nodes: farmer.graph().active_nodes(),
        max_file_id,
    }
}

/// The dense mining loop with `farmer-obs` instrumentation: a per-event
/// counter and a latency span per [`OBS_CHUNK`] events. Returns events/s.
/// Run against [`Registry::disabled`] this measures the no-op-handle
/// cost; against [`Registry::enabled`], the live-registry cost.
fn mine_obs(trace: &farmer_trace::Trace, events: usize, reg: &Registry) -> f64 {
    let scoped = reg.scope("mine");
    let events_mined = scoped.counter("events");
    let chunk_ns = scoped.histogram("chunk_ns");
    let cfg = FarmerConfig::default().with_decay(0.95);
    let mut farmer = Farmer::new(cfg);
    let start = Instant::now();
    let mut span = chunk_ns.span();
    let mut in_chunk = 0usize;
    for e in trace.stream().take(events) {
        let req = Request::from_event(&e);
        farmer.observe(req, trace.path_of(e.file));
        events_mined.inc();
        in_chunk += 1;
        if in_chunk == OBS_CHUNK {
            span.finish();
            span = chunk_ns.span();
            in_chunk = 0;
        }
    }
    drop(span);
    let rate = events as f64 / start.elapsed().as_secs_f64().max(1e-9);
    assert!(farmer.graph().num_edges() > 0, "obs leg mined no edges");
    rate
}

fn json_regime(r: &RegimeReport) -> Json {
    Json::obj()
        .field("events_per_sec", Json::Fixed(r.events_per_sec, 0))
        .field("graph_heap_bytes", Json::UInt(r.graph_heap_bytes as u64))
        .field("model_bytes", Json::UInt(r.model_bytes as u64))
        .field("num_edges", Json::UInt(r.num_edges as u64))
        .field("active_nodes", Json::UInt(r.active_nodes as u64))
        .field("max_file_id", Json::UInt(u64::from(r.max_file_id)))
}

fn main() {
    let args = BenchArgs::parse(0.05);
    let events = ((EVENTS_AT_FULL_SCALE * args.scale) as usize).max(10_000);

    let trace = WorkloadSpec::hp().scaled(0.5).generate();
    // Injective spread: every dense id maps to its own slot of a ~10^7
    // universe, so the sparse run mines the *same* correlations as the
    // dense one — only the id magnitudes change.
    let stride = (ID_UNIVERSE / trace.num_files().max(1) as u32).max(1);
    eprintln!(
        "mine_throughput: {events} events ({}, {} files, sparse stride {stride})",
        trace.label,
        trace.num_files()
    );

    let dense = mine(&trace, events, None);
    let sparse = mine(&trace, events, Some(stride));

    // Observability-overhead leg: the dense loop with no-op handles, then
    // with a live registry. The baseline is the uninstrumented dense run
    // above — the same work on the same trace.
    let noop_rate = mine_obs(&trace, events, &Registry::disabled());
    let live_reg = Registry::enabled();
    let live_rate = mine_obs(&trace, events, &live_reg);
    let live_snap = live_reg.snapshot();
    assert_eq!(
        live_snap.counter("mine.events"),
        Some(events as u64),
        "live registry missed events"
    );
    let overhead = |rate: f64| (dense.events_per_sec / rate - 1.0).max(0.0);
    let (noop_overhead, live_overhead) = (overhead(noop_rate), overhead(live_rate));
    assert!(
        live_overhead <= MAX_OBS_OVERHEAD,
        "instrumented mining leg is {:.1}% slower than baseline (gate {:.0}%): \
         {live_rate:.0} vs {:.0} events/s",
        100.0 * live_overhead,
        100.0 * MAX_OBS_OVERHEAD,
        dense.events_per_sec
    );
    eprintln!(
        "mine_throughput: obs overhead noop {:.2}% live {:.2}% (gate {:.0}%)",
        100.0 * noop_overhead,
        100.0 * live_overhead,
        100.0 * MAX_OBS_OVERHEAD
    );

    // The sparse run mines identical structure; resident memory must not
    // scale with the id universe once node storage is id-sparse.
    let mem_ratio = sparse.graph_heap_bytes as f64 / dense.graph_heap_bytes.max(1) as f64;
    assert!(mem_ratio.is_finite(), "memory ratio is not finite");
    // Headline: throughput over the whole workload (both id regimes) —
    // the number that collapses when either regime degrades.
    let overall = (2 * events) as f64 / (dense.elapsed_sec + sparse.elapsed_sec);
    assert!(overall.is_finite() && overall > 0.0, "overall not finite");

    let record = Json::obj()
        .field("bench", Json::str("mine_throughput"))
        .field("workload", Json::str(&trace.label))
        .field("events", Json::UInt(events as u64))
        .field("sparse_id_universe", Json::UInt(u64::from(ID_UNIVERSE)))
        .field("overall_events_per_sec", Json::Fixed(overall, 0))
        .field("dense", json_regime(&dense))
        .field("sparse", json_regime(&sparse))
        .field("sparse_over_dense_heap", Json::Fixed(mem_ratio, 3))
        .field(
            "obs_overhead",
            Json::obj()
                .field(
                    "baseline_events_per_sec",
                    Json::Fixed(dense.events_per_sec, 0),
                )
                .field("noop_events_per_sec", Json::Fixed(noop_rate, 0))
                .field("instrumented_events_per_sec", Json::Fixed(live_rate, 0))
                .field("noop_overhead_pct", Json::Fixed(100.0 * noop_overhead, 2))
                .field(
                    "instrumented_overhead_pct",
                    Json::Fixed(100.0 * live_overhead, 2),
                )
                .field("gate_pct", Json::Fixed(100.0 * MAX_OBS_OVERHEAD, 0)),
        );
    if args.obs {
        eprintln!("mine_throughput: instrumented-leg registry:");
        eprintln!("{}", live_snap.render());
    }
    println!("{}", record.render());
}
