//! Allocation gates of the serving tier, counted exactly.
//!
//! A counting `#[global_allocator]` sees every allocation of every
//! thread in this binary — the reader under test, but also the tier's
//! worker and the miner's shard threads — so the binary holds exactly
//! one test: a second one running beside it would be counted too.
//!
//! * a steady-state [`ServeReader::top_k_into`] allocates nothing;
//! * a publication allocates a fixed handful of blocks (one flat table,
//!   the build's scratch, the barrier's channel), not one per list: the
//!   same bound holds at 256 and at 4096 tracked files.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use farmer_core::Correlator;
use farmer_serve::{FarmerServe, ServeConfig, ServeReader, SnapshotCell};
use farmer_stream::{ShardedMiner, StreamConfig};
use farmer_trace::{Trace, WorkloadSpec};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a counter bump.
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

/// Allocations (of any thread) while `f` runs.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

const K: usize = 8;

/// One pass of `top_k_into` over the trace's own file sequence.
fn query_pass(reader: &mut ServeReader, trace: &Trace, out: &mut Vec<Correlator>) -> usize {
    let mut answered = 0;
    for e in &trace.events {
        reader.top_k_into(e.file, K, 0.0, out);
        answered += usize::from(!out.is_empty());
    }
    answered
}

/// Allocations of one `publish_into` of a `shards`-wide fleet holding
/// `cap` tracked files per shard, and the lists it published.
fn publish_allocs(trace: &Trace, cap: usize, shards: usize) -> (u64, usize) {
    let cfg = StreamConfig::default()
        .with_node_cap(cap)
        .with_shards(shards);
    let mut miner = ShardedMiner::spawn(cfg);
    for e in &trace.events {
        miner.route_event(trace, e);
    }
    let cell = SnapshotCell::new();
    miner.publish_into(&cell); // the barrier's first use is not the steady state
    let allocs = allocs_during(|| {
        miner.publish_into(&cell);
    });
    let (_, snap) = cell.load();
    // An eviction batch leaves a full shard a few files under its cap.
    let full = cap * shards * 9 / 10;
    assert!(snap.tracked_files > full, "cap {cap} never filled");
    (allocs, snap.num_lists())
}

#[test]
fn queries_allocate_nothing_and_publication_a_fixed_handful() {
    let trace = WorkloadSpec::hp().scaled(0.5).generate();

    let serve = FarmerServe::spawn(ServeConfig::default());
    let mut tx = serve.handle();
    for e in &trace.events {
        assert!(tx.ingest_event(&trace, e));
    }
    serve.flush();
    let mut reader = serve.reader();
    let mut out: Vec<Correlator> = Vec::with_capacity(K);
    let answered = query_pass(&mut reader, &trace, &mut out);
    assert!(answered > trace.len() / 2, "only {answered} queries hit");
    let mut again = 0;
    let allocs = allocs_during(|| again = query_pass(&mut reader, &trace, &mut out));
    assert_eq!(again, answered);
    assert_eq!(
        allocs,
        0,
        "{} queries allocated {allocs} times",
        trace.len()
    );
    drop(serve);

    for shards in [1usize, 2] {
        let (small, small_lists) = publish_allocs(&trace, 256, shards);
        let (large, large_lists) = publish_allocs(&trace, 4096 / shards, shards);
        assert!(
            large_lists > 8 * small_lists,
            "{small_lists} vs {large_lists}"
        );
        // Measured: 13 per publication at one shard, 24 at two, at either
        // size; the old per-list build paid one per list and more.
        let bound = 16 * shards as u64;
        assert!(
            small <= bound && large <= bound,
            "{shards} shard(s): {small} allocations for {small_lists} lists, \
             {large} for {large_lists}; bound {bound}"
        );
    }
}
