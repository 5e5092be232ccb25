//! Allocation gates of the serving tier, counted exactly.
//!
//! A counting `#[global_allocator]` sees every allocation of every
//! thread in this binary — the reader under test, but also the tier's
//! worker and the miner's shard threads — so the binary holds exactly
//! one test: a second one running beside it would be counted too.
//!
//! * a steady-state [`ServeReader::top_k_into`] allocates nothing, and
//!   neither do the sources under it: the live model's `top_k_into`
//!   (selection in the caller's buffer) and `strongest`, and an exported
//!   `CorrelatorTable`'s `top_k_into`;
//! * the live model queried the way a self-mining FPA queries it — one
//!   `top_k_into` after every `observe_event`, over more distinct files
//!   than any bounded per-file structure would hold — allocates nothing
//!   inside the query from the second lap on;
//! * a path is a shared value: cloning a `FilePath`, and building the
//!   `WalOp` the ring and the router carry for an event from the trace's
//!   own path, allocate nothing (so nothing on the ingest path needs a
//!   cache to avoid copying one);
//! * a publication allocates a fixed handful of blocks (one flat table,
//!   the build's scratch, the barrier's channel), not one per list: the
//!   same bound holds at 256 and at 4096 tracked files.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use farmer_core::{CorrelationSource, Correlator, Farmer, FarmerConfig, Request};
use farmer_serve::{FarmerServe, ServeConfig, SnapshotCell};
use farmer_stream::{ShardedMiner, StreamConfig, WalOp};
use farmer_trace::{FileId, Trace, WorkloadSpec};

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

/// A second pass of `query` over the trace's own file sequence allocates
/// nothing, the first having filled every cache and grown every buffer;
/// both passes must answer the same, non-trivial number of queries.
fn assert_steady_state_is_alloc_free(
    trace: &Trace,
    what: &str,
    mut query: impl FnMut(FileId) -> bool,
) {
    let mut pass = || trace.events.iter().filter(|e| query(e.file)).count();
    let answered = pass();
    assert!(answered > trace.len() / 2, "{what}: only {answered} hit");
    let mut again = 0;
    let allocs = allocs_during(|| again = pass());
    assert_eq!(again, answered, "{what}");
    assert_eq!(allocs, 0, "{what} allocated in steady state");
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
    assert_steady_state_is_alloc_free(&trace, "reader top-k", |f| {
        reader.top_k_into(f, K, 0.0, &mut out);
        !out.is_empty()
    });
    drop(serve);

    // No other thread runs from here on. Handing a path on — a clone, or
    // the operation an event becomes on its way to the shards — is a
    // reference-count bump: one of each for every event of the trace.
    let mut with_path = 0;
    let allocs = allocs_during(|| {
        for e in &trace.events {
            let path = trace.path_of(e.file).cloned();
            with_path += usize::from(path.is_some());
            let op = WalOp::Ingest {
                req: Request::from_event(e),
                path: path.clone(),
            };
            std::hint::black_box((path, op));
        }
    });
    assert_eq!(with_path, trace.len(), "HP events carry their path");
    assert_eq!(allocs, 0, "sharing a path allocated");

    // The sources a reader sits on, with no tier (and no other thread)
    // running: the live model and a table exported from it.
    let farmer = Farmer::mine_trace(&trace, FarmerConfig::default());
    let table = farmer.correlator_table();
    let thr = farmer.config().max_strength;
    let strongest = |what| {
        assert_steady_state_is_alloc_free(&trace, what, |f| farmer.strongest(f, thr).is_some());
    };
    strongest("model strongest");
    assert_steady_state_is_alloc_free(&trace, "model top-k", |f| {
        farmer.top_k_into(f, K, thr, &mut out);
        !out.is_empty()
    });
    assert_steady_state_is_alloc_free(&trace, "table top-k", |f| {
        table.top_k_into(f, K, 0.0, &mut out);
        !out.is_empty()
    });

    // The order FPA runs: observe an event, then query its file, every
    // query against a model the observation has just changed, over more
    // files than a bounded per-file structure could keep. Only the query
    // calls are counted.
    assert!(trace.num_files() > 8192, "{} files", trace.num_files());
    let mut live = Farmer::new(FarmerConfig::default());
    let mut lap = || {
        let (mut allocs, mut answered) = (0, 0);
        for e in &trace.events {
            live.observe_event(&trace, e);
            allocs += allocs_during(|| live.top_k_into(e.file, K, thr, &mut out));
            answered += usize::from(!out.is_empty());
        }
        (allocs, answered)
    };
    let (_, first) = lap();
    let (allocs, second) = lap();
    assert!(
        first > trace.len() / 2 && second >= first,
        "{first}, {second}"
    );
    assert_eq!(allocs, 0, "query after observe allocated in steady state");

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
