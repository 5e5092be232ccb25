//! Cross-crate invariants of the streaming subsystem (`farmer-stream`).
//!
//! Two contracts are pinned here, per the subsystem's design:
//!
//! 1. **Bounded memory** — for *arbitrary* event streams, the number of
//!    tracked files never exceeds the node cap and the edge count never
//!    exceeds `cap × max_successors`, at every point of the stream.
//! 2. **Convergence** — a sharded streaming run over a finite trace agrees
//!    with batch `Farmer::mine_trace` on the strong correlations: for every
//!    file whose batch Correlator List head clears a high-strength bar with
//!    a clear margin, the streamed snapshot reports the same top-1.

use farmer::core::{Farmer, FarmerConfig, Request};
use farmer::prelude::*;
use farmer::stream::{StreamMetrics, StreamMiner, DECAY_INTERVAL};
use proptest::prelude::*;

fn req(file: u32, uid: u32, pid: u32, host: u32) -> Request {
    Request {
        file: FileId::new(file),
        uid: farmer::trace::UserId::new(uid),
        pid: farmer::trace::ProcId::new(pid),
        host: farmer::trace::HostId::new(host),
        dev: farmer::trace::DevId::new(0),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Contract 1: the memory budget holds at every stream position, for
    /// any interleaving of files, users, processes and hosts and any cap —
    /// from one victim an eviction sweep (caps below 128) to four. After
    /// the drawn stream comes one file over and over up to the
    /// counter-decay tick, the stream again under other file ids, and a
    /// parade of new files one longer than the cap: every case decays its
    /// counters, then evicts.
    #[test]
    fn node_and_edge_caps_hold_under_arbitrary_streams(
        stream in proptest::collection::vec((0u32..300, 0u32..5, 0u32..7, 0u32..3), 1..800),
        cap in 1usize..320,
    ) {
        let cfg = StreamConfig::default().with_node_cap(cap);
        let max_edges = cap * cfg.farmer.max_successors;
        let reg = Registry::enabled();
        let mut m = StreamMiner::new(cfg);
        m.instrument(StreamMetrics::new(&reg.scope("stream")));
        let idle = DECAY_INTERVAL as usize - stream.len();
        let events = stream
            .iter()
            .copied()
            .chain(std::iter::repeat_n(stream[0], idle))
            .chain(stream.iter().map(|&(f, u, p, h)| (f + 300, u, p, h)))
            .chain((0..=cap as u32).map(|i| (600 + i, 0, 0, 0)));
        for (file, uid, pid, host) in events {
            m.ingest(req(file, uid, pid, host), None);
            prop_assert!(m.tracked_files() <= cap, "tracked {} > cap {cap}", m.tracked_files());
            prop_assert!(
                m.farmer().graph().active_nodes() <= cap,
                "active nodes {} > cap {cap}",
                m.farmer().graph().active_nodes()
            );
            prop_assert!(
                m.farmer().graph().num_edges() <= max_edges,
                "edges {} > {max_edges}",
                m.farmer().graph().num_edges()
            );
        }
        // The snapshot only exports live owned files.
        let snap = m.snapshot();
        prop_assert!(snap.lists.len() <= cap);
        prop_assert!(m.evictions() > 0, "cap {cap} never bit");
        prop_assert_eq!(m.evictions() % m.config().evict_batch() as u64, 0);
        prop_assert!(reg.snapshot().counter("stream.decay_ticks") > Some(0));
    }

    /// Sharding never double-assigns a file: exactly one shard owns each,
    /// so merged snapshots can never collide (the merge asserts this too).
    #[test]
    fn ownership_is_a_partition(file in 0u32..50_000, shards in 1usize..9) {
        let owners = (0..shards)
            .filter(|&s| farmer::stream::engine::owns_file(FileId::new(file), s, shards))
            .count();
        prop_assert_eq!(owners, 1);
    }
}

/// Contract 2: streamed top-1 correlators match batch mining on
/// high-strength pairs, across shard counts, on a real workload (paths,
/// multi-process interleaving, noise).
#[test]
fn sharded_stream_converges_to_batch_top1_on_strong_pairs() {
    let trace = WorkloadSpec::hp().scaled(0.05).generate();
    let batch = Farmer::mine_trace(&trace, FarmerConfig::default());

    for shards in [1usize, 2, 4] {
        // Cap well above the namespace: convergence, not eviction, is
        // under test here (eviction behaviour is contract 1).
        let cfg = StreamConfig::default()
            .with_shards(shards)
            .with_node_cap(1 << 20);
        let mut miner = ShardedMiner::spawn(cfg);
        for e in &trace.events {
            miner.route_event(&trace, e);
        }
        let snap = miner.snapshot();

        let mut strong = 0usize;
        for f in 0..trace.num_files() as u32 {
            let want = batch.correlators(FileId::new(f));
            let Some(head) = want.head() else { continue };
            // High strength with a clear margin over the runner-up.
            let margin_ok = want
                .entries()
                .get(1)
                .is_none_or(|second| head.degree - second.degree > 1e-9);
            if head.degree < 0.6 || !margin_ok {
                continue;
            }
            strong += 1;
            let got = snap
                .correlators(FileId::new(f))
                .unwrap_or_else(|| panic!("no streamed list for strong file f{f}"));
            assert_eq!(
                got[0].file, head.file,
                "top-1 diverged for f{f} at {shards} shard(s)"
            );
        }
        assert!(
            strong > 50,
            "workload produced only {strong} strong pairs; test is vacuous"
        );
    }
}

/// The full online loop: stream -> snapshot published into a cell -> an
/// FpaPredictor following it gives the same predictions as a batch-mined
/// FPA, and a later publication really swaps the serving state.
#[test]
fn snapshot_refresh_matches_batch_predictions() {
    let trace = WorkloadSpec::hp().scaled(0.03).generate();

    // Batch-mined reference predictions.
    let batch = Farmer::mine_trace(&trace, FarmerConfig::default());

    // Streamed: same events through 3 shards, published to a following FPA.
    let cfg = StreamConfig::default()
        .with_shards(3)
        .with_node_cap(1 << 20);
    let mut miner = ShardedMiner::spawn(cfg);
    for e in &trace.events {
        miner.route_event(&trace, e);
    }
    // The published snapshot itself is the correlation source — no table
    // copy between the miner and the predictor.
    let cell = std::sync::Arc::new(SnapshotCell::new());
    let mut fpa = FpaPredictor::for_trace(&trace).following(&cell);
    miner.publish_into(&cell);

    let mut checked = 0usize;
    for e in trace.events.iter().take(2000) {
        let preds = fpa.on_access(&trace, e);
        let want: Vec<FileId> = batch
            .correlators(e.file)
            .top(fpa.group_limit)
            .iter()
            .map(|c| c.file)
            .collect();
        assert_eq!(preds, want, "prediction diverged for {}", e.file);
        checked += preds.len();
    }
    assert!(
        checked > 100,
        "too few predictions to be meaningful: {checked}"
    );

    // A later (empty) publication swaps serving state at the next access.
    cell.install(std::sync::Arc::new(StreamSnapshot {
        events: trace.len() as u64 + 1,
        ..StreamSnapshot::default()
    }));
    assert!(fpa.on_access(&trace, &trace.events[0]).is_empty());
}

/// Capped-eviction parity: under a small `node_cap` (the regime the
/// matrix's `capped*` cells exercise), the threaded sharded path must
/// evict *exactly* like the in-process engine — same victims, same
/// order, same surviving lists — at every shard count. A divergence in
/// eviction order between `ShardedMiner`'s worker loop and a direct
/// `StreamMiner` (or between shard counts, given each shard's
/// deterministic owned sub-stream) would silently change the capped
/// matrix cells; this pins it outside the bench.
#[test]
fn capped_eviction_parity_batch_vs_sharded() {
    let trace = WorkloadSpec::hp().scaled(0.05).generate();
    let cap = 48;

    // Drive one direct engine per shard count: for `n` shards, shard `i`
    // is a StreamMiner::for_shard(i, n) fed the FULL stream (broadcast
    // routing) with forgets applied at the same positions.
    for shards in [1usize, 2, 4] {
        let cfg = StreamConfig::default()
            .with_node_cap(cap)
            .with_shards(shards);
        let mut sharded = ShardedMiner::spawn(cfg.clone());
        let mut oracles: Vec<StreamMiner> = (0..shards)
            .map(|i| StreamMiner::for_shard(cfg.clone(), i, shards))
            .collect();
        for (k, e) in trace.events.iter().enumerate() {
            if k % 101 == 0 {
                sharded.route_forget(e.file);
                for o in oracles.iter_mut() {
                    o.forget(e.file);
                }
            }
            sharded.route_event(&trace, e);
            for o in oracles.iter_mut() {
                o.ingest_event(&trace, e);
            }
        }
        let snap = sharded.snapshot();
        let want = farmer::stream::StreamSnapshot::merge(oracles.iter().map(|o| o.snapshot()));
        assert!(
            want.evictions > 0,
            "{shards} shard(s): cap {cap} never forced eviction; test is vacuous"
        );
        assert_eq!(
            snap.evictions, want.evictions,
            "{shards} shard(s): eviction counts diverged"
        );
        assert_eq!(
            snap.tracked_files, want.tracked_files,
            "{shards} shard(s): tracked-file counts diverged"
        );
        assert_eq!(
            snap.num_lists(),
            want.num_lists(),
            "{shards} shard(s): surviving list sets diverged"
        );
        want.table.iter().for_each(|(owner, w)| {
            let got = snap.correlators(owner).unwrap_or_else(|| {
                panic!("{shards} shard(s): owner {owner} missing from sharded snapshot")
            });
            assert_eq!(
                got.len(),
                w.len(),
                "{shards} shard(s): list length diverged for {owner}"
            );
            for (g, x) in got.iter().zip(w) {
                assert_eq!(g.file, x.file, "{shards} shard(s): successor diverged");
                assert!((g.degree - x.degree).abs() < 1e-12);
            }
        });
    }
}

/// Unbounded replay keeps the subsystem healthy: many laps, tight budget,
/// stable state and fresh snapshots that reflect every routed event — at
/// two shards and at eight (more than the host has cores), one total
/// budget split evenly so both face the same eviction pressure.
#[test]
fn long_replay_under_tight_budget_stays_bounded_and_consistent() {
    const TOTAL_CAP: usize = 128;
    let trace = WorkloadSpec::ins().scaled(0.02).generate();
    for shards in [2usize, 8] {
        let cfg = StreamConfig::default()
            .with_shards(shards)
            .with_node_cap(TOTAL_CAP / shards);
        let mut miner = ShardedMiner::spawn(cfg);
        let mut stream = trace.stream();
        for lap in 1..=6 {
            for _ in 0..trace.len() {
                let e = stream.next().unwrap();
                miner.route_event(&trace, &e);
            }
            let snap = miner.snapshot();
            let tracked = snap.tracked_files;
            assert!(tracked <= TOTAL_CAP, "{shards} shards track {tracked}");
            assert!(snap.evictions > 0, "{shards} shards: budget never bit");
            // Every routed event is in the cut, none twice.
            assert_eq!(snap.events, lap * trace.len() as u64, "{shards} shards");
        }
    }
}

/// A published table costs what its lists do, not what its owners' ids
/// do: a capped fleet fed lap after lap of fresh file ids (past 10^7 by
/// the end, the way a long-running service meets new files) publishes
/// tables whose heap stays under a bound set by the cap alone.
#[test]
fn published_tables_stay_bounded_over_open_ended_ids() {
    const TOTAL_CAP: usize = 512;
    let trace = WorkloadSpec::hp().scaled(0.02).generate();
    let cfg = StreamConfig::default()
        .with_shards(2)
        .with_node_cap(TOTAL_CAP / 2);
    // Slab, owner and end arrays and index, all at capacity, with room
    // for the merged slab's growth: independent of any id.
    let max_successors = farmer::core::graph::MAX_SUCCESSORS;
    let bound = (2 * 16 * max_successors + 2 * (8 + 12 * 8)) * TOTAL_CAP;
    let mut miner = ShardedMiner::spawn(cfg);
    let mut largest = 0;
    for lap in 0..8u32 {
        for e in &trace.events {
            let mut req = Request::from_event(e);
            req.file = FileId::new((lap << 21) + 97 * e.file.raw());
            largest = largest.max(req.file.raw());
            miner.route(req, None);
        }
        let snap = miner.snapshot();
        assert!(snap.num_lists() > 0);
        let heap = snap.table.heap_bytes();
        assert!(heap <= bound, "lap {lap}: {heap} B over {bound} B");
    }
    assert!(largest > 10_000_000);
}

/// One published list: `(owner, [(successor, degree bits)])`.
type Published = (u32, Vec<(u32, u64)>);

/// Every list of a table in table order — the form two publications are
/// compared in.
fn published(table: &farmer::core::CorrelatorTable) -> Vec<Published> {
    table
        .iter()
        .map(|(owner, list)| {
            let list = list.iter().map(|c| (c.file.raw(), c.degree.to_bits()));
            (owner.raw(), list.collect())
        })
        .collect()
}

/// Two publications agree list for list; on a mismatch, name the first
/// list that differs rather than dumping both tables.
fn assert_same_lists(got: &[Published], want: &[Published], context: &str) {
    let first = got.iter().zip(want).find(|(g, w)| g != w);
    assert!(first.is_none(), "{context}: {first:?}");
    assert_eq!(got.len(), want.len(), "{context}: list counts differ");
}

/// What a shard must publish, the long way round: `Farmer::correlators`
/// of every tracked file in owner order, empty lists dropped.
fn per_file_lists(m: &StreamMiner) -> Vec<Published> {
    let tracked = m.export_state().counts;
    assert!(tracked.windows(2).all(|w| w[0].0 < w[1].0));
    tracked
        .iter()
        .map(|&(owner, _)| {
            let list = m.farmer().correlators(FileId::new(owner));
            let list = list.iter().map(|c| (c.file.raw(), c.degree.to_bits()));
            (owner, list.collect::<Vec<_>>())
        })
        .filter(|(_, list)| !list.is_empty())
        .collect()
}

/// The one-pass snapshot build is the per-file Stage 4, bit for bit and
/// owner for owner, after every batch of a stream that exercises
/// everything a list depends on: eviction at a 256-file cap, forgets,
/// counter decay, and prune ticks. Checked through `ShardedMiner` at 1, 2
/// and 4 shards against bare per-shard miners, and for a miner restored
/// from a state image mid-stream, whose slab history differs from the
/// original's while its published order must not.
#[test]
fn one_pass_snapshot_equals_per_file_lists_after_every_batch() {
    const BATCH: usize = 512;
    let trace = WorkloadSpec::hp().scaled(0.1).generate();
    let mut cfg = StreamConfig::default().with_node_cap(256);
    cfg.farmer.prune_interval = 300;
    assert!(cfg.evict_batch() > 1);
    for shards in [1usize, 2, 4] {
        let cfg = cfg.clone().with_shards(shards);
        let mut fleet = ShardedMiner::spawn(cfg.clone());
        let mut bare: Vec<StreamMiner> = (0..shards)
            .map(|id| StreamMiner::for_shard(cfg.clone(), id, shards))
            .collect();
        let reg = Registry::enabled();
        bare[0].instrument(StreamMetrics::new(&reg.scope("stream")));
        let mut restored: Option<StreamMiner> = None;
        let mut lists_seen = 0usize;
        for (b, batch) in trace.events.chunks(BATCH).enumerate() {
            for (i, e) in batch.iter().enumerate() {
                if i % 113 == 0 {
                    fleet.route_forget(e.file);
                    bare.iter_mut().for_each(|m| m.forget(e.file));
                    restored.iter_mut().for_each(|m| m.forget(e.file));
                }
                fleet.route_event(&trace, e);
                bare.iter_mut().for_each(|m| m.ingest_event(&trace, e));
                restored.iter_mut().for_each(|m| m.ingest_event(&trace, e));
            }
            let want: Vec<_> = bare.iter().flat_map(per_file_lists).collect();
            let got = published(&fleet.snapshot().table);
            assert_same_lists(&got, &want, &format!("{shards} shard(s), batch {b}"));
            lists_seen += want.len();

            // Shard 0 again, from a state image taken a third of the way in.
            if let Some(r) = &restored {
                let got = published(&r.snapshot().lists);
                assert_same_lists(&got, &per_file_lists(r), &format!("restored, batch {b}"));
                let original = published(&bare[0].snapshot().lists);
                assert_same_lists(&got, &original, &format!("restored order, batch {b}"));
            } else if b == trace.len() / BATCH / 3 {
                let image = bare[0].export_state();
                restored = Some(StreamMiner::from_state(cfg.clone(), &image));
            }
        }
        assert!(restored.is_some(), "the stream ended before the restore");
        assert!(bare.iter().all(|m| m.evictions() > 0), "cap never bit");
        let ticks = reg.snapshot().counter("stream.decay_ticks");
        assert!(ticks > Some(0), "the counters never decayed");
        assert!(lists_seen > 1000, "only {lists_seen} lists compared");
    }
}
