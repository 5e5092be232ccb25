//! The `CorrelationSource` contract, pinned across every back-end: the
//! live model, an exported table, a merged stream snapshot, and a
//! snapshot reloaded from its checkpoint image must answer every query
//! identically for the same mined state. This is the guarantee that lets
//! a serving tier swap back-ends (self-mining → streamed snapshot →
//! restart from an image) without its consumers noticing.

use farmer::core::{CorrelationSource, Correlator, CorrelatorTable, Farmer, FarmerConfig};
use farmer::prelude::*;
use farmer::stream::durable::{decode_snapshot, encode_snapshot, snapshots_bitwise_equal};
use farmer::stream::ShardedMiner;

/// Sharded mining partitions the float accumulation, so the streamed
/// snapshot matches the live model to this tolerance; everything derived
/// from the live model itself matches it bitwise ([`BITWISE`]).
const TOL: f64 = 1e-12;
const BITWISE: f64 = 0.0;

/// The three back-ends built from the same mined state — the snapshot
/// form twice, once streamed and once through the persisted image — plus
/// the validity threshold the exported ones were built with.
struct Backends {
    live: Farmer,
    table: CorrelatorTable,
    snapshot: StreamSnapshot,
    /// The live model's table as a snapshot, encoded to the checkpoint
    /// image format and decoded again: what a restart serves from.
    stored: StreamSnapshot,
    threshold: f64,
    num_files: usize,
}

impl Backends {
    /// The exported back-ends with the tolerance each owes the live model.
    fn exported(&self) -> [(&'static str, &dyn CorrelationSource, f64); 3] {
        [
            ("table", &self.table, BITWISE),
            ("snapshot", &self.snapshot, TOL),
            ("stored", &self.stored, BITWISE),
        ]
    }
}

/// Any source's lists as a standalone table, through the trait's own
/// exporter path.
fn table_of(source: &dyn CorrelationSource) -> CorrelatorTable {
    let mut table = CorrelatorTable::new();
    source.for_each_list(&mut |owner, entries| {
        table.push_list(owner, entries).expect("one list per owner");
    });
    table
}

fn backends() -> Backends {
    let trace = WorkloadSpec::hp().scaled(0.03).generate();
    let live = Farmer::mine_trace(&trace, FarmerConfig::default());
    let threshold = live.config().max_strength;

    let table = table_of(&live);

    // Streamed: the same events through 3 shards under a cap no stream can
    // hit, merged into one consistent snapshot.
    let cfg = StreamConfig::default()
        .with_shards(3)
        .with_node_cap(1 << 20);
    let mut miner = ShardedMiner::spawn(cfg);
    for e in &trace.events {
        miner.route_event(&trace, e);
    }
    let snapshot = miner.snapshot();

    // Persisted: live model -> snapshot -> checkpoint image -> snapshot.
    let exported = StreamSnapshot {
        table: live.correlator_table(),
        events: trace.len() as u64,
        shards: 1,
        tracked_files: live.graph().active_nodes(),
        evictions: 0,
        state_bytes: live.memory_bytes(),
    };
    assert!(exported.num_lists() > 50, "nothing to persist");
    let stored = decode_snapshot(&encode_snapshot(&exported)).expect("decode");
    assert!(snapshots_bitwise_equal(&stored, &exported));
    assert_eq!(stored.state_bytes, exported.state_bytes);

    Backends {
        live,
        table,
        snapshot,
        stored,
        threshold,
        num_files: trace.num_files(),
    }
}

/// Equal on raw bits when `tol` is [`BITWISE`], within `tol` otherwise.
fn close(got: f64, want: f64, tol: f64) -> bool {
    got.to_bits() == want.to_bits() || (got - want).abs() < tol
}

fn assert_same(tag: &str, tol: f64, owner: FileId, got: &[Correlator], want: &[Correlator]) {
    assert_eq!(
        got.len(),
        want.len(),
        "{tag}: list length diverged for {owner}"
    );
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.file, w.file, "{tag}: order diverged for {owner}");
        assert!(
            close(g.degree, w.degree, tol),
            "{tag}: degree diverged for {owner}->{}: {} vs {}",
            g.file,
            g.degree,
            w.degree
        );
    }
}

#[test]
fn all_backends_serve_identical_top_k() {
    let b = backends();
    let mut want = Vec::new();
    let mut got = Vec::new();
    let mut non_empty = 0usize;
    for fid in 0..b.num_files as u32 {
        let file = FileId::new(fid);
        // Exported back-ends retain only valid (>= threshold) entries, so
        // the live model is queried at the same threshold.
        for k in [1usize, 4, 8, usize::MAX] {
            b.live.top_k_into(file, k, b.threshold, &mut want);
            for (tag, src, tol) in b.exported() {
                src.top_k_into(file, k, 0.0, &mut got);
                assert_same(tag, tol, file, &got, &want);
            }
        }
        if !want.is_empty() {
            non_empty += 1;
        }
    }
    assert!(non_empty > 100, "only {non_empty} files had correlators");
}

#[test]
fn all_backends_agree_on_strongest_and_degree() {
    let b = backends();
    let mut checked_pairs = 0usize;
    for fid in 0..b.num_files as u32 {
        let file = FileId::new(fid);
        let want = b.live.strongest(file, b.threshold);
        for (tag, src, tol) in b.exported() {
            match (want, src.strongest(file, 0.0)) {
                (None, None) => {}
                (Some(w), Some(g)) => {
                    assert_eq!(g.file, w.file, "{tag}: strongest diverged for {file}");
                    assert!(close(g.degree, w.degree, tol), "{tag}: {file}");
                    // Pairwise degree agrees everywhere the pair is retained.
                    let d_live = CorrelationSource::degree(&b.live, file, w.file).unwrap();
                    let d = src.degree(file, w.file).unwrap();
                    assert!(close(d, d_live, tol), "{tag}: degree diverged for {file}");
                    checked_pairs += 1;
                }
                (w, g) => panic!("{tag}: strongest diverged for {file}: {w:?} vs {g:?}"),
            }
        }
    }
    assert!(
        checked_pairs > 100,
        "too few pairs checked: {checked_pairs}"
    );
}

#[test]
fn exports_agree_list_by_list() {
    let b = backends();
    // for_each_list over the exported backends covers exactly the owners
    // the live model exports, entry for entry.
    let mut live_lists = std::collections::BTreeMap::new();
    b.live.for_each_list(&mut |owner, entries| {
        live_lists.insert(owner.raw(), entries.to_vec());
    });
    for (tag, src, tol) in b.exported() {
        let mut seen = 0usize;
        src.for_each_list(&mut |owner, entries| {
            seen += 1;
            let want = live_lists
                .get(&owner.raw())
                .unwrap_or_else(|| panic!("{tag}: unexpected owner {owner}"));
            assert_same(tag, tol, owner, entries, want);
        });
        assert_eq!(seen, live_lists.len(), "{tag}: owner coverage diverged");
    }
}

#[test]
fn versions_move_with_their_backends() {
    let trace = WorkloadSpec::hp().scaled(0.01).generate();
    let mut live = Farmer::mine_trace(&trace, FarmerConfig::default());
    let v = live.version();
    live.observe_event(&trace, &trace.events[0]);
    assert!(live.version() > v, "mutation must advance the live version");

    let mut table = CorrelatorTable::new();
    let v = CorrelationSource::version(&table);
    let one = Correlator {
        file: FileId::new(1),
        degree: 0.5,
    };
    table.push_list(FileId::new(0), &[one]).unwrap();
    assert!(CorrelationSource::version(&table) > v);
}

#[test]
fn predictor_serves_identically_from_any_backend() {
    // The consumer-level corollary: an FPA following a cell that holds
    // the lists exported from the table, the snapshot, or the reloaded
    // image produces identical predictions.
    let b = backends();
    let trace = WorkloadSpec::hp().scaled(0.03).generate();
    let follower_of = |source: &dyn CorrelationSource| {
        let cell = std::sync::Arc::new(SnapshotCell::new());
        cell.install(std::sync::Arc::new(StreamSnapshot {
            table: table_of(source),
            events: 1,
            ..StreamSnapshot::default()
        }));
        FpaPredictor::for_trace(&trace).following(&cell)
    };
    let mut from_table = follower_of(&b.table);
    let mut from_snap = follower_of(&b.snapshot);
    let mut from_store = follower_of(&b.stored);
    let (mut a, mut c, mut d) = (Vec::new(), Vec::new(), Vec::new());
    for e in trace.events.iter().take(3000) {
        from_table.on_access_into(&trace, e, &mut a);
        from_snap.on_access_into(&trace, e, &mut c);
        from_store.on_access_into(&trace, e, &mut d);
        assert_eq!(a, c, "snapshot-served predictions diverged");
        assert_eq!(a, d, "image-served predictions diverged");
    }
}

#[test]
fn every_backend_is_send_and_sync() {
    // No query mutates anything, so one source can sit behind `&` on any
    // number of serving threads; the live model included, since it holds
    // no interior mutability.
    fn assert_sync<T: Send + Sync>() {}
    assert_sync::<Farmer>();
    assert_sync::<CorrelatorTable>();
    assert_sync::<StreamSnapshot>();
}
