//! Property tests for the adversarial workload generators: seed
//! determinism for every generator, and the exactness guarantees of the
//! multi-tenant interleave (event-count, per-tenant order, namespace
//! disjointness).

use farmer::prelude::*;
use farmer::trace::workload::{ChurnSpec, DriftSpec, MultiTenantSpec, ScanStormSpec};
use proptest::prelude::*;

/// A small base workload parameterized by family index and seed — small
/// enough that proptest can afford dozens of generations per property.
fn base(family: u8, seed: u64) -> WorkloadSpec {
    let spec = match family % 4 {
        0 => WorkloadSpec::llnl().scaled(0.01),
        1 => WorkloadSpec::ins().scaled(0.05),
        2 => WorkloadSpec::res().scaled(0.03),
        _ => WorkloadSpec::hp().scaled(0.02),
    };
    spec.with_seed(seed)
}

fn assert_identical(a: &Trace, b: &Trace, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: event counts diverged");
    for (x, y) in a.events.iter().zip(&b.events) {
        assert_eq!(x, y, "{what}: events diverged");
    }
    assert_eq!(a.num_files(), b.num_files(), "{what}: namespaces diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every adversarial generator is a pure function of its spec: equal
    /// (family, seed, shape) inputs give byte-identical traces, and a
    /// different seed gives a different stream.
    #[test]
    fn generators_deterministic_under_fixed_seed(
        family in 0u8..4,
        seed in 0u64..1_000_000,
        phases in 2usize..6,
        tenants in 2usize..4,
    ) {
        let spec = base(family, seed);

        let drift = |s: u64| DriftSpec::new(base(family, s)).with_phases(phases).generate();
        assert_identical(&drift(seed), &drift(seed), "drift");

        let storm = |s: u64| ScanStormSpec::new(base(family, s)).generate();
        assert_identical(&storm(seed), &storm(seed), "storm");

        let churn = |s: u64| ChurnSpec::new(base(family, s)).generate();
        assert_identical(&churn(seed), &churn(seed), "churn");

        let tenant = |s: u64| MultiTenantSpec::homogeneous(base(family, s), tenants).generate();
        assert_identical(&tenant(seed), &tenant(seed), "tenants");

        // A different seed must actually change the stream.
        let a = drift(seed);
        let b = drift(seed.wrapping_add(1));
        prop_assert!(
            a.events.iter().zip(&b.events).any(|(x, y)| x != y),
            "distinct seeds produced identical drift traces"
        );
        let _ = spec;
    }

    /// The multi-tenant interleave is event-count-exact against its parts:
    /// the merged stream holds precisely the union of the tenants' events,
    /// per-tenant order and op/byte payloads preserved, over a disjoint
    /// union of the tenant namespaces.
    #[test]
    fn multi_tenant_interleave_is_event_count_exact(
        family in 0u8..4,
        seed in 0u64..1_000_000,
        tenants in 1usize..5,
    ) {
        let spec = MultiTenantSpec::homogeneous(base(family, seed), tenants);
        let parts = spec.parts();
        let merged = MultiTenantSpec::interleave(&parts);
        prop_assert_eq!(merged.validate(), Ok(()));

        // Exactness: total count, per-tenant count, and per-tenant order.
        prop_assert_eq!(merged.len(), parts.iter().map(Trace::len).sum::<usize>());
        prop_assert_eq!(
            merged.num_files(),
            parts.iter().map(Trace::num_files).sum::<usize>()
        );
        let mut file_off = 0u32;
        for (t, part) in parts.iter().enumerate() {
            let range = file_off..file_off + part.num_files() as u32;
            let mine: Vec<&TraceEvent> = merged
                .events
                .iter()
                .filter(|e| range.contains(&e.file.raw()))
                .collect();
            prop_assert_eq!(mine.len(), part.len(), "tenant {} count diverged", t);
            for (got, want) in mine.iter().zip(&part.events) {
                prop_assert_eq!(got.file.raw(), want.file.raw() + file_off);
                prop_assert_eq!(got.op, want.op, "tenant {} op diverged", t);
                prop_assert_eq!(got.bytes, want.bytes);
            }
            file_off += part.num_files() as u32;
        }

        // Timestamps stay monotone through the round-robin.
        for w in merged.events.windows(2) {
            prop_assert!(w[0].timestamp_us <= w[1].timestamp_us);
        }
    }
}

/// Drift changes the co-access structure between phases but never the
/// event count, timestamps or attribute stream.
#[test]
fn drift_preserves_everything_but_file_identity() {
    let spec = WorkloadSpec::hp().scaled(0.05);
    let plain = spec.clone().generate();
    let drift = DriftSpec::new(spec).with_phases(4).generate();
    assert_eq!(plain.len(), drift.len());
    for (a, b) in plain.events.iter().zip(&drift.events) {
        assert_eq!(a.timestamp_us, b.timestamp_us);
        assert_eq!(a.uid, b.uid);
        assert_eq!(a.pid, b.pid);
        assert_eq!(a.host, b.host);
        assert_eq!(a.op, b.op);
    }
    // ... and the later phases do move file identity.
    assert!(
        plain
            .events
            .iter()
            .zip(&drift.events)
            .skip(plain.len() / 2)
            .any(|(a, b)| a.file != b.file),
        "drift failed to rotate any ids"
    );
}

/// The churn scenario end to end: the batch miner, which forgets on
/// unlink under the event policy, holds no state for any dead generation
/// at the end, while a miner that observes every event as a request does —
/// the regression the scenario exists to catch.
#[test]
fn churn_forgetting_drops_dead_generations() {
    let churn = ChurnSpec::new(WorkloadSpec::hp().scaled(0.05));
    let trace = churn.generate();
    let base_files = churn.base.generate().num_files();

    let forgetting = Farmer::mine_trace(&trace, FarmerConfig::default());
    let mut hoarding = Farmer::new(FarmerConfig::default());
    for e in &trace.events {
        hoarding.observe(Request::from_event(e), trace.path_of(e.file));
    }
    for g in 0..churn.generations {
        for j in 0..churn.files_per_gen {
            let f = churn.ephemeral_id(base_files, g, j);
            assert!(
                forgetting.correlators(f).is_empty(),
                "dead gen {g} file {j} still served after forget"
            );
        }
    }
    // The hoarding miner retains dead-generation state — churn without
    // forget support measurably leaks.
    let dead: usize = (0..churn.generations)
        .flat_map(|g| (0..churn.files_per_gen).map(move |j| (g, j)))
        .filter(|&(g, j)| {
            !hoarding
                .correlators(churn.ephemeral_id(base_files, g, j))
                .is_empty()
        })
        .count();
    assert!(dead > 0, "churn trace failed to build any ephemeral state");
}

/// Does `served` hold every list of `want` and no other, each with the same
/// entries in the same order, every degree compared on raw bits? (A merged
/// snapshot orders its lists by shard, not by owner.)
fn serves_bitwise(served: &CorrelatorTable, want: &CorrelatorTable) -> bool {
    served.len() == want.len()
        && want.iter().all(|(owner, list)| {
            served.get(owner).is_some_and(|got| {
                got.len() == list.len()
                    && got
                        .iter()
                        .zip(list)
                        .all(|(x, y)| x.file == y.file && x.degree.to_bits() == y.degree.to_bits())
            })
        })
}

/// One event policy, applied by every event-level entry point: the churn
/// scenario at 0.1 (128 unlinks) fed to each mines the same 7 024 events
/// and serves the table `Farmer::mine_trace` builds, bit for bit.
#[test]
fn every_event_entry_point_mines_churn_under_one_policy() {
    use farmer::stream::{DurableConfig, DurableMiner};

    let trace = ChurnSpec::new(WorkloadSpec::hp().scaled(0.03)).generate();
    assert_eq!(trace.len(), 7_152);
    let batch = Farmer::mine_trace(&trace, FarmerConfig::default());
    assert_eq!(batch.observed(), 7_024);
    assert_eq!(batch.graph().num_edges(), 16_033);
    let want = batch.correlator_table();
    let check = |what: &str, events: u64, table: &CorrelatorTable| {
        assert_eq!(events, batch.observed(), "{what}: events mined");
        assert!(serves_bitwise(table, &want), "{what}: table");
    };
    let stream_cfg = |shards| {
        StreamConfig::default()
            .with_shards(shards)
            .with_node_cap(1 << 20)
    };

    let mut looped = Farmer::new(FarmerConfig::default());
    let mut engine = StreamMiner::new(stream_cfg(1));
    let mut sharded = [1, 4].map(|n| ShardedMiner::spawn(stream_cfg(n)));
    let wal = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(format!("target/policy-{}.wal", std::process::id()));
    let mut durable =
        DurableMiner::create(&wal, DurableConfig::new(stream_cfg(1))).expect("create the log");
    let serve = FarmerServe::spawn(ServeConfig {
        stream: stream_cfg(1),
        ..ServeConfig::default()
    });
    let mut tx = serve.handle();
    for e in &trace.events {
        looped.observe_event(&trace, e);
        engine.ingest_event(&trace, e);
        sharded.iter_mut().for_each(|m| m.route_event(&trace, e));
        durable.ingest_event(&trace, e);
        assert!(tx.ingest_event(&trace, e));
    }

    check(
        "observe_event",
        looped.observed(),
        &looped.correlator_table(),
    );
    check(
        "StreamMiner",
        engine.events_seen(),
        &engine.snapshot().lists,
    );
    for (m, n) in sharded.iter_mut().zip([1, 4]) {
        let snap = m.snapshot();
        check(&format!("ShardedMiner x{n}"), snap.events, &snap.table);
    }
    let snap = durable.snapshot();
    check("DurableMiner", snap.events, &snap.table);
    assert_eq!(durable.events_logged(), batch.observed());
    drop(durable);
    let _ = std::fs::remove_file(&wal);
    serve.flush();
    let snap = serve.reader().snapshot();
    check("FarmerServe", snap.events, &snap.table);
}
