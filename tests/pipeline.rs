//! End-to-end pipeline tests: trace generation → mining → prefetching →
//! MDS replay, across all four trace families.

use farmer::prelude::*;

const SCALE: f64 = 0.1;

#[test]
fn every_family_mines_cleanly() {
    for family in TraceFamily::ALL {
        let trace = WorkloadSpec::for_family(family).scaled(SCALE).generate();
        assert!(trace.validate().is_ok(), "{family:?} trace invalid");
        let cfg = if family.has_paths() {
            FarmerConfig::default()
        } else {
            FarmerConfig::pathless()
        };
        let farmer = Farmer::mine_trace(&trace, cfg);
        assert_eq!(farmer.observed(), trace.len() as u64);
        assert!(farmer.graph().num_edges() > 0, "{family:?} mined no edges");
        assert!(farmer.memory_bytes() > 0);
    }
}

#[test]
fn correlator_lists_are_sorted_and_bounded() {
    let trace = WorkloadSpec::hp().scaled(SCALE).generate();
    let farmer = Farmer::mine_trace(&trace, FarmerConfig::default());
    let mut non_empty = 0;
    for fid in 0..trace.num_files() {
        let list = farmer.correlators(FileId::new(fid as u32));
        if !list.is_empty() {
            non_empty += 1;
        }
        for w in list.entries().windows(2) {
            assert!(w[0].degree >= w[1].degree, "list must be sorted descending");
        }
        for c in list.entries() {
            assert!(
                (0.0..=1.0).contains(&c.degree),
                "degree out of range: {}",
                c.degree
            );
            assert!(
                c.degree >= farmer.config().max_strength,
                "threshold violated"
            );
            assert!(c.file.index() < trace.num_files(), "dangling successor");
        }
    }
    assert!(
        non_empty > 100,
        "expected many files with valid correlators, got {non_empty}"
    );
}

#[test]
fn mining_is_deterministic() {
    let trace = WorkloadSpec::res().scaled(SCALE).generate();
    let a = Farmer::mine_trace(&trace, FarmerConfig::pathless());
    let b = Farmer::mine_trace(&trace, FarmerConfig::pathless());
    for fid in (0..trace.num_files()).step_by(7) {
        let f = FileId::new(fid as u32);
        assert_eq!(a.correlators(f), b.correlators(f));
    }
}

#[test]
fn prefetch_sim_and_mds_agree_on_hit_direction() {
    // The cache simulator and the MDS replay share the cache/predictor
    // logic; their hit ratios for the same configuration must agree closely.
    let trace = WorkloadSpec::hp().scaled(0.2).generate();
    let sim_cfg = SimConfig::for_family(trace.family);
    let sim = simulate(&trace, &mut FpaPredictor::for_trace(&trace), sim_cfg);

    let mut replay_cfg = ReplayConfig::for_family(trace.family);
    replay_cfg.mds.cache_capacity = sim_cfg.cache_capacity;
    let rep = replay(
        &trace,
        Box::new(FpaPredictor::for_trace(&trace)),
        replay_cfg,
    );

    let sim_hit = sim.hit_ratio();
    let rep_hit = rep.cache.hit_ratio();
    // The MDS services prefetches asynchronously (queued, droppable), so
    // its hit ratio trails the idealized cache sim — but not by much.
    assert!(
        (sim_hit - rep_hit).abs() < 0.15,
        "cache sim {sim_hit:.3} vs MDS replay {rep_hit:.3} diverged"
    );
}

#[test]
fn parser_roundtrip_preserves_mining() {
    for family in [TraceFamily::Ins, TraceFamily::Hp] {
        let original = WorkloadSpec::for_family(family).scaled(0.05).generate();
        let text = farmer::trace::parser::to_text(&original);
        let parsed = farmer::trace::parser::from_text(&text).expect("roundtrip");
        let cfg = if family.has_paths() {
            FarmerConfig::default()
        } else {
            FarmerConfig::pathless()
        };
        let a = Farmer::mine_trace(&original, cfg.clone());
        let b = Farmer::mine_trace(&parsed, cfg);
        for fid in (0..original.num_files()).step_by(11) {
            let f = FileId::new(fid as u32);
            assert_eq!(a.correlators(f), b.correlators(f), "{family:?} file {f}");
        }
    }
}
