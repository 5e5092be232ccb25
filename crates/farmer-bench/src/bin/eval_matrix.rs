//! The evaluation reference-model matrix: every scenario × miner mode ×
//! predictor cell, end to end (trace → miner → `CorrelationSource` →
//! predictor → cache sim → MDS replay), then the paper's cells (the grid:
//! Figure 7, Table 3, Figure 8, Table 4; the sweeps: Figure 3, Table 5,
//! Figure 6, the ablations; the keyed entries: Figure 1, Table 2, the §4.1
//! cluster, the §4.2 layout, the p = 0 agreement, the §7 regression),
//! emitted as one schema-versioned JSON record and optionally verified
//! against the checked-in one.
//!
//! ```text
//! cargo run --release -p farmer-bench --bin eval_matrix -- --check    # full matrix must equal BENCH_eval.json
//! cargo run --release -p farmer-bench --bin eval_matrix -- --quick    # fast, unchecked
//! cargo run --release -p farmer-bench --bin eval_matrix > BENCH_eval.json   # regenerate
//! ```
//!
//! * `--check` — compare every cell with the checked-in `BENCH_eval.json`
//!   (compiled in) and exit 1 listing every violation: a deterministic
//!   field that no longer equals the record at its printed precision
//!   (`<cell>: <field> was <recorded> → is <measured>`; the wall-clock
//!   `events_per_sec` and `recovery_ms` are never compared), a missing or
//!   extra cell, a key two cells share, an inversion of the paper's shapes
//!   over its cells. Only meaningful at the record's scale: any other
//!   (`--quick`, a positional scale) exits 2.
//! * `--obs` — additionally print the instrumented demo legs' metric
//!   registries (the same dumps embedded as the record's top-level `obs`
//!   and `obs_recovery` objects) on stderr.
//!
//! Batch-vs-sharded snapshot parity and cross-mode FPA quality equality
//! are asserted unconditionally — with or without `--check`, a run that
//! breaks a cross-mode invariant panics instead of reporting.

use farmer_bench::evalmatrix::{
    build_scenario, paper_cells, run_matrix_with, sweep, Cell, MatrixReport, FPA_MODES,
    PAPER_SECTIONS, PHASES, QUICK_SCALE, SCENARIOS, SCHEMA_VERSION,
};
use farmer_bench::faults::FAILURE_MODES;
use farmer_bench::format::BenchArgs;
use farmer_bench::lockstep::{serve_online, OnlineConfig};
use farmer_bench::refmodel::{self, Reference};
use farmer_core::FarmerConfig;
use farmer_mds::ReplayConfig;
use farmer_obs::{Json, Registry};
use farmer_prefetch::SimConfig;
use farmer_stream::{recover_instrumented, DurableConfig, DurableMiner, StreamConfig};
use farmer_trace::Trace;

/// The demo legs' miner: one uncapped shard under the trace family's
/// default configuration.
fn one_shard(trace: &Trace) -> StreamConfig {
    let farmer = FarmerConfig::for_family(trace.family);
    (StreamConfig::default().with_farmer(farmer))
        .with_shards(1)
        .with_node_cap(1 << 20)
}

/// One fully instrumented online cell whose metric registry is embedded
/// in the record as the top-level `obs` object: the `base` scenario at a
/// small fixed scale through the lockstep driver, so the dump shows
/// every registry scope the pipeline exports (`stream.*`, `online.*`,
/// `fpa.*` for the one follower both legs consume, `sim.cache.*`,
/// `cache.*`, `mds.*`). Quality counters in the
/// dump are deterministic; `*_ns` histograms are wall-clock and machine-
/// dependent, like `events_per_sec`.
fn obs_demo() -> farmer_obs::ObsReport {
    let trace = build_scenario("base", 0.05);
    let online = OnlineConfig::every(one_shard(&trace), (trace.len() / 8).max(1));
    let mut rep_cfg = ReplayConfig::for_family(trace.family);
    rep_cfg.num_phases = PHASES;
    let sim_cfg = SimConfig::for_family(trace.family).with_phases(PHASES);
    let reg = Registry::enabled();
    let _ = serve_online(&trace, &online, (sim_cfg, rep_cfg), &reg);
    reg.snapshot()
}

/// A second instrumented demo leg covering the durability scopes the
/// serving demo cannot reach: a [`DurableMiner`] over a tiny `failure`
/// trace, checkpointing with compaction on, crashed mid-stream and
/// recovered with the registry attached, so the record's `obs_recovery`
/// dump shows the `wal.*` scope end to end — appends, syncs, checkpoints,
/// compactions (`wal.compactions`, `wal.pages_dropped`, `wal.anchor_lsn`)
/// and the checkpoint-anchored recovery counters/histogram
/// (`wal.recoveries`, `wal.recovery_replay_events`,
/// `wal.recovery_fallbacks`, `wal.recovery_ns`).
fn obs_recovery_demo() -> farmer_obs::ObsReport {
    let trace = build_scenario("failure", 0.02);
    let target = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target");
    let dir = target.join(format!("failure-cells/obs-demo-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create obs-demo scratch dir");
    let wal = dir.join("obs.wal");
    let cfg = DurableConfig::new(one_shard(&trace))
        .with_checkpoint_interval((trace.len() / 4).max(1) as u64)
        .with_compaction(true);
    let reg = Registry::enabled();
    let mut miner =
        DurableMiner::create_instrumented(&wal, cfg.clone(), &reg).expect("create durable miner");
    for e in trace.events.iter().take(trace.len() * 3 / 4) {
        miner.ingest_event(&trace, e);
    }
    miner.crash();
    let (_recovered, _report) =
        recover_instrumented(&wal, cfg, &reg).expect("recover durable miner");
    let snap = reg.snapshot();
    let _ = std::fs::remove_dir_all(&dir);
    snap
}

fn json_report(
    report: &MatrixReport,
    scale: f64,
    obs: &farmer_obs::ObsReport,
    obs_recovery: &farmer_obs::ObsReport,
) -> Json {
    let names = |names: &[&str]| Json::Arr(names.iter().map(|&n| Json::str(n)).collect());
    let mut j = Json::obj()
        .field("bench", Json::str("eval_matrix"))
        .field("schema_version", Json::UInt(u64::from(SCHEMA_VERSION)))
        .field("scale", Json::F64(scale))
        .field("phases", Json::UInt(PHASES as u64))
        .field("scenarios", names(&SCENARIOS))
        .field("fpa_modes", names(&FPA_MODES))
        .field("failure_modes", names(&FAILURE_MODES))
        .field(
            "parity",
            Json::obj()
                .field(
                    "scenarios_checked",
                    Json::UInt(report.parity_scenarios as u64),
                )
                .field("max_degree_delta", Json::F64(report.max_parity_delta)),
        );
    if let Some(a) = report.drift_adaptation {
        j = j.field(
            "adaptation",
            Json::obj()
                .field("frozen_post_shift", Json::Fixed(a.frozen_post_shift, 4))
                .field("online_post_shift", Json::Fixed(a.online_post_shift, 4)),
        );
    }
    j.field("obs", obs.json())
        .field("obs_recovery", obs_recovery.json())
        .field(
            "cells",
            Json::Arr(report.cells.iter().map(Cell::to_json).collect()),
        )
}

fn main() {
    let args = BenchArgs::parse(QUICK_SCALE, &[]);
    let reference = args.check.then(|| {
        let reference = Reference::checked_in().unwrap_or_else(|e| {
            eprintln!("eval_matrix: the compiled-in BENCH_eval.json is unreadable: {e}");
            std::process::exit(2);
        });
        if (args.scale - reference.scale).abs() > 1e-12 {
            eprintln!(
                "eval_matrix: --check compares against BENCH_eval.json, recorded at scale {}; \
                 this run is at scale {} (drop --quick / the positional scale)",
                reference.scale, args.scale
            );
            std::process::exit(2);
        }
        reference
    });

    let points: Vec<_> = PAPER_SECTIONS.into_iter().flat_map(sweep).collect();
    eprintln!(
        "eval_matrix: scale {}, {} scenarios x ({} FARMER miner modes + 4 self-mining predictors) \
         + the paper grid + {} points of its sweeps + its entries",
        args.scale,
        SCENARIOS.len(),
        FPA_MODES.len(),
        points.len()
    );
    let mut report = run_matrix_with(args.scale, &SCENARIOS, &mut |s| {
        eprintln!("eval_matrix: scenario {s}...");
    });
    eprintln!("eval_matrix: paper grid, sweeps and entries...");
    report
        .cells
        .extend(paper_cells(args.scale, &PAPER_SECTIONS));
    eprintln!(
        "eval_matrix: {} cells, parity over {} scenarios (max degree delta {:e})",
        report.cells.len(),
        report.parity_scenarios,
        report.max_parity_delta
    );

    let obs = obs_demo();
    let obs_recovery = obs_recovery_demo();
    if args.obs {
        eprintln!("eval_matrix: instrumented demo-leg registry:");
        eprintln!("{}", obs.render());
        eprintln!("eval_matrix: instrumented crash/recover demo registry:");
        eprintln!("{}", obs_recovery.render());
    }
    println!(
        "{}",
        json_report(&report, args.scale, &obs, &obs_recovery).render()
    );

    if let Some(reference) = reference {
        let violations = refmodel::check(&report.cells, &reference);
        if !violations.is_empty() {
            eprintln!(
                "eval_matrix: {} reference-model violation(s) (after an intended change, \
                 regenerate: eval_matrix > BENCH_eval.json):",
                violations.len()
            );
            for v in &violations {
                eprintln!("  {v}");
            }
            std::process::exit(1);
        }
        eprintln!(
            "eval_matrix: all {} cells equal BENCH_eval.json",
            report.cells.len()
        );
    }
}
