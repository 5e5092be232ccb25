//! The evaluation reference-model matrix: every scenario × miner mode ×
//! predictor cell, end to end (trace → miner → `CorrelationSource` →
//! predictor → cache sim → MDS replay), emitted as one schema-versioned
//! JSON record and optionally verified against the baked-in reference
//! bands.
//!
//! ```text
//! cargo run --release -p farmer-bench --bin eval_matrix               # full matrix
//! cargo run --release -p farmer-bench --bin eval_matrix -- --quick    # CI smoke size
//! cargo run --release -p farmer-bench --bin eval_matrix -- --quick --check
//! cargo run --release -p farmer-bench --bin eval_matrix -- --calibrate 2>bands.rs
//! ```
//!
//! * `--check` — verify every cell against `refmodel`'s bands for the
//!   active profile and exit non-zero listing every violation. Requires
//!   the profile's calibrated scale (no positional override).
//! * `--calibrate` — after the run, emit the refreshed band tables (Rust
//!   source, with standard margins applied) on **stderr**: the cell table
//!   and the `failure`-family durability table; stdout stays the JSON
//!   record.
//! * `--obs` — additionally print the instrumented demo legs' metric
//!   registries (the same dumps embedded as the record's top-level `obs`
//!   and `obs_recovery` objects) on stderr.
//!
//! Batch-vs-sharded snapshot parity and cross-mode FPA quality equality
//! are asserted unconditionally — with or without `--check`, a run that
//! breaks a cross-mode invariant panics instead of reporting.

use farmer_bench::evalmatrix::{
    build_scenario, miner_config, run_matrix_with, Cell, MatrixReport, FPA_MODES, PHASES,
    SCENARIOS, SCHEMA_VERSION,
};
use farmer_bench::faults::FAILURE_MODES;
use farmer_bench::format::{obs_json, BenchArgs, Json};
use farmer_bench::lockstep::{serve_online, OnlineConfig};
use farmer_bench::refmodel::{self, Profile, QUICK_SCALE};
use farmer_mds::ReplayConfig;
use farmer_obs::Registry;
use farmer_prefetch::SimConfig;
use farmer_stream::{recover_instrumented, DurableConfig, DurableMiner, StreamConfig};
use farmer_trace::Op;

fn ms_arr(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Fixed(v, 3)).collect())
}

fn json_cell(c: &Cell, profile: Profile) -> Json {
    let mut j = Json::obj()
        .field("scenario", Json::str(c.scenario))
        .field("miner_mode", Json::str(c.mode))
        .field("predictor", Json::str(c.predictor))
        .field("hit_ratio", Json::Fixed(c.hit_ratio, 4))
        .field("prefetch_accuracy", Json::Fixed(c.prefetch_accuracy, 4))
        .field("prefetch_waste", Json::Fixed(c.prefetch_waste, 4))
        .field("avg_response_ms", Json::Fixed(c.avg_response_ms, 3))
        .field("response_p50_ms", Json::Fixed(c.response_p50_ms, 3))
        .field("response_p95_ms", Json::Fixed(c.response_p95_ms, 3))
        .field("response_p99_ms", Json::Fixed(c.response_p99_ms, 3))
        .field("events_per_sec", Json::Fixed(c.events_per_sec, 0))
        .field("memory_bytes", Json::UInt(c.memory_bytes as u64))
        .field(
            "phase_hit_ratios",
            Json::Arr(
                c.phase_hit_ratios
                    .iter()
                    .map(|&v| Json::Fixed(v, 4))
                    .collect(),
            ),
        )
        .field(
            "phase_response_ms",
            Json::Arr(
                c.phase_response_ms
                    .iter()
                    .map(|&v| Json::Fixed(v, 3))
                    .collect(),
            ),
        )
        .field("phase_p50_ms", ms_arr(&c.phase_p50_ms))
        .field("phase_p95_ms", ms_arr(&c.phase_p95_ms))
        .field("phase_p99_ms", ms_arr(&c.phase_p99_ms))
        .field("refreshes", Json::UInt(c.refreshes))
        .field("miner_evictions", Json::UInt(c.miner_evictions))
        .field("recoveries", Json::UInt(c.recoveries))
        .field("recovery_events", Json::UInt(c.recovery_events))
        .field("recovered_events", Json::UInt(c.recovered_events))
        .field("replay_fraction", Json::Fixed(c.replay_fraction, 4))
        .field("recovery_ms", Json::Fixed(c.recovery_ms, 3))
        .field("hit_ratio_dip", Json::Fixed(c.hit_ratio_dip, 4))
        .field("wal_bytes", Json::UInt(c.wal_bytes));
    if c.scenario == "failure" {
        if let Some(f) = refmodel::find_failure(profile, c.mode) {
            j = j.field(
                "failure_band",
                Json::obj()
                    .field("recoveries", Json::UInt(f.recoveries))
                    .field(
                        "recovery_events",
                        Json::Arr(vec![
                            Json::F64(f.recovery_events.lo),
                            Json::F64(f.recovery_events.hi),
                        ]),
                    )
                    .field(
                        "replay_fraction",
                        Json::Arr(vec![
                            Json::F64(f.replay_fraction.lo),
                            Json::F64(f.replay_fraction.hi),
                        ]),
                    )
                    .field(
                        "hit_ratio_dip",
                        Json::Arr(vec![
                            Json::F64(f.hit_ratio_dip.lo),
                            Json::F64(f.hit_ratio_dip.hi),
                        ]),
                    ),
            );
        }
    }
    if let Some(b) = refmodel::find(profile, c.scenario, c.mode, c.predictor) {
        j = j.field(
            "band",
            Json::obj()
                .field(
                    "hit_ratio",
                    Json::Arr(vec![Json::F64(b.hit_ratio.lo), Json::F64(b.hit_ratio.hi)]),
                )
                .field(
                    "prefetch_accuracy",
                    Json::Arr(vec![
                        Json::F64(b.prefetch_accuracy.lo),
                        Json::F64(b.prefetch_accuracy.hi),
                    ]),
                )
                .field(
                    "avg_response_ms",
                    Json::Arr(vec![
                        Json::F64(b.avg_response_ms.lo),
                        Json::F64(b.avg_response_ms.hi),
                    ]),
                )
                .field("memory_hi", Json::UInt(b.memory_hi)),
        );
    }
    j
}

/// One fully instrumented online cell whose metric registry is embedded
/// in the record as the top-level `obs` object: the `base` scenario at a
/// small fixed scale through the lockstep driver, so the dump shows
/// every registry scope the pipeline exports (`stream.*`, `online.*`,
/// `sim.cache.*`, `cache.*`, `store.*`, `mds.*`). Quality counters in the
/// dump are deterministic; `*_ns` histograms are wall-clock and machine-
/// dependent, like `events_per_sec`.
fn obs_demo() -> farmer_obs::ObsReport {
    let trace = build_scenario("base", 0.05);
    let stream = StreamConfig::default()
        .with_farmer(miner_config(&trace))
        .with_shards(1)
        .with_node_cap(1 << 20);
    let online = OnlineConfig::every(stream, (trace.len() / 8).max(1));
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
    let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    dir.pop();
    dir.pop();
    dir.push("target");
    dir.push("failure-cells");
    dir.push(format!("obs-demo-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create obs-demo scratch dir");
    let wal = dir.join("obs.wal");
    let stream = StreamConfig::default()
        .with_farmer(miner_config(&trace))
        .with_shards(1)
        .with_node_cap(1 << 20);
    let cfg = DurableConfig::new(stream)
        .with_checkpoint_interval((trace.len() / 4).max(1) as u64)
        .with_compaction(true);
    let reg = Registry::enabled();
    let mut miner =
        DurableMiner::create_instrumented(&wal, cfg.clone(), &reg).expect("create durable miner");
    for e in trace.events.iter().take(trace.len() * 3 / 4) {
        if e.op == Op::Unlink {
            miner.forget(e.file);
        } else if e.op.is_metadata_demand() {
            miner.ingest_event(&trace, e);
        }
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
    profile: Profile,
    scale: f64,
    obs: &farmer_obs::ObsReport,
    obs_recovery: &farmer_obs::ObsReport,
) -> Json {
    let mut j = Json::obj()
        .field("bench", Json::str("eval_matrix"))
        .field("schema_version", Json::UInt(u64::from(SCHEMA_VERSION)))
        .field("profile", Json::str(profile.name()))
        .field("scale", Json::F64(scale))
        .field("phases", Json::UInt(PHASES as u64))
        .field(
            "scenarios",
            Json::Arr(SCENARIOS.iter().map(|&s| Json::str(s)).collect()),
        )
        .field(
            "fpa_modes",
            Json::Arr(FPA_MODES.iter().map(|&m| Json::str(m)).collect()),
        )
        .field(
            "failure_modes",
            Json::Arr(FAILURE_MODES.iter().map(|&m| Json::str(m)).collect()),
        )
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
    j.field("obs", obs_json(obs))
        .field("obs_recovery", obs_json(obs_recovery))
        .field(
            "cells",
            Json::Arr(report.cells.iter().map(|c| json_cell(c, profile)).collect()),
        )
}

fn main() {
    let args = BenchArgs::parse(QUICK_SCALE);
    let profile = if args.quick {
        Profile::Quick
    } else {
        Profile::Full
    };
    if (args.check || args.calibrate) && (args.scale - profile.scale()).abs() > 1e-12 {
        eprintln!(
            "eval_matrix: --check/--calibrate require the {} profile's calibrated scale {} \
             (got {}); drop the positional scale",
            profile.name(),
            profile.scale(),
            args.scale
        );
        std::process::exit(2);
    }

    // Under --calibrate, stderr IS the deliverable (the band table the
    // module docs say to capture with `2>bands.rs`), so progress chatter
    // is suppressed to keep the captured file paste-able.
    let chatty = !args.calibrate;
    if chatty {
        eprintln!(
            "eval_matrix: {} profile, scale {}, {} scenarios x ({} FARMER miner modes + 4 self-mining predictors)",
            profile.name(),
            args.scale,
            SCENARIOS.len(),
            FPA_MODES.len()
        );
    }
    let report = run_matrix_with(args.scale, &SCENARIOS, &mut |s| {
        if chatty {
            eprintln!("eval_matrix: scenario {s}...");
        }
    });
    if chatty {
        eprintln!(
            "eval_matrix: {} cells, parity over {} scenarios (max degree delta {:e})",
            report.cells.len(),
            report.parity_scenarios,
            report.max_parity_delta
        );
    }

    let obs = obs_demo();
    let obs_recovery = obs_recovery_demo();
    if args.obs && chatty {
        eprintln!("eval_matrix: instrumented demo-leg registry:");
        eprintln!("{}", obs.render());
        eprintln!("eval_matrix: instrumented crash/recover demo registry:");
        eprintln!("{}", obs_recovery.render());
    }
    println!(
        "{}",
        json_report(&report, profile, args.scale, &obs, &obs_recovery).render()
    );

    if args.calibrate {
        eprintln!(
            "// {} profile band table (paste over the matching table in refmodel.rs):",
            profile.name()
        );
        eprintln!("{}", refmodel::calibrate(&report.cells));
        eprintln!(
            "// {} profile durability band table (paste over the matching table in refmodel.rs):",
            profile.name()
        );
        eprintln!("{}", refmodel::calibrate_failure(&report.cells));
    }
    if args.check {
        match refmodel::check(&report.cells, profile) {
            Ok(n) => eprintln!("eval_matrix: all {n} cells within reference bands"),
            Err(violations) => {
                eprintln!(
                    "eval_matrix: {} reference-model violation(s):",
                    violations.len()
                );
                for v in &violations {
                    eprintln!("  {v}");
                }
                std::process::exit(1);
            }
        }
    }
}
