//! The evaluation reference-model matrix: every scenario × miner mode ×
//! predictor, end to end.
//!
//! FARMER's "ER" is an *evaluation reference model*: a fixed grid of
//! workloads and serving configurations that any change to the miner, the
//! query layer or the predictors is measured against. This module drives
//! each cell through the full pipeline
//!
//! ```text
//! trace → miner → CorrelationSource → predictor → cache sim → MDS replay
//! ```
//!
//! and reports hit ratio, prefetch accuracy/waste, mean response time,
//! drive throughput and resident memory per cell, plus per-phase curves
//! (the drift scenario's whole point is what happens *around* a phase
//! boundary, which a single average hides).
//!
//! **Scenario axis** (one control + the four adversarial generators from
//! [`farmer_trace::workload::adversarial`], plus the correlated-failure
//! family): `base`, `drift`, `tenants`, `storm`, `churn`, `failure`.
//!
//! The `failure` scenario is special: instead of the miner-mode ×
//! predictor grid it runs one cell per **failure mode**
//! ([`crate::faults::FAILURE_MODES`]) — a durable ([`farmer_stream::DurableMiner`])
//! online-serving pipeline that is killed mid-stream at deterministic
//! event indices, optionally has its write-ahead log torn, and is then
//! recovered and cold-restarted (cache cleared, MDS restarted). Every
//! recovery is asserted **bitwise identical** to an uninterrupted oracle
//! fed the recovered operation prefix, and the cells additionally report
//! recovery counts, replayed events, wall-clock recovery time, the
//! post-recovery hit-ratio dip, and the final WAL size (see
//! [`crate::faults`]). Batch-vs-sharded parity does not apply to this
//! family, so it does not count toward `parity_scenarios`.
//!
//! **Miner-mode axis** (FARMER's FPA only — the other predictors mine
//! internally and run as mode `self`):
//!
//! * `batch` (one [`Farmer`] over the whole trace), `sharded1` and
//!   `sharded4` (the `farmer-stream` sharded online miner with 1 and 4
//!   shards, uncapped so no eviction noise enters the comparison). The
//!   three modes must produce the *same* mined model — [`run_matrix`]
//!   asserts exact batch-vs-sharded snapshot parity per scenario and
//!   bitwise-equal quality metrics across the three FPA cells, so any
//!   divergence in the sharding or snapshot path fails the run before any
//!   band is consulted. These modes mine the **whole** trace and then
//!   serve from the frozen final snapshot — an oracle that has seen the
//!   future.
//! * **Online serving modes** (`online8`, `online64`, driven by
//!   [`crate::lockstep::Lockstep`]): one live [`ShardedMiner`] is fed the
//!   stream in lockstep with both serving legs and a fresh
//!   [`StreamSnapshot`] is swapped into both predictors every
//!   `len/8` (resp. `len/64`) events, so per-phase hit-ratio deltas
//!   directly measure adaptation lag. `frozen` takes exactly one snapshot
//!   at the end of the first reporting segment and serves it for the rest
//!   of the run — the no-adaptation baseline the online modes are
//!   measured against ([`run_matrix`] asserts online beats frozen on the
//!   drift scenario's post-shift segments, and stays within
//!   [`ONLINE_CONVERGENCE_GAP`] of the batch oracle on the stationary
//!   `base` scenario).
//! * **Capped miner cells** (`capped1`, `capped4`, `online64capped`):
//!   the same pipeline with `node_cap` [`CAPPED_NODE_CAP`] per shard —
//!   small enough that `tenants` and `churn` force Space-Saving eviction
//!   — measuring the serving-quality cost of bounded miner memory.
//!   Eviction makes the mined model depend on the shard partition, so no
//!   cross-shard parity is asserted here; each capped cell has its own
//!   band.
//!
//! Unlink events are routed as forgets ([`Farmer::forget_file`] /
//! [`ShardedMiner::route_forget`]) in every mode, which is what the churn
//! scenario exercises.
//!
//! The reference a run is checked against is the checked-in full-scale
//! record, `BENCH_eval.json` ([`crate::refmodel`]); the `eval_matrix`
//! binary's `--check` mode fails on out-of-band results.

use std::sync::Arc;
use std::time::Instant;

use farmer_core::{CorrelationSource, Farmer, FarmerConfig};
use farmer_mds::{replay, ReplayConfig};
use farmer_obs::{Json, Registry};
use farmer_prefetch::baselines::LruOnly;
use farmer_prefetch::{
    simulate, FpaPredictor, NexusPredictor, Predictor, ProbabilityGraph, SdGraph, SimConfig,
    SimReport,
};
use farmer_stream::{ShardedMiner, SnapshotCell, StreamConfig, StreamSnapshot};
use farmer_trace::workload::{ChurnSpec, DriftSpec, MultiTenantSpec, ScanStormSpec};
use farmer_trace::{Op, Trace, WorkloadSpec};

use crate::lockstep::{serve_online, MinerSide, OnlineConfig};
pub use crate::refmodel::SCHEMA_VERSION;

/// The `eval_matrix --quick` scale factor: an unchecked fast run (the
/// reference record is full scale), still large enough that the capped
/// cells of `tenants` and `churn` must evict.
pub const QUICK_SCALE: f64 = 0.25;

/// Event-index segments each cell is additionally reported over.
pub const PHASES: usize = 4;

/// The scenario axis, in emission order. `failure` is the
/// correlated-failure family: one cell per [`crate::faults::FAILURE_MODES`]
/// entry instead of the miner-mode × predictor grid.
pub const SCENARIOS: [&str; 6] = ["base", "drift", "tenants", "storm", "churn", "failure"];

/// The miner-mode axis for the FARMER predictor: the three exact-parity
/// whole-trace modes, the adaptation-lag serving modes (`frozen`,
/// `online{refreshes}` — the number is refresh points per run, i.e. a
/// refresh every `len/8` or `len/64` events), and the capped-eviction
/// modes.
pub const FPA_MODES: [&str; 9] = [
    "batch",
    "sharded1",
    "sharded4",
    "frozen",
    "online8",
    "online64",
    "capped1",
    "capped4",
    "online64capped",
];

/// The self-mining predictor axis.
pub const SELF_PREDICTORS: [&str; 4] = ["Nexus", "ProbGraph", "SdGraph", "LRU"];

/// Refresh points per run of the sparse online mode (`online8`).
pub const ONLINE_SPARSE_REFRESHES: usize = 8;

/// Refresh points per run of the dense online mode (`online64`, also the
/// cadence of `online64capped`).
pub const ONLINE_DENSE_REFRESHES: usize = 64;

/// Per-shard `node_cap` of the capped miner cells: well below the
/// scenarios' per-shard distinct-file counts from [`QUICK_SCALE`] up
/// (the tightest case, `churn --quick` at 4 shards, touches ~820 distinct
/// files per shard), so `tenants` and `churn` — and in practice every
/// scenario — force Space-Saving eviction in every capped cell.
pub const CAPPED_NODE_CAP: usize = 512;

/// Largest tolerated demand-hit-ratio deficit of densely-refreshed online
/// serving (`online64`) below the whole-trace batch oracle on the
/// stationary `base` scenario, measured on the **last** reporting segment
/// (after the online model has warmed up; the first segment is
/// structurally cold — the miner starts empty). A small steady-state
/// deficit is structural (the oracle has seen the future); a large one
/// means snapshot cadence or refresh plumbing regressed.
pub const ONLINE_CONVERGENCE_GAP: f64 = 0.10;

/// Build one scenario's trace at `scale` (1.0 = the full checked-in
/// matrix).
///
/// Panics on an unknown name — scenario names are part of the reference
/// model's identity.
pub fn build_scenario(name: &str, scale: f64) -> Trace {
    match name {
        // Control: the stationary HP preset every figure bin also uses.
        "base" => WorkloadSpec::hp().scaled(0.4 * scale).generate(),
        // Phase-shifting correlation drift, four phases (aligned with the
        // PHASES reporting segments so each segment is one regime).
        "drift" => DriftSpec::new(WorkloadSpec::hp().scaled(0.4 * scale))
            .with_phases(PHASES)
            .generate(),
        // Three unrelated clusters consolidated behind one service; the
        // RES/INS tenants make the merged namespace pathless (labelled
        // RES, the first pathless family), so this cell also exercises
        // the pathless attribute combo.
        "tenants" => MultiTenantSpec {
            tenants: vec![
                WorkloadSpec::hp().scaled(0.15 * scale),
                WorkloadSpec::res().scaled(0.33 * scale),
                WorkloadSpec::ins().scaled(0.5 * scale),
            ],
        }
        .generate(),
        // Sequential sweeps + hot-set flash crowds over the HP base.
        "storm" => ScanStormSpec::new(WorkloadSpec::hp().scaled(0.3 * scale)).generate(),
        // Create/co-access/unlink generations over the HP base.
        "churn" => ChurnSpec::new(WorkloadSpec::hp().scaled(0.3 * scale)).generate(),
        // The correlated-failure family reuses the churn generator: the
        // unlink stream exercises both WAL record kinds (ingest + forget)
        // at every kill point, and generational turnover makes a stale
        // recovered model actually hurt.
        "failure" => ChurnSpec::new(WorkloadSpec::hp().scaled(0.3 * scale)).generate(),
        other => panic!("unknown scenario {other:?}"),
    }
}

/// The miner configuration every mode uses for a given trace: the paper
/// defaults, pathless when the trace records no paths — identical to what
/// [`FpaPredictor::for_trace`] serves with, so mined degrees and serving
/// thresholds agree.
pub fn miner_config(trace: &Trace) -> FarmerConfig {
    if trace.family.has_paths() {
        FarmerConfig::default()
    } else {
        FarmerConfig::pathless()
    }
}

/// One measured cell of the matrix.
#[derive(Debug, Clone, Default)]
pub struct Cell {
    /// Scenario name (one of [`SCENARIOS`]).
    pub scenario: &'static str,
    /// Miner mode: `batch`/`sharded1`/`sharded4` for FARMER, `self` for
    /// internally mining predictors.
    pub mode: &'static str,
    /// Predictor display name.
    pub predictor: &'static str,
    /// Demand hit ratio of the cache simulation.
    pub hit_ratio: f64,
    /// Prefetch accuracy (useful / issued).
    pub prefetch_accuracy: f64,
    /// Prefetch waste (evicted-unused / issued).
    pub prefetch_waste: f64,
    /// Mean response time of the MDS replay, in milliseconds.
    pub avg_response_ms: f64,
    /// Median response time of the MDS replay (ms). Quantiles come from
    /// the replay's log2-bucketed service-time histogram, so they are
    /// bucket upper bounds — deterministic, but coarser than the mean.
    pub response_p50_ms: f64,
    /// 95th-percentile response time of the MDS replay (ms).
    pub response_p95_ms: f64,
    /// 99th-percentile response time of the MDS replay (ms).
    pub response_p99_ms: f64,
    /// Events per second of the cell's drive loop: the mining pass for
    /// whole-trace FARMER modes, the lockstep loop (mining + both serving
    /// legs) for online and failure cells, the simulation demand loop for
    /// self predictors. Machine-dependent — excluded from reference bands.
    pub events_per_sec: f64,
    /// Peak resident bytes across miner and predictor state (state grows
    /// monotonically in every mode here, so end-of-run is the peak).
    pub memory_bytes: usize,
    /// Hit ratio per event-index segment ([`PHASES`] entries).
    pub phase_hit_ratios: Vec<f64>,
    /// Mean response (ms) per event-index segment ([`PHASES`] entries).
    pub phase_response_ms: Vec<f64>,
    /// Median response (ms) per event-index segment.
    pub phase_p50_ms: Vec<f64>,
    /// 95th-percentile response (ms) per event-index segment.
    pub phase_p95_ms: Vec<f64>,
    /// 99th-percentile response (ms) per event-index segment.
    pub phase_p99_ms: Vec<f64>,
    /// Snapshot refreshes swapped into the predictor (online modes; 0 for
    /// whole-trace serving).
    pub refreshes: u64,
    /// Files the miner evicted under `node_cap` pressure (capped modes; 0
    /// when uncapped).
    pub miner_evictions: u64,
    /// Crash/recover cycles survived (failure cells; 0 elsewhere).
    pub recoveries: u64,
    /// Logged events re-processed (WAL suffix replay) across all
    /// recoveries (failure cells).
    pub recovery_events: u64,
    /// Logged events the recovered states represent — checkpoint-anchored
    /// prefix plus replayed suffix (failure cells). Equals
    /// `recovery_events` for genesis-replay modes.
    pub recovered_events: u64,
    /// `recovery_events / recovered_events`: the replayed share of the
    /// recovered state. 1.0 without checkpoints, ≪ 1 when a checkpoint
    /// image anchors the recovery; 0 when no recovery happened.
    pub replay_fraction: f64,
    /// Wall-clock milliseconds the recoveries took (failure cells).
    /// Machine-dependent — reported but excluded from reference bands.
    pub recovery_ms: f64,
    /// Worst per-kill demand hit-ratio dip: the ratio over the window
    /// before a kill minus the window after it (failure cells).
    pub hit_ratio_dip: f64,
    /// Final write-ahead-log size in bytes (failure cells; 0 elsewhere).
    pub wal_bytes: u64,
}

impl Cell {
    /// The cell as it appears in the record's `cells[]` — the printed
    /// precision here is the precision [`crate::refmodel::check`]
    /// compares a run with the record at.
    pub fn to_json(&self) -> Json {
        let fixed = |values: &[f64], decimals| {
            Json::Arr(values.iter().map(|&v| Json::Fixed(v, decimals)).collect())
        };
        Json::obj()
            .field("scenario", Json::str(self.scenario))
            .field("miner_mode", Json::str(self.mode))
            .field("predictor", Json::str(self.predictor))
            .field("hit_ratio", Json::Fixed(self.hit_ratio, 4))
            .field("prefetch_accuracy", Json::Fixed(self.prefetch_accuracy, 4))
            .field("prefetch_waste", Json::Fixed(self.prefetch_waste, 4))
            .field("avg_response_ms", Json::Fixed(self.avg_response_ms, 3))
            .field("response_p50_ms", Json::Fixed(self.response_p50_ms, 3))
            .field("response_p95_ms", Json::Fixed(self.response_p95_ms, 3))
            .field("response_p99_ms", Json::Fixed(self.response_p99_ms, 3))
            .field("events_per_sec", Json::Fixed(self.events_per_sec, 0))
            .field("memory_bytes", Json::UInt(self.memory_bytes as u64))
            .field("phase_hit_ratios", fixed(&self.phase_hit_ratios, 4))
            .field("phase_response_ms", fixed(&self.phase_response_ms, 3))
            .field("phase_p50_ms", fixed(&self.phase_p50_ms, 3))
            .field("phase_p95_ms", fixed(&self.phase_p95_ms, 3))
            .field("phase_p99_ms", fixed(&self.phase_p99_ms, 3))
            .field("refreshes", Json::UInt(self.refreshes))
            .field("miner_evictions", Json::UInt(self.miner_evictions))
            .field("recoveries", Json::UInt(self.recoveries))
            .field("recovery_events", Json::UInt(self.recovery_events))
            .field("recovered_events", Json::UInt(self.recovered_events))
            .field("replay_fraction", Json::Fixed(self.replay_fraction, 4))
            .field("recovery_ms", Json::Fixed(self.recovery_ms, 3))
            .field("hit_ratio_dip", Json::Fixed(self.hit_ratio_dip, 4))
            .field("wal_bytes", Json::UInt(self.wal_bytes))
    }

    /// Mean demand hit ratio over the post-shift reporting segments
    /// (everything after the first) — the drift scenario's adaptation
    /// metric: the first segment is the pre-shift regime, every later
    /// segment starts with rotated co-access sets.
    pub fn post_shift_hit_ratio(&self) -> f64 {
        let tail = self.phase_hit_ratios.get(1..).unwrap_or(&[]);
        if tail.is_empty() {
            return self.hit_ratio;
        }
        tail.iter().sum::<f64>() / tail.len() as f64
    }
}

/// Post-shift hit ratios of the drift scenario's adaptation comparison.
#[derive(Debug, Clone, Copy)]
pub struct AdaptationSummary {
    /// Frozen-snapshot serving (one snapshot at the first segment
    /// boundary, never refreshed).
    pub frozen_post_shift: f64,
    /// Densely refreshed online serving (`online64`).
    pub online_post_shift: f64,
}

/// The full matrix run plus the cross-mode invariants it verified.
#[derive(Debug, Clone)]
pub struct MatrixReport {
    /// Every cell, scenario-major in [`SCENARIOS`] × mode × predictor
    /// order.
    pub cells: Vec<Cell>,
    /// Scenarios whose batch-vs-sharded snapshot parity was asserted.
    pub parity_scenarios: usize,
    /// Largest absolute correlation-degree difference observed across all
    /// parity comparisons (0.0 means bit-identical lists).
    pub max_parity_delta: f64,
    /// The drift scenario's frozen-vs-online post-shift comparison
    /// (asserted `online ≥ frozen` by the run); `None` when drift was not
    /// among the scenarios.
    pub drift_adaptation: Option<AdaptationSummary>,
}

/// Drive the miner over a trace with the matrix's mining policy: metadata
/// demands are observed, unlinks are forgotten, `Close` is ignored.
fn mine_batch(trace: &Trace, cfg: &FarmerConfig) -> (Farmer, f64) {
    let mut farmer = Farmer::new(cfg.clone());
    let start = Instant::now();
    for e in &trace.events {
        if e.op == Op::Unlink {
            farmer.forget_file(e.file);
        } else if e.op.is_metadata_demand() {
            farmer.observe_event(trace, e);
        }
    }
    let rate = trace.len() as f64 / start.elapsed().as_secs_f64().max(1e-9);
    (farmer, rate)
}

/// The streaming configuration of the uncapped (exact-parity and online)
/// miner modes: a cap no scenario can reach.
fn uncapped_stream_cfg(cfg: &FarmerConfig, shards: usize) -> StreamConfig {
    StreamConfig::default()
        .with_farmer(cfg.clone())
        .with_shards(shards)
        // Uncapped: mode parity must compare mining, not eviction policy.
        .with_node_cap(1 << 20)
}

/// The streaming configuration of the capped miner modes:
/// [`CAPPED_NODE_CAP`] files per shard, forcing Space-Saving eviction on
/// the churning/consolidated scenarios.
fn capped_stream_cfg(cfg: &FarmerConfig, shards: usize) -> StreamConfig {
    StreamConfig::default()
        .with_farmer(cfg.clone())
        .with_shards(shards)
        .with_node_cap(CAPPED_NODE_CAP)
}

/// Same policy through the sharded online miner; returns the consistent
/// snapshot and the drive rate (including the snapshot barrier). Resident
/// state bytes and evictions ride on the snapshot.
fn mine_sharded(trace: &Trace, scfg: StreamConfig) -> (StreamSnapshot, f64) {
    let mut miner = ShardedMiner::spawn(scfg);
    let start = Instant::now();
    for i in 0..trace.len() {
        miner.mine(trace, i);
    }
    let snap = miner.snapshot();
    let rate = trace.len() as f64 / start.elapsed().as_secs_f64().max(1e-9);
    (snap, rate)
}

/// Assert exact batch-vs-sharded parity for one scenario; returns the
/// largest absolute degree delta (≤ 1e-12 by construction).
fn assert_parity(scenario: &str, shards: usize, batch: &Farmer, snap: &StreamSnapshot) -> f64 {
    let mut max_delta = 0.0f64;
    // The sharded snapshot only holds tracked owners, so walk the batch
    // side for completeness in both directions.
    let mut batch_lists = 0usize;
    batch.for_each_list(&mut |owner, entries| {
        if entries.is_empty() {
            return;
        }
        batch_lists += 1;
        let got = snap
            .correlators(owner)
            .unwrap_or_else(|| panic!("{scenario}/sharded{shards}: missing list for {owner}"));
        assert_eq!(
            got.len(),
            entries.len(),
            "{scenario}/sharded{shards}: list length diverged for {owner}"
        );
        for (g, w) in got.iter().zip(entries.iter()) {
            assert_eq!(
                g.file, w.file,
                "{scenario}/sharded{shards}: successor diverged for {owner}"
            );
            let delta = (g.degree - w.degree).abs();
            assert!(
                delta < 1e-12,
                "{scenario}/sharded{shards}: degree diverged for {owner}: {delta}"
            );
            max_delta = max_delta.max(delta);
        }
    });
    assert_eq!(
        batch_lists,
        snap.num_lists(),
        "{scenario}/sharded{shards}: snapshot holds extra lists"
    );
    max_delta
}

/// Per-trace simulation/replay configs (family-sized caches, segmented
/// reporting).
pub(crate) fn cell_configs(trace: &Trace) -> (SimConfig, ReplayConfig) {
    let sim = SimConfig::for_family(trace.family).with_phases(PHASES);
    let mut rep = ReplayConfig::for_family(trace.family);
    rep.num_phases = PHASES;
    (sim, rep)
}

/// Run FPA over a whole-trace mining result through sim + replay: the
/// snapshot is published once and both legs' predictors follow the cell.
fn fpa_cell(
    scenario: &'static str,
    mode: &'static str,
    trace: &Trace,
    mined: StreamSnapshot,
    mine_rate: f64,
    miner_bytes: usize,
) -> Cell {
    let (sim_cfg, rep_cfg) = cell_configs(trace);
    let cell = Arc::new(SnapshotCell::new());
    cell.install(Arc::new(mined));
    let follower = || FpaPredictor::for_trace(trace).following(&cell);
    let sim = simulate(trace, &mut follower(), sim_cfg);
    let rep = replay(trace, Box::new(follower()), rep_cfg);
    finish_cell(scenario, mode, "FARMER", sim, rep, mine_rate, miner_bytes)
}

/// Refresh interval (events) giving `refreshes` evenly spaced refresh
/// points over `trace`.
fn refresh_interval(trace: &Trace, refreshes: usize) -> usize {
    (trace.len() / refreshes.max(1)).max(1)
}

/// Run FPA under an online serving mode: one live miner, both serving
/// legs, driven in lockstep.
fn online_cell(
    scenario: &'static str,
    mode: &'static str,
    trace: &Trace,
    online: &OnlineConfig,
) -> Cell {
    let (run, end) = serve_online(trace, online, cell_configs(trace), &Registry::disabled());
    let mut cell = finish_cell(
        scenario,
        mode,
        "FARMER",
        run.sim,
        run.replay,
        run.events_per_sec,
        end.state_bytes,
    );
    cell.refreshes = run.refreshes;
    cell.miner_evictions = end.evictions;
    cell
}

/// Run a self-mining predictor through sim + replay. `make` constructs a
/// fresh instance per leg so the replay does not serve a pre-trained
/// model.
fn self_cell(
    scenario: &'static str,
    predictor: &'static str,
    trace: &Trace,
    make: &dyn Fn() -> Box<dyn Predictor>,
) -> Cell {
    let (sim_cfg, rep_cfg) = cell_configs(trace);
    let mut p = make();
    let start = Instant::now();
    let sim = simulate(trace, p.as_mut(), sim_cfg);
    let rate = trace.len() as f64 / start.elapsed().as_secs_f64().max(1e-9);
    let rep = replay(trace, make(), rep_cfg);
    finish_cell(scenario, "self", predictor, sim, rep, rate, 0)
}

fn finish_cell(
    scenario: &'static str,
    mode: &'static str,
    predictor: &'static str,
    sim: SimReport,
    rep: farmer_mds::ReplayReport,
    events_per_sec: f64,
    miner_bytes: usize,
) -> Cell {
    let cell = Cell {
        scenario,
        mode,
        predictor,
        hit_ratio: sim.hit_ratio(),
        prefetch_accuracy: sim.prefetch_accuracy(),
        prefetch_waste: sim.stats.prefetch_waste(),
        avg_response_ms: rep.avg_response_ms(),
        response_p50_ms: rep.latency.percentile_us(0.50) as f64 / 1000.0,
        response_p95_ms: rep.latency.percentile_us(0.95) as f64 / 1000.0,
        response_p99_ms: rep.latency.percentile_us(0.99) as f64 / 1000.0,
        events_per_sec,
        memory_bytes: miner_bytes
            .max(sim.predictor_memory)
            .max(rep.predictor_memory),
        phase_hit_ratios: sim.phases.iter().map(|p| p.hit_ratio()).collect(),
        phase_response_ms: rep.phase_mean_ms.clone(),
        phase_p50_ms: rep.phase_p50_ms.clone(),
        phase_p95_ms: rep.phase_p95_ms.clone(),
        phase_p99_ms: rep.phase_p99_ms.clone(),
        refreshes: 0,
        miner_evictions: 0,
        recoveries: 0,
        recovery_events: 0,
        recovered_events: 0,
        replay_fraction: 0.0,
        recovery_ms: 0.0,
        hit_ratio_dip: 0.0,
        wal_bytes: 0,
    };
    for (name, v) in [
        ("hit_ratio", cell.hit_ratio),
        ("prefetch_accuracy", cell.prefetch_accuracy),
        ("prefetch_waste", cell.prefetch_waste),
    ] {
        assert!(
            (0.0..=1.0).contains(&v),
            "{scenario}/{mode}/{predictor}: {name} out of [0,1]: {v}"
        );
    }
    assert!(
        cell.avg_response_ms.is_finite() && cell.avg_response_ms > 0.0,
        "{scenario}/{mode}/{predictor}: bad response time"
    );
    assert!(
        cell.response_p50_ms > 0.0
            && cell.response_p50_ms <= cell.response_p95_ms
            && cell.response_p95_ms <= cell.response_p99_ms,
        "{scenario}/{mode}/{predictor}: response quantiles out of order: \
         p50 {} p95 {} p99 {}",
        cell.response_p50_ms,
        cell.response_p95_ms,
        cell.response_p99_ms
    );
    assert!(cell.events_per_sec.is_finite() && cell.events_per_sec > 0.0);
    cell
}

/// Run the whole matrix at `scale`. Asserts the cross-mode invariants
/// (snapshot parity, identical FPA quality across miner modes) along the
/// way — a matrix that fails an invariant never produces a report.
pub fn run_matrix(scale: f64) -> MatrixReport {
    run_matrix_with(scale, &SCENARIOS, &mut |_| {})
}

/// [`run_matrix`] over a scenario subset with a per-scenario progress
/// callback (the binary logs to stderr; tests pass a no-op).
pub fn run_matrix_with(
    scale: f64,
    scenarios: &[&'static str],
    progress: &mut dyn FnMut(&str),
) -> MatrixReport {
    assert!(scale > 0.0, "scale must be positive");
    let mut cells = Vec::new();
    let mut parity_scenarios = 0;
    let mut max_parity_delta = 0.0f64;
    let mut drift_adaptation = None;

    for &scenario in scenarios {
        progress(scenario);
        let trace = build_scenario(scenario, scale);
        let cfg = miner_config(&trace);

        if scenario == "failure" {
            // The correlated-failure family: one durable online-serving
            // cell per kill plan, each proven bitwise-recoverable inside
            // run_failure_cell. No batch/sharded parity applies (the
            // whole point is crashing the only miner), so this scenario
            // does not count toward parity_scenarios.
            for mode in crate::faults::FAILURE_MODES {
                let r = crate::faults::run_failure_cell(
                    &trace,
                    cfg.clone(),
                    mode,
                    ONLINE_DENSE_REFRESHES,
                    cell_configs(&trace),
                    &Registry::disabled(),
                );
                let mut cell = finish_cell(
                    scenario,
                    mode,
                    "FARMER",
                    r.sim,
                    r.replay,
                    r.events_per_sec,
                    r.miner_state_bytes,
                );
                cell.refreshes = r.refreshes;
                cell.recoveries = r.recoveries;
                cell.recovery_events = r.recovery_events;
                cell.recovered_events = r.recovered_events;
                cell.replay_fraction = r.replay_fraction;
                cell.recovery_ms = r.recovery_ms;
                cell.hit_ratio_dip = r.hit_ratio_dip;
                cell.wal_bytes = r.wal_bytes;
                assert!(
                    cell.recoveries > 0 && cell.recovery_events > 0,
                    "{scenario}/{mode}: failure cell never recovered"
                );
                cells.push(cell);
            }
            continue;
        }

        // FARMER's three exact-parity miner modes over the identical
        // mining policy.
        let (batch, batch_rate) = mine_batch(&trace, &cfg);
        let batch_bytes = batch.memory_bytes();
        let batch_snap = StreamSnapshot {
            table: batch.correlator_table(),
            events: trace.len() as u64,
            ..StreamSnapshot::default()
        };
        let mut fpa_cells = vec![fpa_cell(
            scenario,
            "batch",
            &trace,
            batch_snap,
            batch_rate,
            batch_bytes,
        )];
        for (mode, shards) in [("sharded1", 1usize), ("sharded4", 4usize)] {
            let (snap, rate) = mine_sharded(&trace, uncapped_stream_cfg(&cfg, shards));
            max_parity_delta = max_parity_delta.max(assert_parity(scenario, shards, &batch, &snap));
            let bytes = snap.state_bytes;
            fpa_cells.push(fpa_cell(scenario, mode, &trace, snap, rate, bytes));
        }
        parity_scenarios += 1;

        // The mined model is identical across modes, so serving quality
        // must be too — bitwise, not approximately.
        for c in &fpa_cells[1..] {
            let b = &fpa_cells[0];
            for (name, x, y) in [
                ("hit_ratio", b.hit_ratio, c.hit_ratio),
                (
                    "prefetch_accuracy",
                    b.prefetch_accuracy,
                    c.prefetch_accuracy,
                ),
                ("prefetch_waste", b.prefetch_waste, c.prefetch_waste),
                ("avg_response_ms", b.avg_response_ms, c.avg_response_ms),
            ] {
                assert!(
                    (x - y).abs() < 1e-12,
                    "{scenario}: FPA {name} diverged between batch and {}: {x} vs {y}",
                    c.mode
                );
            }
        }

        // Adaptation-lag serving modes: frozen (one snapshot at the first
        // segment boundary) vs periodic online refresh, uncapped.
        let stream = uncapped_stream_cfg(&cfg, 1);
        let frozen = online_cell(
            scenario,
            "frozen",
            &trace,
            &OnlineConfig::frozen_at(stream.clone(), trace.len() / PHASES),
        );
        assert_eq!(
            frozen.refreshes, 1,
            "{scenario}: frozen mode must refresh exactly once"
        );
        let online_sparse = online_cell(
            scenario,
            "online8",
            &trace,
            &OnlineConfig::every(
                stream.clone(),
                refresh_interval(&trace, ONLINE_SPARSE_REFRESHES),
            ),
        );
        let online_dense = online_cell(
            scenario,
            "online64",
            &trace,
            &OnlineConfig::every(stream, refresh_interval(&trace, ONLINE_DENSE_REFRESHES)),
        );
        if scenario == "drift" {
            // The paper's core online claim: correlation-directed
            // prefetching keeps paying off while the workload shifts
            // underneath it — refreshed serving must beat the frozen
            // pre-shift snapshot once the co-access sets rotate.
            for online in [&online_sparse, &online_dense] {
                assert!(
                    online.post_shift_hit_ratio() >= frozen.post_shift_hit_ratio(),
                    "drift: {} post-shift hit ratio {:.4} fell below frozen-snapshot \
                     serving {:.4} — online adaptation regressed",
                    online.mode,
                    online.post_shift_hit_ratio(),
                    frozen.post_shift_hit_ratio()
                );
            }
            drift_adaptation = Some(AdaptationSummary {
                frozen_post_shift: frozen.post_shift_hit_ratio(),
                online_post_shift: online_dense.post_shift_hit_ratio(),
            });
        }
        if scenario == "base" {
            // Stationary workload: once warmed up, densely refreshed
            // online serving must converge to within a fixed gap of the
            // whole-trace oracle (compared on the final segment; the
            // first is structurally cold).
            let last = PHASES - 1;
            let gap = fpa_cells[0].phase_hit_ratios[last] - online_dense.phase_hit_ratios[last];
            assert!(
                gap <= ONLINE_CONVERGENCE_GAP,
                "base: online64 last-segment hit ratio trails the batch oracle \
                 by {gap:.4} (> {ONLINE_CONVERGENCE_GAP}) — snapshot cadence or \
                 refresh plumbing regressed"
            );
        }
        fpa_cells.extend([frozen, online_sparse, online_dense]);

        // Capped miner modes: whole-trace mining under node_cap pressure,
        // plus the capped online combination.
        for (mode, shards) in [("capped1", 1usize), ("capped4", 4usize)] {
            let (snap, rate) = mine_sharded(&trace, capped_stream_cfg(&cfg, shards));
            assert!(
                snap.tracked_files <= CAPPED_NODE_CAP * shards,
                "{scenario}/{mode}: node cap violated"
            );
            let (bytes, evictions) = (snap.state_bytes, snap.evictions);
            let mut cell = fpa_cell(scenario, mode, &trace, snap, rate, bytes);
            cell.miner_evictions = evictions;
            fpa_cells.push(cell);
        }
        fpa_cells.push(online_cell(
            scenario,
            "online64capped",
            &trace,
            &OnlineConfig::every(
                capped_stream_cfg(&cfg, 1),
                refresh_interval(&trace, ONLINE_DENSE_REFRESHES),
            ),
        ));
        if scale >= QUICK_SCALE && matches!(scenario, "tenants" | "churn") {
            // From the quick scale up these scenarios touch far more
            // distinct files than the cap tracks: the capped cells must
            // actually exercise eviction, or they measure nothing.
            for c in fpa_cells.iter().filter(|c| c.mode.contains("capped")) {
                assert!(
                    c.miner_evictions > 0,
                    "{scenario}/{}: capped cell never evicted (cap {CAPPED_NODE_CAP})",
                    c.mode
                );
            }
        }
        cells.extend(fpa_cells);

        // Self-mining predictors.
        for predictor in SELF_PREDICTORS {
            let make: Box<dyn Fn() -> Box<dyn Predictor>> = match predictor {
                "Nexus" => Box::new(|| Box::new(NexusPredictor::paper_default())),
                "ProbGraph" => Box::new(|| Box::new(ProbabilityGraph::classic())),
                "SdGraph" => Box::new(|| Box::new(SdGraph::classic())),
                "LRU" => Box::new(|| Box::new(LruOnly)),
                other => unreachable!("unknown predictor {other}"),
            };
            cells.push(self_cell(scenario, predictor, &trace, make.as_ref()));
        }
    }

    MatrixReport {
        cells,
        parity_scenarios,
        max_parity_delta,
        drift_adaptation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scenario_builds_and_validates() {
        for name in SCENARIOS {
            let trace = build_scenario(name, 0.05);
            assert!(trace.validate().is_ok(), "{name} invalid");
            assert!(trace.len() > 500, "{name} too small at 0.05 scale");
        }
    }

    #[test]
    #[should_panic(expected = "unknown scenario")]
    fn unknown_scenario_rejected() {
        let _ = build_scenario("nope", 1.0);
    }

    #[test]
    fn tenants_scenario_is_pathless_base_is_not() {
        assert!(build_scenario("base", 0.02).family.has_paths());
        assert!(!build_scenario("tenants", 0.02).family.has_paths());
    }

    #[test]
    fn single_scenario_matrix_has_full_predictor_axis() {
        // One scenario end-to-end at tiny scale: 9 FPA modes + 4 self
        // predictors, parity asserted, metrics sane (the per-cell asserts
        // run inside run_matrix_with).
        let report = run_matrix_with(0.05, &["churn"], &mut |_| {});
        assert_eq!(report.cells.len(), FPA_MODES.len() + SELF_PREDICTORS.len());
        assert_eq!(report.parity_scenarios, 1);
        assert!(report.max_parity_delta < 1e-12);
        assert!(report.drift_adaptation.is_none(), "drift was not run");
        for c in &report.cells {
            assert_eq!(c.phase_hit_ratios.len(), PHASES);
            assert_eq!(c.phase_response_ms.len(), PHASES);
            assert_eq!(c.phase_p50_ms.len(), PHASES);
            assert_eq!(c.phase_p95_ms.len(), PHASES);
            assert_eq!(c.phase_p99_ms.len(), PHASES);
            assert!(c.response_p50_ms <= c.response_p95_ms);
            assert!(c.response_p95_ms <= c.response_p99_ms);
        }
        let lru = report
            .cells
            .iter()
            .find(|c| c.predictor == "LRU")
            .expect("LRU cell");
        assert_eq!(lru.prefetch_accuracy, 0.0, "LRU never prefetches");
        // The online axis really refreshed at its configured cadence, and
        // the frozen cell froze.
        let by_mode = |m: &str| {
            report
                .cells
                .iter()
                .find(|c| c.mode == m)
                .unwrap_or_else(|| panic!("missing {m} cell"))
        };
        assert_eq!(by_mode("frozen").refreshes, 1);
        // One refresh per interior interval boundary: (len-1)/interval.
        let len = build_scenario("churn", 0.05).len();
        let expected = |n: usize| ((len - 1) / (len / n).max(1)) as u64;
        assert_eq!(
            by_mode("online8").refreshes,
            expected(ONLINE_SPARSE_REFRESHES)
        );
        assert_eq!(
            by_mode("online64").refreshes,
            expected(ONLINE_DENSE_REFRESHES)
        );
        for m in ["batch", "sharded1", "sharded4", "capped1", "capped4"] {
            assert_eq!(by_mode(m).refreshes, 0, "{m} never refreshes");
        }
        // Churn at 0.05 scale already touches > CAPPED_NODE_CAP distinct
        // files, so the single-shard capped cells must evict.
        assert!(by_mode("capped1").miner_evictions > 0);
        assert!(by_mode("online64capped").miner_evictions > 0);
        for m in [
            "batch", "sharded1", "sharded4", "frozen", "online8", "online64",
        ] {
            assert_eq!(by_mode(m).miner_evictions, 0, "{m} is uncapped");
        }
    }

    #[test]
    fn failure_family_runs_one_cell_per_mode() {
        use crate::faults::FAILURE_MODES;
        let report = run_matrix_with(0.05, &["failure"], &mut |_| {});
        assert_eq!(report.cells.len(), FAILURE_MODES.len());
        // Crashing the only miner leaves nothing to compare against:
        // parity does not apply to this family.
        assert_eq!(report.parity_scenarios, 0);
        for (c, mode) in report.cells.iter().zip(FAILURE_MODES) {
            assert_eq!(c.scenario, "failure");
            assert_eq!(c.mode, mode);
            assert_eq!(c.predictor, "FARMER");
            assert!(c.refreshes > 0, "{mode}: online refreshes ran");
            assert!(c.recovery_events > 0, "{mode}: recovery replayed events");
            assert!(c.recovery_ms > 0.0);
            assert!(c.wal_bytes > 4096, "{mode}: more than a WAL header logged");
            assert!(c.hit_ratio_dip.abs() <= 1.0);
            assert_eq!(c.phase_hit_ratios.len(), PHASES);
            assert_eq!(c.phase_response_ms.len(), PHASES);
        }
        let by_mode = |m: &str| report.cells.iter().find(|c| c.mode == m).unwrap();
        assert_eq!(by_mode("kill50").recoveries, 1);
        assert_eq!(by_mode("kill50torn").recoveries, 1);
        assert_eq!(by_mode("kill25x3").recoveries, 3);
        assert_eq!(by_mode("ckpt").recoveries, 1);
        // Genesis-replay modes replay everything they recover; the
        // checkpointed mode replays only the suffix past its anchor.
        for m in ["kill50", "kill50torn", "kill25x3"] {
            assert_eq!(by_mode(m).recovered_events, by_mode(m).recovery_events);
            assert_eq!(by_mode(m).replay_fraction, 1.0, "{m} is genesis replay");
        }
        let ckpt = by_mode("ckpt");
        assert!(ckpt.recovery_events < ckpt.recovered_events);
        assert!(ckpt.replay_fraction > 0.0 && ckpt.replay_fraction < 0.5);
        // Same kill point as kill50: the checkpoint changes how much is
        // replayed, not (materially) how much is recovered — a checkpoint
        // sync can push the durable prefix forward by at most one
        // route batch relative to the uncheckpointed leg.
        let diff = ckpt
            .recovered_events
            .abs_diff(by_mode("kill50").recovered_events);
        assert!(
            diff <= 256,
            "ckpt recovered {} vs kill50 {}",
            ckpt.recovered_events,
            by_mode("kill50").recovered_events
        );
    }

    #[test]
    fn drift_scenario_online_beats_frozen_post_shift() {
        // The acceptance property at reduced scale: after the co-access
        // rotation, refreshed online serving must not fall below the
        // frozen pre-shift snapshot (run_matrix_with asserts it; this
        // test pins the recorded summary).
        let report = run_matrix_with(0.1, &["drift"], &mut |_| {});
        let a = report.drift_adaptation.expect("drift adaptation recorded");
        assert!(
            a.online_post_shift >= a.frozen_post_shift,
            "online {:.4} < frozen {:.4}",
            a.online_post_shift,
            a.frozen_post_shift
        );
    }

    /// The compiled-in record is the record of *this* matrix: same schema,
    /// full scale, and exactly the cells the axes declare — so a half-done
    /// scenario/mode registration fails `cargo test`, not just `--check`.
    #[test]
    fn checked_in_record_matches_the_declared_matrix() {
        let reference = crate::refmodel::Reference::checked_in().expect("BENCH_eval.json parses");
        assert_eq!(reference.schema_version, u64::from(SCHEMA_VERSION));
        assert_eq!(reference.scale, 1.0);
        use crate::faults::FAILURE_MODES;
        let mut declared = Vec::new();
        for scenario in SCENARIOS {
            if scenario == "failure" {
                declared.extend(FAILURE_MODES.map(|m| (scenario, m, "FARMER")));
            } else {
                declared.extend(FPA_MODES.map(|m| (scenario, m, "FARMER")));
                declared.extend(SELF_PREDICTORS.map(|p| (scenario, "self", p)));
            }
        }
        let recorded: Vec<_> = reference.keys().collect();
        let missing: Vec<_> = declared.iter().filter(|k| !recorded.contains(k)).collect();
        let surplus: Vec<_> = recorded.iter().filter(|k| !declared.contains(k)).collect();
        assert!(
            missing.is_empty() && surplus.is_empty() && recorded.len() == declared.len(),
            "BENCH_eval.json lacks {missing:?} and holds undeclared {surplus:?} \
             ({} recorded, {} declared): run eval_matrix > BENCH_eval.json",
            recorded.len(),
            declared.len()
        );
    }
}
