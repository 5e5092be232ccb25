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
//! **Scenario axis** ([`SCENARIOS`]): one control (`base`), the four
//! adversarial generators of [`farmer_trace::workload::adversarial`]
//! (`drift`, `tenants`, `storm`, `churn`) and the correlated-failure
//! family (`failure`), which runs one cell per failure mode
//! ([`crate::faults::FAILURE_MODES`]) instead of the grid below: a durable
//! online-serving pipeline killed mid-stream, recovered bitwise identical
//! to an uninterrupted oracle and cold-restarted (see [`crate::faults`]).
//!
//! **Miner-mode axis** ([`FPA_MODES`], FARMER's FPA only; the other
//! predictors mine internally and run as mode `self`):
//!
//! * `batch`, `sharded1`, `sharded4` mine the whole trace (one [`Farmer`],
//!   the [`ShardedMiner`] at 1 and 4 shards, uncapped) and serve the final
//!   model — an oracle that has seen the future. [`run_matrix_with`]
//!   asserts exact batch-vs-sharded snapshot parity and bitwise-equal
//!   quality across the three before any cell meets the record.
//! * `frozen`, `online8`, `online64` feed one live miner in lockstep with
//!   both serving legs ([`crate::lockstep::Lockstep`]), publishing a
//!   [`StreamSnapshot`] once (at the first segment boundary), every
//!   `len/8` or every `len/64` events: adaptation lag. Online must beat
//!   frozen after drift's shifts, and stay within
//!   [`ONLINE_CONVERGENCE_GAP`] of the batch oracle on `base`.
//! * `capped1`, `capped4`, `online64capped` run the same with `node_cap`
//!   [`CAPPED_NODE_CAP`] per shard: the quality cost of bounded miner
//!   memory, each pinned to its own record (eviction depends on the
//!   shard partition, so no parity applies).
//!
//! Every mode mines through a product entry point that applies the event
//! policy ([`farmer_trace::Op::mining_action`]), so unlinks are forgotten
//! and `Close` is skipped in every mode.
//!
//! **The paper's cells** ([`paper_cells`]) ride beside the scenario loop:
//! each trace family's preset served by LRU, Nexus and a self-mining
//! FARMER (Figure 7, Table 3, Figure 8, Table 4), FARMER under each
//! configuration of the parameter study ([`sweep`]), and keyed entries for
//! the rows that are no served run (Figure 1, Table 2, the §4.1 cluster,
//! the §4.2 layout, the p = 0 agreement, the §7 regression). Their
//! scenario is the family's name (`LLNL`, `INS`, `RES`, `HP`; `Table 2`
//! for the worked example), their mode `self`, what the configuration
//! changes ([`sweep_mode`]) or what the entry measures.
//!
//! The reference a run is checked against is the checked-in full-scale
//! record, `BENCH_eval.json` ([`crate::refmodel`]); the `eval_matrix`
//! binary's `--check` mode fails on any deterministic field that no longer
//! equals the record and on the paper's shape inversions
//! ([`crate::refmodel::paper_shapes`]).

use std::sync::Arc;
use std::time::Instant;

use farmer_core::{
    similarity, AttrCombo, CorrelationSource, Farmer, FarmerConfig, PathMode, Request,
};
use farmer_mds::layout::{plan_layout, replay_reads, LayoutConfig};
use farmer_mds::osd::OsdConfig;
use farmer_mds::{replay_cluster, ClusterConfig, Partition, ReplayConfig};
use farmer_obs::{Json, Registry};
use farmer_prefetch::baselines::LruOnly;
use farmer_prefetch::{
    FpaPredictor, NexusPredictor, Predictor, ProbabilityGraph, SdGraph, SimConfig,
};
use farmer_stream::{ShardedMiner, SnapshotCell, StreamConfig, StreamSnapshot};
use farmer_trace::stats::figure1_rows;
use farmer_trace::workload::{ChurnSpec, DriftSpec, MultiTenantSpec, ScanStormSpec};
use farmer_trace::{
    FileId, HostId, PathInterner, ProcId, Trace, TraceEvent, TraceFamily, UserId, WorkloadSpec,
};

use crate::lockstep::{serve_online, Lockstep, OnlineConfig, ServedRun};
pub use crate::refmodel::SCHEMA_VERSION;
use crate::regression::{fit_trace, FEATURE_LABELS};

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

/// The predictors of the paper's comparison grid ([`paper_cells`]), in
/// emission order; `FARMER` here mines as it serves.
pub const PAPER_PREDICTORS: [&str; 3] = ["LRU", "Nexus", "FARMER"];

/// `repro`'s sections, in print order: the names [`paper_cells`] takes.
pub const PAPER_SECTIONS: [&str; 12] = [
    "fig1",
    "table2",
    "fig3",
    "table5",
    "fig6",
    "fig7",
    "table3",
    "fig8",
    "table4",
    "ablations",
    "cluster",
    "regression",
];

/// The sections read off the paper's comparison grid.
const GRID_SECTIONS: [&str; 4] = ["fig7", "table3", "fig8", "table4"];

/// The server counts of the §4.1 cluster entries ([`cluster_mode`]).
pub const CLUSTER_SERVERS: [usize; 4] = [1, 2, 4, 8];

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

/// One measured cell of the matrix.
#[derive(Debug, Clone, Default)]
pub struct Cell {
    /// Scenario name: one of [`SCENARIOS`], or for the paper grid
    /// ([`paper_cells`]) a trace family's name.
    pub scenario: &'static str,
    /// Miner mode: `batch`/`sharded1`/`sharded4` for FARMER, `self` for
    /// internally mining predictors ([`sweep_mode`] for a paper sweep).
    pub mode: String,
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
    /// whole-trace FARMER modes, the lockstep loop (the predictor and both
    /// serving legs, plus mining for online and failure cells) for every
    /// other cell. Machine-dependent — never compared with the record.
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
    /// Machine-dependent — reported, never compared with the record.
    pub recovery_ms: f64,
    /// Worst per-kill demand hit-ratio dip: the ratio over the window
    /// before a kill minus the window after it (failure cells).
    pub hit_ratio_dip: f64,
    /// Final write-ahead-log size in bytes (failure cells; 0 elsewhere).
    pub wal_bytes: u64,
    /// The fields of a keyed *entry*, in record order: a paper row that
    /// is no served run (Fig. 1, Table 2, the §4.1 cluster, the §4.2
    /// layout, the p = 0 agreement, the §7 regression). Its record holds
    /// the key and these fields only; `None` for a served cell, whose
    /// fields are the ones above.
    pub entry: Option<Vec<(&'static str, Json)>>,
}

impl Cell {
    /// The cell as it appears in the record's `cells[]` — the printed
    /// precision here is the precision [`crate::refmodel::check`]
    /// compares a run with the record at.
    pub fn to_json(&self) -> Json {
        let fixed = |values: &[f64], decimals| {
            Json::Arr(values.iter().map(|&v| Json::Fixed(v, decimals)).collect())
        };
        let key = Json::obj()
            .field("scenario", Json::str(self.scenario))
            .field("miner_mode", Json::str(&self.mode))
            .field("predictor", Json::str(self.predictor));
        if let Some(fields) = &self.entry {
            return (fields.iter()).fold(key, |j, (name, value)| j.field(name, value.clone()));
        }
        key.field("hit_ratio", Json::Fixed(self.hit_ratio, 4))
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

    /// Numeric field `name` of an entry ([`Cell::entry`]); `None` for a
    /// served cell or a field the entry does not carry.
    pub fn value(&self, name: &str) -> Option<f64> {
        let fields = self.entry.as_ref()?;
        fields.iter().find(|(n, _)| *n == name)?.1.as_f64()
    }
}

/// A keyed entry carrying `fields` ([`Cell::entry`]).
fn entry(
    scenario: &'static str,
    mode: impl Into<String>,
    predictor: &'static str,
    fields: Vec<(&'static str, Json)>,
) -> Cell {
    Cell {
        scenario,
        mode: mode.into(),
        predictor,
        entry: Some(fields),
        ..Cell::default()
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

/// The streaming configuration of a miner mode: [`CAPPED_NODE_CAP`]
/// files per shard for the capped modes (forcing Space-Saving eviction on
/// the churning/consolidated scenarios), otherwise a cap no scenario can
/// reach, so mode parity compares mining, not eviction policy.
fn stream_cfg(cfg: &FarmerConfig, shards: usize, capped: bool) -> StreamConfig {
    let cap = if capped { CAPPED_NODE_CAP } else { 1 << 20 };
    (StreamConfig::default().with_farmer(cfg.clone()))
        .with_shards(shards)
        .with_node_cap(cap)
}

/// Same policy through the sharded online miner; returns the consistent
/// snapshot and the drive rate (including the snapshot barrier). Resident
/// state bytes and evictions ride on the snapshot.
fn mine_sharded(trace: &Trace, scfg: StreamConfig) -> (StreamSnapshot, f64) {
    let mut miner = ShardedMiner::spawn(scfg);
    let start = Instant::now();
    for e in &trace.events {
        miner.route_event(trace, e);
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

/// Serve `trace` from `predictor` through both legs ([`Lockstep::serve`]).
fn serve(trace: &Trace, predictor: &mut dyn Predictor) -> ServedRun {
    Lockstep::new(trace, cell_configs(trace), &Registry::disabled()).serve(predictor)
}

/// Run FPA over a whole-trace mining result: the snapshot is published
/// once, and its one follower serves both legs.
fn fpa_cell(
    scenario: &'static str,
    mode: &'static str,
    trace: &Trace,
    mined: StreamSnapshot,
    mine_rate: f64,
    miner_bytes: usize,
) -> Cell {
    let cell = Arc::new(SnapshotCell::new());
    cell.install(Arc::new(mined));
    let mut run = serve(trace, &mut FpaPredictor::for_trace(trace).following(&cell));
    run.events_per_sec = mine_rate;
    finish_cell(scenario, mode, "FARMER", run, miner_bytes)
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
    let mut cell = finish_cell(scenario, mode, "FARMER", run, end.state_bytes);
    cell.miner_evictions = end.evictions;
    cell
}

/// A fresh instance of a self-mining predictor, by display name; `FARMER`
/// mines under `config`.
fn self_predictor(name: &str, config: &FarmerConfig) -> Box<dyn Predictor> {
    match name {
        "Nexus" => Box::new(NexusPredictor::paper_default()),
        "ProbGraph" => Box::new(ProbabilityGraph::classic()),
        "SdGraph" => Box::new(SdGraph::classic()),
        "LRU" => Box::new(LruOnly),
        "FARMER" => Box::new(FpaPredictor::new(config.clone())),
        other => unreachable!("unknown predictor {other}"),
    }
}

/// Run a self-mining predictor: one instance mines the trace once as it
/// serves both legs.
fn self_cell(
    scenario: &'static str,
    mode: &str,
    predictor: &'static str,
    trace: &Trace,
    served: &mut dyn Predictor,
) -> Cell {
    finish_cell(scenario, mode, predictor, serve(trace, served), 0)
}

/// The configurations a sweep section of `repro` ([`PAPER_SECTIONS`])
/// plots, in print order, each an edit of [`FarmerConfig::for_family`]:
/// `fig3` p ∈ {0, 0.3, 0.7, 1} × `max_strength` 0.2–0.8 on every family;
/// `table5` the 15 combinations of the family's attribute base on HP, INS
/// and RES; `fig6` `max_strength` 0.0–1.0 on HP; `ablations` DPA and IPA,
/// then the windows 1, 2, 3, 5, 8 and 12, on HP. Empty for any other
/// section.
pub fn sweep(section: &str) -> Vec<(TraceFamily, FarmerConfig)> {
    use TraceFamily::{Hp, Ins, Res};
    let mut points = Vec::new();
    let mut at = |family, edit: &dyn Fn(FarmerConfig) -> FarmerConfig| {
        points.push((family, edit(FarmerConfig::for_family(family))));
    };
    let tenths = |i: u8| f64::from(i) / 10.0;
    match section {
        "fig3" => {
            for family in TraceFamily::ALL {
                for p in [0.0, 0.3, 0.7, 1.0] {
                    (2..=8).for_each(|i| at(family, &|c| c.with_p(p).with_max_strength(tenths(i))));
                }
            }
        }
        "table5" => {
            let bases = [
                (Hp, AttrCombo::HP_BASE),
                (Ins, AttrCombo::INS_BASE),
                (Res, AttrCombo::INS_BASE),
            ];
            for (family, base) in bases {
                for combo in AttrCombo::sweep(&base) {
                    at(family, &|c| c.with_combo(combo));
                }
            }
        }
        "fig6" => (0..=10).for_each(|i| at(Hp, &|c| c.with_max_strength(tenths(i)))),
        "ablations" => {
            at(Hp, &|c| c.with_path_mode(PathMode::Dpa));
            at(Hp, &|c| c);
            for window in [1, 2, 3, 5, 8, 12] {
                at(Hp, &|c| FarmerConfig { window, ..c });
            }
        }
        _ => {}
    }
    points
}

/// The mode of FARMER's cell under `config` on `family`'s preset: the
/// fields `config` changes against [`FarmerConfig::for_family`] (`p=0.3
/// ms=0.2`, `combo={User, Process}`, `window=3`, `path=DPA`), or `self`
/// when it changes none. [`sweep`] changes no other field.
pub fn sweep_mode(family: TraceFamily, config: &FarmerConfig) -> String {
    let named = |c: &FarmerConfig| {
        let path = format!("{:?}", c.path_mode).to_uppercase();
        let [p, ms, window] = [c.p, c.max_strength, c.window as f64].map(|v| v.to_string());
        let combo = c.combo.to_string();
        [
            ("p", p),
            ("ms", ms),
            ("combo", combo),
            ("window", window),
            ("path", path),
        ]
    };
    let base = named(&FarmerConfig::for_family(family));
    let changed: Vec<String> = (named(config).into_iter().zip(base))
        .filter(|(field, of_base)| field != of_base)
        .map(|((name, value), _)| format!("{name}={value}"))
        .collect();
    if changed.is_empty() {
        "self".to_string()
    } else {
        changed.join(" ")
    }
}

/// The preset trace of `family` at `scale` (1.0 = the event counts of
/// [`WorkloadSpec::for_family`]'s presets): every paper cell's input.
pub fn trace_for(family: TraceFamily, scale: f64) -> Trace {
    WorkloadSpec::for_family(family).scaled(scale).generate()
}

/// The paper's cells at `scale` for the chosen [`PAPER_SECTIONS`]: every
/// row `repro` prints, family-major. Per family: with a grid section
/// (`fig7`, `table3`, `fig8`, `table4`) the comparison grid
/// ([`PAPER_PREDICTORS`] on the family's preset, mode `self`); a
/// self-mining FARMER under each configuration the sections sweep
/// ([`sweep`], mode [`sweep_mode`]), each distinct cell run once; then the
/// entries ([`Cell::entry`]) `fig1`, `regression`, and on HP `p=0 vs
/// Nexus` and `layout` (the `ablations` rows) and `cluster`'s. `table2`'s
/// come last. An entry that reads mined state reads the final state of the
/// grid cell that mined its trace, which its section thus runs: the
/// regression and the layout read the family's FARMER (that is
/// `Farmer::mine_trace` under the family's default), the p = 0 row HP's
/// Nexus.
pub fn paper_cells(scale: f64, sections: &[&str]) -> Vec<Cell> {
    let unknown = sections.iter().find(|s| !PAPER_SECTIONS.contains(s));
    assert!(unknown.is_none(), "unknown paper section {unknown:?}");
    let wants = |section: &str| sections.contains(&section);
    let grid = GRID_SECTIONS.into_iter().any(wants);
    let points: Vec<_> = sections.iter().flat_map(|s| sweep(s)).collect();
    let mut cells: Vec<Cell> = Vec::new();
    for family in TraceFamily::ALL {
        let (name, hp) = (family.name(), family == TraceFamily::Hp);
        let default = FarmerConfig::for_family(family);
        let reads_farmer = wants("regression") || (hp && wants("ablations"));
        let reads_nexus = hp && wants("ablations");
        let grid_runs = PAPER_PREDICTORS
            .into_iter()
            .filter(|&p| grid || (p == "FARMER" && reads_farmer) || (p == "Nexus" && reads_nexus))
            .map(|p| (p, &default));
        let of_family = points.iter().filter(|(f, _)| *f == family);
        let mut trace = None;
        let mut nexus = NexusPredictor::paper_default();
        let mut farmer = FpaPredictor::new(default.clone());
        for (predictor, config) in grid_runs.chain(of_family.map(|(_, c)| ("FARMER", c))) {
            let mode = sweep_mode(family, config);
            if paper_cell(&cells, (name, &mode, predictor)).is_some() {
                continue;
            }
            let trace = trace.get_or_insert_with(|| trace_for(family, scale));
            let mut other;
            let served: &mut dyn Predictor = match predictor {
                "Nexus" => &mut nexus,
                "FARMER" if *config == default => &mut farmer,
                _ => {
                    other = self_predictor(predictor, config);
                    other.as_mut()
                }
            };
            cells.push(self_cell(name, &mode, predictor, trace, served));
        }
        if !(wants("fig1") || reads_farmer || (hp && wants("cluster"))) {
            continue;
        }
        let trace = trace.get_or_insert_with(|| trace_for(family, scale));
        let farmer = farmer.farmer();
        let mined = !reads_farmer || farmer.observed() == trace.len() as u64;
        assert!(mined, "{name}: the FARMER grid cell skipped an event");
        if wants("fig1") {
            let rows = figure1_rows(trace).into_iter();
            let fields = rows.map(|r| (r.filter.label(), Json::Fixed(r.probability, 4)));
            cells.push(entry(name, "fig1", "trace", fields.collect()));
        }
        if wants("regression") {
            let fit = fit_trace(trace, farmer);
            let coefficients = FEATURE_LABELS.into_iter().zip(fit.coefficients);
            let mut fields: Vec<_> = coefficients.map(|(f, c)| (f, Json::Fixed(c, 4))).collect();
            fields.push(("r_squared", Json::Fixed(fit.r_squared, 4)));
            fields.push(("samples", Json::UInt(fit.samples as u64)));
            cells.push(entry(name, "regression", "FARMER", fields));
        }
        if reads_nexus {
            cells.push(p0_entry(trace, &nexus));
            let layout = plan_layout(farmer, trace, LayoutConfig::default());
            let seeks = |l| Json::UInt(replay_reads(trace, l, OsdConfig::default()).seeks);
            let [s, g] = [None, Some(&layout)].map(seeks);
            let fields = vec![("scattered_seeks", s), ("grouped_seeks", g)];
            cells.push(entry(name, "layout", "FARMER", fields));
        }
        if hp && wants("cluster") {
            cells.extend(cluster_entries(trace));
        }
    }
    if wants("table2") {
        cells.extend(table2_entries());
    }
    cells
}

/// One sweep point outside any section: FARMER's cell under `config` on
/// `family`'s preset `trace`, mode [`sweep_mode`].
pub fn sweep_cell(family: TraceFamily, trace: &Trace, config: &FarmerConfig) -> Cell {
    let mut served = FpaPredictor::new(config.clone());
    let mode = sweep_mode(family, config);
    self_cell(family.name(), &mode, "FARMER", trace, &mut served)
}

/// §7's reduction: FARMER at p = 0 with no threshold and no pruning, mined
/// over HP's trace, against HP's Nexus grid cell. Its `agreement` is the
/// share of sampled files (ids below 4 000 both rank a successor of) on
/// whose top successor the two agree.
fn p0_entry(trace: &Trace, nexus: &NexusPredictor) -> Cell {
    let hp = FarmerConfig::for_family(TraceFamily::Hp).with_p(0.0);
    let config = hp.with_max_strength(0.0).with_combo(AttrCombo::EMPTY);
    let farmer = Farmer::mine_trace(
        trace,
        FarmerConfig {
            prune_interval: 0,
            ..config
        },
    );
    let (mut agree, mut total) = (0usize, 0usize);
    for file in (0..trace.num_files().min(4000)).map(|f| FileId::new(f as u32)) {
        // `strongest` is the head-of-list query: one O(deg) scan.
        let f_top = farmer.strongest(file, 0.0).map(|c| c.file);
        if let (Some(a), Some(&(b, _))) = (f_top, nexus.successors(file).first()) {
            total += 1;
            agree += usize::from(a == b);
        }
    }
    let agreement = Json::Fixed(agree as f64 / total.max(1) as f64, 4);
    entry(
        "HP",
        "p=0 vs Nexus",
        "FARMER",
        vec![("agreement", agreement)],
    )
}

/// The mode of a §4.1 cluster entry: `servers=1` (one server is every
/// partition), else `servers=N partition=hash|dev`.
pub fn cluster_mode(servers: usize, partition: Partition) -> String {
    match servers {
        1 => "servers=1".to_string(),
        _ => format!("servers={servers} partition={partition:?}").to_lowercase(),
    }
}

/// §4.1 multi-MDS scaling on HP: LRU and FARMER (one self-mining instance
/// per server) at each of [`CLUSTER_SERVERS`], hash vs volume
/// partitioning — the paper's two attacks on the metadata bottleneck,
/// composed.
fn cluster_entries(trace: &Trace) -> Vec<Cell> {
    let mut replay = ReplayConfig::for_family(TraceFamily::Hp);
    replay.time_scale *= 0.8; // heavier (but stable) load makes scaling visible
    let config = FarmerConfig::for_family(TraceFamily::Hp);
    let mut cells = Vec::new();
    for num_servers in CLUSTER_SERVERS {
        let partitions = [Partition::Hash, Partition::Dev].into_iter();
        for partition in partitions.filter(|&p| num_servers > 1 || p == Partition::Hash) {
            let cfg = ClusterConfig {
                num_servers,
                replay,
                partition,
            };
            for predictor in ["LRU", "FARMER"] {
                let r = replay_cluster(trace, || self_predictor(predictor, &config), cfg);
                let fields = vec![
                    ("avg_response_ms", Json::Fixed(r.avg_response_ms(), 3)),
                    ("hit_ratio", Json::Fixed(r.hit_ratio(), 4)),
                    ("imbalance", Json::Fixed(r.imbalance(), 4)),
                ];
                let mode = cluster_mode(num_servers, partition);
                cells.push(entry("HP", mode, predictor, fields));
            }
        }
    }
    cells
}

/// Table 2: the paper's worked example, the DPA and IPA similarity of
/// three requests under HP's attribute base.
fn table2_entries() -> Vec<Cell> {
    let mut interner = PathInterner::new();
    let paths = [
        "/home/user1/paper/a",
        "/home/user1/paper/b",
        "/home/user2/c",
    ];
    let paths = paths.map(|p| Some(interner.parse(p)));
    let req = |file, uid, pid, host| {
        let e = TraceEvent::synthetic(
            0,
            FileId::new(file),
            UserId::new(uid),
            ProcId::new(pid),
            HostId::new(host),
        );
        Request::from_event(&e)
    };
    let reqs = [req(0, 1, 1, 1), req(1, 1, 2, 1), req(2, 2, 3, 2)];
    let pairs = [("sim(A,B)", 0, 1), ("sim(A,C)", 0, 2), ("sim(B,C)", 1, 2)];
    let entries = pairs.into_iter().map(|(pair, x, y)| {
        let (a, b) = ((&reqs[x], paths[x].as_ref()), (&reqs[y], paths[y].as_ref()));
        let sim = |mode| {
            Json::Fixed(
                similarity(a.0, a.1, b.0, b.1, AttrCombo::hp_default(), mode),
                4,
            )
        };
        entry(
            "Table 2",
            pair,
            "FARMER",
            vec![("dpa", sim(PathMode::Dpa)), ("ipa", sim(PathMode::Ipa))],
        )
    });
    entries.collect()
}

/// The cell whose `(scenario, mode, predictor)` is `key`, if `cells` holds
/// it: a paper grid cell's is `(family name, "self", predictor)`, a sweep
/// cell's `(family name, sweep_mode(..), "FARMER")`.
pub fn paper_cell<'a>(cells: &'a [Cell], key: (&str, &str, &str)) -> Option<&'a Cell> {
    cells
        .iter()
        .find(|c| (c.scenario, c.mode.as_str(), c.predictor) == key)
}

fn finish_cell(
    scenario: &'static str,
    mode: &str,
    predictor: &'static str,
    run: ServedRun,
    miner_bytes: usize,
) -> Cell {
    let ServedRun {
        sim,
        replay: rep,
        refreshes,
        events_per_sec,
        ..
    } = run;
    let cell = Cell {
        scenario,
        mode: mode.to_string(),
        predictor,
        hit_ratio: sim.hit_ratio(),
        prefetch_accuracy: sim.prefetch_accuracy(),
        prefetch_waste: sim.stats.prefetch_waste(),
        avg_response_ms: rep.avg_response_ms(),
        response_p50_ms: rep.latency.percentile_us(0.50) as f64 / 1000.0,
        response_p95_ms: rep.latency.percentile_us(0.95) as f64 / 1000.0,
        response_p99_ms: rep.latency.percentile_us(0.99) as f64 / 1000.0,
        events_per_sec,
        memory_bytes: miner_bytes.max(sim.predictor_memory),
        phase_hit_ratios: sim.phases.iter().map(|p| p.hit_ratio()).collect(),
        phase_response_ms: rep.phase_mean_ms,
        phase_p50_ms: rep.phase_p50_ms,
        phase_p95_ms: rep.phase_p95_ms,
        phase_p99_ms: rep.phase_p99_ms,
        refreshes,
        ..Cell::default()
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

/// Run the matrix over `scenarios` at `scale`, with a per-scenario
/// progress callback (the binary logs to stderr; tests pass a no-op).
/// Asserts the cross-mode invariants (snapshot parity, identical FPA
/// quality across miner modes) along the way — a matrix that fails an
/// invariant never produces a report.
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
        let cfg = FarmerConfig::for_family(trace.family);

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
                let mut cell = finish_cell(scenario, mode, "FARMER", r.run, r.miner_state_bytes);
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

        // FARMER's three exact-parity miner modes, each applying the one
        // event policy.
        let start = Instant::now();
        let batch = Farmer::mine_trace(&trace, cfg.clone());
        let batch_rate = trace.len() as f64 / start.elapsed().as_secs_f64().max(1e-9);
        let batch_bytes = batch.memory_bytes();
        let batch_snap = StreamSnapshot {
            table: batch.correlator_table(),
            events: batch.observed(),
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
            let (snap, rate) = mine_sharded(&trace, stream_cfg(&cfg, shards, false));
            max_parity_delta = max_parity_delta.max(assert_parity(scenario, shards, &batch, &snap));
            let bytes = snap.state_bytes;
            fpa_cells.push(fpa_cell(scenario, mode, &trace, snap, rate, bytes));
        }
        parity_scenarios += 1;

        // The mined model is identical across modes, so serving quality
        // must be too — bitwise, not approximately.
        let quality = |c: &Cell| {
            [
                c.hit_ratio,
                c.prefetch_accuracy,
                c.prefetch_waste,
                c.avg_response_ms,
            ]
        };
        for c in &fpa_cells[1..] {
            let (b, q) = (quality(&fpa_cells[0]), quality(c));
            let same = b.iter().zip(q).all(|(x, y)| (x - y).abs() < 1e-12);
            assert!(same, "{scenario}: FPA quality (hit ratio, accuracy, waste, response) diverged between batch {b:?} and {} {q:?}", c.mode);
        }

        // Adaptation-lag serving modes: frozen (one snapshot at the first
        // segment boundary) vs periodic online refresh, uncapped.
        let stream = stream_cfg(&cfg, 1, false);
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
            let (snap, rate) = mine_sharded(&trace, stream_cfg(&cfg, shards, true));
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
                stream_cfg(&cfg, 1, true),
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
            let mut served = self_predictor(predictor, &cfg);
            cells.push(self_cell(
                scenario,
                "self",
                predictor,
                &trace,
                served.as_mut(),
            ));
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
    use std::sync::OnceLock;

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

    /// The sweep table lists 176 points (the ablation lists IPA, the
    /// default, beside DPA): 164 distinct configurations, the four
    /// defaults among them (the grid's FARMER cells). A point's mode
    /// names each field it changes, so points two figures share are one
    /// cell (Figure 6's 0.2–0.8 are Figure 3's HP p = 0.7 row).
    #[test]
    fn sweep_points_name_their_changes() {
        let points: Vec<_> = PAPER_SECTIONS.into_iter().flat_map(sweep).collect();
        assert_eq!(points.len(), 176);
        let modes: std::collections::BTreeSet<_> = points
            .iter()
            .map(|(family, config)| (family.name(), sweep_mode(*family, config)))
            .collect();
        assert_eq!(modes.len(), 164);
        assert_eq!(modes.iter().filter(|(_, m)| m == "self").count(), 4);
        let hp = || FarmerConfig::for_family(TraceFamily::Hp);
        let process = farmer_core::AttrKind::Process;
        let user_process = AttrCombo::EMPTY
            .with(farmer_core::AttrKind::User)
            .with(process);
        for (config, mode) in [
            (hp(), "self"),
            (hp().with_p(0.3).with_max_strength(0.2), "p=0.3 ms=0.2"),
            (hp().with_combo(user_process), "combo={User, Process}"),
            (hp().with_max_strength(0.9), "ms=0.9"),
            (FarmerConfig { window: 3, ..hp() }, "window=3"),
            (hp().with_path_mode(PathMode::Dpa), "path=DPA"),
        ] {
            assert_eq!(sweep_mode(TraceFamily::Hp, &config), mode);
        }
    }

    /// A sweep point differs from its family's default only in fields its
    /// mode names, so two points share a mode only if they share a
    /// configuration.
    #[test]
    fn sweep_points_change_only_named_fields() {
        for (family, config) in PAPER_SECTIONS.into_iter().flat_map(sweep) {
            let base = FarmerConfig::for_family(family);
            let unnamed = FarmerConfig {
                p: base.p,
                max_strength: base.max_strength,
                combo: base.combo,
                window: base.window,
                path_mode: base.path_mode,
                ..config.clone()
            };
            assert_eq!(unnamed, base, "{}", sweep_mode(family, &config));
        }
    }

    /// The INS row of the paper grid at the record's scale equals the
    /// record field by field, through the comparison `eval_matrix --check`
    /// makes: `cargo test` fails on a record the code no longer
    /// reproduces, not only the release check.
    #[test]
    fn ins_paper_row_equals_the_record() {
        let reference = crate::refmodel::Reference::checked_in().expect("BENCH_eval.json parses");
        let trace = trace_for(TraceFamily::Ins, reference.scale);
        let config = FarmerConfig::for_family(TraceFamily::Ins);
        let found: Vec<String> = PAPER_PREDICTORS
            .into_iter()
            .flat_map(|p| {
                let mut served = self_predictor(p, &config);
                let cell = self_cell(TraceFamily::Ins.name(), "self", p, &trace, served.as_mut());
                crate::refmodel::check_cell(&cell, &reference)
            })
            .collect();
        assert_eq!(found, Vec::<String>::new());
    }

    /// The compiled-in record is the record of *this* matrix: same schema,
    /// full scale, and exactly the cells the axes and the sweep table
    /// declare — so a half-done scenario/mode registration fails `cargo
    /// test`, not just `--check`.
    #[test]
    fn checked_in_record_matches_the_declared_matrix() {
        let reference = crate::refmodel::Reference::checked_in().expect("BENCH_eval.json parses");
        assert_eq!(reference.schema_version, u64::from(SCHEMA_VERSION));
        assert_eq!(reference.scale, 1.0);
        use crate::faults::FAILURE_MODES;
        let mut declared = Vec::new();
        for scenario in SCENARIOS {
            if scenario == "failure" {
                declared.extend(FAILURE_MODES.map(|m| (scenario, m.to_string(), "FARMER")));
            } else {
                declared.extend(FPA_MODES.map(|m| (scenario, m.to_string(), "FARMER")));
                declared.extend(SELF_PREDICTORS.map(|p| (scenario, "self".to_string(), p)));
            }
        }
        for family in TraceFamily::ALL {
            declared.extend(PAPER_PREDICTORS.map(|p| (family.name(), "self".to_string(), p)));
        }
        for (family, config) in PAPER_SECTIONS.into_iter().flat_map(sweep) {
            let key = (family.name(), sweep_mode(family, &config), "FARMER");
            if !declared.contains(&key) {
                declared.push(key);
            }
        }
        for family in TraceFamily::ALL {
            declared.push((family.name(), "fig1".to_string(), "trace"));
            declared.push((family.name(), "regression".to_string(), "FARMER"));
        }
        declared.push(("HP", "p=0 vs Nexus".to_string(), "FARMER"));
        declared.push(("HP", "layout".to_string(), "FARMER"));
        for servers in CLUSTER_SERVERS {
            for partition in [Partition::Hash, Partition::Dev] {
                let key = |p| ("HP", cluster_mode(servers, partition), p);
                if !declared.contains(&key("LRU")) {
                    declared.extend([key("LRU"), key("FARMER")]);
                }
            }
        }
        declared
            .extend(crate::paper::TABLE2.map(|(pair, ..)| ("Table 2", pair.to_string(), "FARMER")));
        let declared: Vec<_> = declared
            .iter()
            .map(|(s, m, p)| (*s, m.as_str(), *p))
            .collect();
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

    // The paper cells' orderings at scales below the shape tests'
    // (`tests/paper_shapes.rs`, 0.35).

    /// The grid at 0.2, run once for the two tests that read it.
    fn grid() -> &'static [Cell] {
        static CELLS: OnceLock<Vec<Cell>> = OnceLock::new();
        CELLS.get_or_init(|| paper_cells(0.2, &["fig7"]))
    }

    /// The grid and HP's ablation cells and entries at 0.1, run once for
    /// the three tests that read them.
    fn small() -> &'static [Cell] {
        static CELLS: OnceLock<Vec<Cell>> = OnceLock::new();
        CELLS.get_or_init(|| paper_cells(0.1, &["table4", "ablations"]))
    }

    fn cell<'a>(cells: &'a [Cell], family: TraceFamily, predictor: &str) -> &'a Cell {
        paper_cell(cells, (family.name(), "self", predictor)).expect("paper grid cell")
    }

    #[test]
    fn fig7_fpa_wins_everywhere() {
        for family in TraceFamily::ALL {
            let at = |p| cell(grid(), family, p).hit_ratio;
            assert!(at("FARMER") > at("Nexus"), "{family:?}");
            assert!(at("Nexus") > at("LRU") - 0.02, "{family:?}");
        }
    }

    #[test]
    fn table3_direction() {
        let at = |p| cell(grid(), TraceFamily::Hp, p).prefetch_accuracy;
        let (fpa, nexus) = (at("FARMER"), at("Nexus"));
        assert!(fpa > nexus, "FPA {fpa} vs Nexus {nexus}");
    }

    #[test]
    fn table4_ordering_follows_trace_scale() {
        let get = |f| cell(small(), f, "FARMER").memory_bytes;
        assert!(get(TraceFamily::Llnl) > get(TraceFamily::Ins));
        assert!(get(TraceFamily::Hp) > get(TraceFamily::Ins));
    }

    #[test]
    fn reduction_p0_mostly_agrees_with_nexus() {
        let p0 = paper_cell(small(), ("HP", "p=0 vs Nexus", "FARMER")).expect("the p = 0 row");
        let agreement = p0.value("agreement").expect("its agreement");
        assert!(agreement > 0.8, "agreement {agreement}");
    }

    #[test]
    fn layout_groups_save_seeks() {
        let layout = paper_cell(small(), ("HP", "layout", "FARMER")).expect("the layout row");
        let seeks = |f| layout.value(f).expect("a seek count");
        assert!(seeks("grouped_seeks") < seeks("scattered_seeks"));
    }

    #[test]
    fn fig1_none_filter_lowest_everywhere() {
        let cells = paper_cells(0.1, &["fig1"]);
        for family in TraceFamily::ALL {
            let rows =
                paper_cell(&cells, (family.name(), "fig1", "trace")).expect("the Fig. 1 row");
            let none = rows.value("none").expect("the none filter");
            let probabilities = rows.entry.iter().flatten().filter_map(|(_, p)| p.as_f64());
            let best = probabilities.fold(0.0, f64::max);
            assert!(best >= none, "{family:?}: none must be lowest");
        }
    }
}
