//! Fault injection for the durable mining tier: correlated miner + MDS
//! crash/restart cells of the evaluation matrix.
//!
//! Each **failure mode** ([`FAILURE_MODES`]) is a deterministic kill plan
//! — event indices at which the cell's [`DurableMiner`] is crashed
//! ([`DurableMiner::crash`]: the unsynced WAL tail is dropped, as a power
//! cut would drop it), optionally followed by a torn-write injection on
//! the log file, then recovered ([`farmer_stream::recover`]) and the
//! serving tier replaced (caches cleared, MDS restarted, new predictors
//! following a fresh cell whose first publication is the recovered
//! snapshot).
//!
//! The cell is the matrix's online pipeline with a durable miner on the
//! mining side: `DurableLeg` is the [`MinerSide`] the one lockstep
//! driver ([`crate::lockstep`]) feeds — one miner, one WAL, both serving
//! legs — and at every kill point it asserts the recovered mining state
//! is **bitwise identical** to an uninterrupted oracle fed exactly the
//! recovered operation prefix (the same invariant the `farmer-stream`
//! crash-point matrix test pins, here exercised through the full serving
//! pipeline). A failure cell that recovers to an almost-right state
//! panics instead of reporting.
//!
//! What the cell measures on top of the usual quality metrics:
//!
//! * `recoveries` / `recovery_events` — how many restarts happened and
//!   how many logged events the replays *re-processed* (suffix past the
//!   checkpoint anchor when the mode checkpoints, the whole log
//!   otherwise; deterministic, banded);
//! * `recovered_events` / `replay_fraction` — total logged events the
//!   recovered states represent (anchor image + replayed suffix) and
//!   the replayed share of them: 1.0 for genesis replay, ≪ 1 when a
//!   checkpoint image absorbs the prefix (deterministic, banded);
//! * `hit_ratio_dip` — demand hit ratio in the window before the kill
//!   minus the window after it (window = `len / 16` events): the
//!   serving-quality cost of a cold restart (deterministic, banded);
//! * `recovery_ms` — wall-clock time the recoveries took
//!   (machine-dependent, reported but never banded);
//! * `wal_bytes` — final log size.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use farmer_core::FarmerConfig;
use farmer_mds::{ReplayConfig, ReplayReport};
use farmer_obs::Registry;
use farmer_prefetch::{SimConfig, SimReport};
use farmer_stream::{
    recover_instrumented, snapshots_bitwise_equal, DurableConfig, DurableMiner, ShardedMiner,
    SnapshotCell, StreamConfig, StreamSnapshot,
};
use farmer_trace::{FileId, Op, Trace};

use crate::lockstep::{Lockstep, MinerSide, OnlineConfig};

/// The failure-mode axis of the `failure` scenario family, in emission
/// order: one mid-stream kill, the same kill with a torn WAL tail,
/// three evenly spaced kills, and the same mid-stream kill recovered
/// from a checkpoint image (suffix-only replay plus log compaction —
/// the O(log) → O(suffix) comparison cell).
pub const FAILURE_MODES: [&str; 4] = ["kill50", "kill50torn", "kill25x3", "ckpt"];

/// Hit-ratio dip window divisor: the dip compares the `len /
/// DIP_WINDOW_DIV` events before each kill against the same span after
/// it.
pub const DIP_WINDOW_DIV: usize = 16;

/// A torn-write injection applied to the WAL file between crash and
/// recovery (the tail-scan corruption modes the WAL must tolerate).
#[derive(Debug, Clone, Copy)]
pub enum TornTail {
    /// Truncate the last `n` bytes (a chopped final write).
    Chop(usize),
    /// Append `n` garbage bytes (a half-written block after the tail).
    Garbage(usize),
    /// Flip one bit `n` bytes before the end (silent media corruption).
    FlipBit(usize),
}

/// One failure mode's deterministic plan: kill at these event indices,
/// optionally tearing the log tail at each kill.
#[derive(Debug, Clone)]
pub struct KillPlan {
    /// Event indices at which the miner is crashed (before the event is
    /// routed: a kill at `k` means exactly the events `[0, k)` reached
    /// the miner).
    pub kills: Vec<usize>,
    /// Applied to the WAL file after every crash, before recovery.
    pub torn: Option<TornTail>,
}

/// Build the kill plan of one failure mode over a `len`-event trace.
///
/// Panics on an unknown mode — failure-mode names are part of the
/// reference model's identity, exactly like scenario names.
pub fn kill_plan(mode: &str, len: usize) -> KillPlan {
    let at = |num: usize, den: usize| (len * num / den).max(1);
    match mode {
        "kill50" => KillPlan {
            kills: vec![at(1, 2)],
            torn: None,
        },
        "kill50torn" => KillPlan {
            kills: vec![at(1, 2)],
            torn: Some(TornTail::Chop(11)),
        },
        "kill25x3" => KillPlan {
            kills: vec![at(1, 4), at(1, 2), at(3, 4)],
            torn: None,
        },
        // Same kill point as kill50; what changes is the recovery path
        // (checkpoint image + suffix replay instead of genesis replay).
        "ckpt" => KillPlan {
            kills: vec![at(1, 2)],
            torn: None,
        },
        other => panic!("unknown failure mode {other:?}"),
    }
}

/// Apply one torn-write injection to a WAL file. Skips (rather than
/// corrupting the header page) when the file is too small to tear —
/// which the quick and full scales never are.
pub fn inject_torn_tail(path: &Path, torn: TornTail) -> std::io::Result<()> {
    let mut data = fs::read(path)?;
    let len = data.len();
    match torn {
        TornTail::Chop(n) => {
            if len > 4096 + n {
                data.truncate(len - n);
            }
        }
        TornTail::Garbage(n) => data.extend(std::iter::repeat_n(0xA5, n)),
        TornTail::FlipBit(n) => {
            if len > 4096 + n {
                data[len - n] ^= 0x10;
            }
        }
    }
    fs::write(path, &data)
}

/// What one failure cell measured.
#[derive(Debug)]
pub struct FailureCellReport {
    /// The cache-simulation leg's report (cumulative across restarts).
    pub sim: SimReport,
    /// The MDS-replay leg's report (cumulative across restarts).
    pub replay: ReplayReport,
    /// Periodic snapshot refreshes installed in both legs.
    pub refreshes: u64,
    /// Crash/recover cycles.
    pub recoveries: u64,
    /// Logged events re-processed (WAL suffix replay) across all
    /// recoveries.
    pub recovery_events: u64,
    /// Logged events the recovered states represent, summed across all
    /// recoveries: checkpoint-anchored prefix plus replayed suffix.
    /// Equals `recovery_events` when nothing checkpoints.
    pub recovered_events: u64,
    /// `recovery_events / recovered_events` — the share of recovered
    /// state that had to be replayed rather than loaded from a
    /// checkpoint image. 1.0 for genesis replay; 0 when no recovery
    /// happened.
    pub replay_fraction: f64,
    /// Wall-clock milliseconds all recoveries took. Machine-dependent —
    /// never banded.
    pub recovery_ms: f64,
    /// Worst per-kill demand hit-ratio dip of the simulation leg.
    pub hit_ratio_dip: f64,
    /// Final WAL size in bytes.
    pub wal_bytes: u64,
    /// Resident miner bytes at end of stream.
    pub miner_state_bytes: usize,
    /// Events per second of the lockstep loop, including recoveries.
    pub events_per_sec: f64,
}

/// One mirrored logical operation, for oracle reconstruction.
#[derive(Clone, Copy)]
enum MirrorOp {
    Ev(usize),
    Forget(FileId),
}

/// The durable mining side of a failure cell: the miner plus everything
/// needed to kill, tear, recover, and prove the recovery exact. The
/// mirrored op stream is the uninterrupted oracle's script, truncated to
/// the recovered prefix at every crash.
struct DurableLeg {
    mode: &'static str,
    wal: PathBuf,
    cfg: DurableConfig,
    reg: Registry,
    miner: Option<DurableMiner>,
    ops: Vec<MirrorOp>,
    kills: Vec<usize>,
    next_kill: usize,
    torn: Option<TornTail>,
    recoveries: u64,
    recovery_events: u64,
    recovered_events: u64,
    recovery_ns: u64,
    /// Stream position of the last cut published to the serving tier.
    served_events: u64,
}

impl DurableLeg {
    fn new(
        mode: &'static str,
        wal: PathBuf,
        cfg: DurableConfig,
        plan: &KillPlan,
        reg: &Registry,
    ) -> DurableLeg {
        let miner = DurableMiner::create_instrumented(&wal, cfg.clone(), reg)
            .unwrap_or_else(|e| panic!("{mode}: create durable miner: {e:?}"));
        DurableLeg {
            mode,
            wal,
            cfg,
            reg: reg.clone(),
            miner: Some(miner),
            ops: Vec::new(),
            kills: plan.kills.clone(),
            next_kill: 0,
            torn: plan.torn,
            recoveries: 0,
            recovery_events: 0,
            recovered_events: 0,
            recovery_ns: 0,
            served_events: 0,
        }
    }

    /// Feed the mirrored op prefix to an uninterrupted plain miner and
    /// return its snapshot — the state recovery must land on bit for bit.
    fn oracle_snapshot(&self, trace: &Trace) -> StreamSnapshot {
        let mut oracle = ShardedMiner::spawn(self.cfg.stream.clone());
        for op in &self.ops {
            match *op {
                MirrorOp::Ev(i) => oracle.route_event(trace, &trace.events[i]),
                MirrorOp::Forget(f) => oracle.route_forget(f),
            }
        }
        oracle.snapshot()
    }

    /// End of stream: one final oracle-parity proof over the whole
    /// surviving op sequence; returns the final WAL size and the miner's
    /// resident bytes.
    fn finish(&mut self, trace: &Trace) -> (u64, usize) {
        let m = self.miner.as_mut().expect("miner alive");
        let wal_bytes = m.wal_len_bytes();
        let snap = m.snapshot();
        assert!(
            snapshots_bitwise_equal(&snap, &self.oracle_snapshot(trace)),
            "{}: end-of-stream mining state diverged from the oracle",
            self.mode
        );
        (wal_bytes, snap.state_bytes)
    }
}

impl MinerSide for DurableLeg {
    /// If event `i` is a kill point: crash the miner (dropping the
    /// unsynced tail), tear the log if the plan says so, recover, prove
    /// the recovered state bitwise-equal to the oracle over the recovered
    /// prefix, and hand back the recovered snapshot for the serving
    /// tier's restart.
    fn recover_at(&mut self, trace: &Trace, i: usize) -> Option<StreamSnapshot> {
        if self.next_kill >= self.kills.len() || i != self.kills[self.next_kill] {
            return None;
        }
        self.next_kill += 1;
        self.miner.take().expect("miner alive").crash();
        if let Some(torn) = self.torn {
            inject_torn_tail(&self.wal, torn)
                .unwrap_or_else(|e| panic!("{}: torn-tail injection: {e}", self.mode));
        }
        let (mut recovered, report) = recover_instrumented(&self.wal, self.cfg.clone(), &self.reg)
            .unwrap_or_else(|e| panic!("{}: recovery at kill {i}: {e:?}", self.mode));
        // The recovered state represents `ops_recovered` logical ops —
        // the checkpoint-anchored prefix plus the replayed suffix — so
        // that is where the oracle's script must be cut. `ops_replayed`
        // alone would under-cut it whenever a checkpoint image anchored
        // the recovery.
        let recovered_ops = report.ops_recovered as usize;
        assert!(
            recovered_ops <= self.ops.len(),
            "{}: recovery reconstructed ops that were never routed",
            self.mode
        );
        self.ops.truncate(recovered_ops);
        if let Some(v) = report.checkpoint_verified {
            assert!(
                v,
                "{}: checkpoint self-verification failed at kill {i}",
                self.mode
            );
        }
        assert!(
            snapshots_bitwise_equal(&recovered.snapshot(), &self.oracle_snapshot(trace)),
            "{}: recovered mining state diverged from the uninterrupted \
             oracle at kill {i} (recovered {recovered_ops} ops, replayed {})",
            self.mode,
            report.ops_replayed,
        );
        self.recoveries += 1;
        self.recovery_events += report.events_replayed;
        self.recovered_events += report.events_recovered;
        self.recovery_ns += report.replay_ns;
        let snap = recovered.snapshot();
        // A cut is served only after the group commit it forces, so a
        // recovery stands behind one only if synced bytes were destroyed
        // — which a torn-tail plan does on purpose and nothing else may.
        assert!(
            self.torn.is_some() || snap.events >= self.served_events,
            "{}: recovery at kill {i} regressed behind an already served \
             snapshot ({} < {} events)",
            self.mode,
            snap.events,
            self.served_events
        );
        self.miner = Some(recovered);
        Some(snap)
    }

    fn cut(&mut self, cell: &SnapshotCell) {
        let m = self.miner.as_mut().expect("miner alive");
        m.miner().publish_into(cell);
        self.served_events = m.events_logged();
    }

    /// Mine one event, mirroring it for the oracle.
    fn mine(&mut self, trace: &Trace, i: usize) {
        let e = &trace.events[i];
        let m = self.miner.as_mut().expect("miner alive");
        if e.op == Op::Unlink {
            m.forget(e.file);
            self.ops.push(MirrorOp::Forget(e.file));
        } else if e.op.is_metadata_demand() {
            m.ingest_event(trace, e);
            self.ops.push(MirrorOp::Ev(i));
        }
    }
}

/// Fresh per-cell scratch directory under the workspace `target/` (WAL +
/// checkpoint sidecars live here; removed when the cell finishes).
fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    dir.pop();
    dir.pop();
    dir.push("target");
    dir.push("failure-cells");
    dir.push(format!(
        "{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    fs::create_dir_all(&dir).expect("create failure-cell scratch dir");
    dir
}

/// The durable-tier configuration of one failure cell: one uncapped
/// shard (so the oracle comparison measures recovery, not eviction
/// policy). The legacy kill modes disable checkpointing — recovery is a
/// genesis replay of the whole log, the O(log) baseline — while the
/// `ckpt` mode checkpoints eight times over the run with log compaction
/// on, so its recoveries load the newest image and replay only the WAL
/// suffix past its anchor.
fn failure_config(farmer: FarmerConfig, len: usize, mode: &str) -> DurableConfig {
    let stream = StreamConfig::default()
        .with_farmer(farmer)
        .with_shards(1)
        .with_node_cap(1 << 20);
    let cfg = DurableConfig::new(stream);
    if mode == "ckpt" {
        cfg.with_checkpoint_interval((len / 8).max(1) as u64)
            .with_compaction(true)
    } else {
        cfg.with_checkpoint_interval(0)
    }
}

/// Demand hit ratio over `hits[range]` (`None` = not a demand); 0 when
/// the window holds no demands.
fn hit_ratio_in(hits: &[Option<bool>], range: std::ops::Range<usize>) -> f64 {
    let (demands, hit) = hits[range]
        .iter()
        .flatten()
        .fold((0u64, 0u64), |(d, h), &v| (d + 1, h + u64::from(v)));
    if demands == 0 {
        0.0
    } else {
        hit as f64 / demands as f64
    }
}

/// Run one failure cell: the lockstep driver over a durable miner put
/// through `mode`'s kill plan, with `refreshes` periodic snapshot
/// refreshes, serving under `cfgs` and reporting into `reg` (`wal.*`,
/// `stream.*` and the driver's scopes). Every recovery is proven
/// bitwise-exact against an uninterrupted oracle.
pub fn run_failure_cell(
    trace: &Trace,
    farmer: FarmerConfig,
    mode: &'static str,
    refreshes: usize,
    cfgs: (SimConfig, ReplayConfig),
    reg: &Registry,
) -> FailureCellReport {
    let len = trace.len();
    let plan = kill_plan(mode, len);
    let dir = scratch_dir(mode);
    let cfg = failure_config(farmer, len, mode);
    let cadence = OnlineConfig::every(cfg.stream.clone(), (len / refreshes.max(1)).max(1));
    let mut leg = DurableLeg::new(mode, dir.join("cell.wal"), cfg, &plan, reg);
    let run = Lockstep::new(trace, cfgs, reg).drive(&mut leg, &cadence);
    let (wal_bytes, miner_state_bytes) = leg.finish(trace);
    assert_eq!(
        leg.recoveries as usize,
        plan.kills.len(),
        "{mode}: every planned kill must recover"
    );

    // Worst per-kill dip: hit ratio just before the kill minus just
    // after it.
    let w = (len / DIP_WINDOW_DIV).max(1);
    let mut hit_ratio_dip = 0.0f64;
    for &k in &plan.kills {
        let before = hit_ratio_in(&run.hits, k.saturating_sub(w)..k);
        let after = hit_ratio_in(&run.hits, k..(k + w).min(len));
        hit_ratio_dip = hit_ratio_dip.max(before - after);
    }

    let replay_fraction = if leg.recovered_events == 0 {
        0.0
    } else {
        leg.recovery_events as f64 / leg.recovered_events as f64
    };

    let report = FailureCellReport {
        sim: run.sim,
        replay: run.replay,
        refreshes: run.refreshes,
        recoveries: leg.recoveries,
        recovery_events: leg.recovery_events,
        recovered_events: leg.recovered_events,
        replay_fraction,
        recovery_ms: leg.recovery_ns as f64 / 1e6,
        hit_ratio_dip,
        wal_bytes,
        miner_state_bytes,
        events_per_sec: run.events_per_sec,
    };
    drop(leg); // closes the log before its directory goes
    let _ = fs::remove_dir_all(&dir);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use farmer_trace::workload::ChurnSpec;
    use farmer_trace::WorkloadSpec;

    /// `mode` at the matrix's serving configs, 16 refreshes, no registry.
    fn run_cell(trace: &Trace, mode: &'static str) -> FailureCellReport {
        let cfgs = crate::evalmatrix::cell_configs(trace);
        let reg = Registry::disabled();
        run_failure_cell(trace, FarmerConfig::default(), mode, 16, cfgs, &reg)
    }

    #[test]
    fn kill_plans_are_deterministic_and_in_range() {
        for mode in FAILURE_MODES {
            let p = kill_plan(mode, 10_000);
            assert!(!p.kills.is_empty(), "{mode}: empty kill plan");
            assert!(p.kills.iter().all(|&k| k > 0 && k < 10_000));
            assert!(p.kills.windows(2).all(|w| w[0] < w[1]), "{mode}: sorted");
            let q = kill_plan(mode, 10_000);
            assert_eq!(p.kills, q.kills);
        }
        assert!(kill_plan("kill50torn", 10_000).torn.is_some());
        assert!(kill_plan("kill50", 10_000).torn.is_none());
    }

    #[test]
    #[should_panic(expected = "unknown failure mode")]
    fn unknown_mode_rejected() {
        let _ = kill_plan("nope", 100);
    }

    #[test]
    fn dip_window_ratio_counts_only_demands() {
        let (hit, miss) = (Some(true), Some(false));
        let hits = [None, hit, miss, hit, None, miss];
        assert_eq!(hit_ratio_in(&hits, 0..6), 2.0 / 4.0);
        assert_eq!(hit_ratio_in(&hits, 0..1), 0.0, "no demands in window");
        assert_eq!(hit_ratio_in(&hits, 1..2), 1.0);
    }

    #[test]
    fn failure_cell_recovers_exactly_and_reports_dip_fields() {
        // A small end-to-end run of the single-kill mode: the oracle
        // parity asserts inside run_failure_cell are the meat; this test
        // pins the reported totals.
        let trace = ChurnSpec::new(WorkloadSpec::hp().scaled(0.015)).generate();
        let r = run_cell(&trace, "kill50");
        assert_eq!(r.recoveries, 1);
        assert!(r.recovery_events > 0, "the kill point is mid-stream");
        assert_eq!(
            r.recovered_events, r.recovery_events,
            "legacy modes recover by genesis replay: everything recovered \
             was replayed"
        );
        assert_eq!(r.replay_fraction, 1.0);
        assert!(r.recovery_ms > 0.0);
        assert!(r.wal_bytes > 4096, "more than a header page was logged");
        assert!(r.refreshes > 0);
        assert_eq!(r.sim.phases.len(), 4);
        assert_eq!(r.replay.phase_mean_ms.len(), 4);
        assert!(r.sim.hit_ratio() > 0.0 && r.sim.hit_ratio() <= 1.0);
        assert!(r.replay.avg_response_ms() > 0.0);
        assert!(r.hit_ratio_dip.abs() <= 1.0);
        assert!(r.miner_state_bytes > 0);
    }

    #[test]
    fn one_wal_logs_each_routed_op_once() {
        // Parent shape: each serving leg drove its own durable miner and
        // WAL, so a cell under one registry appended every op twice.
        let trace = ChurnSpec::new(WorkloadSpec::hp().scaled(0.015)).generate();
        let reg = Registry::enabled();
        let cfgs = crate::evalmatrix::cell_configs(&trace);
        let r = run_failure_cell(&trace, FarmerConfig::default(), "kill50", 16, cfgs, &reg);
        let routed = trace
            .events
            .iter()
            .filter(|e| e.op == Op::Unlink || e.op.is_metadata_demand())
            .count() as u64;
        let obs = reg.snapshot();
        assert_eq!(obs.counter("wal.append_records"), Some(routed));
        assert_eq!(obs.counter("wal.recoveries"), Some(r.recoveries));
        assert_eq!(obs.counter("mds.restarts"), Some(r.recoveries));
    }

    #[test]
    fn replay_leg_honours_the_client_tier() {
        // The copied replay loop this module used to carry never built
        // the client tier and reported `client_hits: 0` whatever the
        // config said.
        let trace = ChurnSpec::new(WorkloadSpec::hp().scaled(0.015)).generate();
        let (sim_cfg, mut rep_cfg) = crate::evalmatrix::cell_configs(&trace);
        rep_cfg.client_cache = 64;
        let r = run_failure_cell(
            &trace,
            FarmerConfig::default(),
            "kill50",
            16,
            (sim_cfg, rep_cfg),
            &Registry::disabled(),
        );
        assert!(r.replay.client_hits > 0, "client caches absorb traffic");
        assert!(r.replay.counters.demands < r.sim.stats.demand_accesses);
    }

    #[test]
    fn torn_mode_still_recovers_bitwise() {
        // The torn variant chops the synced tail: recovery must drop the
        // damage and still land on the oracle prefix (asserted inside).
        let trace = ChurnSpec::new(WorkloadSpec::hp().scaled(0.015)).generate();
        let r = run_cell(&trace, "kill50torn");
        assert_eq!(r.recoveries, 1);
        assert!(r.recovery_events > 0);
    }

    #[test]
    fn triple_kill_mode_recovers_every_time() {
        let trace = ChurnSpec::new(WorkloadSpec::hp().scaled(0.015)).generate();
        let r = run_cell(&trace, "kill25x3");
        assert_eq!(r.recoveries, 3);
        assert!(r.recovery_events > 0);
        assert_eq!(r.recovered_events, r.recovery_events);
    }

    #[test]
    fn ckpt_mode_replays_only_the_suffix() {
        // Same trace and kill point as kill50, but with checkpoint
        // images + compaction: the recovered total stays O(log) while
        // the replayed share collapses to the post-anchor suffix.
        let trace = ChurnSpec::new(WorkloadSpec::hp().scaled(0.015)).generate();
        let r = run_cell(&trace, "ckpt");
        assert_eq!(r.recoveries, 1);
        assert!(r.recovery_events > 0);
        assert!(
            r.recovery_events < r.recovered_events,
            "a checkpoint image must absorb part of the recovery \
             (replayed {} of {})",
            r.recovery_events,
            r.recovered_events
        );
        // Checkpoints fire every len/8 events; the kill is at len/2, so
        // the suffix past the newest anchor is well under half of what
        // was recovered.
        assert!(
            r.replay_fraction < 0.5,
            "replay fraction {} not collapsed by checkpointing",
            r.replay_fraction
        );
        assert!(r.replay_fraction > 0.0);
    }
}
