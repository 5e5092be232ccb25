//! The lockstep serving driver: one miner, both serving legs, one loop.
//!
//! Every online and failure cell of the evaluation matrix serves the same
//! event stream twice — through the cache simulation
//! ([`farmer_prefetch::SimRun`], the hit-ratio axis) and through the MDS
//! replay ([`farmer_mds::ReplayRun`], the response-time axis) — from
//! snapshots of a miner that is fed that stream as it goes. [`Lockstep`]
//! owns the per-event order once:
//!
//! 1. if the miner side crashed and recovered at this event
//!    ([`MinerSide::recover_at`]), the serving tier is replaced — a fresh
//!    cell, fresh followers, cold caches — and the recovered snapshot is
//!    the replacement's first publication;
//! 2. at every [`OnlineConfig::refresh_due`] boundary a consistent cut of
//!    everything mined so far is published ([`MinerSide::cut`]);
//! 3. the event is mined ([`MinerSide::mine`]) — once;
//! 4. both legs serve it from the *last published* snapshot — state
//!    strictly older than the event.
//!
//! Publication is the product's own: the driver owns the serving tier's
//! [`SnapshotCell`], the miner side publishes into it, and both legs'
//! predictors are built here as followers of that cell
//! ([`FpaPredictor::following`]) — so the legs cannot disagree about what
//! the miner knew, a self-mining predictor cannot be driven at all, and
//! every publication sits under the cell's monotone-install assert.
//! Serving starts from the cell's empty epoch 0, so adaptation lag is
//! measured from a cold model instead of being hidden by self-mining.
//!
//! A cell lives as long as its serving tier. The correlated restart kills
//! the tier with the miner, so the replacement starts a new cell: a
//! recovery may legitimately stand *behind* what the dead tier last
//! served (a torn tail can take a record a served snapshot already
//! covered — `kill50torn` recovers one event short), and no reader
//! survives the restart to see time run backwards.

use std::sync::Arc;
use std::time::Instant;

use farmer_mds::{ReplayConfig, ReplayReport, ReplayRun};
use farmer_obs::{Counter, Histogram, Registry};
use farmer_prefetch::{FpaPredictor, SimConfig, SimReport, SimRun};
use farmer_stream::{ShardedMiner, SnapshotCell, StreamConfig, StreamSnapshot};
use farmer_trace::{Op, Trace};

/// The refresh cadence of a served cell, plus the configuration of the
/// miner an online cell spawns for it.
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// Configuration of the live miner (shards, `node_cap`, …).
    pub stream: StreamConfig,
    /// Events between snapshot refreshes: at every multiple of this event
    /// index a consistent [`StreamSnapshot`] is taken and published into
    /// the cell both predictors follow. Must be positive.
    pub refresh_interval: usize,
    /// Stop refreshing after this event index: the predictors keep
    /// serving the last snapshot taken at or before it — frozen-snapshot
    /// serving, the baseline online adaptation is measured against.
    /// `None` never freezes.
    pub freeze_after: Option<usize>,
}

impl OnlineConfig {
    /// Periodic refresh every `refresh_interval` events, never frozen.
    pub fn every(stream: StreamConfig, refresh_interval: usize) -> Self {
        OnlineConfig {
            stream,
            refresh_interval,
            freeze_after: None,
        }
    }

    /// One refresh at event `at`, frozen afterwards: the predictors serve
    /// the `[0, at)` snapshot for the rest of the run.
    pub fn frozen_at(stream: StreamConfig, at: usize) -> Self {
        OnlineConfig {
            stream,
            refresh_interval: at,
            freeze_after: Some(at),
        }
    }

    /// Does a refresh fire at event index `i`?
    pub fn refresh_due(&self, i: usize) -> bool {
        i > 0
            && i.is_multiple_of(self.refresh_interval.max(1))
            && self.freeze_after.is_none_or(|stop| i <= stop)
    }
}

/// The mining half of a served cell, as the driver sees it: it publishes
/// into the driver's cell.
pub trait MinerSide {
    /// If event `i` is a planned crash point: crash, recover, and return
    /// the recovered cut — the first publication of the serving tier that
    /// replaces the dead one. Miners that never crash keep the default.
    fn recover_at(&mut self, _trace: &Trace, _i: usize) -> Option<StreamSnapshot> {
        None
    }

    /// Publish a consistent cut of exactly the events mined so far.
    fn cut(&mut self, cell: &SnapshotCell);

    /// Mine event `i` under the matrix mining policy: unlinks are
    /// forgotten, metadata demands observed, `Close` ignored.
    fn mine(&mut self, trace: &Trace, i: usize);
}

impl MinerSide for ShardedMiner {
    fn cut(&mut self, cell: &SnapshotCell) {
        self.publish_into(cell);
    }

    fn mine(&mut self, trace: &Trace, i: usize) {
        let e = &trace.events[i];
        if e.op == Op::Unlink {
            self.route_forget(e.file);
        } else if e.op.is_metadata_demand() {
            self.route_event(trace, e);
        }
    }
}

/// What one lockstep run measured.
#[derive(Debug)]
pub struct ServedRun {
    /// The cache-simulation leg's report.
    pub sim: SimReport,
    /// The MDS-replay leg's report.
    pub replay: ReplayReport,
    /// Periodic snapshot refreshes published (recoveries not counted).
    pub refreshes: u64,
    /// The simulation leg's outcome per event: `Some(hit)` for a
    /// metadata demand, `None` otherwise.
    pub hits: Vec<Option<bool>>,
    /// Events per second of the lockstep loop — mining, refreshes,
    /// recoveries and both serving legs. Machine-dependent.
    pub events_per_sec: f64,
}

/// The serving half of a cell — the publication cell, both runs and the
/// simulation leg's predictor (the replay's lives inside its MDS) —
/// ready to be driven.
pub struct Lockstep<'a> {
    trace: &'a Trace,
    reg: Registry,
    cell: Arc<SnapshotCell>,
    predictor: FpaPredictor,
    sim: SimRun<'a>,
    replay: ReplayRun<'a>,
    /// Refreshes published (`online.refreshes`).
    obs_refreshes: Counter,
    /// Wall-clock nanoseconds per refresh — the consistent cut, merge
    /// and install, as seen by the serving loop (`online.refresh_ns`).
    obs_refresh_ns: Histogram,
}

/// A follower of `cell` whose `fpa.*` metrics register under `scope`.
fn follower(trace: &Trace, cell: &Arc<SnapshotCell>, scope: &Registry) -> FpaPredictor {
    let mut fpa = FpaPredictor::for_trace(trace).following(cell);
    fpa.instrument(scope);
    fpa
}

impl<'a> Lockstep<'a> {
    /// Build the cell, both runs and one follower of the cell per leg.
    /// Under `reg` the cadence registers as `online.*`, the MDS leg as
    /// `mds.*` / `cache.*` / `store.*` / `fpa.*`, and the simulation
    /// leg's cache and predictor as `sim.cache.*` / `sim.fpa.*` (they
    /// would otherwise sum into the MDS's); the caller instruments the
    /// miner it hands to [`Lockstep::drive`].
    pub fn new(
        trace: &'a Trace,
        (sim_cfg, rep_cfg): (SimConfig, ReplayConfig),
        reg: &Registry,
    ) -> Self {
        let cell = Arc::new(SnapshotCell::new());
        let sim_scope = reg.scope("sim");
        let online = reg.scope("online");
        Lockstep {
            trace,
            reg: reg.clone(),
            predictor: follower(trace, &cell, &sim_scope),
            sim: SimRun::new(trace, sim_cfg, &sim_scope),
            replay: ReplayRun::new(trace, Box::new(follower(trace, &cell, reg)), rep_cfg, reg),
            cell,
            obs_refreshes: online.counter("refreshes"),
            obs_refresh_ns: online.histogram("refresh_ns"),
        }
    }

    /// Correlated restart: the serving tier dies with the miner. Its
    /// replacement has a new cell, new followers and cold caches, and
    /// `recovered` is the first thing it publishes; the runs' statistics
    /// describe the experiment and carry on.
    fn restart(&mut self, recovered: StreamSnapshot) {
        self.cell = Arc::new(SnapshotCell::new());
        self.predictor = follower(self.trace, &self.cell, &self.reg.scope("sim"));
        self.sim.restart_cold();
        self.replay
            .restart_cold(Box::new(follower(self.trace, &self.cell, &self.reg)));
        self.cell.install(Arc::new(recovered));
    }

    /// Drive the whole trace through `side` and both legs (see the module
    /// docs for the per-event order).
    ///
    /// # Panics
    /// Panics if `cadence.refresh_interval` is zero.
    pub fn drive(mut self, side: &mut impl MinerSide, cadence: &OnlineConfig) -> ServedRun {
        assert!(
            cadence.refresh_interval > 0,
            "online refresh_interval must be positive"
        );
        let start = Instant::now();
        let mut refreshes = 0;
        let mut hits = Vec::with_capacity(self.trace.len());
        for (i, event) in self.trace.events.iter().enumerate() {
            if let Some(recovered) = side.recover_at(self.trace, i) {
                self.restart(recovered);
            }
            if cadence.refresh_due(i) {
                let span = self.obs_refresh_ns.span();
                side.cut(&self.cell);
                span.finish();
                refreshes += 1;
                self.obs_refreshes.inc();
            }
            side.mine(self.trace, i);
            hits.push(self.sim.step(i, event, &mut self.predictor));
            self.replay.step(i, event);
        }
        let elapsed = start.elapsed().as_secs_f64().max(1e-9);
        ServedRun {
            sim: self.sim.finish(&self.predictor),
            replay: self.replay.finish(),
            refreshes,
            hits,
            events_per_sec: self.trace.len() as f64 / elapsed,
        }
    }
}

/// Serve `trace` online: spawn the miner `online` describes, drive it in
/// lockstep with both serving legs, and return the run together with the
/// miner's end-of-stream cut (state accounting; it also mines the tail
/// still sitting in the route batch).
pub fn serve_online(
    trace: &Trace,
    online: &OnlineConfig,
    cfgs: (SimConfig, ReplayConfig),
    reg: &Registry,
) -> (ServedRun, StreamSnapshot) {
    let mut miner = ShardedMiner::spawn_instrumented(online.stream.clone(), reg);
    let run = Lockstep::new(trace, cfgs, reg).drive(&mut miner, online);
    (run, miner.snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evalmatrix::cell_configs;
    use farmer_trace::WorkloadSpec;

    /// A miner side that "recovers" at one event: it hands its current
    /// cut to a restarted serving tier.
    struct Restarting {
        miner: ShardedMiner,
        at: usize,
    }

    impl MinerSide for Restarting {
        fn recover_at(&mut self, _trace: &Trace, i: usize) -> Option<StreamSnapshot> {
            (i == self.at).then(|| self.miner.snapshot())
        }

        fn cut(&mut self, cell: &SnapshotCell) {
            self.miner.cut(cell);
        }

        fn mine(&mut self, trace: &Trace, i: usize) {
            self.miner.mine(trace, i);
        }
    }

    #[test]
    fn every_install_is_an_epoch_both_legs_end_on() {
        let trace = WorkloadSpec::hp().scaled(0.05).generate();
        let stream = StreamConfig::default().with_node_cap(1 << 20);
        let interval = (trace.len() / 8).max(1);
        let online = OnlineConfig::every(stream.clone(), interval);

        // No restart: one cell for the whole run, one epoch per refresh.
        let reg = Registry::enabled();
        let lockstep = Lockstep::new(&trace, cell_configs(&trace), &reg);
        let cell = Arc::clone(&lockstep.cell);
        let run = lockstep.drive(&mut ShardedMiner::spawn(stream.clone()), &online);
        assert_eq!(cell.epoch(), run.refreshes);
        // `fpa.refreshes` counts the epochs a follower picked up from
        // epoch 0, so equal counts are equal final epochs — the cell's.
        let obs = reg.snapshot();
        assert_eq!(obs.counter("sim.fpa.refreshes"), Some(cell.epoch()));
        assert_eq!(obs.counter("fpa.refreshes"), Some(cell.epoch()));

        // A restart on a refresh boundary: the replacement tier's cell
        // takes the recovered cut and the refresh before its first access,
        // and both legs' new followers pick both epochs up.
        let reg = Registry::enabled();
        let mut side = Restarting {
            miner: ShardedMiner::spawn(stream),
            at: 4 * interval,
        };
        let run = Lockstep::new(&trace, cell_configs(&trace), &reg).drive(&mut side, &online);
        let obs = reg.snapshot();
        assert_eq!(obs.counter("mds.restarts"), Some(1));
        let installs = run.refreshes + 1;
        assert_eq!(obs.counter("sim.fpa.refreshes"), Some(installs));
        assert_eq!(obs.counter("fpa.refreshes"), Some(installs));
    }

    #[test]
    fn one_miner_feeds_both_legs_and_is_mined_once() {
        // Parent shape: each leg co-drove its own miner, so a cell under
        // one registry mined (and counted) every event twice.
        let trace = WorkloadSpec::hp().scaled(0.05).generate();
        let stream = StreamConfig::default().with_node_cap(1 << 20);
        let online = OnlineConfig::every(stream, (trace.len() / 8).max(1));
        let reg = Registry::enabled();
        let (run, end) = serve_online(&trace, &online, cell_configs(&trace), &reg);
        let demands = trace
            .events
            .iter()
            .filter(|e| e.op.is_metadata_demand())
            .count() as u64;
        let obs = reg.snapshot();
        assert_eq!(obs.counter("stream.events_mined"), Some(demands));
        assert_eq!(run.refreshes, 7, "one refresh per interior boundary");
        assert_eq!(obs.counter("online.refreshes"), Some(run.refreshes));
        assert_eq!(
            obs.histogram("online.refresh_ns").expect("spans").count,
            run.refreshes
        );
        // Each leg's cache streams under its own scope, mirroring its
        // report exactly.
        assert_eq!(obs.counter("sim.cache.hits"), Some(run.sim.stats.hits));
        assert_eq!(obs.counter("cache.hits"), Some(run.replay.cache.hits));
        assert_eq!(obs.counter("mds.demands"), Some(demands));
        // Both legs served every demand, from the one miner's cuts.
        assert_eq!(run.sim.stats.demand_accesses, demands);
        assert_eq!(run.replay.latency.count(), demands);
        assert_eq!(run.hits.iter().flatten().count() as u64, demands);
        assert!(run.sim.stats.prefetches_issued > 0);
        assert!(run.replay.counters.prefetches_serviced > 0);
        assert_eq!(end.events, demands);
    }
}
