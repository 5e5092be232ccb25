//! The lockstep serving driver: one predictor, both serving legs, one loop.
//!
//! Every cell of the evaluation matrix serves the same event stream twice
//! — through the cache simulation ([`farmer_prefetch::SimRun`], the
//! hit-ratio axis) and through the MDS replay ([`farmer_mds::ReplayRun`],
//! the response-time axis). Neither leg owns a predictor: [`Lockstep`]
//! queries one once per metadata demand and both legs consume that one
//! candidate slice. Cells differ only in the predictor: a self-mining one
//! or a follower of a cell filled before the run ([`Lockstep::serve`]), or
//! the follower of a live miner's cell ([`Lockstep::drive`]), whose
//! per-event order the driver owns once:
//!
//! 1. if the miner side crashed and recovered at this event
//!    ([`MinerSide::recover_at`]), the serving tier is replaced — a fresh
//!    cell, a fresh follower, cold caches — and the recovered snapshot is
//!    the replacement's first publication;
//! 2. at every [`OnlineConfig::refresh_due`] boundary a consistent cut of
//!    everything mined so far is published ([`MinerSide::cut`]);
//! 3. the event is mined ([`MinerSide::mine`]) — once;
//! 4. the follower answers the event from the *last published* snapshot —
//!    state strictly older than the event — and both legs serve that
//!    answer.
//!
//! Publication is the product's own: the driver owns the serving tier's
//! [`SnapshotCell`], the miner side publishes into it, and the one
//! predictor is built here as a follower of that cell
//! ([`FpaPredictor::following`]) — so the legs cannot disagree about what
//! the miner knew, a self-mining predictor cannot be driven live at all,
//! and every publication sits under the cell's monotone-install assert.
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
use farmer_prefetch::{FpaPredictor, Predictor, SimConfig, SimReport, SimRun};
use farmer_stream::{ShardedMiner, SnapshotCell, StreamConfig, StreamSnapshot};
use farmer_trace::Trace;

/// The refresh cadence of a served cell, plus the configuration of the
/// miner an online cell spawns for it.
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// Configuration of the live miner (shards, `node_cap`, …).
    pub stream: StreamConfig,
    /// Events between snapshot refreshes: at every multiple of this event
    /// index a consistent [`StreamSnapshot`] is taken and published into
    /// the cell the predictor follows. Must be positive.
    pub refresh_interval: usize,
    /// Stop refreshing after this event index: the predictor keeps
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

    /// One refresh at event `at`, frozen afterwards: the predictor serves
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

    /// Mine event `i` through the miner's `*_event` entry point, which
    /// applies the event policy (`Op::mining_action`).
    fn mine(&mut self, trace: &Trace, i: usize);
}

impl MinerSide for ShardedMiner {
    fn cut(&mut self, cell: &SnapshotCell) {
        self.publish_into(cell);
    }

    fn mine(&mut self, trace: &Trace, i: usize) {
        self.route_event(trace, &trace.events[i]);
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
    /// Events per second of the lockstep loop — the predictor, both
    /// serving legs and any mining, refreshes and recoveries.
    /// Machine-dependent.
    pub events_per_sec: f64,
}

/// The serving half of a cell — the publication cell and both runs —
/// ready to be served from one predictor.
pub struct Lockstep<'a> {
    trace: &'a Trace,
    reg: Registry,
    cell: Arc<SnapshotCell>,
    sim: SimRun<'a>,
    replay: ReplayRun<'a>,
    /// Refreshes published (`online.refreshes`).
    obs_refreshes: Counter,
    /// Wall-clock nanoseconds per refresh — the consistent cut, merge
    /// and install, as seen by the serving loop (`online.refresh_ns`).
    obs_refresh_ns: Histogram,
}

/// A follower of `cell` whose `fpa.*` metrics register under `reg`.
fn follower(trace: &Trace, cell: &Arc<SnapshotCell>, reg: &Registry) -> FpaPredictor {
    let mut fpa = FpaPredictor::for_trace(trace).following(cell);
    fpa.instrument(reg);
    fpa
}

impl<'a> Lockstep<'a> {
    /// Build the cell and both runs. Under `reg` the cadence registers as
    /// `online.*`, the MDS leg as `mds.*` / `cache.*`, the
    /// simulation leg's cache as `sim.cache.*` (it would otherwise sum
    /// into the MDS's) and [`Lockstep::drive`]'s follower as `fpa.*`; the
    /// caller instruments the miner it hands to `drive`.
    pub fn new(
        trace: &'a Trace,
        (sim_cfg, rep_cfg): (SimConfig, ReplayConfig),
        reg: &Registry,
    ) -> Self {
        let online = reg.scope("online");
        Lockstep {
            trace,
            reg: reg.clone(),
            cell: Arc::new(SnapshotCell::new()),
            sim: SimRun::new(trace, sim_cfg, &reg.scope("sim")),
            replay: ReplayRun::new(trace, rep_cfg, reg),
            obs_refreshes: online.counter("refreshes"),
            obs_refresh_ns: online.histogram("refresh_ns"),
        }
    }

    /// Serve the whole trace from `predictor`: a self-mining one, or a
    /// follower of a cell filled before the run.
    pub fn serve(self, predictor: &mut dyn Predictor) -> ServedRun {
        self.run(predictor, |_, _, _| {})
    }

    /// Serve the whole trace from a follower of the driver's cell, which
    /// `side` mines for and publishes into at `cadence` (see the module
    /// docs for the per-event order).
    ///
    /// # Panics
    /// Panics if `cadence.refresh_interval` is zero.
    pub fn drive(self, side: &mut impl MinerSide, cadence: &OnlineConfig) -> ServedRun {
        assert!(
            cadence.refresh_interval > 0,
            "online refresh_interval must be positive"
        );
        let trace = self.trace;
        let mut fpa = follower(trace, &self.cell, &self.reg);
        let mut refreshes = 0;
        let mut run = self.run(&mut fpa, |i, fpa, tier| {
            if let Some(recovered) = side.recover_at(trace, i) {
                // The serving tier dies with the miner; the runs'
                // statistics describe the experiment and carry on.
                tier.cell = Arc::new(SnapshotCell::new());
                *fpa = follower(trace, &tier.cell, &tier.reg);
                tier.sim.restart_cold();
                tier.replay.restart_cold();
                tier.cell.install(Arc::new(recovered));
            }
            if cadence.refresh_due(i) {
                let span = tier.obs_refresh_ns.span();
                side.cut(&tier.cell);
                span.finish();
                refreshes += 1;
                tier.obs_refreshes.inc();
            }
            side.mine(trace, i);
        });
        run.refreshes = refreshes;
        run
    }

    /// The one loop: per event `before` (a live cell's restart, refresh
    /// and mining), then one query of `predictor` a demand for both legs.
    fn run<P: Predictor + ?Sized>(
        mut self,
        predictor: &mut P,
        mut before: impl FnMut(usize, &mut P, &mut Self),
    ) -> ServedRun {
        let trace = self.trace;
        let start = Instant::now();
        let mut hits = Vec::with_capacity(trace.len());
        let mut candidates = Vec::new();
        for (i, event) in trace.events.iter().enumerate() {
            before(i, predictor, &mut self);
            if event.op.is_metadata_demand() {
                predictor.on_access_into(trace, event, &mut candidates);
            }
            hits.push(self.sim.step(i, event, &candidates));
            self.replay.step(i, event, &candidates);
        }
        let elapsed = start.elapsed().as_secs_f64().max(1e-9);
        ServedRun {
            sim: self.sim.finish(predictor),
            replay: self.replay.finish(predictor),
            refreshes: 0,
            hits,
            events_per_sec: trace.len() as f64 / elapsed,
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

    /// Counts the queries its predictor answers.
    struct Counted<P>(P, u64);

    impl<P: Predictor> Predictor for Counted<P> {
        fn name(&self) -> &str {
            self.0.name()
        }

        fn on_access_into(
            &mut self,
            trace: &Trace,
            event: &farmer_trace::TraceEvent,
            out: &mut Vec<farmer_trace::FileId>,
        ) {
            self.1 += 1;
            self.0.on_access_into(trace, event, out);
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
        // `fpa.refreshes` counts the epochs the follower picked up from
        // epoch 0, so equal counts are equal final epochs — the cell's.
        let obs = reg.snapshot();
        assert_eq!(obs.counter("fpa.refreshes"), Some(cell.epoch()));

        // A restart on a refresh boundary: the replacement tier's cell
        // takes the recovered cut and the refresh before its first access,
        // and the new follower picks both epochs up.
        let reg = Registry::enabled();
        let mut side = Restarting {
            miner: ShardedMiner::spawn(stream),
            at: 4 * interval,
        };
        let run = Lockstep::new(&trace, cell_configs(&trace), &reg).drive(&mut side, &online);
        let obs = reg.snapshot();
        assert_eq!(obs.counter("mds.restarts"), Some(1));
        assert_eq!(obs.counter("fpa.refreshes"), Some(run.refreshes + 1));
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

        // One predictor, one query per demand, both legs fed from it.
        let topk = obs.histogram("fpa.topk_ns").expect("follower spans");
        assert_eq!(topk.count, demands, "the online cell's one follower");
        assert!(obs.counter("sim.fpa.refreshes").is_none());
        let cell = Arc::new(SnapshotCell::new());
        cell.install(Arc::new(end));
        let mut installed = Counted(FpaPredictor::for_trace(&trace).following(&cell), 0);
        let mut self_mining = Counted(FpaPredictor::for_trace(&trace), 0);
        for counted in [&mut installed as &mut dyn Predictor, &mut self_mining] {
            let lockstep = Lockstep::new(&trace, cell_configs(&trace), &Registry::disabled());
            let run = lockstep.serve(counted);
            assert_eq!(run.sim.stats.demand_accesses, demands);
            assert_eq!(run.replay.latency.count(), demands);
            assert!(run.sim.stats.prefetches_issued > 0);
        }
        assert_eq!(installed.1, demands, "a whole-trace cell's follower");
        assert_eq!(self_mining.1, demands, "a self cell's predictor");
        assert_eq!(self_mining.0.farmer().observed(), demands);
    }
}
