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
//!    ([`MinerSide::recover_at`]), both serving legs restart cold and the
//!    recovered snapshot is installed;
//! 2. at every [`OnlineConfig::refresh_due`] boundary a consistent cut of
//!    everything mined so far ([`MinerSide::cut`]) is installed;
//! 3. the event is mined ([`MinerSide::mine`]) — once;
//! 4. both legs serve it from the *last installed* snapshot — state
//!    strictly older than the event.
//!
//! A snapshot is installed by handing both predictors an
//! `Arc<StreamSnapshot>` of the same cut, so the legs cannot disagree
//! about what the miner knew. Serving starts from an installed *empty*
//! source: it is external for the whole run, and adaptation lag is
//! measured from a cold model instead of being hidden by self-mining.

use std::sync::Arc;
use std::time::Instant;

use farmer_core::CorrelatorTable;
use farmer_mds::{ReplayConfig, ReplayReport, ReplayRun};
use farmer_obs::{Counter, Histogram, Registry};
use farmer_prefetch::{FpaPredictor, Predictor, SimConfig, SimReport, SimRun};
use farmer_stream::{ShardedMiner, StreamConfig, StreamSnapshot};
use farmer_trace::{Op, Trace};

/// The refresh cadence of a served cell, plus the configuration of the
/// miner an online cell spawns for it.
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// Configuration of the live miner (shards, `node_cap`, …).
    pub stream: StreamConfig,
    /// Events between snapshot refreshes: at every multiple of this event
    /// index a consistent [`StreamSnapshot`] is taken and swapped into
    /// both predictors. Must be positive.
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

/// The mining half of a served cell, as the driver sees it. Snapshots
/// come back with the stream position (events) they reflect.
pub trait MinerSide {
    /// If event `i` is a planned crash point: crash, recover, and return
    /// the recovered state for the serving tier's cold restart. Miners
    /// that never crash keep the default.
    fn recover_at(&mut self, _trace: &Trace, _i: usize) -> Option<(StreamSnapshot, u64)> {
        None
    }

    /// A consistent cut of exactly the events mined so far.
    fn cut(&mut self) -> (StreamSnapshot, u64);

    /// Mine event `i` under the matrix mining policy: unlinks are
    /// forgotten, metadata demands observed, `Close` ignored.
    fn mine(&mut self, trace: &Trace, i: usize);
}

impl MinerSide for ShardedMiner {
    fn cut(&mut self) -> (StreamSnapshot, u64) {
        let events = self.events_routed();
        (self.snapshot(), events)
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
    /// Periodic snapshot refreshes installed (recoveries not counted).
    pub refreshes: u64,
    /// The simulation leg's outcome per event: `Some(hit)` for a
    /// metadata demand, `None` otherwise.
    pub hits: Vec<Option<bool>>,
    /// Events per second of the lockstep loop — mining, refreshes,
    /// recoveries and both serving legs. Machine-dependent.
    pub events_per_sec: f64,
}

/// The serving half of a cell — both runs and the simulation leg's
/// predictor (the replay's lives inside its MDS) — ready to be driven.
pub struct Lockstep<'a> {
    trace: &'a Trace,
    predictor: &'a mut dyn Predictor,
    sim: SimRun<'a>,
    replay: ReplayRun<'a>,
    /// Refreshes installed (`online.refreshes`).
    obs_refreshes: Counter,
    /// Wall-clock nanoseconds per refresh — the consistent cut plus
    /// merge, as seen by the serving loop (`online.refresh_ns`).
    obs_refresh_ns: Histogram,
}

impl<'a> Lockstep<'a> {
    /// Build both runs and install the empty initial source in both
    /// predictors. Under `reg` the cadence registers as `online.*`, the
    /// MDS leg as `mds.*` / `cache.*` / `store.*`, and the simulation
    /// leg's cache as `sim.cache.*` (it would otherwise sum into the
    /// MDS's); the caller instruments the miner it hands to
    /// [`Lockstep::drive`].
    ///
    /// # Panics
    /// Panics if either predictor rejects external sources
    /// ([`Predictor::refresh_source`] returns `false`).
    pub fn new(
        trace: &'a Trace,
        predictor: &'a mut dyn Predictor,
        replay_predictor: Box<dyn Predictor>,
        (sim_cfg, rep_cfg): (SimConfig, ReplayConfig),
        reg: &Registry,
    ) -> Self {
        assert!(
            predictor.refresh_source(Box::new(CorrelatorTable::new()), 0),
            "lockstep serving requires a predictor that accepts external \
             correlation sources (Predictor::refresh_source)"
        );
        let mut replay = ReplayRun::new(trace, replay_predictor, rep_cfg, reg);
        replay.refresh_predictor(Box::new(CorrelatorTable::new()), 0);
        let online = reg.scope("online");
        Lockstep {
            trace,
            predictor,
            sim: SimRun::new(trace, sim_cfg, &reg.scope("sim")),
            replay,
            obs_refreshes: online.counter("refreshes"),
            obs_refresh_ns: online.histogram("refresh_ns"),
        }
    }

    /// Both legs serve from the same cut.
    fn install(&mut self, (snap, events): (StreamSnapshot, u64)) {
        let snap = Arc::new(snap);
        self.predictor
            .refresh_source(Box::new(Arc::clone(&snap)), events);
        self.replay.refresh_predictor(Box::new(snap), events);
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
                // Correlated restart: the serving tier dies with the miner.
                self.sim.restart_cold();
                self.replay.restart_cold();
                self.install(recovered);
            }
            if cadence.refresh_due(i) {
                let span = self.obs_refresh_ns.span();
                let cut = side.cut();
                span.finish();
                self.install(cut);
                refreshes += 1;
                self.obs_refreshes.inc();
            }
            side.mine(self.trace, i);
            hits.push(self.sim.step(i, event, self.predictor));
            self.replay.step(i, event);
        }
        let elapsed = start.elapsed().as_secs_f64().max(1e-9);
        ServedRun {
            sim: self.sim.finish(self.predictor),
            replay: self.replay.finish(),
            refreshes,
            hits,
            events_per_sec: self.trace.len() as f64 / elapsed,
        }
    }
}

/// Serve `trace` online: spawn the miner `online` describes, drive it in
/// lockstep with two fresh FPA legs, and return the run together with the
/// miner's end-of-stream cut (state accounting; it also mines the tail
/// still sitting in the route batch).
pub fn serve_online(
    trace: &Trace,
    online: &OnlineConfig,
    cfgs: (SimConfig, ReplayConfig),
    reg: &Registry,
) -> (ServedRun, StreamSnapshot) {
    let mut miner = ShardedMiner::spawn_instrumented(online.stream.clone(), reg);
    let mut fpa = FpaPredictor::for_trace(trace);
    let replay_fpa = Box::new(FpaPredictor::for_trace(trace));
    let run = Lockstep::new(trace, &mut fpa, replay_fpa, cfgs, reg).drive(&mut miner, online);
    (run, miner.snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evalmatrix::cell_configs;
    use farmer_prefetch::baselines::LruOnly;
    use farmer_prefetch::FpaPredictor;
    use farmer_trace::WorkloadSpec;

    #[test]
    #[should_panic(expected = "accepts external")]
    fn online_rejects_self_mining_predictors() {
        let trace = WorkloadSpec::ins().scaled(0.01).generate();
        let fpa = Box::new(FpaPredictor::for_trace(&trace));
        let _ = Lockstep::new(
            &trace,
            &mut LruOnly,
            fpa,
            cell_configs(&trace),
            &Registry::disabled(),
        );
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
