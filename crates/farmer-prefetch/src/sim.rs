//! Trace-driven cache simulation.
//!
//! Replays a trace's metadata demand stream through a [`MetadataCache`]
//! fronted by a [`Predictor`]:
//!
//! 1. each metadata-demand event probes the cache (hit/miss accounting),
//! 2. on a miss the metadata is brought in as a demand entry,
//! 3. the predictor observes the access and proposes candidates,
//! 4. candidates are staged as prefetch entries, up to the per-access
//!    prefetch limit.
//!
//! This reproduces the measurement loop behind the paper's Figure 3
//! (hit ratio vs `max_strength` × weight), Figure 7 (hit-ratio comparison),
//! Table 3 (accuracy) and Table 5 (attribute combinations). Response-time
//! measurement needs queueing and service times and lives in `farmer-mds`.

use farmer_obs::Registry;
use farmer_trace::phases::{phase_count, phase_end};
use farmer_trace::{FileId, Trace, TraceEvent, TraceFamily};

use crate::cache::{CacheMetrics, CacheStats, MetadataCache};
use crate::metrics::SimReport;
use crate::predictor::Predictor;

/// Parameters of one simulation run.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Metadata cache capacity in entries.
    pub cache_capacity: usize,
    /// Maximum prefetch insertions per access (group size ceiling applied
    /// after the predictor's own limit).
    pub prefetch_limit: usize,
    /// Number of equal event-index segments the run is additionally
    /// reported over ([`SimReport::phases`]). `1` (the default) disables
    /// segmentation; phase-shifting scenarios use ≥ 2 so adaptation and
    /// post-shift recovery are visible instead of averaged away.
    ///
    /// With `num_phases > 1` the run reports exactly
    /// [`phase_count(len, num_phases)`](farmer_trace::phases::phase_count)
    /// segments — `min(num_phases, max(len, 1))`, balanced — so a trace
    /// shorter than the requested phase count degrades to one phase per
    /// event instead of a wrong segment count. With `num_phases == 1`
    /// [`SimReport::phases`] stays empty.
    pub num_phases: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            cache_capacity: 512,
            prefetch_limit: 4,
            num_phases: 1,
        }
    }
}

impl SimConfig {
    /// Per-family cache sizing used throughout the experiments: the cache
    /// is a small fraction of each trace's namespace, scaled so the paper's
    /// relative hit-ratio bands are reachable (INS high, RES low).
    pub fn for_family(family: TraceFamily) -> Self {
        let cache_capacity = match family {
            TraceFamily::Llnl => 768,
            TraceFamily::Ins => 128,
            TraceFamily::Res => 128,
            TraceFamily::Hp => 256,
        };
        SimConfig {
            cache_capacity,
            ..Default::default()
        }
    }

    /// Builder-style phase-count override.
    #[must_use]
    pub fn with_phases(mut self, phases: usize) -> Self {
        assert!(phases >= 1, "num_phases must be >= 1");
        self.num_phases = phases;
        self
    }
}

/// Run one simulation: `predictor` over `trace` with `cfg`.
///
/// With `cfg.num_phases > 1` the report additionally carries per-phase
/// counter deltas: the trace's event-index range is cut into `num_phases`
/// equal segments and the cache counters are snapshotted at each boundary.
pub fn simulate(trace: &Trace, predictor: &mut dyn Predictor, cfg: SimConfig) -> SimReport {
    let mut run = SimRun::new(trace, cfg, &Registry::disabled());
    for (i, event) in trace.events.iter().enumerate() {
        run.step(i, event, predictor);
    }
    run.finish(predictor)
}

/// One cache simulation, advanced an event at a time: the demand loop of
/// [`simulate`] as a value, so a caller that has other work per event —
/// refreshing the predictor from a live miner, restarting the cache after
/// a crash — interleaves it between [`SimRun::step`] calls instead of
/// copying the loop.
pub struct SimRun<'a> {
    trace: &'a Trace,
    cfg: SimConfig,
    cache: MetadataCache,
    segments: usize,
    segment: usize,
    phases: Vec<CacheStats>,
    phase_mark: CacheStats,
    /// One candidate buffer for the whole run: the predictor fills it in
    /// place each access, so the demand loop allocates nothing per event.
    candidates: Vec<FileId>,
}

impl<'a> SimRun<'a> {
    /// A run over `trace` whose cache streams its hit/miss counters into
    /// the `cache.*` scope of `reg` as it progresses (same end-of-run
    /// numbers as [`SimReport::stats`]; pass a disabled registry for none).
    pub fn new(trace: &'a Trace, cfg: SimConfig, reg: &Registry) -> Self {
        let mut cache = MetadataCache::new(cfg.cache_capacity);
        cache.instrument(CacheMetrics::new(&reg.scope("cache")));
        SimRun {
            trace,
            cfg,
            segments: phase_count(trace.len(), cfg.num_phases),
            segment: 0,
            phases: Vec::new(),
            phase_mark: cache.stats(),
            cache,
            candidates: Vec::new(),
        }
    }

    /// Serve event `i` of the trace (call with every index, in order).
    /// Returns whether a metadata demand hit the cache; `None` for events
    /// that are not demands.
    pub fn step(
        &mut self,
        i: usize,
        event: &TraceEvent,
        predictor: &mut dyn Predictor,
    ) -> Option<bool> {
        if self.cfg.num_phases > 1 && i == phase_end(self.trace.len(), self.segments, self.segment)
        {
            let now = self.cache.stats();
            self.phases.push(now.delta(&self.phase_mark));
            self.phase_mark = now;
            self.segment += 1;
        }
        if !event.op.is_metadata_demand() {
            return None;
        }
        let hit = self.cache.access(event.file);
        if !hit {
            self.cache.insert_demand(event.file);
        }
        predictor.on_access_into(self.trace, event, &mut self.candidates);
        for &file in self.candidates.iter().take(self.cfg.prefetch_limit) {
            if file != event.file {
                self.cache.insert_prefetch(file);
            }
        }
        Some(hit)
    }

    /// The serving tier died and was replaced: the cache empties, the
    /// run's counters (they describe the experiment) carry on.
    pub fn restart_cold(&mut self) {
        self.cache.clear();
    }

    /// Close the last phase and report.
    pub fn finish(mut self, predictor: &dyn Predictor) -> SimReport {
        let stats = self.cache.stats();
        if self.cfg.num_phases > 1 {
            self.phases.push(stats.delta(&self.phase_mark));
        }
        SimReport {
            predictor: predictor.name().to_string(),
            trace: self.trace.label.clone(),
            cache_capacity: self.cfg.cache_capacity,
            stats,
            phases: self.phases,
            predictor_memory: predictor.memory_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{LastSuccessor, LruOnly};
    use crate::fpa::FpaPredictor;
    use crate::nexus::NexusPredictor;
    use farmer_stream::{ShardedMiner, SnapshotCell, StreamConfig, StreamSnapshot};
    use farmer_trace::WorkloadSpec;
    use std::sync::Arc;

    #[test]
    fn lru_only_issues_no_prefetches() {
        let trace = WorkloadSpec::ins().scaled(0.05).generate();
        let r = simulate(&trace, &mut LruOnly, SimConfig::default());
        assert_eq!(r.stats.prefetches_issued, 0);
        assert!(r.stats.demand_accesses > 0);
        assert!(r.hit_ratio() > 0.0, "INS has re-reference locality");
    }

    #[test]
    fn prefetchers_beat_plain_lru_on_regular_trace() {
        let trace = WorkloadSpec::ins().scaled(0.2).generate();
        let cfg = SimConfig::for_family(trace.family);
        let lru = simulate(&trace, &mut LruOnly, cfg);
        let ls = simulate(&trace, &mut LastSuccessor::default(), cfg);
        let nexus = simulate(&trace, &mut NexusPredictor::paper_default(), cfg);
        let fpa = simulate(&trace, &mut FpaPredictor::for_trace(&trace), cfg);
        assert!(
            nexus.hit_ratio() > lru.hit_ratio(),
            "Nexus {:.3} should beat LRU {:.3}",
            nexus.hit_ratio(),
            lru.hit_ratio()
        );
        assert!(
            fpa.hit_ratio() > lru.hit_ratio(),
            "FPA {:.3} should beat LRU {:.3}",
            fpa.hit_ratio(),
            lru.hit_ratio()
        );
        // LS prefetches a single candidate; it should be roughly neutral or
        // better (small pollution deficits are possible on noisy streams).
        assert!(ls.hit_ratio() >= lru.hit_ratio() - 0.02);
    }

    #[test]
    fn fpa_more_accurate_than_nexus_on_hp() {
        // Table 3's shape: FARMER's accuracy clearly above Nexus's.
        let trace = WorkloadSpec::hp().scaled(0.3).generate();
        let cfg = SimConfig::for_family(trace.family);
        let nexus = simulate(&trace, &mut NexusPredictor::paper_default(), cfg);
        let fpa = simulate(&trace, &mut FpaPredictor::for_trace(&trace), cfg);
        assert!(
            fpa.prefetch_accuracy() > nexus.prefetch_accuracy(),
            "FPA acc {:.3} must exceed Nexus acc {:.3}",
            fpa.prefetch_accuracy(),
            nexus.prefetch_accuracy()
        );
    }

    #[test]
    fn prefetch_limit_caps_insertions() {
        let trace = WorkloadSpec::hp().scaled(0.05).generate();
        let mut cfg = SimConfig::for_family(trace.family);
        cfg.prefetch_limit = 0;
        let r = simulate(&trace, &mut FpaPredictor::for_trace(&trace), cfg);
        assert_eq!(r.stats.prefetches_issued, 0);
    }

    #[test]
    fn phase_deltas_sum_to_totals() {
        let trace = WorkloadSpec::ins().scaled(0.1).generate();
        let cfg = SimConfig::for_family(trace.family).with_phases(4);
        let r = simulate(&trace, &mut FpaPredictor::for_trace(&trace), cfg);
        assert_eq!(r.phases.len(), 4);
        let mut sum = crate::cache::CacheStats::default();
        for p in &r.phases {
            sum.demand_accesses += p.demand_accesses;
            sum.hits += p.hits;
            sum.prefetches_issued += p.prefetches_issued;
            sum.useful_prefetches += p.useful_prefetches;
            sum.wasted_prefetches += p.wasted_prefetches;
            sum.evictions += p.evictions;
        }
        assert_eq!(sum.demand_accesses, r.stats.demand_accesses);
        assert_eq!(sum.hits, r.stats.hits);
        assert_eq!(sum.prefetches_issued, r.stats.prefetches_issued);
        assert_eq!(sum.evictions, r.stats.evictions);
        // Single-phase runs carry no segmentation.
        let r1 = simulate(
            &trace,
            &mut FpaPredictor::for_trace(&trace),
            SimConfig::for_family(trace.family),
        );
        assert!(r1.phases.is_empty());
        assert_eq!(r1.stats, r.stats, "segmentation must not change the run");
    }

    #[test]
    fn phase_count_normalized_to_trace_length() {
        // num_phases > len: exactly min(num_phases, len) segments.
        let full = WorkloadSpec::ins().scaled(0.05).generate();
        let mut tiny = full.clone();
        tiny.events.truncate(2);
        let cfg = SimConfig::for_family(tiny.family).with_phases(5);
        let r = simulate(&tiny, &mut LruOnly, cfg);
        assert_eq!(r.phases.len(), 2, "2-event trace reports 2 phases");
        // Empty trace: one all-zero segment.
        let mut empty = full.clone();
        empty.events.clear();
        let r = simulate(&empty, &mut LruOnly, cfg);
        assert_eq!(r.phases.len(), 1);
        assert_eq!(r.phases[0], crate::cache::CacheStats::default());
        // len not divisible by num_phases still yields the requested
        // count (the old ceil-stride rule dropped a segment here).
        let mut five = full.clone();
        five.events.truncate(5);
        let cfg4 = SimConfig::for_family(five.family).with_phases(4);
        let r = simulate(&five, &mut LruOnly, cfg4);
        assert_eq!(r.phases.len(), 4, "5 events / 4 phases must report 4");
        let total: u64 = r.phases.iter().map(|p| p.demand_accesses).sum();
        assert_eq!(total, r.stats.demand_accesses);
    }

    /// Serve `trace` from one live miner in the lockstep driver's per-event
    /// order — a snapshot published into the cell the predictor follows at
    /// every `interval`-th event up to `stop`, the event routed, then
    /// stepped — starting cold on the empty cell. Returns the report, the
    /// refresh count, the miner's end-of-stream snapshot and the predictor
    /// (instrumented under `reg`).
    fn serve_live(
        trace: &Trace,
        cfg: SimConfig,
        stream: StreamConfig,
        interval: usize,
        stop: usize,
        reg: &Registry,
    ) -> (SimReport, u64, StreamSnapshot, FpaPredictor) {
        let mut miner = ShardedMiner::spawn_instrumented(stream, reg);
        let cell = Arc::new(SnapshotCell::new());
        let mut fpa = FpaPredictor::for_trace(trace).following(&cell);
        fpa.instrument(reg);
        let mut run = SimRun::new(trace, cfg, reg);
        let mut refreshes = 0;
        for (i, e) in trace.events.iter().enumerate() {
            if i > 0 && i % interval == 0 && i <= stop {
                miner.publish_into(&cell);
                refreshes += 1;
            }
            if e.op.is_metadata_demand() {
                miner.route_event(trace, e);
            }
            run.step(i, e, &mut fpa);
        }
        (run.finish(&fpa), refreshes, miner.snapshot(), fpa)
    }

    #[test]
    fn online_refresh_follows_the_stream() {
        let trace = WorkloadSpec::hp().scaled(0.1).generate();
        let cfg = SimConfig::for_family(trace.family).with_phases(4);
        let stream = StreamConfig::default().with_node_cap(1 << 20);
        let interval = (trace.len() / 16).max(1);
        let (r, refreshes, end, fpa) = serve_live(
            &trace,
            cfg,
            stream,
            interval,
            usize::MAX,
            &Registry::disabled(),
        );
        assert_eq!(refreshes, 15, "one refresh per interior boundary");
        assert_eq!(r.phases.len(), 4);
        assert!(r.stats.prefetches_issued > 0, "online FPA prefetches");
        assert_eq!(end.evictions, 0, "uncapped miner never evicts");
        assert!(end.state_bytes > 0);
        // Serving follows the cell for the whole run: nothing self-mined,
        // and the snapshot served from is the last boundary's cut.
        assert_eq!(fpa.farmer().observed(), 0);
        let reader = fpa.reader().expect("following");
        assert_eq!(reader.epoch_seen(), refreshes);
        let served = reader.cached().events;
        assert!(served > 0 && served < end.events);
    }

    #[test]
    fn online_converges_toward_offline_snapshot_quality() {
        // On a stationary trace, frequently-refreshed online serving must
        // land within a modest gap of the mine-everything-then-serve mode
        // (which sees the future), and beat serving a frozen early
        // snapshot for the whole run.
        let trace = WorkloadSpec::hp().scaled(0.2).generate();
        let cfg = SimConfig::for_family(trace.family);
        let stream = StreamConfig::default().with_node_cap(1 << 20);
        let reg = Registry::disabled();

        let mut offline_fpa = FpaPredictor::for_trace(&trace);
        let offline = simulate(&trace, &mut offline_fpa, cfg);

        let dense = (trace.len() / 64).max(1);
        let (online, _, _, _) = serve_live(&trace, cfg, stream.clone(), dense, usize::MAX, &reg);

        let at = (trace.len() / 8).max(1);
        let (frozen, refreshes, _, _) = serve_live(&trace, cfg, stream, at, at, &reg);
        assert_eq!(refreshes, 1, "frozen mode refreshes exactly once");

        assert!(
            offline.hit_ratio() - online.hit_ratio() < 0.10,
            "online {:.3} too far below offline {:.3}",
            online.hit_ratio(),
            offline.hit_ratio()
        );
        assert!(
            online.hit_ratio() > frozen.hit_ratio(),
            "refreshing {:.3} must beat frozen-snapshot serving {:.3}",
            online.hit_ratio(),
            frozen.hit_ratio()
        );
    }

    #[test]
    fn capped_online_miner_reports_evictions() {
        let trace = WorkloadSpec::hp().scaled(0.1).generate();
        let cfg = SimConfig::for_family(trace.family);
        let stream = StreamConfig::default().with_node_cap(128);
        let interval = (trace.len() / 8).max(1);
        let (_, _, end, _) = serve_live(
            &trace,
            cfg,
            stream,
            interval,
            usize::MAX,
            &Registry::disabled(),
        );
        assert!(end.evictions > 0, "cap must force eviction");
        assert!(end.tracked_files <= 128);
    }

    #[test]
    fn instrumented_run_streams_cache_and_online_metrics() {
        let trace = WorkloadSpec::hp().scaled(0.05).generate();
        let cfg = SimConfig::for_family(trace.family);
        let stream = StreamConfig::default().with_node_cap(1 << 20);
        let interval = (trace.len() / 8).max(1);
        let reg = Registry::enabled();
        let (r, refreshes, _, _) =
            serve_live(&trace, cfg, stream.clone(), interval, usize::MAX, &reg);
        let snap = reg.snapshot();
        // Cache counters mirror the report's end-of-run stats exactly.
        assert_eq!(
            snap.counter("cache.demand_accesses"),
            Some(r.stats.demand_accesses)
        );
        assert_eq!(snap.counter("cache.hits"), Some(r.stats.hits));
        assert_eq!(
            snap.counter("cache.prefetches_issued"),
            Some(r.stats.prefetches_issued)
        );
        assert_eq!(snap.counter("cache.evictions"), Some(r.stats.evictions));
        // The predictor picked up every published epoch.
        assert_eq!(snap.counter("fpa.refreshes"), Some(refreshes));
        let topk = snap.histogram("fpa.topk_ns").expect("topk spans");
        assert_eq!(topk.count, r.stats.demand_accesses);
        assert_eq!(
            snap.counter("stream.events_mined"),
            Some(r.stats.demand_accesses),
            "every demand event routed to the miner is mined once"
        );
        // Instrumentation must not change the simulation outcome.
        let (baseline, _, _, _) = serve_live(
            &trace,
            cfg,
            stream,
            interval,
            usize::MAX,
            &Registry::disabled(),
        );
        assert_eq!(baseline.stats, r.stats);
    }

    #[test]
    fn deterministic_given_same_inputs() {
        let trace = WorkloadSpec::res().scaled(0.05).generate();
        let cfg = SimConfig::for_family(trace.family);
        let a = simulate(&trace, &mut NexusPredictor::paper_default(), cfg);
        let b = simulate(&trace, &mut NexusPredictor::paper_default(), cfg);
        assert_eq!(a.stats, b.stats);
    }
}
