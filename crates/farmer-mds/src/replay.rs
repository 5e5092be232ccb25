//! Trace-driven MDS replay: the measurement loop behind Figures 6 and 8.
//!
//! Arrival times come from the trace, optionally compressed or stretched
//! by `time_scale` to hit a target offered load. The per-family default
//! scales were chosen so the *demand* utilization sits in the regime the
//! paper reports (~1–2 ms average response): high enough that queueing and
//! prefetch-service contention matter, low enough that queues stay stable.
//!
//! [`ReplayRun`] owns no predictor: its caller queries one per demand and
//! can hand the same slice to the cache simulation. [`replay`] is that
//! loop alone.

use farmer_obs::Registry;
use farmer_prefetch::Predictor;
use farmer_trace::phases::{phase_count, phase_end};
use farmer_trace::{FileId, Trace, TraceEvent, TraceFamily};

use crate::latency::LatencyStats;
use crate::server::{MdsConfig, MdsCounters, MdsServer};

/// Parameters of one replay run.
#[derive(Debug, Clone, Copy)]
pub struct ReplayConfig {
    /// MDS configuration.
    pub mds: MdsConfig,
    /// Multiplier applied to trace timestamps (>1 stretches = lighter load).
    pub time_scale: f64,
    /// Number of equal event-index segments to additionally report mean
    /// response time over ([`ReplayReport::phase_mean_ms`]). `1` disables
    /// segmentation; phase-shifting scenarios use ≥ 2 so latency spikes at
    /// correlation breaks are visible instead of averaged away.
    ///
    /// With `num_phases > 1` the run reports exactly
    /// [`phase_count(len, num_phases)`](farmer_trace::phases::phase_count)
    /// segments — `min(num_phases, max(len, 1))`, balanced — so a trace
    /// shorter than the requested phase count degrades to one phase per
    /// event instead of a wrong segment count. With `num_phases == 1`
    /// [`ReplayReport::phase_mean_ms`] stays empty.
    pub num_phases: usize,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            mds: MdsConfig::default(),
            time_scale: 1.0,
            num_phases: 1,
        }
    }
}

impl ReplayConfig {
    /// Per-family defaults: cache sizes follow the cache-simulation
    /// experiments; time scales bring each trace's offered load into the
    /// ~40–70 % utilization band for the LRU (no-prefetch) baseline.
    pub fn for_family(family: TraceFamily) -> Self {
        let (cache_capacity, time_scale) = match family {
            TraceFamily::Llnl => (768, 16.0),
            TraceFamily::Ins => (128, 0.45),
            TraceFamily::Res => (128, 1.6),
            TraceFamily::Hp => (256, 1.7),
        };
        let mut mds = MdsConfig::default();
        mds.cache_capacity = cache_capacity;
        ReplayConfig {
            mds,
            time_scale,
            ..Default::default()
        }
    }
}

/// The outcome of one replay.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Predictor display name.
    pub predictor: String,
    /// Trace label.
    pub trace: String,
    /// Response-time statistics over all demand requests.
    pub latency: LatencyStats,
    /// MDS counters (busy time, prefetch services/drops).
    pub counters: MdsCounters,
    /// Cache counters (hit ratio, accuracy).
    pub cache: farmer_prefetch::CacheStats,
    /// Simulated horizon in µs (for utilization).
    pub horizon_us: u64,
    /// Predictor state bytes at end of run.
    pub predictor_memory: usize,
    /// Mean response time (ms) per event-index segment when the run was
    /// configured with `num_phases > 1`; empty otherwise. Segments with no
    /// demand requests report 0.
    pub phase_mean_ms: Vec<f64>,
    /// Median response time (ms) per segment, from the phase-delta of the
    /// latency histogram; same indexing as `phase_mean_ms`.
    pub phase_p50_ms: Vec<f64>,
    /// 95th-percentile response time (ms) per segment.
    pub phase_p95_ms: Vec<f64>,
    /// 99th-percentile response time (ms) per segment.
    pub phase_p99_ms: Vec<f64>,
}

impl ReplayReport {
    /// Average response time in milliseconds — the paper's Figure 6/8 metric.
    pub fn avg_response_ms(&self) -> f64 {
        self.latency.mean_ms()
    }

    /// Server utilization (busy time / horizon).
    pub fn utilization(&self) -> f64 {
        if self.horizon_us == 0 {
            0.0
        } else {
            self.counters.busy_us as f64 / self.horizon_us as f64
        }
    }

    /// One-line summary for harness output.
    pub fn summary(&self) -> String {
        format!(
            "{:<10} {:<6} resp={:.3}ms p95={:.2}ms hit={:.1}% acc={:.1}% util={:.0}% pf={}/{} dropped",
            self.predictor,
            self.trace.split('(').next().unwrap_or(&self.trace),
            self.avg_response_ms(),
            self.latency.percentile_us(0.95) as f64 / 1000.0,
            100.0 * self.cache.hit_ratio(),
            100.0 * self.cache.prefetch_accuracy(),
            100.0 * self.utilization(),
            self.counters.prefetches_serviced,
            self.counters.prefetches_dropped,
        )
    }
}

/// Replay a trace's metadata demand stream through an MDS, prefetching
/// what `predictor` proposes for each demand.
pub fn replay(trace: &Trace, mut predictor: Box<dyn Predictor>, cfg: ReplayConfig) -> ReplayReport {
    let mut run = ReplayRun::new(trace, cfg, &Registry::disabled());
    let mut candidates = Vec::new();
    for (i, event) in trace.events.iter().enumerate() {
        if event.op.is_metadata_demand() {
            predictor.on_access_into(trace, event, &mut candidates);
        }
        run.step(i, event, &candidates);
    }
    run.finish(predictor.as_ref())
}

/// One MDS replay, advanced an event at a time: the demand loop of
/// [`replay`] as a value, fed each demand's candidates by its caller, so
/// a caller that has other work per event — publishing a live miner's
/// snapshot into the cell its predictor follows, cold-restarting the
/// server after a crash, stepping the cache simulation on the same
/// candidates — interleaves it between [`ReplayRun::step`] calls instead
/// of copying the loop.
pub struct ReplayRun<'a> {
    trace: &'a Trace,
    cfg: ReplayConfig,
    mds: MdsServer,
    horizon_us: u64,
    segments: usize,
    segment: usize,
    /// The MDS latency histogram at the last phase boundary: each segment's delta against it carries exact
    /// counts/sums (mean) and bucket counts (percentiles).
    mark: LatencyStats,
    phase_mean_ms: Vec<f64>,
    phase_p50_ms: Vec<f64>,
    phase_p95_ms: Vec<f64>,
    phase_p99_ms: Vec<f64>,
}

impl<'a> ReplayRun<'a> {
    /// A run over `trace` whose MDS streams its service-time histograms
    /// into `mds.*` and its cache into `cache.*` of `reg` (pass a
    /// disabled registry for none).
    pub fn new(trace: &'a Trace, cfg: ReplayConfig, reg: &Registry) -> Self {
        let mut mds = MdsServer::new(trace, cfg.mds);
        mds.instrument(reg);
        ReplayRun {
            trace,
            cfg,
            mds,
            horizon_us: 0,
            segments: phase_count(trace.len(), cfg.num_phases),
            segment: 0,
            mark: LatencyStats::new(),
            phase_mean_ms: Vec::new(),
            phase_p50_ms: Vec::new(),
            phase_p95_ms: Vec::new(),
            phase_p99_ms: Vec::new(),
        }
    }

    /// The MDS died and was replaced ([`MdsServer::restart_cold`]); the
    /// run's statistics outlive it.
    pub fn restart_cold(&mut self) {
        self.mds.restart_cold();
    }

    fn close_phase(&mut self) {
        let now = self.mds.stats().clone();
        let delta = now.delta(&self.mark);
        self.mark = now;
        self.phase_mean_ms.push(delta.mean_ms());
        for (curve, q) in [
            (&mut self.phase_p50_ms, 0.50),
            (&mut self.phase_p95_ms, 0.95),
            (&mut self.phase_p99_ms, 0.99),
        ] {
            curve.push(delta.percentile_us(q) as f64 / 1000.0);
        }
    }

    /// Serve event `i` of the trace (call with every index, in order),
    /// queueing `candidates` — the predictor's answer to this demand — as
    /// prefetches; ignored for events that are not demands.
    pub fn step(&mut self, i: usize, event: &TraceEvent, candidates: &[FileId]) {
        if self.cfg.num_phases > 1 && i == phase_end(self.trace.len(), self.segments, self.segment)
        {
            self.close_phase();
            self.segment += 1;
        }
        if !event.op.is_metadata_demand() {
            return;
        }
        let mut e: TraceEvent = *event;
        e.timestamp_us = (event.timestamp_us as f64 * self.cfg.time_scale) as u64;
        self.horizon_us = e.timestamp_us;
        self.mds.demand(&e, candidates);
    }

    /// Close the last phase and report, under the name and state size of
    /// the `predictor` whose candidates the run consumed.
    pub fn finish<P: Predictor + ?Sized>(mut self, predictor: &P) -> ReplayReport {
        if self.cfg.num_phases > 1 {
            self.close_phase();
        }
        ReplayReport {
            predictor: predictor.name().to_string(),
            trace: self.trace.label.clone(),
            latency: self.mds.stats().clone(),
            counters: self.mds.counters(),
            cache: self.mds.cache_stats(),
            horizon_us: self.horizon_us,
            predictor_memory: predictor.memory_bytes(),
            phase_mean_ms: self.phase_mean_ms,
            phase_p50_ms: self.phase_p50_ms,
            phase_p95_ms: self.phase_p95_ms,
            phase_p99_ms: self.phase_p99_ms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::table_depth;
    use farmer_prefetch::baselines::LruOnly;
    use farmer_prefetch::{FpaPredictor, NexusPredictor};
    use farmer_trace::WorkloadSpec;

    #[test]
    fn replay_counts_all_demands() {
        let trace = WorkloadSpec::hp().scaled(0.02).generate();
        let r = replay(&trace, Box::new(LruOnly), ReplayConfig::default());
        let demands = trace
            .events
            .iter()
            .filter(|e| e.op.is_metadata_demand())
            .count();
        assert_eq!(r.latency.count() as usize, demands);
        assert!(r.avg_response_ms() > 0.0);
    }

    #[test]
    fn phase_means_cover_the_run() {
        let trace = WorkloadSpec::hp().scaled(0.05).generate();
        let mut cfg = ReplayConfig::for_family(trace.family);
        cfg.num_phases = 4;
        let r = replay(&trace, Box::new(LruOnly), cfg);
        assert_eq!(r.phase_mean_ms.len(), 4);
        assert!(r.phase_mean_ms.iter().all(|&m| m > 0.0));
        // The phase means bracket the overall mean.
        let lo = r.phase_mean_ms.iter().cloned().fold(f64::MAX, f64::min);
        let hi = r.phase_mean_ms.iter().cloned().fold(0.0, f64::max);
        assert!(lo <= r.avg_response_ms() && r.avg_response_ms() <= hi);
        // Segmentation must not perturb the simulation itself.
        let mut plain = ReplayConfig::for_family(trace.family);
        plain.num_phases = 1;
        let p = replay(&trace, Box::new(LruOnly), plain);
        assert!(p.phase_mean_ms.is_empty());
        assert_eq!(p.latency.count(), r.latency.count());
        assert!((p.avg_response_ms() - r.avg_response_ms()).abs() < 1e-12);
    }

    #[test]
    fn phase_count_normalized_to_trace_length() {
        let full = WorkloadSpec::hp().scaled(0.02).generate();
        let mut cfg = ReplayConfig::for_family(full.family);
        cfg.num_phases = 5;
        // A 3-event trace asked for 5 phases reports exactly 3.
        let mut tiny = full.clone();
        tiny.events.truncate(3);
        let r = replay(&tiny, Box::new(LruOnly), cfg);
        assert_eq!(r.phase_mean_ms.len(), 3);
        // An empty trace reports one zero segment.
        let mut empty = full.clone();
        empty.events.clear();
        let r = replay(&empty, Box::new(LruOnly), cfg);
        assert_eq!(r.phase_mean_ms.len(), 1);
        assert_eq!(r.phase_mean_ms[0], 0.0);
        // A length not divisible by the phase count still reports the
        // requested number (the old ceil-step rule dropped a segment).
        let mut five = full.clone();
        five.events.truncate(5);
        let mut cfg4 = ReplayConfig::for_family(five.family);
        cfg4.num_phases = 4;
        let r = replay(&five, Box::new(LruOnly), cfg4);
        assert_eq!(r.phase_mean_ms.len(), 4);
    }

    #[test]
    fn online_replay_refreshes_and_matches_accounting() {
        // A run refreshed mid-stream from one live miner, in the lockstep
        // driver's per-event order: publish, route, step.
        use farmer_stream::{ShardedMiner, SnapshotCell, StreamConfig};
        let trace = WorkloadSpec::hp().scaled(0.05).generate();
        let mut cfg = ReplayConfig::for_family(trace.family);
        cfg.num_phases = 4;
        let interval = (trace.len() / 8).max(1);
        let mut miner = ShardedMiner::spawn(StreamConfig::default().with_node_cap(1 << 20));
        let cell = std::sync::Arc::new(SnapshotCell::new());
        let reg = Registry::enabled();
        let mut fpa = FpaPredictor::for_trace(&trace).following(&cell);
        fpa.instrument(&reg);
        let mut run = ReplayRun::new(&trace, cfg, &Registry::disabled());
        let (mut refreshes, mut candidates) = (0, Vec::new());
        for (i, e) in trace.events.iter().enumerate() {
            if i > 0 && i % interval == 0 {
                miner.publish_into(&cell);
                refreshes += 1;
            }
            if e.op.is_metadata_demand() {
                miner.route_event(&trace, e);
                fpa.on_access_into(&trace, e, &mut candidates);
            }
            run.step(i, e, &candidates);
        }
        let r = run.finish(&fpa);
        assert_eq!(refreshes, 7, "one refresh per interior boundary");
        assert_eq!(
            reg.snapshot().counter("fpa.refreshes"),
            Some(refreshes),
            "the predictor picked up every published epoch"
        );
        assert_eq!(r.phase_mean_ms.len(), 4);
        let end = miner.snapshot();
        assert!(end.state_bytes > 0);
        assert_eq!(end.evictions, 0, "uncapped miner never evicts");
        assert!(
            r.counters.prefetches_serviced > 0,
            "refreshed FPA prefetches"
        );
        // Same demand accounting as the offline replay.
        let off = replay(&trace, Box::new(FpaPredictor::for_trace(&trace)), cfg);
        assert_eq!(r.latency.count(), off.latency.count());
        assert!(r.avg_response_ms() > 0.0);
    }

    #[test]
    fn phase_quantiles_accompany_phase_means() {
        let trace = WorkloadSpec::hp().scaled(0.05).generate();
        let mut cfg = ReplayConfig::for_family(trace.family);
        cfg.num_phases = 4;
        let r = replay(&trace, Box::new(LruOnly), cfg);
        assert_eq!(r.phase_p50_ms.len(), 4);
        assert_eq!(r.phase_p95_ms.len(), 4);
        assert_eq!(r.phase_p99_ms.len(), 4);
        for i in 0..4 {
            assert!(r.phase_p50_ms[i] > 0.0);
            assert!(r.phase_p50_ms[i] <= r.phase_p95_ms[i]);
            assert!(r.phase_p95_ms[i] <= r.phase_p99_ms[i]);
        }
        // Single-phase runs carry no segmentation.
        let mut plain = cfg;
        plain.num_phases = 1;
        let p = replay(&trace, Box::new(LruOnly), plain);
        assert!(p.phase_p50_ms.is_empty());
    }

    #[test]
    fn instrumented_replay_streams_service_times() {
        let trace = WorkloadSpec::hp().scaled(0.05).generate();
        let cfg = ReplayConfig::for_family(trace.family);
        let reg = Registry::enabled();
        let mut fpa = FpaPredictor::for_trace(&trace);
        let (mut run, mut candidates) = (ReplayRun::new(&trace, cfg, &reg), Vec::new());
        for (i, e) in trace.events.iter().enumerate() {
            if e.op.is_metadata_demand() {
                fpa.on_access_into(&trace, e, &mut candidates);
            }
            run.step(i, e, &candidates);
        }
        let r = run.finish(&fpa);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("mds.demands"), Some(r.counters.demands));
        let resp = snap
            .histogram("mds.demand_response_us")
            .expect("response histogram");
        assert_eq!(resp.count, r.counters.demands);
        // The registry's distribution agrees with the report's accumulator:
        // they record the same samples.
        assert_eq!(resp.quantile(0.95), r.latency.percentile_us(0.95));
        assert!((resp.mean() - r.latency.mean_us()).abs() < 1e-9);
        let pf = snap
            .histogram("mds.prefetch_service_us")
            .expect("prefetch histogram");
        assert_eq!(pf.count, r.counters.prefetches_serviced);
        assert_eq!(
            snap.counter("mds.prefetches_dropped"),
            Some(r.counters.prefetches_dropped)
        );
        // The cache streams into the same registry.
        assert_eq!(snap.counter("cache.hits"), Some(r.cache.hits));
        // Every cold miss reads one page per level of the metadata table,
        // which holds HP's whole namespace at any scale. HP has no creates
        // or unlinks, so the service times sum to a hit charge per hit and
        // `miss(depth)` per miss.
        let depth = table_depth(trace.num_files());
        assert_eq!(depth, 3, "{} files", trace.num_files());
        let misses = r.cache.demand_accesses - r.cache.hits;
        assert!(misses > 0);
        let lat = cfg.mds.latency;
        let svc = snap
            .histogram("mds.demand_service_us")
            .expect("service histogram");
        assert_eq!(
            svc.sum,
            r.cache.hits * lat.hit() + misses * lat.miss(depth),
            "cold misses must be charged the table's height"
        );
        // Instrumentation must not change the simulated outcome.
        let p = replay(&trace, Box::new(FpaPredictor::for_trace(&trace)), cfg);
        assert_eq!(p.latency.count(), r.latency.count());
        assert!((p.avg_response_ms() - r.avg_response_ms()).abs() < 1e-12);
    }

    #[test]
    fn stretching_time_reduces_queueing() {
        let trace = WorkloadSpec::hp().scaled(0.05).generate();
        let mut tight = ReplayConfig::default();
        tight.time_scale = 0.2; // compressed arrivals = heavy load
        let mut loose = ReplayConfig::default();
        loose.time_scale = 5.0;
        let r_tight = replay(&trace, Box::new(LruOnly), tight);
        let r_loose = replay(&trace, Box::new(LruOnly), loose);
        assert!(
            r_tight.avg_response_ms() > r_loose.avg_response_ms(),
            "load must increase response: {} vs {}",
            r_tight.avg_response_ms(),
            r_loose.avg_response_ms()
        );
    }

    #[test]
    fn fpa_beats_lru_on_response_time() {
        // Figure 8's core shape on a mid-size HP trace.
        let trace = WorkloadSpec::hp().scaled(0.2).generate();
        let cfg = ReplayConfig::for_family(trace.family);
        let lru = replay(&trace, Box::new(LruOnly), cfg);
        let fpa = replay(&trace, Box::new(FpaPredictor::for_trace(&trace)), cfg);
        assert!(
            fpa.avg_response_ms() < lru.avg_response_ms(),
            "FPA {:.3} must beat LRU {:.3}",
            fpa.avg_response_ms(),
            lru.avg_response_ms()
        );
    }

    #[test]
    fn fpa_beats_nexus_on_response_time() {
        let trace = WorkloadSpec::hp().scaled(0.2).generate();
        let cfg = ReplayConfig::for_family(trace.family);
        let nexus = replay(&trace, Box::new(NexusPredictor::paper_default()), cfg);
        let fpa = replay(&trace, Box::new(FpaPredictor::for_trace(&trace)), cfg);
        assert!(
            fpa.avg_response_ms() < nexus.avg_response_ms(),
            "FPA {:.3} must beat Nexus {:.3}",
            fpa.avg_response_ms(),
            nexus.avg_response_ms()
        );
    }

    #[test]
    fn utilization_bounded() {
        let trace = WorkloadSpec::ins().scaled(0.05).generate();
        let r = replay(
            &trace,
            Box::new(LruOnly),
            ReplayConfig::for_family(trace.family),
        );
        assert!(r.utilization() > 0.0);
        assert!(r.utilization() <= 1.05, "utilization {}", r.utilization());
    }
}
