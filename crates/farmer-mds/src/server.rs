//! The metadata server: cache + predictor + store + dual queues.
//!
//! A single non-preemptive server processes requests in simulated time:
//!
//! * **demand request at time `t`** — the server first drains any queued
//!   prefetches that *complete* before `t` (idle-gap work), then serves the
//!   demand starting at `max(t, server_free)`. A cache hit costs
//!   `hit()`; a miss performs a real store descent and pays per page
//!   touched. Response time = completion − arrival.
//! * **prefetch candidates** — after each demand, the predictor's
//!   candidates enter the bounded low-priority queue; each serviced
//!   prefetch performs the store lookup and installs the entry as a
//!   prefetch-tagged cache resident.
//!
//! Strict priority is non-preemptive: a demand can wait for at most one
//! in-service prefetch, never for the queue behind it — exactly the §4.1
//! guarantee.

use farmer_obs::{Counter, Gauge, Histogram, Registry};
use farmer_prefetch::{CacheMetrics, MetadataCache, Predictor};
use farmer_store::{MetaStore, MetadataRecord, StoreMetrics};
use farmer_trace::{Trace, TraceEvent};

use crate::latency::{LatencyModel, LatencyStats};
use crate::queues::{PrefetchQueue, PrefetchRequest};

/// Configuration of one MDS instance.
#[derive(Debug, Clone, Copy)]
pub struct MdsConfig {
    /// Metadata cache capacity (entries).
    pub cache_capacity: usize,
    /// Prefetch queue bound.
    pub prefetch_queue: usize,
    /// Per-access prefetch group ceiling.
    pub prefetch_limit: usize,
    /// Service-time constants.
    pub latency: LatencyModel,
}

impl Default for MdsConfig {
    fn default() -> Self {
        MdsConfig {
            cache_capacity: 512,
            prefetch_queue: 64,
            prefetch_limit: 4,
            latency: LatencyModel::default(),
        }
    }
}

/// Live observability handles for one MDS (the `mds.*` scope of the
/// workspace registry map). Service times are *simulated* microseconds
/// (`_us`), not wall-clock — the histograms replace the mean-only
/// [`MdsCounters`] view with full distributions. No-op by default.
#[derive(Debug, Clone, Default)]
pub struct MdsMetrics {
    /// Demand requests served (`mds.demands`).
    pub demands: Counter,
    /// Simulated service time per demand request, µs
    /// (`mds.demand_service_us`) — queueing delay excluded.
    pub demand_service_us: Histogram,
    /// Simulated response time per demand request, µs
    /// (`mds.demand_response_us`) — completion minus arrival, the paper's
    /// Figure 6/8 metric as a distribution.
    pub demand_response_us: Histogram,
    /// Prefetch requests serviced (`mds.prefetches_serviced`).
    pub prefetches_serviced: Counter,
    /// Simulated service time per serviced prefetch, µs
    /// (`mds.prefetch_service_us`).
    pub prefetch_service_us: Histogram,
    /// Prefetch requests dropped from the bounded queue
    /// (`mds.prefetches_dropped`).
    pub prefetches_dropped: Counter,
    /// Prefetch-queue depth after the most recent enqueue/drain
    /// (`mds.prefetch_queue_depth`).
    pub prefetch_queue_depth: Gauge,
    /// Cold restarts survived (`mds.restarts`).
    pub restarts: Counter,
}

impl MdsMetrics {
    /// Register the MDS metrics under `reg` (pass an `mds`-scoped
    /// registry; [`MdsServer::instrument`] does this).
    pub fn new(reg: &Registry) -> MdsMetrics {
        MdsMetrics {
            demands: reg.counter("demands"),
            demand_service_us: reg.histogram("demand_service_us"),
            demand_response_us: reg.histogram("demand_response_us"),
            prefetches_serviced: reg.counter("prefetches_serviced"),
            prefetch_service_us: reg.histogram("prefetch_service_us"),
            prefetches_dropped: reg.counter("prefetches_dropped"),
            prefetch_queue_depth: reg.gauge("prefetch_queue_depth"),
            restarts: reg.counter("restarts"),
        }
    }
}

/// Aggregate counters of one MDS run.
#[derive(Debug, Clone, Copy, Default)]
pub struct MdsCounters {
    /// Demand requests served.
    pub demands: u64,
    /// Prefetch requests actually serviced.
    pub prefetches_serviced: u64,
    /// Prefetch requests dropped from the bounded queue.
    pub prefetches_dropped: u64,
    /// Busy time of the server in µs (utilization numerator).
    pub busy_us: u64,
}

/// The metadata server simulator.
pub struct MdsServer {
    cfg: MdsConfig,
    cache: MetadataCache,
    store: MetaStore,
    predictor: Box<dyn Predictor>,
    prefetch_q: PrefetchQueue,
    /// Simulated time at which the server becomes idle.
    free_at_us: u64,
    stats: LatencyStats,
    counters: MdsCounters,
    obs: MdsMetrics,
    /// Queue drops already mirrored into `obs.prefetches_dropped`.
    dropped_reported: u64,
    /// Reusable prefetch-candidate buffer, refilled per demand.
    candidates: Vec<farmer_trace::FileId>,
}

impl MdsServer {
    /// Build an MDS whose store is preloaded with the trace's namespace.
    pub fn new(trace: &Trace, predictor: Box<dyn Predictor>, cfg: MdsConfig) -> Self {
        let mut store = MetaStore::new();
        let records: Vec<MetadataRecord> = trace
            .files
            .iter()
            .enumerate()
            .map(|(i, f)| MetadataRecord {
                file: farmer_trace::FileId::new(i as u32),
                size: f.size,
                dev: f.dev.raw(),
                read_only: f.read_only,
                group: None,
            })
            .collect();
        store.load_namespace(&records);

        MdsServer {
            cache: MetadataCache::new(cfg.cache_capacity),
            store,
            predictor,
            prefetch_q: PrefetchQueue::new(cfg.prefetch_queue),
            free_at_us: 0,
            stats: LatencyStats::new(),
            counters: MdsCounters::default(),
            obs: MdsMetrics::default(),
            dropped_reported: 0,
            candidates: Vec::new(),
            cfg,
        }
    }

    /// Register this server's metrics under the `mds`, `cache` and
    /// `store` scopes of `reg` (pass the run's *root* registry). With a
    /// disabled registry all handles stay no-ops.
    pub fn instrument(&mut self, reg: &Registry) {
        self.obs = MdsMetrics::new(&reg.scope("mds"));
        self.cache
            .instrument(CacheMetrics::new(&reg.scope("cache")));
        self.store
            .instrument(StoreMetrics::new(&reg.scope("store")));
    }

    /// Handle one demand arrival; returns its response time in µs.
    pub fn demand(&mut self, trace: &Trace, event: &TraceEvent) -> u64 {
        let now = event.timestamp_us;
        self.drain_prefetches_until(now);

        // If the demanded file is still waiting in the prefetch queue, the
        // demand supersedes it.
        self.prefetch_q.cancel(event.file);

        let start = self.free_at_us.max(now);
        let service = match event.op {
            // Metadata mutations go through the store unconditionally.
            farmer_trace::Op::Create => {
                let rec = MetadataRecord {
                    file: event.file,
                    size: 0,
                    dev: event.dev.raw(),
                    read_only: false,
                    group: None,
                };
                self.store.put_metadata(&rec);
                self.cache.access(event.file);
                self.cache.insert_demand(event.file);
                self.cfg.latency.miss(2)
            }
            farmer_trace::Op::Unlink => {
                self.store.remove_metadata(event.file);
                self.cache.access(event.file);
                self.cache.invalidate(event.file);
                self.cfg.latency.miss(2)
            }
            _ => {
                let hit = self.cache.access(event.file);
                if hit {
                    self.cfg.latency.hit()
                } else {
                    let (_rec, pages) = self.store.get_metadata(event.file);
                    self.cache.insert_demand(event.file);
                    self.cfg.latency.miss(pages)
                }
            }
        };
        let completion = start + service;
        self.free_at_us = completion;
        self.counters.busy_us += service;
        self.counters.demands += 1;
        let response = completion - now;
        self.stats.record(response);
        self.obs.demands.inc();
        self.obs.demand_service_us.record(service);
        self.obs.demand_response_us.record(response);

        // Ask the predictor for candidates (into the reusable buffer) and
        // queue them at low priority.
        self.predictor
            .on_access_into(trace, event, &mut self.candidates);
        for &file in self.candidates.iter().take(self.cfg.prefetch_limit) {
            if file != event.file && !self.cache.contains(file) {
                self.prefetch_q.push(PrefetchRequest {
                    file,
                    enqueued_at_us: completion,
                });
            }
        }
        if self.obs.prefetch_queue_depth.is_enabled() {
            self.obs
                .prefetch_queue_depth
                .set(self.prefetch_q.len() as i64);
            let dropped = self.prefetch_q.dropped;
            self.obs
                .prefetches_dropped
                .add(dropped - self.dropped_reported);
            self.dropped_reported = dropped;
        }
        response
    }

    /// Serve queued prefetches that can complete before `now` (idle gaps).
    fn drain_prefetches_until(&mut self, now: u64) {
        while !self.prefetch_q.is_empty() {
            let service = self.cfg.latency.prefetch();
            let start = self.free_at_us;
            if start + service > now {
                break; // would delay the incoming demand: leave it queued
            }
            // lint: allow(panic) the loop condition peeked a head element
            // and nothing pops between the peek and here
            let req = self.prefetch_q.pop().expect("non-empty");
            if !self.cache.contains(req.file) {
                let (_rec, _pages) = self.store.get_metadata(req.file);
                self.cache.insert_prefetch(req.file);
            }
            self.free_at_us = start + service;
            self.counters.busy_us += service;
            self.counters.prefetches_serviced += 1;
            self.obs.prefetches_serviced.inc();
            self.obs.prefetch_service_us.record(service);
        }
    }

    /// Response-time statistics so far.
    pub fn stats(&self) -> &LatencyStats {
        &self.stats
    }

    /// Aggregate counters (queue drops are folded in at read time).
    pub fn counters(&self) -> MdsCounters {
        let mut c = self.counters;
        c.prefetches_dropped = self.prefetch_q.dropped;
        c
    }

    /// Cache counters (hit ratio, accuracy).
    pub fn cache_stats(&self) -> farmer_prefetch::CacheStats {
        self.cache.stats()
    }

    /// Predictor state size (Table 4 accounting).
    pub fn predictor_memory(&self) -> usize {
        self.predictor.memory_bytes()
    }

    /// Predictor display name.
    pub fn predictor_name(&self) -> String {
        self.predictor.name().to_string()
    }

    /// Cold-restart the server, as a crash + process replacement would:
    /// the metadata cache empties, queued prefetches are lost, any
    /// in-flight backlog dies with the process (the replacement starts
    /// idle), and the replacement runs `predictor` — for a predictor that
    /// follows a `SnapshotCell`, a follower of the cell the recovered
    /// mining tier publishes into (see `farmer-stream::durable`). Durable
    /// state survives: the metadata store and the running latency/hit
    /// statistics (they describe the *experiment*, which spans the
    /// restart). Recovery *time* is the mining tier's to report; this
    /// transition is instantaneous in simulated time so the post-restart
    /// hit-ratio dip measures cache loss alone.
    pub fn restart_cold(&mut self, predictor: Box<dyn Predictor>) {
        self.predictor = predictor;
        self.cache.clear();
        while self.prefetch_q.pop().is_some() {}
        self.free_at_us = 0;
        self.obs.prefetch_queue_depth.set(0);
        self.obs.restarts.inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use farmer_prefetch::baselines::LruOnly;
    use farmer_prefetch::FpaPredictor;
    use farmer_trace::WorkloadSpec;

    fn small_trace() -> Trace {
        WorkloadSpec::hp().scaled(0.02).generate()
    }

    #[test]
    fn demands_always_get_responses() {
        let trace = small_trace();
        let mut mds = MdsServer::new(&trace, Box::new(LruOnly), MdsConfig::default());
        for e in trace.events.iter().filter(|e| e.op.is_metadata_demand()) {
            let r = mds.demand(&trace, e);
            assert!(r >= MdsConfig::default().latency.cache_hit_us);
        }
        assert_eq!(mds.counters().demands, mds.stats().count());
        assert_eq!(mds.counters().prefetches_serviced, 0);
    }

    #[test]
    fn miss_costs_more_than_hit() {
        let trace = small_trace();
        let mut mds = MdsServer::new(&trace, Box::new(LruOnly), MdsConfig::default());
        let e = &trace.events[0];
        let first = mds.demand(&trace, e); // cold miss
        let mut e2 = *e;
        e2.timestamp_us = e.timestamp_us + 1_000_000; // after server idle
        let second = mds.demand(&trace, &e2); // warm hit
        assert!(first > second, "miss {first} should exceed hit {second}");
    }

    #[test]
    fn prefetches_happen_in_idle_gaps_only() {
        let trace = small_trace();
        let mut mds = MdsServer::new(
            &trace,
            Box::new(FpaPredictor::for_trace(&trace)),
            MdsConfig::default(),
        );
        for e in trace.events.iter().filter(|e| e.op.is_metadata_demand()) {
            mds.demand(&trace, e);
        }
        let c = mds.counters();
        assert!(
            c.prefetches_serviced > 0,
            "idle gaps should service prefetches"
        );
        // Utilization sanity: busy time can't exceed the simulated horizon
        // plus one final service.
        let horizon = trace.events.last().unwrap().timestamp_us;
        assert!(c.busy_us <= horizon + 10_000);
    }

    #[test]
    fn back_to_back_arrivals_queue_up() {
        // Two demands at the same instant: the second's response includes
        // the first's service time.
        let trace = small_trace();
        let mut mds = MdsServer::new(&trace, Box::new(LruOnly), MdsConfig::default());
        let mut e1 = trace.events[0];
        let mut e2 = trace.events[1];
        e1.timestamp_us = 1000;
        e2.timestamp_us = 1000;
        let r1 = mds.demand(&trace, &e1);
        let r2 = mds.demand(&trace, &e2);
        assert!(r2 >= r1, "queued request must wait: {r2} < {r1}");
    }

    #[test]
    fn store_preloaded_with_namespace() {
        let trace = small_trace();
        let mds = MdsServer::new(&trace, Box::new(LruOnly), MdsConfig::default());
        assert_eq!(
            mds.store.stats().updates as usize,
            trace.num_files(),
            "every namespace file must be loaded"
        );
    }
}
