//! The metadata server: cache + dual queues, over a metadata table
//! modelled by its height.
//!
//! A single non-preemptive server processes requests in simulated time:
//!
//! * **demand request at time `t`** — the server first drains any queued
//!   prefetches that *complete* before `t` (idle-gap work), then serves the
//!   demand starting at `max(t, server_free)`. A cache hit costs
//!   `hit()`; a miss reads one page per level of the metadata table's
//!   B+-tree (Berkeley DB's role, §5.1), whose height the server computes
//!   from its namespace. Response time = completion − arrival.
//! * **prefetch candidates** — after each demand, the candidates its
//!   caller hands in with it (a predictor's answer to that demand; the
//!   server owns no predictor) enter the bounded low-priority queue; each
//!   serviced prefetch pays a flat batched-read charge and installs the
//!   entry as a prefetch-tagged cache resident.
//!
//! Strict priority is non-preemptive: a demand can wait for at most one
//! in-service prefetch, never for the queue behind it — exactly the §4.1
//! guarantee.

use farmer_obs::{Counter, Gauge, Histogram, Registry};
use farmer_prefetch::{CacheMetrics, MetadataCache};
use farmer_trace::{FileId, Trace, TraceEvent};

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
    /// Height of the metadata table's B+-tree: the pages a demand miss
    /// reads.
    depth: u64,
    prefetch_q: PrefetchQueue,
    /// Simulated time at which the server becomes idle.
    free_at_us: u64,
    stats: LatencyStats,
    counters: MdsCounters,
    obs: MdsMetrics,
    /// Queue drops already mirrored into `obs.prefetches_dropped`.
    dropped_reported: u64,
}

impl MdsServer {
    /// Build an MDS whose metadata table holds the trace's namespace.
    pub fn new(trace: &Trace, cfg: MdsConfig) -> Self {
        MdsServer {
            cache: MetadataCache::new(cfg.cache_capacity),
            depth: table_depth(trace.num_files()),
            prefetch_q: PrefetchQueue::new(cfg.prefetch_queue),
            free_at_us: 0,
            stats: LatencyStats::new(),
            counters: MdsCounters::default(),
            obs: MdsMetrics::default(),
            dropped_reported: 0,
            cfg,
        }
    }

    /// Register this server's metrics under the `mds` and `cache` scopes
    /// of `reg` (pass the run's *root* registry). With a disabled registry
    /// all handles stay no-ops.
    pub fn instrument(&mut self, reg: &Registry) {
        self.obs = MdsMetrics::new(&reg.scope("mds"));
        self.cache
            .instrument(CacheMetrics::new(&reg.scope("cache")));
    }

    /// Handle one demand arrival, then queue `candidates` — the
    /// predictor's answer to it — as prefetches; returns the demand's
    /// response time in µs.
    pub fn demand(&mut self, event: &TraceEvent, candidates: &[FileId]) -> u64 {
        let now = event.timestamp_us;
        self.drain_prefetches_until(now);

        // If the demanded file is still waiting in the prefetch queue, the
        // demand supersedes it.
        self.prefetch_q.cancel(event.file);

        let start = self.free_at_us.max(now);
        let service = match event.op {
            // Metadata mutations pay a flat two-page miss, whatever the
            // cache holds.
            farmer_trace::Op::Create => {
                self.cache.access(event.file);
                self.cache.insert_demand(event.file);
                self.cfg.latency.miss(2)
            }
            farmer_trace::Op::Unlink => {
                self.cache.access(event.file);
                self.cache.invalidate(event.file);
                self.cfg.latency.miss(2)
            }
            _ => {
                let hit = self.cache.access(event.file);
                if hit {
                    self.cfg.latency.hit()
                } else {
                    self.cache.insert_demand(event.file);
                    self.cfg.latency.miss(self.depth)
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

        for &file in candidates.iter().take(self.cfg.prefetch_limit) {
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
            #[expect(
                clippy::expect_used,
                reason = "the loop condition peeked a head element and nothing pops between the \
                          peek and here"
            )]
            let req = self.prefetch_q.pop().expect("non-empty");
            if !self.cache.contains(req.file) {
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

    /// Cold-restart the server, as a crash + process replacement would:
    /// the metadata cache empties, queued prefetches are lost, any
    /// in-flight backlog dies with the process (the replacement starts
    /// idle). Durable state survives: the metadata table and the running
    /// latency/hit statistics (they describe the *experiment*, which spans
    /// the restart). Recovery *time* is the mining tier's to report; this
    /// transition is instantaneous in simulated time so the post-restart
    /// hit-ratio dip measures cache loss alone.
    pub fn restart_cold(&mut self) {
        self.cache.clear();
        while self.prefetch_q.pop().is_some() {}
        self.free_at_us = 0;
        self.obs.prefetch_queue_depth.set(0);
        self.obs.restarts.inc();
    }
}

/// Height of an order-64 B+-tree loaded with `n` keys in ascending
/// order: 1 up to 64 keys, and one level more at each threshold
/// T₁ = 65, Tₖ₊₁ = 33·Tₖ − 32 (65, 2 113, 69 697, …). These are the
/// heights a B+-tree of that order that splits an overfull node in two
/// reaches under ascending inserts, checked for every `n` up to 300 000.
pub(crate) fn table_depth(n: usize) -> u64 {
    // u128: the threshold passes every usize before it can overflow.
    let (mut depth, mut threshold) = (1, 65_u128);
    while n as u128 >= threshold {
        depth += 1;
        threshold = 33 * threshold - 32;
    }
    depth
}

#[cfg(test)]
mod tests {
    use super::*;
    use farmer_prefetch::{FpaPredictor, Predictor};
    use farmer_trace::WorkloadSpec;

    fn small_trace() -> Trace {
        WorkloadSpec::hp().scaled(0.02).generate()
    }

    #[test]
    fn demands_always_get_responses() {
        let trace = small_trace();
        let mut mds = MdsServer::new(&trace, MdsConfig::default());
        for e in trace.events.iter().filter(|e| e.op.is_metadata_demand()) {
            let r = mds.demand(e, &[]);
            assert!(r >= MdsConfig::default().latency.cache_hit_us);
        }
        assert_eq!(mds.counters().demands, mds.stats().count());
        assert_eq!(mds.counters().prefetches_serviced, 0);
    }

    #[test]
    fn miss_costs_more_than_hit() {
        let trace = small_trace();
        let mut mds = MdsServer::new(&trace, MdsConfig::default());
        let e = &trace.events[0];
        let first = mds.demand(e, &[]); // cold miss
        let mut e2 = *e;
        e2.timestamp_us = e.timestamp_us + 1_000_000; // after server idle
        let second = mds.demand(&e2, &[]); // warm hit
        assert!(first > second, "miss {first} should exceed hit {second}");
    }

    #[test]
    fn prefetches_happen_in_idle_gaps_only() {
        let trace = small_trace();
        let mut mds = MdsServer::new(&trace, MdsConfig::default());
        let mut fpa = FpaPredictor::for_trace(&trace);
        for e in trace.events.iter().filter(|e| e.op.is_metadata_demand()) {
            mds.demand(e, &fpa.on_access(&trace, e));
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
        let mut mds = MdsServer::new(&trace, MdsConfig::default());
        let mut e1 = trace.events[0];
        let mut e2 = trace.events[1];
        e1.timestamp_us = 1000;
        e2.timestamp_us = 1000;
        let r1 = mds.demand(&e1, &[]);
        let r2 = mds.demand(&e2, &[]);
        assert!(r2 >= r1, "queued request must wait: {r2} < {r1}");
    }

    #[test]
    fn table_depth_follows_the_btree_thresholds() {
        // Heights an order-64 B+-tree reached after loading `n` keys in
        // ascending order: at each threshold and one key short of it, then
        // at the five namespace sizes of the traces the experiments run.
        let cases = [
            (0, 1),
            (1, 1),
            (64, 1),
            (65, 2),
            (2_112, 2),
            (2_113, 3),
            (69_696, 3),
            (69_697, 4),
            (2_086, 2),
            (9_810, 3),
            (16_869, 3),
            (17_832, 3),
            (28_765, 3),
        ];
        for (n, depth) in cases {
            assert_eq!(table_depth(n), depth, "n = {n}");
        }
        assert_eq!(
            table_depth(usize::MAX),
            13,
            "no overflow past the last threshold"
        );
    }
}
