//! Multi-MDS clusters (§4.1): "use multiple metadata servers to coordinate
//! the metadata requests to metadata servers for load balancing".
//!
//! The cluster partitions the namespace across `num_servers` independent
//! MDS instances — each with its own cache and prefetcher, charging its
//! misses against a metadata table of the whole namespace — and routes
//! every demand to its owner. Two partitioning policies:
//!
//! * [`Partition::Hash`] — uniform hash of the file id; best balance,
//!   but correlated files scatter across servers, so each server's miner
//!   sees fragmented sequences.
//! * [`Partition::Dev`] — by device/volume, which keeps directory
//!   neighbourhoods (and therefore mineable correlations) on one server
//!   at the cost of balance.
//!
//! The report exposes aggregate latency plus a load-imbalance metric, so
//! the scaling experiment can show both effects.

use farmer_prefetch::Predictor;
use farmer_trace::hash::fx_hash_u64;
use farmer_trace::{Trace, TraceEvent};

use crate::latency::LatencyStats;
use crate::replay::ReplayConfig;
use crate::server::MdsServer;

/// Namespace partitioning policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partition {
    /// Route by hashed file id (uniform).
    Hash,
    /// Route by the file's device/volume (locality-preserving).
    Dev,
}

/// Cluster-run configuration.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Number of metadata servers.
    pub num_servers: usize,
    /// Per-server replay configuration (cache size, latency model, scale).
    pub replay: ReplayConfig,
    /// Partitioning policy.
    pub partition: Partition,
}

/// Outcome of a cluster replay.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Aggregate response-time statistics across all servers.
    pub latency: LatencyStats,
    /// Demands routed to each server.
    pub per_server_demands: Vec<u64>,
    /// Aggregate cache statistics.
    pub hits: u64,
    /// Total demand count.
    pub demands: u64,
}

impl ClusterReport {
    /// Aggregate average response (ms).
    pub fn avg_response_ms(&self) -> f64 {
        self.latency.mean_ms()
    }

    /// Aggregate hit ratio.
    pub fn hit_ratio(&self) -> f64 {
        if self.demands == 0 {
            0.0
        } else {
            self.hits as f64 / self.demands as f64
        }
    }

    /// Load imbalance: max per-server share / ideal share (1.0 = perfect).
    pub fn imbalance(&self) -> f64 {
        let total: u64 = self.per_server_demands.iter().sum();
        if total == 0 || self.per_server_demands.is_empty() {
            return 1.0;
        }
        let ideal = total as f64 / self.per_server_demands.len() as f64;
        let max = self.per_server_demands.iter().max().copied().unwrap_or(0) as f64;
        max / ideal
    }
}

/// Replay a trace through a cluster of MDS instances. `make_predictor` is
/// called once per server so each shard owns an independent model, which
/// sees only the demands routed to its server.
pub fn replay_cluster(
    trace: &Trace,
    mut make_predictor: impl FnMut() -> Box<dyn Predictor>,
    cfg: ClusterConfig,
) -> ClusterReport {
    assert!(cfg.num_servers > 0, "need at least one server");
    let mut servers: Vec<(MdsServer, Box<dyn Predictor>)> = (0..cfg.num_servers)
        .map(|_| (MdsServer::new(trace, cfg.replay.mds), make_predictor()))
        .collect();
    let mut per_server_demands = vec![0u64; cfg.num_servers];
    let mut candidates = Vec::new();

    for event in &trace.events {
        if !event.op.is_metadata_demand() {
            continue;
        }
        let shard = match cfg.partition {
            Partition::Hash => {
                (fx_hash_u64(event.file.raw() as u64) % cfg.num_servers as u64) as usize
            }
            Partition::Dev => (event.dev.raw() as usize) % cfg.num_servers,
        };
        let mut e: TraceEvent = *event;
        e.timestamp_us = (event.timestamp_us as f64 * cfg.replay.time_scale) as u64;
        let (server, predictor) = &mut servers[shard];
        predictor.on_access_into(trace, &e, &mut candidates);
        server.demand(&e, &candidates);
        per_server_demands[shard] += 1;
    }

    let mut latency = LatencyStats::new();
    let mut hits = 0;
    let mut demands = 0;
    for (s, _) in &servers {
        latency.merge(s.stats());
        let cs = s.cache_stats();
        hits += cs.hits;
        demands += cs.demand_accesses;
    }
    ClusterReport {
        latency,
        per_server_demands,
        hits,
        demands,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use farmer_prefetch::baselines::LruOnly;
    use farmer_prefetch::FpaPredictor;
    use farmer_trace::{TraceFamily, WorkloadSpec};

    fn cfg(n: usize, partition: Partition) -> ClusterConfig {
        ClusterConfig {
            num_servers: n,
            replay: ReplayConfig::for_family(TraceFamily::Hp),
            partition,
        }
    }

    #[test]
    fn all_demands_are_served() {
        let trace = WorkloadSpec::hp().scaled(0.05).generate();
        let r = replay_cluster(&trace, || Box::new(LruOnly), cfg(4, Partition::Hash));
        let demands = trace
            .events
            .iter()
            .filter(|e| e.op.is_metadata_demand())
            .count();
        assert_eq!(r.demands as usize, demands);
        assert_eq!(r.per_server_demands.iter().sum::<u64>() as usize, demands);
    }

    #[test]
    fn hash_partition_balances_load() {
        let trace = WorkloadSpec::hp().scaled(0.05).generate();
        let r = replay_cluster(&trace, || Box::new(LruOnly), cfg(4, Partition::Hash));
        assert!(r.imbalance() < 1.5, "hash imbalance {}", r.imbalance());
    }

    #[test]
    fn more_servers_reduce_response_under_load() {
        let trace = WorkloadSpec::hp().scaled(0.1).generate();
        let mut heavy = cfg(1, Partition::Hash);
        heavy.replay.time_scale = 0.6; // push the single server hard
        let one = replay_cluster(&trace, || Box::new(LruOnly), heavy);
        let mut four = heavy;
        four.num_servers = 4;
        let quad = replay_cluster(&trace, || Box::new(LruOnly), four);
        assert!(
            quad.avg_response_ms() < one.avg_response_ms(),
            "4 servers {:.3}ms should beat 1 server {:.3}ms",
            quad.avg_response_ms(),
            one.avg_response_ms()
        );
    }

    #[test]
    fn fpa_still_helps_in_cluster_mode() {
        let trace = WorkloadSpec::hp().scaled(0.1).generate();
        let c = cfg(4, Partition::Hash);
        let lru = replay_cluster(&trace, || Box::new(LruOnly), c);
        let fpa = replay_cluster(&trace, || Box::new(FpaPredictor::for_trace(&trace)), c);
        assert!(
            fpa.avg_response_ms() < lru.avg_response_ms(),
            "FPA {:.3} vs LRU {:.3}",
            fpa.avg_response_ms(),
            lru.avg_response_ms()
        );
        assert!(fpa.hit_ratio() > lru.hit_ratio());
    }

    #[test]
    fn dev_partition_routes_by_volume() {
        let trace = WorkloadSpec::hp().scaled(0.05).generate();
        let r = replay_cluster(&trace, || Box::new(LruOnly), cfg(4, Partition::Dev));
        // Dev routing is coarser, so some imbalance is expected — but every
        // request must still land somewhere.
        assert_eq!(r.per_server_demands.iter().sum::<u64>(), r.demands);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_rejected() {
        let trace = WorkloadSpec::ins().scaled(0.01).generate();
        let _ = replay_cluster(&trace, || Box::new(LruOnly), cfg(0, Partition::Hash));
    }
}
