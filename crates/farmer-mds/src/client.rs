//! The client tier (§5.1: "Clients run applications and provide general
//! access interfaces for applications").
//!
//! Each client host keeps a small local metadata cache; lookups that hit
//! locally never reach the metadata server at all. The tier therefore (a)
//! absorbs re-references with a near-zero local latency and (b) thins and
//! *decorrelates* the stream the MDS observes — which is why server-side
//! mining still matters even with client caching, and why the combination
//! is the realistic deployment the replay offers via
//! [`crate::replay::ReplayConfig`]-driven runs with a client tier in front.

use farmer_prefetch::MetadataCache;
use farmer_trace::{FileId, HostId};

/// Per-host client caches.
#[derive(Debug)]
pub struct ClientTier {
    caches: Vec<MetadataCache>,
    /// Local (client-side) hit latency in µs.
    pub local_hit_us: u64,
}

impl ClientTier {
    /// Build a tier of `num_hosts` caches with `capacity` entries each
    /// (capacity 0 is rejected — use `Option<ClientTier>` to disable).
    pub fn new(num_hosts: usize, capacity: usize, local_hit_us: u64) -> Self {
        assert!(num_hosts > 0, "need at least one host");
        ClientTier {
            caches: (0..num_hosts)
                .map(|_| MetadataCache::new(capacity))
                .collect(),
            local_hit_us,
        }
    }

    /// Probe the host's local cache; on hit returns the local latency.
    pub fn lookup(&mut self, host: HostId, file: FileId) -> Option<u64> {
        let idx = host.index() % self.caches.len();
        let hit = self.caches[idx].access(file);
        hit.then_some(self.local_hit_us)
    }

    /// Install metadata returned by the MDS into the host's local cache.
    pub fn fill(&mut self, host: HostId, file: FileId) {
        let idx = host.index() % self.caches.len();
        self.caches[idx].insert_demand(file);
    }

    /// Invalidate a file on every host (metadata mutation coherence).
    pub fn invalidate_all(&mut self, file: FileId) {
        for cache in &mut self.caches {
            cache.invalidate(file);
        }
    }

    /// Aggregate local hit count across hosts.
    pub fn local_hits(&self) -> u64 {
        self.caches.iter().map(|c| c.stats().hits).sum()
    }

    /// Aggregate local lookups across hosts.
    #[cfg(test)]
    fn local_lookups(&self) -> u64 {
        self.caches.iter().map(|c| c.stats().demand_accesses).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(i: u32) -> FileId {
        FileId::new(i)
    }
    fn h(i: u32) -> HostId {
        HostId::new(i)
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut tier = ClientTier::new(2, 4, 5);
        assert_eq!(tier.lookup(h(0), f(1)), None);
        tier.fill(h(0), f(1));
        assert_eq!(tier.lookup(h(0), f(1)), Some(5));
    }

    #[test]
    fn hosts_are_isolated() {
        let mut tier = ClientTier::new(2, 4, 5);
        tier.fill(h(0), f(1));
        assert_eq!(tier.lookup(h(1), f(1)), None, "host 1 has its own cache");
        assert_eq!(tier.lookup(h(0), f(1)), Some(5));
    }

    #[test]
    fn invalidate_reaches_every_host() {
        let mut tier = ClientTier::new(3, 4, 5);
        for host in 0..3 {
            tier.fill(h(host), f(7));
        }
        tier.invalidate_all(f(7));
        for host in 0..3 {
            assert_eq!(tier.lookup(h(host), f(7)), None);
        }
    }

    #[test]
    fn stats_aggregate() {
        let mut tier = ClientTier::new(2, 4, 5);
        tier.fill(h(0), f(1));
        tier.lookup(h(0), f(1)); // hit
        tier.lookup(h(1), f(1)); // miss
        assert_eq!(tier.local_hits(), 1);
        assert_eq!(tier.local_lookups(), 2);
    }

    #[test]
    fn host_ids_wrap_into_range() {
        let mut tier = ClientTier::new(2, 4, 5);
        tier.fill(h(7), f(1)); // 7 % 2 == host 1
        assert_eq!(tier.lookup(h(1), f(1)), Some(5));
    }
}
