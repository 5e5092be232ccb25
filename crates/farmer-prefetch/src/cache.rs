//! The metadata cache: LRU replacement with origin-tagged entries.
//!
//! Entries are tagged with their [`Origin`] so the simulator can account
//! for what the paper measures:
//!
//! * **hit ratio** — demand accesses served from cache,
//! * **prefetching accuracy** — the fraction of prefetched entries that are
//!   demanded before being evicted ("about 65% of all predictions provided
//!   by FPA are correct", §5.3),
//! * **cache pollution** — prefetched entries evicted unused, having
//!   displaced demand-resident metadata.

use farmer_obs::{Counter, Registry};
use farmer_trace::hash::FxHashMap;
use farmer_trace::FileId;

use crate::lru::LruList;

/// How an entry got into the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// Inserted on a demand miss.
    Demand,
    /// Inserted by the prefetcher; `used` flips when first demanded.
    Prefetch,
}

#[derive(Debug, Clone)]
struct Entry {
    file: FileId,
    origin: Origin,
    used: bool,
}

/// Running counters. All ratios are derived lazily so the struct stays
/// plain-old-data.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand lookups.
    pub demand_accesses: u64,
    /// Demand lookups served from cache.
    pub hits: u64,
    /// Demand hits that landed on a not-yet-used prefetched entry.
    pub prefetch_hits: u64,
    /// Prefetch insertions (already-resident candidates are not counted).
    pub prefetches_issued: u64,
    /// Prefetched entries demanded at least once before eviction.
    pub useful_prefetches: u64,
    /// Prefetched entries evicted without ever being demanded.
    pub wasted_prefetches: u64,
    /// Total evictions of any origin.
    pub evictions: u64,
}

impl CacheStats {
    /// Demand hit ratio.
    pub fn hit_ratio(&self) -> f64 {
        if self.demand_accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.demand_accesses as f64
        }
    }

    /// Prefetching accuracy: useful / issued. Entries still resident and
    /// unused at measurement time count against accuracy, matching the
    /// paper's "predictions ... correct" phrasing.
    pub fn prefetch_accuracy(&self) -> f64 {
        if self.prefetches_issued == 0 {
            0.0
        } else {
            self.useful_prefetches as f64 / self.prefetches_issued as f64
        }
    }

    /// Prefetch waste: the fraction of issued prefetches evicted without
    /// ever being demanded — the cache-pollution cost a too-eager
    /// predictor pays.
    pub fn prefetch_waste(&self) -> f64 {
        if self.prefetches_issued == 0 {
            0.0
        } else {
            self.wasted_prefetches as f64 / self.prefetches_issued as f64
        }
    }

    /// Counter-wise difference `self - earlier`. All fields are monotone
    /// running counters, so the delta of two snapshots of the same cache is
    /// the activity between them — the basis of per-phase reporting.
    ///
    /// The subtraction saturates at zero: a mis-ordered snapshot pair
    /// (possible when callers interleave snapshots with online refreshes)
    /// reports an empty delta instead of silently underflowing into
    /// astronomically large per-phase counters.
    pub fn delta(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            demand_accesses: self.demand_accesses.saturating_sub(earlier.demand_accesses),
            hits: self.hits.saturating_sub(earlier.hits),
            prefetch_hits: self.prefetch_hits.saturating_sub(earlier.prefetch_hits),
            prefetches_issued: self
                .prefetches_issued
                .saturating_sub(earlier.prefetches_issued),
            useful_prefetches: self
                .useful_prefetches
                .saturating_sub(earlier.useful_prefetches),
            wasted_prefetches: self
                .wasted_prefetches
                .saturating_sub(earlier.wasted_prefetches),
            evictions: self.evictions.saturating_sub(earlier.evictions),
        }
    }
}

/// Live observability handles mirroring [`CacheStats`], bumped inline as
/// the cache runs — hit/miss traffic streams into the registry instead of
/// waiting for an end-of-run report. No-op by default.
#[derive(Debug, Clone, Default)]
pub struct CacheMetrics {
    /// Demand lookups (`cache.demand_accesses`).
    pub demand_accesses: Counter,
    /// Demand hits (`cache.hits`).
    pub hits: Counter,
    /// First demand hits on prefetched entries (`cache.prefetch_hits`).
    pub prefetch_hits: Counter,
    /// Prefetch insertions (`cache.prefetches_issued`).
    pub prefetches_issued: Counter,
    /// Prefetches demanded before eviction (`cache.useful_prefetches`).
    pub useful_prefetches: Counter,
    /// Prefetches evicted unused (`cache.wasted_prefetches`).
    pub wasted_prefetches: Counter,
    /// Evictions of any origin (`cache.evictions`).
    pub evictions: Counter,
}

impl CacheMetrics {
    /// Register the cache's counters under `reg` (pass a `cache`-scoped
    /// registry; see the workspace naming scheme in `farmer-obs`).
    pub fn new(reg: &Registry) -> CacheMetrics {
        CacheMetrics {
            demand_accesses: reg.counter("demand_accesses"),
            hits: reg.counter("hits"),
            prefetch_hits: reg.counter("prefetch_hits"),
            prefetches_issued: reg.counter("prefetches_issued"),
            useful_prefetches: reg.counter("useful_prefetches"),
            wasted_prefetches: reg.counter("wasted_prefetches"),
            evictions: reg.counter("evictions"),
        }
    }
}

/// Fixed-capacity metadata cache with LRU replacement.
#[derive(Debug)]
pub struct MetadataCache {
    capacity: usize,
    lru: LruList<Entry>,
    index: FxHashMap<u32, u32>, // file -> slot handle
    stats: CacheStats,
    obs: CacheMetrics,
}

impl MetadataCache {
    /// A cache holding at most `capacity` entries.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        MetadataCache {
            capacity,
            lru: LruList::with_capacity(capacity + 1),
            index: FxHashMap::default(),
            stats: CacheStats::default(),
            obs: CacheMetrics::default(),
        }
    }

    /// Attach live observability counters (a no-op set is installed by
    /// default); every [`CacheStats`] field is mirrored into the registry
    /// as the cache runs.
    pub fn instrument(&mut self, obs: CacheMetrics) {
        self.obs = obs;
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of resident entries.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Residency check without touching recency or stats.
    pub fn contains(&self, file: FileId) -> bool {
        self.index.contains_key(&file.raw())
    }

    /// A demand access: returns `true` on hit (entry refreshed to MRU),
    /// `false` on miss (caller decides whether to insert).
    pub fn access(&mut self, file: FileId) -> bool {
        self.stats.demand_accesses += 1;
        self.obs.demand_accesses.inc();
        if let Some(&slot) = self.index.get(&file.raw()) {
            self.stats.hits += 1;
            self.obs.hits.inc();
            #[expect(
                clippy::expect_used,
                reason = "the index maps file -> live slot; entries are removed from both \
                          structures together"
            )]
            let e = self.lru.get_mut(slot).expect("indexed slot is live");
            if e.origin == Origin::Prefetch && !e.used {
                e.used = true;
                self.stats.prefetch_hits += 1;
                self.stats.useful_prefetches += 1;
                self.obs.prefetch_hits.inc();
                self.obs.useful_prefetches.inc();
            }
            self.lru.move_to_front(slot);
            true
        } else {
            false
        }
    }

    /// Insert after a demand miss. No-op if already resident.
    pub fn insert_demand(&mut self, file: FileId) {
        self.insert(file, Origin::Demand);
    }

    /// Insert a prefetched entry. No-op if already resident; otherwise
    /// counts toward `prefetches_issued`.
    pub fn insert_prefetch(&mut self, file: FileId) {
        if self.contains(file) {
            return;
        }
        self.stats.prefetches_issued += 1;
        self.obs.prefetches_issued.inc();
        self.insert(file, Origin::Prefetch);
    }

    fn insert(&mut self, file: FileId, origin: Origin) {
        if let Some(&slot) = self.index.get(&file.raw()) {
            self.lru.move_to_front(slot);
            return;
        }
        if self.lru.len() >= self.capacity {
            self.evict_one();
        }
        let slot = self.lru.push_front(Entry {
            file,
            origin,
            used: false,
        });
        self.index.insert(file.raw(), slot);
    }

    /// Drop a specific entry (metadata invalidation on unlink).
    /// Drop every resident entry (a cold restart), keeping the running
    /// [`CacheStats`] and live observability handles.
    ///
    /// Unlike eviction, clearing charges nothing: entries lost to a
    /// crash were not *displaced*, so resident-but-unused prefetches do
    /// not count as waste (the predictor didn't mispredict — the process
    /// died). The post-restart hit-ratio dip the eval matrix pins comes
    /// purely from re-missing on the emptied cache.
    pub fn clear(&mut self) {
        while self.lru.pop_back().is_some() {}
        self.index.clear();
    }

    pub fn invalidate(&mut self, file: FileId) {
        if let Some(slot) = self.index.remove(&file.raw()) {
            if let Some(e) = self.lru.remove(slot) {
                self.account_eviction(&e);
            }
        }
    }

    fn evict_one(&mut self) {
        if let Some(e) = self.lru.pop_back() {
            self.index.remove(&e.file.raw());
            self.account_eviction(&e);
        }
    }

    fn account_eviction(&mut self, e: &Entry) {
        self.stats.evictions += 1;
        self.obs.evictions.inc();
        if e.origin == Origin::Prefetch && !e.used {
            self.stats.wasted_prefetches += 1;
            self.obs.wasted_prefetches.inc();
        }
    }

    /// Approximate heap bytes (for overhead reporting).
    pub fn heap_bytes(&self) -> usize {
        self.capacity * (std::mem::size_of::<Entry>() + 16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(i: u32) -> FileId {
        FileId::new(i)
    }

    #[test]
    fn miss_then_hit() {
        let mut c = MetadataCache::new(4);
        assert!(!c.access(f(1)));
        c.insert_demand(f(1));
        assert!(c.access(f(1)));
        let s = c.stats();
        assert_eq!(s.demand_accesses, 2);
        assert_eq!(s.hits, 1);
        assert!((s.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = MetadataCache::new(2);
        c.insert_demand(f(1));
        c.insert_demand(f(2));
        c.insert_demand(f(3)); // evicts 1
        assert!(!c.contains(f(1)));
        assert!(c.contains(f(2)));
        assert!(c.contains(f(3)));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn access_refreshes_recency() {
        let mut c = MetadataCache::new(2);
        c.insert_demand(f(1));
        c.insert_demand(f(2));
        assert!(c.access(f(1))); // 1 becomes MRU
        c.insert_demand(f(3)); // evicts 2, not 1
        assert!(c.contains(f(1)));
        assert!(!c.contains(f(2)));
    }

    #[test]
    fn prefetch_used_counts_useful() {
        let mut c = MetadataCache::new(4);
        c.insert_prefetch(f(1));
        assert!(c.access(f(1)));
        let s = c.stats();
        assert_eq!(s.prefetches_issued, 1);
        assert_eq!(s.useful_prefetches, 1);
        assert_eq!(s.prefetch_hits, 1);
        assert_eq!(s.wasted_prefetches, 0);
        assert!((s.prefetch_accuracy() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn prefetch_evicted_unused_counts_wasted() {
        let mut c = MetadataCache::new(1);
        c.insert_prefetch(f(1));
        c.insert_demand(f(2)); // evicts the unused prefetch
        let s = c.stats();
        assert_eq!(s.wasted_prefetches, 1);
        assert_eq!(s.useful_prefetches, 0);
        assert_eq!(s.prefetch_accuracy(), 0.0);
    }

    #[test]
    fn prefetch_used_once_not_double_counted() {
        let mut c = MetadataCache::new(4);
        c.insert_prefetch(f(1));
        c.access(f(1));
        c.access(f(1));
        let s = c.stats();
        assert_eq!(s.useful_prefetches, 1);
        assert_eq!(s.prefetch_hits, 1);
        assert_eq!(s.hits, 2);
    }

    #[test]
    fn duplicate_prefetch_not_reissued() {
        let mut c = MetadataCache::new(4);
        c.insert_prefetch(f(1));
        c.insert_prefetch(f(1));
        assert_eq!(c.stats().prefetches_issued, 1);
    }

    #[test]
    fn prefetch_of_resident_demand_entry_ignored() {
        let mut c = MetadataCache::new(4);
        c.insert_demand(f(1));
        c.insert_prefetch(f(1));
        assert_eq!(c.stats().prefetches_issued, 0);
    }

    #[test]
    fn invalidate_removes_and_accounts() {
        let mut c = MetadataCache::new(4);
        c.insert_prefetch(f(1));
        c.invalidate(f(1));
        assert!(!c.contains(f(1)));
        let s = c.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.wasted_prefetches, 1);
    }

    #[test]
    fn capacity_is_respected() {
        let mut c = MetadataCache::new(3);
        for i in 0..100 {
            c.insert_demand(f(i));
        }
        assert_eq!(c.len(), 3);
        assert_eq!(c.stats().evictions, 97);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = MetadataCache::new(0);
    }

    #[test]
    fn delta_subtracts_and_saturates() {
        let mut c = MetadataCache::new(4);
        c.insert_demand(f(1));
        c.access(f(1));
        let early = c.stats();
        c.access(f(1));
        c.access(f(2)); // miss
        let late = c.stats();
        let d = late.delta(&early);
        assert_eq!(d.demand_accesses, 2);
        assert_eq!(d.hits, 1);
        // Mis-ordered pair: saturates to an empty delta, never underflows.
        let back = early.delta(&late);
        assert_eq!(back.demand_accesses, 0);
        assert_eq!(back.hits, 0);
        assert_eq!(back, CacheStats::default());
    }
}
