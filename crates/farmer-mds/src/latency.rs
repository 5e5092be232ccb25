//! Service-time model and response-time statistics.
//!
//! Calibrated to the scale the paper reports (average metadata response
//! times between ~1.0 and ~1.8 ms on the HP trace, Figure 6): a cache hit
//! costs a few tens of microseconds of CPU; a miss pays a page per level
//! of the metadata table's B+-tree (Berkeley DB's role, §5.1), whose
//! height the server computes from its namespace; prefetch service is
//! cheaper per file because correlated metadata is batch-read ("batch
//! read into the cache by a single I/O request", §4.2).

/// Tunable service-time constants (all microseconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyModel {
    /// Served-from-cache demand request.
    pub cache_hit_us: u64,
    /// Fixed CPU cost of a demand miss (request parsing, cache update).
    pub miss_cpu_us: u64,
    /// Cost per level of the metadata table's B+-tree, whose height the
    /// server computes from its namespace, on the miss path.
    pub page_us: u64,
    /// Fixed cost of serving one queued prefetch request (batched read;
    /// cheaper than a demand miss).
    pub prefetch_us: u64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            cache_hit_us: 30,
            miss_cpu_us: 200,
            page_us: 420,
            prefetch_us: 340,
        }
    }
}

impl LatencyModel {
    /// Service time of a demand request that hit the cache.
    #[inline]
    pub fn hit(&self) -> u64 {
        self.cache_hit_us
    }

    /// Service time of a demand miss that read `pages` pages of the
    /// metadata table (one per level of its B+-tree).
    #[inline]
    pub fn miss(&self, pages: u64) -> u64 {
        self.miss_cpu_us + self.page_us * pages.max(1)
    }

    /// Service time of one prefetch request.
    #[inline]
    pub fn prefetch(&self) -> u64 {
        self.prefetch_us
    }
}

/// Streaming response-time statistics (mean, extremes, percentiles).
///
/// Backed by the workspace observability histogram
/// ([`farmer_obs::HistSnapshot`]): 64 log2 buckets keep the accumulator
/// O(1) per sample while making it mergeable (multi-server totals) and
/// diffable (per-phase quantiles via
/// [`LatencyStats::delta`]) — the mean stays exact, quantiles are exact to
/// a power-of-two bucket and clamped to the observed maximum.
#[derive(Debug, Clone, Default)]
pub struct LatencyStats {
    hist: farmer_obs::HistSnapshot,
}

impl LatencyStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        LatencyStats::default()
    }

    /// Record one response time in microseconds.
    pub fn record(&mut self, us: u64) {
        self.hist.record(us);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.hist.count
    }

    /// Mean in microseconds (0 for an empty accumulator).
    pub fn mean_us(&self) -> f64 {
        self.hist.mean()
    }

    /// Mean in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        self.mean_us() / 1000.0
    }

    /// Largest sample.
    #[cfg(test)]
    fn max_us(&self) -> u64 {
        self.hist.max
    }

    /// Smallest sample (0 if empty).
    #[cfg(test)]
    fn min_us(&self) -> u64 {
        self.hist.min
    }

    /// Approximate percentile (0 < q ≤ 1): the upper bound of the log2
    /// bucket containing the q-quantile, clamped to the observed maximum.
    pub fn percentile_us(&self, q: f64) -> u64 {
        self.hist.quantile(q)
    }

    /// Merge another accumulator into this one.
    pub fn merge(&mut self, other: &LatencyStats) {
        self.hist.merge(&other.hist);
    }

    /// Samples recorded since `earlier` (an older snapshot of this same
    /// accumulator) — per-phase percentile accounting. Count, sum and
    /// buckets are exact; min/max conservatively keep the run-level bounds.
    pub fn delta(&self, earlier: &LatencyStats) -> LatencyStats {
        LatencyStats {
            hist: self.hist.delta(&earlier.hist),
        }
    }

    /// The underlying histogram snapshot (bucket-level export).
    pub fn histogram(&self) -> &farmer_obs::HistSnapshot {
        &self.hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_costs_are_ordered() {
        let m = LatencyModel::default();
        assert!(m.hit() < m.prefetch());
        assert!(m.prefetch() < m.miss(3));
        // Deeper trees cost more.
        assert!(m.miss(4) > m.miss(2));
    }

    #[test]
    fn miss_charges_at_least_one_page() {
        let m = LatencyModel::default();
        assert_eq!(m.miss(0), m.miss(1));
    }

    #[test]
    fn stats_mean_min_max() {
        let mut s = LatencyStats::new();
        for v in [100, 200, 300] {
            s.record(v);
        }
        assert_eq!(s.count(), 3);
        assert!((s.mean_us() - 200.0).abs() < 1e-9);
        assert_eq!(s.min_us(), 100);
        assert_eq!(s.max_us(), 300);
    }

    #[test]
    fn empty_stats_are_zeroed() {
        let s = LatencyStats::new();
        assert_eq!(s.mean_us(), 0.0);
        assert_eq!(s.min_us(), 0);
        assert_eq!(s.percentile_us(0.5), 0);
    }

    #[test]
    fn percentiles_are_monotone() {
        let mut s = LatencyStats::new();
        for v in 1..10_000u64 {
            s.record(v);
        }
        let p50 = s.percentile_us(0.5);
        let p95 = s.percentile_us(0.95);
        let p99 = s.percentile_us(0.99);
        assert!(p50 <= p95 && p95 <= p99);
        // p50 of uniform 1..10k sits near 5k; log buckets give [4096, 8192].
        assert!((4096..=8192).contains(&p50), "p50 = {p50}");
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = LatencyStats::new();
        let mut b = LatencyStats::new();
        a.record(10);
        b.record(30);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!((a.mean_us() - 20.0).abs() < 1e-9);
        assert_eq!(a.max_us(), 30);
        assert_eq!(a.min_us(), 10);
    }

    #[test]
    fn delta_gives_per_phase_percentiles() {
        let mut s = LatencyStats::new();
        for _ in 0..10 {
            s.record(100);
        }
        let mark = s.clone();
        for _ in 0..10 {
            s.record(5000);
        }
        let d = s.delta(&mark);
        assert_eq!(d.count(), 10);
        assert!((d.mean_us() - 5000.0).abs() < 1e-9, "delta mean is exact");
        // The slow phase's p50 reflects only the slow samples.
        assert!(
            d.percentile_us(0.5) >= 4096,
            "p50 = {}",
            d.percentile_us(0.5)
        );
        assert!(s.percentile_us(0.5) <= 128, "overall p50 still fast-half");
    }

    #[test]
    fn record_handles_zero_and_huge() {
        let mut s = LatencyStats::new();
        s.record(0);
        s.record(u64::MAX / 2);
        assert_eq!(s.count(), 2);
        assert!(s.percentile_us(0.99) > 0);
    }
}
