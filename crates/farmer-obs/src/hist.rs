//! Log2-bucketed latency histograms: an atomic recorder ([`Histogram`]) and
//! its plain, mergeable snapshot ([`HistSnapshot`]).
//!
//! Bucket `i` covers `[2^i, 2^(i+1))` (bucket 0 additionally absorbs zero),
//! so 64 buckets span the whole `u64` range with ≤ 2× relative quantile
//! error — the same scheme production metric systems use, and the direct
//! generalization of the 36-bucket histogram `farmer-mds::latency` carried
//! before this crate existed. Recording touches a fixed handful of relaxed
//! atomics; there is no allocation, locking, or resizing anywhere on the
//! record path.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Number of buckets — one per power of two of `u64`.
pub const BUCKETS: usize = 64;

/// The bucket a value lands in: `floor(log2(max(v, 1)))`.
#[inline]
fn bucket_index(v: u64) -> usize {
    (63 - (v | 1).leading_zeros()) as usize
}

/// Inclusive-exclusive bounds `[lo, hi)` of bucket `i` (bucket 0 starts at
/// zero; the last bucket's upper bound saturates at `u64::MAX`).
pub(crate) fn bucket_bounds(i: usize) -> (u64, u64) {
    debug_assert!(i < BUCKETS);
    let lo = if i == 0 { 0 } else { 1u64 << i };
    let hi = if i >= 63 { u64::MAX } else { 1u64 << (i + 1) };
    (lo, hi)
}

/// A plain (non-atomic) histogram state: recordable, mergeable, diffable.
///
/// This is both the snapshot type of the atomic [`Histogram`] and a
/// standalone single-threaded accumulator (`farmer-mds`'s latency
/// accounting records straight into one).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Values recorded.
    pub count: u64,
    /// Sum of recorded values, so means stay exact even though bucket
    /// bounds quantize the quantiles. Wraps on overflow (like the atomic
    /// recorder) — unreachable for latency-scale values, and wrapping
    /// keeps merge/delta an exact algebra on every field.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// Per-bucket counts; bucket `i` covers `[2^i, 2^(i+1))`.
    pub buckets: [u64; BUCKETS],
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }
}

impl HistSnapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        HistSnapshot::default()
    }

    /// Record one value.
    pub fn record(&mut self, v: u64) {
        self.min = if self.count == 0 { v } else { self.min.min(v) };
        self.max = self.max.max(v);
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.buckets[bucket_index(v)] += 1;
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`), reported as the upper bound of
    /// the bucket holding the `ceil(count·q)`-th smallest sample, clamped
    /// to the observed maximum. Returns 0 when empty.
    ///
    /// The clamp keeps the estimate inside the observed range (and makes
    /// `quantile(1.0) == max` exact); the bucket bound keeps the relative
    /// error below 2×.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64 * q).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= target {
                return bucket_bounds(i).1.min(self.max);
            }
        }
        self.max
    }

    /// Merge another snapshot into this one. Associative and commutative:
    /// shard histograms merged in any grouping yield the same totals.
    pub fn merge(&mut self, other: &HistSnapshot) {
        if other.count == 0 {
            return;
        }
        self.min = if self.count == 0 {
            other.min
        } else {
            self.min.min(other.min)
        };
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }

    /// Bucket-wise difference `self - earlier` — the activity between two
    /// snapshots of the same histogram, the basis of per-phase quantiles.
    ///
    /// Subtraction saturates at zero so a mis-ordered pair yields an empty
    /// delta instead of underflowing. `min`/`max` are not recoverable from
    /// a difference, so the delta conservatively keeps `self`'s bounds.
    pub fn delta(&self, earlier: &HistSnapshot) -> HistSnapshot {
        let mut d = HistSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.wrapping_sub(earlier.sum),
            min: self.min,
            max: self.max,
            buckets: [0; BUCKETS],
        };
        for (i, b) in d.buckets.iter_mut().enumerate() {
            *b = self.buckets[i].saturating_sub(earlier.buckets[i]);
        }
        if d.count == 0 {
            d.sum = 0;
            d.min = 0;
            d.max = 0;
        }
        d
    }
}

#[derive(Debug)]
pub(crate) struct HistCell {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for HistCell {
    fn default() -> Self {
        HistCell {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
        }
    }
}

/// A shared, thread-safe histogram handle.
///
/// Cloning shares the underlying cell (miner shards all record into the
/// same histogram). The default/no-op handle ([`Histogram::noop`]) makes
/// [`Histogram::record`] a single branch — the disabled-observability mode
/// whose cost the bench suite measures.
#[derive(Debug, Clone, Default)]
pub struct Histogram(pub(crate) Option<Arc<HistCell>>);

impl Histogram {
    /// A live histogram (normally obtained via `Registry::histogram`).
    pub fn live() -> Self {
        Histogram(Some(Arc::new(HistCell::default())))
    }

    /// A no-op handle: `record` does nothing, `snapshot` is empty.
    pub fn noop() -> Self {
        Histogram(None)
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Record one value (relaxed atomics; ~2 ns when live, one branch
    /// when no-op).
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(c) = &self.0 {
            // ord: each field is an independent commutative accumulator;
            // cross-field coherence is explicitly not promised (see
            // `snapshot`), so nothing needs ordering.
            c.count.fetch_add(1, Relaxed);
            c.sum.fetch_add(v, Relaxed); // ord: commutative accumulator
            c.min.fetch_min(v, Relaxed); // ord: order-insensitive extremum
            c.max.fetch_max(v, Relaxed); // ord: order-insensitive extremum
            c.buckets[bucket_index(v)].fetch_add(1, Relaxed); // ord: commutative accumulator
        }
    }

    /// Start an RAII span recording elapsed wall-clock nanoseconds into
    /// this histogram on drop (no clock read when the handle is no-op).
    #[inline]
    pub fn span(&self) -> crate::Span {
        crate::Span::start(self)
    }

    /// Run `f` and record its wall-clock nanoseconds. With a no-op handle
    /// this is `f()` between two tests of the handle — no clock read and
    /// no span to move or drop, which an inlined hot path would still pay
    /// for; with a live one it reads the clock twice and records.
    #[inline(always)]
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        // `f` is called at one place, so it is inlined here once, not
        // once a mode.
        let t0 = self.is_enabled().then(Instant::now);
        let out = f();
        if let Some(t0) = t0 {
            self.record(crate::metric::elapsed_ns(t0));
        }
        out
    }

    /// A point-in-time copy. Concurrent recorders may tear *across* fields
    /// (count vs. buckets can disagree by in-flight records) but every
    /// individual field is a consistent relaxed load — fine for metrics,
    /// and exact once recorders quiesce.
    pub fn snapshot(&self) -> HistSnapshot {
        match &self.0 {
            None => HistSnapshot::default(),
            Some(c) => {
                // ord: the doc contract above allows tearing across
                // fields; per-field Relaxed loads are all that is needed.
                let count = c.count.load(Relaxed);
                let mut s = HistSnapshot {
                    count,
                    sum: c.sum.load(Relaxed), // ord: advisory snapshot
                    min: if count == 0 { 0 } else { c.min.load(Relaxed) }, // ord: advisory snapshot
                    max: c.max.load(Relaxed), // ord: advisory snapshot
                    buckets: [0; BUCKETS],
                };
                for (b, a) in s.buckets.iter_mut().zip(c.buckets.iter()) {
                    *b = a.load(Relaxed); // ord: advisory snapshot
                }
                s
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_floor_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), 63);
    }

    #[test]
    fn bounds_cover_the_line() {
        let (lo, hi) = bucket_bounds(0);
        assert_eq!((lo, hi), (0, 2));
        let (lo, hi) = bucket_bounds(63);
        assert_eq!(lo, 1u64 << 63);
        assert_eq!(hi, u64::MAX);
        for i in 0..BUCKETS - 1 {
            assert_eq!(bucket_bounds(i).1, bucket_bounds(i + 1).0);
        }
    }

    #[test]
    fn record_and_quantiles() {
        let mut h = HistSnapshot::new();
        for v in [10u64, 20, 30, 40, 1000] {
            h.record(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 1100);
        assert_eq!(h.min, 10);
        assert_eq!(h.max, 1000);
        assert!((h.mean() - 220.0).abs() < 1e-9);
        // p50 = 3rd smallest (30) → bucket [16,32) → upper bound 32.
        assert_eq!(h.quantile(0.5), 32);
        // p100 clamps to the observed max exactly.
        assert_eq!(h.quantile(1.0), 1000);
        // Quantiles never exceed max nor undershoot min's bucket.
        assert!(h.quantile(0.0) >= 10);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = HistSnapshot::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.is_empty());
        assert_eq!(Histogram::noop().snapshot(), h);
    }

    #[test]
    fn zero_and_huge_values_are_representable() {
        let mut h = HistSnapshot::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count, 2);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, u64::MAX);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[63], 1);
        assert_eq!(h.quantile(1.0), u64::MAX);
    }

    #[test]
    fn merge_adds_and_keeps_bounds() {
        let mut a = HistSnapshot::new();
        a.record(5);
        let mut b = HistSnapshot::new();
        b.record(500);
        b.record(1);
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.min, 1);
        assert_eq!(a.max, 500);
        let empty = HistSnapshot::new();
        let before = a.clone();
        a.merge(&empty);
        assert_eq!(a, before, "merging empty is identity");
    }

    #[test]
    fn delta_recovers_phase_activity() {
        let mut h = HistSnapshot::new();
        h.record(10);
        h.record(100);
        let mark = h.clone();
        h.record(1000);
        h.record(1000);
        let d = h.delta(&mark);
        assert_eq!(d.count, 2);
        assert_eq!(d.sum, 2000);
        // Bucket bound 1024 clamps to the delta's max (1000).
        assert_eq!(d.quantile(0.5), 1000);
        // Mis-ordered pair saturates to empty.
        let back = mark.delta(&h);
        assert!(back.is_empty());
        assert_eq!(back.max, 0);
    }

    #[test]
    fn atomic_histogram_matches_plain_under_threads() {
        let h = Histogram::live();
        let mut expect = HistSnapshot::new();
        for v in 0..1000u64 {
            expect.record(v * 7);
        }
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = h.clone();
                s.spawn(move || {
                    for v in (t..1000u64).step_by(4) {
                        h.record(v * 7);
                    }
                });
            }
        });
        assert_eq!(h.snapshot(), expect);
    }

    #[test]
    fn span_records_elapsed_nanos() {
        let h = Histogram::live();
        {
            let _s = h.span();
            std::hint::black_box(());
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 1);
        let noop = Histogram::noop();
        {
            let _s = noop.span();
        }
        assert!(noop.snapshot().is_empty());
    }

    #[test]
    fn time_returns_the_closures_value_and_records_when_live() {
        let h = Histogram::live();
        assert_eq!(h.time(|| 7), 7);
        assert_eq!(h.time(|| "twice"), "twice");
        assert_eq!(h.snapshot().count, 2);
        let noop = Histogram::noop();
        let mut ran = false;
        noop.time(|| ran = true);
        assert!(ran, "a disabled handle still runs the closure");
        assert!(noop.snapshot().is_empty());
    }
}
