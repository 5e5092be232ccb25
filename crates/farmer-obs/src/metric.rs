//! Scalar metrics ([`Counter`], [`Gauge`]) and the RAII [`Span`] timer.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use crate::Histogram;

/// A monotone event counter. Cloning shares the cell; all operations are
/// relaxed atomics, so any thread may bump it and the total just adds up.
/// The default/no-op handle makes every operation a single branch.
#[derive(Debug, Clone, Default)]
pub struct Counter(pub(crate) Option<Arc<AtomicU64>>);

impl Counter {
    /// A live counter (normally obtained via `Registry::counter`).
    pub fn live() -> Self {
        Counter(Some(Arc::new(AtomicU64::new(0))))
    }

    /// A no-op handle.
    pub fn noop() -> Self {
        Counter(None)
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Relaxed); // ord: independent counter, no payload to order
        }
    }

    /// Current value (0 for a no-op handle).
    pub fn get(&self) -> u64 {
        // ord: metrics are advisory snapshots; exactness across
        // threads is not part of the contract
        self.0.as_ref().map_or(0, |c| c.load(Relaxed))
    }
}

/// A last-value-wins instantaneous measurement (queue depth, resident
/// bytes). Signed so derived values may legitimately dip below zero.
#[derive(Debug, Clone, Default)]
pub struct Gauge(pub(crate) Option<Arc<AtomicI64>>);

impl Gauge {
    /// A live gauge (normally obtained via `Registry::gauge`).
    pub fn live() -> Self {
        Gauge(Some(Arc::new(AtomicI64::new(0))))
    }

    /// A no-op handle.
    pub fn noop() -> Self {
        Gauge(None)
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Set the current value.
    #[inline]
    pub fn set(&self, v: i64) {
        if let Some(c) = &self.0 {
            c.store(v, Relaxed); // ord: last-value-wins gauge, no ordering contract
        }
    }

    /// Adjust the current value by `d` (use a negative delta to decrement).
    #[inline]
    pub fn adjust(&self, d: i64) {
        if let Some(c) = &self.0 {
            c.fetch_add(d, Relaxed); // ord: independent delta, no payload to order
        }
    }

    /// Keep the running maximum of `v` and the current value.
    #[inline]
    pub fn record_max(&self, v: i64) {
        if let Some(c) = &self.0 {
            c.fetch_max(v, Relaxed); // ord: running max is order-insensitive
        }
    }

    /// Current value (0 for a no-op handle).
    pub fn get(&self) -> i64 {
        // ord: advisory snapshot read, same policy as Counter::get
        self.0.as_ref().map_or(0, |c| c.load(Relaxed))
    }
}

/// An RAII wall-clock timer: created from a [`Histogram`], records the
/// elapsed **nanoseconds** into it when dropped. When the histogram is a
/// no-op handle the span never reads the clock, so a disabled registry
/// pays one branch per span, not two `Instant` syscalls.
#[derive(Debug)]
pub struct Span {
    start: Option<Instant>,
    hist: Histogram,
}

impl Span {
    /// Start timing into `hist` (no-op if `hist` is disabled).
    #[inline]
    pub fn start(hist: &Histogram) -> Span {
        Span {
            start: hist.is_enabled().then(Instant::now),
            hist: hist.clone(),
        }
    }

    /// Stop early and record, consuming the span. Returns the elapsed
    /// nanoseconds (0 when disabled).
    #[inline]
    pub fn finish(mut self) -> u64 {
        self.record()
    }

    fn record(&mut self) -> u64 {
        match self.start.take() {
            None => 0,
            Some(t0) => {
                let ns = elapsed_ns(t0);
                self.hist.record(ns);
                ns
            }
        }
    }
}

/// Nanoseconds since `t0`, saturating at `u64::MAX`.
#[inline]
pub(crate) fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

impl Drop for Span {
    fn drop(&mut self) {
        self.record();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts_and_shares() {
        let c = Counter::live();
        let c2 = c.clone();
        c.inc();
        c2.add(9);
        assert_eq!(c.get(), 10);
        assert!(c.is_enabled());
    }

    #[test]
    fn noop_counter_stays_zero() {
        let c = Counter::noop();
        c.inc();
        c.add(100);
        assert_eq!(c.get(), 0);
        assert!(!c.is_enabled());
    }

    #[test]
    fn gauge_sets_adjusts_and_maxes() {
        let g = Gauge::live();
        g.set(5);
        g.adjust(-2);
        assert_eq!(g.get(), 3);
        g.record_max(10);
        g.record_max(7);
        assert_eq!(g.get(), 10);
        let n = Gauge::noop();
        n.set(42);
        assert_eq!(n.get(), 0);
    }

    #[test]
    fn finish_returns_elapsed_once() {
        let h = Histogram::live();
        let s = Span::start(&h);
        let _ns = s.finish(); // drop after finish must not double-record
        assert_eq!(h.snapshot().count, 1);
        let disabled = Span::start(&Histogram::noop());
        assert_eq!(disabled.finish(), 0);
    }

    #[test]
    fn counter_totals_across_threads() {
        let c = Counter::live();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
    }
}
