//! Observability handles for the serving tier (the `serve.*` scope of the
//! workspace registry map).
//!
//! One [`ServeMetrics`] set is shared by the ingest worker, every
//! producer handle, and the reader-registration path — the handles are
//! relaxed-atomic, so increments from any thread sum without
//! coordination. Per-reader query histograms are registered separately
//! (`serve.reader<N>.query_ns`) when a reader is created, so tail
//! latencies stay attributable per reader thread.

use farmer_obs::{Counter, Gauge, Histogram, Registry};

/// Live handles for the `serve.*` metrics. No-op by default.
#[derive(Debug, Clone, Default)]
pub struct ServeMetrics {
    /// Access events ingested through the ring (`serve.ingest_events`).
    pub ingest_events: Counter,
    /// Forget tombstones ingested through the ring
    /// (`serve.ingest_forgets`).
    pub ingest_forgets: Counter,
    /// Snapshot publications swapped into the cell
    /// (`serve.snapshot_swaps`).
    pub snapshot_swaps: Counter,
    /// Producer-side backpressure episodes: pushes that found the ring
    /// full and had to wait (`serve.backpressure_waits`).
    pub backpressure_waits: Counter,
    /// Wall-clock nanoseconds of every producer call,
    /// [`crate::IngestHandle::ingest`] and `forget` alike, backpressure
    /// included (`serve.ingest_call_ns`).
    pub ingest_call_ns: Histogram,
    /// Queries served across all readers (`serve.queries`).
    pub queries: Counter,
    /// Currently registered readers (`serve.readers`).
    pub readers: Gauge,
    /// Epoch of the last published snapshot (`serve.epoch`).
    pub epoch: Gauge,
    /// Ring occupancy sampled by the ingest worker at each drain
    /// (`serve.ring_depth`).
    pub ring_depth: Gauge,
    /// Wall-clock nanoseconds per publication, from the request of its
    /// consistent cut to its install in the cell (`serve.publish_ns`).
    /// The worker routes on meanwhile, so this is freshness, not a pause.
    pub publish_ns: Histogram,
}

impl ServeMetrics {
    /// Register the serve metrics under `reg` (pass a `serve`-scoped
    /// registry; [`crate::FarmerServe::spawn_instrumented`] does this).
    pub fn new(reg: &Registry) -> ServeMetrics {
        ServeMetrics {
            ingest_events: reg.counter("ingest_events"),
            ingest_forgets: reg.counter("ingest_forgets"),
            snapshot_swaps: reg.counter("snapshot_swaps"),
            backpressure_waits: reg.counter("backpressure_waits"),
            ingest_call_ns: reg.histogram("ingest_call_ns"),
            queries: reg.counter("queries"),
            readers: reg.gauge("readers"),
            epoch: reg.gauge("epoch"),
            ring_depth: reg.gauge("ring_depth"),
            publish_ns: reg.histogram("publish_ns"),
        }
    }
}
