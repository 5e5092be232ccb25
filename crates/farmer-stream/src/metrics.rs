//! Observability handles for the streaming miner (the `stream.*` scope of
//! the workspace registry map).
//!
//! One [`StreamMetrics`] set is shared by the router and *all* shard
//! workers — the handles are relaxed-atomic, so per-shard increments sum
//! into fleet totals without any coordination. Counters cover owned work
//! only (ownership is disjoint across shards), so totals are stream-level
//! facts, not `× num_shards` inflation of the broadcast.

use farmer_obs::{Counter, Gauge, Histogram, Registry};

/// Live handles for the `stream.*` metrics. No-op by default.
#[derive(Debug, Clone, Default)]
pub struct StreamMetrics {
    /// Owned events mined, summed across shards (`stream.events_mined`).
    /// Equals the routed event count: the broadcast copies a shard merely
    /// *windows* are not counted.
    pub events_mined: Counter,
    /// Space-Saving evictions across shards (`stream.evictions`).
    pub evictions: Counter,
    /// Retention-counter decay sweeps across shards (`stream.decay_ticks`).
    pub decay_ticks: Counter,
    /// Forget tombstones applied, per shard (`stream.forgets`).
    pub forgets: Counter,
    /// What the mined edge updates turned out to be, summed across shards
    /// (`stream.edge_hits`, `stream.edge_inserts`,
    /// `stream.edge_early_rejects`, `stream.edge_exact_rejects`,
    /// `stream.edge_admits`, `stream.path_terms`, `stream.edge_relocates`):
    /// the graph's [`farmer_core::graph::UpdateMix`], brought up to date by
    /// each shard whenever it builds a snapshot — between publications the
    /// counters stand still.
    pub edge_mix: [Counter; 7],
    /// Events per dispatched batch (`stream.batch_events`), recorded by
    /// the router at broadcast time.
    pub batch_events: Histogram,
    /// Wall-clock nanoseconds of one eviction batch — victim selection plus
    /// the model's `forget_files` sweep (`stream.evict_ns`); with
    /// `stream.evictions` it gives the cost of an evicted file.
    pub evict_ns: Histogram,
    /// Wall-clock nanoseconds one shard spends building its snapshot
    /// (`stream.snapshot_build_ns`).
    pub snapshot_build_ns: Histogram,
    /// Wall-clock nanoseconds the router spends merging shard snapshots
    /// (`stream.snapshot_merge_ns`).
    pub snapshot_merge_ns: Histogram,
    /// Files tracked across shards at the last snapshot
    /// (`stream.tracked_files`).
    pub tracked_files: Gauge,
    /// Resident miner-state bytes across shards at the last snapshot
    /// (`stream.state_bytes`).
    pub state_bytes: Gauge,
}

impl StreamMetrics {
    /// Register the stream metrics under `reg` (pass a `stream`-scoped
    /// registry; [`crate::ShardedMiner::spawn_instrumented`] does this).
    pub fn new(reg: &Registry) -> StreamMetrics {
        StreamMetrics {
            events_mined: reg.counter("events_mined"),
            evictions: reg.counter("evictions"),
            decay_ticks: reg.counter("decay_ticks"),
            forgets: reg.counter("forgets"),
            edge_mix: [
                reg.counter("edge_hits"),
                reg.counter("edge_inserts"),
                reg.counter("edge_early_rejects"),
                reg.counter("edge_exact_rejects"),
                reg.counter("edge_admits"),
                reg.counter("path_terms"),
                reg.counter("edge_relocates"),
            ],
            batch_events: reg.histogram("batch_events"),
            evict_ns: reg.histogram("evict_ns"),
            snapshot_build_ns: reg.histogram("snapshot_build_ns"),
            snapshot_merge_ns: reg.histogram("snapshot_merge_ns"),
            tracked_files: reg.gauge("tracked_files"),
            state_bytes: reg.gauge("state_bytes"),
        }
    }
}
