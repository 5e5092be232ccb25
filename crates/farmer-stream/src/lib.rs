//! # farmer-stream — sharded online correlation mining with bounded memory
//!
//! The paper presents FARMER as an *online* model — "an iterative process
//! that repeats itself for each incoming request" (§3.1) — but a model that
//! only batch-mines finite in-memory traces cannot serve the peta-scale /
//! millions-of-users target. This crate turns the miner into a long-running
//! service:
//!
//! * [`engine`] — [`StreamMiner`]: wraps the `farmer-core` observe path
//!   with **incremental eviction**: exponentially decayed access counters
//!   plus Space-Saving-style heavy-hitter retention, so the number of
//!   tracked files (graph nodes) never exceeds a configured cap and the
//!   edge count never exceeds `cap × max_successors` — all per-file state
//!   stays bounded however long the stream runs and however sparse the id
//!   universe (the graph's sparse slotted storage reclaims node slots on
//!   eviction; see the [`engine`] docs).
//! * [`shard`] — [`ShardedMiner`]: hash-partitions file ownership across
//!   `N` independent miner shards (the same Fx-hash routing
//!   `farmer-mds::cluster` uses for multi-MDS namespaces), each on its own
//!   worker thread behind a bounded channel. Every shard receives the full
//!   request stream so its look-ahead window carries the true global access
//!   order, but a shard only mines edges whose predecessor file it owns —
//!   the union of the shard graphs is **exactly** the graph one
//!   unpartitioned miner would build, while the expensive similarity and
//!   edge-update work splits ~1/N per shard. An access or a forget enters
//!   as one [`WalOp`] ([`ShardedMiner::route_op`]) and stays that value
//!   through the router's batches to every shard.
//! * [`durable`] — [`DurableMiner`]: the same [`WalOp`]s journaled to a
//!   write-ahead log before any shard may mine them, checkpoint images,
//!   and [`recover`], whose replay is `route_op` of each logged op.
//! * [`snapshot`] — [`StreamSnapshot`]: a consistent, merged view of every
//!   shard's Correlator Lists (consistent cut: all shards have processed
//!   precisely the events routed before the snapshot call). Each shard
//!   builds its part as one flat [`farmer_core::CorrelatorTable`] in a
//!   single pass over its graph, and the merge moves or appends those
//!   tables; published through [`publish`]'s
//!   [`SnapshotCell`], it is what `farmer-prefetch`'s FPA follows to
//!   refresh its predictions online, mid-simulation.
//!
//! ## Quick start
//!
//! ```
//! use farmer_stream::{ShardedMiner, StreamConfig};
//! use farmer_trace::WorkloadSpec;
//!
//! let trace = WorkloadSpec::hp().scaled(0.01).generate();
//! let mut miner = ShardedMiner::spawn(StreamConfig::default().with_shards(2));
//! for e in trace.stream().take(3 * trace.len()) {
//!     miner.route_event(&trace, &e);
//! }
//! let snap = miner.snapshot();
//! assert!(snap.events > 0);
//! ```

// This crate is unsafe-free by policy (lint rule R2 guards the rest).
#![forbid(unsafe_code)]

pub mod durable;
pub mod engine;
pub mod metrics;
pub mod publish;
pub mod shard;
pub mod snapshot;

use farmer_core::FarmerConfig;

pub use durable::{
    compact, decode_image, encode_image, recover, recover_instrumented, snapshots_bitwise_equal,
    CheckpointInfo, DurableConfig, DurableMiner, RecoveryReport, WalOp,
};
pub use engine::{MinerState, StreamMiner};
pub use metrics::StreamMetrics;
pub use publish::{CellReader, SnapshotCell};
pub use shard::ShardedMiner;
pub use snapshot::{ShardSnapshot, StreamSnapshot};

/// Configuration of the streaming subsystem.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// The wrapped miner's configuration (weights, window, successor cap,
    /// prune/decay cadence — see [`FarmerConfig`]).
    pub farmer: FarmerConfig,
    /// Hard cap on files tracked per shard. Graph nodes never exceed this,
    /// and edges never exceed `node_cap × farmer.max_successors`.
    pub node_cap: usize,
    /// Files evicted per eviction sweep (amortizes the incoming-edge
    /// cleanup). `0` selects `max(1, node_cap / 64)`.
    pub evict_batch: usize,
    /// Multiplier applied to every Space-Saving access counter each decay
    /// tick, so retention follows *recent* popularity instead of all-time
    /// popularity. `1.0` disables.
    pub count_decay: f64,
    /// Events between counter-decay ticks (`0` disables).
    pub decay_interval: u64,
    /// Number of miner shards ([`ShardedMiner::spawn`]).
    pub num_shards: usize,
    /// Bounded depth of each shard's inbox, in *batches* — the back-pressure
    /// knob: a slow shard eventually blocks the router instead of letting
    /// the queue grow without bound.
    pub channel_capacity: usize,
    /// Events per routed batch (channel-synchronization amortization).
    pub route_batch: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            farmer: FarmerConfig::default(),
            node_cap: 4096,
            evict_batch: 0,
            count_decay: 0.95,
            decay_interval: 8192,
            num_shards: 1,
            channel_capacity: 64,
            route_batch: 256,
        }
    }
}

impl StreamConfig {
    /// Builder-style miner-config override.
    #[must_use]
    pub fn with_farmer(mut self, farmer: FarmerConfig) -> Self {
        self.farmer = farmer;
        self
    }

    /// Builder-style node-cap override.
    #[must_use]
    pub fn with_node_cap(mut self, cap: usize) -> Self {
        assert!(cap > 0, "node_cap must be positive");
        self.node_cap = cap;
        self
    }

    /// Builder-style shard-count override.
    #[must_use]
    pub fn with_shards(mut self, n: usize) -> Self {
        assert!(n > 0, "num_shards must be positive");
        self.num_shards = n;
        self
    }

    /// The effective eviction batch size.
    pub fn effective_evict_batch(&self) -> usize {
        if self.evict_batch > 0 {
            self.evict_batch.min(self.node_cap)
        } else {
            (self.node_cap / 64).max(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let c = StreamConfig::default();
        assert!(c.node_cap > 0);
        assert!(c.effective_evict_batch() >= 1);
        assert!(c.effective_evict_batch() <= c.node_cap);
        assert_eq!(c.num_shards, 1);
    }

    #[test]
    fn evict_batch_auto_and_explicit() {
        let auto = StreamConfig::default().with_node_cap(640);
        assert_eq!(auto.effective_evict_batch(), 10);
        let tiny = StreamConfig::default().with_node_cap(3);
        assert_eq!(tiny.effective_evict_batch(), 1);
        let mut explicit = StreamConfig::default().with_node_cap(8);
        explicit.evict_batch = 100;
        assert_eq!(explicit.effective_evict_batch(), 8, "clamped to cap");
    }

    #[test]
    #[should_panic(expected = "node_cap must be positive")]
    fn zero_cap_rejected() {
        let _ = StreamConfig::default().with_node_cap(0);
    }
}
