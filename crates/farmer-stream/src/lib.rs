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

/// Multiplier applied to every Space-Saving access counter each decay
/// tick, so retention follows *recent* popularity instead of all-time
/// popularity.
pub const COUNT_DECAY: f64 = 0.95;

/// Events between counter-decay ticks.
pub const DECAY_INTERVAL: u64 = 8192;

/// Configuration of the streaming subsystem, fixed once a miner is built
/// from it ([`StreamConfig::validate`]).
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// The wrapped miner's configuration (weights, window, successor cap,
    /// prune/decay cadence — see [`FarmerConfig`]).
    pub farmer: FarmerConfig,
    /// Hard cap on files tracked per shard. Graph nodes never exceed this,
    /// and edges never exceed `node_cap × farmer.max_successors`.
    pub node_cap: usize,
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

    /// Panic unless the configuration is one a miner can run under:
    /// [`FarmerConfig::validate`] of the wrapped one, and `node_cap`,
    /// `num_shards`, `channel_capacity` and `route_batch` at least 1.
    /// Called by the `with_*` builders and, for values written straight
    /// into the fields, wherever a miner is built
    /// ([`StreamMiner::for_shard`] / [`StreamMiner::from_state`], every
    /// `ShardedMiner::spawn*`).
    pub fn validate(&self) {
        self.farmer.validate();
        assert!(self.node_cap > 0, "node_cap must be positive");
        assert!(self.num_shards > 0, "num_shards must be positive");
        assert!(
            self.channel_capacity > 0,
            "channel_capacity must be positive"
        );
        assert!(self.route_batch > 0, "route_batch must be positive");
    }

    /// Builder-style node-cap override.
    #[must_use]
    pub fn with_node_cap(mut self, cap: usize) -> Self {
        self.node_cap = cap;
        self.validate();
        self
    }

    /// Builder-style shard-count override.
    #[must_use]
    pub fn with_shards(mut self, n: usize) -> Self {
        self.num_shards = n;
        self.validate();
        self
    }

    /// Files evicted per eviction sweep (amortizes the incoming-edge
    /// cleanup): `max(1, node_cap / 64)`.
    pub fn effective_evict_batch(&self) -> usize {
        (self.node_cap / 64).max(1)
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
        assert_eq!(StreamConfig::default().effective_evict_batch(), 64);
    }

    #[test]
    #[should_panic(expected = "node_cap must be positive")]
    fn zero_cap_rejected() {
        let _ = StreamConfig::default().with_node_cap(0);
    }

    // A zero written straight into a field — past the builders and their
    // asserts — used to run as a one; it is refused where a miner is built.

    fn edited(edit: impl FnOnce(&mut StreamConfig)) -> StreamConfig {
        let mut cfg = StreamConfig::default();
        edit(&mut cfg);
        cfg
    }

    #[test]
    #[should_panic(expected = "node_cap must be positive")]
    fn miner_rejects_zero_node_cap() {
        StreamMiner::new(edited(|c| c.node_cap = 0));
    }

    #[test]
    #[should_panic(expected = "max_successors must be positive")]
    fn restored_miner_rejects_zero_max_successors() {
        let state = StreamMiner::new(StreamConfig::default()).export_state();
        StreamMiner::from_state(edited(|c| c.farmer.max_successors = 0), &state);
    }

    #[test]
    #[should_panic(expected = "num_shards must be positive")]
    fn fleet_rejects_zero_shards() {
        ShardedMiner::spawn(edited(|c| c.num_shards = 0));
    }

    #[test]
    #[should_panic(expected = "channel_capacity must be positive")]
    fn fleet_rejects_zero_channel_capacity() {
        ShardedMiner::spawn(edited(|c| c.channel_capacity = 0));
    }

    #[test]
    #[should_panic(expected = "route_batch must be positive")]
    fn fleet_rejects_zero_route_batch() {
        ShardedMiner::spawn(edited(|c| c.route_batch = 0));
    }
}
