//! # farmer-serve — the concurrent serving tier
//!
//! FARMER (HPDC'08) mines file-access correlations *so that they can be
//! served* — to prefetchers, the MDS simulator, the layout planner — at
//! demand-request rate. The rest of the workspace builds the mining side
//! (`farmer-core` model, `farmer-stream` sharded online miner); this
//! crate closes the loop with the serving side, where one always-running
//! miner and many query threads share the same machine without
//! contending:
//!
//! * [`ring`] — a fixed-capacity lock-free MPSC ring buffer. Any number
//!   of producer threads feed access events in; the single ingest worker
//!   drains them into the miner. Full ring = explicit backpressure (the
//!   push returns the value), never unbounded queueing.
//! * [`SnapshotCell`] / [`CellReader`] (re-exported from
//!   `farmer_stream::publish`) — epoch-swapped snapshot publication:
//!   installs are O(1), reads are wait-free and allocation-free between
//!   publications, and epochs (and the stream prefix they reflect) are
//!   strictly monotone per reader.
//! * [`FarmerServe`] — the tier itself: owns a
//!   [`farmer_stream::ShardedMiner`] on a dedicated ingest thread,
//!   publishes consistent cuts on a configurable cadence without
//!   pausing ingest for them, hands out
//!   [`IngestHandle`]s (lock-free writers) and [`ServeReader`]s
//!   (wait-free readers), and shuts down gracefully by draining the ring
//!   before the final publication.
//!
//! Observability follows the workspace pattern: `spawn` is silent,
//! [`FarmerServe::spawn_instrumented`] registers the `serve.*` scope (see
//! the registry map in the repo README), and a disabled registry makes
//! every handle a no-op.
//!
//! `cargo run --release -p farmer --example serving` walks the tier end
//! to end. Its speed is read off `benchmark/`'s `farmer_pipeline`
//! (`query_qps`, `ingest_eps`, `mds_paced`'s `on_time_share`; per layer
//! `serve.reader_overhead_ns`, `serve.sut_cpu_share`); that a query
//! allocates nothing and that no event is lost under concurrent readers
//! are tier-1 tests (`tests/alloc_gates.rs`, `tests/concurrency.rs`).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::todo, clippy::unimplemented)]

pub mod metrics;
pub mod ring;
pub mod serve;

pub use farmer_stream::{CellReader, SnapshotCell, StreamConfig, StreamSnapshot};
pub use metrics::ServeMetrics;
pub use ring::{Consumer, Producer};
pub use serve::{FarmerServe, IngestHandle, ServeReader, ServeStats};

/// Configuration of the serving tier.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The wrapped online miner's configuration (shards, caps, cadence —
    /// see [`StreamConfig`]). The default queues 16 batches a shard, not
    /// 64: the worker does not wait for its cuts, so the queue stays
    /// full, and a cut waits behind at most half a publication window.
    pub stream: StreamConfig,
    /// Slots in the ingest ring (rounded up to a power of two). The
    /// backpressure knob: producers outrunning the miner fill the ring
    /// and then wait, so resident memory stays capped.
    pub ring_capacity: usize,
    /// Publish a snapshot every this many ingested events; `0` disables
    /// the cadence (publication happens only on [`FarmerServe::publish`],
    /// [`FarmerServe::flush`], and shutdown).
    pub publish_every: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            // 16 batches of 256 ops: half a publication window (see the
            // field). StreamConfig's 64 stays for the durable tier, where
            // it bounds the commit group.
            stream: StreamConfig {
                channel_capacity: 16,
                ..StreamConfig::default()
            },
            ring_capacity: 1024,
            publish_every: 8192,
        }
    }
}

impl ServeConfig {
    /// Builder-style shard count override, through
    /// [`StreamConfig::with_shards`] (a zero panics here).
    #[must_use]
    pub fn with_shards(mut self, n: usize) -> Self {
        self.stream = self.stream.with_shards(n);
        self
    }

    /// Builder-style publication cadence override.
    pub fn with_publish_every(mut self, n: u64) -> Self {
        self.publish_every = n;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let cfg = ServeConfig::default();
        assert!(cfg.ring_capacity.is_power_of_two());
        assert!(cfg.publish_every > 0);
        // The shard queue holds half a publication window (see `Default`).
        let queued = cfg.stream.channel_capacity * cfg.stream.route_batch;
        assert_eq!(2 * queued as u64, cfg.publish_every);
        let cfg = cfg.with_shards(4).with_publish_every(100);
        assert_eq!(cfg.stream.num_shards, 4);
        assert_eq!(cfg.publish_every, 100);
    }

    #[test]
    #[should_panic(expected = "num_shards must be positive")]
    fn zero_shards_rejected_at_the_builder() {
        let _ = ServeConfig::default().with_shards(0);
    }
}
