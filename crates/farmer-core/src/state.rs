//! Plain-data state images of the mining model, for checkpointing.
//!
//! The durable tier (`farmer-stream::durable`) extends checkpoints from
//! serving snapshots to **full state images**: everything a miner needs
//! to resume mining mid-stream with bit-identical future behaviour. The
//! structs here are that image's in-memory form — plain owned data, no
//! private-field access, so the byte codec can live next to the WAL
//! (`farmer-store` codecs) without this crate growing a storage
//! dependency.
//!
//! # Bit-exactness contract
//!
//! Restoring a state image and continuing the stream must produce the
//! same bits as the uninterrupted miner. Every accumulator that shapes
//! future arithmetic is therefore carried as **raw `f64` bits**
//! (`f64::to_bits`), never re-derived:
//!
//! * node totals and edge masses, as accumulated — they are never
//!   rescaled, so the restored node adds to the same bits;
//! * cached per-edge degrees are historical values (degree as of the
//!   edge's last touch — the eviction-ordering key), so they are carried
//!   verbatim rather than recomputed against the current totals;
//! * the memoized path-similarity term round-trips exactly, including
//!   the NaN `inv_denom` staleness marker.
//!
//! Derived structures (id→slot index, edge counts, LDA tables, query
//! caches, window slot hints, the cached weakest-edge index) are rebuilt
//! or lazily re-derived on restore; dropping them is behaviour-neutral
//! by construction (stale hints always fall back to the index probe, and
//! a weakest rescan finds the same `(degree, to)` minimum the
//! incremental cache maintained).

use crate::extract::Request;

/// One successor edge's accumulators.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeState {
    /// Successor file id.
    pub to: u32,
    /// LDA mass `N(A,B)` (raw bits).
    pub mass: u64,
    /// Similarity sum over co-occurrences (raw bits).
    pub sim_sum: u64,
    /// Co-occurrence count.
    pub sim_n: u32,
    /// Cached degree as of the edge's last touch (raw bits) — the
    /// eviction-ordering key, historical by design.
    pub deg: u64,
    /// Memoized path-intersection term (raw bits).
    pub path_inter: u64,
    /// Memoized reciprocal similarity denominator (raw bits; NaN bits
    /// mark a stale memo awaiting recomputation).
    pub inv_denom: u64,
    /// Whether the memo was computed with a path-bearing successor.
    pub succ_path: bool,
}

/// One node slot, in slab order.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeState {
    /// The file id this slot represents.
    pub id: u32,
    /// Total access count `N(A)` (raw bits).
    pub total: u64,
    /// Similarity lower bound (raw bits) — the prune-skip key.
    pub sim_lb: u64,
    /// Successor edges, ordered by ascending `to` (the node's id line
    /// order); at most [`crate::graph::MAX_SUCCESSORS`] of them.
    pub edges: Vec<EdgeState>,
}

/// Full image of a [`crate::CorrelationGraph`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GraphState {
    /// Mutation epoch (restored so `version()` stays monotone across a
    /// recovery).
    pub epoch: u64,
    /// Live nodes in slab order — preserving the order keeps slot
    /// indices, and therefore every later swap-remove, identical to the
    /// uninterrupted miner's.
    pub nodes: Vec<NodeState>,
}

/// Full image of a [`crate::Farmer`] (everything not derivable from its
/// config). The config itself is deliberately *not* part of the image:
/// recovery runs under the caller-supplied config, which must match the
/// one the image was taken under — the same contract WAL replay already
/// has.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FarmerState {
    /// Requests observed so far.
    pub observed: u64,
    /// The look-ahead window, oldest first. Slot hints are not carried
    /// (restored entries probe the index on first touch — stale hints
    /// are safe by contract, absent ones equally so).
    pub window: Vec<Request>,
    /// Learned per-file paths as `(file id, components)`, sorted by id.
    pub paths: Vec<(u32, Vec<u32>)>,
    /// The correlation graph.
    pub graph: GraphState,
}
