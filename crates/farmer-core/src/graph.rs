//! Stage 2 — Constructing: the weighted, directed correlation graph.
//!
//! "A node represents an accessed file and a directed edge that starts from
//! a predecessor node and ends at a successor node represents an access
//! order. The weight on each edge equals the value of correlation degree
//! between the predecessor and the successor." (paper §3.1, Stage 2)
//!
//! Each node tracks its total access count `N(A)`; each edge accumulates
//! the LDA successor mass `N(A,B)` and the running mean of the semantic
//! similarity observed at each co-occurrence. The correlation degree is
//! derived from those accumulators by the miner (see [`crate::miner`]).
//!
//! Memory discipline (paper §3.3): FARMER "does not need to maintain any
//! correlative information for weak correlations". Two mechanisms enforce
//! this: a hard per-node successor cap (lowest-degree edge evicted) and an
//! explicit [`CorrelationGraph::prune_below`] for dropping edges whose
//! degree has decayed under a floor.
//!
//! # Storage: sparse slotted nodes
//!
//! Nodes live in a dense slab of slots with an id→slot hash index, *not* in
//! a `Vec` indexed by file id. The slab holds exactly the live nodes
//! (freeing a node swap-removes its slot), so resident memory and every
//! whole-graph sweep are proportional to *active* nodes — never to the
//! magnitude of the largest file id observed. An open-ended id universe
//! (ids spread over 10^7 and beyond) costs the same as a dense one, and
//! [`CorrelationGraph::clear_node`] genuinely reclaims space.
//!
//! # Aging: O(1) lazy decay
//!
//! [`CorrelationGraph::age`] no longer sweeps the graph. The graph keeps a
//! global log-scale decay epoch `decay_ln = Σ ln(factor)` and each node a
//! `stamp` of the epoch its accumulators were last normalized to. Touching
//! a node (access, edge update, prune visit) first rescales its total and
//! edge masses by `exp(decay_ln − stamp)`; untouched nodes carry their
//! pending decay implicitly and read-side views apply the scale on the fly.
//! Each node pays for each aging epoch at most once, on its next touch.
//!
//! # Hot-path layout
//!
//! Per-node successor storage is a structure of arrays: a compact sorted
//! id array (`tos`, 16 successors = one cache line) searched on every
//! update, a parallel payload array holding the accumulators and the
//! memoized per-pair path-similarity term, and a parallel cached-degree
//! array that keeps the weakest-edge (cap eviction) scan off the
//! payloads. [`CorrelationGraph::mine_batch`] commits one event's window
//! of predecessor updates in two phases — locate + prefetch, then update —
//! so the one cold memory load per predecessor overlaps across the batch.
//!
//! # Complexity (d = per-node successor cap, n = active nodes, e = edges)
//!
//! | operation | dense spine (before) | sparse slotted (now) |
//! |---|---|---|
//! | `record_access` | O(1) + spine growth | O(1) hash probe |
//! | edge-update hit | O(d) strided scan + full similarity | one-line id scan + memoized term |
//! | edge-update full-node miss | O(d) min-scan | O(1) reject via cached weakest / O(d) admit |
//! | `age` | O(n_max_id + e) sweep | O(1) |
//! | `prune_below` | O(n_max_id + e) | O(n + e), skips `p·sim_lb ≥ floor` nodes |
//! | `remove_edges_to_any` | O(n_max_id + e) | O(n) id reads, O(touched) writes |
//! | `heap_bytes` | O(n_max_id + e) | O(n + e) |
//! | `active_nodes` | O(n_max_id) scan | O(1) |
//! | resident memory | O(max file id) | O(active nodes) |

use farmer_trace::hash::FxHashMap;
use farmer_trace::FileId;

use crate::config::FarmerConfig;
use crate::correlator::Correlator;
use crate::miner;
use crate::source::rank_cmp;

/// Sentinel for "weakest-edge index unknown / no edges".
const NO_EDGE: u32 = u32::MAX;

/// log2 of the victim prefilter's width in bits (128 bytes of stack): an
/// eviction batch (`node_cap / 64` victims, 64 by default) sets under 7 %
/// of them; a larger set only sends more ids on to the exact search.
const FILTER_BITS_LOG2: u32 = 10;

/// First index in the sorted slice not less than `to` — a forward scan
/// with early exit: for a capped successor list (16 ids = one cache line)
/// this beats a binary search's unpredictable branches.
#[inline]
fn lower_bound(tos: &[u32], to: u32) -> usize {
    let mut pos = tos.len();
    for (j, &t) in tos.iter().enumerate() {
        if t >= to {
            pos = j;
            break;
        }
    }
    pos
}

/// Best-effort read prefetch of the cache line holding `t`.
#[inline(always)]
fn prefetch_read<T>(t: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: _mm_prefetch is a hint with no memory effects — it cannot
    // fault even on an invalid address, and `t` is a live reference anyway.
    unsafe {
        std::arch::x86_64::_mm_prefetch(t as *const T as *const i8, std::arch::x86_64::_MM_HINT_T0);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = t;
}

/// One successor edge's accumulators (the payload half of the node's
/// structure-of-arrays edge storage; the successor id lives in the parallel
/// `Node::tos` array so the hit-path search touches one compact cache line).
#[derive(Debug, Clone, Copy)]
struct EdgeData {
    /// LDA-weighted successor mass `N(A,B)`, in the owning node's scale
    /// (see [`Node::stamp`]).
    mass: f64,
    /// Sum of semantic similarities over co-occurrences.
    sim_sum: f64,
    /// Number of co-occurrences (for the similarity mean).
    sim_n: u32,
    /// Memoized path-similarity term of this `(from, to)` file pair: the
    /// path intersection value, plus the reciprocal of the full similarity
    /// denominator (scalar + path items; 0.0 for an empty vector), so a hit
    /// evaluates the similarity with one fused multiply. Paths are learned
    /// once per file, so both are pure functions of the pair — computed
    /// once at edge creation, and eviction/forgetting invalidates the memo
    /// for free (the edge goes, the term goes).
    path_inter: f64,
    inv_denom: f64,
    /// Whether the memo was computed with the successor carrying a path.
    /// The successor side of the term comes from each event's path
    /// argument, so a presence flip (pathless ↔ path-bearing events for
    /// the same file) must recompute the memo — this keeps the memoized
    /// loop equivalent to the old per-event similarity, identically in
    /// batch and in every shard.
    succ_path: bool,
}

impl EdgeData {
    #[inline]
    fn sim_avg(&self) -> f64 {
        if self.sim_n == 0 {
            0.0
        } else {
            self.sim_sum / self.sim_n as f64
        }
    }
}

/// One file's node slot: total accesses plus its successor edges.
#[derive(Debug, Clone)]
struct Node {
    /// The file id this slot currently represents.
    id: u32,
    /// Total access count `N(A)`, in this node's scale (see `stamp`).
    total: f64,
    /// Value of the graph's `decay_ln` this node's accumulators were last
    /// normalized to. `stamp == decay_ln` means no decay is pending.
    stamp: f64,
    /// Successor file ids, sorted ascending. Kept separate from the
    /// payloads so the hit-path search scans one compact cache line
    /// (16 successors = 64 bytes) instead of striding across payloads.
    tos: Vec<u32>,
    /// Edge payloads, parallel to `tos`.
    edges: Vec<EdgeData>,
    /// Per-edge degree as of the edge's last touch, parallel to `tos`;
    /// the eviction-ordering key. Kept in its own compact array so the
    /// weakest-edge scan touches two cache lines, not every payload. The
    /// exact degree is recomputed at query time because `N(A)` keeps
    /// growing; this cached value is scale-invariant under uniform decay
    /// (mass/total is a ratio), so lazy aging never staleness it further
    /// than the dense sweep did.
    degs: Vec<f64>,
    /// Slot index (into `edges`) of the weakest edge by
    /// `(cached_degree, to)`, maintained incrementally so cap eviction does
    /// not re-scan on every insert. `NO_EDGE` when empty or stale.
    weakest: u32,
    /// Lower bound on every edge's mean similarity (maintained as the min
    /// over observed per-event sims, which bounds every mean from below);
    /// since an edge's degree is at least `p · sim_avg`, `p · sim_lb ≥
    /// floor` lets `prune_below` skip the whole node without touching its
    /// edges. Only decreases between prune visits (which recompute it from
    /// the exact means).
    sim_lb: f64,
}

impl Node {
    const fn fresh(id: u32, stamp: f64) -> Node {
        Node {
            id,
            total: 0.0,
            stamp,
            tos: Vec::new(),
            edges: Vec::new(),
            degs: Vec::new(),
            weakest: NO_EDGE,
            sim_lb: f64::INFINITY,
        }
    }

    /// Apply any pending lazy decay so `total`/`mass` are in the current
    /// epoch's scale.
    #[inline]
    fn refresh(&mut self, decay_ln: f64) {
        if self.stamp == decay_ln {
            return;
        }
        let scale = (decay_ln - self.stamp).exp();
        self.total *= scale;
        for e in &mut self.edges {
            e.mass *= scale;
        }
        self.stamp = decay_ln;
    }

    /// Pending decay multiplier for read-side views (no mutation).
    #[inline]
    fn pending_scale(&self, decay_ln: f64) -> f64 {
        if self.stamp == decay_ln {
            1.0
        } else {
            (decay_ln - self.stamp).exp()
        }
    }

    /// This node's edges (ordered by successor id) with any pending decay
    /// applied and degrees computed against the current `N(A)` — the one
    /// place read-side degree arithmetic lives.
    #[inline]
    fn views(&self, decay_ln: f64, p: f64) -> impl Iterator<Item = EdgeView> + '_ {
        let scale = self.pending_scale(decay_ln);
        let total = (self.total * scale).max(1.0);
        self.edges.iter().zip(&self.tos).map(move |(e, &to)| {
            let mass = e.mass * scale;
            let sim_avg = e.sim_avg();
            EdgeView {
                to: FileId::new(to),
                mass,
                sim_avg,
                degree: miner::correlation_degree(sim_avg, miner::access_frequency(mass, total), p),
            }
        })
    }

    /// Keep only edges for which `keep(to, payload) -> (keep, sim)` says
    /// so, compacting the three parallel arrays (`tos`/`edges`/`degs`) in
    /// lockstep — the single source of truth for that invariant. Returns
    /// the number of edges dropped; invalidates the weakest cache when
    /// anything was dropped.
    fn compact(&mut self, mut keep: impl FnMut(u32, &EdgeData) -> bool) -> usize {
        let before = self.tos.len();
        let mut keep_at = 0;
        for r in 0..before {
            if keep(self.tos[r], &self.edges[r]) {
                // Until the first drop every kept edge is already in place.
                if keep_at != r {
                    self.tos[keep_at] = self.tos[r];
                    self.edges[keep_at] = self.edges[r];
                    self.degs[keep_at] = self.degs[r];
                }
                keep_at += 1;
            }
        }
        self.tos.truncate(keep_at);
        self.edges.truncate(keep_at);
        self.degs.truncate(keep_at);
        let dropped = before - keep_at;
        if dropped > 0 {
            self.weakest = NO_EDGE; // recomputed lazily at the cap
        }
        dropped
    }

    /// Recompute the weakest-edge index by `(cached degree, to)`.
    fn rescan_weakest(&mut self) {
        self.weakest = self
            .degs
            .iter()
            .zip(&self.tos)
            .enumerate()
            .min_by(|(_, (a, at)), (_, (b, bt))| a.total_cmp(b).then(at.cmp(bt)))
            .map_or(NO_EDGE, |(i, _)| i as u32);
    }

    /// Is `(degree, to)` strictly weaker than the current weakest edge?
    #[inline]
    fn weaker_than_weakest(&self, degree: f64, to: u32) -> bool {
        match self.degs.get(self.weakest as usize) {
            Some(w) => match degree.total_cmp(w) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Equal => to < self.tos[self.weakest as usize],
                std::cmp::Ordering::Greater => false,
            },
            None => true,
        }
    }

    /// A live slot with no accesses and no edges is semantically inactive
    /// and must be freed (the slab holds active nodes only).
    #[inline]
    fn is_inactive(&self) -> bool {
        self.total == 0.0 && self.tos.is_empty()
    }
}

/// An opaque, best-effort handle to a node's slot, returned by
/// [`CorrelationGraph::record_access_hinted`]. A hint lets a later touch of
/// the same file skip the id→slot index probe: the graph validates it
/// against the slot's resident id and silently falls back to the index when
/// eviction has moved the node. Stale hints are therefore always safe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeHint(u32);

impl NodeHint {
    /// The always-invalid hint (forces an index probe).
    pub const NONE: NodeHint = NodeHint(u32::MAX);
}

/// Number of predecessor updates located-and-prefetched per pipeline
/// round in [`CorrelationGraph::mine_batch`].
const PIPELINE_WIDTH: usize = 8;

/// One windowed predecessor's pending edge update, prepared by the model's
/// mining loop and committed by [`CorrelationGraph::mine_batch`].
#[derive(Debug, Clone, Copy)]
pub struct PredUpdate {
    /// Predecessor file (edge source).
    pub file: FileId,
    /// Best-effort slot hint for the predecessor's node.
    pub hint: NodeHint,
    /// LDA weight of this co-occurrence.
    pub weight: f64,
    /// Scalar similarity intersection of the two requests.
    pub s_inter: f64,
    /// Scalar similarity item count.
    pub s_items: u32,
}

/// Read-only view of an edge, exposed for diagnostics and tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeView {
    /// Successor file.
    pub to: FileId,
    /// Accumulated LDA mass `N(A,B)` (with pending decay applied).
    pub mass: f64,
    /// Mean semantic similarity across co-occurrences.
    pub sim_avg: f64,
    /// Correlation degree `R` computed with the *current* `N(A)`.
    pub degree: f64,
}

/// The correlation graph: a slab of live node slots plus an id→slot index.
#[derive(Debug, Default)]
pub struct CorrelationGraph {
    /// Live nodes, densely packed; freeing swap-removes.
    slots: Vec<Node>,
    /// file id → slot index.
    index: FxHashMap<u32, u32>,
    num_edges: usize,
    /// Global log-scale decay epoch: Σ ln(factor) over all `age` calls.
    decay_ln: f64,
    /// Mutation epoch: bumped by every state-changing operation, so read
    /// layers (the query cache in [`crate::model::Farmer`], snapshot
    /// staleness checks) can validate derived views in O(1).
    epoch: u64,
}

impl CorrelationGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn slot_of(&self, file: FileId) -> Option<usize> {
        self.index.get(&file.raw()).map(|&s| s as usize)
    }

    /// Slot of `file`, allocating a fresh one if absent.
    fn slot_or_insert(&mut self, file: FileId) -> usize {
        if let Some(&s) = self.index.get(&file.raw()) {
            return s as usize;
        }
        let s = self.slots.len();
        self.slots.push(Node::fresh(file.raw(), self.decay_ln));
        self.index.insert(file.raw(), s as u32);
        s
    }

    /// Free slot `s`: swap-remove it and re-point the index entry of the
    /// slot that moved into its place.
    fn free_slot(&mut self, s: usize) {
        let node = self.slots.swap_remove(s);
        self.index.remove(&node.id);
        if s < self.slots.len() {
            self.index.insert(self.slots[s].id, s as u32);
        }
    }

    /// Resolve a best-effort hint, falling back to the index probe when the
    /// hinted slot no longer holds `file`.
    #[inline]
    fn slot_by_hint(&self, file: FileId, hint: NodeHint) -> Option<usize> {
        match self.slots.get(hint.0 as usize) {
            Some(n) if n.id == file.raw() => Some(hint.0 as usize),
            _ => self.slot_of(file),
        }
    }

    /// Record one access to `file`, incrementing `N(file)`.
    pub fn record_access(&mut self, file: FileId) {
        let _ = self.record_access_hinted(file);
    }

    /// [`CorrelationGraph::record_access`], returning a [`NodeHint`] that a
    /// later mining touch of the same file can use to skip the index probe.
    pub fn record_access_hinted(&mut self, file: FileId) -> NodeHint {
        self.epoch += 1;
        let decay_ln = self.decay_ln;
        let s = self.slot_or_insert(file);
        let node = &mut self.slots[s];
        node.refresh(decay_ln);
        node.total += 1.0;
        NodeHint(s as u32)
    }

    /// Total access count `N(file)` (with pending decay applied).
    pub fn total_accesses(&self, file: FileId) -> f64 {
        match self.slot_of(file) {
            Some(s) => {
                let node = &self.slots[s];
                node.total * node.pending_scale(self.decay_ln)
            }
            None => 0.0,
        }
    }

    /// Update (or create) the edge `from → to` after observing `to` at LDA
    /// weight `weight` with semantic similarity `sim`. Enforces the
    /// per-node successor cap from `cfg`: at a full node the newcomer
    /// competes against the weakest edge by `(cached_degree, to)` — the
    /// common reject is a single comparison, no min-scan.
    ///
    /// A given edge must be driven consistently through *either* this
    /// pre-combined-similarity API *or* the decomposed
    /// [`CorrelationGraph::mine_edge`]/[`CorrelationGraph::mine_batch`]
    /// path: the memoized denominator baked into the edge assumes the
    /// scalar-item convention of whichever call created it, so mixing the
    /// two on one edge would mis-scale later similarities.
    pub fn update_edge(
        &mut self,
        from: FileId,
        to: FileId,
        weight: f64,
        sim: f64,
        cfg: &FarmerConfig,
    ) {
        // The pre-combined similarity is expressed as a pure scalar part
        // (one matching item) with an empty path term, which `mine_edge`
        // reproduces exactly: (sim + 0) / (1 + 0) = sim.
        self.mine_edge(
            from,
            NodeHint::NONE,
            to,
            weight,
            sim,
            1,
            false,
            || (0.0, 0),
            cfg,
        );
    }

    /// The mining hot-path edge update: the caller supplies the per-event
    /// *scalar* similarity part (`s_inter` matches over `s_items` items)
    /// and a thunk producing the per-pair *path* term. On a hit the stored
    /// term is reused (the thunk is never called); the path term is only
    /// computed when the edge is first created — the memoization that makes
    /// repeated co-occurrences allocation- and recompute-free.
    #[allow(clippy::too_many_arguments)]
    pub fn mine_edge(
        &mut self,
        from: FileId,
        from_hint: NodeHint,
        to: FileId,
        weight: f64,
        s_inter: f64,
        s_items: u32,
        succ_has_path: bool,
        path: impl FnOnce() -> (f64, u32),
        cfg: &FarmerConfig,
    ) {
        self.epoch += 1;
        let s = match self.slot_by_hint(from, from_hint) {
            Some(s) => s,
            None => self.slot_or_insert(from),
        };
        let mut path = Some(path);
        self.apply_at(
            s,
            None,
            to.raw(),
            weight,
            s_inter,
            s_items,
            succ_has_path,
            // lint: allow(panic) apply_at invokes the path closure at most
            // once (only when the edge is first created), so take() on the
            // second call is unreachable by construction
            &mut || path.take().expect("path term computed once")(),
            cfg,
        );
    }

    /// Mine one event against a batch of windowed predecessors in two
    /// phases: phase 1 resolves every predecessor's slot and successor
    /// position and issues a prefetch for exactly the edge payload each
    /// update will touch; phase 2 commits the updates. The per-predecessor
    /// payload line is the one cold load of the mining loop (the nodes and
    /// id arrays stay hot because consecutive events share four of five
    /// predecessors), so overlapping those loads is what pipelining buys.
    ///
    /// `path_term(pred_file)` is invoked only when a `pred_file → to` edge
    /// is first created (see [`CorrelationGraph::mine_edge`]).
    pub fn mine_batch(
        &mut self,
        preds: &[PredUpdate],
        to: FileId,
        succ_has_path: bool,
        mut path_term: impl FnMut(FileId) -> (f64, u32),
        cfg: &FarmerConfig,
    ) {
        self.epoch += 1;
        let to_raw = to.raw();
        for chunk in preds.chunks(PIPELINE_WIDTH) {
            let mut loc = [(0usize, usize::MAX); PIPELINE_WIDTH];
            for (k, pu) in chunk.iter().enumerate() {
                let s = match self.slot_by_hint(pu.file, pu.hint) {
                    Some(s) => s,
                    None => self.slot_or_insert(pu.file),
                };
                let node = &self.slots[s];
                let pos = lower_bound(&node.tos, to_raw);
                if node.tos.get(pos) == Some(&to_raw) {
                    prefetch_read(&node.edges[pos]);
                    loc[k] = (s, pos);
                } else {
                    loc[k] = (s, usize::MAX); // miss (or duplicate): re-search
                }
            }
            for (k, pu) in chunk.iter().enumerate() {
                let (s, pos) = loc[k];
                let hint = if pos == usize::MAX { None } else { Some(pos) };
                self.apply_at(
                    s,
                    hint,
                    to_raw,
                    pu.weight,
                    pu.s_inter,
                    pu.s_items,
                    succ_has_path,
                    &mut || path_term(pu.file),
                    cfg,
                );
            }
        }
    }

    /// Commit one edge update at a resolved slot. `pos_hint` is a phase-1
    /// hit position, re-validated here because an earlier update in the
    /// same batch (a duplicated predecessor) may have shifted the arrays.
    #[allow(clippy::too_many_arguments)]
    fn apply_at(
        &mut self,
        s: usize,
        pos_hint: Option<usize>,
        to_raw: u32,
        weight: f64,
        s_inter: f64,
        s_items: u32,
        succ_has_path: bool,
        path: &mut dyn FnMut() -> (f64, u32),
        cfg: &FarmerConfig,
    ) {
        let p = cfg.p;
        let max_successors = cfg.max_successors.max(1);
        let decay_ln = self.decay_ln;
        let node = &mut self.slots[s];
        node.refresh(decay_ln);
        let total = node.total.max(1.0);

        let (pos, hit) = match pos_hint {
            Some(ph) if node.tos.get(ph) == Some(&to_raw) => (ph, true),
            _ => {
                let pos = lower_bound(&node.tos, to_raw);
                (pos, node.tos.get(pos) == Some(&to_raw))
            }
        };
        if hit {
            let i = pos;
            let e = &mut node.edges[i];
            if e.inv_denom.is_nan() || e.succ_path != succ_has_path {
                // Memo stale: marked by a late predecessor-path learn or an
                // attribute-config change, or the successor's path presence
                // flipped versus the event the memo was computed from.
                // Recompute the pair term once, then memoize again.
                let (path_inter, path_items) = path();
                let denom = s_items + path_items;
                e.path_inter = path_inter;
                e.inv_denom = if denom == 0 {
                    0.0
                } else {
                    1.0 / f64::from(denom)
                };
                e.succ_path = succ_has_path;
            }
            let sim = (s_inter + e.path_inter) * e.inv_denom;
            e.mass += weight;
            e.sim_sum += sim;
            e.sim_n += 1;
            let avg = e.sim_sum / e.sim_n as f64;
            let deg = miner::correlation_degree(avg, miner::access_frequency(e.mass, total), p);
            node.degs[i] = deg;
            node.sim_lb = node.sim_lb.min(sim);
            if node.weakest == NO_EDGE {
                // Already stale; recomputed lazily when the cap bites.
            } else if node.weakest == i as u32 {
                node.weakest = NO_EDGE; // may have strengthened: go lazy
            } else if node.weaker_than_weakest(deg, to_raw) {
                node.weakest = i as u32;
            }
        } else {
            let (path_inter, path_items) = path();
            let denom = s_items + path_items;
            let inv_denom = if denom == 0 {
                0.0
            } else {
                1.0 / f64::from(denom)
            };
            let sim = (s_inter + path_inter) * inv_denom;
            let degree = miner::correlation_degree(sim, miner::access_frequency(weight, total), p);
            let edge = EdgeData {
                mass: weight,
                sim_sum: sim,
                sim_n: 1,
                path_inter,
                inv_denom,
                succ_path: succ_has_path,
            };
            if node.tos.len() < max_successors {
                node.tos.insert(pos, to_raw);
                node.edges.insert(pos, edge);
                node.degs.insert(pos, degree);
                self.num_edges += 1;
                node.sim_lb = node.sim_lb.min(sim);
                if node.weakest != NO_EDGE {
                    if node.weakest as usize >= pos {
                        node.weakest += 1; // shifted by the insert
                    }
                    if node.weaker_than_weakest(degree, to_raw) {
                        node.weakest = pos as u32;
                    }
                }
                return;
            }
            // Cap reached: admit only if strictly stronger than the
            // weakest; on admit, evict it and re-scan (admits are the
            // rare path — rejects cost one comparison).
            if node.weakest == NO_EDGE {
                node.rescan_weakest();
            }
            let w = node.weakest as usize;
            if degree > node.degs[w] {
                node.tos.remove(w);
                node.edges.remove(w);
                node.degs.remove(w);
                let pos = node.tos.partition_point(|&t| t < to_raw);
                node.tos.insert(pos, to_raw);
                node.edges.insert(pos, edge);
                node.degs.insert(pos, degree);
                node.sim_lb = node.sim_lb.min(sim);
                node.rescan_weakest();
            }
        }
    }

    /// Iterate over the successors of `file` (ordered by successor id) with
    /// degrees computed against the current `N(file)`.
    pub fn edges(&self, file: FileId, cfg: &FarmerConfig) -> impl Iterator<Item = EdgeView> + '_ {
        /// What an unknown file reads as: no accesses, no successors.
        static ABSENT: Node = Node::fresh(u32::MAX, 0.0);
        let node = self.slot_of(file).map_or(&ABSENT, |s| &self.slots[s]);
        node.views(self.decay_ln, cfg.p)
    }

    /// Stage 4 for the whole graph in one pass over the slab: visit every
    /// node that has at least one successor of degree ≥ `min_degree` with
    /// those successors in the canonical order (decreasing degree, ties by
    /// ascending file id). Degrees are the ones [`CorrelationGraph::edges`]
    /// reports, bit for bit; the threshold cuts before the sort, so a node
    /// pays for ranking only what it publishes. Owners arrive in slab
    /// order, which depends on eviction history — callers that need a
    /// stable order sort by owner.
    pub fn for_each_list(
        &self,
        cfg: &FarmerConfig,
        min_degree: f64,
        mut visit: impl FnMut(FileId, &[Correlator]),
    ) {
        let mut list: Vec<Correlator> = Vec::new();
        for node in &self.slots {
            list.clear();
            list.extend(
                node.views(self.decay_ln, cfg.p)
                    .filter(|e| miner::is_valid(e.degree, min_degree))
                    .map(|e| Correlator {
                        file: e.to,
                        degree: e.degree,
                    }),
            );
            if !list.is_empty() {
                list.sort_unstable_by(rank_cmp);
                visit(FileId::new(node.id), &list);
            }
        }
    }

    /// Mark the memoized path-similarity terms of `file`'s *outgoing*
    /// edges stale, forcing recomputation on next touch. Called when a
    /// file's path is first learned *after* it already has mined edges —
    /// possible only when a front-end withheld the path on earlier
    /// observations. Only the predecessor side of a memo reads the learned
    /// path (the successor side comes from each event's path argument and
    /// is guarded by the per-edge presence flag), so this is O(out-degree),
    /// not a graph sweep.
    pub fn mark_path_memos_stale(&mut self, file: FileId) {
        self.epoch += 1;
        if let Some(s) = self.slot_of(file) {
            for e in &mut self.slots[s].edges {
                e.inv_denom = f64::NAN;
            }
        }
    }

    /// Mark every memoized path-similarity term stale. Called when the
    /// attribute combination or path algorithm changes mid-run, so that
    /// existing pairs re-evaluate under the new configuration (matching
    /// the documented rule that config changes affect future
    /// observations).
    pub fn mark_all_path_memos_stale(&mut self) {
        self.epoch += 1;
        for node in &mut self.slots {
            for e in &mut node.edges {
                e.inv_denom = f64::NAN;
            }
        }
    }

    /// Drop every edge whose current degree is below `floor`. Returns the
    /// number of edges removed.
    ///
    /// Visits only nodes that may actually have prunable edges: a node
    /// whose similarity lower bound gives `p · sim_lb ≥ floor` is skipped
    /// in O(1), since every one of its degrees is at least `p · sim_avg`.
    pub fn prune_below(&mut self, floor: f64, cfg: &FarmerConfig) -> usize {
        self.epoch += 1;
        let p = cfg.p;
        let decay_ln = self.decay_ln;
        let mut removed = 0;
        let mut s = 0;
        while s < self.slots.len() {
            let node = &mut self.slots[s];
            if node.tos.is_empty() || p * node.sim_lb >= floor {
                s += 1;
                continue;
            }
            node.refresh(decay_ln);
            let total = node.total.max(1.0);
            let mut sim_lb = f64::INFINITY;
            let dropped = node.compact(|_, e| {
                let sim = e.sim_avg();
                let deg = miner::correlation_degree(sim, miner::access_frequency(e.mass, total), p);
                if deg >= floor {
                    sim_lb = sim_lb.min(sim);
                    true
                } else {
                    false
                }
            });
            removed += dropped;
            // Keep the exact recomputed bound even when nothing dropped:
            // one historic low-sim event must not force a re-visit of a
            // now-strong node on every future prune tick.
            node.sim_lb = sim_lb;
            if node.is_inactive() {
                self.free_slot(s);
            } else {
                s += 1;
            }
        }
        self.num_edges -= removed;
        removed
    }

    /// Age the graph: multiply every node total and every edge's mass by
    /// `factor` (≤ 1). Semantic similarity means are *not* decayed —
    /// attributes "are rarely modified" (paper §3.2.3) — only the access
    /// frequency evidence fades, so stale sequence signal dies out while
    /// semantic structure is retained.
    ///
    /// O(1): only the global log-scale epoch advances; nodes absorb the
    /// factor lazily on their next touch.
    pub fn age(&mut self, factor: f64) {
        debug_assert!((0.0..=1.0).contains(&factor));
        if factor >= 1.0 {
            return;
        }
        self.epoch += 1;
        // Clamp away from 0: ln(0) = -inf would freeze the epoch forever
        // (-inf + anything stays -inf, so later age calls would no-op for
        // nodes stamped afterwards). The clamp decays accumulators to
        // ~5e-324 of their value on the next touch — indistinguishable
        // from the eager sweep's exact zeroes.
        self.decay_ln += factor.max(f64::MIN_POSITIVE).ln();
    }

    /// Drop every outgoing edge of `file` and reset its access count,
    /// releasing the node slot (and its storage) entirely. Incoming edges
    /// are untouched — pair with [`CorrelationGraph::remove_edges_to`] (or
    /// one [`CorrelationGraph::remove_edges_to_any`] sweep for a whole
    /// batch of victims) for full node eviction. Returns the number of
    /// edges removed.
    pub fn clear_node(&mut self, file: FileId) -> usize {
        self.epoch += 1;
        match self.slot_of(file) {
            Some(s) => {
                let removed = self.slots[s].tos.len();
                self.free_slot(s);
                self.num_edges -= removed;
                removed
            }
            None => 0,
        }
    }

    /// Drop every edge pointing at a file in `victims`, which must be sorted
    /// ascending (duplicates and unknown ids are harmless), and free every
    /// slot left inactive. Returns the number of edges removed.
    ///
    /// One pass in slab order that reads only each node's compact `tos`
    /// line — a hashed bitset of the victims first, the sorted slice on a
    /// bit hit — and rewrites only nodes that hold a doomed successor:
    /// O(n) id reads plus writes proportional to what is removed.
    pub fn remove_edges_to_any(&mut self, victims: &[FileId]) -> usize {
        debug_assert!(victims.windows(2).all(|w| w[0] <= w[1]), "unsorted");
        self.epoch += 1;
        // Fibonacci hashing: it spreads the dense id runs traces produce
        // evenly (the Fx multiplier clusters them, doubling the false hits).
        let bit = |id: u32| (id.wrapping_mul(0x9E37_79B1) >> (32 - FILTER_BITS_LOG2)) as usize;
        let mut filter = [0u64; (1 << FILTER_BITS_LOG2) / 64];
        for v in victims {
            let b = bit(v.raw());
            filter[b / 64] |= 1 << (b % 64);
        }
        let doomed = |to: u32| {
            let b = bit(to);
            filter[b / 64] & (1 << (b % 64)) != 0 && victims.binary_search(&FileId::new(to)).is_ok()
        };
        let mut removed = 0;
        let mut s = 0;
        while s < self.slots.len() {
            // The slab streams; each node's id line is a separate heap
            // block and the pass's one cold load, so fetch it ahead.
            if let Some(t) = self.slots.get(s + 8).and_then(|n| n.tos.first()) {
                prefetch_read(t);
            }
            let node = &mut self.slots[s];
            if node.tos.iter().any(|&to| doomed(to)) {
                removed += node.compact(|to, _| !doomed(to));
            }
            if node.is_inactive() {
                self.free_slot(s);
            } else {
                s += 1;
            }
        }
        self.num_edges -= removed;
        removed
    }

    /// Drop every edge pointing at `to`. Returns the number removed.
    pub fn remove_edges_to(&mut self, to: FileId) -> usize {
        self.remove_edges_to_any(&[to])
    }

    /// Number of *active* nodes: files with a positive access count or at
    /// least one outgoing edge. O(1): the slab holds exactly the active
    /// nodes, so this is the live slot count — the quantity a streaming
    /// memory budget caps.
    #[inline]
    pub fn active_nodes(&self) -> usize {
        self.slots.len()
    }

    /// Number of node slots currently allocated. With sparse slotted
    /// storage this equals [`CorrelationGraph::active_nodes`] — the graph
    /// no longer keeps a dense spine up to the largest file id.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.slots.len()
    }

    /// Number of live edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// The mutation epoch: changes whenever any graph state changes, so a
    /// derived view (sorted correlator cache, exported table) stamped with
    /// the epoch it was built at can be staleness-checked in O(1).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Iterate over the files with a live node (slab order, unspecified).
    pub fn files(&self) -> impl Iterator<Item = FileId> + '_ {
        self.slots.iter().map(|n| FileId::new(n.id))
    }

    /// Export the full graph state as plain data (slab order, raw f64
    /// bits) for checkpoint images. See [`crate::state`] for the
    /// bit-exactness contract; [`CorrelationGraph::from_state`] is the
    /// inverse.
    pub fn export_state(&self) -> crate::state::GraphState {
        crate::state::GraphState {
            decay_ln: self.decay_ln.to_bits(),
            epoch: self.epoch,
            nodes: self
                .slots
                .iter()
                .map(|n| crate::state::NodeState {
                    id: n.id,
                    total: n.total.to_bits(),
                    stamp: n.stamp.to_bits(),
                    sim_lb: n.sim_lb.to_bits(),
                    edges: n
                        .tos
                        .iter()
                        .zip(&n.edges)
                        .zip(&n.degs)
                        .map(|((&to, e), &deg)| crate::state::EdgeState {
                            to,
                            mass: e.mass.to_bits(),
                            sim_sum: e.sim_sum.to_bits(),
                            sim_n: e.sim_n,
                            deg: deg.to_bits(),
                            path_inter: e.path_inter.to_bits(),
                            inv_denom: e.inv_denom.to_bits(),
                            succ_path: e.succ_path,
                        })
                        .collect(),
                })
                .collect(),
        }
    }

    /// Rebuild a graph from an exported state image. Accumulators are
    /// restored bit for bit in slab order; the id→slot index and edge
    /// count are re-derived, and the per-node weakest-edge cache starts
    /// stale (`NO_EDGE`), which the next cap decision resolves by a
    /// rescan to the same `(degree, to)` minimum the incremental cache
    /// would have held.
    pub fn from_state(state: &crate::state::GraphState) -> CorrelationGraph {
        let mut g = CorrelationGraph {
            slots: Vec::with_capacity(state.nodes.len()),
            index: FxHashMap::default(),
            num_edges: 0,
            decay_ln: f64::from_bits(state.decay_ln),
            epoch: state.epoch,
        };
        for (s, ns) in state.nodes.iter().enumerate() {
            let mut node = Node::fresh(ns.id, f64::from_bits(ns.stamp));
            node.total = f64::from_bits(ns.total);
            node.sim_lb = f64::from_bits(ns.sim_lb);
            node.tos = ns.edges.iter().map(|e| e.to).collect();
            node.degs = ns.edges.iter().map(|e| f64::from_bits(e.deg)).collect();
            node.edges = ns
                .edges
                .iter()
                .map(|e| EdgeData {
                    mass: f64::from_bits(e.mass),
                    sim_sum: f64::from_bits(e.sim_sum),
                    sim_n: e.sim_n,
                    path_inter: f64::from_bits(e.path_inter),
                    inv_denom: f64::from_bits(e.inv_denom),
                    succ_path: e.succ_path,
                })
                .collect();
            g.num_edges += node.tos.len();
            g.index.insert(ns.id, s as u32);
            g.slots.push(node);
        }
        g
    }

    /// Approximate heap bytes held by the graph (Table 4 accounting):
    /// slab + per-node edge storage + id→slot index. O(active nodes),
    /// and — unlike the dense spine — independent of id magnitudes.
    pub fn heap_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Node>()
            + self
                .slots
                .iter()
                .map(|n| {
                    n.edges.capacity() * std::mem::size_of::<EdgeData>()
                        + n.tos.capacity() * std::mem::size_of::<u32>()
                        + n.degs.capacity() * std::mem::size_of::<f64>()
                })
                .sum::<usize>()
            + self.index.capacity() * (2 * std::mem::size_of::<u32>() + 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(i: u32) -> FileId {
        FileId::new(i)
    }

    fn cfg() -> FarmerConfig {
        FarmerConfig::default()
    }

    impl CorrelationGraph {
        /// The closure-driven sweep [`CorrelationGraph::remove_edges_to_any`]
        /// replaced, kept as the reference the differential tests compare
        /// against: every node is compacted through `keep`, hit or not.
        pub(crate) fn retain_edges_reference(
            &mut self,
            mut keep: impl FnMut(FileId, FileId) -> bool,
        ) -> usize {
            self.epoch += 1;
            let mut removed = 0;
            let mut s = 0;
            while s < self.slots.len() {
                let node = &mut self.slots[s];
                let from = FileId::new(node.id);
                removed += node.compact(|to, _| keep(from, FileId::new(to)));
                if node.is_inactive() {
                    self.free_slot(s);
                } else {
                    s += 1;
                }
            }
            self.num_edges -= removed;
            removed
        }
    }

    #[test]
    fn record_access_counts() {
        let mut g = CorrelationGraph::new();
        g.record_access(f(3));
        g.record_access(f(3));
        assert_eq!(g.total_accesses(f(3)), 2.0);
        assert_eq!(g.total_accesses(f(0)), 0.0);
        // Sparse storage: one live node, regardless of id magnitude.
        assert_eq!(g.num_nodes(), 1);
    }

    #[test]
    fn storage_is_id_sparse() {
        let mut g = CorrelationGraph::new();
        let c = cfg();
        g.record_access(f(9_999_999));
        g.update_edge(f(9_999_999), f(5_000_000), 1.0, 0.5, &c);
        assert_eq!(g.num_nodes(), 1);
        assert_eq!(g.active_nodes(), 1);
        let small = g.heap_bytes();
        // A dense spine would be hundreds of MiB here.
        assert!(small < 1 << 16, "heap {small} scales with id magnitude");
        assert_eq!(g.total_accesses(f(9_999_999)), 1.0);
    }

    #[test]
    fn update_edge_accumulates() {
        let mut g = CorrelationGraph::new();
        let c = cfg();
        g.record_access(f(0));
        g.update_edge(f(0), f(1), 1.0, 0.8, &c);
        g.record_access(f(0));
        g.update_edge(f(0), f(1), 0.9, 0.6, &c);
        let edges: Vec<EdgeView> = g.edges(f(0), &c).collect();
        assert_eq!(edges.len(), 1);
        assert!((edges[0].mass - 1.9).abs() < 1e-12);
        assert!((edges[0].sim_avg - 0.7).abs() < 1e-12);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn edges_iterate_sorted_by_successor() {
        let mut g = CorrelationGraph::new();
        let c = cfg();
        for to in [9u32, 2, 7, 4] {
            g.update_edge(f(0), f(to), 1.0, 0.5, &c);
        }
        let succs: Vec<u32> = g.edges(f(0), &c).map(|e| e.to.raw()).collect();
        assert_eq!(succs, vec![2, 4, 7, 9]);
    }

    #[test]
    fn degree_combines_sim_and_frequency() {
        let mut g = CorrelationGraph::new();
        let c = cfg(); // p = 0.7
        g.record_access(f(0));
        g.update_edge(f(0), f(1), 1.0, 0.5, &c);
        let e: Vec<EdgeView> = g.edges(f(0), &c).collect();
        // F = 1.0/1.0 = 1, sim = 0.5 -> R = 0.5*0.7 + 1.0*0.3 = 0.65.
        assert!((e[0].degree - 0.65).abs() < 1e-12, "degree {}", e[0].degree);
    }

    #[test]
    fn degree_reflects_growing_total() {
        // As N(A) grows without B recurring, F decays and so does R.
        let mut g = CorrelationGraph::new();
        let c = cfg();
        g.record_access(f(0));
        g.update_edge(f(0), f(1), 1.0, 0.5, &c);
        let before = g.edges(f(0), &c).next().unwrap().degree;
        for _ in 0..9 {
            g.record_access(f(0));
        }
        let after = g.edges(f(0), &c).next().unwrap().degree;
        assert!(after < before, "{after} !< {before}");
        // Semantic part survives: R >= p * sim.
        assert!(after >= 0.7 * 0.5 - 1e-12);
    }

    #[test]
    fn successor_cap_evicts_weakest() {
        let mut g = CorrelationGraph::new();
        let mut c = cfg();
        c.max_successors = 2;
        g.record_access(f(0));
        g.update_edge(f(0), f(1), 1.0, 0.1, &c); // weak sim
        g.update_edge(f(0), f(2), 1.0, 0.9, &c); // strong sim
        g.update_edge(f(0), f(3), 1.0, 0.5, &c); // mid: evicts f(1)
        let succs: Vec<u32> = g.edges(f(0), &c).map(|e| e.to.raw()).collect();
        assert_eq!(succs.len(), 2);
        assert!(succs.contains(&2));
        assert!(succs.contains(&3));
        assert!(!succs.contains(&1));
    }

    #[test]
    fn cap_does_not_admit_weaker_newcomer() {
        let mut g = CorrelationGraph::new();
        let mut c = cfg();
        c.max_successors = 1;
        g.record_access(f(0));
        g.update_edge(f(0), f(1), 1.0, 0.9, &c);
        g.update_edge(f(0), f(2), 0.1, 0.0, &c); // weaker, must bounce
        let succs: Vec<u32> = g.edges(f(0), &c).map(|e| e.to.raw()).collect();
        assert_eq!(succs, vec![1]);
    }

    #[test]
    fn cap_eviction_tracks_weakest_across_touches() {
        // The weakest edge strengthens via touches; the incremental weakest
        // pointer must follow, so the *new* weakest is the one evicted.
        let mut g = CorrelationGraph::new();
        let mut c = cfg();
        c.max_successors = 2;
        c.p = 1.0; // degree == sim: deterministic ordering
        g.record_access(f(0));
        g.update_edge(f(0), f(1), 1.0, 0.2, &c); // weakest at first
        g.update_edge(f(0), f(2), 1.0, 0.4, &c);
        g.update_edge(f(0), f(1), 1.0, 1.0, &c); // f1 sim_avg -> 0.6: now strongest
        g.update_edge(f(0), f(3), 1.0, 0.5, &c); // must evict f2, not f1
        let succs: Vec<u32> = g.edges(f(0), &c).map(|e| e.to.raw()).collect();
        assert_eq!(succs, vec![1, 3]);
    }

    #[test]
    fn mine_batch_handles_duplicate_predecessors() {
        // The same predecessor file can appear twice in one window (two
        // distances). The pipelined batch must commit both updates — the
        // second re-validates its phase-1 position after the first's
        // insert.
        let c = cfg();
        let batch = |g: &mut CorrelationGraph| {
            let preds = [
                PredUpdate {
                    file: f(7),
                    hint: NodeHint::NONE,
                    weight: 1.0,
                    s_inter: 0.5,
                    s_items: 1,
                },
                PredUpdate {
                    file: f(7),
                    hint: NodeHint::NONE,
                    weight: 0.8,
                    s_inter: 0.5,
                    s_items: 1,
                },
            ];
            g.mine_batch(&preds, f(3), false, |_| (0.0, 0), &c);
        };
        let mut g = CorrelationGraph::new();
        g.record_access(f(7));
        batch(&mut g);
        let mut seq = CorrelationGraph::new();
        seq.record_access(f(7));
        seq.update_edge(f(7), f(3), 1.0, 0.5, &c);
        seq.update_edge(f(7), f(3), 0.8, 0.5, &c);
        let got: Vec<EdgeView> = g.edges(f(7), &c).collect();
        let want: Vec<EdgeView> = seq.edges(f(7), &c).collect();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].mass.to_bits(), want[0].mass.to_bits());
        assert_eq!(got[0].degree.to_bits(), want[0].degree.to_bits());
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn stale_hints_are_safe() {
        let mut g = CorrelationGraph::new();
        let c = cfg();
        let hint_a = g.record_access_hinted(f(1));
        let _ = g.record_access_hinted(f(2));
        // Evicting f(1) frees its slot; f(2) swaps into it. The stale hint
        // for f(1) now points at f(2)'s slot and must fall back cleanly.
        g.clear_node(f(1));
        g.mine_edge(f(1), hint_a, f(9), 1.0, 0.5, 1, false, || (0.0, 0), &c);
        let succs: Vec<u32> = g.edges(f(1), &c).map(|e| e.to.raw()).collect();
        assert_eq!(succs, vec![9]);
        assert_eq!(g.total_accesses(f(2)), 1.0, "bystander node corrupted");
    }

    #[test]
    fn prune_below_drops_weak_edges() {
        let mut g = CorrelationGraph::new();
        let c = cfg();
        g.record_access(f(0));
        g.update_edge(f(0), f(1), 1.0, 0.9, &c); // strong
        g.update_edge(f(0), f(2), 0.05, 0.0, &c); // weak
        let removed = g.prune_below(0.3, &c);
        assert_eq!(removed, 1);
        let succs: Vec<u32> = g.edges(f(0), &c).map(|e| e.to.raw()).collect();
        assert_eq!(succs, vec![1]);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn prune_skip_bound_is_sound() {
        // A node whose every sim clears floor/p is skipped; one with a weak
        // frequency-only edge is not. Same outcome either way.
        let mut g = CorrelationGraph::new();
        let mut c = cfg();
        c.p = 0.7;
        g.record_access(f(0));
        g.update_edge(f(0), f(1), 1.0, 0.9, &c); // p*sim = 0.63 >= floor
        g.record_access(f(2));
        g.update_edge(f(2), f(3), 0.01, 0.0, &c); // prunable
        let removed = g.prune_below(0.3, &c);
        assert_eq!(removed, 1);
        assert_eq!(g.edges(f(0), &c).count(), 1);
        assert_eq!(g.edges(f(2), &c).count(), 0);
    }

    #[test]
    fn edges_of_unknown_node_empty() {
        let g = CorrelationGraph::new();
        assert_eq!(g.edges(f(42), &cfg()).count(), 0);
    }

    #[test]
    fn aging_scales_mass_but_keeps_frequency_ratio() {
        let mut g = CorrelationGraph::new();
        let c = cfg();
        // Keep totals well above the divide-by-zero clamp so the ratio
        // invariance is observable.
        for _ in 0..4 {
            g.record_access(f(0));
            g.update_edge(f(0), f(1), 1.0, 0.5, &c);
        }
        let before = g.edges(f(0), &c).next().unwrap();
        g.age(0.5);
        let after = g.edges(f(0), &c).next().unwrap();
        assert!((after.mass - before.mass * 0.5).abs() < 1e-12);
        // F = mass/total is invariant under uniform aging...
        assert!((after.degree - before.degree).abs() < 1e-12);
        // ...but fresh accesses of A now outweigh the aged mass faster.
        g.record_access(f(0));
        let diluted = g.edges(f(0), &c).next().unwrap();
        assert!(diluted.degree < after.degree);
    }

    #[test]
    fn aging_to_zero_does_not_freeze_the_epoch() {
        let mut g = CorrelationGraph::new();
        let c = cfg();
        for _ in 0..4 {
            g.record_access(f(0));
            g.update_edge(f(0), f(1), 1.0, 0.5, &c);
        }
        g.age(0.0); // ln(0) must not poison the epoch with -inf
        assert!((g.total_accesses(f(0))).abs() < 1e-9, "total not wiped");
        // Nodes created after the zero-age still decay normally.
        for _ in 0..4 {
            g.record_access(f(2));
        }
        g.age(0.5);
        assert!(
            (g.total_accesses(f(2)) - 2.0).abs() < 1e-9,
            "post-zero decay broken: {}",
            g.total_accesses(f(2))
        );
    }

    #[test]
    fn aging_with_factor_one_is_noop() {
        let mut g = CorrelationGraph::new();
        let c = cfg();
        g.record_access(f(0));
        g.update_edge(f(0), f(1), 1.0, 0.5, &c);
        let before = g.edges(f(0), &c).next().unwrap();
        g.age(1.0);
        let after = g.edges(f(0), &c).next().unwrap();
        assert_eq!(before.mass.to_bits(), after.mass.to_bits());
    }

    #[test]
    fn lazy_decay_is_absorbed_on_touch() {
        // Two nodes age; only one is touched afterwards. Both must report
        // identically decayed state: pending decay is invisible to readers.
        let mut g = CorrelationGraph::new();
        let c = cfg();
        for file in [0u32, 5] {
            for _ in 0..4 {
                g.record_access(f(file));
                g.update_edge(f(file), f(file + 1), 1.0, 0.5, &c);
            }
        }
        g.age(0.5);
        g.age(0.5); // two stacked epochs
                    // Touch node 0 (absorbs decay eagerly); node 5 stays lazy.
        g.record_access(f(0));
        let touched_total = g.total_accesses(f(0));
        let lazy_total = g.total_accesses(f(5));
        assert!((touched_total - (4.0 * 0.25 + 1.0)).abs() < 1e-9);
        assert!((lazy_total - 4.0 * 0.25).abs() < 1e-9);
        let lazy_mass = g.edges(f(5), &c).next().unwrap().mass;
        let touched_mass = g.edges(f(0), &c).next().unwrap().mass;
        assert!((lazy_mass - 4.0 * 0.25).abs() < 1e-9);
        assert!((touched_mass - lazy_mass).abs() < 1e-12);
    }

    #[test]
    fn clear_node_drops_outgoing_and_total() {
        let mut g = CorrelationGraph::new();
        let c = cfg();
        g.record_access(f(0));
        g.update_edge(f(0), f(1), 1.0, 0.5, &c);
        g.update_edge(f(0), f(2), 1.0, 0.5, &c);
        assert_eq!(g.clear_node(f(0)), 2);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.total_accesses(f(0)), 0.0);
        assert_eq!(g.edges(f(0), &c).count(), 0);
        // Unknown nodes are a no-op.
        assert_eq!(g.clear_node(f(99)), 0);
    }

    #[test]
    fn clear_node_reclaims_the_slot() {
        let mut g = CorrelationGraph::new();
        let c = cfg();
        for i in 0..64u32 {
            g.record_access(f(i));
            g.update_edge(f(i), f(i + 1_000_000), 1.0, 0.5, &c);
        }
        assert_eq!(g.num_nodes(), 64);
        for i in 0..64u32 {
            g.clear_node(f(i));
        }
        assert_eq!(g.num_nodes(), 0, "slots must be reclaimed");
        assert_eq!(g.num_edges(), 0);
        // Re-admission works and indexes correctly after slot churn.
        g.record_access(f(7));
        assert_eq!(g.total_accesses(f(7)), 1.0);
        assert_eq!(g.num_nodes(), 1);
    }

    #[test]
    fn remove_edges_to_cleans_incoming() {
        let mut g = CorrelationGraph::new();
        let c = cfg();
        g.record_access(f(0));
        g.record_access(f(1));
        g.update_edge(f(0), f(2), 1.0, 0.5, &c);
        g.update_edge(f(1), f(2), 1.0, 0.5, &c);
        g.update_edge(f(1), f(3), 1.0, 0.5, &c);
        assert_eq!(g.remove_edges_to(f(2)), 2);
        assert_eq!(g.num_edges(), 1);
        let succs: Vec<u32> = g.edges(f(1), &c).map(|e| e.to.raw()).collect();
        assert_eq!(succs, vec![3]);
    }

    #[test]
    fn remove_edges_to_any_batch_sweep() {
        let mut g = CorrelationGraph::new();
        let c = cfg();
        for to in 1..5 {
            g.update_edge(f(0), f(to), 1.0, 0.5, &c);
        }
        // Duplicates and ids nothing points at are harmless.
        let removed = g.remove_edges_to_any(&[f(1), f(3), f(3), f(77)]);
        assert_eq!(removed, 2);
        assert_eq!(g.num_edges(), 2);
        let succs: Vec<u32> = g.edges(f(0), &c).map(|e| e.to.raw()).collect();
        assert_eq!(succs, vec![2, 4]);
        assert_eq!(g.remove_edges_to_any(&[]), 0);
    }

    #[test]
    fn remove_edges_to_frees_emptied_unaccessed_nodes() {
        let mut g = CorrelationGraph::new();
        let c = cfg();
        // Node 0 has accesses (stays active when emptied); node 1 does not.
        g.record_access(f(0));
        g.update_edge(f(0), f(9), 1.0, 0.5, &c);
        g.update_edge(f(1), f(9), 1.0, 0.5, &c);
        assert_eq!(g.active_nodes(), 2);
        g.remove_edges_to(f(9));
        assert_eq!(g.active_nodes(), 1);
        assert_eq!(g.total_accesses(f(0)), 1.0);
    }

    #[test]
    fn compact_keeps_weakest_cache_when_nothing_drops() {
        // A visit that drops nothing must leave the node exactly as it
        // was, incremental weakest-edge cache included.
        let mut g = CorrelationGraph::new();
        let mut c = cfg();
        c.max_successors = 2;
        g.update_edge(f(0), f(1), 1.0, 0.2, &c);
        g.update_edge(f(0), f(2), 1.0, 0.9, &c);
        g.update_edge(f(0), f(3), 1.0, 0.5, &c); // cap admit: cache now live
        let before = (g.export_state().nodes, g.slots[0].weakest);
        assert_ne!(before.1, NO_EDGE);
        assert_eq!(g.slots[0].compact(|_, _| true), 0);
        assert_eq!(g.remove_edges_to_any(&[f(7)]), 0);
        assert_eq!(before, (g.export_state().nodes, g.slots[0].weakest));
    }

    #[test]
    fn active_nodes_tracks_eviction() {
        let mut g = CorrelationGraph::new();
        let c = cfg();
        g.record_access(f(7));
        g.update_edge(f(7), f(3), 1.0, 0.5, &c);
        // Node 3 exists only as an edge target; node 7 is active.
        assert_eq!(g.active_nodes(), 1);
        g.clear_node(f(7));
        assert_eq!(g.active_nodes(), 0);
        assert_eq!(g.num_nodes(), 0, "slot storage is reclaimed on eviction");
    }

    #[test]
    fn heap_bytes_grow_with_edges() {
        let mut g = CorrelationGraph::new();
        let c = cfg();
        let before = g.heap_bytes();
        g.record_access(f(0));
        for i in 1..10 {
            g.update_edge(f(0), f(i), 1.0, 0.5, &c);
        }
        assert!(g.heap_bytes() > before);
    }
}
