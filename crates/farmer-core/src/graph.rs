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
//! [`CorrelationGraph::age`] does not sweep the graph. The graph keeps a
//! global log-scale decay epoch `decay_ln = Σ ln(factor)` and each node a
//! `stamp` of the epoch its accumulators were last normalized to. Touching
//! a node (access, edge update, prune visit) first rescales its total and
//! edge masses by `exp(decay_ln − stamp)`; untouched nodes carry their
//! pending decay implicitly and read-side views apply the scale on the fly.
//! Each node pays for each aging epoch at most once, on its next touch.
//!
//! # Hot-path layout
//!
//! Successor storage is a structure of arrays. The sorted successor
//! *ids* — what every update searches — live in one graph-level slab,
//! `stride` ids per slot: slot `s` owns `ids[s * stride..(s + 1) *
//! stride]`, its ids ascending and the rest of the line padded with
//! `u32::MAX`. The pad is a legal file id, so "present" always means
//! *equal and below the node's length*. The stride is 16 (one 64-byte
//! cache line) and a multiple of 16 always; the slab re-strides, every
//! line at once, only when a node grows past it, which takes a
//! `max_successors` above 16 — a raised cap costs every node the wider
//! line. Per node there remain a payload array (accumulators plus the
//! memoized per-pair path-similarity term) and a cached-degree array that
//! keeps the weakest-edge (cap eviction) scan off the payloads. Freeing a
//! slot swap-removes node and line together, so slab order is what the
//! per-node arrays gave it; the freed node's two arrays go to a small pool
//! the next new nodes draw from, so a graph that evicts and refills at a
//! node cap stops calling the allocator.
//!
//! [`CorrelationGraph::mine_batch`] commits one event's window of
//! predecessor updates in two phases — one branch-free search per update
//! plus a prefetch, then the update — and is built around the *reject*:
//! with the successor cap and the validity filter in place a steady-state
//! update is rarely an update. Per event, after a warm-up lap over the
//! benchmark's streams ([`UpdateMix`] counts them):
//!
//! | stream | hits | inserts | early rejects | exact rejects | admits | path terms |
//! |---|---|---|---|---|---|---|
//! | INS (no paths) | 0.79 | 0.24 | 3.69 | 0 | 0.22 | 0 |
//! | HP | 0.84 | 0.03 | 3.93 | 0.10 | 0.09 | 0.16 |
//! | HP under a 4 096-node cap | 0.37 | 0.88 | 3.41 | 0.08 | 0.25 | 0.78 |
//!
//! (The early column is what the path signatures of
//! [`crate::semvec::path_term_bound`] buy: a bound that knows only
//! *whether* each side has a path leaves half of those rejects to the
//! exact term, and settles no disjoint pair outright.)
//!
//! # Complexity (d = per-node successor cap, n = active nodes, e = edges)
//!
//! | operation | cost |
//! |---|---|
//! | `record_access` | O(1) hash probe |
//! | locate (every update) | one vectorised pass over the id line: d/16 lines, no early exit within one |
//! | edge-update hit | memoized term, one payload line (prefetched) |
//! | edge-update insert (below the cap) | one path term unless the bound already is it (a pair in disjoint directories: most of them); O(d) shift of line, payloads, degrees |
//! | edge-update early reject (full node) | cached weakest + a degree bound from the two path signatures: two divisions, one comparison; no path looked up or compared, nothing written |
//! | edge-update exact reject (full node) | the early reject plus one path term; 2 % of updates |
//! | edge-update admit (full node) | one path term unless the bound is it; one move per array, branch-free O(d) rescan of the weakest on integer keys |
//! | `edges` (a query) | O(deg): one hash probe, one pass over the node's line, payloads and pending decay |
//! | `age` | O(1) |
//! | `prune_below` | O(n + e), skips `p·sim_lb ≥ floor` nodes |
//! | `remove_edges_to_any` | one pass over the id slab, a 16-id line at a time against a fixed-size byte filter (no bounds check, no exit within a line, ≈ 1 cycle an id); a node is touched only when its line matches, written only when it loses an edge |
//! | `heap_bytes` | O(n + e) |
//! | `active_nodes` | O(1) |
//! | resident memory | O(active nodes) |

use farmer_trace::hash::FxHashMap;
use farmer_trace::FileId;

use crate::config::FarmerConfig;
use crate::correlator::Correlator;
use crate::miner;
use crate::source::rank_cmp;

/// Sentinel for "weakest-edge index unknown / no edges".
const NO_EDGE: u32 = u32::MAX;

/// Ids per 64-byte cache line; the id slab's stride is a multiple of it.
const LANES: usize = 16;

/// Buffer pairs [`CorrelationGraph`] keeps from freed nodes: two eviction
/// batches of the streaming miner (`node_cap / 64` files each, 64 at the
/// default cap), ≈ 115 KiB at 16 successors.
const SPARE_NODES: usize = 128;

/// How far below the validity threshold, relatively, a cached degree has
/// to be for [`CorrelationGraph::for_each_list`] to skip its edge unread.
///
/// A cached degree is the edge's degree as of its last touch, and until
/// the next one the degree can only fall: for `p` in `[0, 1]` it is
/// monotone in the frequency `N(A,B) / max(N(A), 1)`, whose numerator
/// changes by decay alone while the denominator decays by the same
/// factors (all ≤ 1, so the clamp at 1 only helps) and otherwise grows.
/// In floating point each refresh of the node multiplies mass and total
/// by the same factor with one rounding each, so the ratio can creep
/// *up* by 2⁻⁵² a refresh, plus a few roundings in the degree itself. A
/// node is refreshed at most once per aging tick: 10⁻⁹ covers four
/// million ticks between two touches of one edge with every rounding
/// going the same way — the differential test runs 10⁴ ticks and
/// observes drifts of ≈ 10⁻¹⁵ — and costs nothing measurable: only edges
/// within a billionth of the threshold are evaluated for nothing.
pub const CACHED_DEGREE_MARGIN: f64 = 1e-9;

/// What an id line is padded with past its node's length. It is also a
/// legal [`FileId`], so "the id is present" always needs `pos < len` too.
const PAD: u32 = u32::MAX;

/// Where `to` sits in one node's id line (`len` ids sorted ascending, then
/// [`PAD`] up to the stride): `(pos, hit)` with `pos` the number of ids
/// below `to` — its index when present, its insertion point when not.
///
/// Within a 16-id lane nothing branches on the data: every id is compared
/// both ways and the results reduced, a plain loop LLVM turns into vector
/// compares (it does so only in optimised builds, which is why CI also
/// runs this crate's tests with `--release`). The one exit is between
/// lanes, and a stride of 16 has a single lane. The pad never counts as
/// "below" (nothing is above `u32::MAX`) and can only equal a `to` of
/// `u32::MAX`, which the `pos < len` term settles.
#[inline(always)]
fn locate(line: &[u32], len: usize, to: u32) -> (usize, bool) {
    let (lanes, rest) = line.as_chunks::<LANES>();
    debug_assert!(rest.is_empty(), "stride is a multiple of LANES");
    let (mut pos, mut hit) = (0, false);
    for lane in lanes {
        let (mut below, mut equal) = (0u32, false);
        for &t in lane {
            below += u32::from(t < to);
            equal |= t == to;
        }
        pos += below as usize;
        hit = equal;
        if (below as usize) < LANES {
            break; // sorted: `to` belongs in this lane, nothing later is below it
        }
    }
    (pos, hit && pos < len)
}

/// Where slot `s`'s line lies in an id slab of `stride` ids a line.
#[inline]
fn span(s: usize, stride: usize) -> std::ops::Range<usize> {
    s * stride..(s + 1) * stride
}

/// Is `pos` still the lower bound of `to` in `line`? Two compares against
/// the neighbours; the pad past the node's length compares as "not below".
#[inline]
fn brackets(line: &[u32], pos: usize, to: u32) -> bool {
    (pos == 0 || line[pos - 1] < to) && line.get(pos).is_none_or(|&t| to <= t)
}

/// In a run sorted by successor id, drop the entry at `w` and put `new` in
/// at its place in the order — `pos` is `new`'s lower bound in the run as
/// it stands, `w` included. One overlapping move instead of a remove and
/// an insert.
#[inline]
fn replace_sorted<T: Copy>(run: &mut [T], w: usize, pos: usize, new: T) {
    if w < pos {
        run.copy_within(w + 1..pos, w);
        run[pos - 1] = new;
    } else {
        run.copy_within(pos..w, pos + 1);
        run[pos] = new;
    }
}

/// `x`'s place in [`f64::total_cmp`] order as a plain integer: comparing
/// two keys is comparing the two floats (`-0.0` below `0.0`, subnormals in
/// place, NaNs at the ends).
#[inline(always)]
pub fn total_order_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
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

/// The victim-prefilter bucket of `id` in a table of `N` buckets (a power
/// of two): the top bits of its Fibonacci hash, which spreads the dense id
/// runs traces produce evenly (the Fx multiplier clusters them, doubling
/// the false hits). A constant shift of a `u32`, so the compiler knows the
/// result is below `N` and the table lookup carries no bounds check.
#[inline(always)]
fn bucket<const N: usize>(id: u32) -> usize {
    const { assert!(N.is_power_of_two() && N <= 1 << 31) };
    (id.wrapping_mul(0x9E37_79B1) >> (32 - N.trailing_zeros())) as usize
}

/// The OR of the prefilter bytes of every id in `line`, pad included:
/// non-zero when the line may hold a victim. Nothing branches inside a
/// 16-id lane — sixteen independent byte loads and an OR tree.
#[inline(always)]
fn marks<const N: usize>(line: &[u32], table: &[u8; N]) -> u8 {
    let (lanes, rest) = line.as_chunks::<LANES>();
    debug_assert!(rest.is_empty(), "stride is a multiple of LANES");
    let mut any = 0;
    for lane in lanes {
        for &id in lane {
            any |= table[bucket::<N>(id)];
        }
    }
    any
}

/// One successor edge's accumulators (the payload half of the node's
/// structure-of-arrays edge storage; the successor id lives in the graph's
/// id slab so the search touches one compact cache line).
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

/// Heap bytes behind one node's payload and cached-degree arrays.
fn buffer_bytes(edges: &Vec<EdgeData>, degs: &Vec<f64>) -> usize {
    edges.capacity() * std::mem::size_of::<EdgeData>()
        + degs.capacity() * std::mem::size_of::<f64>()
}

/// One file's node slot: total accesses plus its successor edges. The
/// successor *ids* are not here: slot `s` keeps them in the graph's id
/// slab at `ids[s * stride..]` (see [`CorrelationGraph`]), and the node's
/// length is `edges.len()`.
#[derive(Debug, Clone)]
struct Node {
    /// The file id this slot currently represents.
    id: u32,
    /// Total access count `N(A)`, in this node's scale (see `stamp`).
    total: f64,
    /// Value of the graph's `decay_ln` this node's accumulators were last
    /// normalized to. `stamp == decay_ln` means no decay is pending.
    stamp: f64,
    /// Edge payloads, parallel to the node's id line.
    edges: Vec<EdgeData>,
    /// Per-edge degree as of the edge's last touch, parallel to the id
    /// line; the eviction-ordering key. Kept in its own compact array so
    /// the weakest-edge scan touches two cache lines, not every payload.
    /// The exact degree is recomputed at query time because `N(A)` keeps
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

    /// What read-side views rescale by and divide by: the pending decay
    /// multiplier, and `N(A)` with it applied.
    #[inline]
    fn read_scale(&self, decay_ln: f64) -> (f64, f64) {
        let scale = self.pending_scale(decay_ln);
        (scale, (self.total * scale).max(1.0))
    }

    /// One edge as a reader sees it, given the node's [`Node::read_scale`]:
    /// pending decay applied, degree computed against the current `N(A)` —
    /// the one place read-side degree arithmetic lives.
    #[inline]
    fn view(e: &EdgeData, to: u32, (scale, total): (f64, f64), p: f64) -> EdgeView {
        let mass = e.mass * scale;
        let sim_avg = e.sim_avg();
        EdgeView {
            to: FileId::new(to),
            mass,
            sim_avg,
            degree: miner::correlation_degree(sim_avg, miner::access_frequency(mass, total), p),
        }
    }

    /// This node's edges (ordered by successor id; `line` is its id line)
    /// as a reader sees them.
    #[inline]
    fn views<'a>(
        &'a self,
        line: &'a [u32],
        decay_ln: f64,
        p: f64,
    ) -> impl Iterator<Item = EdgeView> + 'a {
        let scale = self.read_scale(decay_ln);
        self.edges
            .iter()
            .zip(line)
            .map(move |(e, &to)| Node::view(e, to, scale, p))
    }

    /// Keep only edges for which `keep(to, payload)` says so, compacting
    /// the id line and the two parallel arrays (`edges`/`degs`) in lockstep
    /// and re-padding the line's tail — the single source of truth for that
    /// invariant. Returns the number of edges dropped; invalidates the
    /// weakest cache when anything was dropped.
    fn compact(&mut self, line: &mut [u32], mut keep: impl FnMut(u32, &EdgeData) -> bool) -> usize {
        let before = self.edges.len();
        let mut keep_at = 0;
        for r in 0..before {
            if keep(line[r], &self.edges[r]) {
                // Until the first drop every kept edge is already in place.
                if keep_at != r {
                    line[keep_at] = line[r];
                    self.edges[keep_at] = self.edges[r];
                    self.degs[keep_at] = self.degs[r];
                }
                keep_at += 1;
            }
        }
        line[keep_at..before].fill(PAD);
        self.edges.truncate(keep_at);
        self.degs.truncate(keep_at);
        let dropped = before - keep_at;
        if dropped > 0 {
            self.weakest = NO_EDGE; // recomputed lazily at the cap
        }
        dropped
    }

    /// Recompute the weakest-edge index by `(cached degree, to)`: the
    /// first index of the smallest degree in `total_cmp` order — the line
    /// is sorted by id, so first is lowest id. Integer keys and two
    /// conditional moves an edge; nothing branches on the data.
    fn rescan_weakest(&mut self, line: &[u32]) {
        debug_assert!(line[..self.degs.len()].is_sorted());
        let mut keys = self.degs.iter().map(|&d| total_order_key(d));
        let Some(mut least) = keys.next() else {
            self.weakest = NO_EDGE;
            return;
        };
        let mut weakest = 0;
        for (i, key) in (1..).zip(keys) {
            let better = key < least;
            weakest = if better { i } else { weakest };
            least = if better { key } else { least };
        }
        self.weakest = weakest;
    }

    /// Is `(degree, to)` strictly weaker than the current weakest edge?
    #[inline]
    fn weaker_than_weakest(&self, line: &[u32], degree: f64, to: u32) -> bool {
        match self.degs.get(self.weakest as usize) {
            Some(w) => match degree.total_cmp(w) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Equal => to < line[self.weakest as usize],
                std::cmp::Ordering::Greater => false,
            },
            None => true,
        }
    }

    /// A live slot with no accesses and no edges is semantically inactive
    /// and must be freed (the slab holds active nodes only).
    #[inline]
    fn is_inactive(&self) -> bool {
        self.total == 0.0 && self.edges.is_empty()
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
    /// What is known of this pair's path term without evaluating it, as
    /// `(largest intersection value it can take, its item count)` — see
    /// [`crate::semvec::path_term_bound`]. A full node uses it to turn the
    /// candidate away before the term is computed; a maximum of 0.0 *is*
    /// the term, which is then never evaluated at all. `None`: nothing is
    /// known, evaluate.
    pub path_bound: Option<(f64, u32)>,
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

/// What the edge updates committed by [`CorrelationGraph::mine_batch`]
/// turned out to be, counted since the graph was created or restored (the
/// counts are diagnostics, not part of [`crate::state::GraphState`]).
/// Every update is exactly one of the first five.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateMix {
    /// The successor was already in the node: accumulators updated.
    pub hits: u64,
    /// A new successor at a node below the cap.
    pub inserts: u64,
    /// Turned away at a full node on the path-term bound alone.
    pub early_rejects: u64,
    /// Turned away at a full node after its path term was evaluated.
    pub exact_rejects: u64,
    /// A new successor at a full node: the weakest edge made room.
    pub admits: u64,
    /// Path terms evaluated (the thunk of `mine_batch` called).
    pub path_terms: u64,
    /// Updates whose phase-1 position an earlier update of the same batch
    /// had shifted, so phase 2 searched again.
    pub relocates: u64,
}

impl UpdateMix {
    /// Edge updates committed so far.
    pub fn updates(&self) -> u64 {
        self.hits + self.inserts + self.early_rejects + self.exact_rejects + self.admits
    }
}

/// The correlation graph: a slab of live node slots, the slab of their
/// successor ids, and an id→slot index.
#[derive(Debug)]
pub struct CorrelationGraph {
    /// Live nodes, densely packed; freeing swap-removes.
    slots: Vec<Node>,
    /// Successor ids of every slot: slot `s` owns the line
    /// `ids[s * stride..(s + 1) * stride]`, its `slots[s].edges.len()` ids
    /// sorted ascending and the rest [`PAD`]. The line is one address
    /// computation from the slot index, and a sweep over every node's ids
    /// streams contiguous memory.
    ids: Vec<u32>,
    /// Ids per line, a multiple of [`LANES`]: 16 until a node grows past
    /// it (only a `max_successors` above 16 lets one), never less than the
    /// longest line. Every node pays for it, used or not.
    stride: usize,
    /// file id → slot index.
    index: FxHashMap<u32, u32>,
    num_edges: usize,
    /// Global log-scale decay epoch: Σ ln(factor) over all `age` calls.
    decay_ln: f64,
    /// Mutation epoch: bumped by every state-changing operation, so read
    /// layers ([`crate::CorrelationSource::version`], snapshot staleness
    /// checks) can validate derived views in O(1).
    epoch: u64,
    /// Reused victim prefilter of [`CorrelationGraph::remove_edges_to_any`].
    filter: Vec<u8>,
    /// Emptied `edges` / `degs` buffers of freed nodes, at most
    /// [`SPARE_NODES`] pairs, handed to the nodes created next: under a
    /// node cap every eviction is followed by as many admissions, and the
    /// refill then never calls the allocator. Not part of the state image.
    spare: Vec<(Vec<EdgeData>, Vec<f64>)>,
    mix: UpdateMix,
}

impl Default for CorrelationGraph {
    fn default() -> Self {
        CorrelationGraph {
            slots: Vec::new(),
            ids: Vec::new(),
            stride: LANES,
            index: FxHashMap::default(),
            num_edges: 0,
            decay_ln: 0.0,
            epoch: 0,
            filter: Vec::new(),
            spare: Vec::new(),
            mix: UpdateMix::default(),
        }
    }
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

    /// The id line of slot `s` (pad included).
    #[inline]
    fn line(&self, s: usize) -> &[u32] {
        &self.ids[span(s, self.stride)]
    }

    /// Slot `s` and its id line, both mutable.
    #[inline]
    fn node_and_line(&mut self, s: usize) -> (&mut Node, &mut [u32]) {
        (&mut self.slots[s], &mut self.ids[span(s, self.stride)])
    }

    /// Slot of `file`, allocating a fresh one if absent.
    fn slot_or_insert(&mut self, file: FileId) -> usize {
        if let Some(&s) = self.index.get(&file.raw()) {
            return s as usize;
        }
        let s = self.slots.len();
        let mut node = Node::fresh(file.raw(), self.decay_ln);
        if let Some((edges, degs)) = self.spare.pop() {
            (node.edges, node.degs) = (edges, degs);
        }
        self.slots.push(node);
        self.ids.resize(self.ids.len() + self.stride, PAD);
        self.index.insert(file.raw(), s as u32);
        s
    }

    /// Free slot `s`: swap-remove it — node and id line alike — and
    /// re-point the index entry of the slot that moved into its place.
    fn free_slot(&mut self, s: usize) {
        let mut node = self.slots.swap_remove(s);
        self.index.remove(&node.id);
        if self.spare.len() < SPARE_NODES && node.edges.capacity() > 0 {
            node.edges.clear();
            node.degs.clear();
            self.spare.push((node.edges, node.degs));
        }
        let (last, stride) = (self.slots.len(), self.stride);
        if s < last {
            self.ids.copy_within(span(last, stride), s * stride);
            self.index.insert(self.slots[s].id, s as u32);
        }
        self.ids.truncate(last * stride);
    }

    /// Widen every line to `stride` ids (a multiple of [`LANES`]).
    fn restride(&mut self, stride: usize) {
        let mut ids = vec![PAD; self.slots.len() * stride];
        for (old, new) in self
            .ids
            .chunks_exact(self.stride)
            .zip(ids.chunks_exact_mut(stride))
        {
            new[..old.len()].copy_from_slice(old);
        }
        self.ids = ids;
        self.stride = stride;
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
    /// weight `weight` with semantic similarity `sim`: one
    /// [`CorrelationGraph::mine_batch`] update whose similarity is a pure
    /// scalar part (one matching item) with an empty path term, which the
    /// kernel reproduces exactly — `(sim + 0) / (1 + 0) = sim` — and never
    /// has to evaluate. Enforces the per-node successor cap from `cfg` as
    /// every update does.
    ///
    /// A given edge must be driven consistently through *either* this
    /// pre-combined-similarity API *or* decomposed
    /// [`CorrelationGraph::mine_batch`] updates: the memoized denominator
    /// baked into the edge assumes the scalar-item convention of whichever
    /// call created it, so mixing the two on one edge would mis-scale later
    /// similarities.
    pub fn update_edge(
        &mut self,
        from: FileId,
        to: FileId,
        weight: f64,
        sim: f64,
        cfg: &FarmerConfig,
    ) {
        let update = PredUpdate {
            file: from,
            hint: NodeHint::NONE,
            weight,
            s_inter: sim,
            s_items: 1,
            path_bound: Some((0.0, 0)),
        };
        self.mine_batch(&[update], to, false, |_| (0.0, 0), cfg);
    }

    /// Mine one event against a batch of windowed predecessors in two
    /// phases. Phase 1 resolves every predecessor's slot and searches its
    /// id line once (`locate`: branch-free, hits and misses alike),
    /// prefetching the edge payload a hit will touch — the per-predecessor
    /// payload line is the one cold load of the mining loop (nodes and id
    /// lines stay hot because consecutive events share four of five
    /// predecessors), so overlapping those loads is what pipelining buys.
    /// Phase 2 commits the updates at the positions phase 1 found, after a
    /// two-compare check that the position still brackets `to`: only a
    /// predecessor that appears twice in one batch (A B A C) can have had
    /// its line shifted in between, and only then is it searched again.
    ///
    /// What an update costs depends on what it turns out to be (see
    /// [`UpdateMix`]; most are rejects at a full node):
    ///
    /// * **hit** — accumulate into the prefetched payload with the
    ///   memoized path term; recache the degree.
    /// * **insert** (node below the cap) — evaluate the term, shift the
    ///   line and the two parallel arrays.
    /// * **early reject** (full node) — with the weakest edge known, bound
    ///   the candidate's degree from above through
    ///   [`PredUpdate::path_bound`]: the exact degree's own operation
    ///   sequence with the path intersection at its maximum, every step of
    ///   which (`+`, `× inv_denom`, `× p`, `+`) is monotone under IEEE
    ///   rounding for `p ≥ 0`. If even that does not beat the weakest
    ///   cached degree, return: no path looked up or compared, nothing
    ///   written.
    /// * **exact reject / admit** (full node, bound passed) — evaluate the
    ///   term and decide as the bound would have with perfect knowledge;
    ///   an admit replaces the weakest edge in one move per array and
    ///   re-scans for the new weakest.
    ///
    /// `path_term(pred_file)` is invoked only for an insert, an exact
    /// reject or an admit whose bound is not already the term, and for a
    /// hit whose memo went stale.
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
            let mut loc = [(0usize, 0usize); PIPELINE_WIDTH];
            for (k, pu) in chunk.iter().enumerate() {
                let s = match self.slot_by_hint(pu.file, pu.hint) {
                    Some(s) => s,
                    None => self.slot_or_insert(pu.file),
                };
                let node = &self.slots[s];
                let (pos, hit) = locate(self.line(s), node.edges.len(), to_raw);
                if hit {
                    prefetch_read(&node.edges[pos]);
                }
                loc[k] = (s, pos);
            }
            for (pu, &(s, pos)) in chunk.iter().zip(&loc) {
                self.apply_at(
                    s,
                    pos,
                    to_raw,
                    pu,
                    succ_has_path,
                    || path_term(pu.file),
                    cfg,
                );
            }
        }
    }

    /// Commit one edge update at a resolved slot; `pos` is where phase 1
    /// found (or would insert) `to`.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn apply_at(
        &mut self,
        s: usize,
        mut pos: usize,
        to: u32,
        pu: &PredUpdate,
        succ_has_path: bool,
        path: impl FnOnce() -> (f64, u32),
        cfg: &FarmerConfig,
    ) {
        let p = cfg.p;
        let cap = cfg.max_successors.max(1);
        let decay_ln = self.decay_ln;
        let stride = self.stride;
        let mix = &mut self.mix;
        let node = &mut self.slots[s];
        let line = &mut self.ids[span(s, stride)];
        node.refresh(decay_ln);
        let total = node.total.max(1.0);
        let len = node.edges.len();
        if !brackets(line, pos, to) {
            pos = locate(line, len, to).0;
            mix.relocates += 1;
        }
        let inv_of = |path_items: u32| match pu.s_items + path_items {
            0 => 0.0,
            denom => 1.0 / f64::from(denom),
        };
        // Evaluate the pair's path term; it must be what the bound promised.
        let evaluate = |mix: &mut UpdateMix| {
            mix.path_terms += 1;
            let (inter, items) = path();
            debug_assert!(pu
                .path_bound
                .is_none_or(|(max_inter, n)| n == items && inter <= max_inter));
            (inter, items)
        };

        if pos < len && line[pos] == to {
            mix.hits += 1;
            let e = &mut node.edges[pos];
            if e.inv_denom.is_nan() || e.succ_path != succ_has_path {
                // Memo stale: marked by a late predecessor-path learn or an
                // attribute-config change, or the successor's path presence
                // flipped versus the event the memo was computed from.
                // Recompute the pair term once, then memoize again.
                let (path_inter, path_items) = evaluate(mix);
                e.path_inter = path_inter;
                e.inv_denom = inv_of(path_items);
                e.succ_path = succ_has_path;
            }
            let sim = (pu.s_inter + e.path_inter) * e.inv_denom;
            e.mass += pu.weight;
            e.sim_sum += sim;
            e.sim_n += 1;
            let avg = e.sim_sum / e.sim_n as f64;
            let deg = miner::correlation_degree(avg, miner::access_frequency(e.mass, total), p);
            node.degs[pos] = deg;
            node.sim_lb = node.sim_lb.min(sim);
            if node.weakest == NO_EDGE {
                // Already stale; recomputed lazily when the cap bites.
            } else if node.weakest == pos as u32 {
                node.weakest = NO_EDGE; // may have strengthened: go lazy
            } else if node.weaker_than_weakest(line, deg, to) {
                node.weakest = pos as u32;
            }
            return;
        }

        // A new successor. At a full node it has to beat the weakest edge
        // by cached degree, so have that in hand first.
        let full = len >= cap;
        if full && node.weakest == NO_EDGE {
            node.rescan_weakest(line);
        }
        // `correlation_degree` with the frequency half hoisted: the same
        // operations in the same order, whatever path intersection goes in.
        let freq_part = miner::access_frequency(pu.weight, total) * (1.0 - p);
        let degree_of = |path_inter: f64, path_items: u32| {
            let inv_denom = inv_of(path_items);
            let sim = (pu.s_inter + path_inter) * inv_denom;
            (inv_denom, sim, sim * p + freq_part)
        };
        // `× p` is monotone only for p ≥ 0: a config outside [0, 1] simply
        // evaluates every term.
        let mut term = None;
        if let Some((max_inter, path_items)) = pu.path_bound.filter(|_| p >= 0.0) {
            let (.., upper) = degree_of(max_inter, path_items);
            if full && upper <= node.degs[node.weakest as usize] {
                mix.early_rejects += 1;
                return; // even the most it could be does not beat the weakest
            }
            if max_inter == 0.0 {
                term = Some((max_inter, path_items)); // nothing can intersect
            }
        }
        let (path_inter, path_items) = term.unwrap_or_else(|| evaluate(mix));
        let (inv_denom, sim, degree) = degree_of(path_inter, path_items);
        let edge = EdgeData {
            mass: pu.weight,
            sim_sum: sim,
            sim_n: 1,
            path_inter,
            inv_denom,
            succ_path: succ_has_path,
        };
        if !full {
            mix.inserts += 1;
            self.num_edges += 1;
            if len == stride {
                // Only a cap above the stride gets here. Doubling keeps a
                // growing cap's re-strides logarithmic; the cap bounds it.
                self.restride(cap.min(2 * stride).next_multiple_of(LANES));
            }
            let (node, line) = self.node_and_line(s);
            line.copy_within(pos..len, pos + 1);
            line[pos] = to;
            node.edges.insert(pos, edge);
            node.degs.insert(pos, degree);
            node.sim_lb = node.sim_lb.min(sim);
            if node.weakest != NO_EDGE {
                if node.weakest as usize >= pos {
                    node.weakest += 1; // shifted by the insert
                }
                if node.weaker_than_weakest(line, degree, to) {
                    node.weakest = pos as u32;
                }
            }
            return;
        }
        // Cap reached: admit only if strictly stronger than the weakest;
        // on admit, evict it and re-scan (admits are the rare path).
        let w = node.weakest as usize;
        if degree > node.degs[w] {
            mix.admits += 1;
            replace_sorted(&mut line[..len], w, pos, to);
            replace_sorted(&mut node.edges, w, pos, edge);
            replace_sorted(&mut node.degs, w, pos, degree);
            node.sim_lb = node.sim_lb.min(sim);
            node.rescan_weakest(line);
        } else {
            mix.exact_rejects += 1;
        }
    }

    /// Iterate over the successors of `file` (ordered by successor id) with
    /// degrees computed against the current `N(file)`.
    pub fn edges(&self, file: FileId, cfg: &FarmerConfig) -> impl Iterator<Item = EdgeView> + '_ {
        /// What an unknown file reads as: no accesses, no successors.
        static ABSENT: Node = Node::fresh(u32::MAX, 0.0);
        let (node, line) = match self.slot_of(file) {
            Some(s) => (&self.slots[s], self.line(s)),
            None => (&ABSENT, &[][..]),
        };
        node.views(line, self.decay_ln, cfg.p)
    }

    /// Stage 4 for the whole graph in one pass over the slab: visit every
    /// node that has at least one successor of degree ≥ `min_degree` with
    /// those successors in the canonical order (decreasing degree, ties by
    /// ascending file id). Degrees are the ones [`CorrelationGraph::edges`]
    /// reports, bit for bit; the threshold cuts before the sort, so a node
    /// pays for ranking only what it publishes. Owners arrive in slab
    /// order, which depends on eviction history — callers that need a
    /// stable order sort by owner.
    ///
    /// `cached_bound` is the caller vouching that every cached degree in
    /// the graph was written under `cfg.p`, or has been checked against it
    /// ([`CorrelationGraph::cached_degrees_bound`]). The cached degree of
    /// an edge is then an upper bound on its degree now (see
    /// [`CACHED_DEGREE_MARGIN`]), so an edge whose cached degree is below
    /// the threshold by more than the margin is skipped without its
    /// payload being read, and a node with no other kind of edge without
    /// its pending decay being worked out; what survives is evaluated
    /// exactly as without the filter, so the lists are the same either way. With
    /// `cached_bound` false, a `p` outside `[0, 1]` or a threshold that is
    /// not positive, every edge is evaluated.
    pub fn for_each_list(
        &self,
        cfg: &FarmerConfig,
        min_degree: f64,
        cached_bound: bool,
        mut visit: impl FnMut(FileId, &[Correlator]),
    ) {
        let p = cfg.p;
        let cut = if cached_bound && (0.0..=1.0).contains(&p) && min_degree > 0.0 {
            min_degree * (1.0 - CACHED_DEGREE_MARGIN)
        } else {
            f64::NEG_INFINITY // below every degree, NaN included: no filter
        };
        let mut list: Vec<Correlator> = Vec::new();
        for (node, line) in self.slots.iter().zip(self.ids.chunks_exact(self.stride)) {
            list.clear();
            // Worked out for the first edge that needs it: a node with
            // nothing near the threshold costs a scan of its cached degrees.
            let mut scale = None;
            for ((e, &to), &cached) in node.edges.iter().zip(line).zip(&node.degs) {
                if cached < cut {
                    continue;
                }
                let scale = *scale.get_or_insert_with(|| node.read_scale(self.decay_ln));
                let degree = Node::view(e, to, scale, p).degree;
                if miner::is_valid(degree, min_degree) {
                    list.push(Correlator {
                        file: FileId::new(to),
                        degree,
                    });
                }
            }
            if !list.is_empty() {
                list.sort_unstable_by(rank_cmp);
                visit(FileId::new(node.id), &list);
            }
        }
    }

    /// Is every cached degree an upper bound — within half of
    /// [`CACHED_DEGREE_MARGIN`], the other half being left for what decay
    /// is still to come — on its edge's degree now, under `cfg.p`? True of
    /// any graph whose cached degrees were all written under that `p`;
    /// what a restored model asks of an image, which cannot say what `p`
    /// its degrees were written under. Once true it stays true while `p`
    /// stays: an untouched edge's degree only falls, a touched edge's
    /// cached degree is rewritten. One read-only pass over every edge.
    pub fn cached_degrees_bound(&self, cfg: &FarmerConfig) -> bool {
        let p = cfg.p;
        (0.0..=1.0).contains(&p)
            && self
                .slots
                .iter()
                .zip(self.ids.chunks_exact(self.stride))
                .all(|(node, line)| {
                    node.views(line, self.decay_ln, p)
                        .zip(&node.degs)
                        .all(|(e, &cached)| e.degree <= cached * (1.0 + CACHED_DEGREE_MARGIN / 2.0))
                })
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
            let (node, line) = self.node_and_line(s);
            if node.edges.is_empty() || p * node.sim_lb >= floor {
                s += 1;
                continue;
            }
            node.refresh(decay_ln);
            let total = node.total.max(1.0);
            let mut sim_lb = f64::INFINITY;
            let dropped = node.compact(line, |_, e| {
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
                let removed = self.slots[s].edges.len();
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
    /// One pass in slab order that reads the id slab and nothing else until
    /// a line matches: each 16-id line, pad included, is tested against a
    /// hashed prefilter of the victims — a byte per bucket, at least 128
    /// buckets a victim, in a table whose size is a compile-time constant
    /// (8 KiB for the streaming miner's 64-victim batch at its default cap;
    /// 64 KiB, 512 KiB and 4 MiB for larger ones), so the sixteen lookups
    /// carry no bounds check and no exit. Under 1 % of the surviving ids match; only
    /// then is the node read, its ids proper — never the pad — put through
    /// filter and binary search, and the node rewritten if it does hold a
    /// doomed successor. O(e) contiguous id reads plus writes proportional
    /// to what is removed; the table is reused between calls.
    pub fn remove_edges_to_any(&mut self, victims: &[FileId]) -> usize {
        debug_assert!(victims.windows(2).all(|w| w[0] <= w[1]), "unsorted");
        // The smallest table that gives every victim its 128 buckets; past
        // 32 768 victims the largest one just grows denser.
        match victims.len() {
            0..=64 => self.sweep::<{ 1 << 13 }>(victims),
            65..=512 => self.sweep::<{ 1 << 16 }>(victims),
            513..=4096 => self.sweep::<{ 1 << 19 }>(victims),
            _ => self.sweep::<{ 1 << 22 }>(victims),
        }
    }

    /// [`CorrelationGraph::remove_edges_to_any`] against a prefilter of `N`
    /// buckets (a power of two, so the bucket is a constant shift of the
    /// hash and provably inside the table).
    fn sweep<const N: usize>(&mut self, victims: &[FileId]) -> usize {
        self.epoch += 1;
        // Every node is active on entry (each operation frees what it
        // empties), so only a node this sweep rewrites can need freeing.
        debug_assert!(self.slots.iter().all(|n| !n.is_inactive()));
        let mut filter = std::mem::take(&mut self.filter);
        filter.clear();
        filter.resize(N, 0);
        // lint: allow(panic) the line above made it N bytes long
        let table: &mut [u8; N] = filter.first_chunk_mut().expect("resized to N");
        for v in victims {
            table[bucket::<N>(v.raw())] = 1;
        }
        let table = &*table;
        let doomed = |to: u32| {
            table[bucket::<N>(to)] != 0 && victims.binary_search(&FileId::new(to)).is_ok()
        };
        let stride = self.stride;
        let mut removed = 0;
        let mut s = 0;
        // Stream the id slab from slot `s` to the next line the filter
        // marks — pad and all, so nothing else is read on the way; the
        // marked line's node then decides on its ids proper, exactly.
        while let Some(skip) = self.ids[s * stride..]
            .chunks_exact(stride)
            .position(|line| marks(line, table) != 0)
        {
            s += skip;
            let (node, line) = self.node_and_line(s);
            if line[..node.edges.len()].iter().any(|&to| doomed(to)) {
                removed += node.compact(line, |to, _| !doomed(to));
                if node.is_inactive() {
                    self.free_slot(s);
                    continue; // the last line moved into `s`: scan it next
                }
            }
            s += 1;
        }
        self.filter = filter;
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
    /// storage this equals [`CorrelationGraph::active_nodes`] — there is
    /// no dense spine up to the largest file id.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.slots.len()
    }

    /// Number of live edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// The mutation epoch: changes whenever any graph state changes, so a
    /// derived view (an exported table) stamped with the epoch it was
    /// built at can be staleness-checked in O(1).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// What the edge updates so far turned out to be (see [`UpdateMix`]).
    #[inline]
    pub fn update_mix(&self) -> UpdateMix {
        self.mix
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
                .zip(self.ids.chunks_exact(self.stride))
                .map(|(n, line)| crate::state::NodeState {
                    id: n.id,
                    total: n.total.to_bits(),
                    stamp: n.stamp.to_bits(),
                    sim_lb: n.sim_lb.to_bits(),
                    edges: line
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
    /// restored bit for bit in slab order; the id→slot index, the edge
    /// count and the id slab's stride (the longest list in the image,
    /// rounded up to whole lines) are re-derived, and the per-node
    /// weakest-edge cache starts stale (`NO_EDGE`), which the next cap
    /// decision resolves by a rescan to the same `(degree, to)` minimum the
    /// incremental cache would have held.
    pub fn from_state(state: &crate::state::GraphState) -> CorrelationGraph {
        let longest = state.nodes.iter().map(|n| n.edges.len()).max().unwrap_or(0);
        let stride = longest.next_multiple_of(LANES).max(LANES);
        let mut g = CorrelationGraph {
            slots: Vec::with_capacity(state.nodes.len()),
            ids: vec![PAD; state.nodes.len() * stride],
            stride,
            decay_ln: f64::from_bits(state.decay_ln),
            epoch: state.epoch,
            ..CorrelationGraph::default()
        };
        for (s, (ns, line)) in state
            .nodes
            .iter()
            .zip(g.ids.chunks_exact_mut(stride))
            .enumerate()
        {
            let mut node = Node::fresh(ns.id, f64::from_bits(ns.stamp));
            node.total = f64::from_bits(ns.total);
            node.sim_lb = f64::from_bits(ns.sim_lb);
            for (slot, e) in line.iter_mut().zip(&ns.edges) {
                *slot = e.to;
            }
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
            g.num_edges += node.edges.len();
            g.index.insert(ns.id, s as u32);
            g.slots.push(node);
        }
        g
    }

    /// Approximate heap bytes held by the graph (Table 4 accounting):
    /// node slab + id slab + per-node edge storage + id→slot index + the
    /// eviction sweep's prefilter, each at capacity. O(active nodes), and —
    /// unlike the dense spine — independent of id magnitudes.
    pub fn heap_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Node>()
            + self.ids.capacity() * std::mem::size_of::<u32>()
            + self
                .slots
                .iter()
                .map(|n| buffer_bytes(&n.edges, &n.degs))
                .sum::<usize>()
            + self.index.capacity() * (2 * std::mem::size_of::<u32>() + 8)
            + self.filter.capacity()
            + self.spare.capacity() * std::mem::size_of::<(Vec<EdgeData>, Vec<f64>)>()
            + self
                .spare
                .iter()
                .map(|(edges, degs)| buffer_bytes(edges, degs))
                .sum::<usize>()
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

    /// A pathless update from `file` at scalar similarity 0.5.
    fn pred(file: u32, weight: f64) -> PredUpdate {
        PredUpdate {
            file: f(file),
            hint: NodeHint::NONE,
            weight,
            s_inter: 0.5,
            s_items: 1,
            path_bound: Some((0.0, 0)),
        }
    }

    /// The search [`locate`] replaced: a forward scan of the ids proper with
    /// an early exit.
    fn lower_bound(tos: &[u32], to: u32) -> usize {
        tos.iter().position(|&t| t >= to).unwrap_or(tos.len())
    }

    impl CorrelationGraph {
        /// [`CorrelationGraph::mine_batch`] as it was before the reject-first
        /// kernel, kept as the reference the differential tests compare
        /// against: an early-exit search in phase 1 and, for anything but a
        /// validated hit, a second one in phase 2; the path term of every
        /// new successor evaluated before the one comparison that may turn
        /// it away ([`PredUpdate::path_bound`] is never read); an admit as
        /// a remove followed by an insert.
        pub(crate) fn mine_batch_reference(
            &mut self,
            preds: &[PredUpdate],
            to: FileId,
            succ_has_path: bool,
            mut path_term: impl FnMut(FileId) -> (f64, u32),
            cfg: &FarmerConfig,
        ) {
            self.epoch += 1;
            let to = to.raw();
            for chunk in preds.chunks(PIPELINE_WIDTH) {
                let located: Vec<(usize, Option<usize>)> = chunk
                    .iter()
                    .map(|pu| {
                        let s = match self.slot_by_hint(pu.file, pu.hint) {
                            Some(s) => s,
                            None => self.slot_or_insert(pu.file),
                        };
                        let tos = &self.line(s)[..self.slots[s].edges.len()];
                        let pos = lower_bound(tos, to);
                        (s, (tos.get(pos) == Some(&to)).then_some(pos))
                    })
                    .collect();
                for (pu, (s, hint)) in chunk.iter().zip(located) {
                    self.apply_reference(s, hint, to, pu, succ_has_path, &mut path_term, cfg);
                }
            }
        }

        #[allow(clippy::too_many_arguments)]
        fn apply_reference(
            &mut self,
            s: usize,
            pos_hint: Option<usize>,
            to: u32,
            pu: &PredUpdate,
            succ_has_path: bool,
            path_term: &mut dyn FnMut(FileId) -> (f64, u32),
            cfg: &FarmerConfig,
        ) {
            let p = cfg.p;
            let cap = cfg.max_successors.max(1);
            let decay_ln = self.decay_ln;
            if self.slots[s].edges.len() == self.stride && self.stride < cap {
                self.restride(cap.min(2 * self.stride).next_multiple_of(LANES));
            }
            let (node, line) = self.node_and_line(s);
            node.refresh(decay_ln);
            let total = node.total.max(1.0);
            let len = node.edges.len();
            let inv_of = |denom: u32| match denom {
                0 => 0.0,
                denom => 1.0 / f64::from(denom),
            };
            let (pos, hit) = match pos_hint {
                Some(ph) if ph < len && line[ph] == to => (ph, true),
                _ => {
                    let pos = lower_bound(&line[..len], to);
                    (pos, pos < len && line[pos] == to)
                }
            };
            if hit {
                let e = &mut node.edges[pos];
                if e.inv_denom.is_nan() || e.succ_path != succ_has_path {
                    let (path_inter, path_items) = path_term(pu.file);
                    e.path_inter = path_inter;
                    e.inv_denom = inv_of(pu.s_items + path_items);
                    e.succ_path = succ_has_path;
                }
                let sim = (pu.s_inter + e.path_inter) * e.inv_denom;
                e.mass += pu.weight;
                e.sim_sum += sim;
                e.sim_n += 1;
                let avg = e.sim_sum / e.sim_n as f64;
                let deg = miner::correlation_degree(avg, miner::access_frequency(e.mass, total), p);
                node.degs[pos] = deg;
                node.sim_lb = node.sim_lb.min(sim);
                if node.weakest == NO_EDGE {
                } else if node.weakest == pos as u32 {
                    node.weakest = NO_EDGE;
                } else if node.weaker_than_weakest(line, deg, to) {
                    node.weakest = pos as u32;
                }
                return;
            }
            let (path_inter, path_items) = path_term(pu.file);
            let inv_denom = inv_of(pu.s_items + path_items);
            let sim = (pu.s_inter + path_inter) * inv_denom;
            let degree =
                miner::correlation_degree(sim, miner::access_frequency(pu.weight, total), p);
            let edge = EdgeData {
                mass: pu.weight,
                sim_sum: sim,
                sim_n: 1,
                path_inter,
                inv_denom,
                succ_path: succ_has_path,
            };
            let insert = |node: &mut Node, line: &mut [u32], len: usize, pos: usize| {
                line.copy_within(pos..len, pos + 1);
                line[pos] = to;
                node.edges.insert(pos, edge);
                node.degs.insert(pos, degree);
                node.sim_lb = node.sim_lb.min(sim);
            };
            if len < cap {
                insert(node, line, len, pos);
                if node.weakest != NO_EDGE {
                    if node.weakest as usize >= pos {
                        node.weakest += 1;
                    }
                    if node.weaker_than_weakest(line, degree, to) {
                        node.weakest = pos as u32;
                    }
                }
                self.num_edges += 1;
                return;
            }
            if node.weakest == NO_EDGE {
                node.rescan_weakest(line);
            }
            let w = node.weakest as usize;
            if degree > node.degs[w] {
                line.copy_within(w + 1..len, w);
                line[len - 1] = PAD;
                node.edges.remove(w);
                node.degs.remove(w);
                let pos = line[..len - 1].partition_point(|&t| t < to);
                insert(node, line, len - 1, pos);
                node.rescan_weakest(line);
            }
        }

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
                let (node, line) = self.node_and_line(s);
                let from = FileId::new(node.id);
                removed += node.compact(line, |to, _| keep(from, FileId::new(to)));
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

    /// `ids` as the slab holds them: padded out to `stride`.
    fn padded_line(ids: &[u32], stride: usize) -> Vec<u32> {
        let mut line = ids.to_vec();
        line.resize(stride, PAD);
        line
    }

    #[test]
    fn locate_equals_the_early_exit_search_on_every_line() {
        // Every length 0..=40 (strides 16, 32, 48), two id sets per length
        // — one ending in the pad value itself — and every `to` that can
        // matter: below the first id, each id, each gap, above the last,
        // `u32::MAX`.
        for len in 0..=40usize {
            let stride = len.next_multiple_of(LANES).max(LANES);
            for top in [None, Some(u32::MAX)] {
                let mut ids: Vec<u32> = (0..len as u32).map(|j| 10 + 3 * j).collect();
                if let (Some(top), Some(last)) = (top, ids.last_mut()) {
                    *last = top;
                }
                let line = padded_line(&ids, stride);
                let mut probes: Vec<u32> = vec![0, 9, u32::MAX - 1, u32::MAX];
                for &id in &ids {
                    probes.extend([id.wrapping_sub(1), id, id.wrapping_add(1)]);
                }
                for to in probes {
                    let want = lower_bound(&ids, to);
                    let got = locate(&line, len, to);
                    assert_eq!(got, (want, ids.get(want) == Some(&to)), "len {len} to {to}");
                    // The bracket check accepts that position and no other.
                    for pos in 0..=stride {
                        assert_eq!(brackets(&line, pos, to), pos == want, "len {len} to {to}");
                    }
                }
            }
        }
    }

    #[test]
    fn replace_sorted_is_a_remove_then_an_insert() {
        let run: Vec<u32> = (0..8).map(|j| 10 * (j + 1)).collect();
        for w in 0..run.len() {
            for new in [5u32, 15, 45, 75, 85] {
                let pos = lower_bound(&run, new);
                let mut want = run.clone();
                want.remove(w);
                let at = lower_bound(&want, new);
                want.insert(at, new);
                let mut got = run.clone();
                replace_sorted(&mut got, w, pos, new);
                assert_eq!(got, want, "w {w} new {new}");
            }
        }
    }

    #[test]
    fn in_batch_shift_is_caught_by_the_bracket_check() {
        // A B A C at a full node, twice over: phase 1 finds both of A's
        // updates the same position. In the first batch the earlier update
        // inserts C, so the later one must hit it; in the second the
        // earlier one admits D by evicting the weakest edge *below* D's
        // position, which shifts it — the stale position fails the bracket
        // check and is searched again.
        let mut c = cfg();
        c.max_successors = 3;
        c.p = 1.0; // degree == similarity
        let update = |s_inter: f64| PredUpdate {
            s_inter,
            ..pred(7, 1.0)
        };
        let build = |kernel: bool| {
            let mut g = CorrelationGraph::new();
            g.record_access(f(7));
            let mut batch = |preds: &[PredUpdate], to: u32| {
                if kernel {
                    g.mine_batch(preds, f(to), false, |_| (0.0, 0), &c);
                } else {
                    g.mine_batch_reference(preds, f(to), false, |_| (0.0, 0), &c);
                }
            };
            batch(&[update(0.1)], 10); // weakest, lowest id
            batch(&[update(0.5)], 20);
            batch(&[update(0.6), update(0.6)], 30); // insert, then hit
            batch(&[update(0.7), update(0.7)], 40); // admit over 10, then hit
            g
        };
        let (new, old) = (build(true), build(false));
        assert_eq!(new.export_state(), old.export_state());
        let succs: Vec<u32> = new.edges(f(7), &c).map(|e| e.to.raw()).collect();
        assert_eq!(succs, vec![20, 30, 40]);
        let mix = new.update_mix();
        assert_eq!((mix.hits, mix.inserts, mix.admits), (2, 3, 1));
        assert_eq!(mix.relocates, 1, "only the shifted position is re-located");
        assert_eq!(mix.path_terms, 0, "a bound of 0.0 is the term");
    }

    #[test]
    fn stride_follows_a_raised_cap_and_a_restore() {
        let mut c = cfg();
        c.max_successors = 40;
        let mut g = CorrelationGraph::new();
        for from in 0..3 {
            for to in (100..140).rev() {
                g.update_edge(f(from), f(to), 1.0, 0.5, &c);
            }
        }
        assert_eq!(g.stride, 48, "16 -> 32 -> 48: doubled, bounded by the cap");
        let ids: Vec<u32> = g.edges(f(1), &c).map(|e| e.to.raw()).collect();
        assert_eq!(ids, (100..140).collect::<Vec<u32>>());
        // Freeing a slot moves the last line into its place, whole.
        g.clear_node(f(0));
        assert_eq!(g.edges(f(2), &c).count(), 40);
        assert_eq!(g.ids.len(), 2 * 48);
        let back = CorrelationGraph::from_state(&g.export_state());
        assert_eq!(back.stride, 48);
        assert_eq!(back.export_state(), g.export_state());
        assert!(back.line(0)[40..].iter().all(|&t| t == PAD));
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
            let preds = [pred(7, 1.0), pred(7, 0.8)];
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
        let stale = PredUpdate {
            hint: hint_a,
            ..pred(1, 1.0)
        };
        g.mine_batch(&[stale], f(9), false, |_| (0.0, 0), &c);
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
    fn cached_degrees_vouch_for_nothing_when_p_is_above_one() {
        // A model refuses such a `p` (`FarmerConfig::validate`); a graph
        // driven directly takes the `cfg` it is handed. With (1 − p)
        // negative a degree *rises* as its node's total grows, so the
        // cached one is no bound, whoever vouches for it.
        let c = FarmerConfig { p: 1.5, ..cfg() };
        let mut g = CorrelationGraph::new();
        g.record_access(f(0));
        g.update_edge(f(0), f(1), 1.0, 0.5, &c);
        let cached = g.edges(f(0), &c).next().unwrap().degree;
        for _ in 0..3 {
            g.record_access(f(0));
        }
        let now = g.edges(f(0), &c).next().unwrap().degree;
        assert!(now > cached, "{cached} -> {now}");
        assert!(!g.cached_degrees_bound(&c));
        // A threshold the cached degree fails and the degree meets.
        let mut published = Vec::new();
        g.for_each_list(&c, (cached + now) / 2.0, true, |owner, list| {
            published.push((owner, list.to_vec()));
        });
        assert_eq!(published.len(), 1, "the filter hid a valid edge");
        assert_eq!(published[0].1[0].degree.to_bits(), now.to_bits());
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
    fn sweep_tells_an_edge_to_the_pad_value_from_the_pad() {
        // `u32::MAX` is a legal file id and what id lines are padded with.
        // One node holds a real edge to it, one has only pad behind a short
        // list, one has a full line (no pad at all) and one a full line
        // ending in the real `u32::MAX`: evicting that id takes the two
        // real edges and nothing else, as the closure sweep does.
        let c = cfg();
        let build = || {
            let mut g = CorrelationGraph::new();
            g.update_edge(f(1), f(u32::MAX), 1.0, 0.5, &c);
            g.update_edge(f(1), f(9), 1.0, 0.5, &c);
            g.update_edge(f(2), f(5), 1.0, 0.5, &c);
            for to in 100..116 {
                g.update_edge(f(3), f(to), 1.0, 0.5, &c);
                g.update_edge(f(4), f(if to == 115 { u32::MAX } else { to }), 1.0, 0.5, &c);
            }
            assert_eq!(g.stride, LANES);
            assert_eq!(g.slots[2].edges.len(), LANES, "a line without pad");
            g
        };
        let (mut new, mut old) = (build(), build());
        assert_eq!(new.remove_edges_to_any(&[f(u32::MAX)]), 2);
        assert_eq!(old.retain_edges_reference(|_, to| to != f(u32::MAX)), 2);
        assert_eq!(new.export_state(), old.export_state());
        assert_eq!(new.num_edges(), 1 + 1 + 16 + 15);
        assert!(new.edges(f(4), &c).all(|e| e.to != f(u32::MAX)));
        // Again, with nothing real left to find: the pads alone match the
        // filter and nothing changes.
        let before = new.export_state().nodes;
        assert_eq!(new.remove_edges_to_any(&[f(u32::MAX)]), 0);
        assert_eq!(new.export_state().nodes, before);
    }

    #[test]
    fn weakest_rescan_is_the_first_smallest_in_total_order() {
        // Equal degrees (the lowest id wins), both zeroes, subnormals, an
        // infinity and NaNs of either sign, in every rotation: the integer
        // keys pick what `total_cmp().then(id)` picked.
        let nan = f64::from_bits(0x7FFF_FFFF_FFFF_FFFF); // keyed `i64::MAX`
        let degs = [
            0.3,
            0.0,
            f64::MIN_POSITIVE / 2.0,
            -0.0,
            0.3,
            5e-324,
            nan,
            f64::INFINITY,
            -0.0,
            -nan,
            0.1,
            0.1,
        ];
        let line = padded_line(
            &(0..degs.len() as u32).map(|j| 10 + j).collect::<Vec<_>>(),
            LANES,
        );
        for keep in 1..=degs.len() {
            for turn in 0..degs.len() {
                let mut degs = degs.to_vec();
                degs.rotate_left(turn);
                degs.truncate(keep);
                let want = degs
                    .iter()
                    .zip(&line)
                    .enumerate()
                    .min_by(|(_, (a, at)), (_, (b, bt))| a.total_cmp(b).then(at.cmp(bt)))
                    .map(|(i, _)| i as u32);
                let mut node = Node::fresh(1, 0.0);
                node.degs = degs;
                node.rescan_weakest(&line);
                assert_eq!(Some(node.weakest), want, "keep {keep} turn {turn}");
            }
        }
        let mut empty = Node::fresh(1, 0.0);
        empty.weakest = 3;
        empty.rescan_weakest(&line);
        assert_eq!(empty.weakest, NO_EDGE);
        // And the key itself orders as `total_cmp` does.
        for a in degs {
            for b in degs {
                assert_eq!(total_order_key(a).cmp(&total_order_key(b)), a.total_cmp(&b));
            }
        }
    }

    #[test]
    fn freed_buffers_are_handed_to_the_next_nodes_and_counted() {
        let c = cfg();
        let mut g = CorrelationGraph::new();
        for from in 0..200u32 {
            for to in 1000..1008 {
                g.update_edge(f(from), f(to), 1.0, 0.5, &c);
            }
        }
        let full = g.heap_bytes();
        for from in 0..200u32 {
            g.clear_node(f(from));
        }
        // The pool is bounded, holds only emptied buffers, and is counted.
        assert_eq!(g.spare.len(), SPARE_NODES);
        assert!(g.spare.iter().all(|(e, d)| e.is_empty() && d.is_empty()));
        let pooled: usize = g.spare.iter().map(|(e, d)| buffer_bytes(e, d)).sum();
        assert!(pooled >= SPARE_NODES * 8 * (std::mem::size_of::<EdgeData>() + 8));
        assert!(g.heap_bytes() >= pooled && g.heap_bytes() < full);
        assert_eq!(g.export_state().nodes, vec![], "the pool is not state");
        // New nodes take from it, and start out empty all the same.
        g.update_edge(f(500), f(1), 1.0, 0.5, &c);
        assert_eq!(g.spare.len(), SPARE_NODES - 1);
        assert!(g.slots[0].edges.capacity() >= 8);
        assert_eq!(g.edges(f(500), &c).count(), 1);
        let back = CorrelationGraph::from_state(&g.export_state());
        assert_eq!(back.export_state(), g.export_state());
        assert!(back.spare.is_empty());
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
        let (node, line) = g.node_and_line(0);
        assert_eq!(node.compact(line, |_, _| true), 0);
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
