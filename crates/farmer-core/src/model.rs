//! The FARMER model façade: the four-stage pipeline wired together.
//!
//! "This is an iterative process that repeats itself for each incoming
//! request" (paper §3.1): every call to [`Farmer::observe`] runs
//! Extracting → Constructing → Mining & Evaluating, and the Sorting stage
//! is served on demand through [`CorrelationSource`] —
//! [`Farmer::correlators`] materializes an owned list over the same path,
//! and [`Farmer::correlator_table`] runs it for every file at once, in
//! one pass over the graph.
//!
//! # Serving (the query layer)
//!
//! The model implements [`CorrelationSource`] by reading the graph: a
//! top-k query evaluates the degrees of the node's edges (at most
//! `max_successors` of them) into the caller's buffer, partially selects
//! the k strongest and sorts those — O(deg + k log k), nothing kept
//! between queries — and [`CorrelationSource::strongest`] is one O(deg)
//! scan. Every query therefore sees the state the last observe / prune /
//! eviction left, which is the only state the iterative process of
//! §3.1 ever asks about: each consumer of a live model queries right after
//! an observation. Many reads of one state are what
//! [`Farmer::correlator_table`] exports a table for. The model holds no
//! interior mutability, so it is `Sync`.
//!
//! The configuration is decided once: [`Farmer::new`] and
//! [`Farmer::from_state`] validate it and nothing changes it afterwards,
//! so what follows from it (the LDA table, whether the cached degrees
//! vouch for `p`) is worked out there, not re-checked per event. The one
//! way a different configuration meets existing state is
//! `Farmer::from_state(other_cfg, &model.export_state())`.
//!
//! # Two stages
//!
//! A model is its two stages ([`crate::stage`]), run one after the other
//! on one thread: every observe and forget is prepared by the
//! [`StreamStage`] — which owns the look-ahead window, the learned paths
//! and their signatures, and the LDA table, and evaluates each update's
//! scalar match and path-term bound, and each path term the graph stage
//! asks for — and applied by the [`GraphStage`], which owns the
//! [`CorrelationGraph`], the slot hints and the kernel's scratch, and
//! answers every query and walk.
//! [`Farmer::into_stages`] hands them out to run apart; that is how
//! `farmer-stream` runs a shard on two threads.
//!
//! The model is deliberately front-end agnostic ("black-box", §3.1): it
//! consumes plain [`Request`] tuples plus an optional path, so it can sit
//! behind a trace replayer, a metadata server, or a live file system.
//!
//! # The mining hot path
//!
//! [`Farmer::observe`] is the loop everything else rides on. It is
//! allocation-free and makes at most `window` edge updates per event — and
//! what it is tuned for is that most of them change nothing: with the
//! successor cap in place, four of five steady-state updates are a
//! candidate turned away from a full node (the measured mix is in
//! [`crate::graph`]'s module docs and counted by
//! [`CorrelationGraph::update_mix`]).
//!
//! * **LDA weights** come from a table built once from the window
//!   ([`FarmerConfig::lda_weights`]) — not re-derived per predecessor per
//!   event.
//! * **Similarity** is split ([`crate::semvec`]) into a branch-free scalar
//!   match mask (per event) and a **memoized path term** keyed by
//!   `(predecessor file, successor file)`. Paths are learned once per file,
//!   so the path term is a pure function of the pair; it is evaluated only
//!   where the signatures below do not settle it and the update's outcome
//!   needs it, and the graph stage stores it *on the edge* when the edge
//!   is created, which
//!   makes invalidation free — [`Farmer::forget_files`] and cap eviction remove
//!   the edge, and the term with it. The one way a memo can go stale
//!   without the edge dying — a path learned only after the file already
//!   had edges — marks the affected memos for recomputation on next touch.
//! * **Admission before evaluation**: a new successor at a full node has
//!   to beat the node's weakest edge, and an upper bound on its degree
//!   needs no path — only the two paths' 16-byte *signatures*
//!   ([`crate::semvec::PathSig`]: a 64-bit set of directory bits, the file
//!   name, the depth), from which [`crate::semvec::path_term_bound`]
//!   bounds the IPA term and, for the common clean signature, usually
//!   *is* the term. A signature is computed once when a path is learned
//!   and kept beside it; each window entry carries its file's, and the
//!   event's offered path gets one per event. So a candidate that cannot
//!   make it reads no path on the graph's side, a pair in disjoint
//!   directories never evaluates its term at all (the bound says 0.0), and
//!   on a stream without paths the bound is the degree itself. A model's
//!   graph stage asks its stream stage for a term only when an update
//!   consumes it: on HP under the node cap 0.78 an event, of which 0.08
//!   pass the bound only to fail the exact term. (Stages run apart
//!   evaluate every unsettled term ahead, 2.2 an event; see
//!   [`crate::stage`].)
//! * **Storage** is id-sparse end to end: learned paths live in a hash map
//!   and the graph in slotted storage, so resident memory tracks live
//!   files, not the largest file id ever interned.
//!
//! # Complexity (w = window, d = successor cap, n = active nodes, e = edges)
//!
//! | phase | cost |
//! |---|---|
//! | per event, stream stage | w window entries: a scalar match and a path-term bound from the two signatures; a path term (path², one path-map probe) for each update below that takes one — run apart, for every entry whose bound is not the term |
//! | per event, graph stage | w updates, each one vectorised pass over a 16-id line, then by outcome: hit — memoized term, one prefetched payload line; insert / admit — the term, O(d) shift or rescan; early reject — the bound and one comparison; exact reject (2 % of updates) — the same plus the term |
//! | per prune tick | O(n + e) prune with per-node skip |
//! | per snapshot/eviction | O(1) `active_nodes` counter |
//! | query (`top_k_into`) | O(deg + k log k), deg ≤ d; `strongest` and `degree` O(deg) |
//! | publication (`correlator_table`) | the walk (`walk_table`): one pass over the slab, prefetching ahead; an edge whose cached degree sits below the threshold is skipped unread when the cached degrees were written under (or, on restore, checked against) the configured `p`. Then the assembly (`TableWalk::assemble`): an owner sort, a gather and an index, which needs only the walk |
//! | resident bytes | O(live files) |

use farmer_trace::{FileId, FilePath, MiningAction, Trace, TraceEvent};

use crate::config::FarmerConfig;
use crate::correlator::{Correlator, CorrelatorList, CorrelatorTable, TableWalk};
use crate::extract::Request;
use crate::graph::CorrelationGraph;
use crate::source::{rank_cmp, CorrelationSource};
use crate::stage::{GraphStage, StreamStage};

/// The FARMER model: feed requests, query sorted correlator lists.
#[derive(Debug)]
pub struct Farmer {
    /// The window, the learned paths, the per-pair preparation.
    stream: StreamStage,
    /// The graph and what changes it.
    graph: GraphStage,
}

impl Farmer {
    /// A fresh model with the given configuration.
    ///
    /// # Panics
    /// If `cfg` is not one a model can run under
    /// ([`FarmerConfig::validate`]).
    pub fn new(cfg: FarmerConfig) -> Self {
        cfg.validate();
        Farmer {
            stream: StreamStage::new(cfg.clone()),
            graph: GraphStage::new(cfg),
        }
    }

    /// The configuration, as given at construction.
    pub fn config(&self) -> &FarmerConfig {
        self.stream.config()
    }

    /// Number of requests observed so far.
    pub fn observed(&self) -> u64 {
        self.stream.observed()
    }

    /// Read access to the correlation graph (diagnostics, tests, layout).
    pub fn graph(&self) -> &CorrelationGraph {
        self.graph.graph()
    }

    /// The model's two stages, to run apart: the stream stage prepares
    /// each operation's steps ([`StreamStage::observe_where`],
    /// [`StreamStage::forget_files`]) and the graph stage applies them
    /// ([`GraphStage::apply`]), in the order prepared, wherever it runs.
    /// Together they go on exactly as this model would.
    pub fn into_stages(self) -> (StreamStage, GraphStage) {
        (self.stream, self.graph)
    }

    /// Observe one request (stages 1–3 for this request).
    ///
    /// `path` is the file's path if the front-end knows it; it is learned
    /// and cached per file on first sight.
    pub fn observe(&mut self, req: Request, path: Option<&FilePath>) {
        self.observe_where(req, path, |_| true);
    }

    /// Observe one request under a file-ownership partition, which must be
    /// the same partition on every call (what a file's window entry records
    /// of it is recorded under the partition of the call that pushed it).
    ///
    /// This is the sharded-mining entry point (`farmer-stream`): every
    /// partition instance receives the *full* request stream so its
    /// look-ahead window carries the true global access order, but the
    /// instance only accounts for files it owns — `N(file)` and the learned
    /// path are updated only when `owns(req.file)`, and edges are mined
    /// only from windowed predecessors with `owns(pred.file)`. The union of
    /// the partition graphs over a disjoint ownership cover equals the
    /// graph a single [`Farmer::observe`] loop would build.
    ///
    /// The stream stage prepares the request's step, the graph stage
    /// applies it (see [`crate::stage`]).
    pub fn observe_where(
        &mut self,
        req: Request,
        path: Option<&FilePath>,
        owns: impl Fn(FileId) -> bool,
    ) {
        self.stream.prepare(req, path, owns, &mut self.graph);
    }

    /// Mine one trace event under [`farmer_trace::Op::mining_action`].
    pub fn observe_event(&mut self, trace: &Trace, e: &TraceEvent) {
        match e.op.mining_action() {
            MiningAction::Observe => self.observe(Request::from_event(e), trace.path_of(e.file)),
            MiningAction::Forget => _ = self.forget_file(e.file),
            MiningAction::Skip => {}
        }
    }

    /// Batch-mine an entire trace, one [`Farmer::observe_event`] an event.
    pub fn mine_trace(trace: &Trace, cfg: FarmerConfig) -> Farmer {
        let mut farmer = Farmer::new(cfg);
        for e in &trace.events {
            farmer.observe_event(trace, e);
        }
        farmer
    }

    /// Stage 4: the sorted, thresholded Correlator List of `file`,
    /// evaluated against the *current* access counts.
    ///
    /// This materializes an owned list (exports, diagnostics). The serving
    /// hot path queries through [`CorrelationSource`] instead —
    /// `top_k_into` fills a caller buffer it reuses, so steady-state
    /// queries allocate nothing.
    pub fn correlators(&self, file: FileId) -> CorrelatorList {
        self.correlators_with_threshold(file, self.config().max_strength)
    }

    /// Correlator list under an explicit threshold (used by the
    /// `max_strength` sweeps without re-mining). Same unified query path
    /// as [`CorrelationSource::top_k_into`]; only the list is owned.
    pub fn correlators_with_threshold(&self, file: FileId, max_strength: f64) -> CorrelatorList {
        let mut entries = Vec::new();
        self.top_k_into(file, usize::MAX, max_strength, &mut entries);
        CorrelatorList::from_sorted(file, entries)
    }

    /// Stage 4 for every file at once: the table of all non-empty
    /// Correlator Lists under `max_strength`, ordered by owner id — so two
    /// models holding the same graph export the same table, whatever
    /// order eviction history left their slabs in. Each list equals
    /// [`Farmer::correlators`] of its owner bit for bit.
    ///
    /// [`Farmer::walk_table`] then [`TableWalk::assemble`]: one pass over
    /// the graph slab into a scratch slab, one sort of the owners, one
    /// gather. The allocation count does not depend on how many lists
    /// there are.
    pub fn correlator_table(&self) -> CorrelatorTable {
        self.walk_table().assemble()
    }

    /// The part of [`Farmer::correlator_table`] that reads the model: one
    /// pass over the graph slab ([`CorrelationGraph::for_each_list`])
    /// copying every published list into a scratch slab. What is left,
    /// [`TableWalk::assemble`], reads only the walk, so a caller may hand
    /// it to another thread and go on mining.
    pub fn walk_table(&self) -> TableWalk {
        self.graph.walk_table()
    }

    /// Evict one file from the model entirely: its learned path, its node
    /// (access count + outgoing edges), every incoming edge, and any
    /// look-ahead-window entry referencing it. Afterwards the model behaves
    /// as if the file had never been observed; a later access re-admits it
    /// as a fresh file. Returns the number of edges removed.
    pub fn forget_file(&mut self, file: FileId) -> usize {
        self.forget_files(&[file])
    }

    /// Batched [`Farmer::forget_file`]: evicts every file in `files` with a
    /// *single* pass over the graph for the incoming-edge cleanup
    /// (the graph's `remove_edges_to_any`: one id line read per
    /// live node, only nodes that lose an edge rewritten), paid once per
    /// batch instead of once per victim and allocation-free after the
    /// first call. Returns the number of edges removed.
    pub fn forget_files(&mut self, files: &[FileId]) -> usize {
        self.stream.forget_into(files, &mut self.graph)
    }

    /// Approximate resident heap bytes of the model: graph (including the
    /// per-edge memoized path terms), learned paths, the look-ahead
    /// window's `Request` payload, and the LDA table. Regenerates the
    /// paper's Table 4 space-overhead numbers — every live structure is
    /// accounted, so the figure stays honest under eviction and
    /// re-admission. Path components are counted in full
    /// ([`FilePath::heap_bytes`]) although a learned path's buffer may be
    /// shared with the caller that offered it.
    pub fn memory_bytes(&self) -> usize {
        self.stream.heap_bytes() + self.graph.heap_bytes()
    }

    /// Export the model's full state as plain data for checkpoint
    /// images: the graph (bit-exact, see [`crate::state`]), the
    /// look-ahead window, the learned paths (sorted by file id), and the
    /// observation count. Derived structures (LDA table, scratch) are
    /// functions of the config and are not carried.
    pub fn export_state(&self) -> crate::state::FarmerState {
        self.stream.export_state(self.graph.export_state())
    }

    /// Rebuild a model from an exported state image under `cfg`. To
    /// continue the stream as the exporting model would have, `cfg` must
    /// be the configuration the image was taken under (the same contract
    /// WAL replay has: determinism holds only for identical configs);
    /// under another, queries and publication evaluate the image's
    /// accumulators under the new `p` / `max_strength`, and mining goes on
    /// under the new values. Window slot hints restart as
    /// `NodeHint::NONE` — a stale-hint probe miss, which the graph treats
    /// identically.
    ///
    /// # Panics
    /// As [`Farmer::new`].
    pub fn from_state(cfg: FarmerConfig, state: &crate::state::FarmerState) -> Farmer {
        cfg.validate();
        Farmer {
            stream: StreamStage::from_state(cfg.clone(), state),
            graph: GraphStage::from_state(cfg, state),
        }
    }

    /// `file`'s successors of degree ≥ `min_degree`, in successor-id order.
    fn valid_edges(&self, file: FileId, min_degree: f64) -> impl Iterator<Item = Correlator> + '_ {
        self.graph()
            .edges(file, self.config())
            .filter(move |e| crate::miner::is_valid(e.degree, min_degree))
            .map(|e| Correlator {
                file: e.to,
                degree: e.degree,
            })
    }
}

impl CorrelationSource for Farmer {
    fn version(&self) -> u64 {
        self.graph().epoch()
    }

    fn top_k_into(&self, file: FileId, k: usize, min_degree: f64, out: &mut Vec<Correlator>) {
        out.clear();
        if k == 0 {
            return;
        }
        // Degrees are evaluated here, against the current `N(file)`:
        // whatever the last observe / forget left is what the query sees.
        out.extend(self.valid_edges(file, min_degree));
        if k < out.len() {
            // Partition the k strongest to the front, then order only those.
            out.select_nth_unstable_by(k - 1, rank_cmp);
            out.truncate(k);
        }
        out.sort_unstable_by(rank_cmp);
    }

    fn strongest(&self, file: FileId, min_degree: f64) -> Option<Correlator> {
        // First in the canonical order = least under `rank_cmp`.
        self.valid_edges(file, min_degree).min_by(rank_cmp)
    }

    fn degree(&self, from: FileId, to: FileId) -> Option<f64> {
        self.graph()
            .edges(from, self.config())
            .find(|e| e.to == to)
            .map(|e| e.degree)
    }

    fn for_each_list(&self, visit: &mut dyn FnMut(FileId, &[Correlator])) {
        self.graph.for_each_list(visit);
    }

    fn heap_bytes(&self) -> usize {
        self.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PRUNE_FLOOR;
    use crate::graph::UpdateMix;
    use farmer_trace::{DevId, HostId, PathInterner, ProcId, UserId, WorkloadSpec};

    fn req(file: u32, uid: u32, pid: u32, host: u32) -> Request {
        Request {
            file: FileId::new(file),
            uid: UserId::new(uid),
            pid: ProcId::new(pid),
            host: HostId::new(host),
            dev: DevId::new(0),
        }
    }

    /// Feed the sequence A B C D from one process and check the LDA masses.
    #[test]
    fn abcd_lda_masses_match_paper() {
        let mut f = Farmer::new(FarmerConfig::default());
        for file in 0..4 {
            f.observe(req(file, 1, 1, 1), None);
        }
        let cfg = f.config().clone();
        let edges: Vec<_> = f.graph().edges(FileId::new(0), &cfg).collect();
        let mass_of = |to: u32| {
            edges
                .iter()
                .find(|e| e.to == FileId::new(to))
                .map(|e| e.mass)
                .unwrap_or(0.0)
        };
        assert!((mass_of(1) - 1.0).abs() < 1e-12, "B mass {}", mass_of(1));
        assert!((mass_of(2) - 0.9).abs() < 1e-12, "C mass {}", mass_of(2));
        assert!((mass_of(3) - 0.8).abs() < 1e-12, "D mass {}", mass_of(3));
    }

    #[test]
    fn repeated_predecessor_in_window_accumulates_both_distances() {
        // A B A C: observing C mines A at distance 1 (w=1.0) and again at
        // distance 3 (w=0.8) — the batched pipeline must commit both.
        let mut f = Farmer::new(FarmerConfig::default());
        f.observe(req(0, 1, 1, 1), None);
        f.observe(req(1, 1, 1, 1), None);
        f.observe(req(0, 1, 1, 1), None);
        f.observe(req(2, 1, 1, 1), None);
        let cfg = f.config().clone();
        let mass = f
            .graph()
            .edges(FileId::new(0), &cfg)
            .find(|e| e.to == FileId::new(2))
            .map(|e| e.mass)
            .unwrap_or(0.0);
        assert!((mass - 1.8).abs() < 1e-12, "mass {mass}");
    }

    #[test]
    fn late_path_learn_refreshes_memoized_terms() {
        // File 0 is first observed pathless, so the memoized 0→1 term has
        // no path intersection. When its path arrives later, the memo must
        // be refreshed: subsequent co-occurrences carry the path signal.
        let mut i = PathInterner::new();
        let pa = i.parse("/home/u1/d/a");
        let pb = i.parse("/home/u1/d/b");
        let mut f = Farmer::new(FarmerConfig::default());
        f.observe(req(0, 1, 1, 1), None); // path withheld
        f.observe(req(1, 1, 1, 1), Some(&pb)); // sim = 3/4 (one-sided path)
        f.observe(req(0, 1, 1, 1), Some(&pa)); // late install -> invalidate
        f.observe(req(1, 1, 1, 1), Some(&pb)); // 0→1 twice: sim = 3.75/4
        let cfg = f.config().clone();
        let e = f
            .graph()
            .edges(FileId::new(0), &cfg)
            .find(|e| e.to == FileId::new(1))
            .unwrap();
        // sim_avg = (0.75 + 0.9375 + 0.9375) / 3 = 0.875, not a stale 0.75.
        assert!((e.sim_avg - 0.875).abs() < 1e-12, "sim_avg {}", e.sim_avg);
    }

    #[test]
    fn partitioned_union_handles_late_path_arrival() {
        // File 1's path is withheld at first and arrives later. The
        // memoized path terms must refresh identically in the batch model
        // and in every ownership partition — including the partition that
        // does *not* own file 1 and therefore never learns its path (the
        // successor side of the memo is guarded by the per-edge path
        // presence flag, not by learn_path).
        let mut i = PathInterner::new();
        let pa = i.parse("/home/u1/d/a");
        let pb = i.parse("/home/u1/d/b");
        let stream = [
            (req(0, 1, 1, 1), Some(&pa)),
            (req(1, 1, 1, 1), None), // pathless at first
            (req(0, 1, 1, 1), Some(&pa)),
            (req(1, 1, 1, 1), Some(&pb)), // path arrives late
            (req(0, 1, 1, 1), Some(&pa)),
            (req(1, 1, 1, 1), Some(&pb)),
        ];
        let mut whole = Farmer::new(FarmerConfig::default());
        let mut even = Farmer::new(FarmerConfig::default());
        let mut odd = Farmer::new(FarmerConfig::default());
        for (r, p) in &stream {
            whole.observe(*r, *p);
            even.observe_where(*r, *p, |f| f.raw() % 2 == 0);
            odd.observe_where(*r, *p, |f| f.raw() % 2 == 1);
        }
        let cfg = whole.config().clone();
        for file in 0..2u32 {
            let fid = FileId::new(file);
            let part = if file % 2 == 0 { &even } else { &odd };
            let want: Vec<_> = whole
                .graph()
                .edges(fid, &cfg)
                .map(|e| (e.to, e.mass, e.sim_avg))
                .collect();
            let got: Vec<_> = part
                .graph()
                .edges(fid, &cfg)
                .map(|e| (e.to, e.mass, e.sim_avg))
                .collect();
            assert_eq!(got.len(), want.len(), "edge count diverged for f{file}");
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.0, w.0);
                assert!((g.1 - w.1).abs() < 1e-12, "mass diverged for f{file}");
                assert!(
                    (g.2 - w.2).abs() < 1e-12,
                    "sim diverged for f{file}: {} vs {}",
                    g.2,
                    w.2
                );
            }
        }
        // And the late path genuinely contributes: the 0→1 similarity mean
        // must exceed the one-sided 0.75 it would stay at if stale.
        let e = whole
            .graph()
            .edges(FileId::new(0), &cfg)
            .find(|e| e.to == FileId::new(1))
            .unwrap();
        assert!(e.sim_avg > 0.76, "stale successor term: {}", e.sim_avg);
    }

    #[test]
    fn self_transitions_ignored() {
        let mut f = Farmer::new(FarmerConfig::default());
        f.observe(req(0, 1, 1, 1), None);
        f.observe(req(0, 1, 1, 1), None);
        let cfg = f.config().clone();
        assert_eq!(f.graph().edges(FileId::new(0), &cfg).count(), 0);
    }

    #[test]
    fn window_limits_reach() {
        let mut cfg = FarmerConfig::default();
        cfg.window = 2;
        let mut f = Farmer::new(cfg.clone());
        for file in 0..5 {
            f.observe(req(file, 1, 1, 1), None);
        }
        // 0 can only reach 1 and 2 with window 2.
        let succs: Vec<u32> = f
            .graph()
            .edges(FileId::new(0), &cfg)
            .map(|e| e.to.raw())
            .collect();
        assert_eq!(succs.len(), 2);
        assert!(succs.contains(&1) && succs.contains(&2));
    }

    #[test]
    fn correlator_list_sorted_and_thresholded() {
        let mut f = Farmer::new(FarmerConfig::default());
        // Same-context successor (high sim) and cross-context one (low sim).
        for _ in 0..10 {
            f.observe(req(0, 1, 1, 1), None);
            f.observe(req(1, 1, 1, 1), None); // same user/pid/host
            f.observe(req(0, 1, 1, 1), None);
            f.observe(req(2, 9, 9, 9), None); // foreign context
        }
        let l = f.correlators(FileId::new(0));
        assert!(!l.is_empty());
        // Sorted descending.
        for w in l.entries().windows(2) {
            assert!(w[0].degree >= w[1].degree);
        }
        // The same-context successor outranks the foreign one.
        assert_eq!(l.head().unwrap().file, FileId::new(1));
    }

    #[test]
    fn threshold_query_does_not_require_remine() {
        let mut f = Farmer::new(FarmerConfig::default());
        for _ in 0..5 {
            f.observe(req(0, 1, 1, 1), None);
            f.observe(req(1, 1, 1, 1), None);
        }
        let lo = f.correlators_with_threshold(FileId::new(0), 0.0);
        let hi = f.correlators_with_threshold(FileId::new(0), 0.99);
        assert!(lo.len() >= hi.len());
    }

    #[test]
    fn paths_are_learned_once() {
        let mut i = PathInterner::new();
        let pa = i.parse("/home/u1/proj/a");
        let pb = i.parse("/home/u1/proj/b");
        let mut f = Farmer::new(FarmerConfig::default());
        f.observe(req(0, 1, 1, 1), Some(&pa));
        f.observe(req(1, 1, 1, 1), Some(&pb));
        f.observe(req(0, 1, 1, 1), Some(&pa));
        f.observe(req(1, 1, 1, 1), Some(&pb));
        let l = f.correlators_with_threshold(FileId::new(0), 0.0);
        // Path similarity contributes: same dir -> sim well above scalar-only.
        assert!(
            l.head().unwrap().degree > 0.8,
            "degree {}",
            l.head().unwrap().degree
        );
    }

    #[test]
    fn memory_grows_then_prune_shrinks() {
        let mut cfg = FarmerConfig::default();
        cfg.prune_interval = 0; // manual pruning only
        let trace = WorkloadSpec::res().scaled(0.05).generate();
        let mut f = Farmer::new(cfg);
        for e in &trace.events {
            f.observe_event(&trace, e);
        }
        let edges_before = f.graph().num_edges();
        assert!(edges_before > 0);
        let cfg = f.config().clone();
        let removed = f.graph.graph.prune_below(PRUNE_FLOOR, &cfg);
        assert!(removed > 0);
        assert_eq!(f.graph().num_edges(), edges_before - removed);
    }

    #[test]
    fn mine_trace_consumes_everything() {
        let trace = WorkloadSpec::ins().scaled(0.02).generate();
        let f = Farmer::mine_trace(&trace, FarmerConfig::pathless());
        assert_eq!(f.observed(), trace.len() as u64);
        assert!(f.graph().num_edges() > 0);
        assert!(f.memory_bytes() > 0);
    }

    #[test]
    fn forget_file_erases_every_trace_of_it() {
        let mut f = Farmer::new(FarmerConfig::default());
        for _ in 0..5 {
            f.observe(req(0, 1, 1, 1), None);
            f.observe(req(1, 1, 1, 1), None);
            f.observe(req(2, 1, 1, 1), None);
        }
        assert!(!f.correlators_with_threshold(FileId::new(0), 0.0).is_empty());
        f.forget_file(FileId::new(1));
        // No outgoing edges, no access count, and no incoming edges.
        assert!(f.correlators_with_threshold(FileId::new(1), 0.0).is_empty());
        assert_eq!(f.graph().total_accesses(FileId::new(1)), 0.0);
        let cfg = f.config().clone();
        for file in [0u32, 2] {
            assert!(
                f.graph()
                    .edges(FileId::new(file), &cfg)
                    .all(|e| e.to != FileId::new(1)),
                "stale incoming edge from f{file}"
            );
        }
    }

    #[test]
    fn forget_files_batch_matches_sequential() {
        let build = || {
            let mut f = Farmer::new(FarmerConfig::default());
            for round in 0..4 {
                for file in 0..6 {
                    f.observe(req(file, round, 1, 1), None);
                }
            }
            f
        };
        let mut batched = build();
        let mut sequential = build();
        let victims = [FileId::new(1), FileId::new(4)];
        let removed_batch = batched.forget_files(&victims);
        let removed_seq: usize = victims.iter().map(|&v| sequential.forget_file(v)).sum();
        assert_eq!(removed_batch, removed_seq);
        assert_eq!(batched.graph().num_edges(), sequential.graph().num_edges());
        assert_eq!(
            batched.graph().active_nodes(),
            sequential.graph().active_nodes()
        );
    }

    /// The kernel against the reference — the layout-free statement of the
    /// mining rule in `tests/spec/` — bit for bit after every call, over
    /// seeded streams under every attribute combination, path algorithm
    /// and successor cap the kernel distinguishes (see
    /// `spec::lockstep::run`), each asserting that its path ran.
    #[test]
    fn kernel_matches_the_reference_bit_for_bit() {
        use crate::spec::lockstep::{cfg, run, Stream, DENSE};
        use crate::{AttrCombo, PathMode};
        // Pathless, IPA and DPA combos at a cap every node reaches; here and
        // below, a prune every fourth event, so that every stream drops
        // something.
        let mut seen = UpdateMix::default();
        for (seed, combo, mode) in [
            (1, AttrCombo::ins_default(), PathMode::Ipa),
            (2, AttrCombo::hp_default(), PathMode::Ipa),
            (3, AttrCombo::hp_default(), PathMode::Dpa),
        ] {
            let modes = FarmerConfig {
                combo,
                path_mode: mode,
                ..cfg(3, 4)
            };
            let both = run(modes, seed, DENSE);
            let mix = both.mix();
            assert!(both.spec.counts.pruned > 0, "seed {seed}: nothing pruned");
            assert!(mix.relocates > 0, "no A B A C at a full node: {mix:?}");
            assert!(mix.admits > 50 && mix.hits > 500, "{mix:?}");
            assert!(mode == PathMode::Dpa || mix.early_rejects > 500, "{mix:?}");
            assert!(
                combo != AttrCombo::hp_default() || mix.exact_rejects > 50,
                "{mix:?}"
            );
            seen = mix;
        }
        // DPA says nothing of a pair unless neither file has a path.
        assert!(seen.early_rejects * 4 < seen.exact_rejects, "{seen:?}");
        // A cap of one, caps up to a full 16-id line, a cap raised to the
        // full line across a restore, and both halves of an ownership
        // partition.
        for (seed, cap, files, part, raise) in [
            (4, 1, 64, None, None),
            (5, 8, 64, None, None),
            (6, 15, 64, None, None),
            (7, 16, 64, None, None),
            (8, 4, 64, None, Some((600, 16))),
            (9, 4, 12, Some(0), None),
            (10, 4, 12, Some(1), None),
        ] {
            let s = Stream {
                files,
                part,
                raise,
                ..DENSE
            };
            let both = run(cfg(cap, 4), seed, s);
            assert!(both.mix().inserts > 100, "seed {seed}: {:?}", both.mix());
            assert!(both.spec.counts.pruned > 0, "seed {seed}: nothing pruned");
        }
    }

    #[test]
    fn update_mix_on_hp_is_mostly_rejects_settled_without_a_path() {
        // The steady state the benchmark times: one warm-up lap, then the
        // mix of a second lap over the same trace.
        let trace = WorkloadSpec::hp().scaled(0.1).generate();
        let mut f = Farmer::new(FarmerConfig::default());
        let events: Vec<TraceEvent> = trace.stream().take(2 * trace.len()).collect();
        // What the window makes of the stream, counted on its own: every
        // windowed predecessor that is not the file itself is one update.
        let (mut updates, mut warm_updates) = (0u64, 0u64);
        let mut warm = UpdateMix::default();
        for (i, e) in events.iter().enumerate() {
            if i == trace.len() {
                (warm, warm_updates) = (f.graph().update_mix(), updates);
            }
            f.observe_event(&trace, e);
            let window = &events[i.saturating_sub(f.config().window)..i];
            updates += window.iter().filter(|w| w.file != e.file).count() as u64;
        }
        let all = f.graph().update_mix();
        assert_eq!(all.updates(), updates, "an update went unclassified");
        assert_eq!(warm.updates(), warm_updates);
        let lap = |field: fn(&UpdateMix) -> u64| field(&all) - field(&warm);
        let updates = updates - warm_updates;
        let rejects = lap(|m| m.early_rejects) + lap(|m| m.exact_rejects);
        assert!(rejects * 2 > updates, "{rejects} rejects of {updates}");
        assert!(
            lap(|m| m.early_rejects) * 10 > updates,
            "the bound settles nothing"
        );
        // Before the bound every insert and every full-node candidate
        // evaluated a term: ≈ 4.2 an event on this stream, and ≈ 2.4 when
        // the bound knew only which side has a path. With the signatures
        // few candidates pass the bound only to fail the exact term.
        let per_event = lap(|m| m.path_terms) as f64 / trace.len() as f64;
        assert!(per_event <= 1.0, "{per_event} path terms an event");
        assert!(
            lap(|m| m.exact_rejects) * 20 <= updates,
            "the signature settles too little"
        );
        assert!(lap(|m| m.relocates) * 100 <= updates);
    }

    #[test]
    fn forgotten_file_readmits_as_fresh() {
        let mut f = Farmer::new(FarmerConfig::default());
        for _ in 0..10 {
            f.observe(req(0, 1, 1, 1), None);
            f.observe(req(1, 1, 1, 1), None);
        }
        f.forget_file(FileId::new(1));
        // Re-admission: the pair builds back up from zero. The window kept
        // its three file-0 entries ([1,0,1,0,1] minus the victims, plus the
        // fresh 0), so the rebuilt mass is 1.0 + 0.9 + 0.8 — not the ~19
        // the ten alternating rounds had accumulated before the eviction.
        f.observe(req(0, 1, 1, 1), None);
        f.observe(req(1, 1, 1, 1), None);
        let cfg = f.config().clone();
        let mass = f
            .graph()
            .edges(FileId::new(0), &cfg)
            .find(|e| e.to == FileId::new(1))
            .map(|e| e.mass)
            .unwrap_or(0.0);
        assert!((mass - 2.7).abs() < 1e-12, "mass restarted at {mass}");
    }

    #[test]
    fn partitioned_union_equals_batch() {
        // Two ownership partitions (even/odd file ids) fed the same stream
        // must together hold exactly the edges of the unpartitioned model.
        let stream: Vec<Request> = (0..200)
            .map(|i| req((i * 7) % 9, i % 3, 1, i % 2))
            .collect();
        let mut whole = Farmer::new(FarmerConfig::default());
        let mut even = Farmer::new(FarmerConfig::default());
        let mut odd = Farmer::new(FarmerConfig::default());
        for r in &stream {
            whole.observe(*r, None);
            even.observe_where(*r, None, |f| f.raw() % 2 == 0);
            odd.observe_where(*r, None, |f| f.raw() % 2 == 1);
        }
        let cfg = whole.config().clone();
        for file in 0..9u32 {
            let fid = FileId::new(file);
            let part = if file % 2 == 0 { &even } else { &odd };
            let mut want: Vec<_> = whole
                .graph()
                .edges(fid, &cfg)
                .map(|e| (e.to.raw(), e.mass, e.degree))
                .collect();
            let mut got: Vec<_> = part
                .graph()
                .edges(fid, &cfg)
                .map(|e| (e.to.raw(), e.mass, e.degree))
                .collect();
            want.sort_by_key(|a| a.0);
            got.sort_by_key(|a| a.0);
            assert_eq!(got.len(), want.len(), "edge count diverged for f{file}");
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.0, w.0);
                assert!((g.1 - w.1).abs() < 1e-12, "mass diverged for f{file}");
                assert!((g.2 - w.2).abs() < 1e-12, "degree diverged for f{file}");
            }
            // The non-owner partition holds nothing for this file.
            let other = if file % 2 == 0 { &odd } else { &even };
            assert_eq!(other.graph().edges(fid, &cfg).count(), 0);
        }
    }

    #[test]
    fn p_zero_orders_by_frequency_alone() {
        // §7: with p = 0 FARMER reduces to pure sequence mining (Nexus).
        let mut cfg = FarmerConfig::default();
        cfg.p = 0.0;
        cfg.max_strength = 0.0;
        let mut f = Farmer::new(cfg);
        // file 1 follows 0 often but from a foreign context; file 2 follows
        // rarely but same-context. With p = 0 frequency must win.
        for i in 0..12 {
            f.observe(req(0, 1, 1, 1), None);
            if i % 4 == 0 {
                f.observe(req(2, 1, 1, 1), None);
            } else {
                f.observe(req(1, 9, 9, 9), None);
            }
        }
        let l = f.correlators_with_threshold(FileId::new(0), 0.0);
        assert_eq!(l.head().unwrap().file, FileId::new(1));
    }

    #[test]
    fn top_k_matches_full_list_prefix() {
        let trace = WorkloadSpec::hp().scaled(0.02).generate();
        let f = Farmer::mine_trace(&trace, FarmerConfig::default());
        let mut buf = Vec::new();
        for file in (0..trace.num_files() as u32).map(FileId::new) {
            let full = f.correlators_with_threshold(file, 0.0);
            for k in [0usize, 1, 3, 8, usize::MAX] {
                f.top_k_into(file, k, 0.0, &mut buf);
                assert_eq!(buf.len(), full.len().min(k));
                for (got, want) in buf.iter().zip(full.iter()) {
                    assert_eq!(got.file, want.file);
                    assert_eq!(got.degree.to_bits(), want.degree.to_bits());
                }
            }
            // strongest == head of the full list, under both thresholds.
            assert_eq!(f.strongest(file, 0.0), full.head());
            assert_eq!(
                f.strongest(file, f.config().max_strength),
                f.correlators(file).head()
            );
        }
    }

    #[test]
    fn query_after_observe_sees_the_new_state() {
        let mut f = Farmer::new(FarmerConfig::default());
        for _ in 0..5 {
            f.observe(req(0, 1, 1, 1), None);
            f.observe(req(1, 1, 1, 1), None);
        }
        let v0 = f.version();
        let mut before = Vec::new();
        f.top_k_into(FileId::new(0), 4, 0.0, &mut before);
        // New observations shift the degrees; the next query must follow.
        for _ in 0..5 {
            f.observe(req(0, 1, 1, 1), None);
            f.observe(req(2, 1, 1, 1), None);
        }
        assert!(f.version() > v0, "mutations must advance the version");
        let mut after = Vec::new();
        f.top_k_into(FileId::new(0), 4, 0.0, &mut after);
        assert!(
            after.len() > before.len() || after[0].degree != before[0].degree,
            "query after observe answered from the old state"
        );
        let fresh = f.correlators_with_threshold(FileId::new(0), 0.0);
        assert_eq!(after.len(), fresh.len());
        for (got, want) in after.iter().zip(fresh.iter()) {
            assert_eq!(got.degree.to_bits(), want.degree.to_bits());
        }
    }

    #[test]
    fn query_after_p_change_sees_the_new_p() {
        let mut f = Farmer::new(FarmerConfig::default());
        for i in 0..12 {
            f.observe(req(0, 1, 1, 1), None);
            if i % 4 == 0 {
                f.observe(req(2, 1, 1, 1), None); // same context, rare
            } else {
                f.observe(req(1, 9, 9, 9), None); // foreign context, frequent
            }
        }
        // Mined under the default p; restored under another, the same
        // accumulators answer under it: degrees are evaluated at query time.
        let state = f.export_state();
        let top_at = |p: f64| {
            let cfg = FarmerConfig::default().with_p(p);
            let mut buf = Vec::new();
            Farmer::from_state(cfg, &state).top_k_into(FileId::new(0), 1, 0.0, &mut buf);
            buf[0].file
        };
        assert_eq!(top_at(0.0), FileId::new(1), "frequency must win at p=0");
        assert_eq!(top_at(1.0), FileId::new(2), "semantics must win at p=1");
    }

    #[test]
    fn queries_forget_forgotten_files() {
        let mut f = Farmer::new(FarmerConfig::default());
        for _ in 0..5 {
            f.observe(req(0, 1, 1, 1), None);
            f.observe(req(1, 1, 1, 1), None);
        }
        let mut buf = Vec::new();
        f.top_k_into(FileId::new(0), 4, 0.0, &mut buf);
        assert!(!buf.is_empty());
        f.forget_file(FileId::new(0));
        f.top_k_into(FileId::new(0), 4, 0.0, &mut buf);
        assert!(buf.is_empty(), "forgotten file still served");
        assert_eq!(f.strongest(FileId::new(0), 0.0), None);
    }

    #[test]
    fn degree_and_for_each_list_agree_with_lists() {
        let trace = WorkloadSpec::hp().scaled(0.02).generate();
        let f = Farmer::mine_trace(&trace, FarmerConfig::default());
        let mut visited = 0usize;
        f.for_each_list(&mut |owner, entries| {
            visited += 1;
            let full = f.correlators(owner);
            assert_eq!(entries.len(), full.len());
            for (got, want) in entries.iter().zip(full.iter()) {
                assert_eq!(got.file, want.file);
                assert_eq!(got.degree.to_bits(), want.degree.to_bits());
                let d = CorrelationSource::degree(&f, owner, got.file).unwrap();
                assert_eq!(d.to_bits(), got.degree.to_bits());
            }
        });
        let non_empty = (0..trace.num_files() as u32)
            .filter(|&i| !f.correlators(FileId::new(i)).is_empty())
            .count();
        assert_eq!(visited, non_empty);
    }

    /// One published list: `(owner, [(successor, degree bits)])`.
    type Published = (u32, Vec<(u32, u64)>);

    fn bits(owner: FileId, list: &[Correlator]) -> Published {
        let list = list.iter().map(|c| (c.file.raw(), c.degree.to_bits()));
        (owner.raw(), list.collect())
    }

    /// The one-pass table, checked two ways: against the same pass with the
    /// cached-degree filter off, and against [`Farmer::correlators`] of
    /// every file in the graph, the long way round.
    fn assert_table_is_the_per_file_lists(f: &Farmer, context: &str) {
        let table: Vec<Published> = f
            .correlator_table()
            .iter()
            .map(|(o, l)| bits(o, l))
            .collect();
        let mut exact = Vec::new();
        f.graph()
            .for_each_list(f.config(), f.config().max_strength, false, |o, l| {
                exact.push(bits(o, l))
            });
        exact.sort_unstable();
        let mut owners: Vec<FileId> = f.graph().files().collect();
        owners.sort_unstable();
        let per_file: Vec<Published> = owners
            .into_iter()
            .map(|o| bits(o, f.correlators(o).entries()))
            .filter(|(_, list)| !list.is_empty())
            .collect();
        for (name, want) in [("unfiltered pass", &exact), ("per-file lists", &per_file)] {
            let first = table.iter().zip(want).find(|(g, w)| g != w);
            assert!(first.is_none(), "{context}, {name}: {first:?}");
            assert_eq!(table.len(), want.len(), "{context}, {name}");
        }
    }

    #[test]
    fn one_pass_table_equals_per_file_lists_under_p_and_threshold_changes() {
        // Publication skips an edge on its *cached* degree, which bounds
        // the degree now only if `p` is the one it was written under. So:
        // before each 2 048-event phase a restore from the model's own
        // image under another configuration — `max_strength` lowered,
        // raised and set to exactly the degree of an edge; from the
        // thirteenth on `p` up, back, down, to 0 and to 1, once also left
        // alone over an image whose degrees are by then a mix. Every list
        // equals `Farmer::correlators`, bit for bit, throughout.
        let trace = WorkloadSpec::hp().scaled(0.1).generate();
        let cfg = FarmerConfig::default();
        let mut f = Farmer::new(cfg.clone());
        const STEP: usize = 2048;
        const P: [f64; 8] = [0.7, 0.9, 0.7, 0.3, 0.3, 0.0, 1.0, 0.7];
        let events: Vec<TraceEvent> = trace.stream().take((12 + P.len()) * STEP).collect();
        let (mut lists, mut filter_off, mut at_a_degree) = (0usize, 0, 0);
        for (phase, chunk) in events.chunks(STEP).enumerate() {
            let next = FarmerConfig {
                p: P[phase.saturating_sub(12)],
                max_strength: [0.4, 0.2, 0.6, 0.05, 0.0, 0.4][phase % 6],
                ..cfg.clone()
            };
            f = Farmer::from_state(next, &f.export_state());
            // What the restore's check made of the image: a pure one
            // passes, one whose degrees have all just risen cannot, and of
            // a mix whatever it says the lists must come out right.
            let filter_on = f.graph.cached_degrees_bound;
            match phase {
                0..=12 => assert!(filter_on, "phase {phase}"),
                13 => assert!(!filter_on, "p 0.7 -> 0.9 passed the check"),
                _ => {}
            }
            filter_off += usize::from(!filter_on);
            for e in chunk {
                f.observe_event(&trace, e);
            }
            assert_eq!(f.graph.cached_degrees_bound, filter_on, "phase {phase}");
            assert_table_is_the_per_file_lists(&f, &format!("phase {phase}"));
            lists += f.correlator_table().len();
            if !filter_on {
                continue;
            }
            // Under the `p` they were written under — every phase the check
            // passes here — no edge's degree is above its cached one, not
            // by a rounding. A threshold of exactly an edge's degree
            // publishes it.
            let cfg_now = f.config().clone();
            let image = f.graph().export_state();
            let (mut thresholds, mut drift) = (Vec::new(), 0.0f64);
            for node in &image.nodes {
                let views = f.graph().edges(FileId::new(node.id), &cfg_now);
                for (view, edge) in views.zip(&node.edges) {
                    drift = drift.max(view.degree / f64::from_bits(edge.deg) - 1.0);
                    thresholds.push(view.degree);
                }
            }
            assert!(drift <= 0.0, "phase {phase}: drift {drift}");
            thresholds.retain(|&t| t > 0.0 && t <= 1.0);
            for threshold in thresholds.into_iter().step_by(997).take(3) {
                let at = cfg_now.clone().with_max_strength(threshold);
                let at = Farmer::from_state(at, &f.export_state());
                assert!(at.graph.cached_degrees_bound);
                assert_table_is_the_per_file_lists(&at, &format!("phase {phase} at {threshold}"));
                at_a_degree += 1;
            }
        }
        assert!(lists > 5_000, "only {lists} lists compared");
        assert!(
            filter_off >= 2,
            "the unfiltered walk ran {filter_off} times"
        );
        assert!(at_a_degree > 30, "{at_a_degree} thresholds at a degree");
    }

    #[test]
    fn p_one_orders_by_semantics_alone() {
        let mut cfg = FarmerConfig::default();
        cfg.p = 1.0;
        cfg.max_strength = 0.0;
        let mut f = Farmer::new(cfg);
        for i in 0..12 {
            f.observe(req(0, 1, 1, 1), None);
            if i % 4 == 0 {
                f.observe(req(2, 1, 1, 1), None); // same context, rare
            } else {
                f.observe(req(1, 9, 9, 9), None); // foreign context, frequent
            }
        }
        let l = f.correlators_with_threshold(FileId::new(0), 0.0);
        assert_eq!(l.head().unwrap().file, FileId::new(2));
    }

    // A value written straight into a field — past the `with_*` builders
    // and their asserts — is checked when a model is built from it.

    #[test]
    #[should_panic(expected = "p must be in [0,1]")]
    fn new_rejects_nan_p() {
        Farmer::new(FarmerConfig {
            p: f64::NAN,
            ..FarmerConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "max_strength must be in [0,1]")]
    fn new_rejects_out_of_range_max_strength() {
        Farmer::new(FarmerConfig {
            max_strength: 1.5,
            ..FarmerConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn new_rejects_zero_window() {
        Farmer::new(FarmerConfig {
            window: 0,
            ..FarmerConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "max_successors must be positive")]
    fn new_rejects_zero_max_successors() {
        Farmer::new(FarmerConfig {
            max_successors: 0,
            ..FarmerConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "max_successors must be at most 16")]
    fn new_rejects_more_successors_than_a_line_holds() {
        Farmer::new(FarmerConfig {
            max_successors: 17,
            ..FarmerConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "p must be in [0,1]")]
    fn from_state_rejects_out_of_range_p() {
        let cfg = FarmerConfig {
            p: -0.25,
            ..FarmerConfig::default()
        };
        Farmer::from_state(cfg, &Farmer::new(FarmerConfig::default()).export_state());
    }
}
