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
//! decay / eviction left, which is the only state the iterative process of
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
//!   so the path term is a pure function of the pair; it is computed when
//!   an edge is first created and stored *on the edge*, which makes
//!   invalidation free — [`Farmer::forget_files`] and cap eviction remove
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
//!   make it costs no probe of the path map and no path comparison, a
//!   pair in disjoint directories never evaluates its term at all (the
//!   bound says 0.0), and on a stream without paths the bound is the
//!   degree itself. On HP under the node cap that leaves 0.78 path terms
//!   evaluated an event, and 0.08 candidates an event that pass the bound
//!   only to fail the exact term.
//! * **Storage** is id-sparse end to end: learned paths live in a hash map
//!   and the graph in slotted storage, so resident memory tracks live
//!   files, not the largest file id ever interned.
//!
//! # Complexity (w = window, d = successor cap, n = active nodes, e = edges)
//!
//! | phase | cost |
//! |---|---|
//! | per event | w updates, each one vectorised pass over a 16-id line, then by outcome: hit — memoized term, one prefetched payload line; insert / admit — one path term (none when the bound is the term), O(d) shift or rescan; early reject — a degree bound from the path signatures and one comparison, no path touched; exact reject (2 % of updates) — the same plus one path term (path² only here and on the inserts / admits whose bound is not already the term) |
//! | per prune tick | O(1) age + O(n + e) prune with per-node skip |
//! | per snapshot/eviction | O(1) `active_nodes` counter |
//! | query (`top_k_into`) | O(deg + k log k), deg ≤ d; `strongest` and `degree` O(deg) |
//! | publication (`correlator_table`) | one pass over the slab; an edge whose cached degree sits below the threshold is skipped unread when the cached degrees were written under (or, on restore, checked against) the configured `p` |
//! | resident bytes | O(live files) |

use std::collections::VecDeque;

use farmer_trace::hash::FxHashMap;
use farmer_trace::{FileId, FilePath, Trace, TraceEvent};

use crate::attr::AttrKind;
use crate::config::{FarmerConfig, PRUNE_FLOOR};
use crate::correlator::{Correlator, CorrelatorList, CorrelatorTable};
use crate::extract::{Extractor, Request};
use crate::graph::{CorrelationGraph, NodeHint, PredUpdate};
use crate::semvec::{path_term, path_term_bound, scalar_parts, PathSig};
use crate::source::{rank_cmp, CorrelationSource};

/// One look-ahead-window entry: the request plus the graph-slot hint of
/// its file's node (valid only for owned files; stale hints are safe).
#[derive(Debug, Clone, Copy)]
struct WindowEntry {
    req: Request,
    hint: NodeHint,
    /// The signature of the path [`Farmer::paths`] holds for the file —
    /// the *learned* path's, never that of the path this request happened
    /// to offer — and [`PathSig::NONE`] when it holds none: kept equal to
    /// the map for every owned entry (set when the entry is pushed, raised
    /// when the path arrives while the entry is still windowed, rebuilt on
    /// restore; a forget drops path and entries together), so the mining
    /// loop bounds a predecessor's path term without probing the map.
    sig: PathSig,
}

/// The FARMER model: feed requests, query sorted correlator lists.
#[derive(Debug)]
pub struct Farmer {
    cfg: FarmerConfig,
    graph: CorrelationGraph,
    /// Sliding look-ahead window: the most recent `cfg.window` requests,
    /// each carrying a best-effort [`NodeHint`] so mining from it skips the
    /// graph's id→slot probe.
    window: VecDeque<WindowEntry>,
    /// Per-file learned paths (the first observation's, held by a shared
    /// `clone()` — no component is copied), keyed sparsely by file id.
    /// This mirrors the paper's semantic-vector store: "vectors are stored
    /// as columns of a single matrix" — but only live columns are
    /// resident. Beside each path, its signature, computed once here.
    paths: FxHashMap<u32, (FilePath, PathSig)>,
    /// Precomputed LDA weight table (`lda[i]` = weight at distance i+1).
    lda: Vec<f64>,
    /// Does every cached degree in the graph bound its edge's degree under
    /// `cfg.p`? That is what lets publication skip edges on their cached
    /// degree ([`CorrelationGraph::for_each_list`]). True of a model that
    /// started empty: every cached degree is written under `cfg.p`. A
    /// restored one asks the image
    /// ([`CorrelationGraph::cached_degrees_bound`]), whose degrees may have
    /// been cached under another `p` — and are then a mix for good: they
    /// order cap eviction and are state.
    cached_degrees_bound: bool,
    /// Reusable per-event batch of predecessor updates (no allocation on
    /// the hot path after warm-up).
    scratch: Vec<PredUpdate>,
    /// Reusable sorted victim list of [`Farmer::forget_files`].
    victims: Vec<FileId>,
    observed: u64,
}

impl Farmer {
    /// A fresh model with the given configuration.
    ///
    /// # Panics
    /// If `cfg` is not one a model can run under
    /// ([`FarmerConfig::validate`]).
    pub fn new(cfg: FarmerConfig) -> Self {
        cfg.validate();
        let lda = cfg.lda_weights();
        Farmer {
            cfg,
            graph: CorrelationGraph::new(),
            window: VecDeque::new(),
            paths: FxHashMap::default(),
            lda,
            cached_degrees_bound: true,
            scratch: Vec::new(),
            victims: Vec::new(),
            observed: 0,
        }
    }

    /// A fresh model with the paper's default configuration.
    pub fn with_defaults() -> Self {
        Self::new(FarmerConfig::default())
    }

    /// The configuration, as given at construction.
    pub fn config(&self) -> &FarmerConfig {
        &self.cfg
    }

    /// Number of requests observed so far.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Read access to the correlation graph (diagnostics, tests, layout).
    pub fn graph(&self) -> &CorrelationGraph {
        &self.graph
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
    pub fn observe_where(
        &mut self,
        req: Request,
        path: Option<&FilePath>,
        owns: impl Fn(FileId) -> bool,
    ) {
        let mut hint = NodeHint::NONE;
        let mut sig = PathSig::NONE;
        if owns(req.file) {
            let late;
            (sig, late) = self.learn_path(req.file, path);
            if late && self.graph.num_edges() > 0 {
                // The path arrived only after this file already had mined
                // edges: the memoized pair terms are stale.
                self.graph.mark_path_memos_stale(req.file);
            }
            hint = self.graph.record_access_hinted(req.file);
        }
        let use_path = self.cfg.combo.contains(AttrKind::Path);
        let mode = self.cfg.path_mode;
        // The successor side of every term is the path this event offers.
        let offered = PathSig::of(path.filter(|_| use_path));

        // Constructing + Mining: update the edge from every windowed
        // predecessor to the new request, LDA-weighted by distance and
        // carrying the semantic similarity of the two requests. The scalar
        // part of the similarity is a branch-free mask per predecessor; the
        // path part is memoized on the edge itself, and each update says
        // what is known of it without looking (`path_bound`), so the term
        // thunk runs only for a new pair that the bound could not already
        // turn away or settle. The updates are prepared into a reusable
        // batch and committed by the graph's two-phase pipeline
        // ([`CorrelationGraph::mine_batch`]), which overlaps the one cold
        // memory load each update needs.
        self.scratch.clear();
        for (i, pred) in self.window.iter().rev().enumerate() {
            let Some(&w) = self.lda.get(i) else {
                break; // beyond the window, every weight is 0
            };
            if w <= 0.0 || pred.req.file == req.file {
                continue; // self-transitions carry no inter-file signal
            }
            if !owns(pred.req.file) {
                continue; // another partition instance mines this edge
            }
            let (s_inter, s_items) = scalar_parts(&pred.req, &req, self.cfg.combo);
            self.scratch.push(PredUpdate {
                file: pred.req.file,
                hint: pred.hint,
                weight: w,
                s_inter,
                s_items: s_items as u32,
                path_bound: if use_path {
                    path_term_bound(pred.sig, offered, mode)
                } else {
                    Some((0.0, 0))
                },
            });
        }
        if !self.scratch.is_empty() {
            let paths = &self.paths;
            self.graph.mine_batch(
                &self.scratch,
                req.file,
                use_path && path.is_some(),
                |pred_file| {
                    if !use_path {
                        return (0.0, 0);
                    }
                    let learned = paths.get(&pred_file.raw()).map(|(p, _)| p);
                    let (inter, n_pred, n_succ) = path_term(learned, path, mode);
                    (inter, n_pred.max(n_succ) as u32)
                },
                &self.cfg,
            );
        }

        self.window.push_back(WindowEntry { req, hint, sig });
        while self.window.len() > self.cfg.window {
            self.window.pop_front();
        }

        self.observed += 1;
        if self.cfg.prune_interval > 0
            && self.observed.is_multiple_of(self.cfg.prune_interval as u64)
        {
            if self.cfg.decay < 1.0 {
                self.graph.age(self.cfg.decay);
            }
            self.graph.prune_below(PRUNE_FLOOR, &self.cfg);
        }
    }

    /// Convenience: observe a trace event (runs the Stage-1 extractor).
    pub fn observe_event(&mut self, trace: &Trace, e: &TraceEvent) {
        let (req, path) = Extractor.extract(trace, e);
        self.observe(req, path);
    }

    /// Batch-mine an entire trace.
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
        self.correlators_with_threshold(file, self.cfg.max_strength)
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
    /// One pass over the graph slab ([`CorrelationGraph::for_each_list`])
    /// into a scratch slab, one sort of the owners, one gather: the
    /// allocation count does not depend on how many lists there are.
    pub fn correlator_table(&self) -> CorrelatorTable {
        // Sized for the worst case up front (every edge published): the
        // slack is address space the walk never touches, and no regrowth
        // means the allocation count is the same at any size.
        let mut scratch: Vec<Correlator> = Vec::with_capacity(self.graph.num_edges());
        // (owner, start of its list in `scratch`, length)
        let mut spans: Vec<(u32, u32, u32)> = Vec::with_capacity(self.graph.active_nodes());
        self.for_each_list(&mut |owner, list| {
            spans.push((owner.raw(), scratch.len() as u32, list.len() as u32));
            scratch.extend_from_slice(list);
        });
        spans.sort_unstable_by_key(|&(owner, ..)| owner);
        let mut table = CorrelatorTable::with_capacity(spans.len(), scratch.len());
        for (owner, start, len) in spans {
            let list = &scratch[start as usize..(start + len) as usize];
            let pushed = table.push_list(FileId::new(owner), list);
            // lint: allow(panic) the graph's id→slot index keeps node ids
            // distinct, so no owner is visited twice
            pushed.expect("the slab holds one node per file");
        }
        table
    }

    /// Manually drop all edges below [`PRUNE_FLOOR`]. Returns the number
    /// of edges removed.
    pub fn prune(&mut self) -> usize {
        self.graph.prune_below(PRUNE_FLOOR, &self.cfg)
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
    /// ([`CorrelationGraph::remove_edges_to_any`]: one id line read per
    /// live node, only nodes that lose an edge rewritten), paid once per
    /// batch instead of once per victim and allocation-free after the
    /// first call. Returns the number of edges removed.
    pub fn forget_files(&mut self, files: &[FileId]) -> usize {
        if files.is_empty() {
            return 0;
        }
        let victims = &mut self.victims;
        victims.clear();
        victims.extend_from_slice(files);
        victims.sort_unstable();
        victims.dedup();

        let mut removed = 0;
        for &file in victims.iter() {
            self.paths.remove(&file.raw());
            removed += self.graph.clear_node(file);
        }
        removed += self.graph.remove_edges_to_any(victims);
        self.window
            .retain(|r| victims.binary_search(&r.req.file).is_err());
        removed
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
        let paths: usize = self
            .paths
            .values()
            .map(|(p, _)| p.heap_bytes())
            .sum::<usize>()
            + self.paths.len()
                * (std::mem::size_of::<u32>() + std::mem::size_of::<(FilePath, PathSig)>() + 8);
        self.graph.heap_bytes()
            + paths
            + self.window.capacity() * std::mem::size_of::<WindowEntry>()
            + self.scratch.capacity() * std::mem::size_of::<PredUpdate>()
            + self.victims.capacity() * std::mem::size_of::<FileId>()
            + self.lda.capacity() * std::mem::size_of::<f64>()
    }

    /// Export the model's full state as plain data for checkpoint
    /// images: the graph (bit-exact, see [`crate::state`]), the
    /// look-ahead window, the learned paths (sorted by file id), and the
    /// observation count. Derived structures (LDA table, scratch) are
    /// functions of the config and are not carried.
    pub fn export_state(&self) -> crate::state::FarmerState {
        let mut paths: Vec<(u32, Vec<u32>)> = self
            .paths
            .iter()
            .map(|(&id, (p, _))| (id, p.components().to_vec()))
            .collect();
        paths.sort_unstable_by_key(|(id, _)| *id);
        crate::state::FarmerState {
            observed: self.observed,
            window: self.window.iter().map(|w| w.req).collect(),
            paths,
            graph: self.graph.export_state(),
        }
    }

    /// Rebuild a model from an exported state image under `cfg`. To
    /// continue the stream as the exporting model would have, `cfg` must
    /// be the configuration the image was taken under (the same contract
    /// WAL replay has: determinism holds only for identical configs);
    /// under another, queries and publication evaluate the image's
    /// accumulators under the new `p` / `max_strength`, and mining goes on
    /// under the new values. Window slot hints restart as
    /// [`NodeHint::NONE`] — a stale-hint probe miss, which the graph treats
    /// identically.
    ///
    /// # Panics
    /// As [`Farmer::new`].
    pub fn from_state(cfg: FarmerConfig, state: &crate::state::FarmerState) -> Farmer {
        let mut farmer = Farmer::new(cfg);
        farmer.graph = CorrelationGraph::from_state(&state.graph);
        farmer.paths = state
            .paths
            .iter()
            .map(|(id, comps)| {
                let path = FilePath::from_components(comps.clone());
                let sig = PathSig::of(Some(&path));
                (*id, (path, sig))
            })
            .collect();
        farmer.window = state
            .window
            .iter()
            .map(|&req| WindowEntry {
                req,
                hint: NodeHint::NONE,
                sig: farmer
                    .paths
                    .get(&req.file.raw())
                    .map_or(PathSig::NONE, |&(_, sig)| sig),
            })
            .collect();
        farmer.observed = state.observed;
        // The image does not say what `p` its cached degrees were written
        // under, so ask the degrees themselves.
        farmer.cached_degrees_bound = farmer.graph.cached_degrees_bound(&farmer.cfg);
        farmer
    }

    /// `file`'s successors of degree ≥ `min_degree`, in successor-id order.
    fn valid_edges(&self, file: FileId, min_degree: f64) -> impl Iterator<Item = Correlator> + '_ {
        self.graph
            .edges(file, &self.cfg)
            .filter(move |e| crate::miner::is_valid(e.degree, min_degree))
            .map(|e| Correlator {
                file: e.to,
                degree: e.degree,
            })
    }

    /// Learn `file`'s path on first sight. Returns `(sig, late)`: the
    /// signature of the path now on record for the file
    /// ([`PathSig::NONE`] when there is none), and whether this was a
    /// *late* install — the path arrived after the file had already been
    /// observed pathless — which is the one case where memoized pair terms
    /// must be invalidated (see [`CorrelationGraph::mark_path_memos_stale`]).
    fn learn_path(&mut self, file: FileId, path: Option<&FilePath>) -> (PathSig, bool) {
        if let Some(&(_, sig)) = self.paths.get(&file.raw()) {
            return (sig, false);
        }
        let Some(p) = path else {
            return (PathSig::NONE, false);
        };
        let sig = PathSig::of(path);
        self.paths.insert(file.raw(), (p.clone(), sig));
        // Entries of the file still in the window were pushed pathless.
        for w in self.window.iter_mut().filter(|w| w.req.file == file) {
            w.sig = sig;
        }
        (
            sig,
            self.observed > 0 && self.graph.total_accesses(file) > 0.0,
        )
    }
}

impl CorrelationSource for Farmer {
    fn version(&self) -> u64 {
        self.graph.epoch()
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
        self.graph
            .edges(from, &self.cfg)
            .find(|e| e.to == to)
            .map(|e| e.degree)
    }

    fn for_each_list(&self, visit: &mut dyn FnMut(FileId, &[Correlator])) {
        self.graph.for_each_list(
            &self.cfg,
            self.cfg.max_strength,
            self.cached_degrees_bound,
            visit,
        );
    }

    fn heap_bytes(&self) -> usize {
        self.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::UpdateMix;
    use crate::{AttrCombo, PathMode};
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
        let mut f = Farmer::with_defaults();
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
        let mut f = Farmer::with_defaults();
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
        let mut f = Farmer::with_defaults();
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
        let mut whole = Farmer::with_defaults();
        let mut even = Farmer::with_defaults();
        let mut odd = Farmer::with_defaults();
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
        let mut f = Farmer::with_defaults();
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
        let mut f = Farmer::with_defaults();
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
        let mut f = Farmer::with_defaults();
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
        let mut f = Farmer::with_defaults();
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
        let removed = f.prune();
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
    fn decay_adapts_to_workload_shift() {
        // Phase 1: 0 -> 1 dominates. Phase 2: the workload shifts to
        // 0 -> 2. With aging the new successor overtakes the stale one;
        // without aging the historical mass keeps 1 on top much longer.
        let run = |decay: f64| {
            let mut cfg = FarmerConfig::default();
            cfg.prune_interval = 50;
            cfg.decay = decay;
            cfg.p = 0.0; // isolate the frequency signal
            let mut f = Farmer::new(cfg);
            for _ in 0..200 {
                f.observe(req(0, 1, 1, 1), None);
                f.observe(req(1, 1, 1, 1), None);
            }
            for _ in 0..80 {
                f.observe(req(0, 1, 1, 1), None);
                f.observe(req(2, 1, 1, 1), None);
            }
            f.correlators_with_threshold(FileId::new(0), 0.0)
                .head()
                .unwrap()
                .file
        };
        assert_eq!(run(0.5), FileId::new(2), "decayed model follows the shift");
        assert_eq!(
            run(1.0),
            FileId::new(1),
            "undecayed model stays with history"
        );
    }

    #[test]
    fn forget_file_erases_every_trace_of_it() {
        let mut f = Farmer::with_defaults();
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
            let mut f = Farmer::with_defaults();
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

    /// `forget_files` as it was before the id-only sweep: same node clears
    /// and window cleanup, but the incoming edges go through the
    /// closure-driven compaction of every node.
    fn forget_files_reference(f: &mut Farmer, files: &[FileId]) -> usize {
        let mut victims: Vec<u32> = files.iter().map(|f| f.raw()).collect();
        victims.sort_unstable();
        victims.dedup();
        let gone = |f: FileId| victims.binary_search(&f.raw()).is_ok();
        let mut removed = 0;
        for &raw in &victims {
            f.paths.remove(&raw);
            removed += f.graph.clear_node(FileId::new(raw));
        }
        removed += f.graph.retain_edges_reference(|_, to| !gone(to));
        f.window.retain(|r| !gone(r.req.file));
        removed
    }

    /// Prune both models through the graph, which takes the floor as an
    /// argument: 0.2 is one the short differential streams reach (a pair
    /// that shares no attribute sits below it until it recurs), where the
    /// ticks at [`PRUNE_FLOOR`] find an edge only now and then. Returns
    /// the edges dropped, the same on both sides.
    fn prune_both(new: &mut Farmer, old: &mut Farmer) -> usize {
        let dropped = new.graph.prune_below(0.2, &new.cfg);
        assert_eq!(dropped, old.graph.prune_below(0.2, &old.cfg));
        dropped
    }

    #[test]
    fn forget_sweep_matches_retain_edges_reference_bit_for_bit() {
        // Interleaved observe / age / prune / forget on both halves of a
        // two-way ownership partition: the state image — slab order, epoch
        // and every accumulator bit — must be what the old sweep left, for
        // a batch of one victim, a handful, the streaming miner's default
        // 64, and a batch on either side of every prefilter size (64 | 65,
        // 512 | 513, 4 096 | 4 097). A successor cap of 16 fills whole
        // lines (no pad to hide behind), one of 32 re-strides the slab to
        // two lanes a line, and file 7 goes by the id `u32::MAX` — the pad
        // value — as successor, predecessor and victim.
        for (files, batch, cap) in [
            (48, 1, 4),
            (48, 5, 4),
            (400, 64, 4),
            (48, 65, 16),
            (3000, 512, 4),
            (3000, 513, 4),
            (3000, 1000, 4),
            (48, 1024, 32),
            (3000, 4096, 4),
            (48, 4097, 16),
        ] {
            let cfg = FarmerConfig {
                max_successors: cap,
                prune_interval: 64,
                decay: 0.9,
                ..FarmerConfig::default()
            };
            // Big batches draw from beyond the namespace, or each would
            // wipe the graph: most of their victims were never observed.
            let universe = files.max(4 * batch as u32);
            let id = |x: u32| if x == 7 { u32::MAX } else { x };
            let mut longest = 0;
            for part in 0..2u32 {
                let owns = move |f: FileId| f.raw() % 2 == part;
                let mut new = Farmer::new(cfg.clone());
                let mut old = Farmer::new(cfg.clone());
                let mut x = 0x9E37_79B9_7F4A_7C15u64 + u64::from(part);
                let mut next = |n: u32| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (x % u64::from(n)) as u32
                };
                let (mut removed, mut pruned) = (0, 0);
                // (A big batch is slow to draw and to check: fewer of them.)
                for i in 0..if batch > 600 { 1500 } else { 6000 } {
                    // Three hosts, so that some pairs share no attribute
                    // and only their frequency keeps them above the floor.
                    let r = req(id(next(files)), next(3), next(2), next(3));
                    new.observe_where(r, None, owns);
                    old.observe_where(r, None, owns);
                    if i % 29 == 0 {
                        pruned += prune_both(&mut new, &mut old);
                    }
                    if i % 37 == 0 {
                        // Duplicates, a never-observed id, and neighbours
                        // that are each other's successors.
                        let a = next(files - 1);
                        let victims: Vec<FileId> = [a + 1, a, 100_000 + a, a]
                            .into_iter()
                            .chain(std::iter::repeat_with(|| next(universe)))
                            .skip(if batch == 1 { 3 } else { 0 })
                            .take(batch)
                            .map(|x| FileId::new(id(x)))
                            .collect();
                        let n = new.forget_files(&victims);
                        assert_eq!(n, forget_files_reference(&mut old, &victims));
                        assert_eq!(new.export_state(), old.export_state(), "step {i}");
                        removed += n;
                    }
                    if i % 100 == 99 {
                        let nodes = new.export_state().graph.nodes;
                        longest =
                            longest.max(nodes.iter().map(|n| n.edges.len()).max().unwrap_or(0));
                    }
                }
                assert_eq!(new.export_state(), old.export_state());
                assert!(removed > 100, "only {removed} edges removed at {batch}");
                assert!(pruned > 0, "nothing pruned at {batch}");
            }
            // Every node of 48 files cannot reach 32 successors, but the
            // slab re-strides as soon as one passes 16.
            assert!(
                longest >= cap.min(17),
                "longest list {longest} at cap {cap}"
            );
        }
    }

    /// [`Farmer::observe_where`] as it was before the reject-first kernel:
    /// the same bookkeeping, but every update goes through
    /// [`CorrelationGraph::mine_batch_reference`] with nothing known of its
    /// path term, and a predecessor's path is whatever the map says when
    /// the term is wanted — no window entry's signature is ever read.
    fn observe_where_reference(
        f: &mut Farmer,
        req: Request,
        path: Option<&FilePath>,
        owns: impl Fn(FileId) -> bool,
    ) {
        let mut hint = NodeHint::NONE;
        if owns(req.file) {
            let (_, late) = f.learn_path(req.file, path);
            if late && f.graph.num_edges() > 0 {
                f.graph.mark_path_memos_stale(req.file);
            }
            hint = f.graph.record_access_hinted(req.file);
        }
        let use_path = f.cfg.combo.contains(AttrKind::Path);
        let mut batch = Vec::new();
        for (i, pred) in f.window.iter().rev().enumerate() {
            let Some(&w) = f.lda.get(i) else { break };
            if w <= 0.0 || pred.req.file == req.file || !owns(pred.req.file) {
                continue;
            }
            let (s_inter, s_items) = scalar_parts(&pred.req, &req, f.cfg.combo);
            batch.push(PredUpdate {
                file: pred.req.file,
                hint: pred.hint,
                weight: w,
                s_inter,
                s_items: s_items as u32,
                path_bound: None,
            });
        }
        if !batch.is_empty() {
            let (paths, mode) = (&f.paths, f.cfg.path_mode);
            f.graph.mine_batch_reference(
                &batch,
                req.file,
                use_path && path.is_some(),
                |pred_file| {
                    if !use_path {
                        return (0.0, 0);
                    }
                    let learned = paths.get(&pred_file.raw()).map(|(p, _)| p);
                    let (inter, n_pred, n_succ) = path_term(learned, path, mode);
                    (inter, n_pred.max(n_succ) as u32)
                },
                &f.cfg,
            );
        }
        f.window.push_back(WindowEntry {
            req,
            hint,
            sig: PathSig::NONE,
        });
        while f.window.len() > f.cfg.window {
            f.window.pop_front();
        }
        f.observed += 1;
        if f.cfg.prune_interval > 0 && f.observed.is_multiple_of(f.cfg.prune_interval as u64) {
            if f.cfg.decay < 1.0 {
                f.graph.age(f.cfg.decay);
            }
            f.graph.prune_below(PRUNE_FLOOR, &f.cfg);
        }
    }

    /// What a differential run varies besides its configuration.
    #[derive(Clone, Copy)]
    struct Differential {
        /// Distinct file ids in the stream.
        files: u32,
        /// `Some(r)`: this half of a two-way ownership partition.
        part: Option<u32>,
        /// `Some((step, cap))`: at `step`, restore both models from their
        /// images under a `max_successors` raised to `cap`.
        raise: Option<(usize, usize)>,
    }

    /// File `id`'s path in the differential streams, as the front end names
    /// it in naming generation `gen`: one in seven has none, one in three
    /// sits twelve deep in a shared directory (so IPA terms above 0.9
    /// occur), one in five under a directory name that repeats (so its
    /// signature is not clean and the pairs among them intersect as
    /// multisets), the rest are shallow over a few directories. The
    /// generation — either one, event by event — renames the last two
    /// kinds, so a file is offered paths that are not the one it was
    /// learned under, and a forgotten one is learned again under either.
    fn path_of(id: u32, gen: u32) -> Option<FilePath> {
        let name = 10_000 + id;
        let components = match id {
            _ if id.is_multiple_of(7) => return None,
            _ if id.is_multiple_of(3) => (500..511).chain([name]).collect(),
            _ if id.is_multiple_of(5) => vec![600, 600, 300 + gen, name],
            _ => vec![100 + id % 2 + 10 * gen, 200 + id % 5, name],
        };
        Some(FilePath::from_components(components))
    }

    /// Drive the kernel and the reference in lockstep over a seeded random
    /// stream — observes with a path withheld one time in four (so paths
    /// arrive late, often while the file is still windowed), forgets and
    /// manual prunes interleaved, a restore from the exported image a third
    /// of the way in, a front end that names a file now one way, now
    /// another — and demand the same state image, bit for bit, after
    /// every step. Returns the kernel's update mix and the edges the
    /// interleaved prunes dropped.
    fn run_differential(cfg: FarmerConfig, seed: u64, run: Differential) -> (UpdateMix, usize) {
        const STEPS: usize = 2400;
        let owns = move |f: FileId| run.part.is_none_or(|r| f.raw() % 2 == r);
        let mut cfg = cfg;
        let mut new = Farmer::new(cfg.clone());
        let mut old = Farmer::new(cfg.clone());
        let mut pruned = 0;
        let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ seed;
        let mut next = |n: u32| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % u64::from(n)) as u32
        };
        // A restored graph counts its updates from zero: one mix a life.
        let mut lives = Vec::new();
        for step in 0..STEPS {
            let raise = run.raise.filter(|&(at, _)| at == step);
            if let Some((_, cap)) = raise {
                cfg.max_successors = cap;
            }
            if step == STEPS / 3 || raise.is_some() {
                lives.push(new.graph().update_mix());
                new = Farmer::from_state(cfg.clone(), &new.export_state());
                old = Farmer::from_state(cfg.clone(), &old.export_state());
            }
            match next(40) {
                0 => {
                    let victims = [next(run.files), next(run.files)].map(FileId::new);
                    assert_eq!(
                        new.forget_files(&victims),
                        forget_files_reference(&mut old, &victims)
                    );
                }
                1 => pruned += prune_both(&mut new, &mut old),
                _ => {
                    // A small id range keeps repeats inside the window
                    // (A B A C) and the nodes at their cap; three hosts,
                    // so that some pairs share no scalar attribute.
                    let r = req(next(run.files), next(3), next(2), next(3));
                    let path = path_of(r.file.raw(), next(2)).filter(|_| next(4) != 0);
                    new.observe_where(r, path.as_ref(), owns);
                    observe_where_reference(&mut old, r, path.as_ref(), owns);
                }
            }
            assert_eq!(new.export_state(), old.export_state(), "step {step}");
        }
        lives.push(new.graph().update_mix());
        let sum = |field: fn(&UpdateMix) -> u64| lives.iter().map(field).sum();
        let mix = UpdateMix {
            hits: sum(|m| m.hits),
            inserts: sum(|m| m.inserts),
            early_rejects: sum(|m| m.early_rejects),
            exact_rejects: sum(|m| m.exact_rejects),
            admits: sum(|m| m.admits),
            path_terms: sum(|m| m.path_terms),
            relocates: sum(|m| m.relocates),
        };
        (mix, pruned)
    }

    #[test]
    fn kernel_matches_the_reference_bit_for_bit() {
        let base = FarmerConfig {
            prune_interval: 64,
            decay: 0.9,
            ..FarmerConfig::default()
        };
        let whole = Differential {
            files: 12,
            part: None,
            raise: None,
        };
        // Pathless, IPA and DPA combos at a cap every node reaches.
        let mut seen = UpdateMix::default();
        for (seed, combo, mode) in [
            (1, AttrCombo::ins_default(), PathMode::Ipa),
            (2, AttrCombo::hp_default(), PathMode::Ipa),
            (3, AttrCombo::hp_default(), PathMode::Dpa),
        ] {
            let cfg = FarmerConfig {
                max_successors: 3,
                combo,
                path_mode: mode,
                ..base.clone()
            };
            let (mix, pruned) = run_differential(cfg, seed, whole);
            assert!(pruned > 0, "the prunes dropped nothing");
            assert!(mix.relocates > 0, "no A B A C at a full node: {mix:?}");
            assert!(mix.admits > 50 && mix.hits > 500, "{mix:?}");
            if mode == PathMode::Ipa {
                assert!(mix.early_rejects > 500, "{mix:?}");
            }
            if combo == AttrCombo::hp_default() {
                assert!(mix.exact_rejects > 50, "{mix:?}");
            }
            seen = mix;
        }
        // DPA says nothing of a pair unless neither file has a path.
        assert!(seen.early_rejects * 4 < seen.exact_rejects, "{seen:?}");
        // Every cap around the 16-lane line, the slab re-striding under 17
        // and 40, and a cap raised across a restore.
        for (seed, cap) in [(4, 1), (5, 16), (6, 17), (7, 40)] {
            let cfg = FarmerConfig {
                max_successors: cap,
                ..base.clone()
            };
            let many = Differential { files: 64, ..whole };
            let (mix, pruned) = run_differential(cfg, seed, many);
            assert!(mix.inserts > 100, "{mix:?}");
            // (A node's one successor is the strongest it was offered.)
            assert!(pruned > 0 || cap == 1, "nothing pruned at cap {cap}");
        }
        let cfg = FarmerConfig {
            max_successors: 4,
            ..base.clone()
        };
        let raised = Differential {
            files: 64,
            raise: Some((1000, 20)),
            ..whole
        };
        run_differential(cfg.clone(), 8, raised);
        // Both halves of a two-way ownership partition.
        for part in 0..2 {
            let half = Differential {
                part: Some(part),
                ..whole
            };
            run_differential(cfg.clone(), 9 + u64::from(part), half);
        }
    }

    #[test]
    fn update_mix_on_hp_is_mostly_rejects_settled_without_a_path() {
        // The steady state the benchmark times: one warm-up lap, then the
        // mix of a second lap over the same trace.
        let trace = WorkloadSpec::hp().scaled(0.1).generate();
        let mut f = Farmer::with_defaults();
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
        let mut f = Farmer::with_defaults();
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
        let mut whole = Farmer::with_defaults();
        let mut even = Farmer::with_defaults();
        let mut odd = Farmer::with_defaults();
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
        let mut f = Farmer::with_defaults();
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
        let mut f = Farmer::with_defaults();
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
        let mut f = Farmer::with_defaults();
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
        // more than 10⁴ aging ticks at decay 0.999 (every refresh may move
        // mass / total by a rounding, which is what the margin is for),
        // and before each 2 048-event phase a restore from the model's own
        // image under another configuration — `max_strength` lowered,
        // raised and set to exactly the degree of edges that have drifted
        // *above* their cached degree; from the thirteenth on `p` up, back,
        // down, to 0 and to 1, once also left alone over an image whose
        // degrees are by then a mix. Every list equals
        // `Farmer::correlators`, bit for bit, throughout.
        let trace = WorkloadSpec::hp().scaled(0.1).generate();
        let cfg = FarmerConfig {
            prune_interval: 4,
            decay: 0.999,
            ..FarmerConfig::default()
        };
        let mut f = Farmer::new(cfg.clone());
        const STEP: usize = 2048;
        const P: [f64; 8] = [0.7, 0.9, 0.7, 0.3, 0.3, 0.0, 1.0, 0.7];
        let events: Vec<TraceEvent> = trace.stream().take((12 + P.len()) * STEP).collect();
        assert!(events.len() / cfg.prune_interval > 10_000);
        let (mut drifted_up, mut worst_drift, mut lists) = (0usize, 0.0f64, 0usize);
        let mut filter_off = 0;
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
            let filter_on = f.cached_degrees_bound;
            match phase {
                0..=12 => assert!(filter_on, "phase {phase}"),
                13 => assert!(!filter_on, "p 0.7 -> 0.9 passed the check"),
                _ => {}
            }
            filter_off += usize::from(!filter_on);
            for e in chunk {
                f.observe_event(&trace, e);
            }
            assert_eq!(f.cached_degrees_bound, filter_on, "phase {phase}");
            assert_table_is_the_per_file_lists(&f, &format!("phase {phase}"));
            lists += f.correlator_table().len();
            if !filter_on {
                continue;
            }
            // Edges whose degree has crept above the cached one, by
            // rounding alone: a threshold of exactly that degree publishes
            // them, and only the margin keeps the filter from dropping
            // them first.
            let cfg_now = f.config().clone();
            let image = f.graph().export_state();
            let mut thresholds = Vec::new();
            for node in &image.nodes {
                let views = f.graph().edges(FileId::new(node.id), &cfg_now);
                for (view, edge) in views.zip(&node.edges) {
                    let cached = f64::from_bits(edge.deg);
                    worst_drift = worst_drift.max(view.degree / cached - 1.0);
                    if view.degree > cached {
                        drifted_up += 1;
                        thresholds.push(view.degree);
                    }
                }
            }
            thresholds.retain(|&t| t <= 1.0);
            for threshold in thresholds.into_iter().step_by(997).take(3) {
                let at = cfg_now.clone().with_max_strength(threshold);
                let at = Farmer::from_state(at, &f.export_state());
                assert!(at.cached_degrees_bound);
                assert_table_is_the_per_file_lists(&at, &format!("phase {phase} at {threshold}"));
            }
        }
        assert!(lists > 5_000, "only {lists} lists compared");
        assert!(
            filter_off >= 2,
            "the unfiltered walk ran {filter_off} times"
        );
        assert!(
            drifted_up > 100,
            "the margin was never needed: {drifted_up}"
        );
        // Ten thousand ticks moved nothing by more than a few roundings:
        // six orders of magnitude inside the margin.
        assert!(worst_drift < 1e-13, "drift {worst_drift}");
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
    #[should_panic(expected = "p must be in [0,1]")]
    fn from_state_rejects_out_of_range_p() {
        let cfg = FarmerConfig {
            p: -0.25,
            ..FarmerConfig::default()
        };
        Farmer::from_state(cfg, &Farmer::with_defaults().export_state());
    }
}
