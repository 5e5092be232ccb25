//! The model's two stages: one request's work, split at the graph.
//!
//! The paper's per-request loop (§3.1) has two halves. Extracting, the
//! look-ahead window, the LDA weights and the similarity depend only on
//! the request stream; Constructing and Mining change the graph. A
//! [`StreamStage`] runs the first half: it owns the window, the learned
//! paths and their signatures, and turns each request into a compact
//! *step* — per windowed predecessor its window distance, the scalar
//! match and the path-term bound. A [`GraphStage`] runs the second half:
//! it owns the [`CorrelationGraph`] and applies the steps in order — the
//! access count, the edge updates (`CorrelationGraph::mine_batch`), the
//! prune ticks, the nodes and edges of forgotten files — and answers what
//! is asked of the graph (the publication walk, the state image).
//!
//! The stages share nothing but the steps, so they can run on two
//! threads. A stream stage hands its steps to a `Sink`: a [`Steps`] batch
//! for a graph stage on another thread ([`StreamStage::observe_where`],
//! [`GraphStage::apply`]; `farmer-stream` runs a lone shard's stream
//! stage on the router's thread so), or the graph stage itself on the
//! same thread, which applies each piece of a step as it comes — that is
//! [`crate::Farmer`]. Replaying a batch runs the same calls.
//!
//! Three things cross the seam as more than plain values:
//!
//! * **Slot hints.** The graph stage keeps the slot each of the last
//!   `HINTS` (32) observed requests got, keyed by stream position; a step
//!   names each predecessor's position as a distance back. A predecessor
//!   further back, or from before a restore, has no hint and costs an
//!   index probe — what a stale hint costs, so the graph is the same.
//! * **Late paths.** A path learned only after its file had accesses
//!   makes the file's memoized pair terms stale. Only the graph knows
//!   N(file), so the step says "path learned now" and the graph stage
//!   decides.
//! * **Path terms.** Only an update's outcome says whether its term is
//!   needed, and only the graph knows the outcome. On one thread the graph
//!   stage asks the stream stage for a term when an update consumes it, as
//!   the kernel always has. Into a batch the stream stage evaluates every
//!   term its bound does not settle — on HP under the node cap 2.2 an
//!   event, of which the graph consumes 0.78 — since the paths stay with
//!   it. Either way [`crate::graph::UpdateMix::path_terms`] counts a term
//!   where an update consumes it.
//!
//! A batched step is small: an edge update is 12 bytes (a window
//! distance, not a weight; the scalar match and the bound as the small
//! integers they are computed from, each turned back into the same `f64`
//! by the graph stage), and a prepared path term adds its 16. An HP event
//! under the node cap takes about 110 bytes, an INS event about 70.

use std::collections::VecDeque;

use farmer_trace::hash::FxHashMap;
use farmer_trace::{FileId, FilePath};

use crate::attr::AttrKind;
use crate::config::{FarmerConfig, PRUNE_FLOOR};
use crate::correlator::{Correlator, TableWalk};
use crate::extract::Request;
use crate::graph::{CorrelationGraph, NodeHint, PredUpdate};
use crate::semvec::{path_term, path_term_bound, scalar_parts, PathBound, PathSig};
use crate::state::{FarmerState, GraphState};

/// How many of the latest observed requests the graph stage keeps slot
/// hints for. Every predecessor with a positive LDA weight is within ten
/// window entries; only forgets in between can push one further back.
const HINTS: usize = 32;

// The step stays small: see the module docs.
const _: () = assert!(std::mem::size_of::<Update>() == 12);

/// One look-ahead-window entry.
#[derive(Debug, Clone, Copy)]
struct WindowEntry {
    req: Request,
    /// The request's stream position (the observe count when it was
    /// pushed, wrapping): the key of its slot hint in the graph stage.
    seq: u32,
    /// The signature of the path [`StreamStage::paths`] holds for the file
    /// — the *learned* path's, never that of the path this request
    /// happened to offer — and [`PathSig::NONE`] when it holds none: kept
    /// equal to the map for every owned entry (set when the entry is
    /// pushed, raised when the path arrives while the entry is still
    /// windowed, rebuilt on restore; a forget drops path and entries
    /// together), so a predecessor's path term is bounded without probing
    /// the map.
    sig: PathSig,
}

/// One operation's step in a [`Steps`] batch; what it carries beyond the
/// head follows in the batch's update, term or victim runs, in order.
#[derive(Debug, Clone, Copy)]
enum Head {
    /// Mine one request against its `updates` windowed predecessors.
    Observe {
        file: FileId,
        updates: u16,
        /// How many of the updates carry a path term.
        terms: u16,
        /// The request's file is owned: count the access.
        owned: bool,
        /// The file's path was learned with this request.
        new_path: bool,
        /// The request offers a path the similarity uses.
        succ_path: bool,
    },
    /// Forget `victims` files (sorted, distinct).
    Forget { victims: u32 },
}

/// One windowed predecessor's edge update, as the graph stage rebuilds
/// the kernel's [`PredUpdate`] from it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Update {
    /// The predecessor (edge source).
    file: FileId,
    /// Observed requests from the predecessor's to this one, saturated:
    /// where its slot hint is kept.
    back: u8,
    /// Window distance, 1 for the newest entry: the LDA weight's argument
    /// (positive only up to `1 / LDA_DECREMENT` = 10).
    dist: u8,
    /// The scalar similarity parts, intersection in the high nibble and
    /// items in the low one (each at most the five scalar attributes).
    scalar: u8,
    /// What is known of the path term without evaluating it.
    bound: Option<PathBound>,
    /// Whether the bound leaves the pair's path term unsettled: a batch
    /// carries the term in [`Steps::terms`].
    term: bool,
}

impl Update {
    /// The kernel's update, but for the slot hint: each value turned back
    /// into the `f64` it was computed as.
    fn widen(self, cfg: &FarmerConfig) -> PredUpdate {
        PredUpdate {
            file: self.file,
            hint: NodeHint::NONE,
            weight: cfg.lda_weight(usize::from(self.dist)),
            s_inter: f64::from(self.scalar >> 4),
            s_items: u32::from(self.scalar & 0xf),
            path_bound: self.bound.map(PathBound::value),
        }
    }
}

/// Where a [`StreamStage`]'s steps go, in the order it prepares them: into
/// a [`Steps`] batch for a graph stage on another thread, or straight into
/// a [`GraphStage`] on the same thread, which applies each as it comes —
/// and runs the same calls when it replays a batch.
pub(crate) trait Sink {
    /// A request's step begins: its file, whether the file is owned, and
    /// whether its path was learned with this request.
    fn begin(&mut self, file: FileId, owned: bool, new_path: bool);
    /// One windowed predecessor's update: `u` as a batch carries it, `wide`
    /// the same as the kernel takes it (but for the slot hint, which only
    /// the graph stage knows); `term` evaluates its path term.
    fn update(&mut self, u: Update, wide: PredUpdate, term: impl FnOnce() -> (f64, u32));
    /// The request's step ends. `succ_path`: the request offers a path the
    /// similarity uses; `term(pred)` evaluates `pred`'s path term against
    /// it.
    fn end(&mut self, succ_path: bool, term: impl Fn(FileId) -> (f64, u32));
    /// Forget `victims` (sorted, distinct). Returns the edges removed, 0
    /// where they are removed later.
    fn forget(&mut self, victims: &[FileId]) -> usize;
}

/// Steps a [`StreamStage`] prepared for a [`GraphStage`] on another
/// thread, one an operation plus one a forget of eviction victims, in
/// stream order, each unsettled path term evaluated. A sender takes the
/// batch and leaves [`Steps::empty_like`] in its place.
#[derive(Debug, Default)]
pub struct Steps {
    heads: Vec<Head>,
    updates: Vec<Update>,
    /// `(intersection, items)` of every path term the bound did not
    /// settle, in update order.
    terms: Vec<(f64, u32)>,
    victims: Vec<FileId>,
    /// Where the updates and terms of the step begun last start.
    open: (usize, usize),
}

impl Sink for Steps {
    fn begin(&mut self, file: FileId, owned: bool, new_path: bool) {
        self.open = (self.updates.len(), self.terms.len());
        self.heads.push(Head::Observe {
            file,
            updates: 0,
            terms: 0,
            owned,
            new_path,
            succ_path: false,
        });
    }

    fn update(&mut self, u: Update, _: PredUpdate, term: impl FnOnce() -> (f64, u32)) {
        if u.term {
            self.terms.push(term());
        }
        self.updates.push(u);
    }

    fn end(&mut self, succ: bool, _: impl Fn(FileId) -> (f64, u32)) {
        let (first, first_term) = self.open;
        if let Some(Head::Observe {
            updates,
            terms,
            succ_path,
            ..
        }) = self.heads.last_mut()
        {
            *updates = (self.updates.len() - first) as u16;
            *terms = (self.terms.len() - first_term) as u16;
            *succ_path = succ;
        }
    }

    fn forget(&mut self, victims: &[FileId]) -> usize {
        self.victims.extend_from_slice(victims);
        self.heads.push(Head::Forget {
            victims: victims.len() as u32,
        });
        0
    }
}

impl Steps {
    /// Accesses of owned files among the steps: what applying them
    /// mines.
    pub fn owned_accesses(&self) -> usize {
        let owned = |h: &&Head| matches!(h, Head::Observe { owned: true, .. });
        self.heads.iter().filter(owned).count()
    }

    /// An empty batch with room for as much as this one holds.
    pub fn empty_like(&self) -> Steps {
        Steps {
            heads: Vec::with_capacity(self.heads.len()),
            updates: Vec::with_capacity(self.updates.len()),
            terms: Vec::with_capacity(self.terms.len()),
            victims: Vec::with_capacity(self.victims.len()),
            open: (0, 0),
        }
    }
}

/// The stream half of a model: the look-ahead window, the learned paths
/// and the LDA weights. It prepares each request's step and never reads
/// the graph.
#[derive(Debug)]
pub struct StreamStage {
    cfg: FarmerConfig,
    /// Sliding look-ahead window: the most recent `cfg.window` requests.
    window: VecDeque<WindowEntry>,
    /// Per-file learned paths (the first observation's, held by a shared
    /// `clone()` — no component is copied), keyed sparsely by file id.
    /// This mirrors the paper's semantic-vector store: "vectors are stored
    /// as columns of a single matrix" — but only live columns are
    /// resident. Beside each path, its signature, computed once here.
    paths: FxHashMap<u32, (FilePath, PathSig)>,
    /// Precomputed LDA weight table (`lda[i]` = weight at distance i+1).
    lda: Vec<f64>,
    /// Reusable sorted victim list of [`StreamStage::forget_files`].
    victims: Vec<FileId>,
    observed: u64,
}

impl StreamStage {
    pub(crate) fn new(cfg: FarmerConfig) -> StreamStage {
        let lda = cfg.lda_weights();
        StreamStage {
            cfg,
            window: VecDeque::new(),
            paths: FxHashMap::default(),
            lda,
            victims: Vec::new(),
            observed: 0,
        }
    }

    /// The configuration the stage runs under.
    pub(crate) fn config(&self) -> &FarmerConfig {
        &self.cfg
    }

    /// Requests observed so far.
    pub(crate) fn observed(&self) -> u64 {
        self.observed
    }

    /// Prepare one request's step into `out` for a graph stage on another
    /// thread: the stream half of [`crate::Farmer::observe_where`], under
    /// the same contract on `owns`. The path is learned here; the scalar
    /// part of each predecessor's similarity, the bound on its path term
    /// and, where the bound does not settle it, the term are evaluated
    /// here.
    pub fn observe_where(
        &mut self,
        req: Request,
        path: Option<&FilePath>,
        owns: impl Fn(FileId) -> bool,
        out: &mut Steps,
    ) {
        self.prepare(req, path, owns, out);
    }

    /// [`StreamStage::observe_where`] into any [`Sink`]. A graph stage on
    /// this thread takes each update as it comes, and asks for a path term
    /// only where the update's outcome consumes it.
    pub(crate) fn prepare(
        &mut self,
        req: Request,
        path: Option<&FilePath>,
        owns: impl Fn(FileId) -> bool,
        sink: &mut impl Sink,
    ) {
        let owned = owns(req.file);
        let (sig, new_path) = if owned {
            self.learn_path(req.file, path)
        } else {
            (PathSig::NONE, false)
        };
        let use_path = self.cfg.combo.contains(AttrKind::Path);
        let mode = self.cfg.path_mode;
        // The successor side of every term is the path this event offers.
        let offered = PathSig::of(path.filter(|_| use_path));
        let seq = self.observed as u32;
        sink.begin(req.file, owned, new_path);
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
            let bound = if use_path {
                path_term_bound(pred.sig, offered, mode)
            } else {
                Some(PathBound::NONE)
            };
            debug_assert!(
                i < 10 && s_items < 16,
                "weights end at ten, attributes at five"
            );
            let update = Update {
                file: pred.req.file,
                back: u8::try_from(seq.wrapping_sub(pred.seq)).unwrap_or(u8::MAX),
                dist: (i + 1) as u8,
                scalar: (s_inter as u8) << 4 | s_items as u8,
                bound,
                term: !bound.is_some_and(PathBound::settles),
            };
            let wide = PredUpdate {
                file: pred.req.file,
                hint: NodeHint::NONE,
                weight: w,
                s_inter,
                s_items: s_items as u32,
                path_bound: bound.map(PathBound::value),
            };
            sink.update(update, wide, || self.path_term(pred.req.file, path));
        }
        sink.end(use_path && path.is_some(), |pred| {
            self.path_term(pred, path)
        });
        self.window.push_back(WindowEntry { req, seq, sig });
        while self.window.len() > self.cfg.window {
            self.window.pop_front();
        }
        self.observed += 1;
    }

    /// The path term of the pair (`pred`, a request offering `path`):
    /// `(intersection, items)` of `pred`'s learned path against `path`,
    /// and nothing when the similarity leaves paths out.
    fn path_term(&self, pred: FileId, path: Option<&FilePath>) -> (f64, u32) {
        if !self.cfg.combo.contains(AttrKind::Path) {
            return (0.0, 0);
        }
        let learned = self.paths.get(&pred.raw()).map(|(p, _)| p);
        let (inter, n_pred, n_succ) = path_term(learned, path, self.cfg.path_mode);
        (inter, n_pred.max(n_succ) as u32)
    }

    /// Prepare the step that forgets `files` into `out` (nothing for an
    /// empty list): the stream half of [`crate::Farmer::forget_files`],
    /// which drops the files' learned paths and window entries here.
    pub fn forget_files(&mut self, files: &[FileId], out: &mut Steps) {
        self.forget_into(files, out);
    }

    /// [`StreamStage::forget_files`] into any [`Sink`]; the edges it
    /// removed.
    pub(crate) fn forget_into(&mut self, files: &[FileId], sink: &mut impl Sink) -> usize {
        if files.is_empty() {
            return 0;
        }
        let victims = &mut self.victims;
        victims.clear();
        victims.extend_from_slice(files);
        victims.sort_unstable();
        victims.dedup();
        for file in victims.iter() {
            self.paths.remove(&file.raw());
        }
        self.window
            .retain(|r| victims.binary_search(&r.req.file).is_err());
        sink.forget(victims)
    }

    /// This stage's share of [`crate::Farmer::memory_bytes`]: the learned
    /// paths, the window, the victim list and the LDA table.
    pub fn heap_bytes(&self) -> usize {
        let paths: usize = self
            .paths
            .values()
            .map(|(p, _)| p.heap_bytes())
            .sum::<usize>()
            + self.paths.len()
                * (std::mem::size_of::<u32>() + std::mem::size_of::<(FilePath, PathSig)>() + 8);
        paths
            + self.window.capacity() * std::mem::size_of::<WindowEntry>()
            + self.victims.capacity() * std::mem::size_of::<FileId>()
            + self.lda.capacity() * std::mem::size_of::<f64>()
    }

    /// The model image with this stage's half filled in and `graph` as
    /// the graph's: the look-ahead window, the learned paths (sorted by
    /// file id) and the observation count.
    pub fn export_state(&self, graph: GraphState) -> FarmerState {
        let mut paths: Vec<(u32, Vec<u32>)> = self
            .paths
            .iter()
            .map(|(&id, (p, _))| (id, p.components().to_vec()))
            .collect();
        paths.sort_unstable_by_key(|(id, _)| *id);
        FarmerState {
            observed: self.observed,
            window: self.window.iter().map(|w| w.req).collect(),
            paths,
            graph,
        }
    }

    /// This stage's half of a model image. Window entries are placed at
    /// the stream positions just before the image's, for which a fresh
    /// graph stage holds no hint.
    pub(crate) fn from_state(cfg: FarmerConfig, state: &FarmerState) -> StreamStage {
        let mut stage = StreamStage::new(cfg);
        stage.paths = state
            .paths
            .iter()
            .map(|(id, comps)| {
                let path = FilePath::from_components(comps.clone());
                let sig = PathSig::of(Some(&path));
                (*id, (path, sig))
            })
            .collect();
        let start = (state.observed as u32).wrapping_sub(state.window.len() as u32);
        stage.window = (0u32..)
            .zip(&state.window)
            .map(|(i, &req)| WindowEntry {
                req,
                seq: start.wrapping_add(i),
                sig: stage
                    .paths
                    .get(&req.file.raw())
                    .map_or(PathSig::NONE, |&(_, sig)| sig),
            })
            .collect();
        stage.observed = state.observed;
        stage
    }

    /// Learn `file`'s path on first sight. Returns the signature of the
    /// path now on record for the file ([`PathSig::NONE`] when there is
    /// none), and whether this call installed it — which the graph stage
    /// turns into a *late* install when the file already had accesses
    /// (see [`CorrelationGraph::mark_path_memos_stale`]).
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
        (sig, true)
    }
}

/// The graph half of a model: the correlation graph, the slot hints of
/// the latest requests, and the kernel's scratch. It applies the steps a
/// [`StreamStage`] prepared and answers the publication walk.
#[derive(Debug)]
pub struct GraphStage {
    cfg: FarmerConfig,
    pub(crate) graph: CorrelationGraph,
    /// Slot hint of the request at stream position `s`, at `s % HINTS`.
    hints: [NodeHint; HINTS],
    /// Does every cached degree in the graph bound its edge's degree under
    /// `cfg.p`? That is what lets publication skip edges on their cached
    /// degree ([`CorrelationGraph::for_each_list`]). True of a model that
    /// started empty: every cached degree is written under `cfg.p`. A
    /// restored one asks the image
    /// ([`CorrelationGraph::cached_degrees_bound`]), whose degrees may have
    /// been cached under another `p` — and are then a mix for good: they
    /// order cap eviction and are state.
    pub(crate) cached_degrees_bound: bool,
    /// Reusable per-event batch of predecessor updates (no allocation on
    /// the hot path after warm-up).
    scratch: Vec<PredUpdate>,
    /// The file of the request being applied.
    file: FileId,
    observed: u64,
}

/// The graph stage applies each step as it comes: the late-path check and
/// the access count when a request's step begins, one predecessor update
/// into the kernel's batch at a time, the batch mined when it ends.
impl Sink for GraphStage {
    #[inline]
    fn begin(&mut self, file: FileId, owned: bool, new_path: bool) {
        if new_path
            && self.observed > 0
            && self.graph.total_accesses(file) > 0.0
            && self.graph.num_edges() > 0
        {
            // The path arrived only after this file already had mined
            // edges: the memoized pair terms are stale.
            self.graph.mark_path_memos_stale(file);
        }
        self.hints[self.observed as usize % HINTS] = if owned {
            self.graph.record_access_hinted(file)
        } else {
            NodeHint::NONE
        };
        self.file = file;
        self.scratch.clear();
    }

    #[inline]
    fn update(&mut self, u: Update, wide: PredUpdate, _: impl FnOnce() -> (f64, u32)) {
        let back = usize::from(u.back);
        self.scratch.push(PredUpdate {
            hint: if back < HINTS {
                self.hints[(self.observed as usize).wrapping_sub(back) % HINTS]
            } else {
                NodeHint::NONE
            },
            ..wide
        });
    }

    #[inline]
    fn end(&mut self, succ_path: bool, term: impl Fn(FileId) -> (f64, u32)) {
        self.mine(succ_path, |_, pred| term(pred));
    }

    fn forget(&mut self, victims: &[FileId]) -> usize {
        let cleared: usize = victims.iter().map(|&f| self.graph.clear_node(f)).sum();
        cleared + self.graph.remove_edges_to_any(victims)
    }
}

impl GraphStage {
    pub(crate) fn new(cfg: FarmerConfig) -> GraphStage {
        GraphStage {
            cfg,
            graph: CorrelationGraph::new(),
            hints: [NodeHint::NONE; HINTS],
            cached_degrees_bound: true,
            scratch: Vec::new(),
            file: FileId::new(0),
            observed: 0,
        }
    }

    /// The correlation graph.
    pub fn graph(&self) -> &CorrelationGraph {
        &self.graph
    }

    /// Apply `steps`, prepared for another thread
    /// ([`StreamStage::observe_where`]), in order: each step as it would
    /// have come on the preparing thread, the path terms taken from the
    /// batch. Returns the edges the forgets among them removed.
    pub fn apply(&mut self, steps: &Steps) -> usize {
        let (mut updates, mut terms) = (&steps.updates[..], &steps.terms[..]);
        let mut victims = &steps.victims[..];
        let mut removed = 0;
        for head in &steps.heads {
            match *head {
                Head::Observe {
                    file,
                    updates: n,
                    terms: t,
                    owned,
                    new_path,
                    succ_path,
                } => {
                    let (these, rest) = updates.split_at(usize::from(n));
                    updates = rest;
                    let (their_terms, rest) = terms.split_at(usize::from(t));
                    terms = rest;
                    self.begin(file, owned, new_path);
                    for &u in these {
                        self.update(u, u.widen(&self.cfg), || (0.0, 0));
                    }
                    // The term of update `i`: the settled bound, else the
                    // next one the stream stage evaluated.
                    self.mine(succ_path, |i, _| {
                        let u = &these[i];
                        if u.term {
                            their_terms[these[..i].iter().filter(|u| u.term).count()]
                        } else {
                            u.bound.map_or((0.0, 0), PathBound::value)
                        }
                    });
                }
                Head::Forget { victims: n } => {
                    let (these, rest) = victims.split_at(n as usize);
                    victims = rest;
                    removed += self.forget(these);
                }
            }
        }
        removed
    }

    /// The end of a request's step: Constructing + Mining — the edge from
    /// every windowed predecessor to the request, LDA-weighted by distance
    /// and carrying the semantic similarity of the two requests —
    /// committed by the graph's two-phase pipeline
    /// ([`CorrelationGraph::mine_batch`]), which overlaps the one cold
    /// memory load each update needs and asks `term(i, pred)` for the path
    /// term of update `i` only where its outcome needs it; then the prune
    /// tick.
    #[inline]
    fn mine(&mut self, succ_path: bool, mut term: impl FnMut(usize, FileId) -> (f64, u32)) {
        if !self.scratch.is_empty() {
            let preds = &self.scratch;
            let term_of = |i: usize| term(i, preds[i].file);
            self.graph
                .mine_batch(preds, self.file, succ_path, term_of, &self.cfg);
        }
        self.observed += 1;
        if self.cfg.prune_interval > 0
            && self.observed.is_multiple_of(self.cfg.prune_interval as u64)
        {
            self.graph.prune_below(PRUNE_FLOOR, &self.cfg);
        }
    }

    /// Every published list (see [`crate::CorrelationSource::for_each_list`]).
    pub(crate) fn for_each_list(&self, visit: &mut dyn FnMut(FileId, &[Correlator])) {
        self.graph.for_each_list(
            &self.cfg,
            self.cfg.max_strength,
            self.cached_degrees_bound,
            visit,
        );
    }

    /// One pass over the graph slab copying every published list into a
    /// scratch slab ([`crate::Farmer::walk_table`]).
    pub fn walk_table(&self) -> TableWalk {
        // Sized for the worst case up front (every edge published): the
        // slack is address space the walk never touches, and no regrowth
        // means the allocation count is the same at any size.
        let mut walk = TableWalk::with_capacity(self.graph.active_nodes(), self.graph.num_edges());
        self.for_each_list(&mut |owner, list| walk.push(owner, list));
        walk
    }

    /// This stage's share of [`crate::Farmer::memory_bytes`]: the graph
    /// and the kernel's scratch.
    pub fn heap_bytes(&self) -> usize {
        self.graph.heap_bytes() + self.scratch.capacity() * std::mem::size_of::<PredUpdate>()
    }

    /// The graph's half of the model image.
    pub fn export_state(&self) -> GraphState {
        self.graph.export_state()
    }

    pub(crate) fn from_state(cfg: FarmerConfig, state: &FarmerState) -> GraphStage {
        let mut stage = GraphStage::new(cfg);
        stage.graph = CorrelationGraph::from_state(&state.graph);
        stage.observed = state.observed;
        // The image does not say what `p` its cached degrees were written
        // under, so ask the degrees themselves.
        stage.cached_degrees_bound = stage.graph.cached_degrees_bound(&stage.cfg);
        stage
    }
}
