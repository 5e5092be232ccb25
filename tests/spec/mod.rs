//! The mining rule, stated once.
//!
//! This module is *the* statement of what [`Farmer`] mines: the CoMiner
//! rule of paper §3.2 as an eager model over ordered maps, with none of the
//! kernel's slabs, slot hints, path signatures, degree bounds or caches.
//! The tests drive it with the same calls as a `Farmer` and compare the two
//! through `Farmer`'s public API only, bit for bit ([`lockstep`]; the
//! suites are `tests/mining_spec.rs`, `tests/graph_equivalence.rs` and the
//! kernel's own `model::tests`).
//! It states, in order:
//!
//! 1. the LDA window weights ([`lda_weight`]);
//! 2. the scalar and the path similarity ([`scalar_term`], [`path_term`],
//!    [`similarity`]), IPA and DPA restated over path components;
//! 3. the degree and the validity cut ([`degree`], [`Spec::list`]);
//! 4. the memoised path term of an edge, refreshed when the successor's
//!    having a path changes and after a late path install
//!    ([`Spec::observe`], [`Spec::update`]);
//! 5. the successor cap ([`Spec::update`]);
//! 6. the prune at [`PRUNE_FLOOR`] every `prune_interval` events
//!    ([`Spec::prune`]);
//! 7. forgetting ([`Spec::forget`]).
//!
//! The steps are marked (1) to (7) where they are stated below. Where the
//! float operations are not the plain formula's, the spec does them in the
//! kernel's order and says so at the place, under `ORDER:`.
//!
//! Left out as not the rule: the order of the node slab and the mutation
//! epoch (layout), and each node's similarity lower bound `sim_lb` — a
//! bound that only lets the prune skip a node whose every degree clears
//! the floor, so the prune's outcome, which the spec does state, is where
//! an unsound bound would show.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use farmer_core::config::PRUNE_FLOOR;
use farmer_core::{AttrCombo, AttrKind, Correlator, Farmer, FarmerConfig, PathMode, Request};
use farmer_core::{EdgeState, FarmerState, GraphState, NodeState};
use farmer_trace::{FileId, FilePath};

pub mod lockstep;

/// (1) The LDA weight of a successor `d ≥ 1` events after its
/// predecessor: one at distance 1, then 0.1 less a step (paper §3.2.2:
/// "0.9 for C, and 0.8 for D"), and nothing beyond the window.
pub fn lda_weight(window: usize, d: usize) -> f64 {
    if d == 0 || d > window {
        return 0.0;
    }
    (1.0 - 0.1 * (d - 1) as f64).max(0.0)
}

/// One half of a similarity: `(intersection value, items)`.
pub type Term = (f64, u32);

/// (2a) The scalar half of the similarity: the scalar attributes the
/// combination holds, each one item that matches or not.
pub fn scalar_term(a: &Request, b: &Request, combo: AttrCombo) -> Term {
    let attrs = [
        (AttrKind::User, a.uid == b.uid),
        (AttrKind::Process, a.pid == b.pid),
        (AttrKind::Host, a.host == b.host),
        (AttrKind::FileId, a.file == b.file),
        (AttrKind::Dev, a.dev == b.dev),
    ];
    let held = attrs.iter().filter(|(kind, _)| combo.contains(*kind));
    let matches = held.clone().filter(|(_, eq)| *eq).count();
    (matches as f64, held.count() as u32)
}

/// How many components `a` and `b` share, counted as a multiset: each of
/// `a` pairs off with an equal one of `b` not yet paired.
fn shared(a: &[u32], b: &[u32]) -> usize {
    let mut unpaired = b.to_vec();
    for c in a {
        if let Some(i) = unpaired.iter().position(|x| x == c) {
            unpaired.swap_remove(i);
        }
    }
    b.len() - unpaired.len()
}

/// (2b) The path half, of two paths given as components, directories
/// first, the file name last; its items are the larger side's, what the
/// similarity divides by. DPA makes every component an item and
/// intersects them as multisets. IPA makes the path one item worth the
/// shared directories plus a shared name, over the larger depth. A path
/// against none is its items and no match.
pub fn path_term(a: Option<&[u32]>, b: Option<&[u32]>, mode: PathMode) -> Term {
    let items = |p: &[u32]| match mode {
        PathMode::Ipa => 1,
        PathMode::Dpa => p.len() as u32,
    };
    let (a, b) = match (a, b) {
        (Some(a), Some(b)) => (a, b),
        (Some(p), None) | (None, Some(p)) => return (0.0, items(p)),
        (None, None) => return (0.0, 0),
    };
    let depth = a.len().max(b.len());
    match mode {
        PathMode::Dpa => (shared(a, b) as f64, depth as u32),
        PathMode::Ipa if depth == 0 => (0.0, 1),
        PathMode::Ipa => {
            let dirs = |p: &[u32]| p.len().saturating_sub(1);
            let name = a.last().is_some() && a.last() == b.last();
            let inter = shared(&a[..dirs(a)], &b[..dirs(b)]) + usize::from(name);
            (inter as f64 / depth as f64, 1)
        }
    }
}

/// (2c) Function 1, `|A ∩ B| / max(|A|, |B|)`, from the two halves:
/// `(1 / items, similarity)`, and `(0, 0)` for no items at all.
///
/// ORDER: the kernel multiplies by the reciprocal of the item count, which
/// it memoises on the edge, where Function 1 divides:
/// `(s_inter + path_inter) × (1 / items)`.
pub fn similarity(s: Term, path: Term) -> (f64, f64) {
    let inv = match s.1 + path.1 {
        0 => 0.0,
        items => 1.0 / f64::from(items),
    };
    (inv, (s.0 + path.0) * inv)
}

/// (3) Function 2, `R = sim·p + F·(1 − p)`, with `F = N(A,B) / N(A)`
/// clamped to `[0, 1]` and `N(A)` read as at least 1.
pub fn degree(sim: f64, mass: f64, total: f64, p: f64) -> f64 {
    let freq = (mass / total.max(1.0)).clamp(0.0, 1.0);
    sim * p + freq * (1.0 - p)
}

/// One edge `A → B`: the accumulators, the degree as of the last touch, and
/// the memoised path term.
#[derive(Debug, Clone)]
pub struct Edge {
    /// LDA mass `N(A,B)`.
    pub mass: f64,
    /// Sum and count of the similarities of the co-occurrences.
    pub sim_sum: f64,
    pub sim_n: u32,
    /// The degree as of the edge's last touch: what the cap compares.
    pub deg: f64,
    /// (4) The memoised path term, `(intersection, 1 / items)`, and whether
    /// the successor offered a path when it was computed. A NaN reciprocal
    /// marks it stale.
    pub path_inter: f64,
    pub inv_denom: f64,
    pub succ_path: bool,
}

impl Edge {
    fn sim_avg(&self) -> f64 {
        self.sim_sum / f64::from(self.sim_n)
    }
}

/// One file's node. An access makes one; a state image may also hold one
/// with edges and no accesses. A node with neither accesses nor edges
/// holds nothing: it is gone ([`Spec::drop_empty`]).
#[derive(Debug, Clone, Default)]
pub struct Node {
    /// Accesses `N(A)`.
    pub total: f64,
    pub edges: BTreeMap<u32, Edge>,
}

/// What the spec's updates turned out to be, and what the prunes dropped.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub hits: u64,
    pub inserts: u64,
    pub admits: u64,
    pub rejects: u64,
    pub pruned: u64,
}

/// The model: every observed event's window, the paths learned, the graph.
#[derive(Debug, Default)]
pub struct Spec {
    pub cfg: FarmerConfig,
    observed: u64,
    /// The last `window` requests, oldest first.
    window: VecDeque<Request>,
    /// Each file's path, as first offered.
    paths: BTreeMap<u32, Vec<u32>>,
    pub nodes: BTreeMap<u32, Node>,
    pub counts: Counts,
}

impl Spec {
    pub fn new(cfg: FarmerConfig) -> Spec {
        Spec {
            cfg,
            ..Spec::default()
        }
    }

    /// Observe one request as an instance that accounts only for the files
    /// it `owns`: their accesses, their paths and the edges out of them.
    pub fn observe(&mut self, r: Request, path: Option<&FilePath>, owns: impl Fn(FileId) -> bool) {
        let file = r.file.raw();
        if owns(r.file) {
            if let (false, Some(p)) = (self.paths.contains_key(&file), path) {
                self.paths.insert(file, p.components().to_vec());
                // (4) A late install: the file's edges memoised it pathless.
                if let Some(node) = self.nodes.get_mut(&file) {
                    node.edges.values_mut().for_each(|e| e.inv_denom = f64::NAN);
                }
            }
            self.nodes.entry(file).or_default().total += 1.0;
        }
        let use_path = self.cfg.combo.contains(AttrKind::Path);
        // The successor's side of a path term is the path this event offers.
        let offered = path.filter(|_| use_path).map(FilePath::components);
        let updates: Vec<_> = (self.window.iter().rev().enumerate())
            .map(|(i, pred)| (pred, lda_weight(self.cfg.window, i + 1)))
            .filter(|&(pred, w)| w > 0.0 && pred.file != r.file && owns(pred.file))
            .map(|(pred, w)| {
                let learned = self.paths.get(&pred.file.raw()).map(Vec::as_slice);
                let path = match use_path {
                    true => path_term(learned, offered, self.cfg.path_mode),
                    false => (0.0, 0),
                };
                let s = scalar_term(pred, &r, self.cfg.combo);
                (pred.file.raw(), w, s, path)
            })
            .collect();
        // ORDER: an edge's mass and similarity sum add up in stream order,
        // and within one event the nearer of two windowed occurrences of a
        // file first — the window is walked newest first.
        for (pred, w, s, path) in updates {
            self.update(pred, file, w, s, path, offered.is_some());
        }
        self.window.push_back(r);
        while self.window.len() > self.cfg.window {
            self.window.pop_front();
        }
        self.observed += 1;
        let every = self.cfg.prune_interval as u64;
        if every > 0 && self.observed.is_multiple_of(every) {
            self.prune();
        }
    }

    /// One co-occurrence: `to` followed `from` at LDA weight `w`, with the
    /// pair's scalar term `s` and the path term as it is now.
    fn update(&mut self, from: u32, to: u32, w: f64, s: Term, path: Term, succ_path: bool) {
        let p = self.cfg.p;
        let node = self.nodes.entry(from).or_default();
        if let Some(e) = node.edges.get_mut(&to) {
            // (4) The memo stands until marked stale, or until the successor
            // offers a path where it offered none, or the other way round.
            if e.inv_denom.is_nan() || e.succ_path != succ_path {
                (e.inv_denom, _) = similarity(s, path);
                e.path_inter = path.0;
                e.succ_path = succ_path;
            }
            let sim = (s.0 + e.path_inter) * e.inv_denom;
            e.mass += w;
            e.sim_sum += sim;
            e.sim_n += 1;
            e.deg = degree(e.sim_avg(), e.mass, node.total, p);
            self.counts.hits += 1;
            return;
        }
        let (inv_denom, sim) = similarity(s, path);
        let edge = Edge {
            mass: w,
            sim_sum: sim,
            sim_n: 1,
            deg: degree(sim, w, node.total, p),
            path_inter: path.0,
            inv_denom,
            succ_path,
        };
        if node.edges.len() < self.cfg.max_successors {
            node.edges.insert(to, edge);
            self.counts.inserts += 1;
            return;
        }
        // (5) At the cap a newcomer replaces the weakest edge — least by
        // (degree at its last touch, successor id) in `total_cmp` order —
        // only if it is strictly stronger.
        let (&weakest, weak) = (node.edges.iter())
            .min_by(|a, b| a.1.deg.total_cmp(&b.1.deg).then(a.0.cmp(b.0)))
            .expect("a full node has edges");
        if edge.deg > weak.deg {
            node.edges.remove(&weakest);
            node.edges.insert(to, edge);
            self.counts.admits += 1;
        } else {
            self.counts.rejects += 1;
        }
    }

    /// (6) Drop every edge whose degree now is below [`PRUNE_FLOOR`]; one
    /// at the floor stays. The seeded streams meet that case to the bit: at
    /// the default `p` a pair that shares no attribute, seen once at
    /// distance 1 from a file accessed six times, has degree
    /// `(1 / 6) × (1 − 0.7) = 0.05`.
    fn prune(&mut self) {
        let p = self.cfg.p;
        for node in self.nodes.values_mut() {
            let before = node.edges.len();
            let total = node.total;
            node.edges
                .retain(|_, e| degree(e.sim_avg(), e.mass, total, p) >= PRUNE_FLOOR);
            self.counts.pruned += (before - node.edges.len()) as u64;
        }
        self.drop_empty();
    }

    /// (7) Forget `files`: their paths, their nodes, every edge into them and
    /// their window entries. Returns the edges removed.
    pub fn forget(&mut self, files: &[FileId]) -> usize {
        let victims: BTreeSet<u32> = files.iter().map(|f| f.raw()).collect();
        let mut removed = 0;
        for v in &victims {
            self.paths.remove(v);
            removed += self.nodes.remove(v).map_or(0, |n| n.edges.len());
        }
        for node in self.nodes.values_mut() {
            let before = node.edges.len();
            node.edges.retain(|to, _| !victims.contains(to));
            removed += before - node.edges.len();
        }
        self.window.retain(|r| !victims.contains(&r.file.raw()));
        self.drop_empty();
        removed
    }

    /// Drop every node with neither accesses nor edges: one whose edges a
    /// prune or a forget took, and which was never accessed.
    fn drop_empty(&mut self) {
        self.nodes
            .retain(|_, n| n.total > 0.0 || !n.edges.is_empty());
    }

    /// (3) `node`'s Correlator List: its successors whose degree now
    /// reaches `max_strength`, strongest first, ties by ascending id, as
    /// `(successor, degree bits)`.
    fn list(&self, node: &Node) -> Vec<(u32, u64)> {
        let (p, cut) = (self.cfg.p, self.cfg.max_strength);
        let mut list: Vec<(u32, f64)> = (node.edges.iter())
            .map(|(&to, e)| (to, degree(e.sim_avg(), e.mass, node.total, p)))
            .filter(|&(_, d)| d >= cut)
            .collect();
        list.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        list.into_iter().map(|(to, d)| (to, d.to_bits())).collect()
    }

    /// The model as a state image, nodes in id order, with the epoch and
    /// every `sim_lb` zero.
    pub fn export(&self) -> FarmerState {
        let edge = |(&to, e): (&u32, &Edge)| EdgeState {
            to,
            mass: e.mass.to_bits(),
            sim_sum: e.sim_sum.to_bits(),
            sim_n: e.sim_n,
            deg: e.deg.to_bits(),
            path_inter: e.path_inter.to_bits(),
            inv_denom: e.inv_denom.to_bits(),
            succ_path: e.succ_path,
        };
        let nodes = (self.nodes.iter()).map(|(&id, n)| NodeState {
            id,
            total: n.total.to_bits(),
            sim_lb: 0,
            edges: n.edges.iter().map(edge).collect(),
        });
        FarmerState {
            observed: self.observed,
            window: self.window.iter().copied().collect(),
            paths: self.paths.iter().map(|(&id, c)| (id, c.clone())).collect(),
            graph: GraphState {
                epoch: 0,
                nodes: nodes.collect(),
            },
        }
    }
}

/// Panic unless `kernel` holds what `spec` holds, through the public API:
/// the state image without what the spec leaves out (nodes in id order,
/// the epoch and every `sim_lb` zero), every node's Correlator List, and
/// the published table.
pub fn assert_same(kernel: &Farmer, spec: &Spec, at: &dyn std::fmt::Display) {
    let (mut got, want) = (kernel.export_state(), spec.export());
    got.graph.epoch = 0;
    got.graph.nodes.sort_unstable_by_key(|n| n.id);
    got.graph.nodes.iter_mut().for_each(|n| n.sim_lb = 0);
    let rest = |s: &FarmerState| (s.observed, s.window.clone(), s.paths.clone());
    assert_eq!(rest(&got), rest(&want), "{at}");
    let (g, w) = (&got.graph.nodes, &want.graph.nodes);
    let first = g.iter().zip(w).find(|(g, w)| g != w);
    assert!(first.is_none(), "{at}: kernel, spec {first:#?}");
    assert_eq!(g.len(), w.len(), "{at}");
    let bits = |list: &[Correlator]| -> Vec<(u32, u64)> {
        list.iter()
            .map(|c| (c.file.raw(), c.degree.to_bits()))
            .collect()
    };
    let table = kernel.correlator_table();
    let mut published = table.iter();
    for (&id, node) in &spec.nodes {
        let want = spec.list(node);
        let got = bits(kernel.correlators(FileId::new(id)).entries());
        assert_eq!(got, want, "{at}: the list of {id}");
        if !want.is_empty() {
            let (owner, list) = published
                .next()
                .unwrap_or_else(|| panic!("{at}: no list of {id}"));
            assert_eq!((owner.raw(), bits(list)), (id, want), "{at}: the table");
        }
    }
    assert_eq!(published.next(), None, "{at}: the table publishes more");
}
