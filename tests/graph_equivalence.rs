//! Storage-equivalence property test for the sparse slotted / lazy-decay
//! correlation graph.
//!
//! The oracle below is a deliberately naive dense implementation of the
//! graph's *semantics*: nodes in an id-keyed map, eager decay (every `age`
//! multiplies every accumulator immediately), full scans everywhere, and
//! cap eviction by minimum `(degree at last touch, successor id)`. Random
//! request streams — with single and batched forgets, pruning, aging and
//! sparsely spread file ids — are driven through both; edge sets, masses,
//! similarity means, degrees, totals and active-node counts must agree
//! within 1e-9 (the only divergence source is eager multiply vs.
//! `exp(Σ ln f)` rescaling).

use std::collections::BTreeMap;

use farmer::core::{CorrelationGraph, FarmerConfig};
use farmer::prelude::*;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct OEdge {
    mass: f64,
    sim_sum: f64,
    sim_n: u32,
    /// Degree as of the last touch (eviction-ordering key).
    touch_degree: f64,
}

#[derive(Debug, Clone, Default)]
struct ONode {
    total: f64,
    edges: BTreeMap<u32, OEdge>,
}

/// Dense, eager, full-scan oracle for the correlation-graph semantics.
#[derive(Debug, Default)]
struct Oracle {
    nodes: BTreeMap<u32, ONode>,
    num_edges: usize,
}

fn degree(sim: f64, mass: f64, total: f64, p: f64) -> f64 {
    let f = (mass / total.max(1.0)).clamp(0.0, 1.0);
    sim * p + f * (1.0 - p)
}

impl Oracle {
    fn record_access(&mut self, file: u32) {
        self.nodes.entry(file).or_default().total += 1.0;
    }

    fn update_edge(&mut self, from: u32, to: u32, weight: f64, sim: f64, cfg: &FarmerConfig) {
        let p = cfg.p;
        let cap = cfg.max_successors.max(1);
        let node = self.nodes.entry(from).or_default();
        let total = node.total.max(1.0);
        if let Some(e) = node.edges.get_mut(&to) {
            e.mass += weight;
            e.sim_sum += sim;
            e.sim_n += 1;
            e.touch_degree = degree(e.sim_sum / e.sim_n as f64, e.mass, total, p);
            return;
        }
        let fresh = OEdge {
            mass: weight,
            sim_sum: sim,
            sim_n: 1,
            touch_degree: degree(sim, weight, total, p),
        };
        if node.edges.len() < cap {
            node.edges.insert(to, fresh);
            self.num_edges += 1;
            return;
        }
        // Weakest by (degree at last touch, successor id); ties break to
        // the smaller id. Admit only a strictly stronger newcomer.
        let (&weak_to, weak_deg) = node
            .edges
            .iter()
            .map(|(t, e)| (t, e.touch_degree))
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(b.0)))
            .expect("cap >= 1");
        if fresh.touch_degree > weak_deg {
            node.edges.remove(&weak_to);
            node.edges.insert(to, fresh);
        }
    }

    fn age(&mut self, factor: f64) {
        if factor >= 1.0 {
            return;
        }
        for node in self.nodes.values_mut() {
            node.total *= factor;
            for e in node.edges.values_mut() {
                e.mass *= factor;
                // touch_degree is a ratio of mass/total — invariant.
            }
        }
    }

    fn prune_below(&mut self, floor: f64, cfg: &FarmerConfig) {
        let p = cfg.p;
        for node in self.nodes.values_mut() {
            let total = node.total.max(1.0);
            let before = node.edges.len();
            node.edges
                .retain(|_, e| degree(e.sim_sum / e.sim_n as f64, e.mass, total, p) >= floor);
            self.num_edges -= before - node.edges.len();
        }
        self.drop_inactive();
    }

    fn forget(&mut self, file: u32) {
        if let Some(node) = self.nodes.remove(&file) {
            self.num_edges -= node.edges.len();
        }
        for node in self.nodes.values_mut() {
            if node.edges.remove(&file).is_some() {
                self.num_edges -= 1;
            }
        }
        self.drop_inactive();
    }

    fn drop_inactive(&mut self) {
        self.nodes
            .retain(|_, n| n.total > 0.0 || !n.edges.is_empty());
    }

    fn active_nodes(&self) -> usize {
        self.nodes.len()
    }
}

#[derive(Debug, Clone)]
enum Op {
    Access(u32),
    Edge(u32, u32, f64, f64),
    Age(f64),
    Prune(f64),
    Forget(u32),
    /// A batch of victims for one `remove_edges_to_any` sweep.
    ForgetMany(Vec<u32>),
}

/// Decode one raw sample into an operation. The kind space is weighted
/// toward accesses and edge updates, with aging, pruning and forgets mixed
/// in (the maintenance paths under test).
fn decode(kind: u8, a: u32, b: u32, wi: u8, si: u8) -> Op {
    const WEIGHTS: [f64; 3] = [0.5, 0.8, 1.0];
    const SIMS: [f64; 4] = [0.0, 0.25, 0.5, 0.9];
    const AGES: [f64; 3] = [0.5, 0.9, 1.0];
    const FLOORS: [f64; 3] = [0.0, 0.05, 0.3];
    match kind {
        0..=4 => Op::Access(a),
        5..=13 => Op::Edge(a, b, WEIGHTS[wi as usize % 3], SIMS[si as usize % 4]),
        14 => Op::Age(AGES[wi as usize % 3]),
        15 => Op::Prune(FLOORS[si as usize % 3]),
        16..=17 => Op::Forget(a),
        // A duplicate, a likely edge pair (`a`, `b`: victims that are each
        // other's successors), a neighbour, and an id no stream ever uses.
        _ => Op::ForgetMany(vec![
            a,
            b,
            a,
            (a + 1 + u32::from(wi)) % 24,
            24 + u32::from(si),
        ]),
    }
}

/// Spread a small dense id over a ~10^7 universe (injective for ids < 24).
fn sparse_id(id: u32) -> u32 {
    id * 416_661 + 13
}

fn check_equal(g: &CorrelationGraph, o: &Oracle, cfg: &FarmerConfig) {
    prop_assert_eq!(g.num_edges(), o.num_edges, "edge count diverged");
    prop_assert_eq!(g.active_nodes(), o.active_nodes(), "active nodes diverged");
    for (&id, onode) in &o.nodes {
        let fid = FileId::new(id);
        let total = g.total_accesses(fid);
        prop_assert!(
            (total - onode.total).abs() < 1e-9,
            "total diverged for {}: {} vs {}",
            id,
            total,
            onode.total
        );
        let got: Vec<_> = g.edges(fid, cfg).collect();
        prop_assert_eq!(got.len(), onode.edges.len(), "successor count for {}", id);
        for view in got {
            let oe = onode
                .edges
                .get(&view.to.raw())
                .unwrap_or_else(|| panic!("unexpected edge {id} -> {}", view.to));
            prop_assert!(
                (view.mass - oe.mass).abs() < 1e-9,
                "mass {}->{}",
                id,
                view.to
            );
            let oavg = oe.sim_sum / oe.sim_n as f64;
            prop_assert!(
                (view.sim_avg - oavg).abs() < 1e-9,
                "sim_avg {}->{}",
                id,
                view.to
            );
            let odeg = degree(oavg, oe.mass, onode.total, cfg.p);
            prop_assert!(
                (view.degree - odeg).abs() < 1e-9,
                "degree {}->{}: {} vs {}",
                id,
                view.to,
                view.degree,
                odeg
            );
        }
    }
}

fn run_stream(
    raw_ops: &[(u8, u32, u32, u8, u8)],
    cfg: &FarmerConfig,
    map_id: impl Fn(u32) -> u32,
) -> CorrelationGraph {
    let mut g = CorrelationGraph::new();
    let mut o = Oracle::default();
    for (i, &(kind, a, b, wi, si)) in raw_ops.iter().enumerate() {
        match decode(kind, a, b, wi, si) {
            Op::Access(a) => {
                g.record_access(FileId::new(map_id(a)));
                o.record_access(map_id(a));
            }
            Op::Edge(a, b, w, s) => {
                if a != b {
                    g.update_edge(FileId::new(map_id(a)), FileId::new(map_id(b)), w, s, cfg);
                    o.update_edge(map_id(a), map_id(b), w, s, cfg);
                }
            }
            Op::Age(f) => {
                g.age(f);
                o.age(f);
            }
            Op::Prune(floor) => {
                g.prune_below(floor, cfg);
                o.prune_below(floor, cfg);
            }
            Op::Forget(a) => {
                let id = map_id(a);
                g.clear_node(FileId::new(id));
                g.remove_edges_to(FileId::new(id));
                o.forget(id);
            }
            Op::ForgetMany(ids) => {
                let mut victims: Vec<FileId> =
                    ids.iter().map(|&a| FileId::new(map_id(a))).collect();
                for &v in &victims {
                    g.clear_node(v);
                    o.forget(v.raw());
                }
                victims.sort_unstable(); // the sweep's one precondition
                g.remove_edges_to_any(&victims);
            }
        }
        if i % 16 == 0 {
            check_equal(&g, &o, cfg);
        }
    }
    check_equal(&g, &o, cfg);
    g
}

/// The batched sweep on the cases a random stream reaches only by luck:
/// a victim whose only predecessors were never accessed (emptying them
/// must free their slots mid-sweep, which swap-moves later nodes under the
/// cursor), next to predecessors that stay because they have accesses or
/// other successors.
#[test]
fn forget_many_frees_emptied_never_accessed_predecessors() {
    let cfg = FarmerConfig::default();
    let mut ops = vec![(0, 1, 0, 0, 0)]; // Access(1): stays when emptied
    for from in 0..12 {
        ops.push((5, from, 20, 0, 2)); // Edge(from, 20)
    }
    ops.push((5, 3, 7, 0, 2)); // Edge(3, 7): 3 keeps a successor
    ops.push((5, 20, 21, 0, 2)); // victims 20 and 21 are
    ops.push((5, 21, 20, 0, 2)); // each other's successors
    ops.push((18, 20, 21, 0, 0)); // ForgetMany([20, 21, 20, 21, 24])
    let maps: [fn(u32) -> u32; 2] = [|id| id, sparse_id];
    for map_id in maps {
        let g = run_stream(&ops, &cfg, map_id);
        assert_eq!(g.active_nodes(), 2, "nodes 1 and 3 survive");
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.total_accesses(FileId::new(map_id(1))), 1.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Dense ids: the slotted graph matches the dense oracle op for op.
    #[test]
    fn sparse_graph_matches_dense_oracle(
        ops in proptest::collection::vec((0u8..20, 0u32..24, 0u32..24, 0u8..3, 0u8..4), 1..400),
    ) {
        let mut cfg = FarmerConfig::default();
        cfg.max_successors = 3; // small cap: eviction churn on every node
        run_stream(&ops, &cfg, |id| id);
    }

    /// Sparse ids spread over a ~10^7 universe: identical behaviour, and
    /// resident memory a dense spine could never sustain.
    #[test]
    fn sparse_ids_match_oracle_and_stay_compact(
        ops in proptest::collection::vec((0u8..20, 0u32..24, 0u32..24, 0u8..3, 0u8..4), 1..400),
    ) {
        let mut cfg = FarmerConfig::default();
        cfg.max_successors = 3;
        run_stream(&ops, &cfg, sparse_id);

        // Rebuild once more to check the memory claim directly.
        let mut g = CorrelationGraph::new();
        for &(kind, a, b, wi, si) in &ops {
            if let Op::Edge(a, b, w, s) = decode(kind, a, b, wi, si) {
                if a != b {
                    g.update_edge(FileId::new(sparse_id(a)), FileId::new(sparse_id(b)), w, s, &cfg);
                }
            }
        }
        // 24 possible nodes; a dense spine up to id ~10^7 would need tens
        // of MiB. The slotted graph stays in the kilobytes.
        prop_assert!(g.heap_bytes() < 64 << 10, "heap {} bytes", g.heap_bytes());
    }
}
