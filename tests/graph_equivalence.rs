//! The correlation graph's maintenance paths — the successor cap, the
//! prune, single and batched forgets — against the statement of the
//! mining rule (`spec/mod.rs`), reached only through `Farmer`'s public API.
//!
//! Random operation streams and a hand-built sweep case are fed to a
//! `Farmer` and to the spec, an eager model over ordered maps with full
//! scans everywhere; after every call the kernel's state image, published
//! table and Correlator Lists must be the spec's, bit for bit.

mod spec;

use farmer::core::FarmerConfig;
use farmer::trace::FileId;
use proptest::prelude::*;
use spec::lockstep::{cfg, path_of, req, Lockstep};
use spec::{Edge, Spec};

/// Spread a small dense id over a ~10^7 universe (injective for ids < 32).
fn sparse_id(id: u32) -> u32 {
    id * 416_661 + 13
}

/// Feed one raw sample to both. The kind space is weighted toward
/// observes, with single and batched forgets mixed in; the prune runs
/// every fourth observe.
fn apply(both: &mut Lockstep, (kind, a, b, wi, si): (u8, u32, u32, u8, u8), s: Run) {
    let file = |x: u32| FileId::new((s.id)(x));
    match kind {
        0..=15 => {
            let r = req((s.id)(a), b % 5, u32::from(wi), u32::from(si));
            let path = path_of(a, u32::from(wi % 2)).filter(|_| si != 0);
            both.observe(r, path.as_ref(), s.part);
        }
        16..=17 => {
            both.forget(&[file(a)]);
        }
        // A duplicate, a likely edge pair (`a`, `b`: victims that are each
        // other's successors), a neighbour, and an id no stream ever uses.
        _ => {
            let victims = [a, b, a, (a + 1 + u32::from(wi)) % 24, 24 + u32::from(si)];
            both.forget(&victims.map(file));
        }
    }
}

/// How a random stream names its files and which of them it owns.
#[derive(Clone, Copy)]
struct Run {
    id: fn(u32) -> u32,
    /// `Some(r)`: this half of a two-way ownership partition by parity.
    part: Option<u32>,
}

/// An edge `from → to` in `spec`, as one co-occurrence at distance one
/// with half its attributes matching would leave it.
fn edge(spec: &mut Spec, from: u32, to: u32) {
    let p = spec.cfg.p;
    let node = spec.nodes.entry(from).or_default();
    let deg = spec::degree(0.5, 1.0, node.total, p);
    let e = Edge {
        mass: 1.0,
        sim_sum: 0.5,
        sim_n: 1,
        deg,
        path_inter: 0.0,
        inv_denom: 0.5,
        succ_path: false,
    };
    node.edges.insert(to, e);
}

/// The batched sweep on the cases a random stream never reaches: a victim
/// whose only predecessors were never accessed (emptying them must free
/// their slots mid-sweep, which swap-moves later nodes under the cursor),
/// next to predecessors that stay because they have accesses or other
/// successors. Only a state image holds a node with edges and no
/// accesses, so both start from one.
#[test]
fn forget_many_frees_emptied_never_accessed_predecessors() {
    let maps: [fn(u32) -> u32; 2] = [|x| x, sparse_id];
    for id in maps {
        let mut image = Spec::new(FarmerConfig::default());
        image.nodes.entry(id(1)).or_default().total = 1.0; // stays when emptied
        for from in 0..12 {
            edge(&mut image, id(from), id(20));
        }
        edge(&mut image, id(3), id(7)); // 3 keeps a successor
        edge(&mut image, id(20), id(21)); // victims 20 and 21 are
        edge(&mut image, id(21), id(20)); // each other's successors
        let mut both = Lockstep::from_spec(image, "sweep".into());
        let removed = both.forget(&[20, 21, 20, 21, 24].map(|x| FileId::new(id(x))));
        assert_eq!(removed, 2 + 12);
        let g = both.kernel.graph();
        assert_eq!(g.active_nodes(), 2, "nodes 1 and 3 survive");
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.total_accesses(FileId::new(id(1))), 1.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random streams at a successor cap of three (eviction churn on every
    /// node): on dense ids as the instance that owns every file, and on
    /// ids spread over ~10^7 as one half of a partition. The kernel is the
    /// spec, call for call.
    #[test]
    fn sparse_graph_matches_dense_oracle(
        ops in proptest::collection::vec((0u8..20, 0u32..24, 0u32..24, 0u8..3, 0u8..4), 1..400),
    ) {
        let half = Some(ops.len() as u32 % 2);
        for run in [Run { id: |x| x, part: None }, Run { id: sparse_id, part: half }] {
            let mut both = Lockstep::new(cfg(3, 4), "random stream".into());
            for &op in &ops {
                apply(&mut both, op, run);
            }
        }
    }
}
