//! A slab-backed B+-tree: ordered map from `u64` keys to byte values.
//!
//! Design points:
//!
//! * **Nodes in a slab** — internal and leaf nodes live in one `Vec`,
//!   linked by `u32` indices (the "page ids"). Freed nodes go to a free
//!   list, so the arena never shrinks under churn but never leaks either.
//! * **Leaf chaining** — leaves form a singly-linked list in key order, so
//!   range scans stream without touching internal nodes.
//! * **Split on overflow** — standard B+-tree splits; the middle key is
//!   *copied* up for leaves (B+ semantics: all values live in leaves) and
//!   *moved* up for internal nodes.
//! * **Lazy deletion** — deletes remove the key from its leaf; an emptied
//!   leaf is unlinked and freed, but partially-empty nodes are not
//!   rebalanced. This is the strategy PostgreSQL's nbtree ships with; it
//!   keeps the invariant set small while bounding space by live keys.
//! * **I/O accounting** — every node touched during a descent counts as a
//!   page read; every node mutated counts as a page write. The metadata
//!   server's latency model charges per page, so deeper trees genuinely
//!   cost more simulated time.

/// Maximum keys per node before it splits. 64 keeps trees shallow at the
/// namespace sizes the experiments use while still exercising multi-level
/// descents (three levels by ~260k keys).
pub const DEFAULT_ORDER: usize = 64;

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        keys: Vec<u64>,
        vals: Vec<Box<[u8]>>,
        next: u32,
    },
    Internal {
        /// `keys[i]` separates `children[i]` (< key) from `children[i+1]` (≥ key).
        keys: Vec<u64>,
        children: Vec<u32>,
    },
    /// Freed slot.
    Free,
}

/// Page-level access counters (reset with [`BTree::take_io`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TreeIo {
    /// Nodes touched by descents and scans.
    pub page_reads: u64,
    /// Nodes mutated.
    pub page_writes: u64,
}

/// The B+-tree. See module docs.
#[derive(Debug, Clone)]
pub struct BTree {
    nodes: Vec<Node>,
    free: Vec<u32>,
    root: u32,
    order: usize,
    len: usize,
    io: TreeIo,
}

impl Default for BTree {
    fn default() -> Self {
        Self::new()
    }
}

impl BTree {
    /// An empty tree with the default order.
    pub fn new() -> Self {
        Self::with_order(DEFAULT_ORDER)
    }

    /// An empty tree with a custom order (≥ 4; odd orders are rounded up).
    pub fn with_order(order: usize) -> Self {
        assert!(order >= 4, "order must be at least 4");
        let order = order + order % 2;
        let mut t = BTree {
            nodes: Vec::new(),
            free: Vec::new(),
            root: 0,
            order,
            len: 0,
            io: TreeIo::default(),
        };
        t.root = t.alloc(Node::Leaf {
            keys: Vec::new(),
            vals: Vec::new(),
            next: NIL,
        });
        t
    }

    /// Number of live key-value pairs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the tree holds no pairs.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the tree (1 = root is a leaf).
    pub fn depth(&self) -> usize {
        let mut d = 1;
        let mut cur = self.root;
        loop {
            match &self.nodes[cur as usize] {
                Node::Internal { children, .. } => {
                    cur = children[0];
                    d += 1;
                }
                _ => return d,
            }
        }
    }

    /// Drain the I/O counters accumulated since the last call.
    pub fn take_io(&mut self) -> TreeIo {
        std::mem::take(&mut self.io)
    }

    /// Current I/O counters without resetting.
    pub fn io(&self) -> TreeIo {
        self.io
    }

    /// Look up `key`.
    pub fn get(&mut self, key: u64) -> Option<&[u8]> {
        let leaf = self.descend_to_leaf(key);
        let Node::Leaf { keys, vals, .. } = &self.nodes[leaf as usize] else {
            unreachable!("descend_to_leaf returns a leaf");
        };
        match keys.binary_search(&key) {
            Ok(i) => Some(&vals[i]),
            Err(_) => None,
        }
    }

    /// Insert or replace. Returns `true` if the key was new.
    pub fn insert(&mut self, key: u64, value: &[u8]) -> bool {
        let (inserted, split) = self.insert_rec(self.root, key, value);
        if let Some((sep, right)) = split {
            let old_root = self.root;
            self.root = self.alloc(Node::Internal {
                keys: vec![sep],
                children: vec![old_root, right],
            });
        }
        if inserted {
            self.len += 1;
        }
        inserted
    }

    /// Remove `key`. Returns `true` if it was present.
    pub fn remove(&mut self, key: u64) -> bool {
        let leaf = self.descend_to_leaf(key);
        let Node::Leaf { keys, vals, .. } = &mut self.nodes[leaf as usize] else {
            unreachable!();
        };
        match keys.binary_search(&key) {
            Ok(i) => {
                keys.remove(i);
                vals.remove(i);
                self.io.page_writes += 1;
                self.len -= 1;
                // Lazy deletion: emptied non-root leaves are unlinked during
                // the next structural pass; we only compact an empty root.
                if self.len == 0 {
                    self.collapse_to_empty_root();
                }
                true
            }
            Err(_) => false,
        }
    }

    /// Iterate `[lo, hi]` in key order via the leaf chain.
    pub fn range(&mut self, lo: u64, hi: u64) -> Vec<(u64, Box<[u8]>)> {
        let mut out = Vec::new();
        if lo > hi {
            return out;
        }
        let mut leaf = self.descend_to_leaf(lo);
        loop {
            let Node::Leaf { keys, vals, next } = &self.nodes[leaf as usize] else {
                unreachable!();
            };
            for (k, v) in keys.iter().zip(vals) {
                if *k > hi {
                    return out;
                }
                if *k >= lo {
                    out.push((*k, v.clone()));
                }
            }
            if *next == NIL {
                return out;
            }
            leaf = *next;
            self.io.page_reads += 1;
        }
    }

    /// All keys in order.
    #[cfg(test)]
    fn keys(&mut self) -> Vec<u64> {
        self.range(0, u64::MAX)
            .into_iter()
            .map(|(k, _)| k)
            .collect()
    }

    /// Verify structural invariants; returns a description of the first
    /// violation. Used by tests and debug assertions.
    pub fn check_invariants(&self) -> Result<(), String> {
        // Keys sorted within nodes; children count = keys + 1; all leaves
        // reachable through the chain in sorted order.
        let mut leaf_keys_via_tree = Vec::new();
        self.collect_leaf_keys(self.root, &mut leaf_keys_via_tree)?;
        let mut sorted = leaf_keys_via_tree.clone();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted != leaf_keys_via_tree {
            return Err("leaf keys not globally sorted/unique".into());
        }
        if leaf_keys_via_tree.len() != self.len {
            return Err(format!(
                "len {} != leaf key count {}",
                self.len,
                leaf_keys_via_tree.len()
            ));
        }
        Ok(())
    }

    fn collect_leaf_keys(&self, node: u32, out: &mut Vec<u64>) -> Result<(), String> {
        match &self.nodes[node as usize] {
            Node::Leaf { keys, .. } => {
                if !keys.windows(2).all(|w| w[0] < w[1]) {
                    return Err("leaf keys unsorted".into());
                }
                out.extend_from_slice(keys);
                Ok(())
            }
            Node::Internal { keys, children } => {
                if children.len() != keys.len() + 1 {
                    return Err("child/key arity mismatch".into());
                }
                if !keys.windows(2).all(|w| w[0] < w[1]) {
                    return Err("internal keys unsorted".into());
                }
                for &c in children {
                    self.collect_leaf_keys(c, out)?;
                }
                Ok(())
            }
            Node::Free => Err("reachable free node".into()),
        }
    }

    fn alloc(&mut self, node: Node) -> u32 {
        self.io.page_writes += 1;
        match self.free.pop() {
            Some(i) => {
                self.nodes[i as usize] = node;
                i
            }
            None => {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        }
    }

    fn descend_to_leaf(&mut self, key: u64) -> u32 {
        let mut cur = self.root;
        loop {
            self.io.page_reads += 1;
            match &self.nodes[cur as usize] {
                Node::Leaf { .. } => return cur,
                Node::Internal { keys, children } => {
                    let idx = keys.partition_point(|&k| k <= key);
                    cur = children[idx];
                }
                Node::Free => unreachable!("descended into free node"),
            }
        }
    }

    /// Recursive insert; returns (was-new, optional split (separator, right)).
    fn insert_rec(&mut self, node: u32, key: u64, value: &[u8]) -> (bool, Option<(u64, u32)>) {
        self.io.page_reads += 1;
        match &mut self.nodes[node as usize] {
            Node::Leaf { keys, vals, .. } => {
                let inserted = match keys.binary_search(&key) {
                    Ok(i) => {
                        vals[i] = value.into();
                        false
                    }
                    Err(i) => {
                        keys.insert(i, key);
                        vals.insert(i, value.into());
                        true
                    }
                };
                self.io.page_writes += 1;
                let split = if keys.len() > self.order {
                    Some(self.split_leaf(node))
                } else {
                    None
                };
                (inserted, split)
            }
            Node::Internal { keys, children } => {
                let idx = keys.partition_point(|&k| k <= key);
                let child = children[idx];
                let (inserted, child_split) = self.insert_rec(child, key, value);
                let split = if let Some((sep, right)) = child_split {
                    let Node::Internal { keys, children } = &mut self.nodes[node as usize] else {
                        unreachable!();
                    };
                    keys.insert(idx, sep);
                    children.insert(idx + 1, right);
                    self.io.page_writes += 1;
                    if keys.len() > self.order {
                        Some(self.split_internal(node))
                    } else {
                        None
                    }
                } else {
                    None
                };
                (inserted, split)
            }
            Node::Free => unreachable!("insert into free node"),
        }
    }

    fn split_leaf(&mut self, node: u32) -> (u64, u32) {
        let Node::Leaf { keys, vals, next } = &mut self.nodes[node as usize] else {
            unreachable!();
        };
        let mid = keys.len() / 2;
        let right_keys = keys.split_off(mid);
        let right_vals = vals.split_off(mid);
        let old_next = *next;
        let sep = right_keys[0];
        let right = self.alloc(Node::Leaf {
            keys: right_keys,
            vals: right_vals,
            next: old_next,
        });
        let Node::Leaf { next, .. } = &mut self.nodes[node as usize] else {
            unreachable!();
        };
        *next = right;
        self.io.page_writes += 1;
        (sep, right)
    }

    fn split_internal(&mut self, node: u32) -> (u64, u32) {
        let Node::Internal { keys, children } = &mut self.nodes[node as usize] else {
            unreachable!();
        };
        let mid = keys.len() / 2;
        let sep = keys[mid];
        let right_keys = keys.split_off(mid + 1);
        keys.pop(); // drop the separator: it moves up
        let right_children = children.split_off(mid + 1);
        let right = self.alloc(Node::Internal {
            keys: right_keys,
            children: right_children,
        });
        self.io.page_writes += 1;
        (sep, right)
    }

    fn collapse_to_empty_root(&mut self) {
        // Free everything and restart with one empty leaf — the tree is empty.
        for i in 0..self.nodes.len() {
            if !matches!(self.nodes[i], Node::Free) {
                self.nodes[i] = Node::Free;
                self.free.push(i as u32);
            }
        }
        self.root = self.alloc(Node::Leaf {
            keys: Vec::new(),
            vals: Vec::new(),
            next: NIL,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn insert_get_roundtrip() {
        let mut t = BTree::new();
        assert!(t.insert(5, b"five"));
        assert!(t.insert(3, b"three"));
        assert!(!t.insert(5, b"FIVE")); // replace
        assert_eq!(t.get(5), Some(&b"FIVE"[..]));
        assert_eq!(t.get(3), Some(&b"three"[..]));
        assert_eq!(t.get(4), None);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn splits_keep_order() {
        let mut t = BTree::with_order(4);
        for k in 0..100u64 {
            t.insert(k * 7 % 100, &k.to_le_bytes());
        }
        assert_eq!(t.len(), 100);
        assert!(t.depth() > 1, "tree should have split");
        let keys = t.keys();
        let expect: Vec<u64> = (0..100).collect();
        assert_eq!(keys, expect);
        t.check_invariants().unwrap();
    }

    #[test]
    fn remove_then_get_misses() {
        let mut t = BTree::with_order(4);
        for k in 0..50u64 {
            t.insert(k, b"v");
        }
        assert!(t.remove(25));
        assert!(!t.remove(25));
        assert_eq!(t.get(25), None);
        assert_eq!(t.len(), 49);
        t.check_invariants().unwrap();
    }

    #[test]
    fn emptied_tree_resets() {
        let mut t = BTree::with_order(4);
        for k in 0..40u64 {
            t.insert(k, b"v");
        }
        for k in 0..40u64 {
            assert!(t.remove(k));
        }
        assert!(t.is_empty());
        assert_eq!(t.depth(), 1);
        t.check_invariants().unwrap();
        // Reusable after collapse.
        t.insert(7, b"again");
        assert_eq!(t.get(7), Some(&b"again"[..]));
    }

    #[test]
    fn range_scan_inclusive() {
        let mut t = BTree::with_order(4);
        for k in (0..100u64).step_by(2) {
            t.insert(k, &k.to_le_bytes());
        }
        let r = t.range(10, 20);
        let keys: Vec<u64> = r.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![10, 12, 14, 16, 18, 20]);
        assert!(t.range(5, 4).is_empty());
        assert!(t.range(101, 200).is_empty());
    }

    #[test]
    fn depth_grows_logarithmically() {
        let mut t = BTree::with_order(4);
        for k in 0..1000u64 {
            t.insert(k, b"x");
        }
        let d = t.depth();
        // order 4 -> between log_5(1000) ~ 4.3 and log_2(1000) ~ 10.
        assert!((4..=11).contains(&d), "depth {d}");
        t.check_invariants().unwrap();
    }

    #[test]
    fn io_counters_track_descents() {
        let mut t = BTree::new();
        for k in 0..500u64 {
            t.insert(k, b"x");
        }
        t.take_io();
        t.get(250);
        let io = t.take_io();
        assert_eq!(io.page_reads as usize, t.depth());
        assert_eq!(io.page_writes, 0);
        t.insert(1000, b"y");
        let io = t.take_io();
        assert!(io.page_writes >= 1);
    }

    #[test]
    fn sequential_and_reverse_insertions() {
        for keys in [
            (0..200u64).collect::<Vec<_>>(),
            (0..200u64).rev().collect::<Vec<_>>(),
        ] {
            let mut t = BTree::with_order(4);
            for &k in &keys {
                t.insert(k, &k.to_le_bytes());
            }
            assert_eq!(t.len(), 200);
            t.check_invariants().unwrap();
            for &k in &keys {
                assert_eq!(t.get(k), Some(&k.to_le_bytes()[..]));
            }
        }
    }

    #[test]
    fn large_values_survive() {
        let mut t = BTree::new();
        let big = vec![0xAB; 4096];
        t.insert(1, &big);
        assert_eq!(t.get(1).unwrap().len(), 4096);
    }

    #[test]
    #[should_panic(expected = "order must be at least 4")]
    fn rejects_tiny_order() {
        let _ = BTree::with_order(2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Model equivalence against std's BTreeMap under random workloads.
        #[test]
        fn matches_btreemap_model(
            ops in proptest::collection::vec((0u8..3, 0u64..500, 0u8..255), 1..400),
            order in 4usize..32,
        ) {
            let mut sys = BTree::with_order(order);
            let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
            for (op, key, vbyte) in ops {
                match op {
                    0 => {
                        let val = vec![vbyte; (key % 7 + 1) as usize];
                        let new_sys = sys.insert(key, &val);
                        let new_model = model.insert(key, val).is_none();
                        prop_assert_eq!(new_sys, new_model);
                    }
                    1 => {
                        let got = sys.remove(key);
                        let want = model.remove(&key).is_some();
                        prop_assert_eq!(got, want);
                    }
                    _ => {
                        let got = sys.get(key).map(|v| v.to_vec());
                        let want = model.get(&key).cloned();
                        prop_assert_eq!(got, want);
                    }
                }
                prop_assert_eq!(sys.len(), model.len());
            }
            sys.check_invariants().unwrap();
            // Full-order agreement at the end.
            let sys_keys = sys.keys();
            let model_keys: Vec<u64> = model.keys().copied().collect();
            prop_assert_eq!(sys_keys, model_keys);
        }

        /// Range scans agree with the model on random windows.
        #[test]
        fn range_matches_model(
            keys in proptest::collection::btree_set(0u64..1000, 0..200),
            lo in 0u64..1000,
            width in 0u64..500,
        ) {
            let mut sys = BTree::with_order(8);
            let mut model = BTreeMap::new();
            for &k in &keys {
                sys.insert(k, &k.to_le_bytes());
                model.insert(k, k.to_le_bytes().to_vec());
            }
            let hi = lo.saturating_add(width);
            let got: Vec<u64> = sys.range(lo, hi).into_iter().map(|(k, _)| k).collect();
            let want: Vec<u64> = model.range(lo..=hi).map(|(k, _)| *k).collect();
            prop_assert_eq!(got, want);
        }
    }
}
