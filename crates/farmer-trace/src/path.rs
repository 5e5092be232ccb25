//! Normalized file-path representation.
//!
//! FARMER's semantic-attribute mining treats the file path as a first-class
//! attribute: the Divided Path Algorithm (DPA) turns every path component
//! into its own semantic-vector item, while the Integrated Path Algorithm
//! (IPA) treats the whole path as a single item whose intersection value is
//! the *fractional* component-wise similarity (paper §3.2.1, Tables 1–2).
//!
//! To make those computations cheap we store a path as a small slice of
//! interned component indices. The final component is the file name; every
//! preceding component is a directory. `/home/user1/paper/a` becomes
//! `[home, user1, paper, a]` — exactly the four "subdirectories" the paper's
//! Table 2 example counts.
//!
//! A [`FilePath`] is an immutable *shared value*: the components sit in one
//! reference-counted buffer, so `clone()` is a reference-count bump and a
//! path travels from the trace through the ingest ring, the router's
//! batches and every shard's learned-path map without its bytes being
//! copied. Equality, hashing and every similarity are by content.

use std::fmt;
use std::sync::Arc;

use crate::ids::Interner;

/// Interner specialized for path components; a thin wrapper that exists so
/// path components and other strings don't share an index space by accident.
#[derive(Debug, Default, Clone)]
pub struct PathInterner {
    inner: Interner,
}

impl PathInterner {
    /// An empty path-component interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern one component (e.g. `"home"`).
    pub fn intern(&mut self, component: &str) -> u32 {
        self.inner.intern(component)
    }

    /// Parse a `/`-separated path string into a [`FilePath`].
    ///
    /// Empty components (leading slash, doubled slashes) are skipped, so
    /// `"/home//user1/a"` and `"home/user1/a"` normalize identically.
    pub fn parse(&mut self, path: &str) -> FilePath {
        let components = path
            .split('/')
            .filter(|c| !c.is_empty())
            .map(|c| self.intern(c))
            .collect();
        FilePath { components }
    }

    /// Render a [`FilePath`] back to a `/`-prefixed string.
    pub fn render(&self, path: &FilePath) -> String {
        let mut out = String::new();
        for &c in path.components() {
            out.push('/');
            out.push_str(self.inner.resolve(c));
        }
        if out.is_empty() {
            out.push('/');
        }
        out
    }

    /// Resolve one component index.
    pub fn resolve(&self, idx: u32) -> &str {
        self.inner.resolve(idx)
    }

    /// Number of distinct components interned.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True if no components have been interned.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Approximate heap bytes (for space-overhead accounting).
    pub fn heap_bytes(&self) -> usize {
        self.inner.heap_bytes()
    }
}

/// A normalized absolute path: interned components, last one the file
/// name. Cloning shares the component buffer (see the module docs).
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct FilePath {
    components: Arc<[u32]>,
}

impl FilePath {
    /// Build directly from interned component indices.
    pub fn from_components(components: Vec<u32>) -> Self {
        Self {
            components: components.into(),
        }
    }

    /// All components, directories first, file name last.
    #[inline]
    pub fn components(&self) -> &[u32] {
        &self.components
    }

    /// Number of components (the paper's "count of subdirectories": the
    /// Table 2 example counts `/home/user1/paper/a` as 4).
    #[inline]
    pub fn depth(&self) -> usize {
        self.components.len()
    }

    /// Directory components only (everything but the file name).
    #[inline]
    pub fn dirs(&self) -> &[u32] {
        match self.components.len() {
            0 => &[],
            n => &self.components[..n - 1],
        }
    }

    /// The file-name component, if the path is non-empty.
    #[inline]
    pub fn file_name(&self) -> Option<u32> {
        self.components.last().copied()
    }

    /// Length of the longest common prefix with `other`, in components.
    pub fn common_prefix_len(&self, other: &FilePath) -> usize {
        self.components
            .iter()
            .zip(other.components())
            .take_while(|(a, b)| a == b)
            .count()
    }

    /// Component-wise intersection size counted as a multiset (order-free).
    ///
    /// The paper's Table 2 DPA example counts *matching items* between the
    /// two vectors regardless of position, with duplicates counted as many
    /// times as they pair up. Paths are short (≤ ~12 components), so an
    /// O(n·m) scan with a used-mark is faster than building hash maps, and
    /// it allocates nothing however deep the paths are.
    pub fn multiset_intersection(&self, other: &FilePath) -> usize {
        multiset_intersection(&self.components, &other.components)
    }

    /// The paper's IPA per-path similarity: `|dir components ∩| / max depth`.
    ///
    /// For `/home/user1/paper/a` vs `/home/user1/paper/b`: intersection 3
    /// (home, user1, paper), max depth 4 → 0.75, exactly Table 2.
    pub fn ipa_similarity(&self, other: &FilePath) -> f64 {
        let max = self.depth().max(other.depth());
        if max == 0 {
            return 0.0;
        }
        let inter = multiset_intersection(self.dirs(), other.dirs());
        // A full match including the file name means the same file; count it.
        let name_match =
            usize::from(self.file_name().is_some() && self.file_name() == other.file_name());
        (inter + name_match) as f64 / max as f64
    }

    /// The pair similarity term this path contributes against `other`, as
    /// `(intersection value, own items, other's items)` — the hook the
    /// miner's memoized similarity cache is built on (paths are learned
    /// once per file, so the term is a pure function of the file pair).
    ///
    /// * `integrated` (IPA): the whole path is one vector item whose
    ///   intersection value is [`FilePath::ipa_similarity`] → `(sim, 1, 1)`.
    /// * divided (DPA): every component is an item; the intersection is the
    ///   multiset overlap → `(|∩|, depth, other depth)`.
    #[inline]
    pub fn pair_term(&self, other: &FilePath, integrated: bool) -> (f64, usize, usize) {
        if integrated {
            (self.ipa_similarity(other), 1, 1)
        } else {
            (
                self.multiset_intersection(other) as f64,
                self.depth(),
                other.depth(),
            )
        }
    }

    /// Items this path contributes when the counterpart request carries no
    /// path at all (the one-sided case: the item inflates the denominator
    /// but cannot match).
    #[inline]
    pub fn solo_items(&self, integrated: bool) -> usize {
        if integrated {
            1
        } else {
            self.depth()
        }
    }

    /// Approximate heap bytes held by this path: its components, counted
    /// in full by every holder although clones share one buffer (a miner
    /// that learned a path may share it with the caller that offered it);
    /// the buffer's 16-byte reference-count header is not counted.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.components)
    }
}

/// Multiset intersection size of two index slices: every value counts
/// `min` of its two multiplicities. Allocation-free at any length — up to
/// 64 components on the shorter side a used-mark per component in one
/// `u64` pairs them off greedily; beyond, each value is counted on both
/// sides at its first occurrence.
pub(crate) fn multiset_intersection(a: &[u32], b: &[u32]) -> usize {
    // The size is symmetric: mark the shorter side.
    let (a, b) = if a.len() < b.len() { (b, a) } else { (a, b) };
    if b.len() <= 64 {
        let mut used = 0u64;
        for &x in a {
            if let Some(i) = (0..b.len()).find(|&i| used >> i & 1 == 0 && b[i] == x) {
                used |= 1 << i;
            }
        }
        return used.count_ones() as usize;
    }
    let times = |side: &[u32], x: u32| side.iter().filter(|&&y| y == x).count();
    a.iter()
        .enumerate()
        .filter(|&(i, x)| !a[..i].contains(x))
        .map(|(_, &x)| times(a, x).min(times(b, x)))
        .sum()
}

impl fmt::Debug for FilePath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FilePath{:?}", self.components)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(interner: &mut PathInterner, s: &str) -> FilePath {
        interner.parse(s)
    }

    #[test]
    fn parse_and_render_roundtrip() {
        let mut i = PathInterner::new();
        let p = mk(&mut i, "/home/user1/paper/a");
        assert_eq!(p.depth(), 4);
        assert_eq!(i.render(&p), "/home/user1/paper/a");
    }

    #[test]
    fn parse_normalizes_slashes() {
        let mut i = PathInterner::new();
        let a = mk(&mut i, "/home//user1/a");
        let b = mk(&mut i, "home/user1/a");
        assert_eq!(a, b);
    }

    #[test]
    fn dirs_and_file_name_split() {
        let mut i = PathInterner::new();
        let p = mk(&mut i, "/home/user1/paper/a");
        assert_eq!(p.dirs().len(), 3);
        assert_eq!(i.resolve(p.file_name().unwrap()), "a");
    }

    #[test]
    fn empty_path_has_no_parts() {
        let mut i = PathInterner::new();
        let p = mk(&mut i, "/");
        assert_eq!(p.depth(), 0);
        assert!(p.dirs().is_empty());
        assert!(p.file_name().is_none());
        assert_eq!(i.render(&p), "/");
    }

    #[test]
    fn common_prefix() {
        let mut i = PathInterner::new();
        let a = mk(&mut i, "/home/user1/paper/a");
        let b = mk(&mut i, "/home/user1/code/b");
        assert_eq!(a.common_prefix_len(&b), 2);
    }

    #[test]
    fn table2_ipa_same_dir() {
        // Paper Table 2: /home/user1/paper/a vs /home/user1/paper/b -> 3/4.
        let mut i = PathInterner::new();
        let a = mk(&mut i, "/home/user1/paper/a");
        let b = mk(&mut i, "/home/user1/paper/b");
        assert!((a.ipa_similarity(&b) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn table2_ipa_cross_user() {
        // Paper Table 2: /home/user1/paper/a vs /home/user2/c -> 1/4 = 0.25.
        let mut i = PathInterner::new();
        let a = mk(&mut i, "/home/user1/paper/a");
        let c = mk(&mut i, "/home/user2/c");
        assert!((a.ipa_similarity(&c) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn ipa_identical_paths_is_one() {
        let mut i = PathInterner::new();
        let a = mk(&mut i, "/usr/bin/gcc");
        let b = mk(&mut i, "/usr/bin/gcc");
        assert!((a.ipa_similarity(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ipa_is_symmetric() {
        let mut i = PathInterner::new();
        let a = mk(&mut i, "/home/user1/paper/a");
        let c = mk(&mut i, "/home/user2/c");
        assert_eq!(
            a.ipa_similarity(&c).to_bits(),
            c.ipa_similarity(&a).to_bits()
        );
    }

    #[test]
    fn multiset_intersection_counts_duplicates() {
        // [x, x, y] vs [x, x, z] -> 2 (two x pairings), not 1.
        let a = FilePath::from_components(vec![1, 1, 2]);
        let b = FilePath::from_components(vec![1, 1, 3]);
        assert_eq!(a.multiset_intersection(&b), 2);
    }

    #[test]
    fn multiset_intersection_caps_at_multiplicity() {
        // [x] vs [x, x] -> 1.
        let a = FilePath::from_components(vec![1]);
        let b = FilePath::from_components(vec![1, 1]);
        assert_eq!(a.multiset_intersection(&b), 1);
        assert_eq!(b.multiset_intersection(&a), 1);
    }

    #[test]
    fn pair_term_matches_both_algorithms() {
        let mut i = PathInterner::new();
        let a = mk(&mut i, "/home/user1/paper/a");
        let b = mk(&mut i, "/home/user2/c");
        let (ipa, na, nb) = a.pair_term(&b, true);
        assert!((ipa - a.ipa_similarity(&b)).abs() < 1e-15);
        assert_eq!((na, nb), (1, 1));
        let (dpa, da, db) = a.pair_term(&b, false);
        assert_eq!(dpa, a.multiset_intersection(&b) as f64);
        assert_eq!((da, db), (a.depth(), b.depth()));
        assert_eq!(a.solo_items(true), 1);
        assert_eq!(a.solo_items(false), 4);
    }

    #[test]
    fn multiset_intersection_large_slices() {
        // Past 64 components on both sides: the counting path.
        let a: Vec<u32> = (0..100).collect();
        let b: Vec<u32> = (50..150).collect();
        assert_eq!(multiset_intersection(&a, &b), 50);
    }

    /// The function as it was: a `bool` used-mark per component of `b`,
    /// on the heap past 64 of them.
    fn multiset_intersection_reference(a: &[u32], b: &[u32]) -> usize {
        let mut used = vec![false; b.len()];
        let mut count = 0;
        for &x in a {
            if let Some(i) = (0..b.len()).find(|&i| !used[i] && b[i] == x) {
                used[i] = true;
                count += 1;
            }
        }
        count
    }

    #[test]
    fn multiset_intersection_matches_the_marking_reference_at_every_depth() {
        // Both sides of the 64-component boundary and far past it, values
        // from a pool small enough that they repeat on both sides.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % n) as u32
        };
        let lens = [0usize, 1, 5, 63, 64, 65, 300];
        for &la in &lens {
            for &lb in &lens {
                for pool in [3, 40, 1000] {
                    let a: Vec<u32> = (0..la).map(|_| next(pool)).collect();
                    let b: Vec<u32> = (0..lb).map(|_| next(pool)).collect();
                    let want = multiset_intersection_reference(&a, &b);
                    assert_eq!(
                        multiset_intersection(&a, &b),
                        want,
                        "{la} x {lb}, pool {pool}"
                    );
                    assert_eq!(
                        multiset_intersection(&b, &a),
                        want,
                        "{lb} x {la}, pool {pool}"
                    );
                }
            }
        }
    }

    #[test]
    fn ipa_is_symmetric_past_64_components() {
        for depth in [65u32, 300] {
            // Shared directories, a repeated one, and a different name.
            let a = FilePath::from_components((0..depth).collect());
            let mut other: Vec<u32> = (depth / 2..depth / 2 + depth).collect();
            other[3] = other[2];
            let b = FilePath::from_components(other);
            assert_eq!(
                a.ipa_similarity(&b).to_bits(),
                b.ipa_similarity(&a).to_bits()
            );
            assert!(a.ipa_similarity(&b) > 0.4, "depth {depth}");
            assert_eq!(a.ipa_similarity(&a).to_bits(), 1.0f64.to_bits());
            assert_eq!(a.multiset_intersection(&b), b.multiset_intersection(&a));
        }
    }
}
