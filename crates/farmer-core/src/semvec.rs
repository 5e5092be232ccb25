//! Semantic vectors and the VSM similarity function (paper §3.2.1).
//!
//! A file request is represented as a vector of attribute items; similarity
//! between two requests is the paper's Function 1:
//!
//! ```text
//! sim(A, B) = |A ∩ B| / max(|A|, |B|)
//! ```
//!
//! Scalar attributes (user, process, host, file id, device) contribute one
//! item each and intersect exactly (equal → 1). The file path contributes
//! according to the configured [`PathMode`]:
//!
//! * **DPA** — every path component is its own item; the intersection is a
//!   multiset intersection over components. Table 2's left column.
//! * **IPA** — the whole path is a single item whose intersection value is
//!   the *fractional* directory similarity `|dirs ∩| / max(depth)`.
//!   Table 2's right column, and the paper's final choice.
//!
//! The functions here are allocation-free: similarity is computed directly
//! from the request tuples and path references without materializing the
//! item vectors, because this sits on the hot path of every mined event.
//!
//! The similarity decomposes into two independent terms the hot loop
//! exploits separately (see [`crate::model::Farmer`]):
//!
//! * [`scalar_parts`] — the per-event scalar-attribute comparison, a
//!   branch-free match mask over the combo bits;
//! * [`path_term`] — the per-file-pair path contribution, a pure function
//!   of the two (learn-once) paths, and therefore memoizable.

use farmer_trace::FilePath;

use crate::attr::{AttrCombo, AttrKind};
use crate::config::PathMode;
use crate::extract::Request;

/// The scalar-attribute part of the similarity: `(intersection, items)`.
///
/// Branch-free: each attribute's contribution is gated by its combo bit and
/// its equality bit arithmetically, with no per-kind dispatch. Both requests
/// contribute the same item count, so one `items` covers both sides.
#[inline]
pub fn scalar_parts(a: &Request, b: &Request, combo: AttrCombo) -> (f64, usize) {
    let user = combo.contains(AttrKind::User) as u32;
    let proc_ = combo.contains(AttrKind::Process) as u32;
    let host = combo.contains(AttrKind::Host) as u32;
    let file = combo.contains(AttrKind::FileId) as u32;
    let dev = combo.contains(AttrKind::Dev) as u32;
    let inter = (user & (a.uid == b.uid) as u32)
        + (proc_ & (a.pid == b.pid) as u32)
        + (host & (a.host == b.host) as u32)
        + (file & (a.file == b.file) as u32)
        + (dev & (a.dev == b.dev) as u32);
    let items = user + proc_ + host + file + dev;
    (inter as f64, items as usize)
}

/// The path-attribute part: `(intersection value, items_a, items_b)` under
/// the configured path algorithm. Only meaningful when the combo contains
/// [`AttrKind::Path`]; a request with a path vs one without still carries
/// the item (it inflates the denominator but cannot match).
#[inline]
pub fn path_term(
    path_a: Option<&FilePath>,
    path_b: Option<&FilePath>,
    mode: PathMode,
) -> (f64, usize, usize) {
    let integrated = mode == PathMode::Ipa;
    match (path_a, path_b) {
        (Some(pa), Some(pb)) => pa.pair_term(pb, integrated),
        (Some(pa), None) => (0.0, pa.solo_items(integrated), 0),
        (None, Some(pb)) => (0.0, 0, pb.solo_items(integrated)),
        (None, None) => (0.0, 0, 0),
    }
}

/// What the mining loop keeps of a path so that an IPA term can be bounded
/// without reading the path: one bit per *directory* component in a
/// 64-bit set (the top six bits of the component's Fibonacci hash), the
/// file-name component, the depth, and whether the signature is *clean* —
/// every directory got a bit of its own, which also means no directory
/// name repeats. Sixteen bytes, computed once when a path is learned (and
/// once per event for the path the event offers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathSig {
    dirs: u64,
    name: u32,
    /// Saturated; a clean signature's depth is exact (at most 65: 64
    /// directories with a bit each, and the name).
    depth: u8,
    present: bool,
    clean: bool,
}

/// The bit a directory component sets in [`PathSig`]'s directory set.
#[inline]
fn dir_bit(component: u32) -> u64 {
    1 << (component.wrapping_mul(0x9E37_79B1) >> 26)
}

impl PathSig {
    /// The signature of "no path".
    pub const NONE: PathSig = PathSig {
        dirs: 0,
        name: 0,
        depth: 0,
        present: false,
        clean: false,
    };

    /// The signature of `path` (of no path: [`PathSig::NONE`]).
    #[inline]
    pub fn of(path: Option<&FilePath>) -> PathSig {
        let Some(path) = path else {
            return PathSig::NONE;
        };
        let dirs = path.dirs().iter().fold(0, |set, &c| set | dir_bit(c));
        PathSig {
            dirs,
            name: path.file_name().unwrap_or(0),
            depth: u8::try_from(path.depth()).unwrap_or(u8::MAX),
            present: true,
            clean: dirs.count_ones() as usize + 1 == path.depth(),
        }
    }
}

/// What [`path_term`] can return at most, knowing only the two paths'
/// signatures: `(largest intersection value, item count)`, with the item
/// count — `max(items_a, items_b)`, what enters the denominator — exact.
/// `None` when the signatures do not settle the item count.
///
/// IPA makes the path one item, worth exactly 0.0 unless both sides carry
/// one. With two *clean* signatures the bound is
/// `(min(|dirs_a ∩ dirs_b|, min depth − 1) + [name_a = name_b]) / max
/// depth`, which is at least [`FilePath::ipa_similarity`]: a clean path
/// repeats no directory, so the multiset intersection is a set
/// intersection; every common component sets one common bit and distinct
/// components of one path set distinct bits, so the bit count is at least
/// the intersection (two *different* components sharing a bit across the
/// two paths can only raise it); the denominator and the one IEEE division
/// are the exact term's own, so a larger integer numerator gives a larger
/// or equal quotient — and the same quotient, bit for bit, when no bit is
/// shared by accident. Anything else (a signature that is not clean, an
/// empty path) falls back to "both present ⇒ at most 1.0". DPA's item
/// count is a path depth, so with a path on either side there is nothing
/// to say without looking.
///
/// The mining kernel uses this to turn a candidate away from a full node
/// before any path is looked up or compared (see
/// [`crate::graph::PredUpdate::path_bound`]); a maximum of 0.0 *is* the
/// term, so pairs in disjoint directories never evaluate it at all. On
/// the benchmark's HP stream under the node cap the signature takes the
/// candidates that pass the bound only to be rejected by the exact term
/// from 1.83 an event to 0.08, and path terms evaluated from 2.96 to 0.78.
#[inline]
pub fn path_term_bound(a: PathSig, b: PathSig, mode: PathMode) -> Option<(f64, u32)> {
    match mode {
        PathMode::Ipa => {
            let inter = if a.clean & b.clean {
                let dirs = (a.dirs & b.dirs).count_ones();
                let dirs = dirs.min(u32::from(a.depth.min(b.depth)) - 1);
                f64::from(dirs + u32::from(a.name == b.name)) / f64::from(a.depth.max(b.depth))
            } else {
                f64::from(u8::from(a.present & b.present))
            };
            Some((inter, u32::from(a.present | b.present)))
        }
        PathMode::Dpa => (!a.present && !b.present).then_some((0.0, 0)),
    }
}

/// Semantic distance between two requests under an attribute combination.
///
/// Returns a value in `[0, 1]`. Symmetric. Empty combinations (or a
/// path-only combination on a pathless trace) give 0.
pub fn similarity(
    a: &Request,
    path_a: Option<&FilePath>,
    b: &Request,
    path_b: Option<&FilePath>,
    combo: AttrCombo,
    mode: PathMode,
) -> f64 {
    let (mut inter, scalars) = scalar_parts(a, b, combo);
    let (mut n_a, mut n_b) = (scalars, scalars);
    if combo.contains(AttrKind::Path) {
        let (p_inter, p_a, p_b) = path_term(path_a, path_b, mode);
        inter += p_inter;
        n_a += p_a;
        n_b += p_b;
    }
    let denom = n_a.max(n_b);
    if denom == 0 {
        0.0
    } else {
        inter / denom as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use farmer_trace::{DevId, FileId, HostId, PathInterner, ProcId, UserId};

    /// Build the paper's Table 1 example: three requests
    ///   (user1, p1, host1, /home/user1/paper/a)
    ///   (user1, p2, host1, /home/user1/paper/b)
    ///   (user2, p3, host2, /home/user2/c)
    fn table1() -> (Vec<Request>, Vec<FilePath>, PathInterner) {
        let mut i = PathInterner::new();
        let paths = vec![
            i.parse("/home/user1/paper/a"),
            i.parse("/home/user1/paper/b"),
            i.parse("/home/user2/c"),
        ];
        let reqs = vec![req(0, 1, 1, 1), req(1, 1, 2, 1), req(2, 2, 3, 2)];
        (reqs, paths, i)
    }

    fn req(file: u32, uid: u32, pid: u32, host: u32) -> Request {
        Request {
            file: FileId::new(file),
            uid: UserId::new(uid),
            pid: ProcId::new(pid),
            host: HostId::new(host),
            dev: DevId::new(0),
        }
    }

    /// The paper's Table 1/2 combo: {User, Process, Host, File path}.
    fn combo() -> AttrCombo {
        AttrCombo::hp_default()
    }

    #[test]
    fn table2_dpa_a_vs_b() {
        // sim(A,B) = 5/7 under DPA.
        let (r, p, _i) = table1();
        let s = similarity(
            &r[0],
            Some(&p[0]),
            &r[1],
            Some(&p[1]),
            combo(),
            PathMode::Dpa,
        );
        assert!((s - 5.0 / 7.0).abs() < 1e-12, "got {s}");
    }

    #[test]
    fn table2_dpa_b_vs_c_and_a_vs_c() {
        // sim(B,C) = sim(A,C) = 1/7 under DPA.
        let (r, p, _i) = table1();
        let s_bc = similarity(
            &r[1],
            Some(&p[1]),
            &r[2],
            Some(&p[2]),
            combo(),
            PathMode::Dpa,
        );
        let s_ac = similarity(
            &r[0],
            Some(&p[0]),
            &r[2],
            Some(&p[2]),
            combo(),
            PathMode::Dpa,
        );
        assert!((s_bc - 1.0 / 7.0).abs() < 1e-12, "got {s_bc}");
        assert!((s_ac - 1.0 / 7.0).abs() < 1e-12, "got {s_ac}");
    }

    #[test]
    fn table2_ipa_a_vs_b() {
        // sim(A,B) = 2.75/4 under IPA (2 scalar matches + 0.75 path).
        let (r, p, _i) = table1();
        let s = similarity(
            &r[0],
            Some(&p[0]),
            &r[1],
            Some(&p[1]),
            combo(),
            PathMode::Ipa,
        );
        assert!((s - 2.75 / 4.0).abs() < 1e-12, "got {s}");
    }

    #[test]
    fn table2_ipa_vs_c() {
        // sim(A,C) = sim(B,C) = 0.25/4 under IPA.
        let (r, p, _i) = table1();
        let s_ac = similarity(
            &r[0],
            Some(&p[0]),
            &r[2],
            Some(&p[2]),
            combo(),
            PathMode::Ipa,
        );
        let s_bc = similarity(
            &r[1],
            Some(&p[1]),
            &r[2],
            Some(&p[2]),
            combo(),
            PathMode::Ipa,
        );
        assert!((s_ac - 0.25 / 4.0).abs() < 1e-12, "got {s_ac}");
        assert!((s_bc - 0.25 / 4.0).abs() < 1e-12, "got {s_bc}");
    }

    #[test]
    fn decomposed_parts_rebuild_similarity_exactly() {
        // scalar_parts + path_term must reproduce similarity() bit-for-bit:
        // the memoized hot path relies on this decomposition.
        let (r, p, _i) = table1();
        for mode in [PathMode::Dpa, PathMode::Ipa] {
            for x in 0..3 {
                for y in 0..3 {
                    let whole = similarity(&r[x], Some(&p[x]), &r[y], Some(&p[y]), combo(), mode);
                    let (s_inter, s_items) = scalar_parts(&r[x], &r[y], combo());
                    let (p_inter, p_a, p_b) = path_term(Some(&p[x]), Some(&p[y]), mode);
                    let denom = (s_items + p_a).max(s_items + p_b);
                    let rebuilt = (s_inter + p_inter) / denom as f64;
                    assert_eq!(whole.to_bits(), rebuilt.to_bits());
                }
            }
        }
    }

    #[test]
    fn path_term_bound_holds_for_every_presence_and_mode() {
        // Deep siblings (IPA 11/12), the Table 1 paths, an empty path and
        // no path at all, every pair of them under both algorithms: where
        // presence alone says something, the item count it gives is exact,
        // the term never exceeds the maximum, and a maximum of 0.0 is the
        // term itself.
        let (_, mut paths, mut i) = table1();
        paths.push(i.parse("/a/b/c/d/e/f/g/h/i/j/k/x"));
        paths.push(i.parse("/a/b/c/d/e/f/g/h/i/j/k/y"));
        paths.push(i.parse("/"));
        let sides: Vec<Option<&FilePath>> = paths.iter().map(Some).chain([None]).collect();
        let mut bounded = 0;
        for mode in [PathMode::Dpa, PathMode::Ipa] {
            for &a in &sides {
                for &b in &sides {
                    let (inter, n_a, n_b) = path_term(a, b, mode);
                    let sigs = (PathSig::of(a), PathSig::of(b));
                    let Some((max_inter, items)) = path_term_bound(sigs.0, sigs.1, mode) else {
                        assert_eq!(mode, PathMode::Dpa);
                        continue;
                    };
                    bounded += 1;
                    assert_eq!(items as usize, n_a.max(n_b), "{a:?} {b:?}");
                    assert!(inter <= max_inter, "{a:?} {b:?}");
                    if max_inter == 0.0 {
                        assert_eq!(inter.to_bits(), 0.0f64.to_bits());
                    }
                }
            }
        }
        assert_eq!(bounded, sides.len() * sides.len() + 1);
    }

    #[test]
    fn similarity_is_symmetric() {
        let (r, p, _i) = table1();
        for mode in [PathMode::Dpa, PathMode::Ipa] {
            for x in 0..3 {
                for y in 0..3 {
                    let s1 = similarity(&r[x], Some(&p[x]), &r[y], Some(&p[y]), combo(), mode);
                    let s2 = similarity(&r[y], Some(&p[y]), &r[x], Some(&p[x]), combo(), mode);
                    assert_eq!(s1.to_bits(), s2.to_bits());
                }
            }
        }
    }

    #[test]
    fn similarity_bounded_zero_one() {
        let (r, p, _i) = table1();
        for mode in [PathMode::Dpa, PathMode::Ipa] {
            for x in 0..3 {
                for y in 0..3 {
                    let s = similarity(&r[x], Some(&p[x]), &r[y], Some(&p[y]), combo(), mode);
                    assert!((0.0..=1.0).contains(&s), "sim = {s}");
                }
            }
        }
    }

    #[test]
    fn self_similarity_is_one() {
        let (r, p, _i) = table1();
        for mode in [PathMode::Dpa, PathMode::Ipa] {
            let s = similarity(&r[0], Some(&p[0]), &r[0], Some(&p[0]), combo(), mode);
            assert!((s - 1.0).abs() < 1e-12, "self sim = {s}");
        }
    }

    #[test]
    fn empty_combo_gives_zero() {
        let (r, p, _i) = table1();
        let s = similarity(
            &r[0],
            Some(&p[0]),
            &r[1],
            Some(&p[1]),
            AttrCombo::EMPTY,
            PathMode::Ipa,
        );
        assert_eq!(s, 0.0);
    }

    #[test]
    fn pathless_requests_with_path_combo() {
        // Path in the combo but no recorded paths: only scalars count.
        let (r, _p, _i) = table1();
        let s = similarity(&r[0], None, &r[1], None, combo(), PathMode::Ipa);
        // user + host match, process differs; n = 3 scalar items.
        assert!((s - 2.0 / 3.0).abs() < 1e-12, "got {s}");
    }

    #[test]
    fn one_sided_path_dilutes() {
        // One request carries a path, the other doesn't: the path item
        // inflates the denominator but cannot match.
        let (r, p, _i) = table1();
        let s = similarity(&r[0], Some(&p[0]), &r[1], None, combo(), PathMode::Ipa);
        assert!((s - 2.0 / 4.0).abs() < 1e-12, "got {s}");
    }

    #[test]
    fn file_id_attr_never_matches_distinct_files() {
        // The INS/RES combo: file id dilutes but never matches across files.
        let (r, _p, _i) = table1();
        let c = AttrCombo::ins_default();
        let s = similarity(&r[0], None, &r[1], None, c, PathMode::Ipa);
        // user + host match out of 4 items.
        assert!((s - 2.0 / 4.0).abs() < 1e-12, "got {s}");
        // Same request on both sides: all 4 match.
        let s_self = similarity(&r[0], None, &r[0], None, c, PathMode::Ipa);
        assert!((s_self - 1.0).abs() < 1e-12);
    }

    #[test]
    fn executable_vs_library_dpa_underestimates() {
        // The paper's motivating flaw in DPA: an executable and the library
        // it links share no path components, so DPA drowns the scalar
        // matches in deep paths while IPA keeps them visible.
        let mut i = PathInterner::new();
        let exe = i.parse("/home/user1/project/build/bin/app");
        let lib = i.parse("/usr/lib/libc.so");
        let a = req(0, 1, 1, 1);
        let b = req(1, 1, 1, 1); // same user, process, host
        let c = combo();
        let dpa = similarity(&a, Some(&exe), &b, Some(&lib), c, PathMode::Dpa);
        let ipa = similarity(&a, Some(&exe), &b, Some(&lib), c, PathMode::Ipa);
        // DPA: 3 matches / (3 + 6) items; IPA: 3 / 4.
        assert!(dpa < 0.5, "dpa = {dpa}");
        assert!(ipa >= 0.75, "ipa = {ipa}");
        assert!(ipa > dpa);
    }

    /// A component from a small index: a few dozen distinct values, one in
    /// four of them at or above 2³¹, so random paths share components and
    /// some distinct ones share a signature bit.
    fn comp(i: u32) -> u32 {
        if i % 4 == 3 {
            0x8000_0000 + i.wrapping_mul(0x0101_0101)
        } else {
            7 * i + 1
        }
    }

    /// `n - 1` distinct directories and a name.
    fn deep(n: u32, base: u32) -> Vec<u32> {
        (0..n).map(|j| base + j).collect()
    }

    /// The pair a proptest case stands for: `a` and `b` are component
    /// indices, the first `shared` of `a` prefix both paths, and `shape`
    /// picks what is special about the pair.
    fn pair_of(a: &[u32], b: &[u32], shared: usize, shape: u32) -> (FilePath, FilePath) {
        let mut pa: Vec<u32> = a.iter().map(|&i| comp(i)).collect();
        let mut pb: Vec<u32> = pa[..shared.min(pa.len())].to_vec();
        pb.extend(b.iter().map(|&i| comp(i)));
        match shape {
            0 => pb = pa.clone(),                                // identical paths
            1 => pb.extend(pa.last()),                           // same name, other directories
            2 => pa.insert(0, pa.first().copied().unwrap_or(9)), // a directory repeats in one
            3 => {
                // ... and in both, the same one.
                pa.splice(0..0, [77, 77]);
                pb.splice(0..0, [77, 77]);
            }
            4 => pa.clear(),     // depth 0
            5 => pa.truncate(1), // depth 1: a name and nothing else
            6 => pa = deep(64, 1000),
            7 => pa = deep(65, 1000),
            8 => pa = deep(300, 1000),
            9 => {
                // A directory of `b` that differs from one of `a` and
                // shares its bit.
                let x = pa.first().copied().unwrap_or(5);
                let twin = (0..).find(|&y| y != x && dir_bit(y) == dir_bit(x));
                pb.splice(0..0, twin);
                pa.splice(0..0, [x]);
            }
            _ => {}
        }
        if (6..=8).contains(&shape) && shared % 2 == 1 {
            pb = pa.clone();
            let dirs = pb.len() - 1;
            pb[..dirs].reverse(); // the same file under the same directories, reordered
        }
        (FilePath::from_components(pa), FilePath::from_components(pb))
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(4096))]

        /// The signature bound is never below the IPA term it stands in
        /// for; it *is* the term when both signatures are clean and no two
        /// distinct directories of the pair share a bit; and a signature
        /// that is not clean says no more than "a path is present".
        #[test]
        fn signature_bound_dominates_the_ipa_term(
            a in proptest::collection::vec(0u32..48, 0..14),
            b in proptest::collection::vec(0u32..48, 0..14),
            shared in 0usize..10,
            shape in 0u32..14,
        ) {
            let (pa, pb) = pair_of(&a, &b, shared, shape);
            let (sa, sb) = (PathSig::of(Some(&pa)), PathSig::of(Some(&pb)));
            let exact = pa.ipa_similarity(&pb);
            let (bound, items) = path_term_bound(sa, sb, PathMode::Ipa).expect("IPA always bounds");
            proptest::prop_assert_eq!(items, 1);
            proptest::prop_assert!(bound >= exact, "{bound} < {exact}: {pa:?} {pb:?}");
            let swapped = path_term_bound(sb, sa, PathMode::Ipa);
            proptest::prop_assert_eq!(swapped.map(|(m, n)| (m.to_bits(), n)), Some((bound.to_bits(), 1)));
            // Clean is exactly "no two directories of the path share a bit".
            for (p, sig) in [(&pa, sa), (&pb, sb)] {
                let mut bits: Vec<u64> = p.dirs().iter().map(|&c| dir_bit(c)).collect();
                bits.sort_unstable();
                bits.dedup();
                let clean = p.depth() > 0 && bits.len() == p.dirs().len();
                proptest::prop_assert_eq!(sig.clean, clean, "{p:?}");
            }
            if sa.clean && sb.clean {
                let mut dirs: Vec<u32> = pa.dirs().iter().chain(pb.dirs()).copied().collect();
                dirs.sort_unstable();
                dirs.dedup();
                let mut bits: Vec<u64> = dirs.iter().map(|&c| dir_bit(c)).collect();
                bits.sort_unstable();
                bits.dedup();
                if bits.len() == dirs.len() {
                    proptest::prop_assert_eq!(bound.to_bits(), exact.to_bits(), "{pa:?} {pb:?}");
                }
            } else {
                proptest::prop_assert_eq!(bound.to_bits(), 1.0f64.to_bits());
            }
            // DPA counts components: a signature says nothing of the term.
            proptest::prop_assert!(path_term_bound(sa, sb, PathMode::Dpa).is_none());
            let none = PathSig::NONE;
            proptest::prop_assert_eq!(path_term_bound(sa, none, PathMode::Ipa), Some((0.0, 1)));
            proptest::prop_assert_eq!(path_term_bound(none, none, PathMode::Ipa), Some((0.0, 0)));
        }
    }
}
