//! The query layer: [`CorrelationSource`], the single read API for mined
//! correlations.
//!
//! FARMER's whole point is that mined Correlator Lists get *served* — to
//! prefetchers, replication planners, security compilers and layout
//! optimizers — at demand-request rate. Every one of those consumers asks
//! the same questions ("the k strongest correlators of this file", "the
//! single strongest", "how strong is this pair"), so they all program
//! against this trait and any mining back-end can sit behind them:
//!
//! * [`crate::Farmer`] — live queries against the in-memory model,
//!   answered from the graph node's edges at query time;
//! * [`crate::CorrelatorTable`] — an exported, immutable table (one flat
//!   entries slab behind an owner → span index);
//! * `farmer_stream::StreamSnapshot` — a consistent cut of the sharded
//!   online miner, queried directly (no table copy), and the form lists
//!   persist in: a checkpoint image (`farmer_stream::durable::
//!   encode_snapshot` / `decode_snapshot`) reloads as one, bit for bit.
//!
//! # Contract
//!
//! All queries are read-only (`&self`), allocation-free in steady state
//! (results land in caller-owned buffers that are reused across calls),
//! and return correlators in the canonical order: decreasing degree, ties
//! by ascending file id. `min_degree` filters inclusively
//! ([`crate::miner::is_valid`]); a source only answers from the
//! correlations it *retains* — an exported table cannot resurrect entries
//! below the threshold it was built with, while a live [`crate::Farmer`]
//! retains every graph edge.
//!
//! **Threading.** Every back-end is `Send + Sync`: no query mutates
//! anything, so `&Farmer`, `&CorrelatorTable` and `&StreamSnapshot` can be
//! shared across serving threads. A live [`crate::Farmer`] still has one
//! writer (`observe` takes `&mut self`), which is why each mining shard
//! owns its model and concurrent serving tiers consume exported
//! snapshots.
//!
//! # Complexity (deg = successor count of the queried file, ≤ `max_successors`)
//!
//! | query | live model | table / snapshot |
//! |---|---|---|
//! | `top_k_into` | O(deg + k log k) — degrees evaluated, partial select, **not** O(deg log deg) | one index probe + O(k) copy of a stored prefix |
//! | `strongest` | O(deg) scan, no sort | the stored head, O(1) |
//! | `degree` | O(deg) scan | O(deg) scan |
//! | `version` | O(1) | O(1) |

use farmer_trace::FileId;

use crate::correlator::Correlator;
use crate::miner;

/// The unified read API over mined file-access correlations.
///
/// Object safe: consumers that serve many back-ends take
/// `&dyn CorrelationSource`; hot paths that want static dispatch take
/// `impl CorrelationSource`.
pub trait CorrelationSource {
    /// A version of the underlying mined state for cheap staleness checks:
    /// two calls returning the same value guarantee the source answered
    /// identically in between. Monotonic for every provided back-end.
    fn version(&self) -> u64;

    /// Clear `out` and fill it with up to `k` strongest correlators of
    /// `file` whose degree reaches `min_degree`, strongest first (ties by
    /// ascending file id). Steady-state allocation-free: once `out` has
    /// warmed — to `k` entries over stored lists, to the largest successor
    /// count queried (≤ `max_successors`) over the live model, which
    /// selects in place — repeated calls never allocate.
    fn top_k_into(&self, file: FileId, k: usize, min_degree: f64, out: &mut Vec<Correlator>);

    /// The single strongest correlator of `file` with degree ≥
    /// `min_degree`, if any: at most an O(deg) scan — no sorting, no
    /// allocation — which is why head-of-list consumers must route
    /// through it rather than materializing a full list.
    fn strongest(&self, file: FileId, min_degree: f64) -> Option<Correlator>;

    /// The correlation degree `R(from, to)`, if the source retains that
    /// pair.
    fn degree(&self, from: FileId, to: FileId) -> Option<f64>;

    /// Visit every non-empty retained correlator list (exporter path:
    /// persisting to a store, building a table, shipping a snapshot).
    /// Lists arrive in the canonical per-list order; owner order is
    /// unspecified.
    fn for_each_list(&self, visit: &mut dyn FnMut(FileId, &[Correlator]));

    /// Approximate resident heap bytes of the queryable state (Table 4
    /// space accounting).
    fn heap_bytes(&self) -> usize {
        0
    }
}

/// A shared source serves exactly like an owned one. This is what lets a
/// serving tier publish one snapshot behind an [`std::sync::Arc`] and
/// hand the *same* mined state to N reader threads and to every
/// predictor following the publication without copying a byte.
impl<T: CorrelationSource + ?Sized> CorrelationSource for std::sync::Arc<T> {
    fn version(&self) -> u64 {
        (**self).version()
    }

    fn top_k_into(&self, file: FileId, k: usize, min_degree: f64, out: &mut Vec<Correlator>) {
        (**self).top_k_into(file, k, min_degree, out)
    }

    fn strongest(&self, file: FileId, min_degree: f64) -> Option<Correlator> {
        (**self).strongest(file, min_degree)
    }

    fn degree(&self, from: FileId, to: FileId) -> Option<f64> {
        (**self).degree(from, to)
    }

    fn for_each_list(&self, visit: &mut dyn FnMut(FileId, &[Correlator])) {
        (**self).for_each_list(visit)
    }

    fn heap_bytes(&self) -> usize {
        (**self).heap_bytes()
    }
}

/// Canonical correlator ordering: decreasing degree, ties by ascending
/// file id. The one definition: every sort and selection of correlators
/// in this crate compares through it.
#[inline]
pub(crate) fn rank_cmp(a: &Correlator, b: &Correlator) -> std::cmp::Ordering {
    b.degree
        .total_cmp(&a.degree)
        .then_with(|| a.file.raw().cmp(&b.file.raw()))
}

/// Copy the valid prefix of a canonically sorted slice into `out`:
/// up to `k` entries with degree ≥ `min_degree`. Shared by every
/// sorted-storage back-end.
#[inline]
pub(crate) fn copy_top_k(
    sorted: &[Correlator],
    k: usize,
    min_degree: f64,
    out: &mut Vec<Correlator>,
) {
    out.clear();
    for c in sorted.iter().take(k) {
        if !miner::is_valid(c.degree, min_degree) {
            break; // sorted descending: everything after fails too
        }
        out.push(*c);
    }
}

impl CorrelationSource for crate::CorrelatorTable {
    fn version(&self) -> u64 {
        self.version()
    }

    fn top_k_into(&self, file: FileId, k: usize, min_degree: f64, out: &mut Vec<Correlator>) {
        match self.get(file) {
            Some(list) => copy_top_k(list, k, min_degree, out),
            None => out.clear(),
        }
    }

    fn strongest(&self, file: FileId, min_degree: f64) -> Option<Correlator> {
        self.get(file)
            .and_then(|l| l.first().copied())
            .filter(|c| miner::is_valid(c.degree, min_degree))
    }

    fn degree(&self, from: FileId, to: FileId) -> Option<f64> {
        self.get(from)?
            .iter()
            .find(|c| c.file == to)
            .map(|c| c.degree)
    }

    fn for_each_list(&self, visit: &mut dyn FnMut(FileId, &[Correlator])) {
        for (owner, list) in self.iter() {
            if !list.is_empty() {
                visit(owner, list);
            }
        }
    }

    fn heap_bytes(&self) -> usize {
        self.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CorrelatorTable;

    fn c(file: u32, degree: f64) -> Correlator {
        Correlator {
            file: FileId::new(file),
            degree,
        }
    }

    fn table() -> CorrelatorTable {
        let mut t = CorrelatorTable::new();
        t.push_list(FileId::new(0), &[c(1, 0.9), c(2, 0.5), c(3, 0.3)])
            .unwrap();
        t.push_list(FileId::new(7), &[c(4, 0.6)]).unwrap();
        t
    }

    #[test]
    fn table_top_k_filters_and_clamps() {
        let t = table();
        let mut out = Vec::new();
        t.top_k_into(FileId::new(0), 2, 0.0, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].file, FileId::new(1));
        // Threshold cuts the sorted tail.
        t.top_k_into(FileId::new(0), 8, 0.4, &mut out);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|c| c.degree >= 0.4));
        // Unknown owner clears the buffer.
        t.top_k_into(FileId::new(42), 4, 0.0, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn top_k_reuses_caller_buffer() {
        let t = table();
        let mut out = Vec::with_capacity(4);
        t.top_k_into(FileId::new(0), 3, 0.0, &mut out);
        let ptr = out.as_ptr();
        let cap = out.capacity();
        for _ in 0..32 {
            t.top_k_into(FileId::new(0), 3, 0.0, &mut out);
        }
        assert_eq!(out.as_ptr(), ptr, "steady-state queries must not realloc");
        assert_eq!(out.capacity(), cap);
    }

    #[test]
    fn table_strongest_and_degree() {
        let t = table();
        assert_eq!(
            t.strongest(FileId::new(0), 0.0).unwrap().file,
            FileId::new(1)
        );
        assert!(t.strongest(FileId::new(0), 0.95).is_none());
        assert!(t.strongest(FileId::new(42), 0.0).is_none());
        let d = CorrelationSource::degree(&t, FileId::new(0), FileId::new(2)).unwrap();
        assert!((d - 0.5).abs() < 1e-12);
        assert!(CorrelationSource::degree(&t, FileId::new(0), FileId::new(9)).is_none());
    }

    #[test]
    fn table_for_each_list_visits_all() {
        let t = table();
        let mut owners = Vec::new();
        let mut entries = 0;
        t.for_each_list(&mut |owner, list| {
            owners.push(owner.raw());
            entries += list.len();
            assert!(list.windows(2).all(|w| w[0].degree >= w[1].degree));
        });
        owners.sort_unstable();
        assert_eq!(owners, vec![0, 7]);
        assert_eq!(entries, 4);
    }

    #[test]
    fn table_version_tracks_inserts() {
        let mut t = CorrelatorTable::new();
        let v0 = CorrelationSource::version(&t);
        t.push_list(FileId::new(1), &[c(2, 0.5)]).unwrap();
        assert!(CorrelationSource::version(&t) > v0);
    }
}
