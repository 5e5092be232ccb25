//! The persisted-correlation back-end of the query layer.
//!
//! HUSt's mining utility writes Correlator Lists into Berkeley DB and the
//! prefetcher reads them back on warm-up. With [`CorrelationSource`] as
//! the single read API, that round-trip is two calls:
//!
//! * [`MetaStore::put_correlation_source`] persists *any* source (the live
//!   model, a stream snapshot, an exported table) list by list,
//! * [`MetaStore::correlator_view`] loads every persisted list into a
//!   [`CorrelatorView`] — an immutable, queryable [`CorrelationSource`]
//!   that serves top-k/strongest/degree identically to the source that was
//!   persisted (pinned by the cross-crate equivalence suite).
//!
//! The view is deliberately decoupled from the store handle: loading pays
//! the tree scan once, after which queries are pure in-memory reads with
//! no page-I/O accounting noise on the serving path.

use farmer_core::{CorrelationSource, Correlator, CorrelatorTable};
use farmer_trace::hash::fx_hash_u64;
use farmer_trace::FileId;

use crate::store::{CorrelatorRecord, MetaStore};

/// An immutable snapshot of the store's correlator table, queryable
/// through [`CorrelationSource`].
#[derive(Debug, Clone, Default)]
pub struct CorrelatorView {
    table: CorrelatorTable,
    version: u64,
}

impl CorrelatorView {
    /// Number of files with a persisted list.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True if nothing was persisted.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }
}

impl CorrelationSource for CorrelatorView {
    fn version(&self) -> u64 {
        self.version
    }

    fn top_k_into(&self, file: FileId, k: usize, min_degree: f64, out: &mut Vec<Correlator>) {
        self.table.top_k_into(file, k, min_degree, out)
    }

    fn strongest(&self, file: FileId, min_degree: f64) -> Option<Correlator> {
        self.table.strongest(file, min_degree)
    }

    fn degree(&self, from: FileId, to: FileId) -> Option<f64> {
        CorrelationSource::degree(&self.table, from, to)
    }

    fn for_each_list(&self, visit: &mut dyn FnMut(FileId, &[Correlator])) {
        self.table.for_each_list(visit)
    }

    fn heap_bytes(&self) -> usize {
        CorrelationSource::heap_bytes(&self.table)
    }
}

impl MetaStore {
    /// Persist every non-empty list of `src` into the correlator table,
    /// replacing lists already present for the same owners. Returns the
    /// number of lists written.
    pub fn put_correlation_source(&mut self, src: &dyn CorrelationSource) -> usize {
        let mut written = 0;
        let mut records: Vec<CorrelatorRecord> = Vec::new();
        src.for_each_list(&mut |owner, entries| {
            records.clear();
            records.extend(entries.iter().map(|c| CorrelatorRecord {
                file: c.file,
                degree: c.degree,
            }));
            self.put_correlators(owner, &records);
            written += 1;
        });
        written
    }

    /// Load every persisted correlator list into an immutable, queryable
    /// [`CorrelatorView`]. The view's `version` is a fingerprint of the
    /// loaded content — *not* a store counter, which would reset to zero
    /// across the snapshot/restore cycle the view exists to serve — so two
    /// views of identical persisted state compare equal-version across
    /// restarts, and differently-populated stores (almost surely) do not.
    pub fn correlator_view(&mut self) -> CorrelatorView {
        let mut version = 0u64;
        let owners: Vec<u64> = self.correlator_owners();
        let mut table = CorrelatorTable::new();
        for key in owners {
            // `put_correlators` keys by file id; anything wider came from
            // a foreign image and names no file.
            let Ok(raw) = u32::try_from(key) else {
                continue;
            };
            let owner = FileId::new(raw);
            let Some(records) = self.get_correlators(owner) else {
                continue;
            };
            let mut entries: Vec<Correlator> = records
                .into_iter()
                .map(|r| Correlator {
                    file: r.file,
                    degree: r.degree,
                })
                .collect();
            // Persisted lists are stored sorted, but the store accepts
            // arbitrary `put_correlators` input: re-establish the canonical
            // order defensively so the view honors the trait contract.
            entries.sort_by(|a, b| {
                b.degree
                    .total_cmp(&a.degree)
                    .then_with(|| a.file.raw().cmp(&b.file.raw()))
            });
            for c in &entries {
                version = fx_hash_u64(version ^ fx_hash_u64(u64::from(owner.raw()))).wrapping_add(
                    fx_hash_u64(
                        (u64::from(c.file.raw()) << 32) ^ c.degree.to_bits().rotate_left(17),
                    ),
                );
            }
            let pushed = table.push_list(owner, &entries);
            // lint: allow(panic) the owners are distinct keys of one tree
            pushed.expect("tree keys are unique");
        }
        CorrelatorView { table, version }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(file: u32, degree: f64) -> CorrelatorRecord {
        CorrelatorRecord {
            file: FileId::new(file),
            degree,
        }
    }

    #[test]
    fn view_round_trips_lists() {
        let mut s = MetaStore::new();
        s.put_correlators(FileId::new(1), &[rec(2, 0.9), rec(3, 0.5)]);
        s.put_correlators(FileId::new(7), &[rec(4, 0.6)]);
        let view = s.correlator_view();
        assert_eq!(view.len(), 2);
        let mut out = Vec::new();
        view.top_k_into(FileId::new(1), 8, 0.0, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].file, FileId::new(2));
        assert_eq!(
            view.strongest(FileId::new(7), 0.0).unwrap().file,
            FileId::new(4)
        );
        assert!(view.strongest(FileId::new(9), 0.0).is_none());
        let d = CorrelationSource::degree(&view, FileId::new(1), FileId::new(3)).unwrap();
        assert!((d - 0.5).abs() < 1e-12);
    }

    #[test]
    fn view_restores_canonical_order() {
        // Records persisted out of order must still be served sorted.
        let mut s = MetaStore::new();
        s.put_correlators(FileId::new(0), &[rec(5, 0.2), rec(1, 0.8), rec(9, 0.8)]);
        let view = s.correlator_view();
        let mut out = Vec::new();
        view.top_k_into(FileId::new(0), 8, 0.0, &mut out);
        let files: Vec<u32> = out.iter().map(|c| c.file.raw()).collect();
        assert_eq!(files, vec![1, 9, 5], "degree desc, ties by id asc");
    }

    #[test]
    fn persist_source_and_reload() {
        // Table -> store -> snapshot image -> restore -> view: the full
        // durability loop preserves every query answer.
        let mut table = CorrelatorTable::new();
        table
            .push_list(FileId::new(0), &[c(1, 0.9), c(2, 0.5)])
            .unwrap();
        table.push_list(FileId::new(3), &[c(4, 0.7)]).unwrap();
        let mut s = MetaStore::new();
        assert_eq!(s.put_correlation_source(&table), 2);
        let image = s.snapshot();
        let mut restored = MetaStore::restore(&image).expect("restore");
        let view = restored.correlator_view();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for owner in [0u32, 3, 42] {
            let owner = FileId::new(owner);
            table.top_k_into(owner, 8, 0.0, &mut a);
            view.top_k_into(owner, 8, 0.0, &mut b);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.file, y.file);
                assert_eq!(x.degree.to_bits(), y.degree.to_bits());
            }
        }
        fn c(file: u32, degree: f64) -> Correlator {
            Correlator {
                file: FileId::new(file),
                degree,
            }
        }
    }

    #[test]
    fn version_survives_restart_and_tracks_content() {
        let mut s = MetaStore::new();
        s.put_correlators(FileId::new(1), &[rec(2, 0.9), rec(3, 0.5)]);
        let v1 = CorrelationSource::version(&s.correlator_view());
        let image = s.snapshot();
        let mut restored = MetaStore::restore(&image).expect("restore");
        let v2 = CorrelationSource::version(&restored.correlator_view());
        assert_eq!(v1, v2, "restart must not change the version");
        restored.put_correlators(FileId::new(1), &[rec(2, 0.8), rec(3, 0.5)]);
        let v3 = CorrelationSource::version(&restored.correlator_view());
        assert_ne!(v1, v3, "content change must change the version");
    }

    #[test]
    fn empty_store_yields_empty_view() {
        let mut s = MetaStore::new();
        let view = s.correlator_view();
        assert!(view.is_empty());
        let mut out = vec![Correlator {
            file: FileId::new(1),
            degree: 1.0,
        }];
        view.top_k_into(FileId::new(0), 4, 0.0, &mut out);
        assert!(out.is_empty(), "queries must clear the buffer");
    }
}
