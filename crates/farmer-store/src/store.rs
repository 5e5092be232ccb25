//! The [`MetaStore`] façade: a typed table over the B+-tree.
//!
//! One table, the one HUSt's metadata server reads from Berkeley DB:
//! **metadata** — one [`MetadataRecord`] per file (size, device,
//! read-only flag, layout group).
//!
//! All accesses are counted in [`IoStats`]; the metadata server charges its
//! latency model per page touched, so store shape (tree depth, record
//! sizes) propagates into simulated response times.

use farmer_obs::{Counter, Registry};
use farmer_trace::FileId;

use crate::codec::{DecodeError, Reader, Writer};
use crate::tree::BTree;

/// Persistent per-file metadata (the MDS's source of truth).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetadataRecord {
    /// The file this record describes.
    pub file: FileId,
    /// File size in bytes.
    pub size: u64,
    /// Device/volume id.
    pub dev: u32,
    /// Whether the file is read-only (eligible for grouped layout, §4.2).
    pub read_only: bool,
    /// Layout group assigned by the FARMER-enabled data layout, if any.
    pub group: Option<u32>,
}

impl MetadataRecord {
    /// Encode to the store's binary format.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(26);
        w.u32(self.file.raw())
            .u64(self.size)
            .u32(self.dev)
            .u8(u8::from(self.read_only))
            .u8(u8::from(self.group.is_some()))
            .u32(self.group.unwrap_or(0));
        w.finish()
    }

    /// Decode from the store's binary format.
    pub fn decode(buf: &[u8]) -> Result<MetadataRecord, DecodeError> {
        let mut r = Reader::new(buf);
        let file = FileId::new(r.u32()?);
        let size = r.u64()?;
        let dev = r.u32()?;
        let read_only = r.u8()? != 0;
        let has_group = r.u8()? != 0;
        let group_val = r.u32()?;
        Ok(MetadataRecord {
            file,
            size,
            dev,
            read_only,
            group: has_group.then_some(group_val),
        })
    }
}

/// Cumulative store I/O counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Pages read.
    pub page_reads: u64,
    /// Pages written.
    pub page_writes: u64,
    /// Record-level lookups.
    pub lookups: u64,
    /// Record-level writes.
    pub updates: u64,
}

/// Live observability handles mirroring [`IoStats`], fed by `sync_io` as
/// page traffic is drained from the tree. No-op by default.
#[derive(Debug, Clone, Default)]
pub struct StoreMetrics {
    /// Pages read (`store.page_reads`).
    pub page_reads: Counter,
    /// Pages written (`store.page_writes`).
    pub page_writes: Counter,
    /// Record-level lookups (`store.lookups`).
    pub lookups: Counter,
    /// Record-level writes (`store.updates`).
    pub updates: Counter,
}

impl StoreMetrics {
    /// Register the store's counters under `reg` (use a `store`-scoped
    /// registry; see the workspace naming scheme in `farmer-obs`).
    pub fn new(reg: &Registry) -> StoreMetrics {
        StoreMetrics {
            page_reads: reg.counter("page_reads"),
            page_writes: reg.counter("page_writes"),
            lookups: reg.counter("lookups"),
            updates: reg.counter("updates"),
        }
    }
}

/// The embedded metadata store.
#[derive(Debug, Default)]
pub struct MetaStore {
    metadata: BTree,
    stats: IoStats,
    obs: StoreMetrics,
}

impl MetaStore {
    /// An empty store.
    pub fn new() -> Self {
        MetaStore::default()
    }

    /// Bulk-load metadata records (namespace ingestion at mount time).
    pub fn load_namespace<'a>(&mut self, records: impl IntoIterator<Item = &'a MetadataRecord>) {
        for rec in records {
            self.put_metadata(rec);
        }
        self.sync_io();
    }

    /// Attach live observability counters (a no-op set is installed by
    /// default). Page/record traffic from this point on streams into the
    /// registry the metrics were built from, alongside [`IoStats`].
    pub fn instrument(&mut self, obs: StoreMetrics) {
        self.obs = obs;
    }

    /// Insert or replace one metadata record.
    pub fn put_metadata(&mut self, rec: &MetadataRecord) {
        self.metadata.insert(rec.file.raw() as u64, &rec.encode());
        self.stats.updates += 1;
        self.obs.updates.inc();
        self.sync_io();
    }

    /// Look up one metadata record. Returns the number of pages the lookup
    /// touched alongside the record, for per-request latency charging.
    pub fn get_metadata(&mut self, file: FileId) -> (Option<MetadataRecord>, u64) {
        let before = self.metadata.io().page_reads;
        let rec = self
            .metadata
            .get(file.raw() as u64)
            // lint: allow(panic) records are written by encode(); a decode
            // failure means on-disk corruption, which has no sane recovery
            .map(|b| MetadataRecord::decode(b).expect("store corruption"));
        let pages = self.metadata.io().page_reads - before;
        self.stats.lookups += 1;
        self.obs.lookups.inc();
        self.sync_io();
        (rec, pages)
    }

    /// Remove a metadata record (unlink). Returns whether it existed.
    pub fn remove_metadata(&mut self, file: FileId) -> bool {
        let existed = self.metadata.remove(file.raw() as u64);
        self.stats.updates += 1;
        self.obs.updates.inc();
        self.sync_io();
        existed
    }

    /// Range scan of metadata records by file id (layout grouping uses it).
    pub fn scan_metadata(&mut self, lo: FileId, hi: FileId) -> Vec<MetadataRecord> {
        let out = self
            .metadata
            .range(lo.raw() as u64, hi.raw() as u64)
            .into_iter()
            // lint: allow(panic) same corruption policy as get()
            .map(|(_, v)| MetadataRecord::decode(&v).expect("store corruption"))
            .collect();
        self.sync_io();
        out
    }

    /// Number of metadata records.
    pub fn metadata_len(&self) -> usize {
        self.metadata.len()
    }

    /// Tree depth of the metadata table (drives worst-case lookup cost).
    pub fn metadata_depth(&self) -> usize {
        self.metadata.depth()
    }

    /// Cumulative I/O counters.
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    fn sync_io(&mut self) {
        let io = self.metadata.take_io();
        self.stats.page_reads += io.page_reads;
        self.stats.page_writes += io.page_writes;
        self.obs.page_reads.add(io.page_reads);
        self.obs.page_writes.add(io.page_writes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rec(file: u32, size: u64) -> MetadataRecord {
        MetadataRecord {
            file: FileId::new(file),
            size,
            dev: file % 4,
            read_only: file.is_multiple_of(2),
            group: file.is_multiple_of(3).then_some(file / 3),
        }
    }

    #[test]
    fn metadata_roundtrip() {
        let mut s = MetaStore::new();
        s.put_metadata(&rec(1, 100));
        s.put_metadata(&rec(2, 200));
        let (got, pages) = s.get_metadata(FileId::new(1));
        assert_eq!(got, Some(rec(1, 100)));
        assert!(pages >= 1, "a lookup touches at least the root page");
        let (missing, _) = s.get_metadata(FileId::new(99));
        assert_eq!(missing, None);
    }

    #[test]
    fn record_encode_decode_all_shapes() {
        for r in [rec(0, 0), rec(3, u64::MAX), rec(7, 42)] {
            let buf = r.encode();
            assert_eq!(MetadataRecord::decode(&buf).unwrap(), r);
        }
    }

    #[test]
    fn decode_rejects_truncation() {
        let buf = rec(1, 2).encode();
        assert!(MetadataRecord::decode(&buf[..5]).is_err());
    }

    #[test]
    fn remove_metadata_works() {
        let mut s = MetaStore::new();
        s.put_metadata(&rec(5, 50));
        assert!(s.remove_metadata(FileId::new(5)));
        assert!(!s.remove_metadata(FileId::new(5)));
        assert_eq!(s.get_metadata(FileId::new(5)).0, None);
    }

    #[test]
    fn load_namespace_bulk() {
        let mut s = MetaStore::new();
        let recs: Vec<MetadataRecord> = (0..1000).map(|i| rec(i, i as u64)).collect();
        s.load_namespace(&recs);
        assert_eq!(s.metadata_len(), 1000);
        assert!(s.metadata_depth() >= 2, "1000 records should split");
        let scan = s.scan_metadata(FileId::new(10), FileId::new(19));
        assert_eq!(scan.len(), 10);
    }

    #[test]
    fn obs_counters_mirror_io_stats() {
        let mut s = MetaStore::new();
        let reg = farmer_obs::Registry::enabled();
        s.instrument(StoreMetrics::new(&reg.scope("store")));
        for i in 0..100 {
            s.put_metadata(&rec(i, i as u64));
        }
        s.get_metadata(FileId::new(7));
        let snap = reg.snapshot();
        let io = s.stats();
        assert_eq!(snap.counter("store.page_reads"), Some(io.page_reads));
        assert_eq!(snap.counter("store.page_writes"), Some(io.page_writes));
        assert_eq!(snap.counter("store.lookups"), Some(io.lookups));
        assert_eq!(snap.counter("store.updates"), Some(io.updates));
        assert!(io.page_writes > 0 && io.page_reads > 0);
    }

    #[test]
    fn io_stats_accumulate() {
        let mut s = MetaStore::new();
        s.put_metadata(&rec(1, 1));
        let w0 = s.stats().page_writes;
        let r0 = s.stats().page_reads;
        s.get_metadata(FileId::new(1));
        assert!(s.stats().page_reads > r0);
        assert_eq!(s.stats().page_writes, w0, "reads must not write");
        assert_eq!(s.stats().lookups, 1);
    }

    proptest! {
        #[test]
        fn arbitrary_records_roundtrip(
            file in any::<u32>(),
            size in any::<u64>(),
            dev in any::<u32>(),
            ro in any::<bool>(),
            group in proptest::option::of(any::<u32>()),
        ) {
            let r = MetadataRecord { file: FileId::new(file), size, dev, read_only: ro, group };
            prop_assert_eq!(MetadataRecord::decode(&r.encode()).unwrap(), r);
        }
    }
}
