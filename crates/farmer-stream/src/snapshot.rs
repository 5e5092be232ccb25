//! Consistent snapshots of the streaming miner's correlator state.
//!
//! A snapshot is the bridge from the always-running miner to its consumers
//! (prefetchers, layout planners, security compilers): a point-in-time,
//! read-only view of every live Correlator List. [`ShardSnapshot`] is one
//! shard's contribution, a flat [`CorrelatorTable`] built in one pass over
//! the shard's graph; [`StreamSnapshot::merge`] combines the disjoint
//! per-shard tables into one (a move at one shard); published into a
//! [`crate::SnapshotCell`], it reaches every
//! `farmer-prefetch::FpaPredictor::following` predictor mid-simulation.
//!
//! **Consistency model.** [`crate::ShardedMiner::snapshot`] first flushes
//! its route buffers, then enqueues a snapshot marker on every shard's
//! FIFO inbox. Each shard answers after processing exactly the events
//! routed before the marker, so the merged view corresponds to one precise
//! prefix of the input stream — a consistent cut, not a racy sample.

use farmer_core::{CorrelationSource, Correlator, CorrelatorTable};
use farmer_trace::FileId;

/// One shard's point-in-time state.
#[derive(Debug, Clone)]
pub struct ShardSnapshot {
    /// Which shard produced this.
    pub shard_id: usize,
    /// Correlator Lists of the shard's live owned files (empty lists
    /// omitted), sorted by owner id.
    pub lists: CorrelatorTable,
    /// Events this shard has ingested (the routed prefix length).
    pub events_seen: u64,
    /// Events whose file this shard owns.
    pub owned_events: u64,
    /// Files currently tracked (≤ the configured `node_cap`).
    pub tracked_files: usize,
    /// Files evicted since the shard started.
    pub evictions: u64,
    /// Approximate resident heap bytes of the shard's miner state.
    pub state_bytes: usize,
}

/// The merged, consistent view across all shards.
#[derive(Debug, Clone, Default)]
pub struct StreamSnapshot {
    /// Every live Correlator List, indexed by owner (owners are disjoint
    /// across shards, so the merge is a plain union).
    pub table: CorrelatorTable,
    /// The stream prefix this snapshot reflects (events routed before the
    /// snapshot was taken).
    pub events: u64,
    /// Shards that contributed.
    pub shards: usize,
    /// Total files tracked across shards.
    pub tracked_files: usize,
    /// Total evictions across shards.
    pub evictions: u64,
    /// Total resident heap bytes across shards.
    pub state_bytes: usize,
}

impl StreamSnapshot {
    /// Merge per-shard snapshots (any order) into the global view: the
    /// first shard's table is taken as it is, every further one is
    /// appended to it, so the table lists shard after shard in the order
    /// given and a one-shard fleet copies nothing.
    ///
    /// Panics if two shards claim the same owner file — that would mean
    /// the ownership partition is broken, and silently keeping either
    /// list would corrupt downstream consumers.
    pub fn merge(parts: impl IntoIterator<Item = ShardSnapshot>) -> StreamSnapshot {
        let mut snap = StreamSnapshot::default();
        for part in parts {
            snap.shards += 1;
            snap.events = snap.events.max(part.events_seen);
            snap.tracked_files += part.tracked_files;
            snap.evictions += part.evictions;
            snap.state_bytes += part.state_bytes;
            if snap.shards == 1 {
                snap.table = part.lists;
            } else if let Err(dup) = snap.table.append(&part.lists) {
                // lint: allow(panic) documented above: a broken ownership
                // partition must not publish
                panic!(
                    "shard {} re-exported owner {} — ownership partition broken",
                    part.shard_id, dup.0
                );
            }
        }
        snap
    }

    /// The Correlator List of `file`, strongest first, if it is live.
    pub fn correlators(&self, file: FileId) -> Option<&[Correlator]> {
        self.table.get(file)
    }

    /// Number of files with a live list.
    pub fn num_lists(&self) -> usize {
        self.table.len()
    }
}

/// A snapshot serves queries directly — the consistent cut *is* a
/// correlation source, with the stream prefix as its version: two
/// snapshots with equal `version()` reflect the same routed prefix, the
/// staleness check a serving tier needs before swapping tables.
impl CorrelationSource for StreamSnapshot {
    fn version(&self) -> u64 {
        self.events
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
        self.table.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-entry list `owner → to` at `degree`.
    fn list(owner: u32, to: u32, degree: f64) -> (u32, Correlator) {
        let file = FileId::new(to);
        (owner, Correlator { file, degree })
    }

    fn shard(id: usize, lists: Vec<(u32, Correlator)>, events: u64) -> ShardSnapshot {
        let mut table = CorrelatorTable::new();
        for (owner, c) in lists {
            table.push_list(FileId::new(owner), &[c]).unwrap();
        }
        ShardSnapshot {
            shard_id: id,
            tracked_files: table.len(),
            lists: table,
            events_seen: events,
            owned_events: events / 2,
            evictions: id as u64,
            state_bytes: 100,
        }
    }

    #[test]
    fn merge_unions_disjoint_owners() {
        let snap = StreamSnapshot::merge(vec![
            shard(0, vec![list(0, 1, 0.9), list(2, 3, 0.8)], 50),
            shard(1, vec![list(1, 0, 0.7)], 50),
        ]);
        assert_eq!(snap.shards, 2);
        assert_eq!(snap.num_lists(), 3);
        assert_eq!(snap.events, 50);
        assert_eq!(snap.tracked_files, 3);
        assert_eq!(snap.evictions, 1);
        assert_eq!(snap.state_bytes, 200);
        assert_eq!(
            snap.correlators(FileId::new(1)).unwrap()[0].file,
            FileId::new(0)
        );
        assert!(snap.correlators(FileId::new(9)).is_none());
        // Shard after shard, each in its own order.
        let owners: Vec<u32> = snap.table.iter().map(|(o, _)| o.raw()).collect();
        assert_eq!(owners, vec![0, 2, 1]);
    }

    #[test]
    #[should_panic(expected = "ownership partition broken")]
    fn merge_rejects_duplicate_owners() {
        let _ = StreamSnapshot::merge(vec![
            shard(0, vec![list(5, 1, 0.9)], 10),
            shard(1, vec![list(5, 2, 0.8)], 10),
        ]);
    }

    #[test]
    fn snapshot_is_a_correlation_source() {
        let snap = StreamSnapshot::merge(vec![
            shard(0, vec![list(0, 1, 0.9), list(2, 3, 0.8)], 50),
            shard(1, vec![list(1, 0, 0.7)], 50),
        ]);
        assert_eq!(snap.version(), 50, "version is the stream prefix");
        let mut out = Vec::new();
        snap.top_k_into(FileId::new(0), 4, 0.0, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].file, FileId::new(1));
        assert_eq!(
            snap.strongest(FileId::new(2), 0.0).unwrap().file,
            FileId::new(3)
        );
        assert!(snap.strongest(FileId::new(2), 0.9).is_none());
        let d = CorrelationSource::degree(&snap, FileId::new(1), FileId::new(0)).unwrap();
        assert!((d - 0.7).abs() < 1e-12);
        let mut lists = 0;
        snap.for_each_list(&mut |_, entries| {
            lists += 1;
            assert!(!entries.is_empty());
        });
        assert_eq!(lists, 3);
        assert!(CorrelationSource::heap_bytes(&snap) > 0);
    }
}
