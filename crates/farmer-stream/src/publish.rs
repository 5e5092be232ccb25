//! Epoch-swapped snapshot publication: one miner, many wait-free readers.
//!
//! [`crate::ShardedMiner::snapshot`] hands a consistent cut to *one*
//! consumer. A serving tier needs the opposite fan-out: one miner
//! publishing, N reader threads each serving queries from the current
//! snapshot without locks or allocation on their hot path. [`SnapshotCell`]
//! is that publication point:
//!
//! * **Install is O(1).** The miner wraps its snapshot in an
//!   [`Arc`] and [`SnapshotCell::install`]s it: one bounded critical
//!   section that swaps the `Arc` and bumps the epoch counter. Cost is
//!   independent of snapshot size and reader count.
//! * **Reads are wait-free on the hot path.** Each reader holds a
//!   [`CellReader`] caching the `Arc` of the last epoch it picked up.
//!   Serving a query while the epoch is unchanged — the steady state
//!   between publications — is one atomic load plus a query against the
//!   cached snapshot: no lock, no reference-count traffic, no allocation,
//!   and no call — the epoch compare inlines into the caller. Only when
//!   the epoch has advanced does the reader make a cold call that takes
//!   the cell's publication lock for one bounded `Arc` clone (a
//!   reference-count bump — still no allocation), once per swap, never
//!   while serving.
//! * **Version monotonicity is guaranteed.** The cell's epoch strictly
//!   increases, [`SnapshotCell::install`] rejects a snapshot whose stream
//!   position regresses, and a [`CellReader`] only ever replaces its
//!   cached snapshot with a strictly newer epoch — so no reader observes
//!   time running backwards, and no reader can observe a torn snapshot
//!   (the unit of publication is the `Arc` swap; snapshots are immutable
//!   once installed).
//!
//! Old snapshots are reclaimed by reference counting: when the last
//! reader drops (or replaces) its cached `Arc`, the superseded snapshot
//! frees itself — no grace periods, no reclamation thread.
//!
//! The serving tier built on this cell lives in `crates/farmer-serve`;
//! the cell itself lives here, next to [`StreamSnapshot`], because
//! publication is the streaming subsystem's side of the contract
//! ([`crate::ShardedMiner::publish_into`] is the miner-side hook).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::snapshot::StreamSnapshot;

/// The epoch-swapped publication point between one miner and N readers.
///
/// Create once, share via [`Arc`]: the miner (or serving tier) calls
/// [`SnapshotCell::install`], each reader thread obtains a [`CellReader`]
/// with [`SnapshotCell::reader`]. Epoch 0 is the empty pre-publication
/// state (an empty [`StreamSnapshot`], zero correlations served).
#[derive(Debug)]
pub struct SnapshotCell {
    /// Number of installs so far; strictly increasing. Readers compare
    /// this against their cached epoch to decide whether to re-clone.
    epoch: AtomicU64,
    /// The current snapshot. Locked only to swap (install) or to pick up
    /// a new epoch (reader cold path) — never while serving a query.
    current: Mutex<Arc<StreamSnapshot>>,
}

impl Default for SnapshotCell {
    fn default() -> Self {
        SnapshotCell::new()
    }
}

impl SnapshotCell {
    /// An empty cell at epoch 0.
    pub fn new() -> SnapshotCell {
        SnapshotCell {
            epoch: AtomicU64::new(0),
            current: Mutex::new(Arc::new(StreamSnapshot::default())),
        }
    }

    /// Publish `snap` as the new current snapshot and return the new
    /// epoch. O(1): one `Arc` swap under a bounded critical section.
    ///
    /// # Panics
    /// Panics if `snap` reflects a shorter stream prefix than the
    /// currently installed snapshot — publications must move forward.
    pub fn install(&self, snap: Arc<StreamSnapshot>) -> u64 {
        #[expect(
            clippy::expect_used,
            reason = "a poisoned lock means a publisher panicked mid-install; serving stale data \
                      silently would be worse"
        )]
        let mut cur = self.current.lock().expect("snapshot cell poisoned");
        assert!(
            snap.events >= cur.events,
            "snapshot publication regressed: events {} -> {}",
            cur.events,
            snap.events
        );
        *cur = snap;
        // Bumped inside the critical section so (epoch, snapshot) pairs
        // read under the same lock are always coherent.
        // ord: Release pairs with the reader's Acquire epoch load — a
        // reader that sees the new epoch sees the snapshot swap above
        // (the lock it then takes orders the rest).
        self.epoch.fetch_add(1, Ordering::Release) + 1
    }

    /// The current epoch (0 before the first install).
    pub fn epoch(&self) -> u64 {
        // ord: Acquire pairs with install's Release bump, so an observed
        // epoch implies the matching snapshot is visible.
        self.epoch.load(Ordering::Acquire)
    }

    /// The current (epoch, snapshot) pair. Takes the publication lock —
    /// this is the reader *cold* path and the one-shot consumer API;
    /// per-query serving goes through [`CellReader`].
    pub fn load(&self) -> (u64, Arc<StreamSnapshot>) {
        #[expect(
            clippy::expect_used,
            reason = "poisoned cell — same policy as install()"
        )]
        let cur = self.current.lock().expect("snapshot cell poisoned");
        // ord: under the publication lock the epoch cannot move, so this
        // Acquire load (pairing with install's Release) reads the value
        // coherent with `cur`.
        (self.epoch.load(Ordering::Acquire), cur.clone())
    }

    /// Register a reader: a handle caching the current snapshot, to be
    /// owned by one reader thread.
    pub fn reader(self: &Arc<Self>) -> CellReader {
        let (seen, cached) = self.load();
        CellReader {
            cell: Arc::clone(self),
            seen,
            cached,
        }
    }
}

/// One reader thread's handle onto a [`SnapshotCell`].
///
/// Every serving method first calls [`CellReader::refresh`] — one atomic
/// epoch load in the steady state — so queries always run against the
/// newest published snapshot while staying wait-free and allocation-free
/// between publications.
#[derive(Debug)]
pub struct CellReader {
    cell: Arc<SnapshotCell>,
    seen: u64,
    cached: Arc<StreamSnapshot>,
}

impl CellReader {
    /// Pick up the latest epoch if one was published since the last call.
    /// Returns `true` if the cached snapshot changed. Hot path (epoch
    /// unchanged): one atomic load and one compare, inlined into the
    /// caller; the pick-up is a cold call.
    #[inline]
    pub fn refresh(&mut self) -> bool {
        // ord: Acquire pairs with install's Release bump; observing a new
        // epoch guarantees the lock-protected reload in `pick_up` sees at
        // least that publication.
        let published = self.cell.epoch.load(Ordering::Acquire);
        if published == self.seen {
            return false;
        }
        self.pick_up();
        true
    }

    /// Take the cell's lock for its newest (epoch, snapshot) pair — once
    /// per publication, out of line so the steady-state query stays
    /// straight-line code.
    #[cold]
    #[inline(never)]
    fn pick_up(&mut self) {
        let (epoch, snap) = self.cell.load();
        // The lock round-trip can only observe the epoch we saw or a
        // newer one; regression would be a cell bug, not a race.
        assert!(
            epoch > self.seen && snap.events >= self.cached.events,
            "snapshot cell epoch regressed: {} -> {epoch}",
            self.seen
        );
        self.seen = epoch;
        self.cached = snap;
    }

    /// The epoch of the snapshot this reader currently serves from.
    pub fn epoch_seen(&self) -> u64 {
        self.seen
    }

    /// The current snapshot (refreshing first).
    #[inline]
    pub fn current(&mut self) -> &StreamSnapshot {
        self.refresh();
        &self.cached
    }

    /// The cached snapshot without refreshing (what the last `refresh`
    /// picked up) — a reference-count bump, no allocation.
    pub fn cached(&self) -> Arc<StreamSnapshot> {
        Arc::clone(&self.cached)
    }

    /// The cell this reader is registered on.
    pub fn cell(&self) -> &Arc<SnapshotCell> {
        &self.cell
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use farmer_core::CorrelationSource;

    fn snap_at(events: u64) -> Arc<StreamSnapshot> {
        Arc::new(StreamSnapshot {
            events,
            shards: 1,
            ..StreamSnapshot::default()
        })
    }

    #[test]
    fn install_bumps_epoch_and_load_pairs_coherently() {
        let cell = SnapshotCell::new();
        assert_eq!(cell.epoch(), 0);
        let (e, s) = cell.load();
        assert_eq!((e, s.events), (0, 0));
        assert_eq!(cell.install(snap_at(10)), 1);
        assert_eq!(cell.install(snap_at(10)), 2, "equal prefix re-publishes");
        assert_eq!(cell.install(snap_at(25)), 3);
        let (e, s) = cell.load();
        assert_eq!((e, s.events), (3, 25));
    }

    #[test]
    #[should_panic(expected = "snapshot publication regressed")]
    fn install_rejects_stream_regression() {
        let cell = SnapshotCell::new();
        cell.install(snap_at(100));
        cell.install(snap_at(99));
    }

    #[test]
    fn reader_caches_until_epoch_changes() {
        let cell = Arc::new(SnapshotCell::new());
        cell.install(snap_at(5));
        let mut r = cell.reader();
        assert_eq!(r.epoch_seen(), 1);
        assert!(!r.refresh(), "no new epoch published");
        assert_eq!(r.current().events, 5);
        cell.install(snap_at(9));
        assert!(r.refresh());
        assert_eq!(r.epoch_seen(), 2);
        assert_eq!(r.cached().events, 9);
        assert!(!r.refresh());
    }

    #[test]
    fn reader_skips_intermediate_epochs_monotonically() {
        let cell = Arc::new(SnapshotCell::new());
        let mut r = cell.reader();
        for i in 1..=10u64 {
            cell.install(snap_at(i * 7));
        }
        assert!(r.refresh());
        assert_eq!(r.epoch_seen(), 10, "jumps straight to the newest epoch");
        assert_eq!(r.current().events, 70);
    }

    #[test]
    fn published_snapshot_serves_queries_through_the_reader() {
        // End to end through a real miner: mine, publish, query via the
        // reader's cached Arc (Arc<StreamSnapshot> is a CorrelationSource).
        let trace = farmer_trace::WorkloadSpec::hp().scaled(0.01).generate();
        let mut miner = crate::ShardedMiner::spawn(crate::StreamConfig::default().with_shards(2));
        for e in &trace.events {
            miner.route_event(&trace, e);
        }
        let cell = Arc::new(SnapshotCell::new());
        let epoch = miner.publish_into(&cell);
        assert_eq!(epoch, 1);
        let mut r = cell.reader();
        let snap = r.current();
        assert_eq!(snap.events, trace.len() as u64);
        let shared = r.cached();
        assert_eq!(shared.version(), trace.len() as u64);
        let mut out = Vec::new();
        let mut served = 0;
        for f in 0..trace.num_files() as u32 {
            shared.top_k_into(farmer_trace::FileId::new(f), 4, 0.0, &mut out);
            served += out.len();
        }
        assert!(served > 0, "published snapshot serves no correlations");
    }
}
