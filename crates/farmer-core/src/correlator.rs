//! Stage 4 — Sorting: per-file Correlator Lists.
//!
//! "Each file with one or more successors is associated with a sorted
//! Correlator List in decreasing order of the inter-file correlation degree
//! from head to tail." (paper §3.1, Stage 4). The list is the interface the
//! prefetcher consumes: its head holds the strongest correlations, and only
//! entries whose degree reaches `max_strength` appear at all.

use farmer_trace::FileId;

use crate::graph::MAX_SUCCESSORS;
use crate::miner;

/// One entry of a Correlator List: a successor and its correlation degree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Correlator {
    /// The correlated successor file.
    pub file: FileId,
    /// Correlation degree `R(owner, file)` at evaluation time.
    pub degree: f64,
}

/// A sorted, thresholded correlator list for one file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CorrelatorList {
    /// The file owning this list.
    pub owner: FileId,
    entries: Vec<Correlator>,
}

impl CorrelatorList {
    /// Build a list from entries that are *already* filtered and sorted in
    /// the canonical order (decreasing degree, ties by ascending file id) —
    /// the order every [`crate::CorrelationSource`] query produces. This is
    /// the exporter-side constructor: it takes ownership of the buffer
    /// without re-filtering or re-sorting.
    pub fn from_sorted(owner: FileId, entries: Vec<Correlator>) -> CorrelatorList {
        debug_assert!(entries
            .windows(2)
            .all(|w| crate::source::rank_cmp(&w[0], &w[1]).is_lt()));
        CorrelatorList { owner, entries }
    }

    /// Entries, strongest first.
    pub fn entries(&self) -> &[Correlator] {
        &self.entries
    }

    /// The strongest correlator, if any.
    pub fn head(&self) -> Option<Correlator> {
        self.entries.first().copied()
    }

    /// The `k` strongest correlators.
    pub fn top(&self, k: usize) -> &[Correlator] {
        &self.entries[..k.min(self.entries.len())]
    }

    /// Number of valid correlators.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no correlator passed the validity threshold.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate over entries, strongest first.
    pub fn iter(&self) -> impl Iterator<Item = &Correlator> {
        self.entries.iter()
    }
}

impl IntoIterator for CorrelatorList {
    type Item = Correlator;
    type IntoIter = std::vec::IntoIter<Correlator>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

/// An owner was appended to a [`CorrelatorTable`] that already holds a
/// list for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DuplicateOwner(pub FileId);

impl std::fmt::Display for DuplicateOwner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "owner {} already has a correlator list", self.0)
    }
}

impl std::error::Error for DuplicateOwner {}

/// The `end` of an empty index slot. No list can end there: [`slab_offset`]
/// keeps every slab offset below it.
const ABSENT: u32 = u32::MAX;

/// The most index slots a table spends a list to keep every owner at its
/// own id.
const SLOTS_PER_LIST: usize = 8;

/// One index slot: an owner and its list, `entries[start..end]`.
#[derive(Debug, Clone, Copy)]
struct Slot {
    owner: u32,
    start: u32,
    end: u32,
}

/// An index slot that holds no list.
const EMPTY: Slot = Slot {
    owner: 0,
    start: 0,
    end: ABSENT,
};

/// Index slots for `lists` lists owned by files with ids below
/// `owner_bound`: one an id when that is at most [`SLOTS_PER_LIST`] a list
/// (every owner then sits at its own id), two a list otherwise, and never
/// under two a list (the index is at most half full).
fn index_len(lists: usize, owner_bound: usize) -> usize {
    if owner_bound <= SLOTS_PER_LIST * lists {
        owner_bound.max(2 * lists)
    } else {
        2 * lists
    }
}

/// A slab length as the `u32` offsets index slots hold.
#[expect(
    clippy::expect_used,
    reason = "2^32 correlators would be a 64 GiB slab"
)]
fn slab_offset(len: usize) -> u32 {
    let len = u32::try_from(len).ok().filter(|&len| len != ABSENT);
    len.expect("a table holds under 2^32 - 1 correlators")
}

/// An indexed set of Correlator Lists, one per owner file.
///
/// This is the exchange format between a mining back-end and its consumers:
/// the streaming engine (`farmer-stream`) exports one as a consistent
/// snapshot, and the prefetcher (`farmer-prefetch`) serves predictions from
/// it, swapping in fresh tables mid-simulation without re-mining.
///
/// Storage is flat: every list's entries sit back to back in one slab, in
/// the order the lists were appended, and an open-addressed index keyed by
/// owner id holds each list's span, at most `reach` slots past its owner's
/// home. The index length is decided by the lists and the largest owner
/// (`index_len`). When one slot an id is at most 8 slots a list, every
/// owner's home is its own id: `reach` is 0, an id past the end is a miss,
/// and a query is one load, one compare and one slice. Otherwise the index
/// takes 2 slots a list and homes are a Fibonacci hash of the id, which
/// spreads the runs of neighbouring ids an interned namespace produces.
/// Every trace source interns file ids densely from 0 (the generated
/// namespaces and the trace parser alike), so a table published at the
/// default `node_cap` is of the first kind: HP publishes ≈ 3 000 lists over
/// its 16.9k ids, 12 B a slot, ≈ 200 KiB. Readers ask for neighbouring ids
/// together, and an index in id order keeps the locality a hash would
/// scatter. A capped stream that keeps meeting new files is of the second
/// kind once its ids pass 8 a live list: HP at `node_cap` 4096 fed a fresh
/// id range each lap gets there in the second lap (≈ 2 950 lists, 11 ids a
/// list), and 6 laps on holds 35 ids a list at the same heap. So is a
/// small cap over a large namespace (HP at `node_cap` 1024: ≈ 650 lists,
/// 26 ids a list).
///
/// The index costs at most 8 × 12 = 96 B a list when sized by
/// [`CorrelatorTable::with_capacity`], 24 B a list once hashed, and at most
/// twice that when grown a list at a time; it never costs more for larger
/// ids. A shard's table is sized by its own lists, so a fleet's shard
/// tables hold at most 96 B a list between them, and the merged table as
/// much again. A decoder needs no bound on the ids it reads: the bytes
/// that hold the lists bound the index too.
///
/// The table is append-only — a list is never replaced, and appending an
/// owner twice is an error — so a table costs a fixed handful of
/// allocations however many lists it holds.
#[derive(Debug, Clone, Default)]
pub struct CorrelatorTable {
    /// Every list's entries, back to back in list order.
    entries: Vec<Correlator>,
    /// Owner of list `i`.
    owners: Vec<u32>,
    /// List `i` is `entries[ends[i - 1]..ends[i]]` (list 0 starts at 0).
    ends: Vec<u32>,
    /// Open-addressed by owner id, at most half full ([`index_len`]).
    index: Vec<Slot>,
    /// The farthest any list sits past its home slot.
    reach: u32,
    /// Above every owner id held.
    bound: usize,
    version: u64,
}

impl CorrelatorTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty table with room for `lists` lists holding `entries`
    /// correlators in total, owned by files with ids below `owner_bound`
    /// (`usize::MAX` when unknown, which hashes every id). A build that
    /// stays inside all three allocates nothing more.
    pub fn with_capacity(lists: usize, entries: usize, owner_bound: usize) -> Self {
        let mut table = Self::default();
        table.entries.reserve_exact(entries);
        table.owners.reserve_exact(lists);
        table.ends.reserve_exact(lists);
        table.index = vec![EMPTY; index_len(lists, owner_bound)];
        table.bound = owner_bound;
        table
    }

    /// The slot `owner`'s list is looked for from: the id itself when
    /// every owner is below the index length, so each sits at its own id
    /// and an id past the end is a miss; otherwise a Fibonacci hash of the
    /// id scaled to the length, which spreads ids that cluster, as
    /// interned ones do.
    #[inline]
    fn home(&self, owner: u32) -> usize {
        let len = self.index.len();
        if self.bound <= len {
            owner as usize
        } else {
            let mixed = owner.wrapping_mul(0x9E37_79B9);
            ((u64::from(mixed) * len as u64) >> 32) as usize
        }
    }

    /// The index slot of `owner`'s list, if it has one.
    #[inline]
    fn find(&self, owner: u32) -> Option<&Slot> {
        let len = self.index.len();
        let mut at = self.home(owner);
        let mut probes = self.reach;
        loop {
            let slot = self.index.get(at)?;
            if slot.end == ABSENT {
                return None;
            }
            if slot.owner == owner {
                return Some(slot);
            }
            if probes == 0 {
                return None;
            }
            probes -= 1;
            at = if at + 1 == len { 0 } else { at + 1 };
        }
    }

    /// Put `slot` in the first empty slot from its owner's home on (the
    /// index is at most half full, so there is one).
    fn place(&mut self, slot: Slot) {
        let len = self.index.len();
        let mut at = self.home(slot.owner);
        let mut distance = 0;
        while self.index[at].end != ABSENT {
            at = if at + 1 == len { 0 } else { at + 1 };
            distance += 1;
        }
        self.index[at] = slot;
        self.reach = self.reach.max(distance);
    }

    /// Rebuild the index at `len` slots over the lists held.
    fn reindex(&mut self, len: usize) {
        self.index = vec![EMPTY; len];
        self.reach = 0;
        let mut start = 0;
        for i in 0..self.owners.len() {
            let (owner, end) = (self.owners[i], self.ends[i]);
            self.place(Slot { owner, start, end });
            start = end;
        }
    }

    /// Append `owner`'s list. `list` must already be in the canonical
    /// order (decreasing degree, ties by ascending file id) — the order
    /// every [`crate::CorrelationSource`] produces. A list past the room
    /// [`CorrelatorTable::with_capacity`] made, or an owner past an index
    /// every owner sat in at its own id, rebuilds the index for twice the
    /// lists and ids.
    pub fn push_list(&mut self, owner: FileId, list: &[Correlator]) -> Result<(), DuplicateOwner> {
        debug_assert!(list
            .windows(2)
            .all(|w| crate::source::rank_cmp(&w[0], &w[1]).is_lt()));
        if self.find(owner.raw()).is_some() {
            return Err(DuplicateOwner(owner));
        }
        let start = self.entries.len() as u32; // fits: it is an earlier `end`
        let end = slab_offset(self.entries.len() + list.len());
        let (lists, len) = (self.len() + 1, self.index.len());
        let direct = self.bound <= len;
        self.bound = self.bound.max(owner.raw() as usize + 1);
        if 2 * lists > len || (direct && self.bound > len) {
            self.reindex(index_len(2 * lists, 2 * self.bound).max(len));
        }
        self.place(Slot {
            owner: owner.raw(),
            start,
            end,
        });
        self.owners.push(owner.raw());
        self.ends.push(end);
        self.entries.extend_from_slice(list);
        self.version += 1;
        Ok(())
    }

    /// Append every list of `other`, in its order: one copy of its slab,
    /// its spans rebased behind ours, and at most one rebuild of the index,
    /// to the length both tables' lists and owners call for. On a repeated
    /// owner the table is left as it was.
    pub fn append(&mut self, other: &CorrelatorTable) -> Result<(), DuplicateOwner> {
        if let Some(&dup) = other.owners.iter().find(|&&o| self.find(o).is_some()) {
            return Err(DuplicateOwner(FileId::new(dup)));
        }
        // Checked once for the whole slab: every rebased offset fits.
        let end = slab_offset(self.entries.len() + other.entries.len());
        let base = end - other.entries.len() as u32;
        let len = self.index.len();
        let direct = self.bound <= len;
        self.bound = self.bound.max(other.bound);
        let want = index_len(self.len() + other.len(), self.bound);
        if want > len || (direct && self.bound > len) {
            self.reindex(want.max(len));
        }
        let mut start = base;
        for (&owner, &end) in other.owners.iter().zip(&other.ends) {
            let end = base + end;
            self.place(Slot { owner, start, end });
            start = end;
        }
        self.owners.extend_from_slice(&other.owners);
        self.ends.extend(other.ends.iter().map(|&e| base + e));
        self.entries.extend_from_slice(&other.entries);
        self.version += other.len() as u64;
        Ok(())
    }

    /// Mutation version of the table (bumped per appended list); the
    /// [`crate::CorrelationSource`] staleness check.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The list owned by `file`, strongest first, if one is present.
    #[inline]
    pub fn get(&self, file: FileId) -> Option<&[Correlator]> {
        let slot = self.find(file.raw())?;
        Some(&self.entries[slot.start as usize..slot.end as usize])
    }

    /// Clear `out` and fill it with up to `k` strongest correlators of
    /// `file` whose degree reaches `min_degree` (nothing on a miss): one
    /// index probe and one fixed-width copy.
    ///
    /// When `k` is at most [`MAX_SUCCESSORS`] and the slab holds `k`
    /// entries from the list's start, exactly `k` are copied and those past
    /// the list's end (the next list's) cut off, so a caller that inlines
    /// this with a constant `k` copies a constant width and never branches
    /// on the list's length. Any other query copies the span itself, into
    /// an `out` reserved to `min(k, MAX_SUCCESSORS)`. The validity cut runs
    /// only when the first or the last kept entry fails it: in the
    /// canonical `total_cmp` order a NaN can only sit at either end, so
    /// when both ends pass, every entry between them does. Always inlined:
    /// only a caller that sees `k` can make the copy fixed-width, and out
    /// of line the copy is a `memcpy` call with a runtime size.
    #[inline(always)]
    pub fn top_k_into(&self, file: FileId, k: usize, min_degree: f64, out: &mut Vec<Correlator>) {
        out.clear();
        let Some(slot) = self.find(file.raw()) else {
            return;
        };
        let (start, len) = (slot.start as usize, (slot.end - slot.start) as usize);
        if k <= MAX_SUCCESSORS && start + k <= self.entries.len() {
            out.extend_from_slice(&self.entries[start..start + k]);
            out.truncate(k.min(len));
        } else {
            out.reserve(k.min(MAX_SUCCESSORS));
            out.extend_from_slice(&self.entries[start..start + k.min(len)]);
        }
        let fails = |c: &Correlator| !miner::is_valid(c.degree, min_degree);
        if out.first().is_some_and(fails) || out.last().is_some_and(fails) {
            let kept = out.iter().take_while(|c| !fails(c)).count();
            out.truncate(kept);
        }
    }

    /// Iterate over all lists as `(owner, entries)`, in the order they
    /// were appended.
    pub fn iter(&self) -> impl Iterator<Item = (FileId, &[Correlator])> {
        let mut start = 0;
        self.owners
            .iter()
            .zip(&self.ends)
            .map(move |(&owner, &end)| {
                let list = &self.entries[start..end as usize];
                start = end as usize;
                (FileId::new(owner), list)
            })
    }

    /// Number of owner files with a list.
    pub fn len(&self) -> usize {
        self.owners.len()
    }

    /// True if no file has a list.
    pub fn is_empty(&self) -> bool {
        self.owners.is_empty()
    }

    /// Total number of correlator entries across all lists.
    pub fn num_entries(&self) -> usize {
        self.entries.len()
    }

    /// Heap bytes, for space accounting: 16 a slab entry, 4 each an
    /// owner and an end, 12 an index slot, all at capacity.
    pub fn heap_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<Correlator>()
            + (self.owners.capacity() + self.ends.capacity()) * std::mem::size_of::<u32>()
            + self.index.capacity() * std::mem::size_of::<Slot>()
    }
}

/// A table's lists as a walk over a graph slab read them, before the
/// table is assembled: the lists back to back in slab order, and each
/// owner's span. [`crate::Farmer::walk_table`] makes one; assembling it
/// ([`TableWalk::assemble`]) needs nothing of the model, so it can run on
/// another thread than the one that mines.
#[derive(Debug, Clone, Default)]
pub struct TableWalk {
    /// Every list's entries, back to back in slab order.
    entries: Vec<Correlator>,
    /// (owner, start of its list in `entries`, length), in slab order.
    spans: Vec<(u32, u32, u32)>,
}

impl TableWalk {
    /// An empty walk with room for `lists` lists holding `entries`
    /// correlators in total: a walk that stays inside both allocates
    /// nothing more.
    pub(crate) fn with_capacity(lists: usize, entries: usize) -> Self {
        TableWalk {
            entries: Vec::with_capacity(entries),
            spans: Vec::with_capacity(lists),
        }
    }

    /// Append `owner`'s list, already in the canonical order.
    pub(crate) fn push(&mut self, owner: FileId, list: &[Correlator]) {
        let start = self.entries.len() as u32;
        self.spans.push((owner.raw(), start, list.len() as u32));
        self.entries.extend_from_slice(list);
    }

    /// The table, ordered by owner id: one sort of the owners, one gather
    /// of their lists, one index. Owner order makes the table independent
    /// of the slab order the walk met the lists in.
    ///
    /// # Panics
    /// If the walk holds an owner twice (a graph holds one node per file).
    pub fn assemble(self) -> CorrelatorTable {
        let TableWalk { entries, mut spans } = self;
        spans.sort_unstable_by_key(|&(owner, ..)| owner);
        let owner_bound = spans.last().map_or(0, |&(owner, ..)| owner as usize + 1);
        let mut table = CorrelatorTable::with_capacity(spans.len(), entries.len(), owner_bound);
        for (owner, start, len) in spans {
            let list = &entries[start as usize..(start + len) as usize];
            let pushed = table.push_list(FileId::new(owner), list);
            #[expect(
                clippy::expect_used,
                reason = "the graph's id→slot index keeps node ids distinct, so no owner is \
                          visited twice"
            )]
            pushed.expect("the slab holds one node per file");
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    fn c(file: u32, degree: f64) -> Correlator {
        Correlator {
            file: FileId::new(file),
            degree,
        }
    }

    /// File 0's list from unsorted candidates, the way every source makes
    /// one: validity filter, canonical order, [`CorrelatorList::from_sorted`].
    fn build(candidates: Vec<Correlator>, max_strength: f64) -> CorrelatorList {
        let mut entries = candidates;
        entries.retain(|c| crate::miner::is_valid(c.degree, max_strength));
        entries.sort_unstable_by(crate::source::rank_cmp);
        CorrelatorList::from_sorted(FileId::new(0), entries)
    }

    #[test]
    fn build_sorts_descending() {
        let l = build(vec![c(1, 0.5), c(2, 0.9), c(3, 0.7)], 0.0);
        let degrees: Vec<f64> = l.iter().map(|e| e.degree).collect();
        assert_eq!(degrees, vec![0.9, 0.7, 0.5]);
        assert_eq!(l.head().unwrap().file, FileId::new(2));
    }

    #[test]
    fn build_filters_below_threshold() {
        let l = build(vec![c(1, 0.39), c(2, 0.4), c(3, 0.41)], 0.4);
        assert_eq!(l.len(), 2);
        assert!(l.iter().all(|e| e.degree >= 0.4));
    }

    #[test]
    fn ties_break_by_file_id() {
        let l = build(vec![c(9, 0.5), c(3, 0.5)], 0.0);
        let files: Vec<u32> = l.iter().map(|e| e.file.raw()).collect();
        assert_eq!(files, vec![3, 9]);
    }

    #[test]
    fn top_clamps_to_len() {
        let l = build(vec![c(1, 0.5)], 0.0);
        assert_eq!(l.top(10).len(), 1);
        assert_eq!(l.top(0).len(), 0);
    }

    #[test]
    fn empty_when_all_filtered() {
        let l = build(vec![c(1, 0.1)], 0.4);
        assert!(l.is_empty());
        assert!(l.head().is_none());
    }

    #[test]
    fn into_iter_yields_sorted() {
        let l = build(vec![c(1, 0.2), c(2, 0.8)], 0.0);
        let v: Vec<Correlator> = l.into_iter().collect();
        assert_eq!(v[0].file, FileId::new(2));
    }

    #[test]
    fn table_push_get_rejects_duplicate_owner() {
        let mut t = CorrelatorTable::new();
        assert!(t.is_empty());
        t.push_list(FileId::new(0), &[c(1, 0.5)]).unwrap();
        t.push_list(FileId::new(7), &[c(2, 0.9)]).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.num_entries(), 2);
        assert_eq!(t.get(FileId::new(7)).unwrap()[0].file, FileId::new(2));
        assert!(t.get(FileId::new(3)).is_none());
        // Append-only: a second list for an owner is refused, not swapped in.
        assert_eq!(
            t.push_list(FileId::new(0), &[c(3, 0.8), c(4, 0.6)]),
            Err(DuplicateOwner(FileId::new(0)))
        );
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(FileId::new(0)).unwrap(), &[c(1, 0.5)]);
        let lists: Vec<(u32, usize)> = t.iter().map(|(o, l)| (o.raw(), l.len())).collect();
        assert_eq!(lists, vec![(0, 1), (7, 1)], "append order");
    }

    #[test]
    fn table_append_concatenates_or_leaves_untouched() {
        let mut a = CorrelatorTable::new();
        a.push_list(FileId::new(0), &[c(1, 0.5)]).unwrap();
        let mut b = CorrelatorTable::new();
        b.push_list(FileId::new(4), &[c(2, 0.9), c(3, 0.1)])
            .unwrap();
        b.push_list(FileId::new(5), &[]).unwrap();
        a.append(&b).unwrap();
        assert_eq!((a.len(), a.num_entries()), (3, 3));
        assert_eq!(a.get(FileId::new(4)).unwrap(), &[c(2, 0.9), c(3, 0.1)]);
        assert_eq!(a.get(FileId::new(5)).unwrap(), &[]);
        // 9 is new, 4 is not: nothing of the refused table may stay behind.
        let mut clash = CorrelatorTable::new();
        clash.push_list(FileId::new(9), &[c(1, 0.3)]).unwrap();
        clash.push_list(FileId::new(4), &[c(1, 0.2)]).unwrap();
        let version = a.version();
        assert_eq!(a.append(&clash), Err(DuplicateOwner(FileId::new(4))));
        assert_eq!((a.len(), a.num_entries(), a.version()), (3, 3, version));
        assert!(a.get(FileId::new(9)).is_none());
        assert_eq!(a.get(FileId::new(4)).unwrap().len(), 2);
    }

    #[test]
    fn table_top_clamps_and_defaults_empty() {
        let mut t = CorrelatorTable::with_capacity(1, 2, 2);
        t.push_list(FileId::new(1), &[c(2, 0.9), c(3, 0.5)])
            .unwrap();
        let mut out = vec![c(9, 0.1); 3];
        t.top_k_into(FileId::new(1), 1, 0.0, &mut out);
        assert_eq!(out, [c(2, 0.9)]);
        t.top_k_into(FileId::new(1), 9, 0.0, &mut out);
        assert_eq!(out, [c(2, 0.9), c(3, 0.5)]);
        t.top_k_into(FileId::new(42), 4, 0.0, &mut out);
        assert!(out.is_empty());
        assert!(t.heap_bytes() > 0);
    }

    /// A canonical list from arbitrary candidates: one entry a successor,
    /// strongest first, ties by file id.
    fn canonical(candidates: Vec<(u32, u8, f64)>) -> Vec<Correlator> {
        let mut list: Vec<Correlator> = Vec::new();
        for (file, code, x) in candidates {
            if list.iter().all(|e| e.file.raw() != file) {
                list.push(c(file, degree(code, x)));
            }
        }
        list.sort_unstable_by(crate::source::rank_cmp);
        list
    }

    /// The degree a candidate draws: a multiple of 1/8 (so every threshold
    /// in [`MIN_DEGREES`] ties some entry exactly), −0.0, +NaN (the head of
    /// any list it is in), −NaN (the tail), or `x`.
    fn degree(code: u8, x: f64) -> f64 {
        match code {
            0..=8 => f64::from(code) / 8.0,
            9 => -0.0,
            10 => f64::NAN,
            11 => -f64::NAN,
            _ => x,
        }
    }

    /// A list as comparable bits (`Correlator`'s `PartialEq` holds a NaN
    /// degree unequal to itself).
    fn bits(list: &[Correlator]) -> Vec<(u32, u64)> {
        list.iter()
            .map(|e| (e.file.raw(), e.degree.to_bits()))
            .collect()
    }

    /// Every `k` around the edges of the fixed copy window, and past it.
    const TOP_KS: [usize; 10] = [0, 1, 3, 7, 8, 9, 15, 16, 17, usize::MAX];

    const MIN_DEGREES: [f64; 5] = [0.0, 0.25, 0.5, 1.0, f64::NAN];

    /// The table against its oracle: every query on the ids `x * stride`
    /// and `x * stride + 1` for every `x` below [`PROBE_PAST`] (past any
    /// owner the ops draw, so the slab's last list, which has no full copy
    /// window after it, is among them) and on `u32::MAX - 1` and
    /// `u32::MAX`, iteration order, counts, the index's bounds, and the
    /// stated heap arithmetic. `top_k_into` is held to the per-entry loop:
    /// the list's prefix up to its first invalid entry, at most `k` long.
    fn check(
        t: &CorrelatorTable,
        oracle: &BTreeMap<u32, Vec<Correlator>>,
        order: &[u32],
        stride: u32,
        presized: usize,
    ) {
        use crate::CorrelationSource;
        assert_eq!(t.len(), oracle.len());
        assert_eq!(
            t.num_entries(),
            oracle.values().map(Vec::len).sum::<usize>()
        );
        let listed: Vec<(u32, Vec<(u32, u64)>)> =
            t.iter().map(|(o, l)| (o.raw(), bits(l))).collect();
        let expected: Vec<(u32, Vec<(u32, u64)>)> =
            order.iter().map(|o| (*o, bits(&oracle[o]))).collect();
        assert_eq!(listed, expected, "iteration is append order");
        let probes = (0..PROBE_PAST).flat_map(|x| [x * stride, x * stride + 1]);
        // Arrives holding the previous answer and one stale entry more.
        let mut dirty = Vec::new();
        for raw in probes.chain([u32::MAX - 1, u32::MAX]) {
            let file = FileId::new(raw);
            let want = oracle.get(&raw);
            assert_eq!(t.get(file).map(bits), want.map(|l| bits(l)), "get({raw})");
            let list = want.map_or(&[][..], Vec::as_slice);
            let ks: &[usize] = if want.is_some() { &TOP_KS } else { &[8] };
            for &k in ks {
                for min_degree in MIN_DEGREES {
                    let valid: Vec<Correlator> = list
                        .iter()
                        .take_while(|e| miner::is_valid(e.degree, min_degree))
                        .take(k)
                        .copied()
                        .collect();
                    let mut fresh = Vec::new();
                    t.top_k_into(file, k, min_degree, &mut fresh);
                    dirty.push(c(u32::MAX, 0.75));
                    t.top_k_into(file, k, min_degree, &mut dirty);
                    let what = format!("top_k_into({raw}, {k}, {min_degree})");
                    assert_eq!(bits(&fresh), bits(&valid), "{what}, empty buffer");
                    assert_eq!(bits(&dirty), bits(&valid), "{what}, dirty buffer");
                    if want.is_some() {
                        assert!(fresh.capacity() >= k.min(MAX_SUCCESSORS), "{what} warms");
                    }
                }
            }
            for min_degree in MIN_DEGREES {
                let head = list.first().copied();
                let want = head.filter(|e| miner::is_valid(e.degree, min_degree));
                let got = t.strongest(file, min_degree);
                assert_eq!(got.map(|e| bits(&[e])), want.map(|e| bits(&[e])));
            }
            for to in [0, 7, 31, PROBE_PAST] {
                let want = list.iter().find(|e| e.file.raw() == to);
                let got = CorrelationSource::degree(t, file, FileId::new(to));
                assert_eq!(got.map(f64::to_bits), want.map(|e| e.degree.to_bits()));
            }
        }
        // At most half full, sized by the lists and never by the ids, and
        // every owner at its own id while the bound fits inside it.
        assert!(2 * t.len() <= t.index.len());
        assert!(t.index.len() <= presized.max(2 * SLOTS_PER_LIST * t.len()));
        if t.bound <= t.index.len() {
            assert!(order.iter().all(|&o| (o as usize) < t.bound));
            assert_eq!(t.reach, 0);
        }
        assert_eq!(
            t.heap_bytes(),
            16 * t.entries.capacity()
                + 4 * (t.owners.capacity() + t.ends.capacity())
                + 12 * t.index.capacity()
        );
    }

    /// Owners are `x * stride` for an `x` drawn below 56, so repeats are
    /// common; every `x` from there up to this is a miss.
    const PROBE_PAST: u32 = 72;

    /// Dense ids, ids spread wider than any index the ops build (so owners
    /// share home slots), and ids spread over half the `u32` range.
    const STRIDES: [u32; 3] = [1, 4_099, 1 << 25];

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// `push_list` and `append` in arbitrary owner order, repeats,
        /// empty lists and lists longer than the copy window included, with
        /// degrees that tie the thresholds or are ±NaN or −0.0, against a
        /// `BTreeMap` of lists plus the order they were appended in.
        #[test]
        fn table_matches_a_map_of_lists(
            stride in 0usize..3,
            presize in proptest::option::of((0usize..8, 0usize..24, 0usize..64)),
            ops in proptest::collection::vec(
                (
                    proptest::prelude::any::<bool>(),
                    proptest::collection::vec(
                        (
                            0u32..56,
                            proptest::collection::vec((0u32..64, 0u8..16, 0.0f64..=1.0), 0..20),
                        ),
                        0..5,
                    ),
                ),
                1..10,
            ),
        ) {
            let stride = STRIDES[stride];
            let mut t = match presize {
                Some((lists, entries, bound)) => {
                    let t = CorrelatorTable::with_capacity(lists, entries, bound);
                    // Presized exactly: 16 B an entry, 8 B a list, 12 B a slot.
                    let slots = index_len(lists, bound);
                    assert_eq!(t.heap_bytes(), 16 * entries + 8 * lists + 12 * slots);
                    t
                }
                None => CorrelatorTable::new(),
            };
            let presized = t.index.len();
            let mut oracle: BTreeMap<u32, Vec<Correlator>> = BTreeMap::new();
            let mut order: Vec<u32> = Vec::new();
            for (as_table, lists) in ops {
                let lists: Vec<(u32, Vec<Correlator>)> = lists
                    .into_iter()
                    .map(|(x, candidates)| (x * stride, canonical(candidates)))
                    .collect();
                let version = t.version();
                if as_table {
                    // One `append` of a table of distinct owners: all of it
                    // or, on any owner already held, none of it.
                    let mut other = CorrelatorTable::new();
                    let mut parts = BTreeMap::new();
                    for (owner, list) in &lists {
                        if other.push_list(FileId::new(*owner), list).is_ok() {
                            parts.insert(*owner, list.clone());
                        }
                    }
                    let clash = other.iter().map(|(o, _)| o.raw()).find(|o| oracle.contains_key(o));
                    match t.append(&other) {
                        Ok(()) => {
                            assert_eq!(clash, None);
                            assert_eq!(t.version(), version + other.len() as u64);
                            order.extend(other.iter().map(|(o, _)| o.raw()));
                            oracle.extend(parts);
                        }
                        Err(DuplicateOwner(dup)) => {
                            assert_eq!(Some(dup.raw()), clash, "the first repeat is named");
                            assert_eq!(t.version(), version, "a refused append changes nothing");
                        }
                    }
                } else {
                    for (owner, list) in lists {
                        let version = t.version();
                        let pushed = t.push_list(FileId::new(owner), &list);
                        match oracle.entry(owner) {
                            std::collections::btree_map::Entry::Occupied(_) => {
                                assert_eq!(pushed, Err(DuplicateOwner(FileId::new(owner))));
                                assert_eq!(t.version(), version, "a refused push changes nothing");
                            }
                            std::collections::btree_map::Entry::Vacant(slot) => {
                                assert_eq!(pushed, Ok(()));
                                assert_eq!(t.version(), version + 1);
                                slot.insert(list);
                                order.push(owner);
                            }
                        }
                    }
                }
                check(&t, &oracle, &order, stride, presized);
            }
        }
    }

    #[test]
    fn index_length_follows_lists_not_ids() {
        // Dense ids: one slot an id, as HP publishes (≈ 3 000 lists over
        // 16.9k files), or two a list when the ids are denser than that.
        assert_eq!(index_len(2_953, 16_900), 16_900);
        assert_eq!(index_len(100, 50), 200);
        // Sparse ids: two slots a list, however large the ids.
        assert_eq!(index_len(100, 801), 200);
        assert_eq!(index_len(100, 1 << 24), 200);
        assert_eq!(index_len(100, usize::MAX), 200);
        assert_eq!(index_len(0, usize::MAX), 0);
    }

    #[test]
    fn presized_dense_owners_sit_at_their_ids() {
        let mut t = CorrelatorTable::with_capacity(3, 3, 10);
        for owner in [9, 2, 5] {
            t.push_list(FileId::new(owner), &[c(owner + 1, 0.5)])
                .unwrap();
        }
        assert_eq!((t.index.len(), t.reach), (10, 0));
        for owner in [9, 2, 5] {
            assert_eq!(t.index[owner as usize].owner, owner);
        }
        assert_eq!(t.get(FileId::new(19)), None, "19 shares 9's home slot");
    }

    #[test]
    fn large_ids_cost_slots_a_list() {
        // 1 000 lists owned by ids past 10^9, the way a capped stream's live
        // files sit far out in an open-ended id universe.
        let owners: Vec<u32> = (0..1_000).map(|i| 1_000_000_000 + 7 * i).collect();
        let mut t = CorrelatorTable::with_capacity(owners.len(), owners.len(), usize::MAX);
        for &owner in &owners {
            t.push_list(FileId::new(owner), &[c(owner, 0.5)]).unwrap();
        }
        assert_eq!(t.index.len(), 2 * owners.len());
        assert!(owners.iter().all(|&o| t.get(FileId::new(o)).is_some()));
        assert!(t.get(FileId::new(1_000_000_001)).is_none());
        // Grown one list at a time, the index stays within 4 slots a list.
        let mut grown = CorrelatorTable::new();
        for &owner in &owners {
            grown.push_list(FileId::new(owner), &[]).unwrap();
        }
        assert!(grown.index.len() <= 4 * owners.len());
        assert!(owners.iter().all(|&o| grown.get(FileId::new(o)).is_some()));
    }

    #[test]
    fn an_owner_past_a_direct_index_rebuilds_it_hashed() {
        let mut t = CorrelatorTable::with_capacity(4, 4, 8);
        for owner in [0, 5, 7] {
            t.push_list(FileId::new(owner), &[c(1, 0.5)]).unwrap();
        }
        assert_eq!((t.index.len(), t.reach), (8, 0));
        t.push_list(FileId::new(1 << 30), &[c(2, 0.5)]).unwrap();
        assert!(t.bound > t.index.len(), "ids past the index are hashed");
        for owner in [0, 5, 7, 1 << 30] {
            assert!(t.get(FileId::new(owner)).is_some(), "{owner}");
        }
        assert!(t.get(FileId::new(6)).is_none());
    }
}
