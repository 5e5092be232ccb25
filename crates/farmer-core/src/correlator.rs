//! Stage 4 — Sorting: per-file Correlator Lists.
//!
//! "Each file with one or more successors is associated with a sorted
//! Correlator List in decreasing order of the inter-file correlation degree
//! from head to tail." (paper §3.1, Stage 4). The list is the interface the
//! prefetcher consumes: its head holds the strongest correlations, and only
//! entries whose degree reaches `max_strength` appear at all.

use std::collections::hash_map::Entry;

use farmer_trace::hash::FxHashMap;
use farmer_trace::FileId;

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

/// A slab length as the `u32` offset spans are stored in (which keeps an
/// index entry at 12 bytes).
fn slab_offset(len: usize) -> u32 {
    // lint: allow(panic) 2^32 correlators would be a 64 GiB slab
    u32::try_from(len).expect("a table holds under 2^32 correlators")
}

/// An indexed set of Correlator Lists, one per owner file.
///
/// This is the exchange format between a mining back-end and its consumers:
/// the streaming engine (`farmer-stream`) exports one as a consistent
/// snapshot, and the prefetcher (`farmer-prefetch`) serves predictions from
/// it, swapping in fresh tables mid-simulation without re-mining.
///
/// Storage is flat: every list's entries sit back to back in one slab, in
/// the order the lists were appended, and an owner → span index answers a
/// query with one probe and one slice. The table is append-only — a list
/// is never replaced, and appending an owner twice is an error — so a
/// table costs a fixed handful of allocations however many lists it holds.
#[derive(Debug, Clone, Default)]
pub struct CorrelatorTable {
    /// Every list's entries, back to back in list order.
    entries: Vec<Correlator>,
    /// Owner of list `i`.
    owners: Vec<u32>,
    /// List `i` is `entries[ends[i - 1]..ends[i]]` (list 0 starts at 0).
    ends: Vec<u32>,
    /// owner → `(start, len)` of its list in `entries`.
    index: FxHashMap<u32, (u32, u32)>,
    version: u64,
}

impl CorrelatorTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty table with room for `lists` lists holding `entries`
    /// correlators in total.
    pub fn with_capacity(lists: usize, entries: usize) -> Self {
        let mut table = Self::default();
        table.reserve(lists, entries);
        table
    }

    /// Make room for `lists` more lists holding `entries` more correlators.
    fn reserve(&mut self, lists: usize, entries: usize) {
        self.entries.reserve(entries);
        self.owners.reserve(lists);
        self.ends.reserve(lists);
        self.index.reserve(lists);
    }

    /// Append `owner`'s list. `list` must already be in the canonical
    /// order (decreasing degree, ties by ascending file id) — the order
    /// every [`crate::CorrelationSource`] produces.
    pub fn push_list(&mut self, owner: FileId, list: &[Correlator]) -> Result<(), DuplicateOwner> {
        debug_assert!(list
            .windows(2)
            .all(|w| crate::source::rank_cmp(&w[0], &w[1]).is_lt()));
        let start = self.entries.len() as u32; // fits: it is an earlier `end`
        let end = slab_offset(self.entries.len() + list.len());
        match self.index.entry(owner.raw()) {
            Entry::Occupied(_) => return Err(DuplicateOwner(owner)),
            Entry::Vacant(slot) => slot.insert((start, end - start)),
        };
        self.owners.push(owner.raw());
        self.ends.push(end);
        self.entries.extend_from_slice(list);
        self.version += 1;
        Ok(())
    }

    /// Append every list of `other`, in its order: one copy of its slab
    /// and its index entries rebased behind ours. On a repeated owner the
    /// table is left as it was.
    pub fn append(&mut self, other: &CorrelatorTable) -> Result<(), DuplicateOwner> {
        if let Some(&dup) = other.owners.iter().find(|o| self.index.contains_key(o)) {
            return Err(DuplicateOwner(FileId::new(dup)));
        }
        // Checked once for the whole slab: every rebased offset fits.
        let end = slab_offset(self.entries.len() + other.entries.len());
        let base = end - other.entries.len() as u32;
        self.reserve(other.len(), other.entries.len());
        let rebased = other.index.iter();
        self.index
            .extend(rebased.map(|(&owner, &(start, len))| (owner, (base + start, len))));
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
        self.index
            .get(&file.raw())
            .map(|&(start, len)| &self.entries[start as usize..(start + len) as usize])
    }

    /// The `k` strongest correlators of `file` (empty if absent).
    pub fn top(&self, file: FileId, k: usize) -> &[Correlator] {
        self.get(file).map_or(&[], |l| &l[..k.min(l.len())])
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

    /// Approximate heap bytes (slab + owner/offset arrays + index), for
    /// space accounting.
    pub fn heap_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<Correlator>()
            + (self.owners.capacity() + self.ends.capacity()) * std::mem::size_of::<u32>()
            + self.index.capacity() * (std::mem::size_of::<(u32, (u32, u32))>() + 8)
    }
}

#[cfg(test)]
mod tests {
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
        let mut t = CorrelatorTable::with_capacity(1, 2);
        t.push_list(FileId::new(1), &[c(2, 0.9), c(3, 0.5)])
            .unwrap();
        assert_eq!(t.top(FileId::new(1), 1).len(), 1);
        assert_eq!(t.top(FileId::new(1), 9).len(), 2);
        assert!(t.top(FileId::new(42), 4).is_empty());
        assert!(t.heap_bytes() > 0);
    }
}
