//! Object storage devices: placement and a seek/transfer cost model.
//!
//! OSDs "are actual storage depositories for object data, and provide the
//! object-based interface for clients' accesses" (§5.1). For the layout
//! experiments we model the property §4.2 exploits: reading files that are
//! laid out **contiguously in the same group** costs one seek for the whole
//! batch, while scattered files pay a seek each — "batched I/O operations
//! … are transformed from random I/Os to sequential I/Os".

use farmer_trace::FileId;

/// Cost-model constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OsdConfig {
    /// Number of OSDs in the cluster.
    pub num_osds: usize,
    /// Cost of repositioning to a new group/extent (µs).
    pub seek_us: u64,
    /// Transfer cost per KiB (µs).
    pub transfer_us_per_kib: u64,
}

impl Default for OsdConfig {
    fn default() -> Self {
        OsdConfig {
            num_osds: 8,
            seek_us: 8000,
            transfer_us_per_kib: 25,
        }
    }
}

/// Cumulative OSD counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OsdStats {
    /// Object reads served.
    pub reads: u64,
    /// Seeks paid (group/extent switches).
    pub seeks: u64,
    /// Total simulated service time (µs).
    pub busy_us: u64,
}

/// The OSD cluster: placement plus per-device locality state.
#[derive(Debug)]
pub struct OsdCluster {
    cfg: OsdConfig,
    /// `file → group`: files in the same group are contiguous on disk.
    /// Ungrouped files are singleton extents.
    group_of: Vec<Option<u32>>,
    /// Per-OSD last-touched extent: `Some(group)` or the file itself
    /// encoded as `u32::MAX - raw` for singletons.
    last_extent: Vec<Option<u64>>,
    stats: OsdStats,
}

impl OsdCluster {
    /// A cluster over `num_files` with no grouping (every file scattered).
    pub fn new(cfg: OsdConfig, num_files: usize) -> Self {
        assert!(cfg.num_osds > 0, "need at least one OSD");
        OsdCluster {
            group_of: vec![None; num_files],
            last_extent: vec![None; cfg.num_osds],
            stats: OsdStats::default(),
            cfg,
        }
    }

    /// Install a layout: `group_of[file] = Some(g)` for grouped files.
    pub fn set_layout(&mut self, group_of: Vec<Option<u32>>) {
        assert_eq!(group_of.len(), self.group_of.len(), "layout size mismatch");
        self.group_of = group_of;
        // New physical layout invalidates positional locality.
        for e in &mut self.last_extent {
            *e = None;
        }
    }

    /// Which OSD a file lives on. Grouped files are placed by group so the
    /// whole group is co-located; singletons are placed by file id.
    pub fn osd_of(&self, file: FileId) -> usize {
        match self.group_of[file.index()] {
            Some(g) => (g as usize) % self.cfg.num_osds,
            None => file.index() % self.cfg.num_osds,
        }
    }

    /// Serve one object read; returns its simulated cost in µs.
    pub fn read(&mut self, file: FileId, bytes: u64) -> u64 {
        let osd = self.osd_of(file);
        let extent = match self.group_of[file.index()] {
            Some(g) => g as u64,
            None => u64::MAX - file.raw() as u64,
        };
        let mut cost = (bytes / 1024).max(1) * self.cfg.transfer_us_per_kib;
        if self.last_extent[osd] != Some(extent) {
            cost += self.cfg.seek_us;
            self.stats.seeks += 1;
            self.last_extent[osd] = Some(extent);
        }
        self.stats.reads += 1;
        self.stats.busy_us += cost;
        cost
    }

    /// Counters so far.
    pub fn stats(&self) -> OsdStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(i: u32) -> FileId {
        FileId::new(i)
    }

    #[test]
    fn scattered_reads_pay_seeks() {
        let c = OsdCluster::new(OsdConfig::default(), 16);
        // All files on OSD 0 (num_osds=1 makes the locality state shared).
        let mut cfg = OsdConfig::default();
        cfg.num_osds = 1;
        let mut c1 = OsdCluster::new(cfg, 16);
        c1.read(f(0), 4096);
        c1.read(f(1), 4096);
        c1.read(f(2), 4096);
        assert_eq!(c1.stats().seeks, 3, "every scattered file seeks");
        drop(c);
    }

    #[test]
    fn grouped_reads_share_one_seek() {
        let mut cfg = OsdConfig::default();
        cfg.num_osds = 1;
        let mut c = OsdCluster::new(cfg, 16);
        let mut layout = vec![None; 16];
        for slot in layout.iter_mut().take(4) {
            *slot = Some(7);
        }
        c.set_layout(layout);
        for i in 0..4 {
            c.read(f(i as u32), 4096);
        }
        assert_eq!(c.stats().seeks, 1, "one seek for the whole group");
        assert_eq!(c.stats().reads, 4);
    }

    #[test]
    fn repeated_same_file_read_seeks_once() {
        let mut cfg = OsdConfig::default();
        cfg.num_osds = 1;
        let mut c = OsdCluster::new(cfg, 4);
        c.read(f(1), 1024);
        c.read(f(1), 1024);
        assert_eq!(c.stats().seeks, 1);
    }

    #[test]
    fn transfer_scales_with_size() {
        let small = OsdCluster::new(OsdConfig::default(), 4).read(f(0), 1024);
        let large = OsdCluster::new(OsdConfig::default(), 4).read(f(0), 1024 * 64);
        assert!(large > small);
    }

    #[test]
    fn grouped_files_colocate() {
        let mut c = OsdCluster::new(OsdConfig::default(), 64);
        let mut layout = vec![None; 64];
        layout[3] = Some(5);
        layout[40] = Some(5);
        c.set_layout(layout);
        assert_eq!(c.osd_of(f(3)), c.osd_of(f(40)));
    }

    /// A fresh cluster starts with zero counters and no locality, so a
    /// layout comparison builds one per layout.
    #[test]
    fn reset_clears_counters_and_locality() {
        let mut cfg = OsdConfig::default();
        cfg.num_osds = 1;
        let mut c = OsdCluster::new(cfg, 4);
        c.read(f(0), 1024);
        let mut c = OsdCluster::new(cfg, 4);
        assert_eq!(c.stats(), OsdStats::default());
        c.read(f(0), 1024);
        assert_eq!(c.stats().seeks, 1, "locality must reset too");
    }

    #[test]
    #[should_panic(expected = "layout size mismatch")]
    fn layout_size_checked() {
        let mut c = OsdCluster::new(OsdConfig::default(), 4);
        c.set_layout(vec![None; 3]);
    }
}
