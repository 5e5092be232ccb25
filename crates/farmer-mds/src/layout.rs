//! FARMER-enabled file-data layout (§4.2).
//!
//! "We can merge several small files into one group to scale up the overall
//! system performance by enhancing the correlative file data locality. …
//! as an initial attempt, only read only files are considered to be stored
//! in the same group." The grouping walks each file's sorted Correlator
//! List and greedily co-locates strongly correlated, read-only, not yet
//! grouped files, so that "whenever the predecessor is accessed, its
//! correlated files are batch read into the cache by a single I/O request".

use farmer_core::{CorrelationSource, Correlator};
use farmer_trace::{FileId, Trace};

use crate::osd::{OsdCluster, OsdConfig, OsdStats};

/// Parameters of the grouping pass.
#[derive(Debug, Clone, Copy)]
pub struct LayoutConfig {
    /// Minimum correlation degree for co-location (defaults to the model's
    /// `max_strength`).
    pub min_degree: f64,
    /// Maximum files per group (extent size bound).
    pub max_group: usize,
}

impl Default for LayoutConfig {
    fn default() -> Self {
        LayoutConfig {
            min_degree: 0.4,
            max_group: 8,
        }
    }
}

/// A §4.2 layout: read-only files grouped by their correlator lists.
#[derive(Debug, Clone)]
pub struct GroupPlan {
    /// `file → group` (None = singleton/ungrouped).
    group_of: Vec<Option<u32>>,
    /// Number of multi-file groups; they are numbered `0..num_groups`.
    num_groups: usize,
}

impl GroupPlan {
    /// Number of multi-file groups.
    pub fn num_groups(&self) -> usize {
        self.num_groups
    }

    /// Number of files placed into groups.
    pub fn grouped_files(&self) -> usize {
        self.group_of.iter().flatten().count()
    }
}

/// Build a layout from any mined correlation source (the live model, an
/// exported table, a stream snapshot) by one greedy correlator-list pass:
/// in file-id order, each ungrouped read-only file walks its list (degree
/// ≥ `min_degree`, strongest first) and takes up to `max_group − 1`
/// read-only, ungrouped successors into a new group with itself. A file
/// with no such successor stays a singleton. Successors outside the
/// trace's namespace are never grouped.
pub fn plan_layout(source: &dyn CorrelationSource, trace: &Trace, cfg: LayoutConfig) -> GroupPlan {
    let read_only = |f: FileId| trace.meta_of(f).read_only;
    let mut group_of: Vec<Option<u32>> = vec![None; trace.num_files()];
    let mut num_groups = 0;
    let mut list: Vec<Correlator> = Vec::new();
    for file_idx in 0..group_of.len() {
        let owner = FileId::new(file_idx as u32);
        if group_of[file_idx].is_some() || !read_only(owner) {
            continue;
        }
        source.top_k_into(owner, usize::MAX, cfg.min_degree, &mut list);
        let group: Vec<FileId> = std::iter::once(owner)
            .chain(
                list.iter()
                    .map(|c| c.file)
                    .filter(|&f| {
                        f != owner
                            && group_of.get(f.index()).is_some_and(Option::is_none)
                            && read_only(f)
                    })
                    .take(cfg.max_group.saturating_sub(1)),
            )
            .collect();
        if group.len() < 2 {
            continue; // nothing to co-locate with: stay a singleton
        }
        for f in &group {
            group_of[f.index()] = Some(num_groups as u32);
        }
        num_groups += 1;
    }
    GroupPlan {
        group_of,
        num_groups,
    }
}

/// Replay the trace's data reads against an OSD cluster, returning the
/// counters. Used to compare scattered vs grouped layouts.
pub fn replay_reads(trace: &Trace, layout: Option<&GroupPlan>, osd_cfg: OsdConfig) -> OsdStats {
    let mut cluster = OsdCluster::new(osd_cfg, trace.num_files());
    if let Some(l) = layout {
        cluster.set_layout(l.group_of.clone());
    }
    for e in &trace.events {
        let bytes = if e.bytes > 0 {
            e.bytes
        } else {
            trace.meta_of(e.file).size.min(65536)
        };
        cluster.read(e.file, bytes);
    }
    cluster.stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use farmer_core::{Farmer, FarmerConfig};
    use farmer_trace::WorkloadSpec;

    fn mined(trace: &Trace) -> Farmer {
        Farmer::mine_trace(trace, FarmerConfig::for_family(trace.family))
    }

    #[test]
    fn layout_groups_only_read_only_files() {
        let trace = WorkloadSpec::hp().scaled(0.1).generate();
        let farmer = mined(&trace);
        let layout = plan_layout(&farmer, &trace, LayoutConfig::default());
        for (i, g) in layout.group_of.iter().enumerate() {
            if g.is_some() {
                assert!(
                    trace.meta_of(FileId::new(i as u32)).read_only,
                    "grouped file {i} must be read-only"
                );
            }
        }
        assert!(
            layout.num_groups() > 0,
            "correlated namespace should form groups"
        );
        assert!(layout.grouped_files() >= 2 * layout.num_groups());
    }

    /// FNV-1a over a plan's `group_of`, one `u32` a file (0 = ungrouped,
    /// else group + 1), little-endian.
    fn group_of_hash(plan: &GroupPlan) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for g in &plan.group_of {
            for b in g.map_or(0, |g| g + 1).to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// The layout of HP at 0.1, pinned by its counts and `group_of` hash:
    /// any change to the grouping pass that moves a file shows here.
    #[test]
    fn layout_plan_matches_the_pinned_plan() {
        let trace = WorkloadSpec::hp().scaled(0.1).generate();
        let farmer = Farmer::mine_trace(&trace, FarmerConfig::default());
        assert_eq!(trace.num_files(), 16_869);

        let layout = plan_layout(&farmer, &trace, LayoutConfig::default());
        assert_eq!((layout.num_groups(), layout.grouped_files()), (607, 1_426));
        assert_eq!(group_of_hash(&layout), 0x1f0b_1f97_0ba9_abfe);
    }

    #[test]
    fn groups_respect_size_cap() {
        let trace = WorkloadSpec::hp().scaled(0.1).generate();
        let farmer = mined(&trace);
        let cfg = LayoutConfig {
            min_degree: 0.3,
            max_group: 4,
        };
        let layout = plan_layout(&farmer, &trace, cfg);
        let mut sizes = std::collections::HashMap::new();
        for g in layout.group_of.iter().flatten() {
            *sizes.entry(*g).or_insert(0usize) += 1;
        }
        for (&g, &s) in &sizes {
            assert!(s <= cfg.max_group, "group {g} has {s} members");
        }
    }

    #[test]
    fn grouped_layout_reduces_seeks() {
        // The §4.2 claim: grouping correlated read-only files turns random
        // I/O into sequential I/O.
        let trace = WorkloadSpec::hp().scaled(0.1).generate();
        let farmer = mined(&trace);
        let layout = plan_layout(&farmer, &trace, LayoutConfig::default());
        let scattered = replay_reads(&trace, None, OsdConfig::default());
        let grouped = replay_reads(&trace, Some(&layout), OsdConfig::default());
        assert!(
            grouped.seeks < scattered.seeks,
            "grouping must save seeks: {} vs {}",
            grouped.seeks,
            scattered.seeks
        );
        assert!(grouped.busy_us < scattered.busy_us);
        assert_eq!(grouped.reads, scattered.reads);
    }

    #[test]
    fn higher_threshold_groups_fewer_files() {
        let trace = WorkloadSpec::hp().scaled(0.05).generate();
        let farmer = mined(&trace);
        let loose = plan_layout(
            &farmer,
            &trace,
            LayoutConfig {
                min_degree: 0.2,
                max_group: 8,
            },
        );
        let strict = plan_layout(
            &farmer,
            &trace,
            LayoutConfig {
                min_degree: 0.8,
                max_group: 8,
            },
        );
        assert!(strict.grouped_files() <= loose.grouped_files());
    }
}
