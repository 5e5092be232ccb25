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

/// A computed layout: group assignment per file.
#[derive(Debug, Clone)]
pub struct Layout {
    /// `file → group` (None = singleton/ungrouped).
    pub group_of: Vec<Option<u32>>,
    /// Number of groups formed.
    pub num_groups: u32,
    /// Number of files placed into groups.
    pub grouped_files: usize,
}

/// Build a layout from any mined correlation source (the live model, an
/// exported table, a stream snapshot): greedy correlator-list grouping
/// over read-only files.
pub fn plan_layout(source: &dyn CorrelationSource, trace: &Trace, cfg: LayoutConfig) -> Layout {
    let n = trace.num_files();
    let mut group_of: Vec<Option<u32>> = vec![None; n];
    let mut num_groups = 0u32;
    let mut grouped_files = 0usize;
    let mut list: Vec<Correlator> = Vec::new();
    let mut members: Vec<FileId> = Vec::new();

    for file_idx in 0..n {
        let owner = FileId::new(file_idx as u32);
        if group_of[file_idx].is_some() || !trace.meta_of(owner).read_only {
            continue;
        }
        source.top_k_into(owner, usize::MAX, cfg.min_degree, &mut list);
        // Collect co-locatable successors: read-only, ungrouped.
        members.clear();
        members.extend(
            list.iter()
                .filter(|c| {
                    let m = trace.meta_of(c.file);
                    m.read_only && group_of[c.file.index()].is_none() && c.file != owner
                })
                .map(|c| c.file)
                .take(cfg.max_group.saturating_sub(1)),
        );
        if members.is_empty() {
            continue; // nothing to co-locate with: stay a singleton
        }
        let g = num_groups;
        num_groups += 1;
        group_of[file_idx] = Some(g);
        grouped_files += 1;
        for &m in &members {
            group_of[m.index()] = Some(g);
            grouped_files += 1;
        }
    }

    Layout {
        group_of,
        num_groups,
        grouped_files,
    }
}

/// Replay the trace's data reads against an OSD cluster, returning the
/// counters. Used to compare scattered vs grouped layouts.
pub fn replay_reads(trace: &Trace, layout: Option<&Layout>, osd_cfg: OsdConfig) -> OsdStats {
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
        let cfg = if trace.family.has_paths() {
            FarmerConfig::default()
        } else {
            FarmerConfig::pathless()
        };
        Farmer::mine_trace(trace, cfg)
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
            layout.num_groups > 0,
            "correlated namespace should form groups"
        );
        assert!(layout.grouped_files >= 2 * layout.num_groups as usize);
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
        assert!(strict.grouped_files <= loose.grouped_files);
    }
}
