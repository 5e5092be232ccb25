//! FARMER-enabled reliability (§4.3): correlation-aware replica groups
//! with atomic backup and recovery.
//!
//! Files with strong inter-file correlations are placed in the same
//! *logical replica group*; backup and recovery operate on whole groups as
//! atomic operations, which guarantees that correlated files are always
//! mutually consistent after a recovery — the property the paper argues
//! for ("we can guarantee the strong consistency of files in the same
//! replica group").
//!
//! The manager models file versions as monotonically increasing counters.
//! A crash between per-file backups of *independent* files can leave a
//! correlated set mixed-version; grouped atomic backups cannot, which the
//! failure-injection tests demonstrate.

use farmer_core::CorrelationSource;
use farmer_trace::hash::FxHashMap;
use farmer_trace::FileId;

use crate::layout::GroupPlan;

/// Plan replica groups from any mined correlation source (live model,
/// exported table, stream snapshot): the §4.2 layout's greedy grouping
/// pass over every file — replicas are copies, so writes don't complicate
/// placement and no read-only restriction applies.
pub fn plan_replicas(
    source: &dyn CorrelationSource,
    num_files: usize,
    min_degree: f64,
    max_group: usize,
) -> GroupPlan {
    GroupPlan::greedy(source, num_files, min_degree, max_group, |_| true)
}

/// Per-file primary/replica version state plus the backup engine.
#[derive(Debug)]
pub struct ReplicaManager {
    plan: GroupPlan,
    /// Authoritative (primary) version per file.
    primary: Vec<u64>,
    /// Replica (backup) version per file.
    replica: Vec<u64>,
    /// Backups performed (file count).
    pub backups: u64,
}

impl ReplicaManager {
    /// Fresh manager over `num_files`, all at version 0, replicas in sync.
    pub fn new(plan: GroupPlan, num_files: usize) -> Self {
        ReplicaManager {
            plan,
            primary: vec![0; num_files],
            replica: vec![0; num_files],
            backups: 0,
        }
    }

    /// The plan in use.
    pub fn plan(&self) -> &GroupPlan {
        &self.plan
    }

    /// A write bumps the primary version of a file.
    pub fn write(&mut self, file: FileId) {
        self.primary[file.index()] += 1;
    }

    /// Back up one file's group atomically. If the file is grouped, every
    /// member's replica is brought to its current primary version in one
    /// operation; singletons back up alone. `crash_after` injects a crash
    /// after that many per-file copies (None = no crash) — an atomic group
    /// backup aborts entirely in that case (all-or-nothing), which is the
    /// §4.3 guarantee.
    pub fn backup(&mut self, file: FileId, crash_after: Option<usize>) -> bool {
        let files: Vec<FileId> = match self.plan.group_of(file) {
            Some(g) => self.plan.members(g).to_vec(),
            None => vec![file],
        };
        if let Some(n) = crash_after {
            if n < files.len() {
                // Atomicity: partial group backups are discarded.
                return false;
            }
        }
        for f in &files {
            self.replica[f.index()] = self.primary[f.index()];
            self.backups += 1;
        }
        true
    }

    /// Naive per-file backup (the non-FARMER baseline): copies files one at
    /// a time with no group atomicity; a crash leaves the copies already
    /// made in place.
    pub fn backup_unguarded(&mut self, files: &[FileId], crash_after: Option<usize>) {
        for (i, f) in files.iter().enumerate() {
            if let Some(n) = crash_after {
                if i >= n {
                    return;
                }
            }
            self.replica[f.index()] = self.primary[f.index()];
            self.backups += 1;
        }
    }

    /// Recover a file (and, if grouped, its whole group) from replicas —
    /// atomic by construction.
    pub fn recover(&mut self, file: FileId) {
        let files: Vec<FileId> = match self.plan.group_of(file) {
            Some(g) => self.plan.members(g).to_vec(),
            None => vec![file],
        };
        for f in files {
            self.primary[f.index()] = self.replica[f.index()];
        }
    }

    /// Consistency check: every multi-file group's replicas carry versions
    /// captured by the same backup generation — i.e. a group is internally
    /// consistent iff all members' replica versions were copied together.
    /// Returns groups whose replicas are mutually inconsistent (some
    /// members stale relative to a backup that included the others).
    pub fn inconsistent_groups(&self, expected: &FxHashMap<u32, u64>) -> Vec<u32> {
        let mut bad = Vec::new();
        for gid in 0..self.plan.num_groups() as u32 {
            let mismatch = self.plan.members(gid).iter().any(|f| {
                expected
                    .get(&f.raw())
                    .is_some_and(|&want| self.replica[f.index()] != want)
            });
            if mismatch {
                bad.push(gid);
            }
        }
        bad
    }

    /// Current replica version of a file.
    pub fn replica_version(&self, file: FileId) -> u64 {
        self.replica[file.index()]
    }

    /// Current primary version of a file.
    pub fn primary_version(&self, file: FileId) -> u64 {
        self.primary[file.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use farmer_core::{Farmer, FarmerConfig, Request};
    use farmer_trace::{DevId, HostId, ProcId, UserId};

    fn req(file: u32) -> Request {
        Request {
            file: FileId::new(file),
            uid: UserId::new(1),
            pid: ProcId::new(1),
            host: HostId::new(1),
            dev: DevId::new(0),
        }
    }

    /// Model with files 0,1,2 strongly correlated.
    fn mined() -> Farmer {
        let mut f = Farmer::new(FarmerConfig::default());
        for _ in 0..20 {
            for file in [0u32, 1, 2] {
                f.observe(req(file), None);
            }
        }
        f
    }

    #[test]
    fn plan_groups_correlated_files() {
        let farmer = mined();
        let plan = plan_replicas(&farmer, 3, 0.4, 4);
        assert_eq!(plan.num_groups(), 1);
        let g = plan.group_of(FileId::new(0)).unwrap();
        assert_eq!(plan.group_of(FileId::new(1)), Some(g));
        assert_eq!(plan.group_of(FileId::new(2)), Some(g));
    }

    #[test]
    fn group_backup_is_atomic() {
        let farmer = mined();
        let plan = plan_replicas(&farmer, 3, 0.4, 4);
        let mut mgr = ReplicaManager::new(plan, 3);
        mgr.write(FileId::new(0));
        mgr.write(FileId::new(1));
        mgr.write(FileId::new(2));
        // Crash mid-backup: atomic group backup aborts wholesale.
        let ok = mgr.backup(FileId::new(0), Some(1));
        assert!(!ok);
        for f in 0..3u32 {
            assert_eq!(mgr.replica_version(FileId::new(f)), 0, "no partial copies");
        }
        // Clean backup brings the whole group forward together.
        assert!(mgr.backup(FileId::new(0), None));
        for f in 0..3u32 {
            assert_eq!(mgr.replica_version(FileId::new(f)), 1);
        }
    }

    #[test]
    fn unguarded_backup_can_tear_groups() {
        let farmer = mined();
        let plan = plan_replicas(&farmer, 3, 0.4, 4);
        let mut mgr = ReplicaManager::new(plan, 3);
        for f in 0..3u32 {
            mgr.write(FileId::new(f));
        }
        let files: Vec<FileId> = (0..3).map(FileId::new).collect();
        mgr.backup_unguarded(&files, Some(1)); // crash after one copy
                                               // Group is now internally inconsistent: member 0 at v1, others v0.
        let mut expected = FxHashMap::default();
        for f in 0..3u32 {
            expected.insert(f, 1u64);
        }
        let bad = mgr.inconsistent_groups(&expected);
        assert_eq!(bad.len(), 1, "torn group must be detected");
    }

    #[test]
    fn recovery_restores_whole_group() {
        let farmer = mined();
        let plan = plan_replicas(&farmer, 3, 0.4, 4);
        let mut mgr = ReplicaManager::new(plan, 3);
        for f in 0..3u32 {
            mgr.write(FileId::new(f));
        }
        mgr.backup(FileId::new(0), None);
        // Further writes get lost in a "disk failure"...
        for f in 0..3u32 {
            mgr.write(FileId::new(f));
        }
        mgr.recover(FileId::new(1)); // recovering any member restores all
        for f in 0..3u32 {
            assert_eq!(
                mgr.primary_version(FileId::new(f)),
                1,
                "group rolled back together"
            );
        }
    }

    #[test]
    fn singletons_backup_alone() {
        let farmer = mined();
        let plan = plan_replicas(&farmer, 5, 0.4, 4);
        let mut mgr = ReplicaManager::new(plan, 5);
        mgr.write(FileId::new(4)); // uncorrelated file
        assert!(mgr.backup(FileId::new(4), None));
        assert_eq!(mgr.replica_version(FileId::new(4)), 1);
        assert_eq!(mgr.replica_version(FileId::new(0)), 0);
    }

    #[test]
    fn group_size_cap_respected() {
        let mut f = Farmer::new(FarmerConfig::default());
        // One hub file followed by many correlated successors.
        for _ in 0..15 {
            for file in 0..8u32 {
                f.observe(req(file), None);
            }
        }
        let plan = plan_replicas(&f, 8, 0.3, 3);
        for g in 0..plan.num_groups() as u32 {
            assert!(plan.members(g).len() <= 3);
        }
    }
}
