//! Namespace construction: files, directories and application templates.
//!
//! The namespace is built once per generated trace:
//!
//! * a **shared area** (`/usr/bin/tool-i`, `/usr/lib/lib-j`) holding the
//!   `shared_files` every application links against,
//! * a **per-user area** (`/home/u{uid}/proj-k/...`) holding each user's
//!   private project files at the spec's `project_depth`, and
//! * **application templates**: ordered file-sets that process runs replay.
//!   Global apps draw on shared project dirs; private apps on the owner's
//!   project dirs. For LLNL, each global app is expanded into
//!   `parallel_ranks` rank variants that share the app's input prefix but
//!   append rank-private checkpoint files — reproducing the "many ranks
//!   hammer a shared input then write their own checkpoints" pattern.

use rand::rngs::StdRng;
use rand::Rng;

use super::WorkloadSpec;
use crate::ids::{DevId, FileId, UserId};
use crate::path::PathInterner;
use crate::trace::FileMeta;

/// An ordered application file-set; one process run replays `sequence`
/// (possibly several loops), which is what creates mineable correlations.
#[derive(Debug, Clone)]
pub struct AppTemplate {
    /// Owning user for private apps; `None` for global apps.
    pub owner: Option<UserId>,
    /// Ordered files the app touches per loop.
    pub sequence: Vec<FileId>,
    /// Inclusive range of loop counts per run.
    pub loops: (usize, usize),
}

/// A constructed namespace: the file table plus app templates.
#[derive(Debug)]
pub struct Namespace {
    /// Per-file metadata, indexed by `FileId`.
    pub files: Vec<FileMeta>,
    /// Path-component interner backing `files[..].path`.
    pub paths: PathInterner,
    /// Global application templates (indices into `apps` 0..global_end).
    pub apps: Vec<AppTemplate>,
    /// Index of the first private app in `apps`.
    pub global_end: usize,
    /// For each user, the half-open range of their private apps in `apps`.
    pub private_ranges: Vec<(usize, usize)>,
    /// Each user's full project-file pool (used by ad-hoc runs).
    pub user_files: Vec<Vec<FileId>>,
}

impl Namespace {
    /// Build the namespace for `spec` using `rng` for size/shape draws.
    pub fn build(spec: &WorkloadSpec, rng: &mut StdRng) -> Namespace {
        // Enough project files per user to cover the user's private apps,
        // plus cold namespace mass so caches can't trivially hold everything.
        let per_app = spec.files_per_app.1;
        let needed = (spec.private_apps_per_user * per_app).max(4) + spec.extra_files_per_user;
        let per_proj = per_app.max(4);
        let projects = needed.div_ceil(per_proj);
        // The most files the steps below can add, so `files` is allocated
        // once: grown by doubling, its buffers are powers of two in bytes
        // (a `FileMeta` is 32) and a process that builds one trace after
        // another scatters them over the holes its other power-of-two
        // buffers left, which reads as a bimodal peak RSS.
        let ranks = if spec.parallel_ranks > 1 {
            spec.parallel_ranks
        } else {
            0
        };
        let ckpts = spec.ckpts_per_rank.1.max(spec.ckpts_per_rank.0);
        let most_files = spec.shared_files
            + spec.num_users as usize * projects * per_proj
            + spec.global_apps * (per_app + ranks * ckpts);
        let mut b = Builder {
            spec,
            files: Vec::with_capacity(most_files),
            paths: PathInterner::new(),
        };

        // Shared tools and libraries.
        let mut shared = Vec::with_capacity(spec.shared_files);
        for i in 0..spec.shared_files {
            let (dir, kind) = if i % 2 == 0 {
                ("bin", "tool")
            } else {
                ("lib", "lib")
            };
            let path = format!("/usr/{dir}/{kind}-{i}");
            shared.push(b.add_file(&path, DevId::new(0), true, rng));
        }

        // Per-user project files.
        let mut user_files: Vec<Vec<FileId>> = Vec::with_capacity(spec.num_users as usize);
        for uid in 0..spec.num_users {
            let dev = DevId::new(1 + uid % spec.num_devs.max(1));
            let mut files = Vec::with_capacity(projects * per_proj);
            for p in 0..projects {
                for f in 0..per_proj {
                    let path = project_path(uid, p, f, spec.project_depth);
                    let read_only = rng.gen_bool(0.7);
                    files.push(b.add_file(&path, dev, read_only, rng));
                }
            }
            user_files.push(files);
        }

        // Shared project areas for global apps (class dirs, job input dirs).
        let mut global_apps = Vec::with_capacity(spec.global_apps);
        for g in 0..spec.global_apps {
            let dev = DevId::new(g as u32 % spec.num_devs.max(1));
            let len = rng.gen_range(spec.files_per_app.0..=spec.files_per_app.1);
            let mut sequence = Vec::with_capacity(len + 2);
            // Apps start by touching a shared tool, like an exec of gcc.
            sequence.push(shared[g % shared.len().max(1)]);
            for f in 0..len {
                let path = format!("/share/app-{g}/data-{f}");
                sequence.push(b.add_file(&path, dev, true, rng));
            }
            // ... and link a library.
            sequence.push(shared[(g * 7 + 1) % shared.len().max(1)]);
            global_apps.push(AppTemplate {
                owner: None,
                sequence,
                loops: spec.loops_per_run,
            });
        }

        // LLNL-style rank expansion: each global app gains `parallel_ranks`
        // variants sharing its input prefix plus rank-private checkpoints.
        let mut apps: Vec<AppTemplate> = Vec::new();
        if spec.parallel_ranks > 1 {
            for (g, app) in global_apps.iter().enumerate() {
                for r in 0..spec.parallel_ranks {
                    let dev = DevId::new(g as u32 % spec.num_devs.max(1));
                    let mut sequence = app.sequence.clone();
                    let ckpts = rng.gen_range(
                        spec.ckpts_per_rank.0..=spec.ckpts_per_rank.1.max(spec.ckpts_per_rank.0),
                    );
                    for c in 0..ckpts {
                        let path = format!("/scratch/job-{g}/rank-{r}/ckpt-{c}");
                        sequence.push(b.add_file(&path, dev, false, rng));
                    }
                    apps.push(AppTemplate {
                        owner: None,
                        sequence,
                        loops: spec.loops_per_run,
                    });
                }
            }
        } else {
            apps = global_apps;
        }
        let global_end = apps.len();

        // Private apps: ordered slices of the owner's project files plus
        // shared tool/lib touches, mimicking edit/compile/run cycles.
        let mut private_ranges = Vec::with_capacity(spec.num_users as usize);
        for uid in 0..spec.num_users {
            let start = apps.len();
            let mine = &user_files[uid as usize];
            for a in 0..spec.private_apps_per_user {
                if mine.is_empty() {
                    break;
                }
                let len = rng
                    .gen_range(spec.files_per_app.0..=spec.files_per_app.1)
                    .min(mine.len());
                let offset = rng.gen_range(0..mine.len());
                let mut sequence = Vec::with_capacity(len + 2);
                sequence.push(shared[(uid as usize + a) % shared.len().max(1)]);
                for k in 0..len {
                    sequence.push(mine[(offset + k) % mine.len()]);
                }
                sequence.push(shared[(uid as usize * 3 + a + 1) % shared.len().max(1)]);
                apps.push(AppTemplate {
                    owner: Some(UserId::new(uid)),
                    sequence,
                    loops: spec.loops_per_run,
                });
            }
            private_ranges.push((start, apps.len()));
        }

        debug_assert!(b.files.len() <= most_files, "`files` outgrew its bound");
        Namespace {
            files: b.files,
            paths: b.paths,
            apps,
            global_end,
            private_ranges,
            user_files,
        }
    }

    /// Number of files in the namespace.
    pub fn num_files(&self) -> usize {
        self.files.len()
    }
}

fn project_path(uid: u32, proj: usize, file: usize, depth: usize) -> String {
    // depth counts the directories between /home/uN and the file name.
    let mut p = format!("/home/u{uid}");
    p.push_str(&format!("/proj-{proj}"));
    for d in 1..depth {
        p.push_str(&format!("/d{d}"));
    }
    p.push_str(&format!("/file-{file}"));
    p
}

struct Builder<'a> {
    #[allow(dead_code)]
    spec: &'a WorkloadSpec,
    files: Vec<FileMeta>,
    paths: PathInterner,
}

impl Builder<'_> {
    fn add_file(&mut self, path: &str, dev: DevId, read_only: bool, rng: &mut StdRng) -> FileId {
        let id = FileId::new(self.files.len() as u32);
        // Sizes skewed small: most files tens of KB, tail to ~1 MB, mean in
        // the 108–189 KB band the paper cites for workstation clusters.
        let size = 4096 + (rng.gen_range(0.0f64..1.0).powi(3) * 1_000_000.0) as u64;
        self.files.push(FileMeta {
            path: Some(self.paths.parse(path)),
            dev,
            size,
            read_only,
        });
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn build(spec: &WorkloadSpec) -> Namespace {
        let mut rng = StdRng::seed_from_u64(spec.seed);
        Namespace::build(spec, &mut rng)
    }

    #[test]
    fn every_app_sequence_references_valid_files() {
        let ns = build(&WorkloadSpec::hp());
        for app in &ns.apps {
            assert!(!app.sequence.is_empty());
            for &f in &app.sequence {
                assert!(f.index() < ns.files.len());
            }
        }
    }

    #[test]
    fn private_ranges_cover_owned_apps() {
        let spec = WorkloadSpec::hp();
        let ns = build(&spec);
        for (uid, &(start, end)) in ns.private_ranges.iter().enumerate() {
            for app in &ns.apps[start..end] {
                assert_eq!(app.owner, Some(UserId::new(uid as u32)));
            }
        }
        // Apps before global_end are unowned.
        for app in &ns.apps[..ns.global_end] {
            assert!(app.owner.is_none());
        }
    }

    #[test]
    fn all_files_have_paths() {
        let ns = build(&WorkloadSpec::hp());
        for f in &ns.files {
            assert!(f.path.is_some());
        }
    }

    #[test]
    fn rank_expansion_multiplies_global_apps() {
        let spec = WorkloadSpec::llnl();
        assert!(spec.parallel_ranks > 1);
        let ns = build(&spec);
        assert_eq!(ns.global_end, spec.global_apps * spec.parallel_ranks);
    }

    #[test]
    fn rank_variants_share_input_prefix() {
        let spec = WorkloadSpec::llnl();
        let ns = build(&spec);
        // Variants of app 0 occupy indices 0..parallel_ranks and share the
        // original input sequence as a prefix.
        let a = &ns.apps[0].sequence;
        let b = &ns.apps[1].sequence;
        let shared_prefix = a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count();
        assert!(shared_prefix >= 2, "rank variants should share inputs");
        // But their tails (checkpoints) differ.
        assert_ne!(a.last(), b.last());
    }

    #[test]
    fn namespace_is_deterministic_for_seed() {
        let spec = WorkloadSpec::ins();
        let a = build(&spec);
        let b = build(&spec);
        assert_eq!(a.num_files(), b.num_files());
        assert_eq!(a.apps.len(), b.apps.len());
        for (x, y) in a.apps.iter().zip(&b.apps) {
            assert_eq!(x.sequence, y.sequence);
        }
    }

    #[test]
    fn project_paths_honor_depth() {
        let p = project_path(3, 1, 2, 3);
        assert_eq!(p, "/home/u3/proj-1/d1/d2/file-2");
    }
}
