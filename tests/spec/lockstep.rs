//! The driver every spec suite shares: a `Farmer` and the [`Spec`] fed the
//! same calls and compared after each one, and the seeded streams those
//! calls come from.

#![allow(dead_code, reason = "each suite drives a part of it")]

use farmer_core::graph::UpdateMix;
use farmer_core::{Farmer, FarmerConfig, Request};
use farmer_trace::{DevId, FileId, FilePath, HostId, ProcId, UserId};

use super::Spec;

pub fn req(file: u32, uid: u32, pid: u32, host: u32) -> Request {
    Request {
        file: FileId::new(file),
        uid: UserId::new(uid),
        pid: ProcId::new(pid),
        host: HostId::new(host),
        dev: DevId::new(0),
    }
}

/// The paper's configuration with successor cap `cap` and a prune every
/// `prune_interval` events.
pub fn cfg(cap: usize, prune_interval: usize) -> FarmerConfig {
    FarmerConfig {
        max_successors: cap,
        prune_interval,
        ..FarmerConfig::default()
    }
}

/// A seeded xorshift stream of small integers.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self, n: u32) -> u32 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % u64::from(n)) as u32
    }

    /// A request for `file` from one of enough users, processes and hosts
    /// that many pairs share no attribute and only their frequency keeps
    /// them above the prune floor.
    pub fn request(&mut self, file: u32) -> Request {
        req(file, self.next(5), self.next(3), self.next(5))
    }
}

/// A `Farmer` and the spec, driven by the same calls and compared after
/// every one.
pub struct Lockstep {
    pub kernel: Farmer,
    pub spec: Spec,
    /// The kernel's update mixes of earlier lives: a restored graph counts
    /// from zero.
    lives: Vec<UpdateMix>,
    label: String,
    step: usize,
}

impl Lockstep {
    pub fn new(cfg: FarmerConfig, label: String) -> Lockstep {
        Lockstep {
            kernel: Farmer::new(cfg.clone()),
            spec: Spec::new(cfg),
            lives: Vec::new(),
            label,
            step: 0,
        }
    }

    /// A kernel restored from the spec's state image: how a test starts
    /// both from a state that no stream of calls under one ownership
    /// partition reaches.
    pub fn from_spec(spec: Spec, label: String) -> Lockstep {
        let kernel = Farmer::from_state(spec.cfg.clone(), &spec.export());
        let mut both = Lockstep {
            kernel,
            spec,
            lives: Vec::new(),
            label,
            step: 0,
        };
        both.check();
        both
    }

    fn check(&mut self) {
        self.step += 1;
        let at = format!("{} step {}", self.label, self.step);
        super::assert_same(&self.kernel, &self.spec, &at);
    }

    /// Observe `r` as the instance that owns every file, or as `part` of
    /// a two-way ownership partition by parity.
    pub fn observe(&mut self, r: Request, path: Option<&FilePath>, part: Option<u32>) {
        let owns = |f: FileId| part.is_none_or(|p| f.raw() % 2 == p);
        self.kernel.observe_where(r, path, owns);
        self.spec.observe(r, path, owns);
        self.check();
    }

    pub fn forget(&mut self, victims: &[FileId]) -> usize {
        let (removed, want) = (self.kernel.forget_files(victims), self.spec.forget(victims));
        assert_eq!(removed, want, "{} step {}", self.label, self.step);
        self.check();
        removed
    }

    /// Restore the kernel from its own image under `cfg`. The spec holds
    /// the same state, so it takes `cfg` as it is.
    pub fn restore(&mut self, cfg: FarmerConfig) {
        self.lives.push(self.kernel.graph().update_mix());
        self.kernel = Farmer::from_state(cfg.clone(), &self.kernel.export_state());
        self.spec.cfg = cfg;
        self.check();
    }

    /// The kernel's update mix over all its lives, which must classify the
    /// updates as the spec's own counts do.
    pub fn mix(&self) -> UpdateMix {
        let mut all = self.kernel.graph().update_mix();
        for m in &self.lives {
            all.hits += m.hits;
            all.inserts += m.inserts;
            all.early_rejects += m.early_rejects;
            all.exact_rejects += m.exact_rejects;
            all.admits += m.admits;
            all.path_terms += m.path_terms;
            all.relocates += m.relocates;
        }
        let (c, rejects) = (self.spec.counts, all.early_rejects + all.exact_rejects);
        let kernel = [all.hits, all.inserts, all.admits, rejects];
        assert_eq!(kernel, [c.hits, c.inserts, c.admits, c.rejects]);
        all
    }

    /// The longest successor list the spec holds now.
    pub fn longest(&self) -> usize {
        let lens = self.spec.nodes.values().map(|n| n.edges.len());
        lens.max().unwrap_or(0)
    }
}

/// File `id`'s path in naming generation `gen`: none for one in seven,
/// twelve deep in a shared directory for one in three (IPA terms above
/// 0.9), under a repeated directory name for one in five (signatures that
/// are not clean, multiset intersections), shallow otherwise. `gen` renames
/// the last two kinds, so a file is offered paths it was not learned under.
pub fn path_of(id: u32, gen: u32) -> Option<FilePath> {
    let name = 10_000 + id;
    let components = match id {
        _ if id.is_multiple_of(7) => return None,
        _ if id.is_multiple_of(3) => (500..511).chain([name]).collect(),
        _ if id.is_multiple_of(5) => vec![600, 600, 300 + gen, name],
        _ => vec![100 + id % 2 + 10 * gen, 200 + id % 5, name],
    };
    Some(FilePath::from_components(components))
}

/// What a seeded stream varies besides its configuration and seed.
#[derive(Clone, Copy)]
pub struct Stream {
    /// Distinct files in the stream, named by `id`.
    pub files: u32,
    pub id: fn(u32) -> u32,
    /// `Some(r)`: this half of a two-way ownership partition.
    pub part: Option<u32>,
    /// `Some((step, cap))`: at `step`, restore under a `max_successors`
    /// raised to `cap`.
    pub raise: Option<(usize, usize)>,
}

pub const DENSE: Stream = Stream {
    files: 12,
    id: |x| x,
    part: None,
    raise: None,
};

/// Drive a seeded stream through both: observes with a path withheld one
/// time in four (so paths arrive late, often while the file is still
/// windowed) under a front end that names a file now one way, now
/// another; batched forgets; a restore from the kernel's image a third of
/// the way in.
pub fn run(mut cfg: FarmerConfig, seed: u64, s: Stream) -> Lockstep {
    const STEPS: usize = 1200;
    let mut both = Lockstep::new(cfg.clone(), format!("seed {seed}"));
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15 ^ seed);
    for step in 0..STEPS {
        let raise = s.raise.filter(|&(at, _)| at == step);
        if let Some((_, cap)) = raise {
            cfg.max_successors = cap;
        }
        if step == STEPS / 3 || raise.is_some() {
            both.restore(cfg.clone());
        }
        let (a, b, k) = (rng.next(s.files), rng.next(s.files), rng.next(8));
        if rng.next(40) == 0 {
            // A duplicate, a likely edge pair (`a`, `b`: victims that are
            // each other's successors), a neighbour and a file never seen.
            let victims = [a, b, a, (a + 1 + k) % s.files, s.files + k];
            both.forget(&victims.map(|v| FileId::new((s.id)(v))));
        } else {
            // A small id range keeps repeats inside the window (A B A C)
            // and the nodes at their cap.
            let r = rng.request((s.id)(a));
            let path = path_of(a, rng.next(2)).filter(|_| rng.next(4) != 0);
            both.observe(r, path.as_ref(), s.part);
        }
    }
    both
}
