//! Classical file-prediction baselines (paper §6, "Related Work").
//!
//! * [`LruOnly`] — no prefetching at all; the cache's LRU replacement is the
//!   paper's second comparator.
//! * [`LastSuccessor`] — predict the successor observed most recently for
//!   the current file (Kroeger & Long).
//! * [`FirstSuccessor`] — predict the first successor ever observed.
//! * [`RecentPopularity`] — "best j of last k": predict the successor that
//!   appears at least `j` times among the last `k` observed successors
//!   (Amer et al.).
//! * [`Pbs`] — Program-Based Successors: Last Successor conditioned on the
//!   accessing program (Yeh, Long & Brandt).
//! * [`Puls`] — Program- and User-based Last Successor: conditioned on
//!   program and user.
//!
//! The FARMER paper observes (§7) that PBS/PULS are special cases of
//! FARMER's similarity computation restricted to the process or user
//! attribute; they are implemented independently here to serve as honest
//! baselines.

use std::collections::VecDeque;

use farmer_trace::hash::FxHashMap;
use farmer_trace::{FileId, Trace, TraceEvent};

use crate::predictor::Predictor;

/// No prefetching: the LRU-replacement comparator.
#[derive(Debug, Default)]
pub struct LruOnly;

impl Predictor for LruOnly {
    fn name(&self) -> &str {
        "LRU"
    }

    fn on_access_into(&mut self, _trace: &Trace, _event: &TraceEvent, out: &mut Vec<FileId>) {
        out.clear();
    }
}

/// Last Successor: remember, per file, the successor seen most recently in
/// the raw stream.
#[derive(Debug, Default)]
pub struct LastSuccessor {
    last_file: Option<u32>,
    successor: FxHashMap<u32, u32>,
}

impl Predictor for LastSuccessor {
    fn name(&self) -> &str {
        "LS"
    }

    fn on_access_into(&mut self, _trace: &Trace, event: &TraceEvent, out: &mut Vec<FileId>) {
        out.clear();
        let file = event.file.raw();
        if let Some(prev) = self.last_file {
            if prev != file {
                self.successor.insert(prev, file);
            }
        }
        self.last_file = Some(file);
        if let Some(&s) = self.successor.get(&file) {
            out.push(FileId::new(s));
        }
    }

    fn memory_bytes(&self) -> usize {
        self.successor.len() * 16
    }
}

/// First Successor: the first successor ever observed wins forever.
#[derive(Debug, Default)]
pub struct FirstSuccessor {
    last_file: Option<u32>,
    successor: FxHashMap<u32, u32>,
}

impl Predictor for FirstSuccessor {
    fn name(&self) -> &str {
        "FS"
    }

    fn on_access_into(&mut self, _trace: &Trace, event: &TraceEvent, out: &mut Vec<FileId>) {
        out.clear();
        let file = event.file.raw();
        if let Some(prev) = self.last_file {
            if prev != file {
                self.successor.entry(prev).or_insert(file);
            }
        }
        self.last_file = Some(file);
        if let Some(&s) = self.successor.get(&file) {
            out.push(FileId::new(s));
        }
    }

    fn memory_bytes(&self) -> usize {
        self.successor.len() * 16
    }
}

/// Recent Popularity ("best j of last k", Amer et al. IPCCC'02).
#[derive(Debug)]
pub struct RecentPopularity {
    j: usize,
    k: usize,
    last_file: Option<u32>,
    recent: FxHashMap<u32, VecDeque<u32>>,
}

impl RecentPopularity {
    /// Predict only when a successor appears ≥ `j` times in the last `k`.
    pub fn new(j: usize, k: usize) -> Self {
        assert!(j >= 1 && k >= j, "need 1 <= j <= k");
        RecentPopularity {
            j,
            k,
            last_file: None,
            recent: FxHashMap::default(),
        }
    }
}

impl Predictor for RecentPopularity {
    fn name(&self) -> &str {
        "RecentPop"
    }

    fn on_access_into(&mut self, _trace: &Trace, event: &TraceEvent, out: &mut Vec<FileId>) {
        out.clear();
        let file = event.file.raw();
        if let Some(prev) = self.last_file {
            if prev != file {
                let q = self.recent.entry(prev).or_default();
                q.push_back(file);
                while q.len() > self.k {
                    q.pop_front();
                }
            }
        }
        self.last_file = Some(file);

        let Some(q) = self.recent.get(&file) else {
            return;
        };
        // Majority vote over the last-k successors.
        let mut best: Option<(u32, usize)> = None;
        for &cand in q {
            let count = q.iter().filter(|&&x| x == cand).count();
            match best {
                Some((_, c)) if c >= count => {}
                _ => best = Some((cand, count)),
            }
        }
        if let Some((cand, count)) = best {
            if count >= self.j {
                out.push(FileId::new(cand));
            }
        }
    }

    fn memory_bytes(&self) -> usize {
        self.recent.len() * (16 + self.k * 4)
    }
}

/// Program-Based Successors: Last Successor within each program's stream.
#[derive(Debug, Default)]
pub struct Pbs {
    last_by_app: FxHashMap<u32, u32>,
    successor: FxHashMap<(u32, u32), u32>, // (app, file) -> successor
}

impl Predictor for Pbs {
    fn name(&self) -> &str {
        "PBS"
    }

    fn on_access_into(&mut self, _trace: &Trace, event: &TraceEvent, out: &mut Vec<FileId>) {
        out.clear();
        let file = event.file.raw();
        let app = event.app;
        if let Some(&prev) = self.last_by_app.get(&app) {
            if prev != file {
                self.successor.insert((app, prev), file);
            }
        }
        self.last_by_app.insert(app, file);
        if let Some(&s) = self.successor.get(&(app, file)) {
            out.push(FileId::new(s));
        }
    }

    fn memory_bytes(&self) -> usize {
        self.successor.len() * 20 + self.last_by_app.len() * 16
    }
}

/// Program- and User-based Last Successor.
#[derive(Debug, Default)]
pub struct Puls {
    last_by_key: FxHashMap<(u32, u32), u32>,
    successor: FxHashMap<(u32, u32, u32), u32>, // (app, uid, file) -> successor
}

impl Predictor for Puls {
    fn name(&self) -> &str {
        "PULS"
    }

    fn on_access_into(&mut self, _trace: &Trace, event: &TraceEvent, out: &mut Vec<FileId>) {
        out.clear();
        let file = event.file.raw();
        let key = (event.app, event.uid.raw());
        if let Some(&prev) = self.last_by_key.get(&key) {
            if prev != file {
                self.successor.insert((key.0, key.1, prev), file);
            }
        }
        self.last_by_key.insert(key, file);
        if let Some(&s) = self.successor.get(&(key.0, key.1, file)) {
            out.push(FileId::new(s));
        }
    }

    fn memory_bytes(&self) -> usize {
        self.successor.len() * 24 + self.last_by_key.len() * 20
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use farmer_trace::{HostId, ProcId, UserId, WorkloadSpec};

    fn ev(seq: u64, file: u32, app: u32, uid: u32) -> TraceEvent {
        let mut e = TraceEvent::synthetic(
            seq,
            FileId::new(file),
            UserId::new(uid),
            ProcId::new(1),
            HostId::new(0),
        );
        e.app = app;
        e
    }

    fn t() -> Trace {
        WorkloadSpec::ins().scaled(0.002).generate()
    }

    #[test]
    fn lru_only_never_prefetches() {
        let trace = t();
        let mut p = LruOnly;
        for e in trace.events.iter().take(100) {
            assert!(p.on_access(&trace, e).is_empty());
        }
    }

    #[test]
    fn last_successor_tracks_most_recent() {
        let trace = t();
        let mut p = LastSuccessor::default();
        p.on_access(&trace, &ev(0, 0, 0, 0));
        p.on_access(&trace, &ev(1, 1, 0, 0)); // 0 -> 1
        p.on_access(&trace, &ev(2, 0, 0, 0));
        p.on_access(&trace, &ev(3, 2, 0, 0)); // 0 -> 2 replaces 1
        let c = p.on_access(&trace, &ev(4, 0, 0, 0));
        assert_eq!(c, vec![FileId::new(2)]);
    }

    #[test]
    fn first_successor_never_updates() {
        let trace = t();
        let mut p = FirstSuccessor::default();
        p.on_access(&trace, &ev(0, 0, 0, 0));
        p.on_access(&trace, &ev(1, 1, 0, 0)); // 0 -> 1 sticks
        p.on_access(&trace, &ev(2, 0, 0, 0));
        p.on_access(&trace, &ev(3, 2, 0, 0)); // ignored
        let c = p.on_access(&trace, &ev(4, 0, 0, 0));
        assert_eq!(c, vec![FileId::new(1)]);
    }

    #[test]
    fn recent_popularity_requires_quorum() {
        let trace = t();
        let mut p = RecentPopularity::new(2, 4);
        // Successors of 0: 1, 2 -> no quorum yet.
        p.on_access(&trace, &ev(0, 0, 0, 0));
        p.on_access(&trace, &ev(1, 1, 0, 0));
        p.on_access(&trace, &ev(2, 0, 0, 0));
        p.on_access(&trace, &ev(3, 2, 0, 0));
        let c = p.on_access(&trace, &ev(4, 0, 0, 0));
        assert!(c.is_empty(), "no successor reached quorum");
        // Add a second "1": quorum reached.
        p.on_access(&trace, &ev(5, 1, 0, 0));
        let c = p.on_access(&trace, &ev(6, 0, 0, 0));
        assert_eq!(c, vec![FileId::new(1)]);
    }

    #[test]
    fn recent_popularity_window_slides() {
        let trace = t();
        let mut p = RecentPopularity::new(2, 2);
        // 0 -> 1, 0 -> 1 (quorum), then 0 -> 2, 0 -> 2 pushes the 1s out.
        for succ in [1u32, 1, 2, 2] {
            p.on_access(&trace, &ev(0, 0, 0, 0));
            p.on_access(&trace, &ev(0, succ, 0, 0));
        }
        let c = p.on_access(&trace, &ev(9, 0, 0, 0));
        assert_eq!(c, vec![FileId::new(2)]);
    }

    #[test]
    fn pbs_separates_programs() {
        let trace = t();
        let mut p = Pbs::default();
        // Program 1 sees 0 -> 1; program 2 sees 0 -> 2 (interleaved).
        p.on_access(&trace, &ev(0, 0, 1, 0));
        p.on_access(&trace, &ev(1, 0, 2, 0));
        p.on_access(&trace, &ev(2, 1, 1, 0));
        p.on_access(&trace, &ev(3, 2, 2, 0));
        let c1 = p.on_access(&trace, &ev(4, 0, 1, 0));
        let c2 = p.on_access(&trace, &ev(5, 0, 2, 0));
        assert_eq!(c1, vec![FileId::new(1)]);
        assert_eq!(c2, vec![FileId::new(2)]);
    }

    #[test]
    fn puls_separates_program_and_user() {
        let trace = t();
        let mut p = Puls::default();
        // Same program, different users with different habits.
        p.on_access(&trace, &ev(0, 0, 1, 10));
        p.on_access(&trace, &ev(1, 0, 1, 20));
        p.on_access(&trace, &ev(2, 1, 1, 10));
        p.on_access(&trace, &ev(3, 2, 1, 20));
        let c10 = p.on_access(&trace, &ev(4, 0, 1, 10));
        let c20 = p.on_access(&trace, &ev(5, 0, 1, 20));
        assert_eq!(c10, vec![FileId::new(1)]);
        assert_eq!(c20, vec![FileId::new(2)]);
    }

    #[test]
    #[should_panic(expected = "need 1 <= j <= k")]
    fn recent_popularity_validates_params() {
        let _ = RecentPopularity::new(3, 2);
    }
}
