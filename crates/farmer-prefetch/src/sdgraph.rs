//! SD graph — the SEER-style Semantic Distance predictor (Kuenning, 1994),
//! cited by the paper as the access-sequence-only use of "semantic
//! distance" that FARMER generalizes (§3.2.1: "effectiveness of Semantic
//! Distance in SD graph is limited to only exploiting access sequence").
//!
//! SEER defines the semantic distance between two files as the number of
//! intervening file references between their accesses, and keeps a running
//! *average* distance per pair; small average distance ⇒ strong relation.
//! Prefetching pulls in the files with the smallest average distance.

use std::collections::VecDeque;

use farmer_trace::hash::FxHashMap;
use farmer_trace::{FileId, Trace, TraceEvent};

use crate::predictor::Predictor;

/// One tracked relation: accumulated distance and observation count.
#[derive(Debug, Clone, Copy, Default)]
struct Relation {
    sum_distance: u64,
    observations: u32,
}

/// The SD-graph predictor.
#[derive(Debug)]
pub struct SdGraph {
    window: usize,
    group_limit: usize,
    max_relations: usize,
    history: VecDeque<u32>,
    relations: FxHashMap<u32, FxHashMap<u32, Relation>>,
    /// Reusable candidate-ranking scratch (no per-access allocation).
    scratch: Vec<(u32, f64, u32)>,
}

impl SdGraph {
    /// SEER-style defaults: observation window 8, groups of 4.
    pub fn classic() -> Self {
        Self::new(8, 4, 16)
    }

    /// Fully parameterized constructor.
    pub fn new(window: usize, group_limit: usize, max_relations: usize) -> Self {
        assert!(window >= 1, "window must be positive");
        SdGraph {
            window,
            group_limit,
            max_relations: max_relations.max(1),
            history: VecDeque::new(),
            relations: FxHashMap::default(),
            scratch: Vec::new(),
        }
    }

    /// Average semantic distance of `to` after `from` (∞ if never seen;
    /// the tests' oracle).
    #[cfg(test)]
    fn avg_distance(&self, from: FileId, to: FileId) -> f64 {
        self.relations
            .get(&from.raw())
            .and_then(|m| m.get(&to.raw()))
            .filter(|r| r.observations > 0)
            .map(|r| r.sum_distance as f64 / r.observations as f64)
            .unwrap_or(f64::INFINITY)
    }

    fn update(&mut self, file: u32) {
        for (d, &pred) in self.history.iter().rev().enumerate() {
            if pred == file {
                continue;
            }
            let rels = self.relations.entry(pred).or_default();
            if rels.len() >= self.max_relations && !rels.contains_key(&file) {
                continue; // bounded state, SEER-style LRU-ish cap
            }
            let r = rels.entry(file).or_default();
            r.sum_distance += (d + 1) as u64;
            r.observations += 1;
        }
        self.history.push_back(file);
        while self.history.len() > self.window {
            self.history.pop_front();
        }
    }
}

impl Predictor for SdGraph {
    fn name(&self) -> &str {
        "SDGraph"
    }

    fn on_access_into(&mut self, _trace: &Trace, event: &TraceEvent, out: &mut Vec<FileId>) {
        self.update(event.file.raw());
        out.clear();
        let Some(rels) = self.relations.get(&event.file.raw()) else {
            return;
        };
        self.scratch.clear();
        self.scratch.extend(rels.iter().map(|(&f, r)| {
            (
                f,
                r.sum_distance as f64 / r.observations.max(1) as f64,
                r.observations,
            )
        }));
        // Closest average distance first; more observations break ties.
        self.scratch
            .sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| b.2.cmp(&a.2)));
        out.extend(
            self.scratch
                .iter()
                .take(self.group_limit)
                .map(|&(f, _, _)| FileId::new(f)),
        );
    }

    fn memory_bytes(&self) -> usize {
        self.relations
            .values()
            .map(|m| 16 + m.len() * 24)
            .sum::<usize>()
            + self.history.capacity() * 4
            + self.scratch.capacity() * 24
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use farmer_trace::{HostId, ProcId, UserId, WorkloadSpec};

    fn ev(seq: u64, file: u32) -> TraceEvent {
        TraceEvent::synthetic(
            seq,
            FileId::new(file),
            UserId::new(0),
            ProcId::new(1),
            HostId::new(0),
        )
    }

    fn t() -> Trace {
        WorkloadSpec::ins().scaled(0.002).generate()
    }

    #[test]
    fn distance_averages_gaps() {
        let trace = t();
        let mut g = SdGraph::new(4, 4, 16);
        // Sequence 0 1 and 0 2 1: distances of 1 after 0 are 1 and 2.
        for f in [0u32, 1] {
            g.on_access(&trace, &ev(0, f));
        }
        g.history.clear();
        for f in [0u32, 2, 1] {
            g.on_access(&trace, &ev(1, f));
        }
        assert!((g.avg_distance(FileId::new(0), FileId::new(1)) - 1.5).abs() < 1e-12);
        assert!((g.avg_distance(FileId::new(0), FileId::new(2)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn closer_files_rank_first() {
        // Window 2 keeps each round's distances clean of wraparound from
        // the previous cycle.
        let trace = t();
        let mut g = SdGraph::new(2, 4, 16);
        for _ in 0..3 {
            for f in [0u32, 5, 9] {
                g.on_access(&trace, &ev(0, f));
            }
        }
        let c = g.on_access(&trace, &ev(1, 0));
        assert_eq!(c[0], FileId::new(5), "distance-1 successor first");
        assert!((g.avg_distance(FileId::new(0), FileId::new(5)) - 1.0).abs() < 1e-12);
        assert!((g.avg_distance(FileId::new(0), FileId::new(9)) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn unknown_distance_is_infinite() {
        let g = SdGraph::classic();
        assert!(g.avg_distance(FileId::new(0), FileId::new(1)).is_infinite());
    }

    #[test]
    fn relation_cap_bounds_state() {
        let trace = t();
        let mut g = SdGraph::new(2, 4, 3);
        for i in 0..50u32 {
            g.on_access(&trace, &ev((2 * i) as u64, 0));
            g.on_access(&trace, &ev((2 * i + 1) as u64, 100 + i));
        }
        assert!(g.relations.get(&0).unwrap().len() <= 3);
    }

    #[test]
    fn loses_to_fpa_on_interleaved_trace() {
        // The FARMER paper's position (§3.2.1): SD-graph-style sequence-only
        // mining degrades under multi-process interleaving — its prefetches
        // are active but inaccurate, while FPA's semantic filter keeps the
        // hit ratio up. SD graph may even fall below plain LRU here, which
        // is the pollution effect the paper describes.
        use crate::fpa::FpaPredictor;
        use crate::sim::{simulate, SimConfig};
        let trace = WorkloadSpec::ins().scaled(0.2).generate();
        let cfg = SimConfig::for_family(trace.family);
        let sd = simulate(&trace, &mut SdGraph::classic(), cfg);
        let fpa = simulate(&trace, &mut FpaPredictor::for_trace(&trace), cfg);
        assert!(
            sd.stats.prefetches_issued > 0,
            "SD graph must actually prefetch"
        );
        assert!(
            fpa.hit_ratio() > sd.hit_ratio(),
            "FPA {:.3} must beat sequence-only SD graph {:.3}",
            fpa.hit_ratio(),
            sd.hit_ratio()
        );
        assert!(
            fpa.prefetch_accuracy() > sd.prefetch_accuracy(),
            "FPA accuracy {:.3} must beat SD graph accuracy {:.3}",
            fpa.prefetch_accuracy(),
            sd.prefetch_accuracy()
        );
    }
}
