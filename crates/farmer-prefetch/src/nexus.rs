//! Nexus — the weighted-graph metadata prefetcher (Gu et al., CCGRID 2006),
//! reimplemented from its published description as the paper's primary
//! comparator.
//!
//! Nexus builds a relationship graph from the *raw interleaved* access
//! stream: for each access, edges are inserted from every file in a
//! look-ahead history window to the new file, with linearly decremented
//! weights (the assignment FARMER borrows for its frequency term). On each
//! access it aggressively prefetches the top-`k` successors by accumulated
//! edge weight — no semantic filtering and no validity threshold, which is
//! exactly what the FARMER paper identifies as its weakness: "it attempts
//! to decrease the response time by increasing the amount of prefetching,
//! which reduces the prefetching accuracy and generates significant cache
//! pollution" (§6).

use std::collections::VecDeque;

use farmer_trace::hash::FxHashMap;
use farmer_trace::{FileId, Trace, TraceEvent};

use crate::predictor::Predictor;

/// One successor edge in the Nexus relationship graph.
#[derive(Debug, Clone, Copy)]
struct Edge {
    to: u32,
    weight: f64,
}

/// The Nexus predictor.
#[derive(Debug)]
pub struct NexusPredictor {
    /// Look-ahead window length.
    window: usize,
    /// Weight decrement per window distance (1.0, 0.9, 0.8, … by default).
    decrement: f64,
    /// Prefetch group size.
    group_limit: usize,
    /// Per-node successor cap, as in the published implementation.
    max_successors: usize,
    history: VecDeque<u32>,
    edges: FxHashMap<u32, Vec<Edge>>,
    /// Reusable candidate-ranking scratch (no per-access allocation).
    scratch: Vec<Edge>,
}

impl NexusPredictor {
    /// The configuration used throughout the paper's comparison: window 5,
    /// decrement 0.1, group size 4.
    pub fn paper_default() -> Self {
        Self::new(5, 0.1, 4, 16)
    }

    /// Fully parameterized constructor.
    pub fn new(window: usize, decrement: f64, group_limit: usize, max_successors: usize) -> Self {
        NexusPredictor {
            window: window.max(1),
            decrement,
            group_limit,
            max_successors: max_successors.max(1),
            history: VecDeque::new(),
            edges: FxHashMap::default(),
            scratch: Vec::new(),
        }
    }

    /// Accumulated weight of edge `from → to` (the tests' oracle).
    #[cfg(test)]
    fn edge_weight(&self, from: FileId, to: FileId) -> f64 {
        self.edges
            .get(&from.raw())
            .and_then(|v| v.iter().find(|e| e.to == to.raw()))
            .map_or(0.0, |e| e.weight)
    }

    /// Successors of `from` ordered by decreasing weight.
    pub fn successors(&self, from: FileId) -> Vec<(FileId, f64)> {
        let mut ranked = Vec::new();
        rank_successors(&self.edges, from.raw(), &mut ranked);
        ranked
            .into_iter()
            .map(|e| (FileId::new(e.to), e.weight))
            .collect()
    }

    fn update(&mut self, file: u32) {
        for (i, &pred) in self.history.iter().rev().enumerate() {
            if pred == file {
                continue;
            }
            let w = (1.0 - self.decrement * i as f64).max(0.0);
            if w <= 0.0 {
                break;
            }
            let list = self.edges.entry(pred).or_default();
            if let Some(e) = list.iter_mut().find(|e| e.to == file) {
                e.weight += w;
            } else if list.len() < self.max_successors {
                list.push(Edge {
                    to: file,
                    weight: w,
                });
            } else {
                // Replace the weakest successor if the newcomer beats it.
                #[expect(
                    clippy::expect_used,
                    reason = "reached only when the successor list is at cap, and cap is validated \
                              >= 1"
                )]
                let (idx, min_w) = list
                    .iter()
                    .enumerate()
                    .map(|(i, e)| (i, e.weight))
                    .min_by(|a, b| a.1.total_cmp(&b.1))
                    .expect("cap >= 1");
                if w > min_w {
                    list[idx] = Edge {
                        to: file,
                        weight: w,
                    };
                }
            }
        }
        self.history.push_back(file);
        while self.history.len() > self.window {
            self.history.pop_front();
        }
    }
}

/// The one Nexus ranking rule — decreasing accumulated weight, ties by
/// ascending file id — shared by the prediction path and the
/// [`NexusPredictor::successors`] probe so the two can never diverge.
/// Clears and fills `out` with `from`'s edges in rank order.
fn rank_successors(edges: &FxHashMap<u32, Vec<Edge>>, from: u32, out: &mut Vec<Edge>) {
    out.clear();
    if let Some(es) = edges.get(&from) {
        out.extend_from_slice(es);
        out.sort_by(|a, b| b.weight.total_cmp(&a.weight).then_with(|| a.to.cmp(&b.to)));
    }
}

impl Predictor for NexusPredictor {
    fn name(&self) -> &str {
        "Nexus"
    }

    fn on_access_into(&mut self, _trace: &Trace, event: &TraceEvent, out: &mut Vec<FileId>) {
        self.update(event.file.raw());
        out.clear();
        let mut scratch = std::mem::take(&mut self.scratch);
        rank_successors(&self.edges, event.file.raw(), &mut scratch);
        out.extend(
            scratch
                .iter()
                .take(self.group_limit)
                .map(|e| FileId::new(e.to)),
        );
        self.scratch = scratch;
    }

    fn memory_bytes(&self) -> usize {
        self.edges
            .values()
            .map(|v| v.capacity() * std::mem::size_of::<Edge>() + 16)
            .sum::<usize>()
            + self.history.capacity() * 4
            + self.scratch.capacity() * std::mem::size_of::<Edge>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use farmer_trace::WorkloadSpec;

    fn ev(seq: u64, file: u32) -> TraceEvent {
        TraceEvent::synthetic(
            seq,
            FileId::new(file),
            farmer_trace::UserId::new(0),
            farmer_trace::ProcId::new(1),
            farmer_trace::HostId::new(0),
        )
    }

    fn toy_trace() -> Trace {
        // Only used to satisfy the Predictor signature; Nexus ignores it.
        WorkloadSpec::ins().scaled(0.002).generate()
    }

    #[test]
    fn abcd_weights_are_linearly_decremented() {
        let t = toy_trace();
        let mut n = NexusPredictor::paper_default();
        for (i, f) in [0u32, 1, 2, 3].iter().enumerate() {
            n.on_access(&t, &ev(i as u64, *f));
        }
        assert!((n.edge_weight(FileId::new(0), FileId::new(1)) - 1.0).abs() < 1e-12);
        assert!((n.edge_weight(FileId::new(0), FileId::new(2)) - 0.9).abs() < 1e-12);
        assert!((n.edge_weight(FileId::new(0), FileId::new(3)) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn prefetches_top_k_by_weight() {
        let t = toy_trace();
        let mut n = NexusPredictor::new(3, 0.1, 2, 16);
        // Train: 0 -> 1 often, 0 -> 2 sometimes, 0 -> 3 once.
        for _ in 0..5 {
            n.on_access(&t, &ev(0, 0));
            n.on_access(&t, &ev(1, 1));
        }
        for _ in 0..2 {
            n.on_access(&t, &ev(2, 0));
            n.on_access(&t, &ev(3, 2));
        }
        n.on_access(&t, &ev(4, 0));
        n.on_access(&t, &ev(5, 3));
        let cands = n.on_access(&t, &ev(6, 0));
        assert_eq!(cands.len(), 2);
        assert_eq!(cands[0], FileId::new(1));
        assert_eq!(cands[1], FileId::new(2));
    }

    #[test]
    fn no_threshold_prefetches_even_weak_edges() {
        let t = toy_trace();
        let mut n = NexusPredictor::paper_default();
        n.on_access(&t, &ev(0, 0));
        n.on_access(&t, &ev(1, 1)); // single weak observation
        let cands = n.on_access(&t, &ev(2, 0));
        assert_eq!(
            cands,
            vec![FileId::new(1)],
            "Nexus prefetches without filtering"
        );
    }

    #[test]
    fn successor_cap_respected() {
        let t = toy_trace();
        let mut n = NexusPredictor::new(2, 0.1, 10, 3);
        for i in 0..10u32 {
            n.on_access(&t, &ev((2 * i) as u64, 0));
            n.on_access(&t, &ev((2 * i + 1) as u64, 100 + i));
        }
        assert!(n.successors(FileId::new(0)).len() <= 3);
    }

    #[test]
    fn self_edges_ignored() {
        let t = toy_trace();
        let mut n = NexusPredictor::paper_default();
        n.on_access(&t, &ev(0, 7));
        n.on_access(&t, &ev(1, 7));
        assert!(n.successors(FileId::new(7)).is_empty());
    }

    #[test]
    fn memory_reported() {
        let t = WorkloadSpec::res().scaled(0.02).generate();
        let mut n = NexusPredictor::paper_default();
        for e in t.events.iter().take(3000) {
            n.on_access(&t, e);
        }
        assert!(n.memory_bytes() > 0);
    }
}
