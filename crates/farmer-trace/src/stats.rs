//! Successor-probability statistics (paper §2.2, Figure 1).
//!
//! The paper quantifies how much each semantic attribute is associated with
//! file correlations: "we keep track of access sequences for different
//! semantic attributes separately, and then compute the probability of
//! inter-file accesses within these different sequences". Concretely, for a
//! chosen attribute the trace is partitioned into substreams by attribute
//! value (e.g. one substream per user), and within each substream we measure
//! first-order successor predictability — the probability that the observed
//! successor of a file matches the historically most frequent successor of
//! that file. If an attribute is genuinely associated with correlations, its
//! substreams are more self-predictable than the raw interleaved stream
//! ("none"), which the paper reports as the lowest bar in every trace. On
//! the synthetic presets that holds on INS, RES and HP, but not on LLNL,
//! whose per-process substreams (`pid`) are less predictable than the raw
//! stream.

use crate::event::TraceEvent;
use crate::hash::FxHashMap;
use crate::trace::Trace;

/// An attribute (or none) used to partition a trace into substreams.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamFilter {
    /// No partitioning: the raw interleaved stream.
    None,
    /// One substream per user id.
    User,
    /// One substream per process id.
    Process,
    /// One substream per host id.
    Host,
    /// One substream per top-level project directory (requires paths).
    /// For `/home/u3/proj-1/...` the key is the first two components.
    Path,
    /// One substream per device id (the locality signal INS/RES carry).
    Dev,
}

impl StreamFilter {
    /// Filters applicable to a given trace (Path requires path info).
    pub fn applicable(trace: &Trace) -> Vec<StreamFilter> {
        let mut v = vec![
            StreamFilter::None,
            StreamFilter::User,
            StreamFilter::Process,
            StreamFilter::Host,
        ];
        if trace.family.has_paths() {
            v.push(StreamFilter::Path);
        } else {
            v.push(StreamFilter::Dev);
        }
        v
    }

    /// Display label used in Figure 1 outputs.
    pub fn label(self) -> &'static str {
        match self {
            StreamFilter::None => "none",
            StreamFilter::User => "uid",
            StreamFilter::Process => "pid",
            StreamFilter::Host => "host",
            StreamFilter::Path => "path",
            StreamFilter::Dev => "dev",
        }
    }

    /// Substream key for an event under this filter.
    fn key(self, trace: &Trace, e: &TraceEvent) -> u64 {
        match self {
            StreamFilter::None => 0,
            StreamFilter::User => 1 | ((e.uid.raw() as u64) << 8),
            StreamFilter::Process => 2 | ((e.pid.raw() as u64) << 8),
            StreamFilter::Host => 3 | ((e.host.raw() as u64) << 8),
            StreamFilter::Dev => 4 | ((e.dev.raw() as u64) << 8),
            StreamFilter::Path => {
                let comps = trace.path_of(e.file).map(|p| p.components()).unwrap_or(&[]);
                let a = comps.first().copied().unwrap_or(u32::MAX) as u64;
                let b = comps.get(1).copied().unwrap_or(u32::MAX) as u64;
                5 | (a << 8) | (b << 36)
            }
        }
    }
}

/// Result of one Figure 1 measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuccessorStats {
    /// Which filter produced this row.
    pub filter: StreamFilter,
    /// Number of (predecessor → successor) transitions measured.
    pub transitions: u64,
    /// Fraction of transitions where the successor matched the most
    /// frequent historical successor of the predecessor — the paper's
    /// "probability of inter-file access".
    pub probability: f64,
}

/// Measure successor predictability for one filter over a trace.
///
/// The estimate is *online*: the predictor for each file is the most
/// frequent successor seen so far within the substream, matching how a
/// mining algorithm would experience the trace.
pub fn successor_probability(trace: &Trace, filter: StreamFilter) -> SuccessorStats {
    // Per-substream: last file seen.
    let mut last_in_stream: FxHashMap<u64, u32> = FxHashMap::default();
    // Per (substream-scoped predecessor): successor counts and current mode.
    struct Pred {
        counts: FxHashMap<u32, u32>,
        mode: u32,
        mode_count: u32,
    }
    let mut preds: FxHashMap<(u64, u32), Pred> = FxHashMap::default();

    let mut transitions = 0u64;
    let mut correct = 0u64;

    for e in &trace.events {
        let key = filter.key(trace, e);
        let file = e.file.raw();
        if let Some(&prev) = last_in_stream.get(&key) {
            if prev != file {
                transitions += 1;
                let p = preds.entry((key, prev)).or_insert_with(|| Pred {
                    counts: FxHashMap::default(),
                    mode: u32::MAX,
                    mode_count: 0,
                });
                if p.mode == file {
                    correct += 1;
                }
                let c = p.counts.entry(file).or_insert(0);
                *c += 1;
                if *c > p.mode_count {
                    p.mode_count = *c;
                    p.mode = file;
                }
            }
        }
        last_in_stream.insert(key, file);
    }

    SuccessorStats {
        filter,
        transitions,
        probability: if transitions == 0 {
            0.0
        } else {
            correct as f64 / transitions as f64
        },
    }
}

/// Compute Figure 1's full row set for one trace: every applicable filter.
pub fn figure1_rows(trace: &Trace) -> Vec<SuccessorStats> {
    StreamFilter::applicable(trace)
        .into_iter()
        .map(|f| successor_probability(trace, f))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{FileId, HostId, ProcId, UserId};
    use crate::trace::{FileMeta, Trace, TraceFamily};
    use crate::workload::WorkloadSpec;
    use crate::DevId;

    /// Build a toy trace: two processes each repeating their own 2-file
    /// cycle, perfectly interleaved. Per-process streams are perfectly
    /// predictable; the merged stream is not.
    fn interleaved_toy() -> Trace {
        let mut t = Trace::empty(TraceFamily::Ins);
        for _ in 0..4 {
            t.files.push(FileMeta {
                path: None,
                dev: DevId::new(0),
                size: 0,
                read_only: true,
            });
        }
        // P1: 0 1 0 1 ..., P2: 2 3 2 3 ..., interleaved in a scheduler-like
        // pseudo-random order so the *merged* stream is unpredictable even
        // though each per-process stream is a perfect cycle.
        let mut pos = [0u32; 2];
        let mut state = 0x9e3779b97f4a7c15u64;
        for seq in 0..200u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let which = ((state >> 33) & 1) as usize;
            let pid = which as u32 + 1;
            let base = which as u32 * 2;
            let file = base + (pos[which] % 2);
            pos[which] += 1;
            t.events.push(TraceEvent {
                seq,
                timestamp_us: seq,
                op: crate::Op::Open,
                file: FileId::new(file),
                dev: DevId::new(0),
                uid: UserId::new(pid),
                pid: ProcId::new(pid),
                host: HostId::new(0),
                app: TraceEvent::NO_APP,
                bytes: 0,
            });
        }
        t.num_users = 3;
        t.num_hosts = 1;
        t
    }

    #[test]
    fn per_process_streams_are_more_predictable() {
        let t = interleaved_toy();
        let none = successor_probability(&t, StreamFilter::None);
        let pid = successor_probability(&t, StreamFilter::Process);
        assert!(pid.probability > none.probability);
        // The per-process cycles are perfectly predictable after warmup.
        assert!(
            pid.probability > 0.9,
            "pid predictability {}",
            pid.probability
        );
    }

    #[test]
    fn none_filter_still_counts_transitions() {
        let t = interleaved_toy();
        let s = successor_probability(&t, StreamFilter::None);
        assert!(s.transitions > 0);
        assert!(s.probability >= 0.0 && s.probability <= 1.0);
    }

    #[test]
    fn empty_trace_yields_zero() {
        let t = Trace::empty(TraceFamily::Ins);
        let s = successor_probability(&t, StreamFilter::None);
        assert_eq!(s.transitions, 0);
        assert_eq!(s.probability, 0.0);
    }

    #[test]
    fn applicable_filters_respect_path_availability() {
        let hp = WorkloadSpec::hp().scaled(0.005).generate();
        let ins = WorkloadSpec::ins().scaled(0.01).generate();
        assert!(StreamFilter::applicable(&hp).contains(&StreamFilter::Path));
        assert!(!StreamFilter::applicable(&ins).contains(&StreamFilter::Path));
        assert!(StreamFilter::applicable(&ins).contains(&StreamFilter::Dev));
    }

    #[test]
    fn figure1_shape_none_is_lowest_on_synthetic_traces() {
        // The paper's third observation: with no attribute filter the
        // probability is the lowest. Check on small INS, RES and HP traces
        // (not LLNL: its `pid` substreams fall below `none`).
        for spec in [WorkloadSpec::ins(), WorkloadSpec::res(), WorkloadSpec::hp()] {
            let t = spec.scaled(0.05).generate();
            let rows = figure1_rows(&t);
            let none = rows[0];
            assert_eq!(none.filter, StreamFilter::None);
            for r in &rows[1..] {
                assert!(
                    r.probability > none.probability,
                    "{:?}: {:?} {} is not above none {}",
                    t.family,
                    r.filter,
                    r.probability,
                    none.probability
                );
            }
        }
    }

    #[test]
    fn self_transitions_are_ignored() {
        // Repeated access to the same file is not an inter-file transition.
        let mut t = Trace::empty(TraceFamily::Ins);
        t.files.push(FileMeta {
            path: None,
            dev: DevId::new(0),
            size: 0,
            read_only: true,
        });
        for i in 0..10 {
            t.events.push(TraceEvent::synthetic(
                i,
                FileId::new(0),
                UserId::new(0),
                ProcId::new(1),
                HostId::new(0),
            ));
        }
        let s = successor_probability(&t, StreamFilter::None);
        assert_eq!(s.transitions, 0);
    }
}
