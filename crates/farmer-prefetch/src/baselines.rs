//! Classical file-prediction baselines (paper §6, "Related Work").
//!
//! * [`LruOnly`] — no prefetching at all; the cache's LRU replacement is the
//!   paper's second comparator.
//! * [`LastSuccessor`] — predict the successor observed most recently for
//!   the current file (Kroeger & Long).

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
        p.on_access(&trace, &ev(0, 0));
        p.on_access(&trace, &ev(1, 1)); // 0 -> 1
        p.on_access(&trace, &ev(2, 0));
        p.on_access(&trace, &ev(3, 2)); // 0 -> 2 replaces 1
        let c = p.on_access(&trace, &ev(4, 0));
        assert_eq!(c, vec![FileId::new(2)]);
    }
}
