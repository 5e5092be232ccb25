//! The no-prefetch baseline: [`LruOnly`] leaves the cache's LRU
//! replacement alone, the paper's second comparator.

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

#[cfg(test)]
mod tests {
    use super::*;
    use farmer_trace::WorkloadSpec;

    #[test]
    fn lru_only_never_prefetches() {
        let trace = WorkloadSpec::ins().scaled(0.002).generate();
        let mut p = LruOnly;
        for e in trace.events.iter().take(100) {
            assert!(p.on_access(&trace, e).is_empty());
        }
    }
}
