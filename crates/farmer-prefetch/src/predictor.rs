//! The prefetch-predictor interface.

use farmer_trace::{FileId, Trace, TraceEvent};

/// A prefetching algorithm: observes the demand stream and proposes files
/// whose metadata should be staged into the cache.
///
/// [`Predictor::on_access_into`] is called once per metadata demand
/// request, *after* the cache has been probed for it. Implementations
/// update their internal model with the access and fill the caller's
/// buffer with prefetch candidates in priority order (strongest first).
/// The buffer is owned by the driver and reused across every access, so a
/// predictor that also avoids internal allocation serves the whole demand
/// stream allocation-free in steady state. The simulator truncates the
/// list to its configured prefetch limit, so implementations need not
/// bound it precisely.
pub trait Predictor {
    /// Short display name used in reports ("FARMER", "Nexus", "LRU", …).
    fn name(&self) -> &str;

    /// Observe a demand access; clear `out` and fill it with prefetch
    /// candidates, strongest first.
    fn on_access_into(&mut self, trace: &Trace, event: &TraceEvent, out: &mut Vec<FileId>);

    /// Allocating convenience wrapper around
    /// [`Predictor::on_access_into`] (tests, one-off probes — not the
    /// serving loop).
    fn on_access(&mut self, trace: &Trace, event: &TraceEvent) -> Vec<FileId> {
        let mut out = Vec::new();
        self.on_access_into(trace, event, &mut out);
        out
    }

    /// Approximate resident heap bytes of the predictor's state (Table 4).
    fn memory_bytes(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial predictor to pin the trait contract.
    struct Echo;
    impl Predictor for Echo {
        fn name(&self) -> &str {
            "echo"
        }
        fn on_access_into(&mut self, _trace: &Trace, event: &TraceEvent, out: &mut Vec<FileId>) {
            out.clear();
            out.push(event.file);
        }
    }

    #[test]
    fn trait_object_usable() {
        let trace = farmer_trace::WorkloadSpec::ins().scaled(0.01).generate();
        let mut p: Box<dyn Predictor> = Box::new(Echo);
        assert_eq!(p.name(), "echo");
        let c = p.on_access(&trace, &trace.events[0]);
        assert_eq!(c, vec![trace.events[0].file]);
        assert_eq!(p.memory_bytes(), 0);
    }

    #[test]
    fn into_variant_clears_stale_entries() {
        let trace = farmer_trace::WorkloadSpec::ins().scaled(0.01).generate();
        let mut p = Echo;
        let mut buf = vec![FileId::new(99); 8];
        p.on_access_into(&trace, &trace.events[0], &mut buf);
        assert_eq!(buf, vec![trace.events[0].file]);
    }
}
