//! Acceptance bands for the `serve_throughput` benchmark (the serving
//! tier's read-scaling and ingest-under-load legs).
//!
//! The hard claims the tier makes — wait-free readers, allocation-free
//! query hot path, lock-free ingest — are asserted unconditionally by the
//! bin. The *scaling* claims depend on physics: N readers can only
//! aggregate ~N× a single reader when N cores exist to run them. Rather
//! than bake in a band that silently fails on small hosts (or, worse,
//! passes vacuously because nobody runs it there), the bands here adapt
//! to the measured core count and the emitted record carries the core
//! count so any reading of the numbers starts from the host's actual
//! parallelism.

/// Minimum acceptable aggregate read throughput of `readers` concurrent
/// readers, as a multiple of the single-reader aggregate.
///
/// With enough cores the tier must scale: `min(readers, cores) / 2` keeps
/// half of ideal linear scaling as the floor (readers share the snapshot
/// `Arc` wait-free, but caches, the allocator-free hot loop and SMT all
/// eat into linearity). With one core the same formula degrades to the
/// honest single-core claim: concurrency must not *collapse* throughput —
/// N time-sliced readers keep at least half the single-reader aggregate.
pub fn read_scaling_floor(readers: usize, cores: usize) -> f64 {
    (readers.min(cores) as f64 / 2.0).max(0.5)
}

/// Minimum acceptable ingest rate under concurrent duty-cycled readers,
/// as a fraction of the unloaded ingest rate. Readers in the mixed leg
/// are rate-limited (query bursts between sleeps, the metadata-server
/// pattern of query traffic) precisely so this band is about *isolation*
/// — readers must not stall the miner — and not about raw core count.
pub const INGEST_UNDER_LOAD_FLOOR: f64 = 0.5;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_floor_tracks_cores() {
        // Plenty of cores: half of linear.
        assert_eq!(read_scaling_floor(4, 32), 2.0);
        assert_eq!(read_scaling_floor(16, 32), 8.0);
        // Fewer cores than readers: cores bound the expectation.
        assert_eq!(read_scaling_floor(16, 4), 2.0);
        // Single core: no-collapse floor, never below 0.5.
        assert_eq!(read_scaling_floor(1, 1), 0.5);
        assert_eq!(read_scaling_floor(4, 1), 0.5);
        assert_eq!(read_scaling_floor(16, 1), 0.5);
    }

    #[test]
    fn floors_are_sane_bands() {
        for readers in [1usize, 2, 4, 8, 16] {
            for cores in [1usize, 2, 4, 8, 64] {
                let f = read_scaling_floor(readers, cores);
                // The ingest floor doubles as the no-collapse floor, so it
                // bounds every scaling band from below too.
                assert!(f >= INGEST_UNDER_LOAD_FLOOR, "floor below no-collapse");
                assert!(f <= readers as f64, "floor above ideal linear scaling");
            }
        }
    }
}
