//! Equal event-index phase segmentation, shared by the simulators.
//!
//! Phase-shifting scenarios are reported over `num_phases` equal
//! event-index segments so adaptation and post-shift recovery are visible
//! instead of averaged away. The segmentation rule lives here — one
//! definition for the cache simulator (`farmer-prefetch::simulate`), the
//! MDS replay (`farmer-mds::replay`) and their online variants — because
//! the naive `ceil(len / num_phases)` step gets the *count* wrong on
//! short traces: a 5-event run asked for 4 phases strides by 2 and reports
//! only 3 segments, and the requested/actual mismatch silently corrupts
//! per-phase comparisons between cells.
//!
//! **The rule.** A run of `len` events asked to report `requested` phases
//! is cut into exactly
//!
//! ```text
//! segments = min(max(requested, 1), max(len, 1))
//! ```
//!
//! balanced segments: segment `k` covers event indices
//! `[k·len/segments, (k+1)·len/segments)` (integer division), so every
//! segment holds `⌊len/segments⌋` or `⌈len/segments⌉` events and no
//! segment is empty unless the trace itself is empty (an empty trace
//! reports one all-zero segment). When `len ≥ requested` the caller gets
//! exactly the number of phases it asked for; shorter traces degrade to
//! one phase per event rather than fabricating empty segments.

/// Number of segments a run of `len` events reports when `requested`
/// phases are asked for: `min(max(requested, 1), max(len, 1))`.
pub fn phase_count(len: usize, requested: usize) -> usize {
    requested.max(1).min(len.max(1))
}

/// Exclusive end index of segment `k` (0-based) of `segments` balanced
/// segments over `len` events.
///
/// Monotone in `k`, with `phase_end(len, s, s - 1) == len`. Callers
/// obtain `segments` from [`phase_count`]; `k < segments` is required.
///
/// # Panics
/// Panics if `segments` is zero or `k >= segments`.
pub fn phase_end(len: usize, segments: usize, k: usize) -> usize {
    assert!(segments > 0, "segments must be positive");
    assert!(k < segments, "segment index {k} out of range ({segments})");
    // u128 keeps the product exact for any realistic trace length.
    ((k as u128 + 1) * len as u128 / segments as u128) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_is_min_of_request_and_length() {
        assert_eq!(phase_count(100, 4), 4);
        assert_eq!(phase_count(5, 4), 4);
        assert_eq!(phase_count(2, 5), 2, "short trace: one phase per event");
        assert_eq!(phase_count(0, 5), 1, "empty trace: one zero segment");
        assert_eq!(phase_count(0, 1), 1);
        assert_eq!(phase_count(7, 0), 1, "requested=0 normalizes to 1");
    }

    #[test]
    fn segments_are_balanced_and_cover_the_run() {
        for len in [1usize, 2, 5, 7, 16, 100, 101] {
            for requested in [1usize, 2, 3, 4, 5, 8] {
                let segs = phase_count(len, requested);
                let mut start = 0usize;
                for k in 0..segs {
                    let end = phase_end(len, segs, k);
                    assert!(end > start, "empty segment {k} for len={len}");
                    let size = end - start;
                    assert!(
                        size == len / segs || size == len.div_ceil(segs),
                        "unbalanced segment {k} ({size}) for len={len} segs={segs}"
                    );
                    start = end;
                }
                assert_eq!(start, len, "segments must cover the run exactly");
            }
        }
    }

    #[test]
    fn five_events_four_phases_reports_four_segments() {
        // The ceil-step bug: a step of 2 over 5 events yields 3 segments.
        let segs = phase_count(5, 4);
        assert_eq!(segs, 4);
        let bounds: Vec<usize> = (0..segs).map(|k| phase_end(5, segs, k)).collect();
        assert_eq!(bounds, vec![1, 2, 3, 5]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn segment_index_must_be_in_range() {
        let _ = phase_end(10, 4, 4);
    }
}
