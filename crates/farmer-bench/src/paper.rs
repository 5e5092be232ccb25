//! Reference values transcribed from the paper, printed alongside measured
//! results so every run is a paper-vs-measured comparison.

use farmer_trace::TraceFamily;

/// Table 3 — prefetching accuracy on the HP trace.
pub const TABLE3_FARMER_ACCURACY: f64 = 0.6404;
/// Table 3 — Nexus accuracy on the HP trace.
pub const TABLE3_NEXUS_ACCURACY: f64 = 0.4304;

/// Table 4 — space overhead in MB at `max_strength = 0.4`
/// (LLNL, INS, RES, HP). The paper's traces are orders of magnitude larger
/// than the synthetic ones, so only the *ordering* is expected to hold.
pub const TABLE4_SPACE_MB: [(&str, f64); 4] =
    [("LLNL", 98.4), ("INS", 1.4), ("RES", 2.5), ("HP", 9.8)];

/// §5.3 — FPA's cache-hit-ratio improvement over Nexus, percentage points,
/// per trace (HP is "the best among all traces").
pub const FIG7_IMPROVEMENT_PTS: [(&str, f64); 3] = [("HP", 13.0), ("INS", 7.8), ("RES", 3.1)];

/// Figure 8 — the traces the response-time comparison reports.
pub const FIG8_FAMILIES: [TraceFamily; 3] = [TraceFamily::Llnl, TraceFamily::Res, TraceFamily::Hp];

/// §5.3/§7 — response-time improvements: FPA over Nexus up to 24 %, over
/// LRU up to 35 %.
pub const FIG8_VS_NEXUS_MAX: f64 = 0.24;
/// See [`FIG8_VS_NEXUS_MAX`].
pub const FIG8_VS_LRU_MAX: f64 = 0.35;

/// §5.2.1 — the weight sweep's winner: p = 0.7.
pub const FIG3_BEST_P: f64 = 0.7;

/// §5.2.3 — the paper's claim: response time is stable below
/// `max_strength ≈ 0.4` and degrades above it. The measured curve does not
/// have that shape (it falls steeply up to 0.4 and is lowest at 0.5–0.6),
/// so `repro` prints its minimum beside the claim.
pub const FIG6_KNEE: f64 = 0.4;

/// Table 2 — the DPA/IPA worked example (paths from Table 1).
/// `(pair, dpa, ipa)` where pair indexes (A,B), (A,C), (B,C).
pub const TABLE2: [(&str, f64, f64); 3] = [
    ("sim(A,B)", 5.0 / 7.0, 2.75 / 4.0),
    ("sim(A,C)", 1.0 / 7.0, 0.25 / 4.0),
    ("sim(B,C)", 1.0 / 7.0, 0.25 / 4.0),
];

/// Table 5 (excerpt) — cache hit ratios for the full attribute combination,
/// per trace, as reported in the paper.
pub const TABLE5_FULL_COMBO: [(&str, f64); 3] =
    [("HP", 0.493087), ("INS", 0.938839), ("RES", 0.438533)];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(
        clippy::assertions_on_constants,
        reason = "sanity-checks transcribed paper values"
    )]
    fn constants_sane() {
        assert!(TABLE3_FARMER_ACCURACY > TABLE3_NEXUS_ACCURACY);
        assert!(FIG8_VS_LRU_MAX > FIG8_VS_NEXUS_MAX);
        assert_eq!(TABLE4_SPACE_MB.len(), 4);
        for (_, dpa, ipa) in TABLE2 {
            assert!((0.0..=1.0).contains(&dpa));
            assert!((0.0..=1.0).contains(&ipa));
        }
    }

    #[test]
    fn hp_improvement_is_largest() {
        let hp = FIG7_IMPROVEMENT_PTS[0].1;
        for (_, v) in &FIG7_IMPROVEMENT_PTS[1..] {
            assert!(hp > *v);
        }
    }
}
