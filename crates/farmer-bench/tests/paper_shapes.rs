//! The paper's qualitative results, asserted as tests.
//!
//! These pin the *shapes* the reproduction must preserve (who wins, where,
//! and in what order), at a reduced-but-meaningful trace scale. All inputs
//! are seeded, so these tests are deterministic. Where `repro` prints a
//! table or figure, the test reads the same `experiments` rows; Figure 3,
//! Figure 6 and the single-attribute reduction run only the few points
//! they assert on, since their `experiments` counterparts sweep many more.

use std::sync::OnceLock;

use farmer_bench::experiments::{self as ex, Fig7Row};
use farmer_core::{AttrCombo, AttrKind, FarmerConfig};
use farmer_mds::{replay, ReplayConfig};
use farmer_prefetch::{simulate, FpaPredictor, SimConfig};
use farmer_trace::stats::StreamFilter;
use farmer_trace::TraceFamily;

const SCALE: f64 = 0.35;

/// Figure 7's rows, simulated once for the three tests that read them.
fn fig7_rows() -> &'static [Fig7Row] {
    static ROWS: OnceLock<Vec<Fig7Row>> = OnceLock::new();
    ROWS.get_or_init(|| ex::fig7(SCALE))
}

/// Figure 7 / §5.3: FPA achieves the highest hit ratio on every trace.
#[test]
fn fig7_fpa_has_highest_hit_ratio_everywhere() {
    for row in fig7_rows() {
        let (family, lru, nexus, fpa) = (row.family, row.lru, row.nexus, row.fpa);
        assert!(
            fpa > nexus,
            "{family:?}: FPA {fpa:.3} must beat Nexus {nexus:.3}"
        );
        assert!(fpa > lru, "{family:?}: FPA {fpa:.3} must beat LRU {lru:.3}");
    }
}

/// §5.3: the FPA-over-Nexus improvement is largest on HP, because only HP
/// carries full path information.
#[test]
fn fig7_hp_improvement_is_largest() {
    let rows = fig7_rows();
    let hp = rows.iter().find(|r| r.family == TraceFamily::Hp).unwrap();
    let hp = hp.fpa - hp.nexus;
    for row in rows {
        let (family, gap) = (row.family, row.fpa - row.nexus);
        if family != TraceFamily::Hp && family != TraceFamily::Llnl {
            // LLNL also carries paths; the paper's "best among all traces"
            // sentence compares HP with INS and RES.
            assert!(hp > gap, "{family:?} gap {gap:.3} exceeds HP's {hp:.3}");
        }
    }
}

/// Table 3: FARMER's prefetching accuracy clearly exceeds Nexus's on HP.
#[test]
fn table3_fpa_accuracy_beats_nexus() {
    let hp = fig7_rows()
        .iter()
        .find(|r| r.family == TraceFamily::Hp)
        .unwrap();
    let (fpa, nexus) = (hp.fpa_accuracy, hp.nexus_accuracy);
    assert!(
        fpa > nexus * 1.2,
        "accuracy gap too small: FPA {fpa:.3} vs Nexus {nexus:.3} (paper: 64% vs 43%)"
    );
}

/// Figure 3 / §5.2.1: the mixed weight p = 0.7 beats both pure-frequency
/// (p = 0, the Nexus reduction) and pure-semantics (p = 1) on HP.
#[test]
fn fig3_mixed_weight_wins_on_hp() {
    let trace = ex::trace_for(TraceFamily::Hp, SCALE);
    let cfg = SimConfig::for_family(TraceFamily::Hp);
    let hit_for = |p: f64| {
        let fc = FarmerConfig::default().with_p(p);
        simulate(&trace, &mut FpaPredictor::new(fc), cfg).hit_ratio()
    };
    let h0 = hit_for(0.0);
    let h07 = hit_for(0.7);
    let h1 = hit_for(1.0);
    assert!(h07 > h0, "p=0.7 ({h07:.3}) must beat p=0 ({h0:.3})");
    assert!(h07 > h1, "p=0.7 ({h07:.3}) must beat p=1 ({h1:.3})");
}

/// Figure 8: FPA gives the lowest average response time on LLNL, RES, HP.
#[test]
fn fig8_fpa_lowest_response_time() {
    for row in ex::fig8(SCALE) {
        let (family, lru, nexus, fpa) = (row.family, row.lru_ms, row.nexus_ms, row.fpa_ms);
        assert!(
            fpa < nexus,
            "{family:?}: FPA {fpa:.3}ms !< Nexus {nexus:.3}ms"
        );
        assert!(fpa < lru, "{family:?}: FPA {fpa:.3}ms !< LRU {lru:.3}ms");
    }
}

/// Figure 6 / §5.2.3: pushing `max_strength` toward 1 (filtering valid
/// correlations away) degrades response time relative to the 0.4 default.
#[test]
fn fig6_overfiltering_hurts() {
    let trace = ex::trace_for(TraceFamily::Hp, SCALE);
    let cfg = ReplayConfig::for_family(TraceFamily::Hp);
    let resp = |thr: f64| {
        let fc = FarmerConfig::default().with_max_strength(thr);
        replay(&trace, Box::new(FpaPredictor::new(fc)), cfg).avg_response_ms()
    };
    let at_default = resp(0.4);
    let at_one = resp(1.0);
    assert!(
        at_one > at_default * 1.1,
        "threshold 1.0 ({at_one:.3}ms) must clearly exceed 0.4 ({at_default:.3}ms)"
    );
}

/// Figure 1 / §2.2: the unfiltered stream has the lowest successor
/// predictability in every trace.
#[test]
fn fig1_no_attribute_is_least_predictable() {
    for (family, rows) in ex::fig1(SCALE) {
        let none = rows
            .iter()
            .find(|r| r.filter == StreamFilter::None)
            .unwrap()
            .probability;
        let best = rows.iter().map(|r| r.probability).fold(0.0f64, f64::max);
        assert!(best > none, "{family:?}: some attribute must beat `none`");
    }
}

/// Table 4: LLNL's memory footprint dominates, INS's is the smallest —
/// the ordering the paper's space-overhead table exhibits.
#[test]
fn table4_footprint_ordering() {
    let sizes: std::collections::HashMap<_, _> = ex::table4(SCALE).into_iter().collect();
    assert!(sizes[&TraceFamily::Llnl] > sizes[&TraceFamily::Ins]);
    assert!(sizes[&TraceFamily::Hp] > sizes[&TraceFamily::Ins]);
    assert!(sizes[&TraceFamily::Res] > sizes[&TraceFamily::Ins]);
}

/// §7: restricting FARMER's similarity to the process attribute alone
/// reduces it to a PBS-like predictor — it still works, but the full
/// combination is at least as good.
#[test]
fn reduction_single_attribute_is_weaker() {
    let trace = ex::trace_for(TraceFamily::Hp, SCALE);
    let cfg = SimConfig::for_family(TraceFamily::Hp);
    let process_only = AttrCombo::EMPTY.with(AttrKind::Process);
    let restricted = simulate(
        &trace,
        &mut FpaPredictor::new(FarmerConfig::default().with_combo(process_only)),
        cfg,
    )
    .hit_ratio();
    let full = simulate(&trace, &mut FpaPredictor::for_trace(&trace), cfg).hit_ratio();
    assert!(
        full >= restricted - 0.01,
        "full combo {full:.3} should not lose to process-only {restricted:.3}"
    );
}
