//! The paper's qualitative results, asserted as tests.
//!
//! These pin the *shapes* the reproduction must preserve (who wins, where,
//! and in what order), at a reduced-but-meaningful trace scale. All inputs
//! are seeded, so these tests are deterministic. Figure 7, Table 3,
//! Figure 8 and Table 4 are the reference model's paper grid
//! ([`paper_cells`]), judged by the same [`paper_shapes`] rules
//! `eval_matrix --check` applies at full scale. Figure 3, Figure 6 and
//! the single-attribute reduction read the grid's HP FARMER cell for the
//! default point and simulate only the other points they assert on.

use std::process::Command;
use std::sync::OnceLock;

use farmer_bench::evalmatrix::{paper_cell, paper_cells, Cell, PAPER_PREDICTORS};
use farmer_bench::experiments as ex;
use farmer_bench::refmodel::paper_shapes;
use farmer_core::{AttrCombo, AttrKind, FarmerConfig};
use farmer_mds::{replay, ReplayConfig};
use farmer_prefetch::{simulate, FpaPredictor, SimConfig};
use farmer_trace::stats::StreamFilter;
use farmer_trace::TraceFamily;

const SCALE: f64 = 0.35;

/// The paper grid, simulated once for every test that reads it.
fn grid() -> &'static [Cell] {
    static CELLS: OnceLock<Vec<Cell>> = OnceLock::new();
    CELLS.get_or_init(|| paper_cells(SCALE))
}

/// The inversions of the shape rule whose messages start with `rule`.
fn inversions(rule: &str) -> Vec<String> {
    assert_eq!(
        grid().len(),
        TraceFamily::ALL.len() * PAPER_PREDICTORS.len()
    );
    paper_shapes(grid())
        .into_iter()
        .filter(|v| v.starts_with(rule))
        .collect()
}

/// The grid's HP FARMER cell: the paper-default configuration's point of
/// every HP sweep.
fn hp_default() -> &'static Cell {
    paper_cell(grid(), TraceFamily::Hp, "FARMER").expect("HP FARMER cell")
}

/// Figure 7 / §5.3: FPA achieves the highest hit ratio on every trace.
#[test]
fn fig7_fpa_has_highest_hit_ratio_everywhere() {
    let found = inversions("Fig. 7:");
    assert!(found.is_empty(), "{found:#?}");
}

/// §5.3: the FPA-over-Nexus improvement is largest on HP, because only HP
/// carries full path information (LLNL also carries paths; the paper's
/// "best among all traces" sentence compares HP with INS and RES).
#[test]
fn fig7_hp_improvement_is_largest() {
    let found = inversions("Fig. 7 gap:");
    assert!(found.is_empty(), "{found:#?}");
}

/// Table 3: FARMER's prefetching accuracy clearly exceeds Nexus's on HP
/// (paper: 64% vs 43%).
#[test]
fn table3_fpa_accuracy_beats_nexus() {
    let found = inversions("Table 3:");
    assert!(found.is_empty(), "{found:#?}");
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
    let h07 = hp_default().hit_ratio;
    let h1 = hit_for(1.0);
    assert!(h07 > h0, "p=0.7 ({h07:.3}) must beat p=0 ({h0:.3})");
    assert!(h07 > h1, "p=0.7 ({h07:.3}) must beat p=1 ({h1:.3})");
}

/// Figure 8: FPA gives the lowest average response time on LLNL, RES, HP.
#[test]
fn fig8_fpa_lowest_response_time() {
    let found = inversions("Fig. 8:");
    assert!(found.is_empty(), "{found:#?}");
}

/// Figures 7 and 8: Nexus, the prefetching comparator, is no worse than
/// plain LRU — on hit ratio everywhere, on response where Figure 8 plots.
#[test]
fn nexus_no_worse_than_lru() {
    let found = inversions("Nexus vs LRU:");
    assert!(found.is_empty(), "{found:#?}");
}

/// Figure 6 / §5.2.3: pushing `max_strength` toward 1 (filtering valid
/// correlations away) degrades response time relative to the 0.4 default.
#[test]
fn fig6_overfiltering_hurts() {
    let trace = ex::trace_for(TraceFamily::Hp, SCALE);
    let cfg = ReplayConfig::for_family(TraceFamily::Hp);
    let fc = FarmerConfig::default().with_max_strength(1.0);
    let at_one = replay(&trace, Box::new(FpaPredictor::new(fc)), cfg).avg_response_ms();
    let at_default = hp_default().avg_response_ms;
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

/// Table 4: INS's memory footprint is the smallest — the ordering the
/// paper's space-overhead table exhibits.
#[test]
fn table4_footprint_ordering() {
    let found = inversions("Table 4:");
    assert!(found.is_empty(), "{found:#?}");
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
    let full = hp_default().hit_ratio;
    assert!(
        full >= restricted - 0.01,
        "full combo {full:.3} should not lose to process-only {restricted:.3}"
    );
}

/// `repro` checks nothing: `--check` and `--obs` stop it with exit 2 and
/// point at `eval_matrix --check`, instead of being parsed and ignored.
#[test]
fn repro_refuses_check_and_obs() {
    for flag in ["--check", "--obs"] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["0.01", "--only", "table2", flag])
            .output()
            .expect("run repro");
        assert_eq!(out.status.code(), Some(2), "repro {flag}");
        assert!(out.stdout.is_empty(), "repro {flag} ran a section");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("eval_matrix --check"), "{stderr}");
    }
}
