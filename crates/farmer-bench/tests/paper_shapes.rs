//! The paper's qualitative results, asserted as tests.
//!
//! These pin the *shapes* the reproduction must preserve (who wins, where,
//! and in what order), at a reduced-but-meaningful trace scale. All inputs
//! are seeded, so these tests are deterministic. Every rule is judged over
//! the reference model's paper cells ([`paper_cells`]) by the same
//! [`paper_shapes`] rules `eval_matrix --check` applies at full scale:
//! the comparison grid, of the sweeps only the HP cells the sweep rules
//! read, and the entries of Figure 1, the ablations and the §4.1 cluster.

use std::process::Command;
use std::sync::OnceLock;

use farmer_bench::evalmatrix::{paper_cells, sweep_cell, trace_for, Cell, PAPER_PREDICTORS};
use farmer_bench::refmodel::paper_shapes;
use farmer_core::{AttrCombo, AttrKind, FarmerConfig, PathMode};
use farmer_trace::TraceFamily;

const SCALE: f64 = 0.35;

/// The paper grid, simulated once for every test that reads it.
fn grid() -> &'static [Cell] {
    static CELLS: OnceLock<Vec<Cell>> = OnceLock::new();
    CELLS.get_or_init(|| {
        let cells = paper_cells(SCALE, &["fig7"]);
        assert_eq!(cells.len(), TraceFamily::ALL.len() * PAPER_PREDICTORS.len());
        cells
    })
}

/// The HP sweep cells the sweep rules read besides the default (the
/// grid's), simulated once.
fn sweep() -> &'static [Cell] {
    static CELLS: OnceLock<Vec<Cell>> = OnceLock::new();
    CELLS.get_or_init(|| {
        let hp = || FarmerConfig::for_family(TraceFamily::Hp);
        let process = AttrCombo::EMPTY.with(AttrKind::Process);
        let configs = [
            hp().with_p(0.0),
            hp().with_p(1.0),
            hp().with_max_strength(1.0),
            hp().with_combo(process),
            hp().with_path_mode(PathMode::Dpa),
        ];
        let trace = trace_for(TraceFamily::Hp, SCALE);
        configs
            .map(|c| sweep_cell(TraceFamily::Hp, &trace, &c))
            .into()
    })
}

/// Figure 1's entries, and HP's ablation and §4.1 cluster entries (with
/// the grid cells they read), simulated once.
fn entries() -> &'static [Cell] {
    static CELLS: OnceLock<Vec<Cell>> = OnceLock::new();
    CELLS.get_or_init(|| {
        let cells = paper_cells(SCALE, &["fig1", "ablations", "cluster"]);
        // Every entry an entry rule reads is there: no rule passes for
        // want of one.
        let count = |mode: &str| cells.iter().filter(|c| c.mode.starts_with(mode)).count();
        let counts = ["fig1", "servers=", "layout", "p=0 vs Nexus"].map(count);
        assert_eq!(counts, [4, 14, 1, 1]);
        cells
    })
}

/// The grid and the sweep's cells. `sweep_first` runs (or waits for) the
/// sweep before the grid: the first sweep test runs the grid, and the
/// next one, on the other test thread, runs the sweep meanwhile.
fn with_sweep(sweep_first: bool) -> Vec<Cell> {
    let cells = if sweep_first {
        [sweep(), grid()].concat()
    } else {
        [grid(), sweep()].concat()
    };
    // Every cell a sweep rule reads is there: no rule passes for want of one.
    let modes: Vec<&str> = sweep().iter().map(|c| c.mode.as_str()).collect();
    assert_eq!(modes, ["p=0", "p=1", "ms=1", "combo={Process}", "path=DPA"]);
    cells
}

/// The inversions over `cells` of the shape rule whose messages start with
/// `rule`.
fn inversions(rule: &str, cells: &[Cell]) -> Vec<String> {
    paper_shapes(cells)
        .into_iter()
        .filter(|v| v.starts_with(rule))
        .collect()
}

/// Figure 7 / §5.3: FPA achieves the highest hit ratio on every trace.
#[test]
fn fig7_fpa_has_highest_hit_ratio_everywhere() {
    let found = inversions("Fig. 7:", grid());
    assert!(found.is_empty(), "{found:#?}");
}

/// §5.3: the FPA-over-Nexus improvement is largest on HP, because only HP
/// carries full path information (LLNL also carries paths; the paper's
/// "best among all traces" sentence compares HP with INS and RES).
#[test]
fn fig7_hp_improvement_is_largest() {
    let found = inversions("Fig. 7 gap:", grid());
    assert!(found.is_empty(), "{found:#?}");
}

/// Table 3: FARMER's prefetching accuracy clearly exceeds Nexus's on HP
/// (paper: 64% vs 43%).
#[test]
fn table3_fpa_accuracy_beats_nexus() {
    let found = inversions("Table 3:", grid());
    assert!(found.is_empty(), "{found:#?}");
}

/// Figure 3 / §5.2.1: the mixed weight p = 0.7 beats both pure-frequency
/// (p = 0, the Nexus reduction) and pure-semantics (p = 1) on HP.
#[test]
fn fig3_mixed_weight_wins_on_hp() {
    let found = inversions("Fig. 3:", &with_sweep(false));
    assert!(found.is_empty(), "{found:#?}");
}

/// Figure 8: FPA gives the lowest average response time on LLNL, RES, HP.
#[test]
fn fig8_fpa_lowest_response_time() {
    let found = inversions("Fig. 8:", grid());
    assert!(found.is_empty(), "{found:#?}");
}

/// Figures 7 and 8: Nexus, the prefetching comparator, is no worse than
/// plain LRU — on hit ratio everywhere, on response where Figure 8 plots.
#[test]
fn nexus_no_worse_than_lru() {
    let found = inversions("Nexus vs LRU:", grid());
    assert!(found.is_empty(), "{found:#?}");
}

/// Figure 6 / §5.2.3: pushing `max_strength` toward 1 (filtering valid
/// correlations away) degrades response time relative to the 0.4 default.
#[test]
fn fig6_overfiltering_hurts() {
    let found = inversions("Fig. 6:", &with_sweep(true));
    assert!(found.is_empty(), "{found:#?}");
}

/// Figure 1 / §2.2: the unfiltered stream has the lowest successor
/// predictability — below every attribute filter — on INS, RES and HP
/// (on LLNL `pid` falls below it).
#[test]
fn fig1_no_attribute_is_least_predictable() {
    let found = inversions("Fig. 1:", entries());
    assert!(found.is_empty(), "{found:#?}");
}

/// §4.1 / Kumar's queueing model: LRU's response falls as HP's metadata
/// servers double under hash and volume partitioning, and under volume
/// partitioning FARMER's stays below LRU's at every server count.
#[test]
fn cluster_response_falls_as_servers_are_added() {
    let found = inversions("§4.1:", entries());
    assert!(found.is_empty(), "{found:#?}");
}

/// §4.2: laying out FARMER's correlated groups together saves seeks on
/// HP's data reads.
#[test]
fn grouped_layout_saves_seeks() {
    let found = inversions("§4.2:", entries());
    assert!(found.is_empty(), "{found:#?}");
}

/// §7's reduction: FARMER at p = 0 agrees with Nexus's top successor on
/// most sampled files.
#[test]
fn reduction_p0_agrees_with_nexus() {
    let found = inversions("p = 0:", entries());
    assert!(found.is_empty(), "{found:#?}");
}

/// Table 4: INS's memory footprint is the smallest — the ordering the
/// paper's space-overhead table exhibits.
#[test]
fn table4_footprint_ordering() {
    let found = inversions("Table 4:", grid());
    assert!(found.is_empty(), "{found:#?}");
}

/// §7: restricting FARMER's similarity to the process attribute alone
/// reduces it to a PBS-like predictor — it still works, but the full
/// combination is at least as good.
#[test]
fn reduction_single_attribute_is_weaker() {
    let found = inversions("Table 5:", &with_sweep(true));
    assert!(found.is_empty(), "{found:#?}");
}

/// §3.2.1: the paper selects IPA because DPA's per-component items drown
/// the other attributes; on HP, IPA's hit ratio is at least DPA's.
#[test]
fn ipa_no_worse_than_dpa() {
    let found = inversions("IPA vs DPA:", &with_sweep(true));
    assert!(found.is_empty(), "{found:#?}");
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
