//! Run the paper's experiments — the one-command reproduction.
//!
//! ```text
//! cargo run --release -p farmer-bench --bin repro                     # everything, full scale
//! cargo run --release -p farmer-bench --bin repro -- 0.2              # smoke run
//! cargo run --release -p farmer-bench --bin repro -- 0.2 --only fig7  # one table/figure
//! ```
//!
//! For each paper table/figure, prints the measured values with the
//! paper's reference numbers ([`farmer_bench::paper`]) where the paper
//! reports them, then the two experiments the paper only sketches (§4.1
//! multi-MDS scaling, §7 attribute regression). Figures 3, 6, 7, 8,
//! Tables 3, 4, 5 and the ablations print from the reference model's paper
//! cells ([`paper_cells`]: its grid and the [`sweep`] table), the cells
//! `eval_matrix --check` pins to the record and shape-checks; each cell
//! the chosen sections read runs once. `--only <name>` runs a single
//! section ([`SECTIONS`]) and only its cells; an unknown name — or an
//! unknown flag — exits 2 listing the valid ones. `repro` checks nothing,
//! so `--check` and `--obs` exit 2 as well.

use std::time::Instant;

use farmer_bench::evalmatrix::{
    paper_cell, paper_cells, sweep, sweep_mode, Cell, PAPER_PREDICTORS,
};
use farmer_bench::experiments as ex;
use farmer_bench::format::{mb, ms, pct, BenchArgs, TextTable};
use farmer_bench::paper;
use farmer_bench::refmodel::TABLE5_ALLOWANCE;
use farmer_bench::regression::FEATURE_LABELS;
use farmer_core::FarmerConfig;
use farmer_trace::TraceFamily;

/// One paper table/figure: its `--only` name, heading and body (which
/// reads the scale and the paper cells).
struct Section {
    name: &'static str,
    title: &'static str,
    run: fn(f64, &[Cell]),
}

const fn sec(name: &'static str, title: &'static str, run: fn(f64, &[Cell])) -> Section {
    Section { name, title, run }
}

/// The sections read off the paper's comparison grid.
const GRID_SECTIONS: [&str; 4] = ["fig7", "table3", "fig8", "table4"];

/// Every section, in run order.
const SECTIONS: [Section; 12] = [
    sec(
        "fig1",
        "Figure 1: inter-file access probability by attribute filter",
        fig1,
    ),
    sec(
        "table2",
        "Table 2: DPA vs IPA worked example (exact)",
        table2,
    ),
    sec(
        "fig3",
        "Figure 3: hit ratio vs max_strength for p in {0, 0.3, 0.7, 1}",
        fig3,
    ),
    sec(
        "table5",
        "Table 5: hit ratio per attribute combination",
        table5,
    ),
    sec("fig6", "Figure 6: avg response vs max_strength (HP)", fig6),
    sec("fig7", "Figure 7: cache hit ratio comparison", fig7),
    sec("table3", "Table 3: prefetching accuracy (HP)", table3),
    sec(
        "fig8",
        "Figure 8: average response time (LLNL, RES, HP)",
        fig8,
    ),
    sec("table4", "Table 4: space overhead", table4),
    sec("ablations", "Ablations", ablations),
    sec(
        "cluster",
        "Section 4.1: multi-MDS scaling (HP), hash vs volume partitioning",
        cluster,
    ),
    sec(
        "regression",
        "Section 7: attribute regression per trace family",
        regression,
    ),
];

fn fig1(scale: f64, _: &[Cell]) {
    for (family, rows) in ex::fig1(scale) {
        let cells: Vec<String> = rows
            .iter()
            .map(|r| format!("{}={}", r.filter.label(), pct(r.probability)))
            .collect();
        println!("  {:<5} {}", family.name(), cells.join("  "));
    }
    println!("  paper shape: `none` lowest in every trace");
}

fn table2(_: f64, _: &[Cell]) {
    for (row, (_, dpa_ref, ipa_ref)) in ex::table2().iter().zip(paper::TABLE2) {
        println!(
            "  {:<9} DPA {:.4} (paper {:.4})   IPA {:.4} (paper {:.4})",
            row.pair, row.dpa, dpa_ref, row.ipa, ipa_ref
        );
    }
}

/// FARMER's cell under `config` on `family`'s preset.
fn farmer<'a>(cells: &'a [Cell], family: TraceFamily, config: &FarmerConfig) -> &'a Cell {
    let key = (family.name(), &*sweep_mode(family, config), "FARMER");
    paper_cell(cells, key).expect("the section's sweep cells ran")
}

/// `family`'s entry in one of [`paper`]'s per-trace tables.
fn paper_value(table: &[(&str, f64)], family: TraceFamily) -> Option<f64> {
    let entry = table.iter().find(|(name, _)| *name == family.name());
    entry.map(|(_, v)| *v)
}

fn fig3(_: f64, cells: &[Cell]) {
    for of_family in sweep("fig3").chunk_by(|a, b| a.0 == b.0) {
        let (family, name) = (of_family[0].0, of_family[0].0.name());
        let hit = |config| farmer(cells, family, config).hit_ratio;
        for row in of_family.chunk_by(|a, b| a.1.p == b.1.p) {
            let pts: Vec<String> = row.iter().map(|(_, c)| pct(hit(c))).collect();
            println!("  {name:<5} p={:<3} {}", row[0].1.p, pts.join(" "));
        }
        // The winning weight at the threshold the system runs with.
        let operating = FarmerConfig::for_family(family).max_strength;
        let at_operating = of_family
            .iter()
            .filter(|(_, c)| c.max_strength == operating);
        let best = at_operating.max_by(|(_, a), (_, b)| hit(a).total_cmp(&hit(b)));
        let best = best.expect("Figure 3 plots the operating threshold").1.p;
        println!(
            "  {name:<5} best p = {best} (paper: {})",
            paper::FIG3_BEST_P
        );
    }
}

fn table5(_: f64, cells: &[Cell]) {
    for points in sweep("table5").chunk_by(|a, b| a.0 == b.0) {
        let family = points[0].0;
        let mut t = TextTable::new(&["combination", "hit ratio", "paper"]);
        for (_, config) in points {
            let hit = pct(farmer(cells, family, config).hit_ratio);
            let mut row = vec![config.combo.to_string(), hit];
            // The paper reports the full combination, the family's default.
            if *config == FarmerConfig::for_family(family) {
                row.extend(paper_value(&paper::TABLE5_FULL_COMBO, family).map(pct));
            }
            t.row(row);
        }
        println!("{} trace:\n{}", family.name(), t.render());
        if family == TraceFamily::Hp {
            let full = farmer(cells, family, &FarmerConfig::for_family(family)).hit_ratio;
            let process = paper_cell(cells, ("HP", "combo={Process}", "FARMER"));
            let margin = full - process.expect("Table 5 runs {Process}").hit_ratio;
            println!(
                "  rule: full >= {{Process}} - {TABLE5_ALLOWANCE}; margin {:+.2} pts, {:+.2} pts with the allowance",
                100.0 * margin,
                100.0 * (margin + TABLE5_ALLOWANCE)
            );
        }
    }
}

fn fig6(_: f64, cells: &[Cell]) {
    let (mut lowest, mut at) = (f64::INFINITY, 0.0);
    for (family, c) in sweep("fig6") {
        let response = farmer(cells, family, &c).avg_response_ms;
        println!("  max_strength {:.1}  ->  {}", c.max_strength, ms(response));
        if response < lowest {
            (lowest, at) = (response, c.max_strength);
        }
    }
    let knee = paper::FIG6_KNEE;
    let lowest = ms(lowest);
    println!(
        "  paper shape: flat below {knee}, rising above; measured: lowest {lowest} at {at:.1}"
    );
}

/// The paper grid's cell of `family` served by `predictor`.
fn grid<'a>(cells: &'a [Cell], family: TraceFamily, predictor: &str) -> &'a Cell {
    let key = (family.name(), "self", predictor);
    paper_cell(cells, key).expect("the paper grid covers every family")
}

fn fig7(_: f64, cells: &[Cell]) {
    for family in TraceFamily::ALL {
        let [lru, nexus, fpa] = PAPER_PREDICTORS.map(|p| grid(cells, family, p));
        let paper_gap = paper_value(&paper::FIG7_IMPROVEMENT_PTS, family)
            .map_or(String::new(), |pts| format!(", paper {pts:+.1}"));
        println!(
            "  {:<5} LRU {}  Nexus {}  FPA {}  (FPA-Nexus {:+.1} pts{paper_gap}; accuracies N {} / F {})",
            family.name(),
            pct(lru.hit_ratio),
            pct(nexus.hit_ratio),
            pct(fpa.hit_ratio),
            100.0 * (fpa.hit_ratio - nexus.hit_ratio),
            pct(nexus.prefetch_accuracy),
            pct(fpa.prefetch_accuracy),
        );
    }
}

fn table3(_: f64, cells: &[Cell]) {
    let accuracy = |p| grid(cells, TraceFamily::Hp, p).prefetch_accuracy;
    println!(
        "  FARMER {} (paper {})   Nexus {} (paper {})",
        pct(accuracy("FARMER")),
        pct(paper::TABLE3_FARMER_ACCURACY),
        pct(accuracy("Nexus")),
        pct(paper::TABLE3_NEXUS_ACCURACY)
    );
}

fn fig8(_: f64, cells: &[Cell]) {
    for family in paper::FIG8_FAMILIES {
        let [lru, nexus, fpa] = PAPER_PREDICTORS.map(|p| grid(cells, family, p).avg_response_ms);
        println!(
            "  {:<5} LRU {}  Nexus {}  FPA {}  (vs Nexus {:.0}%, vs LRU {:.0}%)",
            family.name(),
            ms(lru),
            ms(nexus),
            ms(fpa),
            100.0 * (1.0 - fpa / nexus),
            100.0 * (1.0 - fpa / lru),
        );
    }
    println!(
        "  paper: up to {:.0}% over Nexus, {:.0}% over LRU",
        100.0 * paper::FIG8_VS_NEXUS_MAX,
        100.0 * paper::FIG8_VS_LRU_MAX
    );
}

fn table4(_: f64, cells: &[Cell]) {
    for family in TraceFamily::ALL {
        let bytes = grid(cells, family, "FARMER").memory_bytes;
        let p = paper_value(&paper::TABLE4_SPACE_MB, family).unwrap_or(0.0);
        println!(
            "  {:<5} measured {} (paper, full-size trace: {p:.1}MB)",
            family.name(),
            mb(bytes)
        );
    }
}

fn ablations(scale: f64, cells: &[Cell]) {
    println!(
        "  FPA(p=0) vs Nexus top-successor agreement: {}",
        pct(ex::reduction_p0_matches_nexus(scale))
    );
    let hit = |config| pct(farmer(cells, TraceFamily::Hp, config).hit_ratio);
    let points = sweep("ablations");
    // DPA and IPA, then the windows.
    let (paths, windows) = points.split_at(2);
    println!(
        "  DPA hit {} vs IPA hit {} (paper selects IPA)",
        hit(&paths[0].1),
        hit(&paths[1].1)
    );
    let windows: Vec<String> = windows
        .iter()
        .map(|(_, c)| format!("{}={}", c.window, hit(c)))
        .collect();
    println!("  look-ahead window (HP hit ratio): {}", windows.join("  "));
    let (scattered, grouped) = ex::layout_experiment(scale);
    println!(
        "  layout: {} -> {} seeks ({:.0}% saved)",
        scattered.seeks,
        grouped.seeks,
        100.0 * (1.0 - grouped.seeks as f64 / scattered.seeks as f64)
    );
}

fn cluster(scale: f64, _: &[Cell]) {
    let mut t = TextTable::new(&[
        "servers",
        "partition",
        "predictor",
        "avg resp",
        "hit",
        "imbalance",
    ]);
    for (servers, partition, predictor, r) in ex::cluster_scaling(scale) {
        t.row(vec![
            servers.to_string(),
            format!("{partition:?}"),
            predictor.to_string(),
            ms(r.avg_response_ms()),
            pct(r.hit_ratio()),
            format!("{:.2}", r.imbalance()),
        ]);
    }
    println!("{}", t.render());
    println!(
        "expected shape: response falls as servers are added. Note the\n\
         partitioning interaction: hash sharding fragments access sequences,\n\
         so FARMER's edge shrinks with shard count, while Dev (volume)\n\
         partitioning keeps correlated files on one server and preserves the\n\
         full prefetching win at the cost of load imbalance."
    );
}

fn regression(scale: f64, _: &[Cell]) {
    let mut header = vec!["trace"];
    header.extend(FEATURE_LABELS);
    header.extend(["R^2", "samples"]);
    let mut t = TextTable::new(&header);
    for (family, fit) in ex::regression(scale) {
        let mut row = vec![family.name().to_string()];
        row.extend(fit.coefficients.iter().map(|c| format!("{c:+.3}")));
        row.push(format!("{:.3}", fit.r_squared));
        row.push(fit.samples.to_string());
        t.row(row);
        println!(
            "  {:<5} strongest attribute: {}",
            family.name(),
            fit.strongest_attribute()
        );
    }
    println!("\n{}", t.render());
    println!(
        "reading: positive coefficients mean the attribute's match predicts\n\
         genuine co-access — the regression-based version of Table 5's finding\n\
         that attribute choice materially changes mining quality."
    );
}

fn section(title: &str) {
    println!(
        "\n=== {title} {}",
        "=".repeat(66usize.saturating_sub(title.len()))
    );
}

fn main() {
    // No quick profile here: `--quick` leaves the scale at 1.0.
    let args = BenchArgs::parse(1.0, &SECTIONS.map(|s| s.name));
    if args.check || args.obs {
        eprintln!(
            "repro: --check and --obs are eval_matrix's; the paper's cells (its grid and its \
             sweeps) are pinned and shape-checked by `eval_matrix --check`"
        );
        std::process::exit(2);
    }
    let BenchArgs { scale, only, .. } = args;
    let t0 = Instant::now();
    println!("FARMER reproduction suite (scale {scale})");
    let chosen: Vec<&Section> = SECTIONS
        .iter()
        .filter(|s| only.is_none_or(|o| o == s.name))
        .collect();
    let grid = chosen.iter().any(|s| GRID_SECTIONS.contains(&s.name));
    let points: Vec<_> = chosen.iter().flat_map(|s| sweep(s.name)).collect();
    let cells = paper_cells(scale, grid, &points);
    for s in chosen {
        section(s.title);
        (s.run)(scale, &cells);
    }
    println!("\ncompleted in {:.1}s", t0.elapsed().as_secs_f64());
}
