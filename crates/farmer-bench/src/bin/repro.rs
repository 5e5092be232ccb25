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
//! multi-MDS scaling, §7 attribute regression). Figure 7, Table 3,
//! Figure 8 and Table 4 print from one run of the reference model's
//! paper grid ([`paper_cells`]), the cells `eval_matrix --check` pins
//! to the record and shape-checks. `--only <name>` runs a single section
//! ([`SECTIONS`]); an unknown name — or an unknown flag — exits 2 listing
//! the valid ones. `repro` checks nothing, so `--check` and `--obs` exit
//! 2 as well.

use std::sync::OnceLock;
use std::time::Instant;

use farmer_bench::evalmatrix::{paper_cell, paper_cells, Cell, PAPER_PREDICTORS};
use farmer_bench::experiments as ex;
use farmer_bench::format::{mb, ms, pct, BenchArgs, TextTable};
use farmer_bench::paper;
use farmer_bench::regression::FEATURE_LABELS;
use farmer_trace::TraceFamily;

/// One paper table/figure: its `--only` name, heading and body.
struct Section {
    name: &'static str,
    title: &'static str,
    run: fn(f64),
}

const fn sec(name: &'static str, title: &'static str, run: fn(f64)) -> Section {
    Section { name, title, run }
}

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

fn fig1(scale: f64) {
    for (family, rows) in ex::fig1(scale) {
        let cells: Vec<String> = rows
            .iter()
            .map(|r| format!("{}={}", r.filter.label(), pct(r.probability)))
            .collect();
        println!("  {:<5} {}", family.name(), cells.join("  "));
    }
    println!("  paper shape: `none` lowest in every trace");
}

fn table2(_scale: f64) {
    for (row, (_, dpa_ref, ipa_ref)) in ex::table2().iter().zip(paper::TABLE2) {
        println!(
            "  {:<9} DPA {:.4} (paper {:.4})   IPA {:.4} (paper {:.4})",
            row.pair, row.dpa, dpa_ref, row.ipa, ipa_ref
        );
    }
}

fn fig3(scale: f64) {
    let series = ex::fig3(scale);
    for family in TraceFamily::ALL {
        let best = ex::fig3_best_p(&series, family);
        for s in series.iter().filter(|s| s.family == family) {
            let pts: Vec<String> = s.points.iter().map(|&(_, h)| pct(h)).collect();
            println!("  {:<5} p={:<3} {}", family.name(), s.p, pts.join(" "));
        }
        println!(
            "  {:<5} best p = {best} (paper: {})",
            family.name(),
            paper::FIG3_BEST_P
        );
    }
}

fn table5(scale: f64) {
    for family in [TraceFamily::Hp, TraceFamily::Ins, TraceFamily::Res] {
        let rows = ex::table5(family, scale);
        let mut t = TextTable::new(&["combination", "hit ratio"]);
        for r in &rows {
            t.row(vec![r.combo.clone(), pct(r.hit_ratio)]);
        }
        println!("{} trace:\n{}", family.name(), t.render());
    }
}

fn fig6(scale: f64) {
    for (thr, resp) in ex::fig6(scale) {
        println!("  max_strength {thr:.1}  ->  {}", ms(resp));
    }
    println!(
        "  paper shape: flat below {}, rising above",
        paper::FIG6_KNEE
    );
}

/// The paper grid's cell of `family` served by `predictor`, the grid run
/// once per process.
fn grid(scale: f64, family: TraceFamily, predictor: &str) -> &'static Cell {
    static CELLS: OnceLock<Vec<Cell>> = OnceLock::new();
    let cells = CELLS.get_or_init(|| paper_cells(scale));
    paper_cell(cells, family, predictor).expect("the paper grid covers every family")
}

fn fig7(scale: f64) {
    for family in TraceFamily::ALL {
        let [lru, nexus, fpa] = PAPER_PREDICTORS.map(|p| grid(scale, family, p));
        println!(
            "  {:<5} LRU {}  Nexus {}  FPA {}  (FPA-Nexus {:+.1} pts; accuracies N {} / F {})",
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

fn table3(scale: f64) {
    let accuracy = |p| grid(scale, TraceFamily::Hp, p).prefetch_accuracy;
    println!(
        "  FARMER {} (paper {})   Nexus {} (paper {})",
        pct(accuracy("FARMER")),
        pct(paper::TABLE3_FARMER_ACCURACY),
        pct(accuracy("Nexus")),
        pct(paper::TABLE3_NEXUS_ACCURACY)
    );
}

fn fig8(scale: f64) {
    for family in paper::FIG8_FAMILIES {
        let [lru, nexus, fpa] = PAPER_PREDICTORS.map(|p| grid(scale, family, p).avg_response_ms);
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

fn table4(scale: f64) {
    for family in TraceFamily::ALL {
        let bytes = grid(scale, family, "FARMER").memory_bytes;
        let p = paper::TABLE4_SPACE_MB
            .iter()
            .find(|(n, _)| *n == family.name())
            .map(|(_, v)| *v)
            .unwrap_or(0.0);
        println!(
            "  {:<5} measured {} (paper, full-size trace: {p:.1}MB)",
            family.name(),
            mb(bytes)
        );
    }
}

fn ablations(scale: f64) {
    println!(
        "  FPA(p=0) vs Nexus top-successor agreement: {}",
        pct(ex::reduction_p0_matches_nexus(scale))
    );
    let (dpa, ipa) = ex::ablation_dpa_vs_ipa(scale);
    println!(
        "  DPA hit {} vs IPA hit {} (paper selects IPA)",
        pct(dpa),
        pct(ipa)
    );
    let windows: Vec<String> = ex::ablation_window(scale, &[1, 2, 3, 5, 8, 12])
        .iter()
        .map(|&(w, h)| format!("{w}={}", pct(h)))
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

fn cluster(scale: f64) {
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

fn regression(scale: f64) {
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
            "repro: --check and --obs are eval_matrix's; the paper grid (Figure 7, Table 3, \
             Figure 8, Table 4) is pinned and shape-checked by `eval_matrix --check`"
        );
        std::process::exit(2);
    }
    let BenchArgs { scale, only, .. } = args;
    let t0 = Instant::now();
    println!("FARMER reproduction suite (scale {scale})");
    for s in &SECTIONS {
        if only.is_none_or(|o| o == s.name) {
            section(s.title);
            (s.run)(scale);
        }
    }
    println!("\ncompleted in {:.1}s", t0.elapsed().as_secs_f64());
}
