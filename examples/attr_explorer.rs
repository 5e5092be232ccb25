//! Explore which semantic-attribute combinations help on a given trace —
//! an interactive version of the paper's Table 5.
//!
//! ```text
//! cargo run --release --example attr_explorer              # HP
//! cargo run --release --example attr_explorer -- INS 0.5
//! ```

use farmer::prelude::*;

fn main() {
    let family = std::env::args()
        .nth(1)
        .and_then(|s| TraceFamily::from_name(&s))
        .unwrap_or(TraceFamily::Hp);
    let scale = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.5);

    let trace = WorkloadSpec::for_family(family).scaled(scale).generate();
    let base = if family.has_paths() {
        AttrCombo::HP_BASE
    } else {
        AttrCombo::INS_BASE
    };
    println!(
        "attribute sweep on {} ({} events); base attributes: {:?}\n",
        trace.label,
        trace.len(),
        base.map(|k| k.label())
    );

    let sim_cfg = SimConfig::for_family(family);
    let mut results: Vec<(String, f64, f64)> = AttrCombo::sweep(&base)
        .into_iter()
        .map(|combo| {
            let cfg = FarmerConfig::for_family(family).with_combo(combo);
            let mut fpa = FpaPredictor::new(cfg);
            let r = simulate(&trace, &mut fpa, sim_cfg);
            (combo.to_string(), r.hit_ratio(), r.prefetch_accuracy())
        })
        .collect();

    results.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("{:<36} {:>9} {:>9}", "combination", "hit", "accuracy");
    for (combo, hit, acc) in &results {
        println!("{combo:<36} {:>8.2}% {:>8.2}%", 100.0 * hit, 100.0 * acc);
    }
    let spread = 100.0 * (results.first().unwrap().1 - results.last().unwrap().1);
    println!(
        "\nspread across combinations: {spread:.1} points (paper reports 0.1-13 points);\n\
         the winning combination is the one to configure in FarmerConfig::combo."
    );
}
