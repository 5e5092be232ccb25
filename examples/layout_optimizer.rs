//! FARMER-enabled file-data layout (§4.2): group strongly correlated
//! read-only files so batched reads become sequential I/O.
//!
//! ```text
//! cargo run --release --example layout_optimizer
//! ```

use farmer::mds::layout::{plan_layout, replay_reads, LayoutConfig};
use farmer::mds::osd::OsdConfig;
use farmer::prelude::*;

fn main() {
    let trace = WorkloadSpec::hp().scaled(0.5).generate();
    println!(
        "planning data layout for {} ({} files)\n",
        trace.label,
        trace.num_files()
    );

    let farmer = Farmer::mine_trace(&trace, FarmerConfig::default());
    // The baseline does not depend on the threshold: one replay serves all.
    let scattered = replay_reads(&trace, None, OsdConfig::default());

    for min_degree in [0.2, 0.4, 0.6] {
        let layout = plan_layout(
            &farmer,
            &trace,
            LayoutConfig {
                min_degree,
                max_group: 8,
            },
        );
        let grouped = replay_reads(&trace, Some(&layout), OsdConfig::default());
        println!(
            "min_degree {min_degree:.1}: {} groups covering {} files; \
             seeks {} -> {} ({:.0}% saved), I/O busy {:.1}s -> {:.1}s",
            layout.num_groups(),
            layout.grouped_files(),
            scattered.seeks,
            grouped.seeks,
            100.0 * (1.0 - grouped.seeks as f64 / scattered.seeks as f64),
            scattered.busy_us as f64 / 1e6,
            grouped.busy_us as f64 / 1e6,
        );
    }
    println!(
        "\nonly read-only files are grouped (the paper's \"initial attempt\" rule),\n\
         so write-heavy files never complicate group maintenance."
    );
}
