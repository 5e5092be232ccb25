//! Quickstart: generate a trace, mine it, inspect correlations, prefetch.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use farmer::prelude::*;

fn main() {
    // 1. A synthetic HP-style trace (time-sharing server, full paths).
    let trace = WorkloadSpec::hp().scaled(0.2).generate();
    println!(
        "trace: {} ({} events, {} files)\n",
        trace.label,
        trace.len(),
        trace.num_files()
    );

    // 2. Mine it with the paper's default configuration
    //    (p = 0.7, max_strength = 0.4, IPA path handling).
    let farmer = Farmer::mine_trace(&trace, FarmerConfig::default());
    println!(
        "mined {} events -> {} graph nodes, {} edges, {:.1} KiB resident\n",
        farmer.observed(),
        farmer.graph().active_nodes(),
        farmer.graph().num_edges(),
        farmer.memory_bytes() as f64 / 1024.0
    );

    // 3. Inspect the Correlator List of a frequently accessed file.
    let hot = hottest_file(&trace);
    let list = farmer.correlators(hot);
    println!(
        "strongest correlations of {hot} ({}):",
        render_path(&trace, hot)
    );
    for c in list.top(5) {
        println!(
            "  -> {:<6} degree {:.3}   ({})",
            c.file.to_string(),
            c.degree,
            render_path(&trace, c.file)
        );
    }

    // 4. Use the model as a prefetcher and measure against plain LRU.
    let cfg = SimConfig::for_family(trace.family);
    let fpa = simulate(&trace, &mut FpaPredictor::for_trace(&trace), cfg);
    let lru = simulate(&trace, &mut farmer::prefetch::baselines::LruOnly, cfg);
    println!(
        "\nprefetching: FPA hit {:.1}% (accuracy {:.1}%) vs plain LRU hit {:.1}%",
        100.0 * fpa.hit_ratio(),
        100.0 * fpa.prefetch_accuracy(),
        100.0 * lru.hit_ratio()
    );
}

fn hottest_file(trace: &Trace) -> FileId {
    let mut counts = vec![0u32; trace.num_files()];
    for e in &trace.events {
        counts[e.file.index()] += 1;
    }
    // Prefer a hot file that has successors mined (skip pure-noise tools).
    FileId::new(
        counts
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .map(|(i, _)| i as u32)
            .unwrap_or(0),
    )
}

fn render_path(trace: &Trace, file: FileId) -> String {
    trace
        .path_of(file)
        .map(|p| trace.paths.render(p))
        .unwrap_or_else(|| "<no path>".into())
}
