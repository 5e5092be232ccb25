//! Full metadata-server simulation: FPA vs Nexus vs LRU on one trace
//! family, with the paper's dual priority queues and, on the miss path, a
//! page per level of the metadata table's B+-tree, whose height the
//! server computes from the namespace.
//!
//! ```text
//! cargo run --release --example mds_simulation            # HP by default
//! cargo run --release --example mds_simulation -- LLNL
//! cargo run --release --example mds_simulation -- RES 0.5   # half-size
//! ```

use farmer::prefetch::baselines::LruOnly;
use farmer::prelude::*;

fn main() {
    let family = std::env::args()
        .nth(1)
        .and_then(|s| TraceFamily::from_name(&s))
        .unwrap_or(TraceFamily::Hp);
    let scale = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);

    let trace = WorkloadSpec::for_family(family).scaled(scale).generate();
    println!(
        "replaying {} ({} events) through the MDS simulator\n",
        trace.label,
        trace.len()
    );

    let cfg = ReplayConfig::for_family(family);
    let runs: Vec<ReplayReport> = vec![
        replay(&trace, Box::new(LruOnly), cfg),
        replay(&trace, Box::new(NexusPredictor::paper_default()), cfg),
        replay(&trace, Box::new(FpaPredictor::for_trace(&trace)), cfg),
    ];

    for r in &runs {
        println!("{}", r.summary());
    }

    let lru = &runs[0];
    let fpa = &runs[2];
    println!(
        "\nFPA cuts average metadata latency by {:.0}% vs plain LRU \
         (p95: {:.2}ms -> {:.2}ms)",
        100.0 * (1.0 - fpa.avg_response_ms() / lru.avg_response_ms()),
        lru.latency.percentile_us(0.95) as f64 / 1000.0,
        fpa.latency.percentile_us(0.95) as f64 / 1000.0,
    );
    println!(
        "prefetch queue: {} serviced, {} dropped under load (demand requests always had priority)",
        fpa.counters.prefetches_serviced, fpa.counters.prefetches_dropped
    );
}
