//! The streaming subsystem end to end: an unbounded request stream mined
//! online by sharded workers under a hard memory budget, with consistent
//! snapshots refreshing a prefetcher mid-flight.
//!
//! ```text
//! cargo run --release --example streaming_miner
//! ```
//!
//! The demo routes several laps of an HP-style trace through a 4-shard
//! [`ShardedMiner`], takes a snapshot each lap (watch the state stay
//! bounded while events grow without bound), then shows the payoff:
//! a cache simulation where an FPA predictor following the cell the
//! snapshot was published into beats the same predictor starting cold.

use farmer::prelude::*;

fn main() {
    let trace = WorkloadSpec::hp().scaled(0.1).generate();
    let laps = 5;
    println!("== streaming ingestion: {laps} laps of {} ==", trace.label);

    let cfg = StreamConfig::default().with_shards(4).with_node_cap(1024);
    let cap = cfg.node_cap * cfg.num_shards;
    let mut miner = ShardedMiner::spawn(cfg);

    let mut stream = trace.stream();
    let mut last: Option<StreamSnapshot> = None;
    for lap in 1..=laps {
        for _ in 0..trace.len() {
            let e = stream.next().expect("stream is unbounded");
            miner.route_event(&trace, &e);
        }
        let snap = miner.snapshot();
        println!(
            "lap {lap}: events={:>7}  tracked={:>5} (cap {cap})  lists={:>5}  \
             evictions={:>6}  state={:.1} MiB",
            snap.events,
            snap.tracked_files,
            snap.num_lists(),
            snap.evictions,
            snap.state_bytes as f64 / (1024.0 * 1024.0),
        );
        assert!(snap.tracked_files <= cap, "memory budget violated");
        last = Some(snap);
    }
    let snap = last.expect("at least one lap ran");

    // Strongest mined correlations, resolved to paths where known.
    println!("\n== strongest streamed correlations ==");
    let mut heads: Vec<_> = snap
        .table
        .iter()
        .filter_map(|(owner, list)| list.first().map(|&c| (owner, c)))
        .collect();
    heads.sort_by(|a, b| b.1.degree.total_cmp(&a.1.degree));
    let render = |f: FileId| {
        trace
            .path_of(f)
            .map(|p| trace.paths.render(p))
            .unwrap_or_else(|| f.to_string())
    };
    for (owner, c) in heads.iter().take(5) {
        println!(
            "  {} -> {}  (degree {:.3})",
            render(*owner),
            render(c.file),
            c.degree
        );
    }

    // The payoff: publish the stream snapshot into a cell (one `Arc`
    // swap, no table copy), let an FPA predictor follow the cell, and
    // compare a cache simulation against the same predictor starting cold.
    println!("\n== prefetch with online refresh ==");
    let sim_cfg = SimConfig::for_family(trace.family);
    let mut cold = FpaPredictor::for_trace(&trace);
    let cold_report = simulate(&trace, &mut cold, sim_cfg);

    let (snap_lists, snap_events) = (snap.num_lists(), snap.events);
    let cell = std::sync::Arc::new(SnapshotCell::new());
    cell.install(std::sync::Arc::new(snap));
    let mut warmed = FpaPredictor::for_trace(&trace).following(&cell);
    let warm_report = simulate(&trace, &mut warmed, sim_cfg);

    println!(
        "  cold FPA (self-mining)      : hit ratio {:5.1}%",
        100.0 * cold_report.hit_ratio()
    );
    println!(
        "  FPA @ streamed snapshot     : hit ratio {:5.1}%",
        100.0 * warm_report.hit_ratio()
    );
    println!(
        "\nThe snapshot-served predictor starts with {} lists mined from {} \
         streamed events,\nwhile the cold predictor must re-learn them during \
         the run.",
        snap_lists, snap_events
    );
}
