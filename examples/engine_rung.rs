//! The mining kernel's quick rung and its bit-exactness hashes in one
//! command: a warm-up lap plus 1.2M INS / 410k HP events through a bare
//! [`Farmer`] (the core rung) and a default [`StreamMiner`] (the engine
//! rung: HP's 16.9k files over the 4 096-node cap, ≈ 54k evictions).
//!
//! ```text
//! cargo run --release --example engine_rung -- [--quick] [seed]
//! ```
//!
//! Per preset and rung it prints ns/event (fast quartile over 8 192-event
//! windows, the benchmark's own statistic — it reads within a few ns of
//! `core.observe_ns_per_event` / `engine.ingest_ns_per_event`), the update
//! mix per event after the warm-up lap, the median of five at-rest
//! `snapshot()` builds, a hash of every list published along the way, and
//! a hash of `export_state()`: four state hashes and two published-lists
//! hashes in all. A change to the kernel, the eviction sweep or the
//! publication build must leave all six as the parent prints them (build
//! this file against each tree; it uses nothing the parent lacks).
//! `--quick` runs a tenth of each trace under a 512-node cap — well under
//! a second, for CI: a smoke test that panics if the capped rung never
//! evicted.

use std::fmt::Write as _;
use std::hash::Hasher as _;
use std::time::Instant;

use farmer::core::graph::UpdateMix;
use farmer::prelude::*;

/// Events per timed window (the benchmark's `publish_every`).
const WINDOW: usize = 8192;

/// Hashes what is formatted into it, so a state image is hashed without
/// materialising its `Debug` text.
struct HashWriter(std::collections::hash_map::DefaultHasher);

impl std::fmt::Write for HashWriter {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.write(s.as_bytes());
        Ok(())
    }
}

fn hash_debug(value: &impl std::fmt::Debug) -> u64 {
    let mut w = HashWriter(Default::default());
    write!(w, "{value:?}").expect("hashing cannot fail");
    w.0.finish()
}

/// Feed `n` events to `sut` window by window; the fast-quartile ns/event
/// over the full windows, with `between` run (untimed) after each one.
fn drive<S>(
    stream: &mut ReplayStream<'_>,
    n: usize,
    sut: &mut S,
    mut feed: impl FnMut(&mut S, &TraceEvent),
    mut between: impl FnMut(&S, usize),
) -> f64 {
    let mut buf: Vec<TraceEvent> = Vec::with_capacity(WINDOW);
    let mut per_window: Vec<u64> = Vec::with_capacity(n / WINDOW);
    let mut left = n;
    while left > 0 {
        buf.clear();
        buf.extend(stream.by_ref().take(left.min(WINDOW)));
        let t = Instant::now();
        for e in &buf {
            feed(sut, e);
        }
        let ns = t.elapsed().as_nanos() as u64;
        if buf.len() == WINDOW {
            per_window.push(ns);
            between(sut, per_window.len());
        }
        left -= buf.len();
    }
    per_window.sort_unstable();
    per_window.get(per_window.len() / 4).copied().unwrap_or(0) as f64 / WINDOW as f64
}

fn print_mix(now: UpdateMix, warm: UpdateMix, n: usize) {
    let per = |f: fn(&UpdateMix) -> u64| (f(&now) - f(&warm)) as f64 / n as f64;
    println!(
        "    mix/event: {:.2} hits, {:.2} inserts, {:.2} early rejects, {:.2} exact rejects, \
         {:.2} admits, {:.2} path terms, {:.4} relocates",
        per(|m| m.hits),
        per(|m| m.inserts),
        per(|m| m.early_rejects),
        per(|m| m.exact_rejects),
        per(|m| m.admits),
        per(|m| m.path_terms),
        per(|m| m.relocates),
    );
}

fn rung(name: &str, spec: WorkloadSpec, n: usize, cfg: StreamConfig) {
    let trace = spec.generate();
    println!(
        "== {name}: warm-up lap of {} + {n} events, {} files, node_cap {} ==",
        trace.len(),
        trace.num_files(),
        cfg.node_cap
    );

    // Core rung: the bare model, no cap.
    let mut farmer = Farmer::new(cfg.farmer.clone());
    let mut stream = trace.stream();
    for e in stream.by_ref().take(trace.len()) {
        farmer.observe_event(&trace, &e);
    }
    let warm = farmer.graph().update_mix();
    let ns = drive(
        &mut stream,
        n,
        &mut farmer,
        |f, e| f.observe(Request::from_event(e), trace.path_of(e.file)),
        |_, _| {},
    );
    println!(
        "  core   {ns:7.1} ns/event   {} edges, {} nodes, {} B",
        farmer.graph().num_edges(),
        farmer.graph().active_nodes(),
        farmer.memory_bytes()
    );
    print_mix(farmer.graph().update_mix(), warm, n);
    println!(
        "    farmer state hash  {:016x}",
        hash_debug(&farmer.export_state())
    );
    drop(farmer);

    // Engine rung: the same stream under the node cap.
    let mut miner = StreamMiner::new(cfg);
    let mut stream = trace.stream();
    for e in stream.by_ref().take(trace.len()) {
        miner.ingest_event(&trace, &e);
    }
    let warm = miner.farmer().graph().update_mix();
    let evicted = miner.evictions();
    let mut lists = HashWriter(Default::default());
    let mut publish = |miner: &StreamMiner| {
        for (owner, list) in miner.snapshot().lists.iter() {
            write!(lists, "{owner:?}").expect("hashing cannot fail");
            for c in list {
                write!(lists, "{:?}{:x}", c.file, c.degree.to_bits()).expect("hashing cannot fail");
            }
        }
    };
    let ns = drive(
        &mut stream,
        n,
        &mut miner,
        |m, e| m.ingest(Request::from_event(e), trace.path_of(e.file)),
        // Every eighth window publishes (untimed) into the lists hash.
        |m, w| {
            if w % 8 == 0 {
                publish(m);
            }
        },
    );
    publish(&miner);
    let mut builds: Vec<u128> = (0..5)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(miner.snapshot());
            t.elapsed().as_nanos()
        })
        .collect();
    builds.sort_unstable();
    println!(
        "  engine {ns:7.1} ns/event   {} evictions ({:.2}/kevent), {} tracked, {} B, snapshot {:.0} us",
        miner.evictions() - evicted,
        (miner.evictions() - evicted) as f64 * 1000.0 / n as f64,
        miner.tracked_files(),
        miner.state_bytes(),
        builds[2] as f64 / 1e3
    );
    print_mix(miner.farmer().graph().update_mix(), warm, n);
    assert!(
        trace.num_files() <= miner.config().node_cap || miner.evictions() > evicted,
        "{name}: a namespace over the node cap and no eviction"
    );
    println!(
        "    miner state hash   {:016x}",
        hash_debug(&miner.export_state())
    );
    println!("    published lists    {:016x}", lists.0.finish());
}

fn main() {
    let mut quick = false;
    let mut seed = 1u64;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            s => match s.parse() {
                Ok(n) => seed = n,
                Err(_) => {
                    eprintln!("usage: engine_rung [--quick] [seed]");
                    std::process::exit(2);
                }
            },
        }
    }
    let (scale, cap) = if quick { (0.1, 512) } else { (1.0, 4096) };
    let cfg = StreamConfig::default().with_node_cap(cap);
    let sized = |spec: WorkloadSpec, n: usize| {
        let spec = spec.with_seed(seed);
        if quick {
            (spec.scaled(scale), n / 10)
        } else {
            (spec, n)
        }
    };
    let (ins, n) = sized(WorkloadSpec::ins(), 1_200_000);
    rung("INS", ins, n, cfg.clone());
    let (hp, n) = sized(WorkloadSpec::hp(), 410_000);
    rung("HP", hp, n, cfg);
}
