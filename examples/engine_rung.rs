//! The mining kernel's quick rung and its bit-exactness hashes in one
//! command: a warm-up lap plus 1.2M INS / 410k HP events through a bare
//! [`Farmer`] (the core rung), a default [`StreamMiner`] (the engine
//! rung: HP's 16.9k files over the 4 096-node cap, ≈ 54k evictions), and a
//! one-shard [`ShardedMiner`] (the sharded rung: the engine's two stages
//! on two threads, the stream stage on the caller's).
//!
//! ```text
//! cargo run --release --example engine_rung -- [--quick] [seed]
//! ```
//!
//! Per preset and rung it prints ns/event (fast quartile over 8 192-event
//! windows, the benchmark's own statistic — it reads within a few ns of
//! `core.observe_ns_per_event` / `engine.ingest_ns_per_event`; the sharded
//! rung's windows end when the shard has applied them), the graph's
//! edges and nodes beside the bytes the rung accounts (so mean degree and
//! bytes a node can be read off both), the update
//! mix per event after the warm-up lap, the median of five at-rest
//! `snapshot()` builds beside the median of five `cut()` walks (the share
//! of a cut its shard's mining thread pays; the serving tier assembles the
//! table elsewhere), a hash of every list published along the way, and
//! a hash of `export_state()`: four state hashes and two published-lists
//! hashes in all. The `stages` line splits the engine rung's cost between
//! its two stages run one after the other on one thread, each timed alone
//! ([`StreamMiner::into_stages`]): what the router and the shard's thread
//! each pay. The sharded rung must end with the engine rung's state hash
//! and published-lists hash, or the run panics. A change to the kernel,
//! the eviction sweep or the publication build must leave all six as the
//! parent prints them (build this file against each tree; a tree without
//! `StreamMiner::cut` runs the copy it has).
//! `--quick` runs a tenth of each trace under a 512-node cap — well under
//! a second, for CI: a smoke test that panics if the capped rung never
//! evicted or the sharded rung parted from the engine rung.

use std::fmt::Write as _;
use std::hash::Hasher as _;
use std::time::Instant;

use farmer::core::graph::UpdateMix;
use farmer::prelude::*;
use farmer::stream::WalOp;
use farmer::trace::MiningAction;

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

/// Wall-clock nanoseconds of `f`.
fn timed(f: impl FnOnce()) -> u64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as u64
}

/// Feed `n` events to `sut` window by window, `time` running one window
/// and returning the nanoseconds of each of its `K` timed parts; the
/// fast-quartile ns/event of each part over the full windows, with
/// `between` run (untimed) after each one.
fn drive<S, const K: usize>(
    stream: &mut ReplayStream<'_>,
    n: usize,
    sut: &mut S,
    mut time: impl FnMut(&mut S, &[TraceEvent]) -> [u64; K],
    mut between: impl FnMut(&mut S, usize),
) -> [f64; K] {
    let mut buf: Vec<TraceEvent> = Vec::with_capacity(WINDOW);
    let mut per_window: [Vec<u64>; K] = std::array::from_fn(|_| Vec::with_capacity(n / WINDOW));
    let mut left = n;
    while left > 0 {
        buf.clear();
        buf.extend(stream.by_ref().take(left.min(WINDOW)));
        let ns = time(sut, &buf);
        if buf.len() == WINDOW {
            for (part, ns) in per_window.iter_mut().zip(ns) {
                part.push(ns);
            }
            between(sut, per_window[0].len());
        }
        left -= buf.len();
    }
    per_window.map(|mut part| {
        part.sort_unstable();
        part.get(part.len() / 4).copied().unwrap_or(0) as f64 / WINDOW as f64
    })
}

/// The operation [`ShardedMiner::route_event`] makes of `e`, if any.
fn op_of(trace: &Trace, e: &TraceEvent) -> Option<WalOp> {
    match e.op.mining_action() {
        MiningAction::Observe => Some(ingest_op(trace, e)),
        MiningAction::Forget => Some(WalOp::Forget(e.file)),
        MiningAction::Skip => None,
    }
}

/// `e` as an access, whatever its op: what the timed laps feed.
fn ingest_op(trace: &Trace, e: &TraceEvent) -> WalOp {
    WalOp::Ingest {
        req: Request::from_event(e),
        path: trace.path_of(e.file).cloned(),
    }
}

/// Hashes the lists of one published table into `out`.
fn hash_lists(out: &mut HashWriter, table: &CorrelatorTable) {
    for (owner, list) in table.iter() {
        write!(out, "{owner:?}").expect("hashing cannot fail");
        for c in list {
            write!(out, "{:?}{:x}", c.file, c.degree.to_bits()).expect("hashing cannot fail");
        }
    }
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
    let [ns] = drive(
        &mut stream,
        n,
        &mut farmer,
        |f, window| {
            [timed(|| {
                for e in window {
                    f.observe(Request::from_event(e), trace.path_of(e.file));
                }
            })]
        },
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
    let mut miner = StreamMiner::new(cfg.clone());
    let mut stream = trace.stream();
    for e in stream.by_ref().take(trace.len()) {
        miner.ingest_event(&trace, &e);
    }
    let warm = miner.farmer().graph().update_mix();
    let evicted = miner.evictions();
    let mut lists = HashWriter(Default::default());
    let [ns] = drive(
        &mut stream,
        n,
        &mut miner,
        |m, window| {
            [timed(|| {
                for e in window {
                    m.ingest(Request::from_event(e), trace.path_of(e.file));
                }
            })]
        },
        // Every eighth window publishes (untimed) into the lists hash.
        |m, w| {
            if w % 8 == 0 {
                hash_lists(&mut lists, &m.snapshot().lists);
            }
        },
    );
    hash_lists(&mut lists, &miner.snapshot().lists);
    let median_us = |f: &dyn Fn()| {
        let mut ns: Vec<u64> = (0..5).map(|_| timed(f)).collect();
        ns.sort_unstable();
        ns[2] as f64 / 1e3
    };
    let build_us = median_us(&|| drop(std::hint::black_box(miner.snapshot())));
    let walk_us = median_us(&|| drop(std::hint::black_box(miner.cut())));
    println!(
        "  engine {ns:7.1} ns/event   {} edges, {} nodes, {} evictions ({:.2}/kevent), {} tracked, \
         {} B, snapshot {build_us:.0} us (cut walk {walk_us:.0} us)",
        miner.farmer().graph().num_edges(),
        miner.farmer().graph().active_nodes(),
        miner.evictions() - evicted,
        (miner.evictions() - evicted) as f64 * 1000.0 / n as f64,
        miner.tracked_files(),
        miner.state_bytes(),
    );
    print_mix(miner.farmer().graph().update_mix(), warm, n);
    assert!(
        trace.num_files() <= miner.config().node_cap || miner.evictions() > evicted,
        "{name}: a namespace over the node cap and no eviction"
    );
    let state = hash_debug(&miner.export_state());
    let lists = lists.0.finish();
    println!("    miner state hash   {state:016x}");
    println!("    published lists    {lists:016x}");
    drop(miner);

    // The engine rung's two stages, one after the other on one thread:
    // each window's operations through the stream stage, then its steps
    // through the graph stage, each timed alone.
    let (mut front, mut back) = StreamMiner::new(cfg.clone()).into_stages();
    let mut stream = trace.stream();
    for e in stream.by_ref().take(trace.len()) {
        if let Some(op) = op_of(&trace, &e) {
            front.route(&op);
        }
    }
    back.apply(&front.take_steps());
    let mut ops = Vec::with_capacity(WINDOW);
    let [stream_ns, graph_ns] = drive(
        &mut stream,
        n,
        &mut (front, back),
        |(front, back), window| {
            ops.clear();
            ops.extend(window.iter().map(|e| ingest_op(&trace, e)));
            let stream_ns = timed(|| ops.iter().for_each(|op| front.route(op)));
            let steps = front.take_steps();
            [stream_ns, timed(|| back.apply(&steps))]
        },
        |_, _| {},
    );
    println!("  stages {stream_ns:7.1} ns/event stream stage + {graph_ns:.1} ns/event graph stage");

    // Sharded rung: the engine rung's stages on two threads. A window
    // ends when the shard has applied it.
    let mut fleet = ShardedMiner::spawn(cfg.with_shards(1));
    let mut stream = trace.stream();
    for e in stream.by_ref().take(trace.len()) {
        fleet.route_event(&trace, &e);
    }
    fleet.flush();
    let mut fleet_lists = HashWriter(Default::default());
    let [ns] = drive(
        &mut stream,
        n,
        &mut fleet,
        |f, window| {
            [timed(|| {
                for e in window {
                    f.route(Request::from_event(e), trace.path_of(e.file));
                }
                f.flush();
            })]
        },
        |f, w| {
            if w % 8 == 0 {
                hash_lists(&mut fleet_lists, &f.snapshot().table);
            }
        },
    );
    let (snap, states) = fleet.export_full();
    hash_lists(&mut fleet_lists, &snap.table);
    println!("  shard  {ns:7.1} ns/event   one shard, stages on two threads");
    assert!(
        hash_debug(&states[0]) == state && fleet_lists.0.finish() == lists,
        "{name}: the sharded rung parted from the engine rung"
    );
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
