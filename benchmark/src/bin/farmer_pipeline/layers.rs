//! The traced run: per-layer metrics for one workload.
//!
//! Two instruments, both driven from this thread through public calls:
//!
//! * the **peel ladder** replays the workload's stream through each layer
//!   alone — `Farmer::observe` → `StreamMiner::ingest` →
//!   `ShardedMiner::route_event` + `flush` → `FarmerServe` with
//!   `publish_every` 0 → 8192 → `DurableMiner` — so the cost a layer adds
//!   is the difference between its rung and the one below;
//! * **probes** time one call at a time where a ladder rung cannot
//!   (the ring, the cell, the WAL, a reader, a paced feed).
//!
//! Spans are recorded around every batch of calls; the engine rung checks
//! that they account for the wall time (`peel.unattributed_share`).

use std::sync::Arc;

use farmer_core::{CorrelationSource, Correlator, Farmer, Request};
use farmer_mds::replay::{replay, ReplayConfig};
use farmer_obs::Registry;
use farmer_prefetch::{simulate, FpaPredictor, SimConfig};
use farmer_serve::{ring, FarmerServe, ServeConfig};
use farmer_store::wal::{record_kind, Wal};
use farmer_stream::durable::encode_op;
use farmer_stream::{
    decode_image, encode_image, recover_instrumented, DurableConfig, DurableMiner, ShardedMiner,
    SnapshotCell, StreamConfig, StreamMiner, StreamSnapshot, WalOp,
};
use farmer_trace::parser::{from_text, to_text};
use farmer_trace::{FileId, ReplayStream, Trace, TraceEvent};

use crate::e2e::{dir_bytes, feed_serve_paced, scratch_dir, Outcome, RunArgs, QUERY_BATCH};
use crate::json::Json;
use crate::spans::Spans;
use crate::spec::{Better, Metric, Preset, K, ON_TIME_NS, PUBLISH_EVERY};
use crate::util::{now_ns, quantile_f64, thread_cpu_ns};
use crate::{allocs, count_allocs};

use Better::{Higher, Lower};

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// Every per-layer metric, in the order the report prints them.
pub const LAYER: [Metric; 79] = [
    m("trace.gen_eps", "1/s", Higher),
    m("trace.parse_eps", "1/s", Higher),
    m("ring.push_pop_ns", "ns", Lower),
    m("ring.xfer_eps", "1/s", Higher),
    m("ring.full_share", "share", Lower),
    m("core.observe_ns_per_event", "ns", Lower),
    m("core.forget_ns_per_file", "ns", Lower),
    m("core.edges", "count", Lower),
    m("core.active_nodes", "count", Lower),
    m("core.memory_bytes", "B", Lower),
    m("engine.ingest_ns_per_event", "ns", Lower),
    m("engine.evict_overhead_ns_per_event", "ns", Lower),
    m("engine.evictions_per_kevent", "count", Lower),
    m("engine.tracked_files", "count", Lower),
    m("engine.state_bytes", "B", Lower),
    m("engine.snapshot_ns", "ns", Lower),
    m("engine.snapshot_lists", "count", Lower),
    m("engine.export_state_ns", "ns", Lower),
    m("engine.from_state_ns", "ns", Lower),
    m("peel.unattributed_share", "share", Lower),
    m("shard.route_ns_per_event", "ns", Lower),
    m("shard.route_call_p99_ns", "ns", Lower),
    m("shard.overhead_ns_per_event", "ns", Lower),
    m("shard.flush_ns", "ns", Lower),
    m("shard.snapshot_ns", "ns", Lower),
    m("shard.publish_into_ns", "ns", Lower),
    m("snapshot.merge_ns", "ns", Lower),
    m("cell.install_ns", "ns", Lower),
    m("cell.refresh_ns", "ns", Lower),
    m("cell.load_ns", "ns", Lower),
    m("serve.ingest_call_p50_ns", "ns", Lower),
    m("serve.ingest_call_p99_ns", "ns", Lower),
    m("serve.backpressure_share", "share", Lower),
    m("serve.ring_depth_p50", "count", Lower),
    m("serve.ring_depth_max", "count", Lower),
    m("serve.overhead_ns_per_event", "ns", Lower),
    m("serve.publish_ns_per_event", "ns", Lower),
    m("serve.flush_ns", "ns", Lower),
    m("serve.shutdown_ns", "ns", Lower),
    m("serve.sut_cpu_share", "share", Lower),
    m("serve.sustainable_eps", "1/s", Higher),
    m("serve.op_p50_ns", "ns", Lower),
    m("serve.op_p99_us", "us", Lower),
    m("serve.publish_lag_p50_ms", "ms", Lower),
    m("serve.publish_lag_p95_ms", "ms", Lower),
    m("serve.hit_share", "share", Higher),
    m("serve.reader_overhead_ns", "ns", Lower),
    m("source.topk_ns", "ns", Lower),
    m("source.strongest_ns", "ns", Lower),
    m("source.table_topk_ns", "ns", Lower),
    m("source.hit_share", "share", Higher),
    m("source.mean_degree", "count", Lower),
    m("wal.append_ns", "ns", Lower),
    m("wal.sync_p50_ns", "ns", Lower),
    m("wal.syncs", "count", Lower),
    m("wal.bytes_per_event", "B", Lower),
    m("wal.disk_bytes_per_event", "B", Lower),
    m("wal.scan_eps", "1/s", Higher),
    m("wal.compact_ns", "ns", Lower),
    m("durable.overhead_ns_per_event", "ns", Lower),
    m("durable.checkpoint_ns", "ns", Lower),
    m("durable.image_bytes", "B", Lower),
    m("durable.encode_image_ns", "ns", Lower),
    m("durable.decode_image_ns", "ns", Lower),
    m("durable.recover_s", "s", Lower),
    m("durable.replay_fraction", "share", Lower),
    m("durable.replay_eps", "1/s", Higher),
    m("prefetch.hit_ratio", "share", Higher),
    m("prefetch.sim_eps", "1/s", Higher),
    m("mds.replay_eps", "1/s", Higher),
    m("mds.avg_response_ms", "ms", Lower),
    m("obs.trace_overhead_pct", "%", Lower),
    m("obs.allocs_per_event", "count", Lower),
    m("obs.allocs_per_query", "count", Lower),
    m("obs.serve.publish_ns", "ns", Lower),
    m("obs.stream.snapshot_build_ns", "ns", Lower),
    m("obs.stream.snapshot_merge_ns", "ns", Lower),
    m("obs.wal.fsync_ns", "ns", Lower),
    m("obs.serve.backpressure_waits", "count", Lower),
];

/// Events per recorded batch span.
const BATCH: usize = 256;
/// Batch spans per window a rung's pace is read from (8192 events).
const WINDOW_BATCHES: usize = 32;
/// A sampled ingest call slower than this met backpressure.
const BACKPRESSURE_NS: u64 = 10_000;
/// Rates the sustainable-rate probe steps through.
const RATES: [u64; 5] = [100_000, 200_000, 300_000, 400_000, 500_000];

#[derive(Default)]
struct Values(Vec<(&'static str, f64)>);

impl Values {
    fn set(&mut self, name: &'static str, v: f64) {
        debug_assert!(
            LAYER.iter().any(|d| d.name == name),
            "unlisted metric {name}"
        );
        self.0.push((name, v));
    }

    fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(f64::NAN, |(_, v)| *v)
    }
}

fn median_ns(reps: usize, mut f: impl FnMut() -> u64) -> f64 {
    let mut v: Vec<u64> = (0..reps).map(|_| f()).collect();
    quantile_f64(&mut v, 0.5)
}

/// Pull `n` events off `stream` in batches of [`BATCH`], handing each batch
/// to `call` under a span named `call_name` (generation gets its own span).
/// Returns the rung's nanoseconds per event: time inside `call` per window
/// of [`WINDOW_BATCHES`] batches, the quartile on the fast side — the same
/// defence against a busy host as the end-to-end run's (`e2e::steady`). A
/// closed loop blocks inside `call` when the layer is full, so this is the
/// layer's pace and not only the caller's own work.
fn drive(
    sp: &mut Spans,
    stream: &mut ReplayStream<'_>,
    n: u64,
    call_name: &'static str,
    mut call: impl FnMut(&[TraceEvent]),
) -> f64 {
    let mut buf: Vec<TraceEvent> = Vec::with_capacity(BATCH);
    let mut left = n as usize;
    let mut per_batch: Vec<u64> = Vec::with_capacity(left / BATCH + 1);
    while left > 0 {
        let a = now_ns();
        buf.clear();
        buf.extend(stream.by_ref().take(left.min(BATCH)));
        let b = now_ns();
        call(&buf);
        let c = now_ns();
        sp.leaf("gen.batch", a, b);
        sp.leaf(call_name, b, c);
        if buf.len() == BATCH {
            per_batch.push(c - b);
        }
        left -= buf.len();
    }
    let mut per_window: Vec<u64> = per_batch
        .chunks_exact(WINDOW_BATCHES)
        .map(|w| w.iter().sum())
        .collect();
    quantile_f64(&mut per_window, 0.25) / (WINDOW_BATCHES * BATCH) as f64
}

/// Time each call in a batch that falls on the 1-in-64 sampling grid.
#[inline]
fn sampled<T>(j: usize, samples: &mut Vec<u64>, f: impl FnOnce() -> T) -> T {
    if j.is_multiple_of(64) {
        let a = now_ns();
        let r = f();
        samples.push(now_ns() - a);
        r
    } else {
        f()
    }
}

struct Ctx<'t> {
    trace: &'t Trace,
    warm: u64,
    n: u64,
}

impl Ctx<'_> {
    /// A stream with the warm-up lap already handed to `warm_up`.
    fn warmed(&self, sp: &mut Spans, mut warm_up: impl FnMut(&TraceEvent)) -> ReplayStream<'_> {
        let mut stream = self.trace.stream();
        let a = now_ns();
        for e in stream.by_ref().take(self.warm as usize) {
            warm_up(&e);
        }
        sp.leaf("warm_up", a, now_ns());
        stream
    }
}

fn trace_probe(args: &RunArgs, sp: &mut Spans, v: &mut Values) -> Trace {
    let (trace, ns) = sp.span("trace.generate", |_| {
        args.workload.preset.spec(args.seed).generate()
    });
    v.set("trace.gen_eps", trace.len() as f64 / (ns as f64 / 1e9));
    let (back, ns) = sp.span("trace.text_round_trip", |_| from_text(&to_text(&trace)));
    let parsed = back.map_or(0, |t| t.len());
    v.set("trace.parse_eps", parsed as f64 / (ns as f64 / 1e9));
    trace
}

fn ring_probe(args: &RunArgs, sp: &mut Spans, v: &mut Values) {
    let items = args.scaled(2_000_000);
    sp.span("ring.probe", |_| {
        let (tx, mut rx) = ring::ring::<u64>(1024);
        let t = now_ns();
        for i in 0..items {
            let _ = tx.try_push(i);
            std::hint::black_box(rx.try_pop());
        }
        v.set("ring.push_pop_ns", (now_ns() - t) as f64 / items as f64);

        let (tx, mut rx) = ring::ring::<u64>(1024);
        let t = now_ns();
        let (attempts, refusals) = std::thread::scope(|s| {
            let producer = s.spawn(move || {
                let (mut attempts, mut refusals) = (0u64, 0u64);
                for i in 0..items {
                    loop {
                        attempts += 1;
                        if tx.try_push(i).is_ok() {
                            break;
                        }
                        refusals += 1;
                        std::hint::spin_loop();
                    }
                }
                (attempts, refusals)
            });
            let mut got = 0u64;
            while got < items {
                match rx.try_pop() {
                    Some(_) => got += 1,
                    None => std::hint::spin_loop(),
                }
            }
            producer.join().expect("ring producer thread")
        });
        v.set(
            "ring.xfer_eps",
            items as f64 / ((now_ns() - t) as f64 / 1e9),
        );
        v.set("ring.full_share", refusals as f64 / attempts as f64);
    });
}

fn core_rung(cx: &Ctx<'_>, sp: &mut Spans, v: &mut Values) {
    sp.span("peel.core", |sp| {
        let mut farmer = Farmer::new(StreamConfig::default().farmer);
        let trace = cx.trace;
        let mut stream = cx.warmed(sp, |e| farmer.observe_event(trace, e));
        let per_event = drive(sp, &mut stream, cx.n, "core.observe", |batch| {
            for e in batch {
                farmer.observe(Request::from_event(e), trace.path_of(e.file));
            }
        });
        v.set("core.observe_ns_per_event", per_event);
        v.set("core.edges", farmer.graph().num_edges() as f64);
        v.set("core.active_nodes", farmer.graph().active_nodes() as f64);
        v.set("core.memory_bytes", farmer.memory_bytes() as f64);
        let files: Vec<FileId> = farmer.graph().files().collect();
        let mut per_file: Vec<u64> = files
            .chunks(64)
            .take(16)
            .map(|victims| {
                let a = now_ns();
                farmer.forget_files(victims);
                let b = now_ns();
                sp.leaf("core.forget_files", a, b);
                (b - a) / victims.len() as u64
            })
            .collect();
        v.set("core.forget_ns_per_file", quantile_f64(&mut per_file, 0.5));
    });
}

/// The single-threaded rung; also where the spans are checked to add up.
fn engine_rung(cx: &Ctx<'_>, sp: &mut Spans, v: &mut Values) {
    let (miner, _) = sp.span("peel.engine", |sp| {
        let mut miner = StreamMiner::new(StreamConfig::default());
        let trace = cx.trace;
        let mut stream = cx.warmed(sp, |e| miner.ingest_event(trace, e));
        let evicted = miner.evictions();
        let per_event = drive(sp, &mut stream, cx.n, "engine.ingest", |batch| {
            for e in batch {
                miner.ingest(Request::from_event(e), trace.path_of(e.file));
            }
        });
        v.set("engine.ingest_ns_per_event", per_event);
        v.set(
            "engine.evict_overhead_ns_per_event",
            per_event - v.get("core.observe_ns_per_event"),
        );
        v.set(
            "engine.evictions_per_kevent",
            (miner.evictions() - evicted) as f64 * 1000.0 / cx.n as f64,
        );
        v.set("engine.tracked_files", miner.tracked_files() as f64);
        v.set("engine.state_bytes", miner.state_bytes() as f64);
        miner
    });
    v.set(
        "peel.unattributed_share",
        sp.unattributed_share("peel.engine"),
    );
    sp.span("engine.probe", |sp| {
        let mut lists = 0usize;
        v.set(
            "engine.snapshot_ns",
            median_ns(5, || {
                let (snap, ns) = sp.span("engine.snapshot", |_| miner.snapshot());
                lists = snap.lists.len();
                ns
            }),
        );
        v.set("engine.snapshot_lists", lists as f64);
        let mut state = None;
        v.set(
            "engine.export_state_ns",
            median_ns(3, || {
                let (s, ns) = sp.span("engine.export_state", |_| miner.export_state());
                state = Some(s);
                ns
            }),
        );
        let state = state.expect("export_state ran");
        v.set(
            "engine.from_state_ns",
            median_ns(3, || {
                sp.span("engine.from_state", |_| {
                    StreamMiner::from_state(StreamConfig::default(), &state)
                })
                .1
            }),
        );
        // Merge, install, refresh and load, on this preset's own snapshot.
        let part = miner.snapshot();
        v.set(
            "snapshot.merge_ns",
            median_ns(5, || {
                let p = part.clone();
                sp.span("snapshot.merge", |_| StreamSnapshot::merge([p])).1
            }),
        );
        let cell = Arc::new(SnapshotCell::new());
        let mut reader = cell.reader();
        let mut refresh: Vec<u64> = Vec::new();
        v.set(
            "cell.install_ns",
            median_ns(5, || {
                let snap = Arc::new(StreamSnapshot::merge([part.clone()]));
                let (_, ns) = sp.span("cell.install", |_| cell.install(snap));
                // The reader now holds the last reference to the old
                // snapshot: its refresh pays for the drop.
                refresh.push(sp.span("cell.refresh", |_| reader.refresh()).1);
                ns
            }),
        );
        v.set("cell.refresh_ns", quantile_f64(&mut refresh, 0.5));
        let ((), ns) = sp.span("cell.load", |_| {
            for _ in 0..1000 {
                std::hint::black_box(cell.load());
            }
        });
        v.set("cell.load_ns", ns as f64 / 1000.0);
    });
}

fn shard_rung(cx: &Ctx<'_>, sp: &mut Spans, v: &mut Values) {
    sp.span("peel.shard", |sp| {
        let mut miner = ShardedMiner::spawn(StreamConfig::default());
        let trace = cx.trace;
        let mut stream = cx.warmed(sp, |e| miner.route_event(trace, e));
        miner.flush();
        let mut calls: Vec<u64> = Vec::new();
        let per_event = drive(sp, &mut stream, cx.n, "shard.route", |batch| {
            for (j, e) in batch.iter().enumerate() {
                sampled(j, &mut calls, || miner.route_event(trace, e));
            }
        });
        let ((), flush) = sp.span("shard.flush", |_| miner.flush());
        v.set("shard.route_ns_per_event", per_event);
        v.set("shard.route_call_p99_ns", quantile_f64(&mut calls, 0.99));
        v.set(
            "shard.overhead_ns_per_event",
            per_event - v.get("engine.ingest_ns_per_event"),
        );
        v.set("shard.flush_ns", flush as f64);
        v.set(
            "shard.snapshot_ns",
            median_ns(5, || sp.span("shard.snapshot", |_| miner.snapshot()).1),
        );
        let cell = SnapshotCell::new();
        v.set(
            "shard.publish_into_ns",
            median_ns(5, || {
                sp.span("shard.publish_into", |_| miner.publish_into(&cell))
                    .1
            }),
        );
    });
}

struct ServeRung {
    ns_per_event: f64,
    obs: farmer_obs::ObsReport,
}

/// One `FarmerServe` rung. With `traced` off it is the plain twin the
/// tracing overhead is measured against: no registry, no spans.
fn serve_rung(
    cx: &Ctx<'_>,
    sp: &mut Spans,
    v: &mut Values,
    name: &'static str,
    publish_every: u64,
    traced: bool,
) -> ServeRung {
    let mut quiet = Spans::new("", 0, false);
    let sp = if traced { sp } else { &mut quiet };
    let reg = Registry::new(traced);
    let full = traced && publish_every > 0;
    sp.span(name, |sp| {
        let cfg = ServeConfig::default().with_publish_every(publish_every);
        let capacity = cfg.ring_capacity;
        let serve = FarmerServe::spawn_instrumented(cfg, &reg);
        let mut tx = serve.handle();
        let trace = cx.trace;
        let mut stream = cx.warmed(sp, |e| {
            tx.ingest_event(trace, e);
        });
        serve.flush();
        let mut calls: Vec<u64> = Vec::new();
        let mut depths: Vec<u64> = Vec::new();
        let allocs_before = allocs();
        count_allocs(full);
        let ns_per_event = drive(sp, &mut stream, cx.n, "serve.ingest", |batch| {
            for (j, e) in batch.iter().enumerate() {
                sampled(j, &mut calls, || tx.ingest_event(trace, e));
            }
            depths.push(tx.ring_depth() as u64);
        });
        let ((), flush) = sp.span("serve.flush", |_| serve.flush());
        count_allocs(false);
        if full {
            v.set(
                "obs.allocs_per_event",
                (allocs() - allocs_before) as f64 / cx.n as f64,
            );
            v.set("serve.ingest_call_p50_ns", quantile_f64(&mut calls, 0.5));
            v.set("serve.ingest_call_p99_ns", quantile_f64(&mut calls, 0.99));
            v.set(
                "serve.backpressure_share",
                calls.iter().filter(|&&ns| ns > BACKPRESSURE_NS).count() as f64
                    / calls.len() as f64,
            );
            v.set("serve.ring_depth_p50", quantile_f64(&mut depths, 0.5));
            v.set(
                "serve.ring_depth_max",
                quantile_f64(&mut depths, 1.0).min(capacity as f64),
            );
            v.set("serve.flush_ns", flush as f64);
            reader_probe(cx, sp, v, &serve);
        }
        drop(tx);
        let (_, shutdown) = sp.span("serve.shutdown", |_| serve.shutdown());
        if full {
            v.set("serve.shutdown_ns", shutdown as f64);
        }
        ServeRung {
            ns_per_event,
            obs: reg.snapshot(),
        }
    })
    .0
}

/// p50 nanoseconds per query of `n` queries through `query`, timed in
/// batches under `name` spans; also the share of non-empty answers.
fn query_p50(
    sp: &mut Spans,
    name: &'static str,
    keys: &[FileId],
    n: usize,
    mut query: impl FnMut(FileId, &mut Vec<Correlator>),
) -> (f64, f64) {
    let mut out: Vec<Correlator> = Vec::with_capacity(K);
    let mut per_batch: Vec<u64> = Vec::with_capacity(n / QUERY_BATCH);
    let mut hits = 0u64;
    let mut at = 0usize;
    for _ in 0..n / QUERY_BATCH {
        let a = now_ns();
        for _ in 0..QUERY_BATCH {
            query(keys[at], &mut out);
            hits += u64::from(!out.is_empty());
            at += 1;
            if at == keys.len() {
                at = 0;
            }
        }
        let b = now_ns();
        sp.leaf(name, a, b);
        per_batch.push(b - a);
    }
    (
        quantile_f64(&mut per_batch, 0.5) / QUERY_BATCH as f64,
        hits as f64 / (n / QUERY_BATCH * QUERY_BATCH) as f64,
    )
}

/// Query-path probes against the snapshot a fed tier ended on.
fn reader_probe(cx: &Ctx<'_>, sp: &mut Spans, v: &mut Values, serve: &FarmerServe) {
    sp.span("source.probe", |sp| {
        let keys: Vec<FileId> = cx.trace.events.iter().map(|e| e.file).collect();
        let n = (cx.n as usize * 2).max(QUERY_BATCH * 64);
        let mut reader = serve.reader();
        let snap = reader.snapshot();
        let before = allocs();
        count_allocs(true);
        let (reader_ns, _) = query_p50(sp, "reader.top_k", &keys, n, |f, out| {
            reader.top_k_into(f, K, 0.0, out)
        });
        count_allocs(false);
        v.set(
            "obs.allocs_per_query",
            (allocs() - before) as f64 / n as f64,
        );
        let (source_ns, hit_share) = query_p50(sp, "source.top_k", &keys, n, |f, out| {
            snap.top_k_into(f, K, 0.0, out)
        });
        let (strongest_ns, _) = query_p50(sp, "source.strongest", &keys, n, |f, out| {
            out.clear();
            out.extend(snap.strongest(f, 0.0));
        });
        let (table_ns, _) = query_p50(sp, "source.table_top_k", &keys, n, |f, out| {
            snap.table.top_k_into(f, K, 0.0, out)
        });
        v.set("source.topk_ns", source_ns);
        v.set("source.strongest_ns", strongest_ns);
        v.set("source.table_topk_ns", table_ns);
        v.set("source.hit_share", hit_share);
        v.set("serve.reader_overhead_ns", reader_ns - source_ns);
        let (answered, examined) =
            keys.iter()
                .fold((0u64, 0u64), |(a, x), &f| match snap.correlators(f) {
                    Some(list) if !list.is_empty() => (a + 1, x + list.len() as u64),
                    _ => (a, x),
                });
        v.set(
            "source.mean_degree",
            examined as f64 / answered.max(1) as f64,
        );
    });
}

/// Open-loop probes on a fresh tier: the fixed 200k/s leg, then the
/// stepped rates for the highest one the tier sustains.
fn paced_probe(cx: &Ctx<'_>, args: &RunArgs, sp: &mut Spans, v: &mut Values) {
    sp.span("serve.paced_probe", |sp| {
        let serve = FarmerServe::spawn(ServeConfig::default());
        let capacity = ServeConfig::default().ring_capacity;
        let mut tx = serve.handle();
        let mut reader = serve.reader();
        let trace = cx.trace;
        let mut stream = cx.warmed(sp, |e| {
            tx.ingest_event(trace, e);
        });
        serve.flush();
        let mut base = cx.warm;
        let mut sustainable = 0u64;
        for rate in RATES {
            // The leg the end-to-end run paces at gets twice the time.
            let secs = if rate == 200_000 { 2.0 } else { 1.0 };
            let n = args.scaled((rate as f64 * secs) as u64);
            let cpu = thread_cpu_ns(&["farmer-serve-", "farmer-stream-"]);
            let (mut feed, wall) = sp.span("serve.paced_leg", |_| {
                feed_serve_paced(
                    &serve,
                    &mut tx,
                    &mut reader,
                    trace,
                    &mut stream,
                    base,
                    n,
                    rate,
                )
            });
            base += n;
            let on_time = feed.op_ns.iter().filter(|&&ns| ns <= ON_TIME_NS).count() as f64
                / feed.op_ns.len() as f64;
            if feed.end_ring_depth < capacity / 2 && on_time >= 0.99 {
                sustainable = rate;
            }
            if rate == 200_000 {
                let cpu = thread_cpu_ns(&["farmer-serve-", "farmer-stream-"]) - cpu;
                v.set("serve.sut_cpu_share", cpu as f64 / wall as f64);
                v.set("serve.op_p50_ns", quantile_f64(&mut feed.op_ns, 0.5));
                v.set("serve.op_p99_us", quantile_f64(&mut feed.op_ns, 0.99) / 1e3);
                v.set(
                    "serve.publish_lag_p50_ms",
                    quantile_f64(&mut feed.lag_ns, 0.5) / 1e6,
                );
                v.set(
                    "serve.publish_lag_p95_ms",
                    quantile_f64(&mut feed.lag_ns, 0.95) / 1e6,
                );
                v.set("serve.hit_share", feed.hits as f64 / feed.events as f64);
            }
        }
        v.set("serve.sustainable_eps", sustainable as f64);
        drop((tx, reader));
        serve.shutdown();
    });
}

fn wal_probe(cx: &Ctx<'_>, sp: &mut Spans, v: &mut Values) {
    sp.span("wal.probe", |sp| {
        let dir = scratch_dir("wal-probe");
        let path = dir.join("wal");
        let mut wal = Wal::create(&path).expect("create probe log");
        let payloads: Vec<Vec<u8>> = cx
            .trace
            .events
            .iter()
            .take(BATCH * 64)
            .map(|e| {
                encode_op(&WalOp::Ingest {
                    req: Request::from_event(e),
                    path: cx.trace.path_of(e.file).cloned(),
                })
            })
            .collect();
        let mut append: Vec<u64> = Vec::new();
        let mut sync: Vec<u64> = Vec::new();
        let mut keep = 0;
        let records = 16 * payloads.len();
        for (i, batch) in payloads.chunks(BATCH).cycle().take(16 * 64).enumerate() {
            let a = now_ns();
            for p in batch {
                let lsn = wal.append(record_kind::OP, p).expect("append to probe log");
                if i == 16 * 48 {
                    keep = lsn;
                }
            }
            let b = now_ns();
            wal.sync().expect("sync probe log");
            let c = now_ns();
            sp.leaf("wal.append", a, b);
            sp.leaf("wal.sync", b, c);
            append.push((b - a) / batch.len() as u64);
            sync.push(c - b);
        }
        v.set("wal.append_ns", quantile_f64(&mut append, 0.5));
        v.set("wal.sync_p50_ns", quantile_f64(&mut sync, 0.5));
        let (scanned, ns) = sp.span("wal.scan", |_| Wal::scan(&path));
        let scanned = scanned.map_or(0, |(entries, _)| entries.len());
        v.set(
            "wal.scan_eps",
            scanned.min(records) as f64 / (ns as f64 / 1e9),
        );
        let (_, ns) = sp.span("wal.compact", |_| wal.compact_before(keep));
        v.set("wal.compact_ns", ns as f64);
        drop(wal);
        let _ = std::fs::remove_dir_all(dir);
    });
}

fn durable_rung(cx: &Ctx<'_>, sp: &mut Spans, v: &mut Values) {
    sp.span("peel.durable", |sp| {
        let reg = Registry::enabled();
        let dir = scratch_dir("durable-rung");
        let path = dir.join("wal");
        // Three checkpoints and a suffix left to replay, in the proportions
        // of the `durable` workload.
        let cfg = DurableConfig::new(StreamConfig::default())
            .with_checkpoint_interval((cx.warm + cx.n) * 10 / 36)
            .with_compaction(true);
        let mut miner = DurableMiner::create_instrumented(&path, cfg.clone(), &reg)
            .expect("create the durable rung's log");
        let trace = cx.trace;
        let mut stream = cx.warmed(sp, |e| miner.ingest_event(trace, e));
        miner.flush();
        let per_event = drive(sp, &mut stream, cx.n, "durable.ingest", |batch| {
            for e in batch {
                miner.ingest_event(trace, e);
            }
        });
        sp.span("durable.flush", |_| miner.flush());
        v.set(
            "durable.overhead_ns_per_event",
            per_event - v.get("shard.route_ns_per_event"),
        );
        let events = cx.warm + cx.n;
        let obs = reg.snapshot();
        v.set("wal.syncs", obs.counter("wal.syncs").unwrap_or(0) as f64);
        v.set(
            "wal.bytes_per_event",
            obs.counter("wal.append_bytes").unwrap_or(0) as f64 / events as f64,
        );
        v.set(
            "obs.wal.fsync_ns",
            obs.histogram("wal.fsync_ns")
                .map_or(f64::NAN, |h| h.quantile(0.5) as f64),
        );
        v.set(
            "wal.disk_bytes_per_event",
            dir_bytes(&dir) as f64 / events as f64,
        );
        miner.crash();

        let (back, ns) = sp.span("durable.recover", |_| {
            let (mut back, report) =
                recover_instrumented(&path, cfg, &reg).expect("recover the durable rung");
            let _ = back.snapshot();
            (back, report)
        });
        let (mut back, report) = back;
        v.set("durable.recover_s", ns as f64 / 1e9);
        v.set(
            "durable.replay_fraction",
            report.events_replayed as f64 / report.events_recovered.max(1) as f64,
        );
        v.set(
            "durable.replay_eps",
            report.events_replayed as f64 / (report.replay_ns as f64 / 1e9),
        );
        v.set(
            "durable.checkpoint_ns",
            median_ns(3, || {
                sp.span("durable.checkpoint", |_| {
                    back.checkpoint().expect("checkpoint the durable rung")
                })
                .1
            }),
        );
        let (snap, states) = back.miner().export_full();
        let mut image = Vec::new();
        v.set(
            "durable.encode_image_ns",
            median_ns(3, || {
                let (bytes, ns) = sp.span("durable.encode_image", |_| encode_image(&snap, &states));
                image = bytes;
                ns
            }),
        );
        v.set("durable.image_bytes", image.len() as f64);
        v.set(
            "durable.decode_image_ns",
            median_ns(3, || {
                sp.span("durable.decode_image", |_| decode_image(&image).is_ok())
                    .1
            }),
        );
        back.crash();
        let _ = std::fs::remove_dir_all(dir);
    });
}

/// Cache and MDS simulations on this trace: they move no timing metric,
/// they guard that a speed-up has not bent the paper's quality numbers.
fn quality_probe(cx: &Ctx<'_>, sp: &mut Spans, v: &mut Values) {
    sp.span("quality.probe", |sp| {
        let trace = cx.trace;
        let (report, ns) = sp.span("prefetch.simulate", |_| {
            simulate(
                trace,
                &mut FpaPredictor::for_trace(trace),
                SimConfig::for_family(trace.family),
            )
        });
        v.set("prefetch.hit_ratio", report.hit_ratio());
        v.set("prefetch.sim_eps", trace.len() as f64 / (ns as f64 / 1e9));
        let (report, ns) = sp.span("mds.replay", |_| {
            replay(
                trace,
                Box::new(FpaPredictor::for_trace(trace)),
                ReplayConfig::for_family(trace.family),
            )
        });
        v.set("mds.replay_eps", trace.len() as f64 / (ns as f64 / 1e9));
        v.set("mds.avg_response_ms", report.avg_response_ms());
    });
}

fn write_trace_file(sp: &Spans, workload: &str) {
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let _ = std::fs::create_dir_all(&out);
    let j = sp.to_json();
    // One span per line: the file stays greppable and a tenth the size of
    // the indented form.
    let mut text = String::from("{\n");
    for (k, val) in j.fields() {
        if k == "spans" {
            text.push_str("\"spans\": [\n");
            let spans = val.as_arr();
            for (i, s) in spans.iter().enumerate() {
                text.push_str(&s.compact());
                text.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
            }
            text.push_str("]\n");
        } else {
            text.push_str(&format!("\"{k}\": {},\n", val.compact()));
        }
    }
    text.push_str("}\n");
    if let Err(e) = std::fs::write(out.join(format!("trace-{workload}.json")), text) {
        eprintln!("could not write the span file: {e}");
    }
}

pub fn run(args: &RunArgs) -> Outcome {
    let w = args.workload;
    let mut sp = Spans::new(w.name, 1, true);
    let mut v = Values::default();
    // About a second per rung: INS mines some three times faster than HP.
    let peel_events = args.scaled(match w.preset {
        Preset::Ins => 150 * PUBLISH_EVERY,
        Preset::Hp => 50 * PUBLISH_EVERY,
    });
    let ((), _) = sp.span("traced_run", |sp| {
        let trace = trace_probe(args, sp, &mut v);
        let cx = Ctx {
            trace: &trace,
            warm: trace.len() as u64,
            n: peel_events,
        };
        ring_probe(args, sp, &mut v);
        core_rung(&cx, sp, &mut v);
        engine_rung(&cx, sp, &mut v);
        shard_rung(&cx, sp, &mut v);
        let plain = serve_rung(&cx, sp, &mut v, "peel.serve_untraced", PUBLISH_EVERY, false);
        let serve0 = serve_rung(&cx, sp, &mut v, "peel.serve0", 0, true);
        let serve = serve_rung(&cx, sp, &mut v, "peel.serve", PUBLISH_EVERY, true);
        v.set(
            "serve.overhead_ns_per_event",
            serve0.ns_per_event - v.get("shard.route_ns_per_event"),
        );
        v.set(
            "serve.publish_ns_per_event",
            serve.ns_per_event - serve0.ns_per_event,
        );
        v.set(
            "obs.trace_overhead_pct",
            // (untraced − traced events/s) ÷ untraced.
            100.0 * (1.0 - plain.ns_per_event / serve.ns_per_event),
        );
        let p50 = |name: &str| {
            serve
                .obs
                .histogram(name)
                .map_or(f64::NAN, |h| h.quantile(0.5) as f64)
        };
        v.set("obs.serve.publish_ns", p50("serve.publish_ns"));
        v.set(
            "obs.stream.snapshot_build_ns",
            p50("stream.snapshot_build_ns"),
        );
        v.set(
            "obs.stream.snapshot_merge_ns",
            p50("stream.snapshot_merge_ns"),
        );
        v.set(
            "obs.serve.backpressure_waits",
            serve.obs.counter("serve.backpressure_waits").unwrap_or(0) as f64,
        );
        wal_probe(&cx, sp, &mut v);
        durable_rung(&cx, sp, &mut v);
        paced_probe(&cx, args, sp, &mut v);
        quality_probe(&cx, sp, &mut v);
    });
    write_trace_file(&sp, w.name);

    let metrics: Vec<(&'static str, f64, &'static str)> = LAYER
        .iter()
        .map(|d| (d.name, v.get(d.name), d.unit))
        .collect();
    let bad: Vec<&str> = metrics
        .iter()
        .filter(|(_, x, _)| !x.is_finite())
        .map(|(n, _, _)| *n)
        .collect();
    for name in &bad {
        eprintln!("CHECK FAILED: per-layer metric {name} is missing or not finite");
    }
    let unattributed = v.get("peel.unattributed_share");
    let adds_up = unattributed <= 0.10;
    if !adds_up {
        eprintln!("CHECK FAILED: peel.unattributed_share {unattributed} is above 0.10");
    }
    let detail = Json::obj()
        .field("workload", w.name)
        .field("seed", args.seed)
        .field("peel_events", peel_events)
        .field("spans", sp.len())
        .field(
            "self_times",
            sp.self_times()
                .into_iter()
                .take(24)
                .map(|(name, ns, count)| {
                    Json::obj()
                        .field("name", name)
                        .field("self_ns", ns)
                        .field("spans", count)
                })
                .collect::<Vec<_>>(),
        );
    Outcome {
        attempted: metrics.len() as u64 + 1,
        failed: bad.len() as u64 + u64::from(!adds_up),
        metrics,
        detail,
    }
}
