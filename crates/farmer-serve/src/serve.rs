//! The serving tier: one mining writer, N wait-free query readers.
//!
//! [`FarmerServe`] owns a [`ShardedMiner`] on a dedicated ingest worker
//! thread and closes FARMER's loop between mining and serving:
//!
//! ```text
//!  producers ──try_push──▶ MPSC ring ──pop──▶ ingest worker ──route──▶ ShardedMiner
//!                                                  │ every publish_every events
//!                                                  ▼
//!                                            SnapshotCell ◀──refresh── ServeReader × N
//! ```
//!
//! * **Ingest** goes through the lock-free ring ([`crate::ring`]): any
//!   number of [`IngestHandle`]s push operations without a shared lock —
//!   each one the [`WalOp`] the miner's router buffers, logs and
//!   broadcasts as it is, its path a shared value that is never copied —
//!   and a full ring pushes back explicitly: the handle spins/yields and
//!   counts one `serve.backpressure_waits` episode instead of queueing
//!   without bound.
//! * **Publication** is epoch-swapped: the worker periodically takes a
//!   consistent cut ([`ShardedMiner::publish_into`]) and installs it in
//!   the tier's [`SnapshotCell`] in O(1).
//! * **Queries** never touch the miner, the ring, or any lock: each
//!   [`ServeReader`] serves from its cached snapshot `Arc`, re-cloning
//!   only when the epoch advances. The steady-state query hot path is
//!   allocation-free, and a publication allocates a fixed handful of
//!   blocks however many lists it carries (both counted exactly in
//!   `tests/alloc_gates.rs`).
//! * **Shutdown is graceful**: [`FarmerServe::shutdown`] stops intake,
//!   drains every event already in the ring into the miner, publishes one
//!   final snapshot, and joins the worker — readers keep serving from the
//!   final epoch for as long as they live.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::thread::{self, JoinHandle, Thread};
use std::time::Duration;

use farmer_core::{CorrelationSource, Correlator, Request};
use farmer_obs::Registry;
use farmer_stream::{CellReader, ShardedMiner, SnapshotCell, StreamSnapshot, WalOp};
use farmer_trace::{FileId, FilePath, Trace, TraceEvent};

use crate::metrics::ServeMetrics;
use crate::ring::{self, Consumer, Producer};
use crate::ServeConfig;

/// What travels through the ingest ring: the miner's operations, and
/// the tier's own control markers beside them.
enum IngestOp {
    /// An access or a forget, handed to [`ShardedMiner::route_op`] as is.
    Op(WalOp),
    /// Publish a snapshot now, regardless of cadence.
    Publish,
    /// Barrier: mine everything ahead of this op, publish, then ack.
    Flush(mpsc::Sender<()>),
}

/// State shared between the tier, its producers, and the worker.
struct Shared {
    /// Set by [`FarmerServe::shutdown`]: the worker drains and exits, and
    /// producers stop accepting new work.
    stop: AtomicBool,
    /// True while the worker is parked on an empty ring; producers unpark
    /// it after a push (the flag makes the common un-parked push skip the
    /// unpark syscall).
    sleeping: AtomicBool,
    /// The worker's thread handle, for unparking. Set right after spawn.
    worker: OnceLock<Thread>,
    metrics: ServeMetrics,
}

impl Shared {
    fn wake_worker(&self) {
        // ord: SeqCst joins the worker's flag-raise/recheck protocol in a
        // single total order — a producer either sees sleeping=true here or
        // its push is seen by the worker's recheck; no lost wakeup.
        if self.sleeping.load(Ordering::SeqCst) {
            if let Some(t) = self.worker.get() {
                t.unpark();
            }
        }
    }
}

/// Final accounting returned by [`FarmerServe::shutdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Access events ingested into the miner over the tier's lifetime.
    pub events: u64,
    /// Forget tombstones ingested.
    pub forgets: u64,
    /// Snapshots published (including the final shutdown publication).
    pub publishes: u64,
    /// The cell epoch after the final publication.
    pub final_epoch: u64,
}

/// The concurrent serving tier. See the [module docs](self).
pub struct FarmerServe {
    producer: Producer<IngestOp>,
    cell: Arc<SnapshotCell>,
    shared: Arc<Shared>,
    /// Registry scoped to `serve`, kept to register per-reader histograms.
    reg: Registry,
    next_reader: std::sync::atomic::AtomicUsize,
    worker: Option<JoinHandle<ServeStats>>,
}

impl FarmerServe {
    /// Spawn the tier (miner shards plus one ingest worker) without
    /// observability.
    pub fn spawn(cfg: ServeConfig) -> FarmerServe {
        Self::spawn_instrumented(cfg, &Registry::disabled())
    }

    /// [`FarmerServe::spawn`] with observability: registers the `serve.*`
    /// metrics under `reg` (and the wrapped miner's `stream.*` set). With
    /// a disabled registry this is exactly `spawn`.
    pub fn spawn_instrumented(cfg: ServeConfig, reg: &Registry) -> FarmerServe {
        let serve_reg = reg.scope("serve");
        let metrics = ServeMetrics::new(&serve_reg);
        let miner = ShardedMiner::spawn_instrumented(cfg.stream.clone(), reg);
        let (producer, consumer) = ring::ring(cfg.ring_capacity);
        let cell = Arc::new(SnapshotCell::new());
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            sleeping: AtomicBool::new(false),
            worker: OnceLock::new(),
            metrics,
        });
        let worker = {
            let cell = Arc::clone(&cell);
            let shared = Arc::clone(&shared);
            let publish_every = cfg.publish_every;
            thread::Builder::new()
                .name("farmer-serve-ingest".into())
                .spawn(move || ingest_worker(miner, consumer, cell, shared, publish_every))
                // lint: allow(panic) thread-spawn failure at tier startup is
                // unrecoverable resource exhaustion
                .expect("spawn serve ingest worker")
        };
        shared
            .worker
            .set(worker.thread().clone())
            // lint: allow(panic) the OnceLock is written exactly here,
            // right after the single spawn
            .expect("worker thread set once");
        FarmerServe {
            producer,
            cell,
            shared,
            reg: serve_reg,
            next_reader: std::sync::atomic::AtomicUsize::new(0),
            worker: Some(worker),
        }
    }

    /// A new producer handle for an ingest thread. Handles are cheap and
    /// independent; clone or call this once per writer thread.
    pub fn handle(&self) -> IngestHandle {
        IngestHandle {
            producer: self.producer.clone(),
            shared: Arc::clone(&self.shared),
        }
    }

    /// Register a query reader. The returned [`ServeReader`] is owned by
    /// one reader thread and serves wait-free from the tier's current
    /// snapshot; its query latency lands in `serve.reader<N>.query_ns`.
    pub fn reader(&self) -> ServeReader {
        // ord: reader ids only need uniqueness, which any atomic RMW
        // gives; nothing is published through this counter.
        let i = self.next_reader.fetch_add(1, Ordering::Relaxed);
        let m = &self.shared.metrics;
        m.readers.adjust(1);
        ServeReader {
            reader: self.cell.reader(),
            query_ns: self.reg.scope(&format!("reader{i}")).histogram("query_ns"),
            queries: m.queries.clone(),
            readers: m.readers.clone(),
        }
    }

    /// The tier's publication cell — for consumers that want a raw
    /// [`CellReader`] (e.g. `FpaPredictor::following`) instead of
    /// an instrumented [`ServeReader`].
    pub fn cell(&self) -> &Arc<SnapshotCell> {
        &self.cell
    }

    /// The epoch of the latest published snapshot (0 before the first).
    pub fn epoch(&self) -> u64 {
        self.cell.epoch()
    }

    /// Ask the worker to publish a snapshot now (FIFO with respect to this
    /// tier handle's earlier pushes). Returns without waiting; use
    /// [`FarmerServe::flush`] to wait for the publication.
    pub fn publish(&self) {
        self.push(IngestOp::Publish);
    }

    /// Barrier: block until every event pushed (by any handle) before this
    /// call has been mined and a fresh snapshot published.
    ///
    /// FIFO gives the guarantee for this thread's own pushes directly; for
    /// other producers it holds for everything that entered the ring
    /// before the flush op did.
    pub fn flush(&self) {
        let (ack_tx, ack_rx) = mpsc::channel();
        self.push(IngestOp::Flush(ack_tx));
        ack_rx
            .recv()
            // lint: allow(panic) a dead worker means a miner panic already
            // happened; surfacing it at the barrier is the contract
            .expect("serve ingest worker died during flush");
    }

    /// Stop intake, drain the ring into the miner, publish a final
    /// snapshot, join the worker, and return the tier's lifetime stats.
    ///
    /// Events already in the ring are mined, never dropped; pushes *after*
    /// shutdown are refused at the handle ([`IngestHandle::ingest`]
    /// returns `false`). Readers outlive the tier: they keep serving the
    /// final epoch from their cached `Arc`s.
    pub fn shutdown(mut self) -> ServeStats {
        // lint: allow(panic) shutdown re-raises a worker panic on the
        // caller's thread rather than swallowing lost events
        self.shutdown_inner().expect("serve ingest worker panicked")
    }

    fn shutdown_inner(&mut self) -> thread::Result<ServeStats> {
        let worker = match self.worker.take() {
            Some(w) => w,
            None => unreachable!("shutdown runs once"),
        };
        // ord: SeqCst so the stop flag and the sleeping-flag protocol
        // share one total order with the worker's park recheck.
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.wake_worker();
        worker.join()
    }

    fn push(&self, op: IngestOp) {
        push_with_backpressure(&self.producer, &self.shared, op);
    }
}

impl Drop for FarmerServe {
    fn drop(&mut self) {
        if self.worker.is_some() {
            // Same graceful drain as `shutdown`, minus the stats. Surface
            // a worker panic unless we are already unwinding.
            if let Err(p) = self.shutdown_inner() {
                if !thread::panicking() {
                    std::panic::resume_unwind(p);
                }
            }
        }
    }
}

/// Push, spinning through explicit backpressure. Counts one
/// `backpressure_waits` episode per push that found the ring full.
/// Returns `false` (op dropped) once the tier is stopping — a livelock
/// guard: after shutdown the consumer is draining towards exit, and a
/// producer must not spin forever on a ring that will never be popped
/// again.
fn push_with_backpressure(producer: &Producer<IngestOp>, shared: &Shared, op: IngestOp) -> bool {
    let mut op = match producer.try_push(op) {
        Ok(()) => {
            shared.wake_worker();
            return true;
        }
        Err(op) => op,
    };
    shared.metrics.backpressure_waits.inc();
    let mut spins = 0u32;
    loop {
        // ord: Acquire pairs with shutdown's stop store; a refused push
        // must not be reordered ahead of observing the stop.
        if shared.stop.load(Ordering::Acquire) {
            return false;
        }
        match producer.try_push(op) {
            Ok(()) => {
                shared.wake_worker();
                return true;
            }
            Err(back) => op = back,
        }
        spins += 1;
        if spins < 64 {
            std::hint::spin_loop();
        } else {
            thread::yield_now();
        }
    }
}

/// A `Clone`-able producer handle onto the tier's ingest ring. It holds
/// no per-file state: an offered path is shared into the operation by
/// reference count, so nothing here can outlive a forget.
#[derive(Clone)]
pub struct IngestHandle {
    producer: Producer<IngestOp>,
    shared: Arc<Shared>,
}

impl IngestHandle {
    /// Ingest one access event. Returns `true` once the event is in the
    /// ring; `false` only if the tier is shutting down (the event is
    /// dropped). Blocks (spin/yield) only under backpressure — a full
    /// ring with a live worker.
    pub fn ingest(&mut self, req: Request, path: Option<&FilePath>) -> bool {
        let path = path.cloned();
        let op = IngestOp::Op(WalOp::Ingest { req, path });
        let ok = push_with_backpressure(&self.producer, &self.shared, op);
        if ok {
            self.shared.metrics.ingest_events.inc();
        }
        ok
    }

    /// Convenience: ingest a trace event (runs the Stage-1 extraction).
    pub fn ingest_event(&mut self, trace: &Trace, e: &TraceEvent) -> bool {
        self.ingest(Request::from_event(e), trace.path_of(e.file))
    }

    /// Ingest a forget tombstone (unlink/churn). Same return contract as
    /// [`IngestHandle::ingest`].
    pub fn forget(&mut self, file: FileId) -> bool {
        let op = IngestOp::Op(WalOp::Forget(file));
        let ok = push_with_backpressure(&self.producer, &self.shared, op);
        if ok {
            self.shared.metrics.ingest_forgets.inc();
        }
        ok
    }

    /// Items currently waiting in the ring (racy snapshot).
    pub fn ring_depth(&self) -> usize {
        self.producer.len()
    }
}

/// One reader thread's query handle. Wait-free and allocation-free on the
/// steady-state hot path: [`ServeReader::top_k_into`] is one atomic epoch
/// load plus a query against the cached snapshot into a caller-owned
/// buffer.
pub struct ServeReader {
    reader: CellReader,
    query_ns: farmer_obs::Histogram,
    queries: farmer_obs::Counter,
    readers: farmer_obs::Gauge,
}

impl ServeReader {
    /// Pick up the latest published snapshot if one arrived since the
    /// last query. Returns `true` if the serving snapshot changed.
    #[inline]
    pub fn refresh(&mut self) -> bool {
        self.reader.refresh()
    }

    /// The k strongest correlators of `file` (degree ≥ `min_degree`) from
    /// the newest published snapshot, into `out`. Steady-state hot path:
    /// one atomic load, no lock, no allocation once `out` has warmed.
    #[inline]
    pub fn top_k_into(
        &mut self,
        file: FileId,
        k: usize,
        min_degree: f64,
        out: &mut Vec<Correlator>,
    ) {
        let span = self.query_ns.span();
        self.reader.current().top_k_into(file, k, min_degree, out);
        span.finish();
        self.queries.inc();
    }

    /// The single strongest correlator of `file`, if any.
    #[inline]
    pub fn strongest(&mut self, file: FileId, min_degree: f64) -> Option<Correlator> {
        let span = self.query_ns.span();
        let got = self.reader.current().strongest(file, min_degree);
        span.finish();
        self.queries.inc();
        got
    }

    /// The epoch this reader currently serves from.
    pub fn epoch_seen(&self) -> u64 {
        self.reader.epoch_seen()
    }

    /// A shared handle on the snapshot this reader currently serves from
    /// (refreshing first) — a reference-count bump, no copy.
    pub fn snapshot(&mut self) -> Arc<StreamSnapshot> {
        self.reader.refresh();
        self.reader.cached()
    }
}

impl Drop for ServeReader {
    fn drop(&mut self) {
        self.readers.adjust(-1);
    }
}

/// The ingest worker: drain the ring into the miner, publish on cadence,
/// park when idle, drain-and-exit on stop.
fn ingest_worker(
    mut miner: ShardedMiner,
    mut rx: Consumer<IngestOp>,
    cell: Arc<SnapshotCell>,
    shared: Arc<Shared>,
    publish_every: u64,
) -> ServeStats {
    let m = shared.metrics.clone();
    let mut stats = ServeStats {
        events: 0,
        forgets: 0,
        publishes: 0,
        final_epoch: 0,
    };
    let mut since_publish = 0u64;
    let publish = |miner: &mut ShardedMiner, stats: &mut ServeStats| {
        let span = m.publish_ns.span();
        let epoch = miner.publish_into(&cell);
        span.finish();
        stats.publishes += 1;
        stats.final_epoch = epoch;
        m.snapshot_swaps.inc();
        m.epoch.set(epoch as i64);
    };
    let mut spins = 0u32;
    loop {
        match rx.try_pop() {
            Some(op) => {
                spins = 0;
                match op {
                    IngestOp::Op(op @ WalOp::Ingest { .. }) => {
                        miner.route_op(op);
                        stats.events += 1;
                        since_publish += 1;
                        if publish_every > 0 && since_publish >= publish_every {
                            since_publish = 0;
                            m.ring_depth.set(rx.len() as i64);
                            publish(&mut miner, &mut stats);
                        }
                    }
                    IngestOp::Op(op @ WalOp::Forget(_)) => {
                        miner.route_op(op);
                        stats.forgets += 1;
                    }
                    IngestOp::Publish => {
                        since_publish = 0;
                        publish(&mut miner, &mut stats);
                    }
                    IngestOp::Flush(ack) => {
                        miner.flush();
                        since_publish = 0;
                        publish(&mut miner, &mut stats);
                        // A hung-up flusher is not an error.
                        let _ = ack.send(());
                    }
                }
            }
            None => {
                // ord: SeqCst keeps the stop check in the same total order
                // as the producers' pushes and the sleeping protocol.
                if shared.stop.load(Ordering::SeqCst) {
                    // Stop is only honoured on an *empty* ring: everything
                    // that entered before shutdown gets mined.
                    break;
                }
                spins += 1;
                if spins < 64 {
                    std::hint::spin_loop();
                } else if spins < 128 {
                    thread::yield_now();
                } else {
                    // ord: SeqCst — the flag store must precede the
                    // emptiness recheck in the single total order the
                    // producers' wake_worker load participates in.
                    shared.sleeping.store(true, Ordering::SeqCst);
                    // Lost-wakeup guard: re-check both conditions after
                    // raising the flag; a producer that pushed in between
                    // sees the flag and unparks us immediately.
                    // ord: SeqCst recheck — see the flag store above.
                    if rx.is_empty() && !shared.stop.load(Ordering::SeqCst) {
                        m.ring_depth.set(0);
                        thread::park_timeout(Duration::from_millis(1));
                    }
                    // ord: SeqCst to stay in the protocol's total order; a
                    // stale true only costs a spurious unpark.
                    shared.sleeping.store(false, Ordering::SeqCst);
                }
            }
        }
    }
    // Final consistent publication: flush the miner so the last snapshot
    // reflects every drained event.
    miner.flush();
    publish(&mut miner, &mut stats);
    m.ring_depth.set(0);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServeConfig;
    use farmer_core::CorrelationSource;
    use farmer_trace::WorkloadSpec;

    #[test]
    fn recreated_file_is_learned_under_its_new_path() {
        // One handle sees file 7 under its old path, another forgets it
        // (a handle cannot see another's forgets), the first sees it again
        // re-created under a new path: the tier must learn what a bare
        // miner fed the same stream learns, not the first handle's cached
        // copy of the old path.
        use farmer_stream::{snapshots_bitwise_equal, StreamMiner};
        let req = |file: u32| Request {
            file: FileId::new(file),
            uid: farmer_trace::UserId::new(1),
            pid: farmer_trace::ProcId::new(1),
            host: farmer_trace::HostId::new(1),
            dev: farmer_trace::DevId::new(1),
        };
        let old = FilePath::from_components(vec![1, 2, 3]);
        let new = FilePath::from_components(vec![9, 8, 7]);
        let sibling = FilePath::from_components(vec![1, 2, 4]);

        let cfg = ServeConfig::default();
        let serve = FarmerServe::spawn(cfg.clone());
        let (mut first, mut second) = (serve.handle(), serve.handle());
        let mut bare = StreamMiner::new(cfg.stream);
        // Pushed from one thread, so ring order is program order.
        assert!(first.ingest(req(7), Some(&old)));
        bare.ingest(req(7), Some(&old));
        assert!(second.ingest(req(8), Some(&sibling)));
        bare.ingest(req(8), Some(&sibling));
        assert!(second.forget(FileId::new(7)));
        bare.forget(FileId::new(7));
        for _ in 0..8 {
            assert!(first.ingest(req(7), Some(&new)));
            bare.ingest(req(7), Some(&new));
            assert!(second.ingest(req(8), Some(&sibling)));
            bare.ingest(req(8), Some(&sibling));
        }
        serve.flush();
        let served = serve.reader().snapshot();
        let want = StreamSnapshot::merge([bare.snapshot()]);
        assert!(want.num_lists() > 0, "the script mined nothing");
        assert!(
            snapshots_bitwise_equal(&served, &want),
            "tier diverged from a bare miner over the same stream"
        );
    }

    #[test]
    fn single_writer_end_to_end() {
        let trace = WorkloadSpec::hp().scaled(0.01).generate();
        let serve = FarmerServe::spawn(ServeConfig::default());
        let mut tx = serve.handle();
        for e in &trace.events {
            assert!(tx.ingest_event(&trace, e));
        }
        serve.flush();
        let mut r = serve.reader();
        assert!(r.epoch_seen() >= 1 || r.refresh());
        let snap = r.snapshot();
        assert_eq!(snap.events, trace.len() as u64);
        let mut out = Vec::new();
        let mut served = 0usize;
        for f in 0..trace.num_files() as u32 {
            r.top_k_into(FileId::new(f), 4, 0.0, &mut out);
            served += out.len();
        }
        assert!(served > 0, "tier served no correlations");
        let stats = serve.shutdown();
        assert_eq!(stats.events, trace.len() as u64);
        assert!(stats.publishes >= 1);
    }

    #[test]
    fn shutdown_drains_ring_before_final_publish() {
        let trace = WorkloadSpec::ins().scaled(0.01).generate();
        let mut cfg = ServeConfig::default();
        cfg.publish_every = 0; // manual publication only
        let serve = FarmerServe::spawn(cfg);
        let mut tx = serve.handle();
        for e in &trace.events {
            assert!(tx.ingest_event(&trace, e));
        }
        let cell = Arc::clone(serve.cell());
        let stats = serve.shutdown();
        assert_eq!(stats.events, trace.len() as u64, "ring drained fully");
        assert_eq!(stats.publishes, 1, "exactly the final shutdown publish");
        let (epoch, snap) = cell.load();
        assert_eq!(epoch, stats.final_epoch);
        assert_eq!(snap.events, trace.len() as u64);
    }

    #[test]
    fn forgets_travel_in_order() {
        let trace = WorkloadSpec::ins().scaled(0.02).generate();
        let serve = FarmerServe::spawn(ServeConfig::default());
        let mut tx = serve.handle();
        for e in &trace.events {
            tx.ingest_event(&trace, e);
        }
        serve.flush();
        let mut r = serve.reader();
        let victim = {
            let snap = r.snapshot();
            let mut found = None;
            snap.for_each_list(&mut |owner, _| {
                found.get_or_insert(owner);
            });
            found.expect("mined something")
        };
        tx.forget(victim);
        serve.flush();
        assert!(r.refresh());
        let snap = r.snapshot();
        let mut out = Vec::new();
        snap.top_k_into(victim, 4, 0.0, &mut out);
        assert!(out.is_empty(), "forgotten file still served");
        let stats = serve.shutdown();
        assert_eq!(stats.forgets, 1);
    }

    #[test]
    fn publish_cadence_advances_epochs_mid_stream() {
        let trace = WorkloadSpec::hp().scaled(0.02).generate();
        let mut cfg = ServeConfig::default();
        cfg.publish_every = 512;
        let serve = FarmerServe::spawn(cfg);
        let mut tx = serve.handle();
        let mut r = serve.reader();
        let mut seen_epochs = vec![r.epoch_seen()];
        for e in &trace.events {
            tx.ingest_event(&trace, e);
            if r.refresh() {
                let s = r.snapshot();
                assert!(
                    s.events >= seen_epochs.len() as u64,
                    "snapshot behind publication count"
                );
                seen_epochs.push(r.epoch_seen());
            }
        }
        let stats = serve.shutdown();
        assert!(
            stats.publishes as usize >= trace.len() / 512,
            "cadence publications missing: {} for {} events",
            stats.publishes,
            trace.len()
        );
        assert!(
            seen_epochs.windows(2).all(|w| w[0] < w[1]),
            "reader observed a non-increasing epoch"
        );
    }

    #[test]
    fn ingest_after_shutdown_is_refused() {
        let serve = FarmerServe::spawn(ServeConfig::default());
        let mut tx = serve.handle();
        let trace = WorkloadSpec::ins().scaled(0.005).generate();
        assert!(tx.ingest_event(&trace, &trace.events[0]));
        let _ = serve.shutdown();
        // The worker is gone; the handle must refuse instead of spinning
        // forever once the ring fills.
        for e in trace.stream().take(5000) {
            let _ = tx.ingest_event(&trace, &e);
        }
    }

    #[test]
    fn instrumented_tier_reports_serve_metrics() {
        let trace = WorkloadSpec::hp().scaled(0.01).generate();
        let reg = Registry::enabled();
        let mut cfg = ServeConfig::default();
        cfg.publish_every = 1024;
        let serve = FarmerServe::spawn_instrumented(cfg, &reg);
        let mut tx = serve.handle();
        for e in &trace.events {
            tx.ingest_event(&trace, e);
        }
        serve.flush();
        {
            let mut r0 = serve.reader();
            let mut r1 = serve.reader();
            let mut out = Vec::new();
            r0.top_k_into(FileId::new(0), 4, 0.0, &mut out);
            r1.top_k_into(FileId::new(1), 4, 0.0, &mut out);
            r1.strongest(FileId::new(2), 0.0);
            let obs = reg.snapshot();
            assert_eq!(obs.gauge("serve.readers"), Some(2));
            assert_eq!(obs.counter("serve.queries"), Some(3));
            assert_eq!(obs.histogram("serve.reader0.query_ns").unwrap().count, 1);
            assert_eq!(obs.histogram("serve.reader1.query_ns").unwrap().count, 2);
        }
        let stats = serve.shutdown();
        let obs = reg.snapshot();
        assert_eq!(obs.gauge("serve.readers"), Some(0), "drop deregisters");
        assert_eq!(obs.counter("serve.ingest_events"), Some(trace.len() as u64));
        assert_eq!(obs.counter("serve.snapshot_swaps"), Some(stats.publishes));
        assert_eq!(obs.gauge("serve.epoch"), Some(stats.final_epoch as i64));
        assert_eq!(
            obs.histogram("serve.publish_ns").unwrap().count,
            stats.publishes
        );
        // The wrapped miner's stream.* scope registers under the same root.
        assert_eq!(obs.counter("stream.events_mined"), Some(trace.len() as u64));
    }

    #[test]
    fn disabled_registry_reports_nothing() {
        let trace = WorkloadSpec::ins().scaled(0.005).generate();
        let reg = Registry::disabled();
        let serve = FarmerServe::spawn_instrumented(ServeConfig::default(), &reg);
        let mut tx = serve.handle();
        for e in &trace.events {
            tx.ingest_event(&trace, e);
        }
        serve.flush();
        let mut r = serve.reader();
        let mut out = Vec::new();
        r.top_k_into(FileId::new(0), 4, 0.0, &mut out);
        let _ = serve.shutdown();
        let obs = reg.snapshot();
        assert_eq!(obs.counter("serve.ingest_events"), None);
        assert_eq!(obs.gauge("serve.readers"), None);
        assert_eq!(obs.histogram("serve.reader0.query_ns"), None);
    }
}
