//! The serving tier: one mining writer, N wait-free query readers.
//!
//! [`FarmerServe`] owns a [`ShardedMiner`] on a dedicated ingest worker
//! thread and closes FARMER's loop between mining and serving:
//!
//! ```text
//!  producers ──try_push──▶ MPSC ring ──pop──▶ ingest worker ──steps──▶ shard threads
//!                                                  │ every publish_every events
//!                                                  ▼
//!                                            SnapshotCell ◀──refresh── ServeReader × N
//! ```
//!
//! The ingest worker is the [`ShardedMiner`]'s router. With one shard it
//! runs the shard's stream stage (retention, window, paths, the per-pair
//! preparation) over each route batch and hands the shard thread only the
//! steps that change its graph; with more it hands every shard thread a
//! copy of each batch (see `farmer_stream::shard`).
//!
//! * **Ingest** goes through the lock-free ring ([`crate::ring`]): any
//!   number of [`IngestHandle`]s push operations without a shared lock —
//!   each one the [`WalOp`] the miner's router logs and the shards mine
//!   from, its path a shared value that is never copied —
//!   and a full ring pushes back explicitly instead of queueing without
//!   bound: the handle counts one `serve.backpressure_waits` episode,
//!   spins briefly, then parks until the worker has drained the ring to
//!   half its capacity. The worker pays one load a pop for that while no
//!   producer waits. Every call's duration is `serve.ingest_call_ns`.
//!   A worker that dies stops the tier on its way out: parked and later
//!   pushes are refused, and a pending [`FarmerServe::flush`] panics
//!   instead of waiting forever.
//! * **Publication** is epoch-swapped and never stops ingest: every
//!   `publish_every` events the worker requests a consistent cut
//!   ([`ShardedMiner::request_snapshot`]) and goes on routing. The cut's
//!   marker waits in each shard's queue behind exactly the events routed
//!   before it. The worker keeps the cuts in flight in a FIFO, looks at
//!   the oldest once a route batch and whenever the ring is empty (an
//!   idle worker parks for at most 1 ms between looks), and
//!   installs each finished one in the tier's [`SnapshotCell`] in O(1),
//!   in order. A [`FarmerServe::publish`], a [`FarmerServe::flush`] and
//!   the shutdown publication first finish every cut in flight, then
//!   take one more and wait for it; that cut is their barrier. The shard
//!   queue is short ([`crate::ServeConfig`]'s default is 16 batches,
//!   half a publication window), because a worker that does not wait
//!   keeps it full and a cut waits behind all of it.
//! * **Queries** never touch the miner, the ring, or any lock: each
//!   [`ServeReader`] serves from its cached snapshot `Arc`, re-cloning
//!   only when the epoch advances. The steady-state query hot path is
//!   allocation-free, and a publication allocates a fixed handful of
//!   blocks however many lists it carries (both counted exactly in
//!   `tests/alloc_gates.rs`).
//! * **Shutdown is graceful**: [`FarmerServe::shutdown`] stops intake,
//!   drains every event already in the ring into the miner, publishes one
//!   final snapshot, and joins the worker — readers keep serving from the
//!   final epoch for as long as they live. A push after it is refused.

use std::collections::VecDeque;
use std::sync::atomic::{self, AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::thread::{self, JoinHandle, Thread};
use std::time::Duration;

use farmer_core::{CorrelationSource, Correlator, Request};
use farmer_obs::{Registry, Span};
use farmer_stream::{CellReader, PendingCut, ShardedMiner, SnapshotCell, StreamSnapshot, WalOp};
use farmer_trace::{FileId, FilePath, MiningAction, Trace, TraceEvent};

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
    /// Test hook: the worker stops here until the gate yields a value,
    /// and panics if the gate's sender hangs up instead.
    #[cfg(test)]
    Hold(mpsc::Receiver<()>),
}

/// Spins a producer makes on a full ring before it parks.
const SPINS: u32 = 64;

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
    /// Producers parked on a full ring. A producer raises it, then looks
    /// at the ring once more before it waits; the worker loads it after
    /// each pop, and on an empty ring after a fence, so one of the two
    /// sees the other (see [`park_and_push`]).
    waiters: AtomicUsize,
    /// Held by a parked producer from raising `waiters` until it waits,
    /// and by the worker to notify `room`: a wake-up cannot fall between
    /// a producer's last look at the ring and its wait.
    room_lock: Mutex<()>,
    /// Where producers park on a full ring.
    room: Condvar,
    metrics: ServeMetrics,
}

impl Shared {
    /// Wake every producer parked on a full ring. (`room_lock` guards no
    /// data, so a lock poisoned by a panicking holder is as good as any.)
    fn wake_producers(&self) {
        let _held = self
            .room_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        self.room.notify_all();
    }

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
            waiters: AtomicUsize::new(0),
            room_lock: Mutex::new(()),
            room: Condvar::new(),
            metrics,
        });
        #[expect(
            clippy::expect_used,
            reason = "thread-spawn failure at tier startup is unrecoverable resource exhaustion"
        )]
        let worker = {
            let cell = Arc::clone(&cell);
            let shared = Arc::clone(&shared);
            let publish_every = cfg.publish_every;
            thread::Builder::new()
                .name("farmer-serve-ingest".into())
                .spawn(move || ingest_worker(miner, consumer, cell, shared, publish_every))
                .expect("spawn serve ingest worker")
        };
        #[expect(
            clippy::expect_used,
            reason = "the OnceLock is written exactly here, right after the single spawn"
        )]
        shared
            .worker
            .set(worker.thread().clone())
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
        #[expect(
            clippy::expect_used,
            reason = "a dead worker means a miner panic already happened; surfacing it at the \
                      barrier is the contract"
        )]
        ack_rx
            .recv()
            .expect("serve ingest worker died during flush");
    }

    /// Stop intake, drain the ring into the miner, publish a final
    /// snapshot, join the worker, and return the tier's lifetime stats.
    ///
    /// Events already in the ring are mined, never dropped; pushes *after*
    /// shutdown are refused at the handle ([`IngestHandle::ingest`]
    /// returns `false`). Readers outlive the tier: they keep serving the
    /// final epoch from their cached `Arc`s.
    #[expect(
        clippy::expect_used,
        reason = "shutdown re-raises a worker panic on the caller's thread rather than swallowing \
                  lost events"
    )]
    pub fn shutdown(mut self) -> ServeStats {
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

    /// Test hook: stop the worker at this point of the ring. It resumes
    /// when the returned sender sends, and panics once the sender is
    /// dropped instead.
    #[cfg(test)]
    fn hold_worker(&self) -> mpsc::Sender<()> {
        let (gate, held) = mpsc::channel();
        self.push(IngestOp::Hold(held));
        gate
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

/// Push through explicit backpressure. Counts one `backpressure_waits`
/// episode per push that found the ring full, retries for [`SPINS`]
/// spins, then parks ([`park_and_push`]) until the worker has drained the
/// ring to half its capacity. A push that finds the ring full while
/// another producer is parked parks at once, so the parked one is not
/// overtaken indefinitely.
///
/// Returns `false` (op dropped) once the tier is stopping: after
/// [`FarmerServe::shutdown`] has returned, or the worker has died, nobody
/// pops the ring again, so an op accepted then would be lost, and a
/// producer on a full one would wait forever. What remains is a push
/// racing the stop itself: one that passed the check before the stop flag
/// was raised may still land, and is mined only if the worker's last look
/// at the ring (it exits on an empty ring) comes after it.
fn push_with_backpressure(
    producer: &Producer<IngestOp>,
    shared: &Shared,
    mut op: IngestOp,
) -> bool {
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
        if spins == 0 {
            shared.metrics.backpressure_waits.inc();
        }
        spins += 1;
        // ord: a hint only — a stale count costs a spin or an early park,
        // and the park protocol is correct either way.
        if spins >= SPINS || shared.waiters.load(Ordering::Relaxed) != 0 {
            return park_and_push(producer, shared, op);
        }
        std::hint::spin_loop();
    }
}

/// Wait on a full ring until `op` is in or the tier stops. The producer
/// raises `waiters` under `room_lock` and only then looks at the ring
/// again, and it keeps the lock until it waits; the worker notifies
/// under the same lock. A fence on each side, after the raise here and
/// before the worker's look at `waiters` on an empty ring, makes the two
/// a Dekker pair: either this look sees the slot the worker freed, or the
/// worker sees the waiter. Between those, the worker's plain load after
/// each pop wakes a parked producer once the ring is half empty.
fn park_and_push(producer: &Producer<IngestOp>, shared: &Shared, mut op: IngestOp) -> bool {
    let mut held = shared
        .room_lock
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    // ord: SeqCst, with the fence, orders the raise before the look at
    // the ring below in the single total order the worker's fence joins.
    shared.waiters.fetch_add(1, Ordering::SeqCst);
    // ord: see `park_and_push`'s docs — one half of the Dekker pair.
    atomic::fence(Ordering::SeqCst);
    let pushed = loop {
        // ord: SeqCst so a stop raised before the worker's last notify is
        // seen by the look that follows that notify.
        if shared.stop.load(Ordering::SeqCst) {
            break false;
        }
        match producer.try_push(op) {
            Ok(()) => break true,
            Err(back) => op = back,
        }
        held = shared
            .room
            .wait(held)
            .unwrap_or_else(PoisonError::into_inner);
    };
    // ord: only the count matters; the worker reads it as a hint.
    shared.waiters.fetch_sub(1, Ordering::Relaxed);
    drop(held);
    if pushed {
        shared.wake_worker();
    }
    pushed
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
    /// ring; `false` only if the tier is shutting down or its worker died
    /// (the event is dropped). Blocks only under backpressure — a full
    /// ring with a live worker: a few spins, then parked until the worker
    /// has drained half the ring. The call is timed as
    /// `serve.ingest_call_ns` (no clock is read when disabled).
    #[inline]
    pub fn ingest(&mut self, req: Request, path: Option<&FilePath>) -> bool {
        let path = path.cloned();
        self.push(WalOp::Ingest { req, path })
    }

    /// Ingest one trace event under [`farmer_trace::Op::mining_action`]; a
    /// skipped event touches nothing and returns `true`.
    pub fn ingest_event(&mut self, trace: &Trace, e: &TraceEvent) -> bool {
        match e.op.mining_action() {
            MiningAction::Observe => self.ingest(Request::from_event(e), trace.path_of(e.file)),
            MiningAction::Forget => self.forget(e.file),
            MiningAction::Skip => true,
        }
    }

    /// Ingest a forget tombstone (unlink/churn). Same return contract as
    /// [`IngestHandle::ingest`].
    pub fn forget(&mut self, file: FileId) -> bool {
        self.push(WalOp::Forget(file))
    }

    /// The one timed push of every call, counted by what it carries.
    #[inline]
    fn push(&mut self, op: WalOp) -> bool {
        let m = &self.shared.metrics;
        let counter = match op {
            WalOp::Ingest { .. } => &m.ingest_events,
            WalOp::Forget(_) => &m.ingest_forgets,
        };
        let ok = m
            .ingest_call_ns
            .time(|| push_with_backpressure(&self.producer, &self.shared, IngestOp::Op(op)));
        if ok {
            counter.inc();
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
    /// the newest published snapshot, into `out`. Steady-state hot path,
    /// inlined into a caller that names this reader: one atomic epoch load,
    /// one index slot (the file id itself while ids are dense, a short
    /// probe from a hashed slot once they are not), one fixed `k`-wide copy
    /// of the list's prefix; no lock, no call, no allocation once `out`
    /// has warmed. Picking up a new publication is a cold call, and with a
    /// disabled registry the query is not timed at all.
    #[inline]
    pub fn top_k_into(
        &mut self,
        file: FileId,
        k: usize,
        min_degree: f64,
        out: &mut Vec<Correlator>,
    ) {
        // The closure carries the whole query; a caller with several read
        // loops would otherwise get one shared out-of-line copy of it.
        self.query_ns.time(
            #[inline(always)]
            || self.reader.current().top_k_into(file, k, min_degree, out),
        );
        self.queries.inc();
    }

    /// The single strongest correlator of `file`, if any.
    #[inline]
    pub fn strongest(&mut self, file: FileId, min_degree: f64) -> Option<Correlator> {
        let got = self
            .query_ns
            .time(|| self.reader.current().strongest(file, min_degree));
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

/// The worker's publication side: the tier's cell, and the cadence cuts
/// requested but not installed yet, oldest first.
struct Publisher {
    cell: Arc<SnapshotCell>,
    metrics: ServeMetrics,
    /// Each cut with the span timing it from request to install.
    in_flight: VecDeque<(PendingCut, Span)>,
    stats: ServeStats,
}

impl Publisher {
    /// Request a cut of everything routed so far and go on routing.
    fn request(&mut self, miner: &mut ShardedMiner) {
        let span = self.metrics.publish_ns.span();
        self.in_flight.push_back((miner.request_snapshot(), span));
    }

    /// Install, oldest first, every cut in flight whose shards have all
    /// answered; with `wait`, wait for all of them. Shards answer in
    /// stream order, so a cut still waiting means every later one is too.
    fn settle(&mut self, miner: &mut ShardedMiner, wait: bool) {
        while let Some((cut, span)) = self.in_flight.pop_front() {
            let done = if wait {
                Ok(cut.finish(miner))
            } else {
                cut.try_finish(miner)
            };
            match done {
                Ok(snap) => self.install(snap, span),
                Err(cut) => {
                    self.in_flight.push_front((cut, span));
                    return;
                }
            }
        }
    }

    /// Publish now and wait for it: install every cut in flight, and last
    /// a cut of everything routed so far. That cut is the barrier: it is
    /// answered once every shard has mined what was routed before it
    /// (and, with a log, once that is durable).
    fn publish(&mut self, miner: &mut ShardedMiner) {
        self.request(miner);
        self.settle(miner, true);
    }

    fn install(&mut self, snap: StreamSnapshot, span: Span) {
        let epoch = self.cell.install(Arc::new(snap));
        span.finish();
        self.stats.publishes += 1;
        self.stats.final_epoch = epoch;
        self.metrics.snapshot_swaps.inc();
        self.metrics.epoch.set(epoch as i64);
    }
}

/// The worker's end of the ring. Popping wakes parked producers once the
/// ring has drained to half its capacity, and dropping it — the worker's
/// exit, normal or unwinding — stops the tier: the stop flag is raised,
/// what is left in the ring is dropped (a `Flush` op's sender with it, so
/// its caller's barrier fails instead of waiting forever) and parked
/// producers are woken to find the stop.
struct Intake {
    rx: Consumer<IngestOp>,
    shared: Arc<Shared>,
    /// Parked producers were woken since the ring was last seen over half
    /// full with one waiting, or nobody was waiting.
    woken: bool,
}

impl Intake {
    /// The oldest op, if any. With nobody parked this costs one load
    /// beyond the pop.
    fn pop(&mut self) -> Option<IngestOp> {
        let Some(op) = self.rx.try_pop() else {
            // The cold side of the Dekker pair in `park_and_push`: a
            // producer that raised `waiters` after its last look at the
            // ring is seen here, however the loads after the pops ran.
            // ord: SeqCst fence pairs with the one after the producer's
            // raise of `waiters`.
            atomic::fence(Ordering::SeqCst);
            // ord: ordered by the fence above.
            if self.shared.waiters.load(Ordering::Relaxed) != 0 {
                self.shared.wake_producers();
            }
            return None;
        };
        // ord: a hint; a waiter this load misses is woken by a later pop
        // or on the empty ring, where the fenced load sees it.
        if self.shared.waiters.load(Ordering::Relaxed) == 0
            || self.rx.len() > self.rx.capacity() / 2
        {
            self.woken = false;
        } else if !self.woken {
            self.woken = true;
            self.shared.wake_producers();
        }
        Some(op)
    }
}

impl Drop for Intake {
    fn drop(&mut self) {
        // ord: SeqCst, as shutdown's store: parked producers read the flag
        // after the notify below, under the lock that orders them.
        self.shared.stop.store(true, Ordering::SeqCst);
        while self.rx.try_pop().is_some() {}
        self.shared.wake_producers();
    }
}

/// The ingest worker: drain the ring into the miner, request a cut on
/// cadence and install each once the shards have answered it, park when
/// idle, drain-and-exit on stop.
fn ingest_worker(
    mut miner: ShardedMiner,
    rx: Consumer<IngestOp>,
    cell: Arc<SnapshotCell>,
    shared: Arc<Shared>,
    publish_every: u64,
) -> ServeStats {
    let m = shared.metrics.clone();
    let mut publisher = Publisher {
        cell,
        metrics: m.clone(),
        in_flight: VecDeque::new(),
        stats: ServeStats {
            events: 0,
            forgets: 0,
            publishes: 0,
            final_epoch: 0,
        },
    };
    // Declared last, so a panic drops it first: producers are released
    // before the miner's shards are joined.
    let mut intake = Intake {
        rx,
        shared: Arc::clone(&shared),
        woken: false,
    };
    let route_batch = miner.config().route_batch;
    let mut since_publish = 0u64;
    // Ops routed since the cuts in flight were last looked at: they are
    // looked at once a route batch, and whenever the ring is empty.
    let mut since_settle = 0usize;
    let mut spins = 0u32;
    loop {
        match intake.pop() {
            Some(op) => {
                spins = 0;
                match op {
                    IngestOp::Op(op @ WalOp::Ingest { .. }) => {
                        miner.route_op(op);
                        publisher.stats.events += 1;
                        since_publish += 1;
                        if publish_every > 0 && since_publish >= publish_every {
                            since_publish = 0;
                            m.ring_depth.set(intake.rx.len() as i64);
                            publisher.request(&mut miner);
                        }
                    }
                    IngestOp::Op(op @ WalOp::Forget(_)) => {
                        miner.route_op(op);
                        publisher.stats.forgets += 1;
                    }
                    IngestOp::Publish => {
                        since_publish = 0;
                        publisher.publish(&mut miner);
                    }
                    IngestOp::Flush(ack) => {
                        since_publish = 0;
                        publisher.publish(&mut miner);
                        // A hung-up flusher is not an error.
                        let _ = ack.send(());
                    }
                    #[cfg(test)]
                    IngestOp::Hold(gate) => {
                        assert!(gate.recv().is_ok(), "injected serve worker panic");
                    }
                }
                since_settle += 1;
                if since_settle >= route_batch {
                    since_settle = 0;
                    publisher.settle(&mut miner, false);
                }
            }
            None => {
                publisher.settle(&mut miner, false);
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
                    if intake.rx.is_empty() && !shared.stop.load(Ordering::SeqCst) {
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
    // Final consistent publication: it reflects every drained event.
    publisher.publish(&mut miner);
    m.ring_depth.set(0);
    publisher.stats
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
    fn cadence_cuts_install_in_order_on_the_window_grid() {
        // The worker requests each cadence cut and routes on; each must
        // still be installed, in order, at exactly its stream position.
        let trace = WorkloadSpec::hp().scaled(0.01).generate();
        let every = 512u64;
        let windows = 40u64;
        let serve = FarmerServe::spawn(ServeConfig::default().with_publish_every(every));
        let cell = Arc::clone(serve.cell());
        let mut tx = serve.handle();
        let mut last = 0u64;
        for e in trace.stream().take((windows * every) as usize) {
            assert!(tx.ingest_event(&trace, &e));
            let (epoch, snap) = cell.load();
            if epoch != last {
                assert!(epoch > last, "epoch {epoch} installed after {last}");
                assert_eq!(snap.events, epoch * every, "cut {epoch} is off the grid");
                last = epoch;
            }
        }
        let stats = serve.shutdown();
        assert_eq!(stats.events, windows * every);
        // Every cadence cut, then the shutdown publication.
        assert_eq!(stats.publishes, windows + 1);
        assert_eq!(stats.final_epoch, windows + 1);
    }

    #[test]
    fn flush_returns_after_every_cut_in_flight_is_installed() {
        // A cut a route batch: a flush right after the last push finds
        // cuts in flight, and must install each before its own.
        let trace = WorkloadSpec::hp().scaled(0.01).generate();
        let cfg = ServeConfig::default();
        let every = cfg.stream.route_batch as u64;
        let serve = FarmerServe::spawn(cfg.with_publish_every(every));
        let mut tx = serve.handle();
        let n = 64 * every + 5;
        for e in trace.stream().take(n as usize) {
            assert!(tx.ingest_event(&trace, &e));
        }
        serve.flush();
        let (epoch, snap) = serve.cell().load();
        assert_eq!(epoch, n / every + 1, "a cadence cut was not installed");
        assert_eq!(snap.events, n);
        let stats = serve.shutdown();
        assert_eq!(stats.publishes, n / every + 2);
    }

    #[test]
    fn ingest_after_shutdown_is_refused() {
        let serve = FarmerServe::spawn(ServeConfig::default());
        let mut tx = serve.handle();
        let trace = WorkloadSpec::ins().scaled(0.005).generate();
        assert!(tx.ingest_event(&trace, &trace.events[0]));
        let _ = serve.shutdown();
        // The worker is gone: nothing pushed now would be mined, so the
        // very first push is refused, not only one that meets a full ring
        // (which would otherwise spin forever).
        assert!(!tx.ingest_event(&trace, &trace.events[0]));
        assert!(!tx.forget(trace.events[0].file));
        for e in trace.stream().take(5000) {
            assert!(!tx.ingest_event(&trace, &e));
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
        tx.forget(trace.events[0].file);
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
        assert_eq!(obs.counter("serve.ingest_forgets"), Some(1));
        // Every producer call is timed, an ingest or a forget.
        assert_eq!(
            obs.histogram("serve.ingest_call_ns").unwrap().count,
            trace.len() as u64 + 1
        );
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
        assert_eq!(obs.histogram("serve.ingest_call_ns"), None);
        assert_eq!(obs.gauge("serve.readers"), None);
        assert_eq!(obs.histogram("serve.reader0.query_ns"), None);
    }

    /// Yield until `done` holds: how a test waits for another thread to
    /// reach a state it cannot signal.
    fn until(done: impl Fn() -> bool) {
        while !done() {
            thread::yield_now();
        }
    }

    fn req(file: u32) -> Request {
        Request {
            file: FileId::new(file),
            uid: farmer_trace::UserId::new(1),
            pid: farmer_trace::ProcId::new(1),
            host: farmer_trace::HostId::new(1),
            dev: farmer_trace::DevId::new(1),
        }
    }

    /// A tier with a two-slot ring whose worker is held: the ring is
    /// empty, and the returned gate resumes the worker (or, dropped,
    /// kills it).
    fn held_tier() -> (FarmerServe, mpsc::Sender<()>) {
        let mut cfg = ServeConfig::default();
        cfg.ring_capacity = 2;
        let serve = FarmerServe::spawn(cfg);
        let gate = serve.hold_worker();
        // The worker has taken the hold op off the ring.
        until(|| serve.producer.is_empty());
        (serve, gate)
    }

    /// Fill the held tier's ring and park one more producer on it.
    fn park_a_producer(serve: &FarmerServe) -> thread::JoinHandle<bool> {
        let mut tx = serve.handle();
        assert!(tx.ingest(req(1), None) && tx.ingest(req(2), None));
        let parked = thread::spawn(move || tx.ingest(req(3), None));
        let shared = Arc::clone(&serve.shared);
        // ord: a test's poll; the count is read again until it is seen.
        until(|| shared.waiters.load(Ordering::SeqCst) == 1);
        parked
    }

    #[test]
    fn parked_producers_are_never_stranded() {
        // A two-slot ring keeps both producers parking and waking all the
        // way through, flushes included: a lost wake-up hangs this test.
        let trace = WorkloadSpec::hp().scaled(0.01).generate();
        let reg = Registry::enabled();
        let mut cfg = ServeConfig::default();
        cfg.ring_capacity = 2;
        let serve = FarmerServe::spawn_instrumented(cfg, &reg);
        let per = 20_000;
        thread::scope(|s| {
            for p in 0..2 {
                let (serve, trace) = (&serve, &trace);
                s.spawn(move || {
                    let mut tx = serve.handle();
                    for (i, e) in trace.stream().skip(p * per).take(per).enumerate() {
                        assert!(tx.ingest_event(trace, &e));
                        if i % 3000 == 2999 {
                            serve.flush();
                        }
                    }
                });
            }
        });
        serve.flush();
        assert_eq!(serve.reader().snapshot().events, 2 * per as u64);
        let obs = reg.snapshot();
        assert!(obs.counter("serve.backpressure_waits").unwrap() > 0);
        assert_eq!(serve.shutdown().events, 2 * per as u64);
    }

    #[test]
    fn a_parked_producer_returns_once_shutdown_runs() {
        let (serve, gate) = held_tier();
        let parked = park_a_producer(&serve);
        let shared = Arc::clone(&serve.shared);
        let stopper = thread::spawn(move || serve.shutdown());
        // ord: a test's poll; the flag is read again until it is seen.
        until(|| shared.stop.load(Ordering::SeqCst));
        gate.send(()).expect("the worker waits at its gate");
        assert!(!parked.join().unwrap(), "a push after the stop landed");
        let stats = stopper.join().unwrap();
        assert_eq!(stats.events, 2, "what entered before the stop is mined");
    }

    #[test]
    #[should_panic(expected = "serve ingest worker panicked")]
    fn a_dead_worker_releases_a_parked_producer() {
        let (serve, gate) = held_tier();
        let parked = park_a_producer(&serve);
        drop(gate); // the worker panics at its hold
        assert!(!parked.join().unwrap(), "a push into a dead tier landed");
        assert!(!serve.handle().ingest(req(4), None));
        // Re-raises the worker's panic.
        serve.shutdown();
    }

    #[test]
    #[should_panic(expected = "serve ingest worker died during flush")]
    fn a_dead_worker_fails_a_pending_flush() {
        let (serve, gate) = held_tier();
        thread::scope(|s| {
            let flusher = s.spawn(|| serve.flush());
            // The flush op waits in the ring behind the held worker.
            until(|| serve.producer.len() == 1);
            drop(gate);
            let died = flusher
                .join()
                .expect_err("a flush into a dead tier returned");
            std::panic::resume_unwind(died);
        });
    }
}
