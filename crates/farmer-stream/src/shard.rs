//! The shard layer: N miner shards behind bounded channels.
//!
//! [`ShardedMiner`] is the parallel front of the streaming subsystem. It
//! mirrors the namespace partitioning of `farmer-mds::cluster`
//! (`Partition::Hash`, Fx-hash of the file id) but for *mining* instead of
//! serving: each shard is a [`StreamMiner`] that owns a disjoint slice of
//! the file namespace, on a `farmer-stream-shard-N` thread of its own.
//!
//! ## Routing broadcasts every operation; one shard is split in two
//!
//! A shard's window needs the full stream to carry the true global access
//! order (window context is what makes the shard union exactly equal the
//! batch model — see [`farmer_core::Farmer::observe_where`]), so every
//! shard sees every operation: its *stream stage* — the Space-Saving
//! counters, the look-ahead window, the learned paths, the per-pair
//! preparation (see [`farmer_core::stage`]) — runs over all of them, and
//! only updates from *owned* predecessors reach its *graph stage*. Where
//! the stream stage runs depends on the shard count:
//!
//! * **Several shards.** The router broadcasts each batch of operations
//!   and every shard thread runs its whole miner, so the graph work splits
//!   ~1/N and each shard repeats the stream walk. The stream stages of N
//!   shards on the router's one thread would make it the ceiling: run so
//!   at 4 shards (HP, default cap, 2 vCPUs) the router's thread took five
//!   times a shard thread's CPU, and the fleet ran slower than broadcast
//!   at 2 and at 4 shards.
//! * **One shard.** The shard thread would do everything while the router
//!   idles, so the miner is split ([`StreamMiner::into_stages`]): its
//!   stream stage ([`crate::ShardStream`]) runs on the router's thread —
//!   the serving tier's worker, or the caller of a bare fleet or a
//!   [`crate::DurableMiner`] — which buffers a batch of operations as
//!   before and prepares their steps as it dispatches them, so routing one
//!   operation costs the caller what it did, and sends the shard thread
//!   compact steps; its graph stage ([`crate::ShardGraph`]) applies them there (the
//!   access count, the edge updates, the prune ticks, the victims' nodes
//!   and edges) and answers cuts. A saturated shard thread gains that
//!   throughput at the same total work: HP through one shard on 2 vCPUs,
//!   528 → 337 ns/event.
//!
//! Operations enter as [`WalOp`]s — the value the log records is the value
//! every shard mines from, so an access or a forget has one
//! representation from the caller to the miners ([`ShardedMiner::route_op`]
//! is the one way in; `route` and `route_forget` construct the op). A path
//! is a shared value ([`farmer_trace::FilePath`]): the path each stream
//! stage learns costs a reference-count bump, never a copy, and nothing
//! between the caller and the miners decides which path a file is learned
//! under. Accesses and forgets travel in one batched FIFO per shard, so a
//! forget lands in every shard at exactly its position in the stream — the
//! property that keeps the sharded model equal to a batch miner forgetting
//! at the same point.
//!
//! Batches (`route_batch` operations, or their steps) travel over
//! *bounded* channels (`channel_capacity` batches): a shard that falls
//! behind eventually blocks the router — back-pressure, not unbounded
//! queueing — so resident memory stays capped end to end. A step is
//! compact (see [`farmer_core::stage`]): an HP event's is about 110 bytes,
//! an INS event's about 70.
//!
//! ## Consistent cuts: request, then finish
//!
//! A snapshot of the whole fleet at an exact stream position is a *cut*.
//! [`ShardedMiner::request_snapshot`] dispatches the buffered batch, sends
//! every shard a marker behind it and returns a [`PendingCut`] at once:
//! the router may go on routing, because FIFO order keeps every later
//! operation behind the marker. Each shard answers it once it has applied
//! everything ahead of it: the walk over its graph ([`StreamMiner::cut`]),
//! which is all of a cut the mining thread pays for, and for a checkpoint
//! export its [`MinerState`]. A split shard's marker carries what the
//! router's stream stage knows at the cut — event counts, tracked files,
//! evictions, its share of the resident bytes and, for an export, its half
//! of the image (counters, window, paths) — and the shard joins its graph
//! to it, into the same [`MinerState`] a one-thread miner exports. The cut is finished on the
//! caller's thread, by assembling each part's table
//! ([`ShardCut::assemble`]: the owner sort, the gather and the index) and
//! merging the parts in shard order: [`PendingCut::try_finish`] does so
//! only if every part is in, and never blocks; [`PendingCut::finish`]
//! waits for them. The tables are those a shard's own
//! [`StreamMiner::snapshot`] builds, bit for bit. `snapshot`,
//! `export_full` and `publish_into` are a request and a finish, so there
//! is one cut path, and a caller that waits for a cut waits as before.
//! A shard that dies before answering makes the finish re-raise its
//! panic. The serving tier requests its cadence cuts and finishes them
//! later; that is what keeps publication off its ingest path.
//!
//! ## Router ↔ committer ↔ shards: the commit stage
//!
//! The router is also where the operation stream is *ordered*, so it is
//! the component that holds the write-ahead log when there is one (the
//! durable tier, [`crate::durable`], attaches it). Every routed operation
//! is encoded into the log's buffer as it is routed, and a full batch is
//! *written* (`write_all`, no flush) before it leaves the router. What
//! the router never does is wait for the disk: with a log attached, one
//! `farmer-stream-commit` thread sits between it and the shard inboxes.
//! The router hands the committer every message it would have sent the
//! shards (one a shard), over one bounded channel (`channel_capacity` deep — a slow
//! disk blocks the router exactly as a slow shard does); the committer
//! loops *receive one → take whatever else is queued → one `fdatasync` →
//! forward the lot to the shards, in order*. Each sync therefore covers
//! however many batches arrived during the previous one — group commit
//! that adapts to the disk with no batch-size or timer knob — and it
//! overlaps with the router encoding the next batch and the shards mining
//! the previous one.
//!
//! **Log-before-mutate** holds as before: a batch reaches a shard only
//! after a sync that *started after* its bytes were written has returned,
//! so no graph ever holds an operation a power cut could lose. Markers
//! (`Snapshot`, `Export`, `Flush`) ride the same channel as the batches
//! rather than overtaking them, for two reasons: FIFO order from router
//! to shard — the whole consistency argument of a cut — stays one queue
//! discipline end to end, and a marker's answer (a published snapshot, a
//! checkpoint image, a `flush()` returning) then never describes an
//! operation that is not durable yet. With no log attached there is no
//! committer: the router sends straight to the shards.
//!
//! I/O errors are fatal to the miner: a durable tier that can no longer
//! write its log must stop accepting events rather than silently degrade
//! to a lossy one. The router panics on the first append or write error;
//! the committer panics on the first sync error, which closes its
//! channel, and the router's next send joins it and re-raises that panic
//! with its original message — the same path a dead shard takes.

use std::any::Any;
use std::io;
use std::sync::mpsc::{self, Receiver, SyncSender, TryRecvError};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

use farmer_core::{Request, Steps};
use farmer_obs::Registry;
use farmer_store::wal::{record_kind, Lsn, Wal, WalCompaction, WalError, WalSyncer};
use farmer_trace::{FileId, FilePath, MiningAction, Trace, TraceEvent};

use crate::durable::{encode_op_into, WalOp};
use crate::engine::{CutHead, MinerState, ShardGraph, ShardStream, StreamMiner};
use crate::metrics::StreamMetrics;
use crate::snapshot::{ShardCut, StreamSnapshot};
use crate::StreamConfig;

/// Router → shard messages. FIFO channel order is what makes snapshots
/// consistent: a marker enqueued after a set of batches is only answered
/// once exactly those batches have been mined. The router sends each shard
/// its own message of every kind, in shard order; a marker's copies share
/// one reply channel.
enum Msg {
    /// One route batch's operations, for a shard that runs its whole
    /// miner.
    Ops(Vec<WalOp>),
    /// The steps the router's stream stage prepared from one route batch,
    /// for a shard that runs its graph stage.
    Steps(Steps),
    /// Consistent-cut marker: answered with the shard's serving snapshot,
    /// walked but not assembled, and, for a checkpoint `export`, its
    /// complete miner state at the same cut — so a checkpoint's serving
    /// view and its resumable image can never disagree. A split shard
    /// joins its graph to the router's `front`.
    Cut {
        front: Option<FrontCut>,
        reply: mpsc::Sender<CutPart>,
        export: bool,
    },
    Flush(mpsc::Sender<()>),
    /// Test hook: the named shard stops at this marker until the gate
    /// yields a value, and its worker panics if the gate's sender hangs
    /// up instead.
    #[cfg(test)]
    Hold(usize, Arc<std::sync::Mutex<Receiver<()>>>),
}

/// What the router's stream stage knows of a split shard at a cut: what
/// the marker reports of its counts and bytes, and for an export the
/// stage's half of the shard's image.
struct FrontCut {
    head: CutHead,
    half: Option<MinerState>,
}

/// One shard's answer to a cut marker (the state only for an export).
type CutPart = (ShardCut, Option<MinerState>);

/// What a shard's thread runs (see the module docs).
#[expect(
    clippy::large_enum_variant,
    reason = "one value a shard thread holds for its life; a box would add an indirection to \
              every operation"
)]
enum Shard {
    /// The whole miner, on the operations the router forwards.
    Whole(StreamMiner),
    /// The graph stage, on the steps the router's stream stage prepares.
    Graph(ShardGraph),
}

/// What the router hands the commit stage (see the module docs).
enum Commit {
    /// Forward `msgs[i]` to shard `i` once the log is durable up to
    /// `upto`, the last LSN written when the messages were queued.
    Forward { msgs: Vec<Msg>, upto: Lsn },
    /// Compaction renamed a new file over the log: sync this handle from
    /// here on. Everything queued ahead of it was copied into the new
    /// file and synced there before the rename.
    Resync(WalSyncer),
    /// Test hook: the committer panics.
    #[cfg(test)]
    Poison,
}

/// The attached log and the commit stage behind it.
pub(crate) struct Journal {
    pub(crate) wal: Wal,
    tx: SyncSender<Commit>,
    committer: JoinHandle<()>,
}

/// Send the `i`th of `msgs` to shard `i`, in shard order; `false` once
/// one has hung up (or the fleet is already torn down and nobody is left
/// to hear it).
fn deliver(shards: &[SyncSender<Msg>], msgs: impl IntoIterator<Item = Msg>) -> bool {
    !shards.is_empty()
        && shards
            .iter()
            .zip(msgs)
            .all(|(tx, msg)| tx.send(msg).is_ok())
}

/// Hand `msgs`, one a shard, to the fleet: through the commit stage when a
/// log is attached, straight to the shards when not. `false` once the far
/// side has hung up.
fn send(
    journal: &Option<Journal>,
    shards: &[SyncSender<Msg>],
    msgs: impl Iterator<Item = Msg>,
) -> bool {
    match journal {
        Some(j) => {
            let upto = j.wal.written_lsn();
            let msgs = msgs.collect();
            j.tx.send(Commit::Forward { msgs, upto }).is_ok()
        }
        None => deliver(shards, msgs),
    }
}

/// A sharded, threaded, bounded-memory online miner.
pub struct ShardedMiner {
    cfg: StreamConfig,
    /// The one shard's stream stage, run here on the router's thread; with
    /// more shards, `None` (see the module docs).
    front: Option<ShardStream>,
    /// The operations routed since the last dispatch.
    ops: Vec<WalOp>,
    /// The shard inboxes — until a log is attached, when the committer
    /// takes them over and is the only thread that sends to a shard.
    shards: Vec<SyncSender<Msg>>,
    handles: Vec<JoinHandle<()>>,
    /// The write-ahead log and its commit stage, when the durable tier
    /// attached one: from then on every routed operation is appended to
    /// the log, and every message reaches the shards through the
    /// committer. Recovery replays with no log attached and attaches it
    /// afterwards, so replayed operations are not logged twice.
    pub(crate) journal: Option<Journal>,
    obs: StreamMetrics,
}

impl ShardedMiner {
    /// Spawn `cfg.num_shards` worker threads, each owning one shard's
    /// [`StreamMiner`] (with `cfg.node_cap` applying per shard).
    ///
    /// # Panics
    /// If `cfg` is not one a miner can run under
    /// ([`StreamConfig::validate`]); so do the other `spawn*`.
    pub fn spawn(cfg: StreamConfig) -> Self {
        Self::spawn_instrumented(cfg, &Registry::disabled())
    }

    /// [`ShardedMiner::spawn`] with observability: registers the
    /// `stream.*` metrics under `reg` and shares one [`StreamMetrics`] set
    /// between the router and every shard worker (relaxed-atomic handles,
    /// so per-shard increments sum into fleet totals for free). With a
    /// disabled registry this is exactly `spawn`.
    pub fn spawn_instrumented(cfg: StreamConfig, reg: &Registry) -> Self {
        let n = cfg.num_shards;
        let miners = (0..n)
            .map(|shard_id| StreamMiner::for_shard(cfg.clone(), shard_id, n))
            .collect();
        Self::launch(cfg, miners, reg)
    }

    /// Give each shard's miner (in shard order) a worker thread of its own
    /// behind a bounded channel, all sharing one `stream.*` metric set. A
    /// lone shard is split into its two stages, and its stream stage stays
    /// with the router.
    fn launch(cfg: StreamConfig, miners: Vec<StreamMiner>, reg: &Registry) -> Self {
        cfg.validate();
        let obs = StreamMetrics::new(&reg.scope("stream"));
        let split = miners.len() == 1;
        let mut front = None;
        let mut shards = Vec::with_capacity(miners.len());
        let mut handles = Vec::with_capacity(miners.len());
        for (shard_id, mut miner) in miners.into_iter().enumerate() {
            let (tx, rx) = mpsc::sync_channel::<Msg>(cfg.channel_capacity);
            miner.instrument(obs.clone());
            let shard = if split {
                let (stream, graph) = miner.into_stages();
                front = Some(stream);
                Shard::Graph(graph)
            } else {
                Shard::Whole(miner)
            };
            #[expect(
                clippy::expect_used,
                reason = "thread-spawn failure at miner startup is unrecoverable resource \
                          exhaustion"
            )]
            handles.push(
                thread::Builder::new()
                    .name(format!("farmer-stream-shard-{shard_id}"))
                    .spawn(move || shard_worker(shard, rx))
                    .expect("spawn shard worker"),
            );
            shards.push(tx);
        }
        ShardedMiner {
            ops: Vec::with_capacity(cfg.route_batch),
            cfg,
            front,
            shards,
            handles,
            journal: None,
            obs,
        }
    }

    /// Attach the write-ahead log: spawn the commit stage behind the
    /// shard inboxes and route through it from here on. Anything routed
    /// before (a recovery's replay) is dispatched first, unlogged.
    pub(crate) fn attach_wal(&mut self, wal: Wal) -> io::Result<()> {
        self.dispatch();
        let syncer = wal.syncer()?;
        let depth = self.cfg.channel_capacity;
        let (tx, rx) = mpsc::sync_channel(depth);
        let shards = std::mem::take(&mut self.shards);
        let committer = thread::Builder::new()
            .name("farmer-stream-commit".into())
            .spawn(move || commit_worker(&rx, syncer, &shards, depth))?;
        self.journal = Some(Journal { wal, tx, committer });
        Ok(())
    }

    /// Compact the attached log ([`Wal::compact_before`]) and hand the
    /// committer the file that replaced it — it would otherwise keep
    /// syncing the orphaned one.
    pub(crate) fn compact_wal(&mut self, keep: Lsn) -> Result<WalCompaction, WalError> {
        let Some(j) = self.journal.as_mut() else {
            return Ok(WalCompaction::default());
        };
        let report = j.wal.compact_before(keep)?;
        if report.pages_dropped > 0 && j.tx.send(Commit::Resync(j.wal.syncer()?)).is_err() {
            self.propagate_worker_panic("compaction");
        }
        Ok(report)
    }

    /// Route one operation into the subsystem: log it (when a log is
    /// attached), buffer it, and dispatch the batch once it is full. Every
    /// shard mines it after exactly the operations routed before this
    /// call. Blocks only when every queue slot is full (back-pressure).
    pub fn route_op(&mut self, op: WalOp) {
        if let Some(j) = self.journal.as_mut() {
            #[expect(
                clippy::expect_used,
                reason = "an operation that cannot be logged must not be mined: the durability \
                          contract would be void"
            )]
            j.wal
                .append_with(record_kind::OP, |w| encode_op_into(w, &op))
                .expect("wal append failed; durable miner cannot continue");
        }
        self.ops.push(op);
        if self.ops.len() >= self.cfg.route_batch {
            self.dispatch();
        }
    }

    /// Route one request ([`ShardedMiner::route_op`] of an ingest; the
    /// path is shared, not copied).
    pub fn route(&mut self, req: Request, path: Option<&FilePath>) {
        let path = path.cloned();
        self.route_op(WalOp::Ingest { req, path });
    }

    /// Route one trace event under [`farmer_trace::Op::mining_action`].
    pub fn route_event(&mut self, trace: &Trace, e: &TraceEvent) {
        match e.op.mining_action() {
            MiningAction::Observe => self.route(Request::from_event(e), trace.path_of(e.file)),
            MiningAction::Forget => self.route_forget(e.file),
            MiningAction::Skip => {}
        }
    }

    /// Route a forget tombstone (unlink/churn): every shard drops all
    /// state for `file` (see [`StreamMiner::forget`]). Not counted as an
    /// event.
    pub fn route_forget(&mut self, file: FileId) {
        self.route_op(WalOp::Forget(file));
    }

    /// One `marker` a shard, to the fleet (see [`send`]).
    fn send_markers(&self, marker: impl Fn() -> Msg) -> bool {
        let markers = self.handles.iter().map(|_| marker());
        send(&self.journal, &self.shards, markers)
    }

    /// Each shard's message for the batch routed since the last dispatch,
    /// in shard order, leaving an empty batch as large in its place: the
    /// steps the stream stage here prepares from the batch now, or a copy
    /// of the operations for every shard.
    fn batches(&mut self) -> impl Iterator<Item = Msg> {
        let mut steps = self.front.as_mut().map(|stream| {
            for op in self.ops.drain(..) {
                stream.route(&op);
            }
            stream.take_steps()
        });
        let mut ops = if steps.is_none() {
            let fresh = Vec::with_capacity(self.cfg.route_batch);
            std::mem::replace(&mut self.ops, fresh)
        } else {
            Vec::new()
        };
        let n = self.handles.len();
        (1..=n).map(move |i| match steps.take() {
            Some(steps) => Msg::Steps(steps),
            None if i < n => Msg::Ops(ops.clone()),
            None => Msg::Ops(std::mem::take(&mut ops)),
        })
    }

    /// Send every shard its steps for the pending batch — with a log
    /// attached, after writing the batch's records and by way of the
    /// committer, which syncs them before any shard can mine them.
    fn dispatch(&mut self) {
        if self.ops.is_empty() {
            return;
        }
        if let Some(j) = self.journal.as_mut() {
            #[expect(
                clippy::expect_used,
                reason = "a batch whose records are not in the log must not be mined"
            )]
            j.wal
                .write()
                .expect("wal write failed; durable miner cannot continue");
        }
        self.obs.batch_events.record(self.ops.len() as u64);
        let batches = self.batches();
        if !send(&self.journal, &self.shards, batches) {
            self.propagate_worker_panic("dispatch");
        }
    }

    /// Barrier: block until every shard has mined everything routed so
    /// far — and, with a log attached, until all of it is durable.
    pub fn flush(&mut self) {
        self.dispatch();
        let (ack_tx, ack_rx) = mpsc::channel();
        let sent = self.send_markers(|| Msg::Flush(ack_tx.clone()));
        drop(ack_tx);
        // Ends once every copy of the marker has been answered or dropped.
        if !sent || ack_rx.iter().count() != self.handles.len() {
            self.propagate_worker_panic("flush");
        }
    }

    /// Take a consistent snapshot: the merged Correlator Lists of every
    /// shard, reflecting exactly the events routed before this call.
    /// [`ShardedMiner::request_snapshot`] then [`PendingCut::finish`].
    pub fn snapshot(&mut self) -> StreamSnapshot {
        self.request_snapshot().finish(self)
    }

    /// Take a consistent snapshot *and* the full per-shard state images
    /// at the same cut — the checkpoint-image export. One barrier
    /// message per shard returns both halves together, so the serving
    /// snapshot embedded in a checkpoint always describes exactly the
    /// state the image resumes from.
    pub fn export_full(&mut self) -> (StreamSnapshot, Vec<MinerState>) {
        let mut cut = self.request_cut("export", true);
        cut.collect(self, true);
        cut.merge(self)
    }

    /// Request a consistent snapshot without waiting for it: dispatch
    /// what is buffered, send every shard the cut marker (through the
    /// commit stage when a log is attached) and return. The marker sits
    /// in each shard's queue behind exactly the operations routed before
    /// this call, so routing may go on at once; the returned
    /// [`PendingCut`] describes this prefix whenever it is finished.
    /// Blocks only as a dispatch does, on a full queue.
    pub fn request_snapshot(&mut self) -> PendingCut {
        self.request_cut("snapshot", false)
    }

    /// The one way a cut starts (see [`ShardedMiner::request_snapshot`]).
    /// When the stream stage runs here, the marker carries what it knows
    /// of the shard now, and for an export its half of the image.
    fn request_cut(&mut self, context: &'static str, export: bool) -> PendingCut {
        self.dispatch();
        let (reply, replies) = mpsc::channel();
        let front = self.front.as_ref();
        let sent = self.send_markers(|| Msg::Cut {
            front: front.map(|s| FrontCut {
                head: s.head(),
                half: export.then(|| s.export_state()),
            }),
            reply: reply.clone(),
            export,
        });
        drop(reply);
        if !sent {
            self.propagate_worker_panic(context);
        }
        PendingCut {
            replies,
            parts: Vec::with_capacity(self.handles.len()),
            shards: self.handles.len(),
            context,
        }
    }

    /// Spawn a fleet whose shards resume from exported state images
    /// (one per shard, any order) instead of starting empty. `cfg` must
    /// match the configuration the images were taken under, including
    /// the shard count — the images carry their shard identity, and the
    /// restored fleet continues the stream bit for bit.
    pub fn spawn_restored(cfg: StreamConfig, states: &[MinerState]) -> Self {
        Self::spawn_restored_instrumented(cfg, states, &Registry::disabled())
    }

    /// [`ShardedMiner::spawn_restored`] with observability (see
    /// [`ShardedMiner::spawn_instrumented`]).
    pub fn spawn_restored_instrumented(
        cfg: StreamConfig,
        states: &[MinerState],
        reg: &Registry,
    ) -> Self {
        let n = cfg.num_shards;
        assert_eq!(states.len(), n, "one state image per shard required");
        let mut by_shard: Vec<&MinerState> = states.iter().collect();
        by_shard.sort_by_key(|s| s.shard_id);
        let mut miners = Vec::with_capacity(n);
        for (shard_id, state) in by_shard.into_iter().enumerate() {
            assert_eq!(
                (state.shard_id as usize, state.num_shards as usize),
                (shard_id, n),
                "state image shard identity does not match the fleet"
            );
            miners.push(StreamMiner::from_state(cfg.clone(), state));
        }
        Self::launch(cfg, miners, reg)
    }

    /// Publication hook for the serving tier: take a consistent
    /// [`ShardedMiner::snapshot`] and install it into `cell`, returning
    /// the new epoch. Readers registered on the cell pick the snapshot up
    /// wait-free; see [`crate::publish`].
    pub fn publish_into(&mut self, cell: &crate::publish::SnapshotCell) -> u64 {
        let snap = self.snapshot();
        cell.install(Arc::new(snap))
    }

    /// Number of miner shards.
    pub fn num_shards(&self) -> usize {
        self.handles.len()
    }

    /// The active configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.cfg
    }

    /// A worker hung up on us: join the whole fleet and re-raise the
    /// first panic payload on the caller, so a shard's (or the
    /// committer's) panic surfaces with its original message instead of
    /// stranding the router on a dead channel (or silently losing that
    /// shard's slice of the namespace).
    fn propagate_worker_panic(&mut self, context: &str) -> ! {
        match self.hang_up() {
            Some(p) => std::panic::resume_unwind(p),
            #[expect(
                clippy::panic,
                reason = "a worker that is gone without a payload still died; propagating beats \
                          mining into a lost shard"
            )]
            None => panic!("stream worker exited unexpectedly during {context}"),
        }
    }

    /// Disconnect and join every worker: the committer before the shards
    /// (it holds their inboxes, so they only see the hang-up once it has
    /// forwarded what it was handed and exited). Returns the first panic
    /// payload, if a worker died of one.
    fn hang_up(&mut self) -> Option<Box<dyn Any + Send>> {
        self.shards.clear();
        let committer = self.journal.take().map(|j| {
            drop(j.tx);
            j.committer
        });
        let mut payload = None;
        for h in committer.into_iter().chain(self.handles.drain(..)) {
            if let Err(p) = h.join() {
                payload.get_or_insert(p);
            }
        }
        payload
    }

    /// Test hook: make one shard's worker panic on its next message.
    #[cfg(test)]
    pub(crate) fn poison_shard(&mut self, shard: usize) {
        drop(self.hold_shard(shard));
    }

    /// Test hook: stop one shard's worker at this point of the stream. It
    /// resumes when the returned sender sends, and panics once the
    /// sender is dropped instead.
    #[cfg(test)]
    pub(crate) fn hold_shard(&mut self, shard: usize) -> mpsc::Sender<()> {
        let (gate, held) = mpsc::channel();
        let held = Arc::new(std::sync::Mutex::new(held));
        let _ = self.send_markers(|| Msg::Hold(shard, Arc::clone(&held)));
        gate
    }

    /// Test hook: make the committer panic on its next message.
    #[cfg(test)]
    pub(crate) fn poison_committer(&mut self) {
        let j = self.journal.as_ref().expect("a log is attached");
        let _ = j.tx.send(Commit::Poison);
    }
}

impl Drop for ShardedMiner {
    fn drop(&mut self) {
        // Deliver what is buffered (best-effort) — unless there is a log:
        // a partial batch was never written to it, and what is not logged
        // is not mined. Then hang up: workers exit when their channel
        // disconnects.
        if self.journal.is_none() && !self.ops.is_empty() {
            let batches = self.batches();
            deliver(&self.shards, batches);
        }
        // A worker panic must not vanish just because the miner was
        // dropped — re-raise it (unless we are already unwinding, where a
        // double panic would abort).
        if let Some(p) = self.hang_up() {
            if !thread::panicking() {
                std::panic::resume_unwind(p);
            }
        }
    }
}

/// A consistent cut in flight, from [`ShardedMiner::request_snapshot`]:
/// the marker is on its way through every shard's queue, and each shard
/// answers it with its part, walked but not assembled, once it has mined
/// the operations ahead of it. Finishing assembles the parts and merges
/// them, in shard order, into the snapshot of exactly the prefix routed
/// before the request.
///
/// A shard that dies before answering makes finishing re-raise its
/// panic, as any other barrier does; a cut that is dropped unfinished
/// costs the shards one walk each and nothing else.
#[must_use = "a requested cut has no snapshot until it is finished"]
pub struct PendingCut {
    replies: Receiver<CutPart>,
    /// The answers taken so far, in arrival order.
    parts: Vec<CutPart>,
    shards: usize,
    context: &'static str,
}

impl PendingCut {
    /// The snapshot, if every shard has answered by now; the cut back,
    /// unchanged but for the answers it took, if not. Never blocks.
    ///
    /// # Panics
    /// Re-raises a shard's panic if one died before answering.
    pub fn try_finish(mut self, miner: &mut ShardedMiner) -> Result<StreamSnapshot, PendingCut> {
        if self.collect(miner, false) {
            Ok(self.merge(miner).0)
        } else {
            Err(self)
        }
    }

    /// Wait for every shard's answer and return the snapshot.
    ///
    /// # Panics
    /// Re-raises a shard's panic if one died before answering.
    pub fn finish(mut self, miner: &mut ShardedMiner) -> StreamSnapshot {
        self.collect(miner, true);
        self.merge(miner).0
    }

    /// Take the answers that have arrived, waiting for the rest when
    /// `wait`; `true` once every shard's is in. A reply channel that
    /// closes short means a worker died mid-cut: its panic surfaces here
    /// instead of a partial (silently shard-less) snapshot.
    fn collect(&mut self, miner: &mut ShardedMiner, wait: bool) -> bool {
        while self.parts.len() < self.shards {
            let next = if wait {
                self.replies.recv().map_err(|_| TryRecvError::Disconnected)
            } else {
                self.replies.try_recv()
            };
            match next {
                Ok(part) => self.parts.push(part),
                Err(TryRecvError::Empty) => return false,
                Err(TryRecvError::Disconnected) => miner.propagate_worker_panic(self.context),
            }
        }
        true
    }

    /// Assemble each collected part's table here, on the finishing thread
    /// ([`ShardCut::assemble`]), and merge them. Replies arrive in
    /// completion order (scheduling-dependent); merging in shard order
    /// makes the snapshot — including the iteration order of its table —
    /// a deterministic function of the routed stream. Both steps are timed
    /// as `stream.snapshot_merge_ns`.
    fn merge(self, miner: &ShardedMiner) -> (StreamSnapshot, Vec<MinerState>) {
        let mut parts = self.parts;
        parts.sort_by_key(|(part, _)| part.shard_id);
        let (cuts, states): (Vec<ShardCut>, Vec<Option<MinerState>>) = parts.into_iter().unzip();
        let span = miner.obs.snapshot_merge_ns.span();
        let snap = StreamSnapshot::merge(cuts.into_iter().map(ShardCut::assemble));
        span.finish();
        miner.obs.tracked_files.set(snap.tracked_files as i64);
        miner.obs.state_bytes.set(snap.state_bytes as i64);
        (snap, states.into_iter().flatten().collect())
    }
}

/// The commit stage: receive one message, take whatever else is queued
/// (at most `depth` in all, so a group — and with it what a power cut can
/// lose — stays bounded), make the log durable up to the newest of them
/// with one sync, forward them to every shard in order. Exits when the
/// router hangs up, or when a shard has (the router then finds the
/// channel closed and joins the fleet).
fn commit_worker(
    rx: &Receiver<Commit>,
    mut log: WalSyncer,
    shards: &[SyncSender<Msg>],
    depth: usize,
) {
    let mut group = Vec::with_capacity(depth);
    let mut durable: Lsn = 0;
    while let Ok(first) = rx.recv() {
        let mut upto = durable;
        for c in std::iter::once(first).chain(rx.try_iter()).take(depth) {
            match c {
                Commit::Forward {
                    msgs,
                    upto: written,
                } => {
                    upto = written;
                    group.push(msgs);
                }
                Commit::Resync(fresh) => log = fresh,
                #[cfg(test)]
                Commit::Poison => panic!("injected committer panic"),
            }
        }
        // Markers queued behind an already-synced batch need no second
        // sync; everything else waits for one that starts now, after its
        // bytes were written.
        if upto > durable {
            #[expect(
                clippy::expect_used,
                reason = "forwarding a batch the disk refused would mine what a crash loses; the \
                          router re-raises this"
            )]
            log.sync(upto)
                .expect("wal sync failed; durable miner cannot continue");
            durable = upto;
        }
        for msgs in group.drain(..) {
            if !deliver(shards, msgs) {
                return;
            }
        }
    }
}

/// Worker loop: mine each batch — its operations with the whole miner,
/// or its steps with the graph stage — answer markers, exit on
/// disconnect.
fn shard_worker(mut shard: Shard, rx: Receiver<Msg>) {
    for msg in rx {
        match (msg, &mut shard) {
            (Msg::Ops(ops), Shard::Whole(miner)) => {
                for op in &ops {
                    match op {
                        WalOp::Ingest { req, path } => miner.ingest(*req, path.as_ref()),
                        WalOp::Forget(file) => miner.forget(*file),
                    }
                }
            }
            (Msg::Steps(steps), Shard::Graph(graph)) => graph.apply(&steps),
            (Msg::Cut { reply, export, .. }, Shard::Whole(miner)) => {
                let _ = reply.send((miner.cut(), export.then(|| miner.export_state())));
            }
            (
                Msg::Cut {
                    front: Some(front),
                    reply,
                    ..
                },
                Shard::Graph(graph),
            ) => {
                let _ = reply.send(graph.cut(front.head, front.half));
            }
            (Msg::Flush(ack), _) => {
                let _ = ack.send(());
            }
            #[cfg(test)]
            (Msg::Hold(id, gate), shard) => {
                let held = match shard {
                    Shard::Whole(miner) => miner.snapshot().shard_id,
                    Shard::Graph(graph) => graph.shard_id,
                };
                if held == id {
                    let resumed = gate.lock().is_ok_and(|g| g.recv().is_ok());
                    assert!(resumed, "injected shard worker panic");
                }
            }
            (Msg::Ops(_) | Msg::Steps(_) | Msg::Cut { .. }, _) => {
                unreachable!("the router sends a shard only what its composition mines")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use farmer_core::{Farmer, FarmerConfig};
    use farmer_trace::MiningAction;
    use farmer_trace::{FileId, WorkloadSpec};
    use std::collections::HashSet;

    #[test]
    fn snapshot_reflects_exactly_the_routed_prefix() {
        let trace = WorkloadSpec::ins().scaled(0.01).generate();
        let mut m = ShardedMiner::spawn(StreamConfig::default().with_shards(3));
        let half = trace.len() / 2;
        for e in trace.events.iter().take(half) {
            m.route_event(&trace, e);
        }
        let snap = m.snapshot();
        assert_eq!(snap.events, half as u64);
        assert_eq!(snap.shards, 3);
        for e in trace.events.iter().skip(half) {
            m.route_event(&trace, e);
        }
        let snap2 = m.snapshot();
        assert_eq!(snap2.events, trace.len() as u64);
        assert!(snap2.num_lists() >= snap.num_lists() / 2, "state collapsed");
    }

    #[test]
    fn sharded_union_equals_batch_exactly_without_eviction() {
        let trace = WorkloadSpec::hp().scaled(0.01).generate();
        let cfg = StreamConfig::default()
            .with_shards(4)
            .with_node_cap(1 << 20);
        let mut m = ShardedMiner::spawn(cfg);
        for e in &trace.events {
            m.route_event(&trace, e);
        }
        let snap = m.snapshot();
        let batch = Farmer::mine_trace(&trace, FarmerConfig::default());
        for f in 0..trace.num_files() as u32 {
            let want = batch.correlators(FileId::new(f));
            match snap.correlators(FileId::new(f)) {
                Some(got) => {
                    assert_eq!(got.len(), want.len(), "list length diverged for f{f}");
                    for (g, w) in got.iter().zip(want.iter()) {
                        assert_eq!(g.file, w.file, "successor diverged for f{f}");
                        assert!((g.degree - w.degree).abs() < 1e-12);
                    }
                }
                None => assert!(want.is_empty(), "missing list for f{f}"),
            }
        }
    }

    #[test]
    fn routed_forgets_match_batch_forgets_exactly() {
        // Interleave unlink-style forgets with the stream: the sharded
        // union must equal a batch miner forgetting at the same positions.
        let trace = WorkloadSpec::hp().scaled(0.01).generate();
        let cfg = StreamConfig::default()
            .with_shards(3)
            .with_node_cap(1 << 20);
        let mut m = ShardedMiner::spawn(cfg.clone());
        let mut batch = Farmer::new(cfg.farmer.clone());
        for (i, e) in trace.events.iter().enumerate() {
            if i % 97 == 0 {
                let victim = e.file;
                m.route_forget(victim);
                batch.forget_file(victim);
            }
            m.route_event(&trace, e);
            batch.observe_event(&trace, e);
        }
        let snap = m.snapshot();
        for f in 0..trace.num_files() as u32 {
            let want = batch.correlators(FileId::new(f));
            match snap.correlators(FileId::new(f)) {
                Some(got) => {
                    assert_eq!(got.len(), want.len(), "list length diverged for f{f}");
                    for (g, w) in got.iter().zip(want.iter()) {
                        assert_eq!(g.file, w.file, "successor diverged for f{f}");
                        assert!((g.degree - w.degree).abs() < 1e-12);
                    }
                }
                None => assert!(want.is_empty(), "missing list for f{f}"),
            }
        }
        // Forgets are not events.
        assert_eq!(snap.events, trace.len() as u64);
    }

    #[test]
    fn recreated_file_is_learned_under_its_new_path() {
        // Unlink + re-create of one id under another path (inode reuse):
        // the forget drops the learned path in every shard, so the path
        // offered afterwards is the one to learn — the router's shared
        // copy of the old one must not shadow it. Each shard of the fleet
        // must end bit-identical to a bare miner fed the same stream.
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
        enum Step<'a> {
            See(u32, &'a FilePath),
            Forget(u32),
        }
        let mut script = vec![
            Step::See(7, &old),
            Step::See(8, &sibling),
            Step::Forget(7),
            Step::See(7, &new),
        ];
        for _ in 0..8 {
            script.push(Step::See(8, &sibling));
            script.push(Step::See(7, &new));
        }
        for shards in [1usize, 2] {
            let cfg = StreamConfig::default().with_shards(shards);
            let mut fleet = ShardedMiner::spawn(cfg.clone());
            let mut bare: Vec<StreamMiner> = (0..shards)
                .map(|id| StreamMiner::for_shard(cfg.clone(), id, shards))
                .collect();
            for step in &script {
                match *step {
                    Step::See(file, path) => {
                        fleet.route(req(file), Some(path));
                        bare.iter_mut()
                            .for_each(|m| m.ingest(req(file), Some(path)));
                    }
                    Step::Forget(file) => {
                        fleet.route_forget(FileId::new(file));
                        bare.iter_mut().for_each(|m| m.forget(FileId::new(file)));
                    }
                }
            }
            let (_, states) = fleet.export_full();
            let want: Vec<MinerState> = bare.iter().map(StreamMiner::export_state).collect();
            assert_eq!(states, want, "{shards} shard(s) diverged from bare miners");
        }
    }

    #[test]
    fn two_stages_equal_one_thread_under_eviction() {
        // A one-shard fleet runs the stream stage on the router's thread
        // and the graph stage on the shard's; a wider one, each whole miner
        // on its shard's thread; and here every shard's stages also run
        // apart by hand, a batch of steps at a time. A bare miner runs both
        // on one thread. Under a node cap the stream stage evicts, forgets
        // are routed, and every file's path is withheld on its first
        // sighting, so it is learned late, after the file has accesses
        // (the graph stage stales its memoized terms). At every cut the
        // fleet's and the split stages' images — graph, window, paths,
        // counters — and the fleet's resident bytes are the bare miners',
        // bit for bit.
        let trace = WorkloadSpec::hp().scaled(0.05).generate();
        for shards in [1usize, 2, 4] {
            let cfg = StreamConfig::default()
                .with_shards(shards)
                .with_node_cap(96);
            let mut fleet = ShardedMiner::spawn(cfg.clone());
            let mut bare: Vec<StreamMiner> = (0..shards)
                .map(|id| StreamMiner::for_shard(cfg.clone(), id, shards))
                .collect();
            let mut apart: Vec<(ShardStream, ShardGraph)> = (0..shards)
                .map(|id| StreamMiner::for_shard(cfg.clone(), id, shards).into_stages())
                .collect();
            let route = |apart: &mut Vec<(ShardStream, ShardGraph)>, op: WalOp| {
                for (stream, _) in apart {
                    stream.route(&op);
                }
            };
            let (mut seen, mut learned) = (HashSet::new(), HashSet::new());
            let (mut cuts, mut late) = (0, 0);
            for (i, e) in trace.stream().take(2 * trace.len()).enumerate() {
                if i % 61 == 0 {
                    fleet.route_forget(e.file);
                    bare.iter_mut().for_each(|b| b.forget(e.file));
                    route(&mut apart, WalOp::Forget(e.file));
                }
                if e.op.mining_action() == MiningAction::Observe {
                    let first = seen.insert(e.file);
                    let path = trace.path_of(e.file).filter(|_| !first);
                    late += usize::from(path.is_some() && learned.insert(e.file));
                    fleet.route(Request::from_event(&e), path);
                    let req = Request::from_event(&e);
                    bare.iter_mut().for_each(|b| b.ingest(req, path));
                    let path = path.cloned();
                    route(&mut apart, WalOp::Ingest { req, path });
                }
                if i % 256 == 255 {
                    for (stream, graph) in &mut apart {
                        graph.apply(&stream.take_steps());
                    }
                }
                if i % 3_331 == 3_330 {
                    let (snap, states) = fleet.export_full();
                    let want: Vec<MinerState> =
                        bare.iter().map(StreamMiner::export_state).collect();
                    assert!(
                        states == want,
                        "{shards} shard(s): images differ at event {i}"
                    );
                    for (shard, (stream, graph)) in apart.iter_mut().enumerate() {
                        graph.apply(&stream.take_steps());
                        let (_, state) = graph.cut(stream.head(), Some(stream.export_state()));
                        assert!(
                            state.as_ref() == Some(&want[shard]),
                            "{shards} shard(s): shard {shard}'s stages differ at event {i}"
                        );
                    }
                    let bytes: usize = bare.iter().map(StreamMiner::state_bytes).sum();
                    assert_eq!(snap.state_bytes, bytes, "{shards} shard(s) at event {i}");
                    let merged = StreamSnapshot::merge(bare.iter().map(StreamMiner::snapshot));
                    assert!(crate::snapshots_bitwise_equal(&snap, &merged));
                    cuts += 1;
                }
            }
            assert!(cuts >= 5, "{cuts} cuts");
            assert!(late > 1_000, "{late} paths learned late");
            for b in &bare {
                assert!(b.evictions() > 100, "shard evicted {}", b.evictions());
                let mix = b.farmer().graph().update_mix();
                assert!(mix.path_terms > 0 && mix.admits > 0, "{mix:?}");
            }
        }
    }

    #[test]
    fn forgotten_file_is_fully_dropped() {
        let trace = WorkloadSpec::ins().scaled(0.02).generate();
        let mut m = ShardedMiner::spawn(StreamConfig::default().with_shards(2));
        for e in &trace.events {
            m.route_event(&trace, e);
        }
        let before = m.snapshot();
        let (victim, _) = before.table.iter().next().expect("mined something");
        m.route_forget(victim);
        let after = m.snapshot();
        assert!(after.correlators(victim).is_none(), "victim list survived");
        // No other owner may still list the victim as a successor.
        for (_, list) in after.table.iter() {
            assert!(
                list.iter().all(|c| c.file != victim),
                "dangling successor edge to forgotten file"
            );
        }
    }

    #[test]
    fn tiny_channels_do_not_deadlock() {
        let trace = WorkloadSpec::res().scaled(0.01).generate();
        let mut cfg = StreamConfig::default().with_shards(2);
        cfg.channel_capacity = 1;
        cfg.route_batch = 8;
        let mut m = ShardedMiner::spawn(cfg);
        for e in trace.stream().take(3 * trace.len()) {
            m.route_event(&trace, &e);
        }
        m.flush();
        assert_eq!(m.snapshot().events, 3 * trace.len() as u64);
    }

    #[test]
    fn instrumented_metrics_report_fleet_totals() {
        let trace = WorkloadSpec::hp().scaled(0.01).generate();
        let reg = Registry::enabled();
        let mut m = ShardedMiner::spawn_instrumented(StreamConfig::default().with_shards(3), &reg);
        for e in &trace.events {
            m.route_event(&trace, e);
        }
        let victim = trace.events[0].file;
        m.route_forget(victim);
        let snap = m.snapshot();
        let obs = reg.snapshot();
        // Ownership is disjoint, so owned-event counters sum to the
        // routed stream length, though every shard windows every event.
        assert_eq!(obs.counter("stream.events_mined"), Some(snap.events));
        assert_eq!(obs.counter("stream.forgets"), Some(3), "one per shard");
        assert_eq!(
            obs.gauge("stream.tracked_files"),
            Some(snap.tracked_files as i64)
        );
        let batches = obs.histogram("stream.batch_events").unwrap();
        assert!(batches.count > 0);
        assert!(batches.max <= m.config().route_batch as u64);
        assert!(obs.histogram("stream.snapshot_build_ns").unwrap().count == 3);
        assert!(obs.histogram("stream.snapshot_merge_ns").unwrap().count == 1);
        // The plain spawn stays observability-free.
        let mut plain = ShardedMiner::spawn(StreamConfig::default());
        for e in trace.events.iter().take(100) {
            plain.route_event(&trace, e);
        }
        plain.flush();
        assert_eq!(obs.counter("stream.events_mined"), Some(snap.events));
    }

    #[test]
    fn drop_with_buffered_events_joins_cleanly() {
        let trace = WorkloadSpec::ins().scaled(0.005).generate();
        let mut m = ShardedMiner::spawn(StreamConfig::default().with_shards(2));
        for e in trace.events.iter().take(13) {
            m.route_event(&trace, e); // fewer than a route batch: stays pending
        }
        drop(m); // must not hang or panic
    }

    #[test]
    #[should_panic(expected = "injected shard worker panic")]
    fn worker_panic_propagates_through_flush() {
        let mut m = ShardedMiner::spawn(StreamConfig::default().with_shards(3));
        m.poison_shard(1);
        // Must re-raise the worker's panic, not hang on a dead channel
        // and not return a 2-of-3 result.
        m.flush();
    }

    #[test]
    #[should_panic(expected = "injected shard worker panic")]
    fn worker_panic_propagates_through_snapshot() {
        let trace = WorkloadSpec::ins().scaled(0.005).generate();
        let mut m = ShardedMiner::spawn(StreamConfig::default().with_shards(2));
        for e in trace.events.iter().take(50) {
            m.route_event(&trace, e);
        }
        m.poison_shard(0);
        m.snapshot();
    }

    #[test]
    fn a_requested_cut_lets_routing_go_on_and_covers_exactly_its_prefix() {
        let trace = WorkloadSpec::hp().scaled(0.01).generate();
        let cfg = StreamConfig::default().with_shards(2);
        let mut m = ShardedMiner::spawn(cfg.clone());
        let mut bare: Vec<StreamMiner> = (0..2)
            .map(|id| StreamMiner::for_shard(cfg.clone(), id, 2))
            .collect();
        // Shard 1 stops ahead of everything routed from here on.
        let gate = m.hold_shard(1);
        // Not a multiple of the route batch: the request dispatches a
        // partial batch.
        let prefix = 3 * cfg.route_batch + 17;
        let mut events = trace.stream();
        for e in events.by_ref().take(prefix) {
            m.route_event(&trace, &e);
            bare.iter_mut().for_each(|b| b.ingest_event(&trace, &e));
        }
        let cut = m.request_snapshot();
        // The request returned with a shard held behind the marker, and
        // routing goes on past it: twenty more batches fit the held
        // shard's queue, so none of these calls waits for a shard.
        let more = 20 * cfg.route_batch;
        for e in events.by_ref().take(more) {
            m.route_event(&trace, &e);
        }
        let cut = cut
            .try_finish(&mut m)
            .expect_err("a held shard cannot have answered");
        gate.send(()).expect("shard 1 is waiting at its gate");
        let snap = cut.finish(&mut m);
        assert_eq!(snap.events, prefix as u64);
        let want = StreamSnapshot::merge(bare.iter().map(StreamMiner::snapshot));
        assert!(
            crate::snapshots_bitwise_equal(&snap, &want),
            "the cut is not the routed prefix"
        );
        assert_eq!(m.snapshot().events, (prefix + more) as u64);
    }

    #[test]
    fn a_cut_assembled_at_its_finish_is_the_models_own_table() {
        // The shards answer with their walks and the finishing thread
        // assembles them: each shard's part of the published table must be
        // its model's `correlator_table()` bit for bit, evictions included.
        let trace = WorkloadSpec::hp().scaled(0.05).generate();
        for shards in [1usize, 2] {
            let cfg = StreamConfig::default()
                .with_shards(shards)
                .with_node_cap(256);
            let mut fleet = ShardedMiner::spawn(cfg.clone());
            let mut bare: Vec<StreamMiner> = (0..shards)
                .map(|id| StreamMiner::for_shard(cfg.clone(), id, shards))
                .collect();
            for e in trace.stream().take(2 * trace.len()) {
                fleet.route_event(&trace, &e);
                bare.iter_mut().for_each(|b| b.ingest_event(&trace, &e));
            }
            let snap = fleet.request_snapshot().finish(&mut fleet);
            assert!(bare.iter().all(|b| b.evictions() > 0), "no shard evicted");
            let mut want = bare[0].farmer().correlator_table();
            for b in &bare[1..] {
                want.append(&b.farmer().correlator_table()).unwrap();
            }
            assert!(want.len() > 100, "{} lists", want.len());
            assert!(
                crate::durable::tables_bitwise_equal(&snap.table, &want),
                "{shards} shard(s): the assembled table is not the models' own"
            );
        }
    }

    #[test]
    fn try_finish_returns_the_cut_once_every_shard_answered() {
        let trace = WorkloadSpec::ins().scaled(0.005).generate();
        let mut m = ShardedMiner::spawn(StreamConfig::default().with_shards(3));
        for e in &trace.events {
            m.route_event(&trace, e);
        }
        let mut cut = m.request_snapshot();
        let snap = loop {
            match cut.try_finish(&mut m) {
                Ok(snap) => break snap,
                Err(pending) => cut = pending,
            }
            std::thread::yield_now();
        };
        assert!(crate::snapshots_bitwise_equal(&snap, &m.snapshot()));
    }

    #[test]
    #[should_panic(expected = "injected shard worker panic")]
    fn worker_panic_propagates_through_a_pending_cut() {
        let trace = WorkloadSpec::ins().scaled(0.005).generate();
        let mut m = ShardedMiner::spawn(StreamConfig::default().with_shards(2));
        let gate = m.hold_shard(0);
        for e in trace.events.iter().take(50) {
            m.route_event(&trace, e);
        }
        let cut = m.request_snapshot();
        // Shard 0 dies ahead of the marker, with the cut pending.
        drop(gate);
        cut.finish(&mut m);
    }

    #[test]
    #[should_panic(expected = "injected shard worker panic")]
    fn worker_panic_propagates_through_routing() {
        let trace = WorkloadSpec::ins().scaled(0.01).generate();
        let mut cfg = StreamConfig::default().with_shards(2);
        cfg.route_batch = 16;
        cfg.channel_capacity = 1;
        let mut m = ShardedMiner::spawn(cfg);
        m.poison_shard(0);
        // Keep routing: once the poisoned worker dies and its bounded
        // queue drains, a dispatch must surface the panic instead of
        // blocking forever or dropping the shard.
        for e in trace.stream().take(100_000) {
            m.route_event(&trace, &e);
        }
    }

    #[test]
    #[should_panic(expected = "injected shard worker panic")]
    fn worker_panic_propagates_on_drop() {
        let mut m = ShardedMiner::spawn(StreamConfig::default().with_shards(2));
        m.poison_shard(1);
        // Give the worker time to consume the poison message and die;
        // Drop must then re-raise its panic rather than swallow it.
        #[expect(
            clippy::disallowed_methods,
            reason = "there is no completion signal to poll: the worker dies by panicking, \
                      observable only through Drop's join"
        )]
        std::thread::sleep(std::time::Duration::from_millis(50));
        drop(m);
    }
}
