//! The shard layer: N miner shards behind bounded channels.
//!
//! [`ShardedMiner`] is the parallel front of the streaming subsystem. It
//! mirrors the namespace partitioning of `farmer-mds::cluster`
//! (`Partition::Hash`, Fx-hash of the file id) but for *mining* instead of
//! serving: each shard runs a [`StreamMiner`] on its own worker thread and
//! owns a disjoint slice of the file namespace.
//!
//! Routing **broadcasts** every event to every shard: a shard needs the
//! full stream so its look-ahead window reflects the true global access
//! order (window context is what makes the shard union exactly equal the
//! batch model — see [`farmer_core::Farmer::observe_where`]). The expensive
//! work — similarity evaluation and edge updates, which only happen for
//! *owned* windowed predecessors — still splits ~1/N per shard, which is
//! where the multi-shard throughput scaling comes from.
//!
//! Operations travel as [`WalOp`]s — the value the log records is the
//! value the router buffers and every shard applies, so an access or a
//! forget has one representation from the caller to the graph
//! ([`ShardedMiner::route_op`] is the one way in; `route` and
//! `route_forget` construct the op). A path is a shared value
//! ([`farmer_trace::FilePath`]): the per-shard copies of a broadcast and
//! the path each shard learns cost a reference-count bump, never a copy,
//! and nothing between the caller and the miners decides which path a
//! file is learned under. Accesses and forgets ride the same batched FIFO,
//! so a forget lands in every shard at exactly its position in the stream
//! — the property that keeps the sharded model equal to a batch miner
//! forgetting at the same point.
//!
//! Batches (`route_batch` operations) travel over *bounded* channels
//! (`channel_capacity` batches): a shard that falls behind eventually
//! blocks the router — back-pressure, not unbounded queueing — so resident
//! memory stays capped end to end.
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
//! shards, over one bounded channel (`channel_capacity` deep — a slow
//! disk blocks the router exactly as a slow shard does); the committer
//! loops *receive one → take whatever else is queued → one `fdatasync` →
//! forward the lot to every shard, in order*. Each sync therefore covers
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
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

use farmer_core::Request;
use farmer_obs::Registry;
use farmer_store::wal::{record_kind, Lsn, Wal, WalCompaction, WalError, WalSyncer};
use farmer_trace::{FileId, FilePath, Trace, TraceEvent};

use crate::durable::{encode_op_into, WalOp};
use crate::engine::{MinerState, StreamMiner};
use crate::metrics::StreamMetrics;
use crate::snapshot::{ShardSnapshot, StreamSnapshot};
use crate::StreamConfig;

/// Router → shard messages. FIFO channel order is what makes snapshots
/// consistent: a marker enqueued after a set of batches is only answered
/// once exactly those batches have been mined. One message is built per
/// broadcast and cloned per shard, so every shard's marker carries the
/// same reply channel.
#[derive(Clone)]
enum Msg {
    Batch(Vec<WalOp>),
    Snapshot(mpsc::Sender<ShardSnapshot>),
    /// Full-state export marker (checkpoint images): answered with both
    /// the serving snapshot and the shard's complete miner state at the
    /// same consistent cut, so a checkpoint's serving view and its
    /// resumable image can never disagree.
    Export(mpsc::Sender<(ShardSnapshot, MinerState)>),
    Flush(mpsc::Sender<()>),
    /// Test hook: the named shard's worker panics.
    #[cfg(test)]
    Poison(usize),
}

/// What the router hands the commit stage (see the module docs).
enum Commit {
    /// Forward `msg` to every shard once the log is durable up to `upto`,
    /// the last LSN written when the message was queued.
    Forward { msg: Msg, upto: Lsn },
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

/// Send `msg` to every shard, in shard order; `false` once one has hung
/// up (or the fleet is already torn down and nobody is left to hear it).
fn broadcast(shards: &[SyncSender<Msg>], msg: Msg) -> bool {
    let Some((last, rest)) = shards.split_last() else {
        return false;
    };
    rest.iter().all(|tx| tx.send(msg.clone()).is_ok()) && last.send(msg).is_ok()
}

/// A sharded, threaded, bounded-memory online miner.
pub struct ShardedMiner {
    cfg: StreamConfig,
    /// The shard inboxes — until a log is attached, when the committer
    /// takes them over and is the only thread that sends to a shard.
    shards: Vec<SyncSender<Msg>>,
    handles: Vec<JoinHandle<()>>,
    pending: Vec<WalOp>,
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

    /// Put each shard's miner (in shard order) on its own worker thread
    /// behind a bounded channel, all sharing one `stream.*` metric set.
    fn launch(cfg: StreamConfig, miners: Vec<StreamMiner>, reg: &Registry) -> Self {
        cfg.validate();
        let obs = StreamMetrics::new(&reg.scope("stream"));
        let mut shards = Vec::with_capacity(miners.len());
        let mut handles = Vec::with_capacity(miners.len());
        for (shard_id, mut miner) in miners.into_iter().enumerate() {
            let (tx, rx) = mpsc::sync_channel::<Msg>(cfg.channel_capacity);
            miner.instrument(obs.clone());
            handles.push(
                thread::Builder::new()
                    .name(format!("farmer-stream-shard-{shard_id}"))
                    .spawn(move || shard_worker(miner, rx))
                    // lint: allow(panic) thread-spawn failure at miner
                    // startup is unrecoverable resource exhaustion
                    .expect("spawn shard worker"),
            );
            shards.push(tx);
        }
        let pending = Vec::with_capacity(cfg.route_batch);
        ShardedMiner {
            cfg,
            shards,
            handles,
            pending,
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
    /// attached), buffer it, and dispatch the batch once it is full.
    /// Every shard applies it after exactly the operations routed before
    /// this call. Blocks only when every queue slot is full
    /// (back-pressure).
    pub fn route_op(&mut self, op: WalOp) {
        if let Some(j) = self.journal.as_mut() {
            j.wal
                .append_with(record_kind::OP, |w| encode_op_into(w, &op))
                // lint: allow(panic) an operation that cannot be logged
                // must not be mined: the durability contract would be void
                .expect("wal append failed; durable miner cannot continue");
        }
        self.pending.push(op);
        if self.pending.len() >= self.cfg.route_batch {
            self.dispatch();
        }
    }

    /// Route one request ([`ShardedMiner::route_op`] of an ingest; the
    /// path is shared, not copied).
    pub fn route(&mut self, req: Request, path: Option<&FilePath>) {
        let path = path.cloned();
        self.route_op(WalOp::Ingest { req, path });
    }

    /// Convenience: route a trace event (runs the Stage-1 extraction).
    pub fn route_event(&mut self, trace: &Trace, e: &TraceEvent) {
        self.route(Request::from_event(e), trace.path_of(e.file));
    }

    /// Route a forget tombstone (unlink/churn): every shard drops all
    /// state for `file` (see [`StreamMiner::forget`]). Not counted as an
    /// event.
    pub fn route_forget(&mut self, file: FileId) {
        self.route_op(WalOp::Forget(file));
    }

    /// Hand `msg` to the fleet: through the commit stage when a log is
    /// attached, straight to the shards when not. `false` once the far
    /// side has hung up.
    fn send(&self, msg: Msg) -> bool {
        match &self.journal {
            Some(j) => {
                let upto = j.wal.written_lsn();
                j.tx.send(Commit::Forward { msg, upto }).is_ok()
            }
            None => broadcast(&self.shards, msg),
        }
    }

    /// Broadcast the pending batch to every shard — with a log attached,
    /// after writing its records and by way of the committer, which syncs
    /// them before any shard can mine them.
    fn dispatch(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        if let Some(j) = self.journal.as_mut() {
            j.wal
                .write()
                // lint: allow(panic) a batch whose records are not in the
                // log must not be mined
                .expect("wal write failed; durable miner cannot continue");
        }
        let fresh = Vec::with_capacity(self.cfg.route_batch);
        let batch = std::mem::replace(&mut self.pending, fresh);
        self.obs.batch_events.record(batch.len() as u64);
        if !self.send(Msg::Batch(batch)) {
            self.propagate_worker_panic("dispatch");
        }
    }

    /// Barrier: block until every shard has mined everything routed so
    /// far — and, with a log attached, until all of it is durable.
    pub fn flush(&mut self) {
        self.dispatch();
        let (ack_tx, ack_rx) = mpsc::channel();
        let sent = self.send(Msg::Flush(ack_tx));
        // Ends once every copy of the marker has been answered or dropped.
        if !sent || ack_rx.iter().count() != self.handles.len() {
            self.propagate_worker_panic("flush");
        }
    }

    /// Take a consistent snapshot: the merged Correlator Lists of every
    /// shard, reflecting exactly the events routed before this call.
    pub fn snapshot(&mut self) -> StreamSnapshot {
        self.consistent_cut("snapshot", Msg::Snapshot, |part| (part, ()))
            .0
    }

    /// Take a consistent snapshot *and* the full per-shard state images
    /// at the same cut — the checkpoint-image export. One barrier
    /// message per shard returns both halves together, so the serving
    /// snapshot embedded in a checkpoint always describes exactly the
    /// state the image resumes from.
    pub fn export_full(&mut self) -> (StreamSnapshot, Vec<MinerState>) {
        self.consistent_cut("export", Msg::Export, |pair| pair)
    }

    /// The barrier behind [`ShardedMiner::snapshot`] and
    /// [`ShardedMiner::export_full`]: dispatch what is buffered, send
    /// every shard the `marker`, and merge the replies' snapshot halves
    /// (`split` separates whatever else a reply carries).
    fn consistent_cut<T, X>(
        &mut self,
        context: &str,
        marker: fn(mpsc::Sender<T>) -> Msg,
        split: fn(T) -> (ShardSnapshot, X),
    ) -> (StreamSnapshot, Vec<X>) {
        self.dispatch();
        let (reply_tx, reply_rx) = mpsc::channel();
        let sent = self.send(marker(reply_tx));
        let mut parts: Vec<(ShardSnapshot, X)> = reply_rx.iter().map(split).collect();
        if !sent || parts.len() != self.handles.len() {
            // A worker died mid-cut: surface its panic instead of merging
            // a partial (silently shard-less) snapshot.
            self.propagate_worker_panic(context);
        }
        // Replies arrive in completion order (scheduling-dependent); merge
        // in shard order so the snapshot — including the iteration order of
        // its table — is a deterministic function of the routed stream.
        parts.sort_by_key(|(part, _)| part.shard_id);
        let (snaps, extras): (Vec<ShardSnapshot>, Vec<X>) = parts.into_iter().unzip();
        let span = self.obs.snapshot_merge_ns.span();
        let snap = StreamSnapshot::merge(snaps);
        span.finish();
        self.obs.tracked_files.set(snap.tracked_files as i64);
        self.obs.state_bytes.set(snap.state_bytes as i64);
        (snap, extras)
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
            // lint: allow(panic) a worker that is gone without a payload
            // still died; propagating beats mining into a lost shard
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
        let _ = self.send(Msg::Poison(shard));
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
        if self.journal.is_none() && !self.pending.is_empty() {
            broadcast(&self.shards, Msg::Batch(std::mem::take(&mut self.pending)));
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
                Commit::Forward { msg, upto: written } => {
                    upto = written;
                    group.push(msg);
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
            log.sync(upto)
                // lint: allow(panic) forwarding a batch the disk refused
                // would mine what a crash loses; the router re-raises this
                .expect("wal sync failed; durable miner cannot continue");
            durable = upto;
        }
        for msg in group.drain(..) {
            if !broadcast(shards, msg) {
                return;
            }
        }
    }
}

/// Worker loop: mine batches, answer markers, exit on disconnect.
fn shard_worker(mut miner: StreamMiner, rx: Receiver<Msg>) {
    for msg in rx {
        match msg {
            Msg::Batch(ops) => {
                for op in &ops {
                    match op {
                        WalOp::Ingest { req, path } => miner.ingest(*req, path.as_ref()),
                        WalOp::Forget(file) => miner.forget(*file),
                    }
                }
            }
            Msg::Snapshot(reply) => {
                let _ = reply.send(miner.snapshot());
            }
            Msg::Export(reply) => {
                let _ = reply.send((miner.snapshot(), miner.export_state()));
            }
            Msg::Flush(ack) => {
                let _ = ack.send(());
            }
            #[cfg(test)]
            Msg::Poison(shard) => {
                let me = miner.snapshot().shard_id;
                assert!(shard != me, "injected shard worker panic");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use farmer_core::{Farmer, FarmerConfig};
    use farmer_trace::{FileId, WorkloadSpec};

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
        // routed stream length regardless of the broadcast fan-out.
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
        // lint: allow(sleep) there is no completion signal to poll: the
        // worker dies by panicking, observable only through Drop's join
        std::thread::sleep(std::time::Duration::from_millis(50));
        drop(m);
    }
}
