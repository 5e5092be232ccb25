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
//! Events travel in batches (`route_batch`) over *bounded* channels
//! (`channel_capacity` batches): a shard that falls behind eventually
//! blocks the router — back-pressure, not unbounded queueing — so resident
//! memory stays capped end to end.
//!
//! The router is also where the operation stream is *ordered*, so it is
//! the component that holds the write-ahead log when there is one (the
//! durable tier, [`crate::durable`], attaches it): every routed operation
//! is appended before it can reach any shard's graph, and the log is
//! group-committed (write + fsync) at each batch-dispatch boundary. I/O
//! errors are fatal to the miner: a durable tier that can no longer write
//! its log must stop accepting events rather than silently degrade to a
//! lossy one, so the router panics on the first log error.

use std::any::Any;
use std::collections::hash_map::Entry;
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

use farmer_core::Request;
use farmer_obs::Registry;
use farmer_store::wal::{record_kind, Wal};
use farmer_trace::hash::FxHashMap;
use farmer_trace::{FileId, FilePath, Trace, TraceEvent};

use crate::durable::{encode_forget, encode_ingest};
use crate::engine::{MinerState, StreamMiner};
use crate::metrics::StreamMetrics;
use crate::snapshot::{ShardSnapshot, StreamSnapshot};
use crate::StreamConfig;

/// One routed request: the attribute tuple plus (for path-bearing traces)
/// the file's path. The path is `Arc`-shared across the N per-shard copies
/// of the broadcast, so fan-out costs one reference-count bump per shard
/// instead of one heap allocation — this is what keeps the router off the
/// critical path at high shard counts.
#[derive(Debug, Clone)]
struct EventMsg {
    req: Request,
    path: Option<Arc<FilePath>>,
}

/// One routed item: an access, or a forget tombstone (unlink/churn).
/// Both travel through the same batched FIFO so a forget lands in every
/// shard at exactly its position in the event stream — the property that
/// keeps the sharded model equal to a batch miner forgetting at the same
/// point.
#[derive(Debug, Clone)]
enum Item {
    Event(EventMsg),
    Forget(FileId),
}

/// Router → shard messages. FIFO channel order is what makes snapshots
/// consistent: a marker enqueued after a set of batches is only answered
/// once exactly those batches have been mined.
enum Msg {
    Batch(Vec<Item>),
    Snapshot(mpsc::Sender<ShardSnapshot>),
    /// Full-state export marker (checkpoint images): answered with both
    /// the serving snapshot and the shard's complete miner state at the
    /// same consistent cut, so a checkpoint's serving view and its
    /// resumable image can never disagree.
    Export(mpsc::Sender<(ShardSnapshot, MinerState)>),
    Flush(mpsc::Sender<()>),
    #[cfg(test)]
    Poison,
}

/// Per-file shared paths for a broadcast front: one `Arc<FilePath>` per
/// distinct file instead of one heap allocation per event. Downstream a
/// path is learn-once per file (`Farmer::learn_path`) *until the file is
/// forgotten or evicted*, after which the same id may come back under
/// another path (unlink + re-create, inode reuse) — so a hit only counts
/// when it still equals the offered path, and the cache never decides
/// which path the miners learn. That check also covers fronts that
/// cannot see each other's forgets (one cache per `IngestHandle`).
#[derive(Debug)]
pub struct PathCache {
    shared: FxHashMap<u32, Arc<FilePath>>,
    limit: usize,
}

impl PathCache {
    /// A cache that resets once it holds `limit` files, so an open-ended
    /// file universe cannot grow it without bound.
    pub fn new(limit: usize) -> PathCache {
        PathCache {
            shared: FxHashMap::default(),
            limit,
        }
    }

    /// The shared copy of `path` for `file`.
    pub fn share(&mut self, file: FileId, path: &FilePath) -> Arc<FilePath> {
        if self.shared.len() >= self.limit {
            self.shared.clear();
        }
        match self.shared.entry(file.raw()) {
            Entry::Occupied(mut hit) => {
                if **hit.get() != *path {
                    hit.insert(Arc::new(path.clone()));
                }
                Arc::clone(hit.get())
            }
            Entry::Vacant(slot) => Arc::clone(slot.insert(Arc::new(path.clone()))),
        }
    }
}

/// A sharded, threaded, bounded-memory online miner.
pub struct ShardedMiner {
    cfg: StreamConfig,
    senders: Vec<SyncSender<Msg>>,
    handles: Vec<JoinHandle<()>>,
    pending: Vec<Item>,
    path_cache: PathCache,
    routed: u64,
    /// The write-ahead log, when the durable tier attached one: from then
    /// on every routed operation is appended to it before dispatch and
    /// group-committed at each batch boundary. Recovery replays with no
    /// log attached and attaches it afterwards, so replayed operations
    /// are not logged twice.
    pub(crate) wal: Option<Wal>,
    obs: StreamMetrics,
}

impl ShardedMiner {
    /// Spawn `cfg.num_shards` worker threads, each owning one shard's
    /// [`StreamMiner`] (with `cfg.node_cap` applying per shard).
    pub fn spawn(cfg: StreamConfig) -> Self {
        Self::spawn_instrumented(cfg, &Registry::disabled())
    }

    /// [`ShardedMiner::spawn`] with observability: registers the
    /// `stream.*` metrics under `reg` and shares one [`StreamMetrics`] set
    /// between the router and every shard worker (relaxed-atomic handles,
    /// so per-shard increments sum into fleet totals for free). With a
    /// disabled registry this is exactly `spawn`.
    pub fn spawn_instrumented(cfg: StreamConfig, reg: &Registry) -> Self {
        let n = cfg.num_shards.max(1);
        let miners = (0..n)
            .map(|shard_id| StreamMiner::for_shard(cfg.clone(), shard_id, n))
            .collect();
        Self::launch(cfg, miners, 0, reg)
    }

    /// Put each shard's miner (in shard order) on its own worker thread
    /// behind a bounded channel, all sharing one `stream.*` metric set.
    fn launch(cfg: StreamConfig, miners: Vec<StreamMiner>, routed: u64, reg: &Registry) -> Self {
        let obs = StreamMetrics::new(&reg.scope("stream"));
        let mut senders = Vec::with_capacity(miners.len());
        let mut handles = Vec::with_capacity(miners.len());
        for (shard_id, mut miner) in miners.into_iter().enumerate() {
            let (tx, rx) = mpsc::sync_channel::<Msg>(cfg.channel_capacity.max(1));
            miner.instrument(obs.clone());
            handles.push(
                thread::Builder::new()
                    .name(format!("farmer-stream-shard-{shard_id}"))
                    .spawn(move || shard_worker(miner, rx))
                    // lint: allow(panic) thread-spawn failure at miner
                    // startup is unrecoverable resource exhaustion
                    .expect("spawn shard worker"),
            );
            senders.push(tx);
        }
        ShardedMiner {
            cfg,
            senders,
            handles,
            pending: Vec::new(),
            path_cache: PathCache::new(Self::PATH_CACHE_LIMIT),
            routed,
            wal: None,
            obs,
        }
    }

    /// Path-cache size at which the cache is reset (bounds router memory
    /// on open-ended file universes at ~24 MiB of map spine).
    const PATH_CACHE_LIMIT: usize = 1 << 20;

    /// Route one request into the subsystem. Blocks only when every queue
    /// slot is full (back-pressure).
    pub fn route(&mut self, req: Request, path: Option<&FilePath>) {
        // Log-before-mutate: the WAL record must exist before the event
        // can reach any shard's graph.
        if let Some(wal) = self.wal.as_mut() {
            wal.append(record_kind::OP, &encode_ingest(&req, path))
                // lint: allow(panic) losing the log-before-mutate ordering
                // would silently void the durability contract
                .expect("wal append failed; durable miner cannot continue");
        }
        let path = path.map(|p| self.path_cache.share(req.file, p));
        self.pending.push(Item::Event(EventMsg { req, path }));
        self.routed += 1;
        if self.pending.len() >= self.cfg.route_batch.max(1) {
            self.dispatch();
        }
    }

    /// Convenience: route a trace event (runs the Stage-1 extraction).
    pub fn route_event(&mut self, trace: &Trace, e: &TraceEvent) {
        self.route(Request::from_event(e), trace.path_of(e.file));
    }

    /// Route a forget tombstone (unlink/churn): every shard drops all
    /// state for `file` after processing exactly the events routed before
    /// this call (see [`StreamMiner::forget`]). Not counted as an event.
    pub fn route_forget(&mut self, file: FileId) {
        if let Some(wal) = self.wal.as_mut() {
            wal.append(record_kind::OP, &encode_forget(file))
                // lint: allow(panic) same durability policy as route()
                .expect("wal append failed; durable miner cannot continue");
        }
        self.pending.push(Item::Forget(file));
        if self.pending.len() >= self.cfg.route_batch.max(1) {
            self.dispatch();
        }
    }

    /// Broadcast the pending batch to every shard.
    fn dispatch(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        // Group-commit the logged prefix before any shard can mine it.
        if let Some(wal) = self.wal.as_mut() {
            wal.sync()
                // lint: allow(panic) mining an unsynced prefix would break
                // the group-commit guarantee
                .expect("wal sync failed; durable miner cannot continue");
        }
        let batch = std::mem::take(&mut self.pending);
        self.obs.batch_events.record(batch.len() as u64);
        let mut ok = true;
        {
            // lint: allow(panic) StreamConfig validates shards >= 1, so
            // the sender list is never empty
            let (last, rest) = self.senders.split_last().expect("at least one shard");
            for tx in rest {
                if tx.send(Msg::Batch(batch.clone())).is_err() {
                    ok = false;
                    break;
                }
            }
            if ok && last.send(Msg::Batch(batch)).is_err() {
                ok = false;
            }
        }
        if !ok {
            self.propagate_worker_panic("dispatch");
        }
    }

    /// Barrier: block until every shard has mined everything routed so far.
    pub fn flush(&mut self) {
        self.dispatch();
        let (ack_tx, ack_rx) = mpsc::channel();
        let mut ok = true;
        for tx in &self.senders {
            if tx.send(Msg::Flush(ack_tx.clone())).is_err() {
                ok = false;
                break;
            }
        }
        drop(ack_tx);
        if ok {
            for _ in 0..self.senders.len() {
                if ack_rx.recv().is_err() {
                    ok = false;
                    break;
                }
            }
        }
        if !ok {
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
    /// every shard a `marker`, and merge the replies' snapshot halves
    /// (`split` separates whatever else a reply carries).
    fn consistent_cut<T, X>(
        &mut self,
        context: &str,
        marker: fn(mpsc::Sender<T>) -> Msg,
        split: fn(T) -> (ShardSnapshot, X),
    ) -> (StreamSnapshot, Vec<X>) {
        self.dispatch();
        let (reply_tx, reply_rx) = mpsc::channel();
        let ok = self
            .senders
            .iter()
            .all(|tx| tx.send(marker(reply_tx.clone())).is_ok());
        drop(reply_tx);
        let mut parts: Vec<(ShardSnapshot, X)> = reply_rx.iter().map(split).collect();
        if !ok || parts.len() != self.senders.len() {
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
        let n = cfg.num_shards.max(1);
        assert_eq!(states.len(), n, "one state image per shard required");
        let mut by_shard: Vec<&MinerState> = states.iter().collect();
        by_shard.sort_by_key(|s| s.shard_id);
        let mut miners = Vec::with_capacity(n);
        let mut routed = 0u64;
        for (shard_id, state) in by_shard.into_iter().enumerate() {
            assert_eq!(
                (state.shard_id as usize, state.num_shards as usize),
                (shard_id, n),
                "state image shard identity does not match the fleet"
            );
            miners.push(StreamMiner::from_state(cfg.clone(), state));
            // Forgets are not events, so the router's routed counter at
            // the cut equals any shard's events_seen.
            routed = routed.max(state.events_seen);
        }
        Self::launch(cfg, miners, routed, reg)
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
        self.senders.len()
    }

    /// Events routed so far (including any still buffered).
    pub fn events_routed(&self) -> u64 {
        self.routed
    }

    /// The active configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.cfg
    }

    /// A shard worker hung up on us: join the whole fleet and re-raise
    /// the first worker's panic payload on the caller, so a shard panic
    /// surfaces with its original message instead of stranding the
    /// router on a dead channel (or silently losing that shard's slice
    /// of the namespace).
    fn propagate_worker_panic(&mut self, context: &str) -> ! {
        self.senders.clear();
        let mut payload: Option<Box<dyn Any + Send>> = None;
        for h in self.handles.drain(..) {
            if let Err(p) = h.join() {
                payload.get_or_insert(p);
            }
        }
        match payload {
            Some(p) => std::panic::resume_unwind(p),
            // lint: allow(panic) a worker that is gone without a payload
            // still died; propagating beats mining into a lost shard
            None => panic!("shard worker exited unexpectedly during {context}"),
        }
    }

    /// Test hook: make one shard's worker panic on its next message.
    #[cfg(test)]
    fn poison_shard(&mut self, shard: usize) {
        let _ = self.senders[shard].send(Msg::Poison);
    }
}

impl Drop for ShardedMiner {
    fn drop(&mut self) {
        // Deliver what is buffered (best-effort), then hang up: workers
        // exit when the channel disconnects.
        if !self.pending.is_empty() {
            let batch = std::mem::take(&mut self.pending);
            for tx in &self.senders {
                let _ = tx.send(Msg::Batch(batch.clone()));
            }
        }
        self.senders.clear();
        let mut payload: Option<Box<dyn Any + Send>> = None;
        for h in self.handles.drain(..) {
            if let Err(p) = h.join() {
                payload.get_or_insert(p);
            }
        }
        // A worker panic must not vanish just because the miner was
        // dropped — re-raise it (unless we are already unwinding, where a
        // double panic would abort).
        if let Some(p) = payload {
            if !thread::panicking() {
                std::panic::resume_unwind(p);
            }
        }
    }
}

/// Worker loop: mine batches, answer markers, exit on disconnect.
fn shard_worker(mut miner: StreamMiner, rx: Receiver<Msg>) {
    for msg in rx {
        match msg {
            Msg::Batch(items) => {
                for item in &items {
                    match item {
                        Item::Event(ev) => miner.ingest(ev.req, ev.path.as_deref()),
                        Item::Forget(file) => miner.forget(*file),
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
            Msg::Poison => panic!("injected shard worker panic"),
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
        assert_eq!(m.events_routed(), 3 * trace.len() as u64);
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
