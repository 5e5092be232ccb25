//! The durable mining tier: WAL-backed logging and crash recovery for
//! the sharded miner.
//!
//! [`DurableMiner`] wraps a [`ShardedMiner`] and journals the *logical
//! operation stream* — every ingest (attribute tuple + optional path)
//! and every forget — into a [`farmer_store::Wal`] before the operation
//! can mutate any shard's graph. The log is held by the router itself —
//! the one place that orders the operations (see [`crate::shard`]) —
//! and this module reaches it through the router for checkpoints,
//! compaction and the simulated crash.
//!
//! ## Durability contract
//!
//! The router encodes each operation into the log as it is routed and
//! writes a batch's records before the batch leaves it; a commit stage
//! between the router and the shards (`farmer-stream-commit`, see
//! [`crate::shard`]) then makes them durable — one `fdatasync` for
//! however many batches queued up during the previous one — and only
//! then lets the shards mine them. So:
//!
//! * **Log-before-mutate.** No shard mines an operation, and no
//!   snapshot, checkpoint image or `flush()` acknowledgement describes
//!   one, that a completed sync has not covered.
//! * **[`DurableMiner::flush`], [`DurableMiner::snapshot`],
//!   [`DurableMiner::checkpoint`]**: when they return, everything
//!   ingested before the call is mined *and* durable.
//!   [`DurableMiner::ingest`] promises neither on return.
//! * **Loss window.** A power cut loses what no completed sync had
//!   covered: the router's partial batch, the batches queued for the
//!   committer and the group it is syncing — at most
//!   `2 × channel_capacity + 1` route batches of operations, none of
//!   them ever mined into a state anyone was shown. In time: while the
//!   shards keep up, an operation is durable within two sync latencies
//!   of its batch filling (the sync under way when it was queued, then
//!   its own); when they do not, the committer waits on their full
//!   inboxes between syncs and durability lags by that back-pressure
//!   too. The highest durable LSN is the `wal.durable_lsn` gauge.
//! * **Simulated crash.** [`DurableMiner::crash`] crashes *at a commit
//!   boundary* — what was dispatched is completed and kept, the partial
//!   batch is dropped — for tests and fault injection; see there.
//!
//! ## Recovery model
//!
//! Miner state is a deterministic function of the operation sequence
//! (same ingests and forgets, in order, rebuild the same graph bit for
//! bit — including eviction tie-breaks and decay epochs, which depend
//! only on insertion history). Recovery is therefore exact from genesis
//! replay alone; checkpoints exist to make it *bounded*.
//!
//! [`DurableMiner::checkpoint`] persists a **full state image** into a
//! sidecar file (`<wal>.ckpt<seq>`, written via tmp+rename): the
//! consistent serving [`StreamSnapshot`] at that cut *plus* every
//! shard's bit-exact [`MinerState`] (graph accumulators as raw f64
//! bits, look-ahead window, cached eviction-ordering degrees — see
//! `farmer_core::state`). A CHECKPOINT record referencing the image
//! (sequence, operation counts, length, CRC) is appended to the log;
//! that record's own LSN is the checkpoint's **anchor**.
//!
//! [`recover`] walks the checkpoint ladder newest → oldest: the first
//! image that exists, matches its recorded length and CRC, and decodes
//! is restored directly ([`ShardedMiner::spawn_restored`]) and only the
//! WAL suffix past its anchor LSN is replayed — O(checkpoint interval)
//! work instead of O(log). A truncated or corrupt newest image falls
//! back to the next-older one, then to genesis replay (possible only
//! while the log still starts at LSN 1). The restored state is verified
//! bitwise against the image's embedded serving snapshot
//! ([`RecoveryReport::checkpoint_verified`]), and the crash-point
//! matrix asserts bitwise parity against an uninterrupted genesis
//! oracle at every kill point.
//!
//! ## Log compaction
//!
//! Once an image anchors recovery, pages wholly before it are dead
//! weight. [`DurableMiner::compact`] (or the standalone [`compact`]
//! entry point, and automatically per checkpoint when
//! [`DurableConfig::compact_on_checkpoint`] is set) drops WAL pages
//! wholly before the anchor of the *older* surviving checkpoint, so
//! every retained sidecar keeps the suffix it needs — the retention
//! policy never reclaims a page a surviving checkpoint still replays
//! from. Reclaimed pages and anchors surface as `wal.compactions`,
//! `wal.pages_dropped` and the `wal.anchor_lsn` gauge.

use std::fs::{self, File};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::time::Instant;

use farmer_core::{
    Correlator, CorrelatorTable, EdgeState, FarmerState, GraphState, NodeState, Request,
};
use farmer_obs::Registry;
use farmer_store::codec::{DecodeError, Reader, Writer};
use farmer_store::wal::{crc32, record_kind, Lsn, Wal, WalCompaction, WalError, WalMetrics};
use farmer_trace::{FileId, FilePath, Trace, TraceEvent};

use crate::engine::MinerState;
use crate::snapshot::StreamSnapshot;
use crate::{ShardedMiner, StreamConfig};

/// One logical mining operation: the value a producer hands the serving
/// tier's ring, the router buffers, batches and broadcasts, every shard
/// applies, the log records and recovery replays — one type end to end,
/// so what is journaled *is* what is mined. Cloning one is a
/// reference-count bump at most (the path is a shared value).
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// One access: the Stage-1 attribute tuple plus (for path-bearing
    /// traces) the file's path components.
    Ingest {
        /// The extracted request.
        req: Request,
        /// The file's path, when the trace carries one.
        path: Option<FilePath>,
    },
    /// Drop all state for a file (unlink/churn tombstone).
    Forget(FileId),
}

// Op payload tags. A tag is the first payload byte; the record kind
// (`record_kind::OP`) stays coarse so the tail scan needs no op-level
// knowledge.
const TAG_INGEST: u8 = 1;
const TAG_INGEST_PATH: u8 = 2;
const TAG_FORGET: u8 = 3;

/// The one op encoder: [`encode_op`] and the router
/// ([`ShardedMiner::route_op`], straight into the log's buffer) both
/// write through it.
pub(crate) fn encode_op_into(w: &mut Writer, op: &WalOp) {
    match op {
        WalOp::Ingest { req, path } => {
            w.u8(if path.is_some() {
                TAG_INGEST_PATH
            } else {
                TAG_INGEST
            })
            .u32(req.file.raw())
            .u32(req.uid.raw())
            .u32(req.pid.raw())
            .u32(req.host.raw())
            .u32(req.dev.raw());
            if let Some(p) = path {
                w.u32(p.components().len() as u32);
                for &c in p.components() {
                    w.u32(c);
                }
            }
        }
        WalOp::Forget(file) => {
            w.u8(TAG_FORGET).u32(file.raw());
        }
    }
}

/// Encode one op into a WAL payload of its own — the bytes the router
/// logs for the same op.
pub fn encode_op(op: &WalOp) -> Vec<u8> {
    let mut w = Writer::with_capacity(32);
    encode_op_into(&mut w, op);
    w.finish()
}

/// Decode one op payload. Errors only on malformed bytes, which a
/// checksum-verified log never yields.
pub fn decode_op(payload: &[u8]) -> Result<WalOp, DecodeError> {
    let mut r = Reader::new(payload);
    let tag = r.u8()?;
    match tag {
        TAG_INGEST | TAG_INGEST_PATH => {
            let req = Request {
                file: FileId::new(r.u32()?),
                uid: farmer_trace::UserId::new(r.u32()?),
                pid: farmer_trace::ProcId::new(r.u32()?),
                host: farmer_trace::HostId::new(r.u32()?),
                dev: farmer_trace::DevId::new(r.u32()?),
            };
            let path = if tag == TAG_INGEST_PATH {
                let n = r.u32()? as usize;
                if n > r.remaining() / 4 {
                    return Err(DecodeError::BadLength);
                }
                let mut comps = Vec::with_capacity(n);
                for _ in 0..n {
                    comps.push(r.u32()?);
                }
                Some(FilePath::from_components(comps))
            } else {
                None
            };
            Ok(WalOp::Ingest { req, path })
        }
        TAG_FORGET => Ok(WalOp::Forget(FileId::new(r.u32()?))),
        _ => Err(DecodeError::BadLength),
    }
}

/// Serialize a consistent snapshot for the checkpoint sidecar. Degrees
/// are stored as raw f64 bits, so the round trip is bit-exact.
pub fn encode_snapshot(s: &StreamSnapshot) -> Vec<u8> {
    let mut w = Writer::with_capacity(40 + 16 * s.table.num_entries());
    w.u64(s.events)
        .u32(s.shards as u32)
        .u64(s.tracked_files as u64)
        .u64(s.evictions)
        .u64(s.state_bytes as u64)
        .u32(s.table.len() as u32);
    for (owner, list) in s.table.iter() {
        w.u32(owner.raw()).u32(list.len() as u32);
        for c in list {
            w.u32(c.file.raw()).u64(c.degree.to_bits());
        }
    }
    w.finish()
}

/// Decode a checkpoint sidecar back into a snapshot, preserving list
/// order (and therefore table iteration order) exactly. An owner listed
/// twice is a [`DecodeError`], and nothing is reserved beyond what the
/// remaining bytes could hold.
pub fn decode_snapshot(bytes: &[u8]) -> Result<StreamSnapshot, DecodeError> {
    let mut r = Reader::new(bytes);
    let events = r.u64()?;
    let shards = r.u32()? as usize;
    let tracked_files = r.u64()? as usize;
    let evictions = r.u64()?;
    let state_bytes = r.u64()? as usize;
    let num_lists = r.u32()? as usize;
    // A list is at least its 8-byte header, an entry is 12 bytes.
    if num_lists > r.remaining() / 8 {
        return Err(DecodeError::BadLength);
    }
    let mut table = CorrelatorTable::with_capacity(num_lists, r.remaining() / 12);
    let mut entries = Vec::new();
    for _ in 0..num_lists {
        let owner = FileId::new(r.u32()?);
        let n = r.u32()? as usize;
        if n > r.remaining() / 12 {
            return Err(DecodeError::BadLength);
        }
        entries.clear();
        for _ in 0..n {
            let file = FileId::new(r.u32()?);
            let degree = f64::from_bits(r.u64()?);
            entries.push(Correlator { file, degree });
        }
        table
            .push_list(owner, &entries)
            .map_err(|_| DecodeError::DuplicateKey)?;
    }
    Ok(StreamSnapshot {
        table,
        events,
        shards,
        tracked_files,
        evictions,
        state_bytes,
    })
}

/// Are two tables the same lists in the same order, every degree
/// compared on raw bits?
pub(crate) fn tables_bitwise_equal(a: &CorrelatorTable, b: &CorrelatorTable) -> bool {
    a.len() == b.len()
        && a.iter().zip(b.iter()).all(|((oa, la), (ob, lb))| {
            oa == ob
                && la.len() == lb.len()
                && la.iter().zip(lb).all(|(ca, cb)| {
                    ca.file == cb.file && ca.degree.to_bits() == cb.degree.to_bits()
                })
        })
}

/// Bitwise snapshot equality: every mining-state scalar, every list in
/// order, every degree compared on raw bits. This is the recovery parity
/// invariant — stricter than the epsilon comparisons the cross-mode
/// tests use.
///
/// `state_bytes` is deliberately *not* compared: it reports resident
/// heap including buffer capacities (eviction scratch, recycled node
/// buffers), which reflect the history of a process rather than mined
/// state — a miner restored from an image starts with empty scratch, so
/// two bit-identical graphs can legitimately report different resident
/// footprints. Reading is not part of that history: queries and
/// snapshot builds leave `state_bytes` as it was.
pub fn snapshots_bitwise_equal(a: &StreamSnapshot, b: &StreamSnapshot) -> bool {
    a.events == b.events
        && a.shards == b.shards
        && a.tracked_files == b.tracked_files
        && a.evictions == b.evictions
        && tables_bitwise_equal(&a.table, &b.table)
}

fn encode_miner_state(w: &mut Writer, s: &MinerState) {
    w.u32(s.shard_id)
        .u32(s.num_shards)
        .u64(s.events_seen)
        .u64(s.owned_events)
        .u64(s.evictions)
        .u64(s.count_floor);
    w.u32(s.counts.len() as u32);
    for &(id, bits) in &s.counts {
        w.u32(id).u64(bits);
    }
    let f = &s.farmer;
    w.u64(f.observed);
    w.u32(f.window.len() as u32);
    for r in &f.window {
        w.u32(r.file.raw())
            .u32(r.uid.raw())
            .u32(r.pid.raw())
            .u32(r.host.raw())
            .u32(r.dev.raw());
    }
    w.u32(f.paths.len() as u32);
    for (id, comps) in &f.paths {
        w.u32(*id).u32(comps.len() as u32);
        for &c in comps {
            w.u32(c);
        }
    }
    let g = &f.graph;
    w.u64(g.decay_ln).u64(g.epoch);
    w.u32(g.nodes.len() as u32);
    for n in &g.nodes {
        w.u32(n.id).u64(n.total).u64(n.stamp).u64(n.sim_lb);
        w.u32(n.edges.len() as u32);
        for e in &n.edges {
            w.u32(e.to)
                .u64(e.mass)
                .u64(e.sim_sum)
                .u32(e.sim_n)
                .u64(e.deg)
                .u64(e.path_inter)
                .u64(e.inv_denom)
                .u8(e.succ_path as u8);
        }
    }
}

fn decode_miner_state(r: &mut Reader) -> Result<MinerState, DecodeError> {
    let shard_id = r.u32()?;
    let num_shards = r.u32()?;
    let events_seen = r.u64()?;
    let owned_events = r.u64()?;
    let evictions = r.u64()?;
    let count_floor = r.u64()?;
    let n = r.u32()? as usize;
    if n > r.remaining() / 12 {
        return Err(DecodeError::BadLength);
    }
    let mut counts = Vec::with_capacity(n);
    for _ in 0..n {
        counts.push((r.u32()?, r.u64()?));
    }
    let observed = r.u64()?;
    let n = r.u32()? as usize;
    if n > r.remaining() / 20 {
        return Err(DecodeError::BadLength);
    }
    let mut window = Vec::with_capacity(n);
    for _ in 0..n {
        window.push(Request {
            file: FileId::new(r.u32()?),
            uid: farmer_trace::UserId::new(r.u32()?),
            pid: farmer_trace::ProcId::new(r.u32()?),
            host: farmer_trace::HostId::new(r.u32()?),
            dev: farmer_trace::DevId::new(r.u32()?),
        });
    }
    let n = r.u32()? as usize;
    if n > r.remaining() / 8 {
        return Err(DecodeError::BadLength);
    }
    let mut paths = Vec::with_capacity(n);
    for _ in 0..n {
        let id = r.u32()?;
        let m = r.u32()? as usize;
        if m > r.remaining() / 4 {
            return Err(DecodeError::BadLength);
        }
        let mut comps = Vec::with_capacity(m);
        for _ in 0..m {
            comps.push(r.u32()?);
        }
        paths.push((id, comps));
    }
    let decay_ln = r.u64()?;
    let epoch = r.u64()?;
    let n = r.u32()? as usize;
    if n > r.remaining() / 32 {
        return Err(DecodeError::BadLength);
    }
    let mut nodes = Vec::with_capacity(n);
    for _ in 0..n {
        let id = r.u32()?;
        let total = r.u64()?;
        let stamp = r.u64()?;
        let sim_lb = r.u64()?;
        let m = r.u32()? as usize;
        if m > r.remaining() / 49 {
            return Err(DecodeError::BadLength);
        }
        let mut edges = Vec::with_capacity(m);
        for _ in 0..m {
            edges.push(EdgeState {
                to: r.u32()?,
                mass: r.u64()?,
                sim_sum: r.u64()?,
                sim_n: r.u32()?,
                deg: r.u64()?,
                path_inter: r.u64()?,
                inv_denom: r.u64()?,
                succ_path: r.u8()? != 0,
            });
        }
        nodes.push(NodeState {
            id,
            total,
            stamp,
            sim_lb,
            edges,
        });
    }
    Ok(MinerState {
        shard_id,
        num_shards,
        events_seen,
        owned_events,
        evictions,
        count_floor,
        counts,
        farmer: FarmerState {
            observed,
            window,
            paths,
            graph: GraphState {
                decay_ln,
                epoch,
                nodes,
            },
        },
    })
}

/// Serialize a full checkpoint image: the serving snapshot (length-
/// prefixed, so a reader can lift it without touching the shard states)
/// followed by every shard's bit-exact [`MinerState`].
pub fn encode_image(serving: &StreamSnapshot, shards: &[MinerState]) -> Vec<u8> {
    let mut w = Writer::new();
    w.bytes(&encode_snapshot(serving));
    w.u32(shards.len() as u32);
    for s in shards {
        encode_miner_state(&mut w, s);
    }
    w.finish()
}

/// Decode a full checkpoint image back into its serving snapshot and
/// per-shard state images.
pub fn decode_image(bytes: &[u8]) -> Result<(StreamSnapshot, Vec<MinerState>), DecodeError> {
    let mut r = Reader::new(bytes);
    let serving = decode_snapshot(r.bytes()?)?;
    let n = r.u32()? as usize;
    if n > r.remaining() / 46 {
        return Err(DecodeError::BadLength);
    }
    let mut shards = Vec::with_capacity(n);
    for _ in 0..n {
        shards.push(decode_miner_state(&mut r)?);
    }
    Ok((serving, shards))
}

/// Configuration for the durable tier.
#[derive(Debug, Clone)]
pub struct DurableConfig {
    /// The wrapped miner's configuration. Recovery must use the same
    /// shard count the log was written under (ownership partitioning is
    /// part of the replayed state).
    pub stream: StreamConfig,
    /// Events between automatic checkpoints (0 = only explicit
    /// [`DurableMiner::checkpoint`] calls).
    pub checkpoint_interval: u64,
    /// Compact the log after every checkpoint (drop pages wholly before
    /// the older surviving checkpoint's anchor). Off by default: an
    /// uncompacted log keeps genesis replay available as the last rung
    /// of the recovery ladder.
    pub compact_on_checkpoint: bool,
}

impl DurableConfig {
    /// Durability around `stream` with no automatic checkpoints.
    pub fn new(stream: StreamConfig) -> Self {
        DurableConfig {
            stream,
            checkpoint_interval: 0,
            compact_on_checkpoint: false,
        }
    }

    /// Checkpoint every `n` ingested events.
    pub fn with_checkpoint_interval(mut self, n: u64) -> Self {
        self.checkpoint_interval = n;
        self
    }

    /// Compact the log after every checkpoint.
    pub fn with_compaction(mut self, on: bool) -> Self {
        self.compact_on_checkpoint = on;
        self
    }
}

/// A checkpoint record's contents: which sidecar it references and the
/// cut it was taken at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointInfo {
    /// Monotone checkpoint sequence number (names the sidecar file).
    pub seq: u64,
    /// Events ingested at the cut.
    pub events: u64,
    /// Operations (ingests + forgets) logged at the cut.
    pub ops: u64,
    /// Sidecar image length in bytes.
    pub snapshot_len: u64,
    /// CRC-32 of the sidecar image bytes.
    pub snapshot_crc: u32,
}

fn encode_checkpoint(c: &CheckpointInfo) -> Vec<u8> {
    let mut w = Writer::with_capacity(36);
    w.u64(c.seq)
        .u64(c.events)
        .u64(c.ops)
        .u64(c.snapshot_len)
        .u32(c.snapshot_crc);
    w.finish()
}

fn decode_checkpoint(payload: &[u8]) -> Result<CheckpointInfo, DecodeError> {
    let mut r = Reader::new(payload);
    Ok(CheckpointInfo {
        seq: r.u64()?,
        events: r.u64()?,
        ops: r.u64()?,
        snapshot_len: r.u64()?,
        snapshot_crc: r.u32()?,
    })
}

/// What [`recover`] found and rebuilt.
#[derive(Debug)]
pub struct RecoveryReport {
    /// Operations replayed from the WAL suffix (past the anchor when a
    /// checkpoint image loaded; the whole log on genesis replay).
    pub ops_replayed: u64,
    /// Ingest events among them (forgets excluded).
    pub events_replayed: u64,
    /// Total operations the rebuilt state represents: the anchor
    /// checkpoint's cut plus the replayed suffix.
    pub ops_recovered: u64,
    /// Total ingest events the rebuilt state represents.
    pub events_recovered: u64,
    /// True when the log ended in a torn/corrupt tail that was dropped.
    pub torn_tail: bool,
    /// Bytes the tail scan discarded.
    pub dropped_bytes: u64,
    /// The checkpoint whose image anchored recovery, if any.
    pub checkpoint: Option<CheckpointInfo>,
    /// The anchor's LSN (the CHECKPOINT record's own LSN); replay
    /// covered exactly the records past it. `None` on genesis replay.
    pub anchor_lsn: Option<Lsn>,
    /// Checkpoint images that existed in the log but failed validation
    /// (missing, truncated, or corrupt) before one loaded — the rungs
    /// of the ladder recovery fell through.
    pub fallbacks: u64,
    /// Whether the state restored from the image matched its embedded
    /// serving snapshot bitwise (`None` when no image loaded).
    pub checkpoint_verified: Option<bool>,
    /// The anchor image's serving snapshot, available the moment
    /// recovery starts (before suffix replay finishes).
    pub serving_snapshot: Option<StreamSnapshot>,
    /// Wall-clock nanoseconds the recovery (scan + restore + replay)
    /// took.
    pub replay_ns: u64,
}

fn sidecar_path(wal: &Path, seq: u64) -> PathBuf {
    PathBuf::from(format!("{}.ckpt{}", wal.display(), seq))
}

fn write_durable(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = PathBuf::from(format!("{}.tmp", path.display()));
    let mut f = File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_data()?;
    drop(f);
    fs::rename(&tmp, path)
}

/// A [`ShardedMiner`] whose operation stream is journaled to a WAL, with
/// periodic snapshot checkpoints. See the module docs for the recovery
/// and loss-window contract.
pub struct DurableMiner {
    /// The router; it holds the log ([`DurableMiner::wal`]).
    inner: ShardedMiner,
    path: PathBuf,
    cfg: DurableConfig,
    events: u64,
    ops: u64,
    ckpt_seq: u64,
    /// `(seq, anchor LSN)` of the surviving (unpruned) checkpoints,
    /// oldest first — at most two. Compaction keeps everything the
    /// older one still replays from.
    anchors: Vec<(u64, Lsn)>,
}

impl DurableMiner {
    /// Create a fresh durable miner logging to `path` (truncates any
    /// existing log).
    pub fn create(path: &Path, cfg: DurableConfig) -> Result<DurableMiner, WalError> {
        DurableMiner::create_instrumented(path, cfg, &Registry::disabled())
    }

    /// [`DurableMiner::create`] with observability: the WAL's `wal.*`
    /// metrics and the inner miner's `stream.*` metrics register under
    /// `reg`.
    pub fn create_instrumented(
        path: &Path,
        cfg: DurableConfig,
        reg: &Registry,
    ) -> Result<DurableMiner, WalError> {
        let mut wal = Wal::create(path)?;
        wal.instrument(WalMetrics::new(&reg.scope("wal")));
        let inner = ShardedMiner::spawn_instrumented(cfg.stream.clone(), reg);
        DurableMiner::assemble(inner, wal, path, cfg, 0, 0, 0, Vec::new())
    }

    /// Attach the log to the router — which starts its commit stage —
    /// and wrap the pair.
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        mut inner: ShardedMiner,
        wal: Wal,
        path: &Path,
        cfg: DurableConfig,
        events: u64,
        ops: u64,
        ckpt_seq: u64,
        anchors: Vec<(u64, Lsn)>,
    ) -> Result<DurableMiner, WalError> {
        inner.attach_wal(wal)?;
        Ok(DurableMiner {
            inner,
            path: path.to_path_buf(),
            cfg,
            events,
            ops,
            ckpt_seq,
            anchors,
        })
    }

    /// The router's log.
    fn wal(&mut self) -> &mut Wal {
        let journal = self.inner.journal.as_mut();
        // lint: allow(panic) `assemble` is the only constructor and it
        // attaches the log; a durable miner without one is a bug here
        &mut journal.expect("durable miner has its log attached").wal
    }

    /// Journal and route one access. Panics if the log can no longer be
    /// written (a durable tier must not silently degrade to a lossy one).
    pub fn ingest(&mut self, req: Request, path: Option<&FilePath>) {
        self.inner.route(req, path);
        self.events += 1;
        self.ops += 1;
        if self.cfg.checkpoint_interval > 0
            && self.events.is_multiple_of(self.cfg.checkpoint_interval)
        {
            // lint: allow(panic) a failed checkpoint leaves recovery
            // replaying the full log — correct but unbounded; failing
            // loudly here is the durability contract
            self.checkpoint().expect("wal checkpoint failed");
        }
    }

    /// Convenience: journal and route a trace event.
    pub fn ingest_event(&mut self, trace: &Trace, e: &TraceEvent) {
        self.ingest(Request::from_event(e), trace.path_of(e.file));
    }

    /// Journal and route a forget tombstone.
    pub fn forget(&mut self, file: FileId) {
        self.inner.route_forget(file);
        self.ops += 1;
    }

    /// Barrier: everything ingested so far is mined and durable when
    /// this returns (the barrier's marker passes through the commit
    /// stage behind the last batch, so it is answered only after the
    /// sync that covers that batch).
    pub fn flush(&mut self) {
        self.inner.flush();
    }

    /// Consistent snapshot of the wrapped miner. Everything it describes
    /// is durable: the cut's marker waits for the commit stage like any
    /// batch.
    pub fn snapshot(&mut self) -> StreamSnapshot {
        self.inner.snapshot()
    }

    /// Take a checkpoint now: persist the full state image at this
    /// consistent cut (serving snapshot + every shard's bit-exact
    /// [`MinerState`]) into the sidecar, append the CHECKPOINT record
    /// referencing it, and sync. The record's LSN becomes the
    /// checkpoint's anchor: recovery from this image replays only the
    /// log past it. Keeps the last two sidecars, pruning older ones,
    /// and compacts the log when the config asks for it.
    pub fn checkpoint(&mut self) -> Result<(), WalError> {
        let (snap, states) = self.inner.export_full();
        let bytes = encode_image(&snap, &states);
        self.ckpt_seq += 1;
        let info = CheckpointInfo {
            seq: self.ckpt_seq,
            events: self.events,
            ops: self.ops,
            snapshot_len: bytes.len() as u64,
            snapshot_crc: crc32(&bytes),
        };
        write_durable(&sidecar_path(&self.path, info.seq), &bytes)?;
        let wal = self.wal();
        let anchor = wal.append(record_kind::CHECKPOINT, &encode_checkpoint(&info))?;
        // Synced here, not by the commit stage: the record travels with
        // no batch, and the stage is idle — every shard has answered the
        // export marker it forwarded.
        wal.sync()?;
        self.anchors.push((info.seq, anchor));
        if self.anchors.len() > 2 {
            self.anchors.remove(0);
        }
        if self.ckpt_seq > 2 {
            let _ = fs::remove_file(sidecar_path(&self.path, self.ckpt_seq - 2));
        }
        if self.cfg.compact_on_checkpoint {
            self.compact()?;
        }
        Ok(())
    }

    /// Drop WAL pages no surviving checkpoint needs: everything wholly
    /// before the anchor of the *older* of the two retained
    /// checkpoints (so the fallback image stays replayable). No-op
    /// until a checkpoint exists.
    pub fn compact(&mut self) -> Result<WalCompaction, WalError> {
        let keep = match self.anchors.len() {
            0 => return Ok(WalCompaction::default()),
            1 => self.anchors[0].1,
            n => self.anchors[n - 2].1,
        };
        self.inner.compact_wal(keep)
    }

    /// Events ingested (journaled) so far.
    pub fn events_logged(&self) -> u64 {
        self.events
    }

    /// Operations (ingests + forgets) journaled so far.
    pub fn ops_logged(&self) -> u64 {
        self.ops
    }

    /// Logical size of the log in bytes (including unsynced appends).
    pub fn wal_len_bytes(&self) -> u64 {
        self.inner.journal.as_ref().map_or(0, |j| j.wal.len_bytes())
    }

    /// The log file path.
    pub fn wal_path(&self) -> &Path {
        &self.path
    }

    /// The active configuration.
    pub fn config(&self) -> &DurableConfig {
        &self.cfg
    }

    /// Access the wrapped miner.
    pub fn miner(&mut self) -> &mut ShardedMiner {
        &mut self.inner
    }

    /// Simulate a process crash *at a commit boundary*: the router's
    /// partial batch — appended to the log's buffer, never written — is
    /// dropped on the floor, and the miner is torn down. The teardown
    /// joins the commit stage, which first completes the sync of every
    /// batch it was handed, so everything dispatched is on disk and the
    /// file holds exactly the whole batches routed (plus checkpoint
    /// records): the same bytes for the same operation stream however the
    /// commit stage happened to group its syncs. A real power cut can
    /// also lose the batches still in the commit stage (see the module
    /// docs' loss window) and tear the last write; those cuts are the
    /// torn-tail tests' job, which truncate and corrupt the file
    /// directly.
    pub fn crash(mut self) {
        self.wal().abandon();
    }
}

/// Read and validate a checkpoint's sidecar image: present, length and
/// CRC matching the log record, and decodable.
fn load_image(wal: &Path, c: &CheckpointInfo) -> Option<(StreamSnapshot, Vec<MinerState>)> {
    let bytes = fs::read(sidecar_path(wal, c.seq)).ok()?;
    if bytes.len() as u64 != c.snapshot_len || crc32(&bytes) != c.snapshot_crc {
        return None;
    }
    decode_image(&bytes).ok()
}

/// Standalone log compaction: open the log at `path`, find the newest
/// two checkpoints whose sidecar images validate, and drop every page
/// wholly before the older one's anchor. A log with no valid image is
/// left untouched (genesis replay may still need LSN 1).
pub fn compact(path: &Path) -> Result<WalCompaction, WalError> {
    let (mut wal, entries, _) = Wal::open(path)?;
    let mut valid: Vec<Lsn> = Vec::new();
    for e in &entries {
        if e.kind == record_kind::CHECKPOINT {
            if let Ok(c) = decode_checkpoint(&e.payload) {
                if load_image(path, &c).is_some() {
                    valid.push(e.lsn);
                }
            }
        }
    }
    let keep = match valid.len() {
        0 => return Ok(WalCompaction::default()),
        1 => valid[0],
        n => valid[n - 2],
    };
    wal.compact_before(keep)
}

/// Recover a durable miner from its log: scan (dropping any torn tail),
/// restore the newest valid checkpoint image, replay only the WAL
/// suffix past its anchor LSN, and return the miner positioned to keep
/// logging where the survivor left off. A truncated or corrupt image
/// falls back to the next-older one, then to genesis replay while the
/// log still starts at LSN 1; a compacted log with no loadable image is
/// an error (state would be silently wrong otherwise).
pub fn recover(
    path: &Path,
    cfg: DurableConfig,
) -> Result<(DurableMiner, RecoveryReport), WalError> {
    recover_instrumented(path, cfg, &Registry::disabled())
}

/// [`recover`] with observability: replay counters and latency land
/// under `wal.*` (`wal.recoveries`, `wal.recovery_replay_events`,
/// `wal.recovery_ns`), alongside the reopened log's own metrics.
pub fn recover_instrumented(
    path: &Path,
    cfg: DurableConfig,
    reg: &Registry,
) -> Result<(DurableMiner, RecoveryReport), WalError> {
    let t0 = Instant::now();
    let wal_scope = reg.scope("wal");
    let (mut wal, entries, tail) = Wal::open(path)?;
    wal.instrument(WalMetrics::new(&wal_scope));

    let mut ops: Vec<(Lsn, WalOp)> = Vec::with_capacity(entries.len());
    let mut ckpts: Vec<(Lsn, CheckpointInfo)> = Vec::new();
    for e in &entries {
        match e.kind {
            record_kind::OP => match decode_op(&e.payload) {
                Ok(op) => ops.push((e.lsn, op)),
                // A checksum-verified record that fails to decode is a
                // codec-version mismatch. `Wal::open` has positioned the
                // log after everything it scanned, so carrying on from
                // the prefix would append behind the bad record and the
                // next recovery would drop all of it: refuse instead.
                Err(_) => {
                    return Err(WalError::Io(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("op record at LSN {} does not decode", e.lsn),
                    )))
                }
            },
            record_kind::CHECKPOINT => {
                if let Ok(c) = decode_checkpoint(&e.payload) {
                    ckpts.push((e.lsn, c));
                }
            }
            _ => {}
        }
    }

    // Walk the checkpoint ladder newest → oldest: the first image that
    // exists, matches its recorded length and CRC, and decodes anchors
    // recovery.
    let mut fallbacks = 0u64;
    let mut anchor: Option<(Lsn, CheckpointInfo, StreamSnapshot, Vec<MinerState>)> = None;
    for (lsn, c) in ckpts.iter().rev() {
        match load_image(path, c) {
            Some((serving, states)) => {
                anchor = Some((*lsn, *c, serving, states));
                break;
            }
            None => fallbacks += 1,
        }
    }

    let (mut miner, anchor_lsn, anchor_info, serving) = match anchor {
        Some((lsn, info, serving, states)) => {
            let miner = ShardedMiner::spawn_restored_instrumented(cfg.stream.clone(), &states, reg);
            (miner, Some(lsn), Some(info), Some(serving))
        }
        None => {
            // Genesis replay is only exact while the log still starts
            // at LSN 1; a compacted prefix with no loadable image means
            // the state is unrecoverable, and saying so beats silently
            // rebuilding a wrong graph.
            if let Some(first) = entries.first() {
                if first.lsn != 1 {
                    return Err(WalError::Io(io::Error::other(format!(
                        "wal is compacted (first LSN {}) and no checkpoint image is loadable",
                        first.lsn
                    ))));
                }
            }
            let miner = ShardedMiner::spawn_instrumented(cfg.stream.clone(), reg);
            (miner, None, None, None)
        }
    };

    // Restore integrity self-check: the state rebuilt from the image
    // must equal the serving snapshot captured at the same cut.
    let verified = serving
        .as_ref()
        .map(|expect| snapshots_bitwise_equal(&miner.snapshot(), expect));

    let cut = anchor_lsn.unwrap_or(0);
    let mut ops_replayed = 0u64;
    let mut events_replayed = 0u64;
    for (lsn, op) in ops {
        if lsn <= cut {
            continue;
        }
        ops_replayed += 1;
        events_replayed += u64::from(matches!(op, WalOp::Ingest { .. }));
        miner.route_op(op);
    }
    miner.flush();
    let replay_ns = t0.elapsed().as_nanos() as u64;

    let ops_recovered = anchor_info.map_or(0, |c| c.ops) + ops_replayed;
    let events_recovered = anchor_info.map_or(0, |c| c.events) + events_replayed;

    wal_scope.counter("recoveries").inc();
    wal_scope
        .counter("recovery_replay_events")
        .add(events_replayed);
    wal_scope.counter("recovery_fallbacks").add(fallbacks);
    wal_scope.histogram("recovery_ns").record(replay_ns);
    if let Some(lsn) = anchor_lsn {
        wal_scope.gauge("anchor_lsn").set(lsn as i64);
    }

    let ckpt_seq = ckpts.last().map_or(0, |(_, c)| c.seq);
    let anchors: Vec<(u64, Lsn)> = ckpts
        .iter()
        .rev()
        .take(2)
        .rev()
        .map(|(lsn, c)| (c.seq, *lsn))
        .collect();
    let report = RecoveryReport {
        ops_replayed,
        events_replayed,
        ops_recovered,
        events_recovered,
        torn_tail: tail.torn,
        dropped_bytes: tail.dropped_bytes,
        checkpoint: anchor_info,
        anchor_lsn,
        fallbacks,
        checkpoint_verified: verified,
        serving_snapshot: serving,
        replay_ns,
    };
    let miner = DurableMiner::assemble(
        miner,
        wal,
        path,
        cfg,
        events_recovered,
        ops_recovered,
        ckpt_seq,
        anchors,
    )?;
    Ok((miner, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use farmer_trace::WorkloadSpec;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp_wal(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        dir.pop();
        dir.pop();
        dir.push("target");
        dir.push("durable-tests");
        std::fs::create_dir_all(&dir).expect("create durable test dir");
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        dir.join(format!("{tag}-{}-{n}.wal", std::process::id()))
    }

    struct Cleanup(PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            let _ = fs::remove_file(&self.0);
            for seq in 0..64 {
                let _ = fs::remove_file(sidecar_path(&self.0, seq));
            }
        }
    }

    fn small_cfg(shards: usize) -> DurableConfig {
        let mut stream = StreamConfig::default()
            .with_shards(shards)
            .with_node_cap(1 << 20);
        stream.route_batch = 32;
        DurableConfig::new(stream)
    }

    #[test]
    fn op_codec_roundtrips() {
        let req = Request {
            file: FileId::new(7),
            uid: farmer_trace::UserId::new(1),
            pid: farmer_trace::ProcId::new(2),
            host: farmer_trace::HostId::new(3),
            dev: farmer_trace::DevId::new(4),
        };
        let ops = [
            WalOp::Ingest { req, path: None },
            WalOp::Ingest {
                req,
                path: Some(FilePath::from_components(vec![5, 6, 7])),
            },
            WalOp::Forget(FileId::new(42)),
        ];
        let path = tmp_wal("opcodec");
        let _c = Cleanup(path.clone());
        let mut m = DurableMiner::create(&path, small_cfg(1)).unwrap();
        for op in &ops {
            let bytes = encode_op(op);
            assert_eq!(decode_op(&bytes).unwrap(), *op);
            m.miner().route_op(op.clone());
        }
        m.flush();
        // One encoder: the record the router logged for each op is the
        // payload `encode_op` returns for it.
        let (entries, _) = Wal::scan(&path).unwrap();
        let logged: Vec<Vec<u8>> = entries.into_iter().map(|e| e.payload).collect();
        assert_eq!(logged, ops.iter().map(encode_op).collect::<Vec<_>>());
        assert!(decode_op(&[]).is_err());
        assert!(decode_op(&[99, 0, 0]).is_err());
    }

    #[test]
    fn undecodable_op_record_fails_recovery() {
        // A checksum-valid OP record with an unknown tag in the middle of
        // the log: recovering the prefix alone would leave the log
        // positioned after the records it skipped, and the next recovery
        // would silently drop everything appended from here on.
        let trace = WorkloadSpec::ins().scaled(0.005).generate();
        let path = tmp_wal("badop");
        let _c = Cleanup(path.clone());
        let cfg = small_cfg(1);
        let half = trace.len() / 2;
        let mut m = DurableMiner::create(&path, cfg.clone()).unwrap();
        for e in trace.events.iter().take(half) {
            m.ingest_event(&trace, e);
        }
        m.wal().append(record_kind::OP, &[99, 0, 0]).unwrap();
        for e in trace.events.iter().skip(half) {
            m.ingest_event(&trace, e);
        }
        m.flush();
        drop(m);
        match recover(&path, cfg) {
            Err(WalError::Io(e)) => {
                assert_eq!(e.kind(), io::ErrorKind::InvalidData);
                assert!(e.to_string().contains("does not decode"), "{e}");
            }
            Err(other) => panic!("wrong error: {other}"),
            Ok((_, report)) => panic!(
                "recovered {} of {} events past a record it could not read",
                report.events_recovered,
                trace.len()
            ),
        }
    }

    #[test]
    fn snapshot_codec_is_bit_exact() {
        let trace = WorkloadSpec::hp().scaled(0.01).generate();
        let path = tmp_wal("snapcodec");
        let _c = Cleanup(path.clone());
        let mut m = DurableMiner::create(&path, small_cfg(2)).unwrap();
        for e in &trace.events {
            m.ingest_event(&trace, e);
        }
        let snap = m.snapshot();
        let decoded = decode_snapshot(&encode_snapshot(&snap)).unwrap();
        assert!(snapshots_bitwise_equal(&snap, &decoded));
    }

    /// A snapshot sidecar by hand: the fixed header announcing
    /// `num_lists`, then the given one-entry lists.
    fn snapshot_bytes(num_lists: u32, owners: &[u32]) -> Vec<u8> {
        let mut w = Writer::with_capacity(64);
        w.u64(100).u32(1).u64(2).u64(0).u64(4096).u32(num_lists);
        for &owner in owners {
            w.u32(owner).u32(1).u32(owner + 1).u64(0.5f64.to_bits());
        }
        w.finish()
    }

    #[test]
    fn snapshot_decode_rejects_a_repeated_owner() {
        let ok = decode_snapshot(&snapshot_bytes(2, &[7, 8])).unwrap();
        assert_eq!(ok.num_lists(), 2);
        assert_eq!(
            decode_snapshot(&snapshot_bytes(3, &[7, 8, 7])).unwrap_err(),
            DecodeError::DuplicateKey,
            "the second list for owner 7 must not replace the first"
        );
    }

    #[test]
    fn snapshot_decode_reserves_only_what_the_bytes_can_hold() {
        // A header promising four billion lists in front of two: refused
        // from the length alone, before anything is reserved for them.
        assert_eq!(
            decode_snapshot(&snapshot_bytes(u32::MAX, &[7, 8])).unwrap_err(),
            DecodeError::BadLength
        );
        // A count the bytes could hold but do not: the reader runs dry.
        assert_eq!(
            decode_snapshot(&snapshot_bytes(3, &[7, 8])).unwrap_err(),
            DecodeError::Truncated
        );
    }

    #[test]
    fn durable_miner_state_equals_plain_miner() {
        let trace = WorkloadSpec::hp().scaled(0.01).generate();
        let path = tmp_wal("parity");
        let _c = Cleanup(path.clone());
        let cfg = small_cfg(2);
        let mut durable = DurableMiner::create(&path, cfg.clone()).unwrap();
        let mut plain = ShardedMiner::spawn(cfg.stream.clone());
        for (i, e) in trace.events.iter().enumerate() {
            if i % 61 == 0 {
                durable.forget(e.file);
                plain.route_forget(e.file);
            }
            durable.ingest_event(&trace, e);
            plain.route_event(&trace, e);
        }
        // Journaling must not perturb mining state in any way.
        assert!(snapshots_bitwise_equal(
            &durable.snapshot(),
            &plain.snapshot()
        ));
    }

    #[test]
    fn crash_loses_only_the_unsynced_tail_and_recovers_exactly() {
        let trace = WorkloadSpec::ins().scaled(0.01).generate();
        let path = tmp_wal("crash");
        let _c = Cleanup(path.clone());
        let cfg = small_cfg(2);
        let batch = cfg.stream.route_batch;
        let kill = trace.len() * 2 / 3 + 7; // deliberately off-boundary
        let mut m = DurableMiner::create(&path, cfg.clone()).unwrap();
        for e in trace.events.iter().take(kill) {
            m.ingest_event(&trace, e);
        }
        m.crash();
        let synced = kill - kill % batch;

        let (mut recovered, report) = recover(&path, cfg.clone()).unwrap();
        assert_eq!(report.events_replayed, synced as u64);
        assert_eq!(report.events_recovered, synced as u64);
        assert_eq!(report.anchor_lsn, None, "no checkpoints: genesis replay");
        assert!(!report.torn_tail);

        // Oracle: an uninterrupted miner over exactly the synced prefix.
        let mut oracle = ShardedMiner::spawn(cfg.stream.clone());
        for e in trace.events.iter().take(synced) {
            oracle.route_event(&trace, e);
        }
        assert!(snapshots_bitwise_equal(
            &recovered.snapshot(),
            &oracle.snapshot()
        ));

        // And the recovered miner keeps going: finish the stream on both.
        for e in trace.events.iter().skip(synced) {
            recovered.ingest_event(&trace, e);
            oracle.route_event(&trace, e);
        }
        assert!(snapshots_bitwise_equal(
            &recovered.snapshot(),
            &oracle.snapshot()
        ));
    }

    /// Run `f`, which must panic, and return the panic's message.
    fn panic_message(f: impl FnOnce()) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("the router never noticed its dead worker");
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(p) => (*p.downcast::<&str>().expect("a string payload")).to_string(),
        }
    }

    #[test]
    fn committer_failure_surfaces_on_the_router() {
        let trace = &WorkloadSpec::ins().scaled(0.01).generate();
        let live = |tag: &str| {
            let path = tmp_wal(tag);
            let mut m = DurableMiner::create(&path, small_cfg(2)).unwrap();
            for e in trace.events.iter().take(100) {
                m.ingest_event(trace, e);
            }
            (Cleanup(path), m)
        };
        // Through a barrier: the marker is lost with the committer, and
        // flush() re-raises the committer's own message. Unwinding then
        // drops the miner, which must neither hang nor panic again (a
        // second panic would abort the test binary).
        let (_c, mut m) = live("commit-poison-flush");
        m.miner().poison_committer();
        assert_eq!(panic_message(move || m.flush()), "injected committer panic");
        // Through routing: some dispatch after the committer died finds
        // its channel closed.
        let (_c, mut m) = live("commit-poison-ingest");
        m.miner().poison_committer();
        let msg = panic_message(move || {
            for e in trace.stream().take(100_000) {
                m.ingest_event(trace, &e);
            }
        });
        assert_eq!(msg, "injected committer panic");
        // Through Drop alone: hanging up lets the committer reach the
        // poison, and the join re-raises it.
        let (_c, mut m) = live("commit-poison-drop");
        m.miner().poison_committer();
        assert_eq!(panic_message(move || drop(m)), "injected committer panic");
    }

    #[test]
    fn shard_panic_wins_with_a_log_attached() {
        // A dead shard makes the committer hang up without a panic of its
        // own, so what the router re-raises is the shard's message.
        let trace = &WorkloadSpec::ins().scaled(0.01).generate();
        let live = |tag: &str| {
            let path = tmp_wal(tag);
            let mut cfg = small_cfg(3);
            cfg.stream.channel_capacity = 1;
            let mut m = DurableMiner::create(&path, cfg).unwrap();
            m.miner().poison_shard(1);
            (Cleanup(path), m)
        };
        let (_c, mut m) = live("shard-poison-flush");
        assert_eq!(
            panic_message(move || m.flush()),
            "injected shard worker panic"
        );
        let (_c, mut m) = live("shard-poison-snapshot");
        assert_eq!(
            panic_message(move || drop(m.snapshot())),
            "injected shard worker panic"
        );
        let (_c, mut m) = live("shard-poison-routing");
        let msg = panic_message(move || {
            for e in trace.stream().take(100_000) {
                m.ingest_event(trace, &e);
            }
        });
        assert_eq!(msg, "injected shard worker panic");
        let (_c, m) = live("shard-poison-drop");
        assert_eq!(
            panic_message(move || drop(m)),
            "injected shard worker panic"
        );
    }

    #[test]
    fn checkpoint_sidecar_serves_and_verifies() {
        let trace = WorkloadSpec::hp().scaled(0.01).generate();
        let path = tmp_wal("ckpt");
        let _c = Cleanup(path.clone());
        let interval = (trace.len() / 3) as u64;
        let cfg = small_cfg(1);
        let cfg = DurableConfig {
            checkpoint_interval: interval,
            ..cfg
        };
        let mut m = DurableMiner::create(&path, cfg.clone()).unwrap();
        for e in &trace.events {
            m.ingest_event(&trace, e);
        }
        m.crash();

        let reg = Registry::enabled();
        let (_, report) = recover_instrumented(&path, cfg.clone(), &reg).unwrap();
        let ckpt = report.checkpoint.expect("checkpoint image loaded");
        assert!(ckpt.seq >= 2, "interval checkpoints fired");
        assert_eq!(report.checkpoint_verified, Some(true));
        assert_eq!(report.fallbacks, 0);
        let anchor = report.anchor_lsn.expect("anchored recovery");
        let serving = report.serving_snapshot.expect("image loaded");
        assert_eq!(serving.events, ckpt.events);
        // Suffix-only replay: bounded by the checkpoint interval plus
        // one route batch of slack, not the whole log.
        assert_eq!(
            report.events_recovered,
            ckpt.events + report.events_replayed
        );
        assert!(
            report.events_replayed <= interval + cfg.stream.route_batch as u64,
            "replayed {} events for interval {interval}",
            report.events_replayed
        );
        let obs = reg.snapshot();
        assert_eq!(obs.counter("wal.recoveries"), Some(1));
        assert_eq!(
            obs.counter("wal.recovery_replay_events"),
            Some(report.events_replayed)
        );
        assert_eq!(obs.gauge("wal.anchor_lsn"), Some(anchor as i64));
        assert!(obs.histogram("wal.recovery_ns").unwrap().count == 1);
    }

    #[test]
    fn recovery_tolerates_missing_sidecar() {
        let trace = WorkloadSpec::hp().scaled(0.005).generate();
        let path = tmp_wal("nosidecar");
        let _c = Cleanup(path.clone());
        let cfg = DurableConfig {
            checkpoint_interval: (trace.len() / 2) as u64,
            ..small_cfg(1)
        };
        let mut m = DurableMiner::create(&path, cfg.clone()).unwrap();
        for e in &trace.events {
            m.ingest_event(&trace, e);
        }
        m.flush();
        drop(m);
        for seq in 0..16 {
            let _ = fs::remove_file(sidecar_path(&path, seq));
        }
        let (mut recovered, report) = recover(&path, cfg.clone()).unwrap();
        // Every rung of the image ladder fell through; genesis replay
        // (the log still starts at LSN 1) is still exact.
        assert!(report.serving_snapshot.is_none());
        assert_eq!(report.checkpoint_verified, None);
        assert_eq!(report.anchor_lsn, None);
        assert!(report.fallbacks >= 1);
        let mut oracle = ShardedMiner::spawn(cfg.stream.clone());
        for e in &trace.events {
            oracle.route_event(&trace, e);
        }
        assert!(snapshots_bitwise_equal(
            &recovered.snapshot(),
            &oracle.snapshot()
        ));
    }

    #[test]
    fn image_codec_roundtrips_bit_exact() {
        let trace = WorkloadSpec::hp().scaled(0.01).generate();
        let path = tmp_wal("imagecodec");
        let _c = Cleanup(path.clone());
        let mut m = DurableMiner::create(&path, small_cfg(2)).unwrap();
        for e in &trace.events {
            m.ingest_event(&trace, e);
        }
        let (serving, states) = m.miner().export_full();
        let bytes = encode_image(&serving, &states);
        let (dec_serving, dec_states) = decode_image(&bytes).unwrap();
        assert!(snapshots_bitwise_equal(&serving, &dec_serving));
        assert_eq!(states, dec_states);
        assert!(decode_image(&bytes[..bytes.len() - 3]).is_err());
    }

    #[test]
    fn recovery_from_compacted_log_is_exact() {
        let trace = WorkloadSpec::hp().scaled(0.01).generate();
        let path = tmp_wal("compacted");
        let _c = Cleanup(path.clone());
        let cfg = small_cfg(2)
            .with_checkpoint_interval((trace.len() / 4) as u64)
            .with_compaction(true);
        let mut m = DurableMiner::create(&path, cfg.clone()).unwrap();
        for e in &trace.events {
            m.ingest_event(&trace, e);
        }
        m.flush();
        drop(m);

        // Compaction really dropped the prefix…
        let (entries, tail) = farmer_store::Wal::scan(&path).unwrap();
        assert!(!tail.torn);
        assert!(entries[0].lsn > 1, "log prefix was compacted away");

        // …and recovery from the suffix is still bitwise exact.
        let (mut recovered, report) = recover(&path, cfg.clone()).unwrap();
        assert!(report.anchor_lsn.is_some());
        assert_eq!(report.checkpoint_verified, Some(true));
        assert_eq!(report.events_recovered, trace.len() as u64);
        let mut oracle = ShardedMiner::spawn(cfg.stream.clone());
        for e in &trace.events {
            oracle.route_event(&trace, e);
        }
        assert!(snapshots_bitwise_equal(
            &recovered.snapshot(),
            &oracle.snapshot()
        ));
    }

    #[test]
    fn corrupt_newest_image_falls_back_to_older() {
        let trace = WorkloadSpec::hp().scaled(0.01).generate();
        let path = tmp_wal("ladder");
        let _c = Cleanup(path.clone());
        let cfg = small_cfg(1).with_checkpoint_interval((trace.len() / 3) as u64);
        let mut m = DurableMiner::create(&path, cfg.clone()).unwrap();
        for e in &trace.events {
            m.ingest_event(&trace, e);
        }
        m.flush();
        drop(m);

        // Flip a bit in the newest sidecar image (seq 3).
        let newest = sidecar_path(&path, 3);
        let mut bytes = fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        fs::write(&newest, &bytes).unwrap();

        let (mut recovered, report) = recover(&path, cfg.clone()).unwrap();
        assert_eq!(report.fallbacks, 1, "newest image rejected");
        assert_eq!(report.checkpoint.unwrap().seq, 2, "older image anchored");
        assert_eq!(report.checkpoint_verified, Some(true));
        assert_eq!(report.events_recovered, trace.len() as u64);
        let mut oracle = ShardedMiner::spawn(cfg.stream.clone());
        for e in &trace.events {
            oracle.route_event(&trace, e);
        }
        assert!(snapshots_bitwise_equal(
            &recovered.snapshot(),
            &oracle.snapshot()
        ));
    }

    #[test]
    fn compacted_log_without_images_refuses_genesis() {
        let trace = WorkloadSpec::hp().scaled(0.005).generate();
        let path = tmp_wal("refuse");
        let _c = Cleanup(path.clone());
        let cfg = small_cfg(1)
            .with_checkpoint_interval((trace.len() / 3) as u64)
            .with_compaction(true);
        let mut m = DurableMiner::create(&path, cfg.clone()).unwrap();
        for e in &trace.events {
            m.ingest_event(&trace, e);
        }
        m.flush();
        drop(m);
        for seq in 0..16 {
            let _ = fs::remove_file(sidecar_path(&path, seq));
        }
        // Prefix gone, images gone: genesis replay would silently build
        // the wrong state, so recovery must refuse.
        assert!(recover(&path, cfg).is_err());
    }

    #[test]
    fn standalone_compact_respects_surviving_checkpoints() {
        let trace = WorkloadSpec::hp().scaled(0.01).generate();
        let path = tmp_wal("standalone");
        let _c = Cleanup(path.clone());
        let interval = (trace.len() / 4) as u64;
        let cfg = small_cfg(1).with_checkpoint_interval(interval);
        let mut m = DurableMiner::create(&path, cfg.clone()).unwrap();
        for e in &trace.events {
            m.ingest_event(&trace, e);
        }
        m.flush();
        drop(m);

        let report = compact(&path).unwrap();
        assert!(report.pages_dropped > 0);
        // Idempotent: a second pass has nothing left to reclaim beyond
        // at most the page boundary it already cut at.
        assert_eq!(compact(&path).unwrap().pages_dropped, 0);

        // Both surviving images remain anchored: corrupt the newest and
        // recovery still lands on the older one, bitwise exact.
        let newest = sidecar_path(&path, 4);
        let mut bytes = fs::read(&newest).unwrap();
        bytes[10] ^= 0x01;
        fs::write(&newest, &bytes).unwrap();
        let (mut recovered, report) = recover(&path, cfg.clone()).unwrap();
        assert_eq!(report.fallbacks, 1);
        assert_eq!(report.checkpoint.unwrap().seq, 3);
        let mut oracle = ShardedMiner::spawn(cfg.stream.clone());
        for e in &trace.events {
            oracle.route_event(&trace, e);
        }
        assert!(snapshots_bitwise_equal(
            &recovered.snapshot(),
            &oracle.snapshot()
        ));
    }
}
