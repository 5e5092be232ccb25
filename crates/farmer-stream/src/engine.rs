//! The bounded-memory streaming miner: one shard's engine.
//!
//! [`StreamMiner`] wraps a [`Farmer`] and enforces a hard budget on the
//! state the miner may retain, using the two mechanisms tiered-storage and
//! metadata-analytics systems rely on for per-file state at scale:
//!
//! * **Space-Saving-style heavy-hitter retention** — every *owned* file
//!   carries an access counter. When a new file arrives at a full table,
//!   the lowest-count files are evicted (in amortizing batches) and the
//!   newcomer inherits the smallest evicted count as its starting value —
//!   the classic Space-Saving over-count bound, which guarantees genuinely
//!   hot files are never displaced by a parade of cold ones.
//! * **Exponential decay** — every [`DECAY_INTERVAL`] events the counters
//!   are multiplied by [`COUNT_DECAY`], so retention ranks files by
//!   *recent* heat rather than all-time totals.
//!
//! Eviction is *complete*: a victim's access count, learned path, node,
//! incoming edges and window entries all go (via [`Farmer::forget_files`]),
//! so a later access re-admits it as a brand-new file. The invariants the
//! property tests pin down:
//!
//! * active graph nodes ≤ `node_cap`,
//! * live edges ≤ `node_cap × max_successors`,
//!
//! for *any* input stream, however long and however many distinct files.
//!
//! **Scope of the bound.** The cap is unconditional. The correlation
//! graph stores nodes in sparse slotted storage (id→slot index over a
//! dense slab of live nodes) and the model keeps learned paths in a
//! sparse map, so *all* per-file state — edges, paths, counters, access
//! totals, node slots — is reclaimed by eviction and resident memory is
//! O(node_cap) even over open-ended id universes, and the shard's periodic
//! maintenance (counter decay, the graph's prune) touches only live state.
//!
//! # Which stage owns what
//!
//! A miner is two stages ([`StreamMiner::into_stages`]), each the model's
//! own ([`farmer_core::stage`]) plus what the shard adds to it:
//!
//! | stage | owns | runs on, in a one-shard fleet |
//! |---|---|---|
//! | stream ([`ShardStream`]) | the counters, their decay and floor, victim selection; the look-ahead window; the learned paths and signatures; each update's preparation | the router's thread |
//! | graph ([`ShardGraph`]) | the graph: access counts, edge updates, prune ticks, the victims' nodes and incoming edges; the slot hints; the cut walk | the shard's thread |
//!
//! A [`StreamMiner`] runs both on one thread, each operation's steps
//! applied as they are prepared — so does every shard thread of a wider
//! fleet — and a one-shard fleet runs them apart (see [`crate::shard`]).
//! Either way an operation goes through the shard's retention first, in one
//! order (admission, the victims forgotten, the access mined; or the
//! counter dropped and the file forgotten), and the steps are the only
//! thing the stages share, so both build the same state bit for bit. A
//! cut joins the two: the stream stage's counts, window, paths and floor,
//! the graph stage's lists and graph image, and each stage's share of
//! [`StreamMiner::state_bytes`].

use std::cell::Cell;

use farmer_core::graph::{total_order_key, UpdateMix};
use farmer_core::{Farmer, FarmerState, GraphStage, Request, Steps, StreamStage, TableWalk};
use farmer_trace::hash::{fx_hash_u64, FxHashMap};
use farmer_trace::{FileId, FilePath, MiningAction, Trace, TraceEvent};

use crate::durable::WalOp;
use crate::metrics::StreamMetrics;
use crate::snapshot::{ShardCut, ShardSnapshot};
use crate::{StreamConfig, COUNT_DECAY, DECAY_INTERVAL};

/// Does `shard_id` (of `num_shards`) own `file`? Mirrors the Fx-hash
/// namespace routing of `farmer-mds::cluster`'s `Partition::Hash`.
#[inline]
pub fn owns_file(file: FileId, shard_id: usize, num_shards: usize) -> bool {
    num_shards <= 1 || (fx_hash_u64(u64::from(file.raw())) as usize) % num_shards == shard_id
}

/// A retention counter as one integer ordered like
/// `count.total_cmp().then(file)`: the count's place in the total order
/// (sign bit flipped, so it sorts unsigned) above the file id.
#[inline]
fn evict_key(file: u32, count: f64) -> u128 {
    let count = (total_order_key(count) as u64) ^ (1 << 63);
    u128::from(count) << 32 | u128::from(file)
}

/// Full state image of one [`StreamMiner`]: the wrapped model's exact
/// state (see [`farmer_core::state`]) plus the shard's retention
/// counters and stream-position accounting. Floating-point values are
/// raw `f64` bits so a restored miner continues the stream bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct MinerState {
    /// Shard identity the image was taken under (ownership partitioning
    /// is part of the state).
    pub shard_id: u32,
    /// Fleet width the image was taken under.
    pub num_shards: u32,
    /// Events ingested (owned or not).
    pub events_seen: u64,
    /// Events whose file this shard owns.
    pub owned_events: u64,
    /// Files evicted so far.
    pub evictions: u64,
    /// Space-Saving over-estimation floor (raw bits).
    pub count_floor: u64,
    /// Retention counters as `(file id, count bits)`, sorted by id.
    pub counts: Vec<(u32, u64)>,
    /// The wrapped model's state.
    pub farmer: FarmerState,
}

/// What a shard's stream stage knows of it at a cut: its snapshot but
/// for the lists, and the stage's share of the bytes.
pub(crate) type CutHead = ShardSnapshot<()>;

/// What an operation drives once [`Retention`] has accounted it: the whole
/// model on one thread ([`StreamMiner`]), or a stream stage preparing
/// steps for a graph stage on another ([`ShardStream`]).
trait Mine {
    fn forget_files(&mut self, files: &[FileId]);
    fn observe_where(
        &mut self,
        req: Request,
        path: Option<&FilePath>,
        owns: impl Fn(FileId) -> bool,
    );
}

impl Mine for Farmer {
    fn forget_files(&mut self, files: &[FileId]) {
        Farmer::forget_files(self, files);
    }

    fn observe_where(
        &mut self,
        req: Request,
        path: Option<&FilePath>,
        owns: impl Fn(FileId) -> bool,
    ) {
        Farmer::observe_where(self, req, path, owns);
    }
}

impl Mine for (&mut StreamStage, &mut Steps) {
    fn forget_files(&mut self, files: &[FileId]) {
        self.0.forget_files(files, self.1);
    }

    fn observe_where(
        &mut self,
        req: Request,
        path: Option<&FilePath>,
        owns: impl Fn(FileId) -> bool,
    ) {
        self.0.observe_where(req, path, owns, self.1);
    }
}

/// One shard's Space-Saving retention and stream-position accounting:
/// the part of the stream stage the model does not hold.
#[derive(Debug)]
struct Retention {
    node_cap: usize,
    evict_batch: usize,
    shard_id: usize,
    num_shards: usize,
    /// Space-Saving access counters for the owned, currently-tracked files.
    counts: FxHashMap<u32, f64>,
    /// Count inherited by newcomers (the smallest count evicted so far):
    /// the Space-Saving over-estimation floor.
    count_floor: f64,
    events_seen: u64,
    owned_events: u64,
    evictions: u64,
    /// Reused [`Retention::evict_batch`] scratch (one [`evict_key`] per
    /// counter for selection, the victims selected); never part of
    /// [`MinerState`].
    evict_keys: Vec<u128>,
    evict_victims: Vec<FileId>,
    obs: StreamMetrics,
}

impl Retention {
    fn new(cfg: &StreamConfig, shard_id: usize, num_shards: usize) -> Retention {
        Retention {
            node_cap: cfg.node_cap,
            evict_batch: cfg.evict_batch(),
            shard_id,
            num_shards,
            counts: FxHashMap::default(),
            count_floor: 0.0,
            events_seen: 0,
            owned_events: 0,
            evictions: 0,
            evict_keys: Vec::new(),
            evict_victims: Vec::new(),
            obs: StreamMetrics::default(),
        }
    }

    fn from_state(cfg: &StreamConfig, state: &MinerState) -> Retention {
        let mut r = Retention::new(cfg, state.shard_id as usize, state.num_shards as usize);
        r.counts = state
            .counts
            .iter()
            .map(|&(f, c)| (f, f64::from_bits(c)))
            .collect();
        r.count_floor = f64::from_bits(state.count_floor);
        r.events_seen = state.events_seen;
        r.owned_events = state.owned_events;
        r.evictions = state.evictions;
        r
    }

    #[inline]
    fn owns(&self, file: FileId) -> bool {
        owns_file(file, self.shard_id, self.num_shards)
    }

    /// Account one access, owned or not: the files its admission evicts
    /// (none, mostly), which the model forgets before it observes the
    /// access.
    fn access(&mut self, file: FileId) -> &[FileId] {
        self.events_seen += 1;
        let mut evicted = false;
        if self.owns(file) {
            self.owned_events += 1;
            evicted = self.admit(file);
        }
        if self.events_seen.is_multiple_of(DECAY_INTERVAL) {
            for c in self.counts.values_mut() {
                *c *= COUNT_DECAY;
            }
            self.count_floor *= COUNT_DECAY;
            self.obs.decay_ticks.inc();
        }
        if evicted {
            &self.evict_victims
        } else {
            &[]
        }
    }

    /// One access, as every composition runs it: accounted here, then the
    /// files its admission evicted forgotten by `model`, then the access
    /// mined by `model` under this shard's ownership. Whether the shard
    /// owns the access.
    fn ingest(&mut self, req: Request, path: Option<&FilePath>, model: &mut impl Mine) -> bool {
        let owned_before = self.owned_events;
        model.forget_files(self.access(req.file));
        let (shard_id, num_shards) = (self.shard_id, self.num_shards);
        model.observe_where(req, path, |f| owns_file(f, shard_id, num_shards));
        self.owned_events > owned_before
    }

    /// One forget, as every composition runs it: `file`'s counter dropped
    /// here, if it has one, and every trace of it forgotten by `model`.
    fn forget(&mut self, file: FileId, model: &mut impl Mine) {
        self.counts.remove(&file.raw());
        self.obs.forgets.inc();
        model.forget_files(&[file]);
    }

    /// Bump `file`'s counter, admitting as needed; whether that evicted.
    fn admit(&mut self, file: FileId) -> bool {
        if let Some(c) = self.counts.get_mut(&file.raw()) {
            *c += 1.0;
            return false;
        }
        let full = self.counts.len() >= self.node_cap;
        if full {
            self.evict_batch();
        }
        self.counts.insert(file.raw(), self.count_floor + 1.0);
        full
    }

    /// Select the lowest-count files in one amortizing sweep, drop their
    /// counters and raise the Space-Saving floor to the largest count
    /// evicted. The victims are left in `evict_victims` for the model.
    fn evict_batch(&mut self) {
        let batch = self.evict_batch.min(self.counts.len());
        let _span = self.obs.evict_ns.span();
        // One integer key a counter, `(count in total order, file id)`:
        // the id breaks count ties, so the victim *set* is a pure function
        // of the counter contents, never of hash-map iteration order — a
        // checkpoint-restored miner rebuilds the map with a different
        // insertion history and must still evict identically.
        let keys = &mut self.evict_keys;
        keys.clear();
        keys.extend(self.counts.iter().map(|(&f, &c)| evict_key(f, c)));
        keys.select_nth_unstable(batch - 1);
        let mut evicted_max = self.count_floor;
        self.evict_victims.clear();
        for &key in &keys[..batch] {
            let f = key as u32;
            if let Some(c) = self.counts.remove(&f) {
                evicted_max = evicted_max.max(c);
            }
            self.evict_victims.push(FileId::new(f));
        }
        self.count_floor = evicted_max;
        self.evictions += batch as u64;
        self.obs.evictions.add(batch as u64);
    }

    /// The counter table and the eviction scratch, in bytes.
    fn bytes(&self) -> usize {
        self.counts.len() * (std::mem::size_of::<(u32, f64)>() + 8)
            + self.evict_keys.capacity() * std::mem::size_of::<u128>()
            + self.evict_victims.capacity() * std::mem::size_of::<FileId>()
    }

    /// What a cut reports from here, `model_bytes` being the model's share
    /// on this side of it.
    fn head(&self, model_bytes: usize) -> CutHead {
        ShardSnapshot {
            shard_id: self.shard_id,
            lists: (),
            events_seen: self.events_seen,
            owned_events: self.owned_events,
            tracked_files: self.counts.len(),
            evictions: self.evictions,
            state_bytes: model_bytes + self.bytes(),
        }
    }

    /// The image, around the model's.
    fn export_state(&self, farmer: FarmerState) -> MinerState {
        let mut counts: Vec<(u32, u64)> = self
            .counts
            .iter()
            .map(|(&f, &c)| (f, c.to_bits()))
            .collect();
        counts.sort_unstable_by_key(|(f, _)| *f);
        MinerState {
            shard_id: self.shard_id as u32,
            num_shards: self.num_shards as u32,
            events_seen: self.events_seen,
            owned_events: self.owned_events,
            evictions: self.evictions,
            count_floor: self.count_floor.to_bits(),
            counts,
            farmer,
        }
    }
}

/// What a shard's graph stage reports: the owned accesses it mined, and
/// at each cut the walk, timed as `stream.snapshot_build_ns`, and the
/// edge updates since the last cut ([`StreamMetrics::edge_mix`]).
#[derive(Debug, Default)]
struct CutReport {
    /// The graph's update mix as of the last cut: what `obs.edge_mix`
    /// has been told so far.
    mix_reported: Cell<UpdateMix>,
    obs: StreamMetrics,
}

impl CutReport {
    /// `head` with the lists `walk` takes off a graph whose update mix is
    /// `mix` and whose stage holds `graph_bytes`.
    fn cut(
        &self,
        head: CutHead,
        mix: UpdateMix,
        graph_bytes: usize,
        walk: impl FnOnce() -> TableWalk,
    ) -> ShardCut {
        let _span = self.obs.snapshot_build_ns.span();
        let last = self.mix_reported.replace(mix);
        // In the order `StreamMetrics::edge_mix` registers its counters.
        let counts = |m: UpdateMix| {
            [
                m.hits,
                m.inserts,
                m.early_rejects,
                m.exact_rejects,
                m.admits,
                m.path_terms,
                m.relocates,
            ]
        };
        for ((counter, now), before) in self.obs.edge_mix.iter().zip(counts(mix)).zip(counts(last))
        {
            counter.add(now - before);
        }
        ShardSnapshot {
            shard_id: head.shard_id,
            lists: walk(),
            events_seen: head.events_seen,
            owned_events: head.owned_events,
            tracked_files: head.tracked_files,
            evictions: head.evictions,
            state_bytes: head.state_bytes + graph_bytes,
        }
    }
}

/// One shard's stream stage, as the router runs it: retention and the
/// model's [`StreamStage`], preparing each routed operation's steps for
/// the shard's [`ShardGraph`].
#[derive(Debug)]
pub struct ShardStream {
    retention: Retention,
    stage: StreamStage,
    /// The steps prepared since they were last taken.
    steps: Steps,
}

impl ShardStream {
    /// Prepare `op`'s steps: what [`StreamMiner::ingest`] or
    /// [`StreamMiner::forget`] does before its model's graph stage runs.
    pub fn route(&mut self, op: &WalOp) {
        let mut model = (&mut self.stage, &mut self.steps);
        match op {
            WalOp::Ingest { req, path } => {
                self.retention.ingest(*req, path.as_ref(), &mut model);
            }
            WalOp::Forget(file) => self.retention.forget(*file, &mut model),
        }
    }

    /// The steps prepared since the last call, in order, leaving an empty
    /// batch as large in their place.
    pub fn take_steps(&mut self) -> Steps {
        let fresh = self.steps.empty_like();
        std::mem::replace(&mut self.steps, fresh)
    }

    /// What a cut marker carries to the shard.
    pub(crate) fn head(&self) -> CutHead {
        self.retention.head(self.stage.heap_bytes())
    }

    /// The shard's image but for its graph, which the shard's answer to
    /// the same cut fills in.
    pub(crate) fn export_state(&self) -> MinerState {
        let graph = Default::default();
        self.retention.export_state(self.stage.export_state(graph))
    }
}

/// One shard's graph stage, as its thread runs it: the model's
/// [`GraphStage`], applying the steps its [`ShardStream`] prepared and
/// answering cuts.
#[derive(Debug)]
pub struct ShardGraph {
    /// The shard's id, for the test hook that holds one shard.
    #[cfg(test)]
    pub(crate) shard_id: usize,
    stage: GraphStage,
    report: CutReport,
}

impl ShardGraph {
    /// Apply steps a [`ShardStream`] took, in the order taken, counting
    /// the owned accesses they mined.
    pub fn apply(&mut self, steps: &Steps) {
        self.stage.apply(steps);
        let mined = steps.owned_accesses() as u64;
        self.report.obs.events_mined.add(mined);
    }

    /// Answer a cut marker: `head` plus the walk over the graph, and, for
    /// an export, `half` — the stream stage's half of the image — with
    /// the graph's image joined to it.
    pub(crate) fn cut(
        &self,
        head: CutHead,
        half: Option<MinerState>,
    ) -> (ShardCut, Option<MinerState>) {
        let stage = &self.stage;
        let part = self
            .report
            .cut(head, stage.graph().update_mix(), stage.heap_bytes(), || {
                stage.walk_table()
            });
        let state = half.map(|mut state| {
            state.farmer.graph = stage.export_state();
            state
        });
        (part, state)
    }
}

/// One shard's bounded-memory online miner: both of its stages on one
/// thread, one operation at a time.
#[derive(Debug)]
pub struct StreamMiner {
    cfg: StreamConfig,
    retention: Retention,
    farmer: Farmer,
    report: CutReport,
}

impl StreamMiner {
    /// A standalone (unsharded) miner: owns every file.
    pub fn new(cfg: StreamConfig) -> Self {
        Self::for_shard(cfg, 0, 1)
    }

    /// The miner for `shard_id` of `num_shards`; it accounts only for files
    /// it owns, but expects to receive the *full* event stream so its
    /// look-ahead window carries the global access order.
    ///
    /// # Panics
    /// If `cfg` is not one a miner can run under
    /// ([`StreamConfig::validate`]), or `shard_id` is not below
    /// `num_shards`.
    pub fn for_shard(cfg: StreamConfig, shard_id: usize, num_shards: usize) -> Self {
        cfg.validate();
        assert!(shard_id < num_shards, "shard_id out of range");
        StreamMiner {
            retention: Retention::new(&cfg, shard_id, num_shards),
            farmer: Farmer::new(cfg.farmer.clone()),
            cfg,
            report: CutReport::default(),
        }
    }

    /// Attach live observability handles (a no-op set is installed by
    /// default). Shards of one [`crate::ShardedMiner`] share one set, so
    /// the counters report fleet totals.
    pub fn instrument(&mut self, obs: StreamMetrics) {
        self.retention.obs = obs.clone();
        self.report.obs = obs;
    }

    /// Does this miner own `file`?
    #[inline]
    pub fn owns(&self, file: FileId) -> bool {
        self.retention.owns(file)
    }

    /// Ingest one request. `path` (when the front-end knows it) must be
    /// supplied on every call, exactly as [`Farmer::observe`] expects.
    pub fn ingest(&mut self, req: Request, path: Option<&FilePath>) {
        if self.retention.ingest(req, path, &mut self.farmer) {
            self.report.obs.events_mined.inc();
        }
    }

    /// Ingest one trace event under [`farmer_trace::Op::mining_action`].
    pub fn ingest_event(&mut self, trace: &Trace, e: &TraceEvent) {
        match e.op.mining_action() {
            MiningAction::Observe => self.ingest(Request::from_event(e), trace.path_of(e.file)),
            MiningAction::Forget => self.forget(e.file),
            MiningAction::Skip => {}
        }
    }

    /// Drop every trace of `file`: its retention counter (if this shard
    /// owns it) and all model state — node, edges, learned path and
    /// look-ahead window entries (via [`Farmer::forget_files`]).
    ///
    /// This is the unlink/churn hook: applied at the same stream position
    /// in every shard, the union of the shard models stays exactly equal
    /// to a batch miner that forgets at that position. Unknown files are a
    /// no-op. Forgets are maintenance, not accesses: they do not count
    /// toward [`StreamMiner::events_seen`].
    pub fn forget(&mut self, file: FileId) {
        self.retention.forget(file, &mut self.farmer);
    }

    /// The miner's two stages, to run on two threads: what the router
    /// keeps of the shard and what the shard's thread runs (see
    /// [`crate::shard`]). Fed the same operations, the graph stage
    /// applying the steps the stream stage took in the order taken, they
    /// go on exactly as this miner would.
    pub fn into_stages(self) -> (ShardStream, ShardGraph) {
        let (stream, graph) = self.farmer.into_stages();
        let graph = ShardGraph {
            #[cfg(test)]
            shard_id: self.retention.shard_id,
            stage: graph,
            report: self.report,
        };
        let stream = ShardStream {
            retention: self.retention,
            stage: stream,
            steps: Steps::default(),
        };
        (stream, graph)
    }

    /// A consistent snapshot of this shard's state: every tracked owned
    /// file's Correlator List (empty lists omitted) plus counters.
    /// [`StreamMiner::cut`] then [`ShardCut::assemble`].
    ///
    /// The lists come from one pass over the model's graph
    /// ([`Farmer::correlator_table`]), not from a query per tracked file:
    /// every graph node belongs to a tracked file (admission precedes the
    /// first access, and eviction and [`StreamMiner::forget`] drop counter
    /// and node together), and a tracked file without a node has no list.
    /// Taking a snapshot leaves the miner — [`StreamMiner::state_bytes`]
    /// included — exactly as it was; it is also when the shard reports what
    /// its edge updates have been since the last one
    /// ([`StreamMetrics::edge_mix`]).
    pub fn snapshot(&self) -> ShardSnapshot {
        let snap = self.cut().assemble();
        debug_assert!(snap
            .lists
            .iter()
            .all(|(owner, _)| self.retention.counts.contains_key(&owner.raw())));
        snap
    }

    /// The part of [`StreamMiner::snapshot`] that reads the miner: the
    /// walk over the graph ([`Farmer::walk_table`]) and the counters,
    /// timed as `stream.snapshot_build_ns`. A shard's thread answers a
    /// cut marker with this, and the thread that finishes the cut
    /// assembles it.
    pub fn cut(&self) -> ShardCut {
        let head = self.retention.head(self.farmer.memory_bytes());
        let mix = self.farmer.graph().update_mix();
        self.report.cut(head, mix, 0, || self.farmer.walk_table())
    }

    /// Export this shard's full state as a plain-data image for
    /// checkpointing. [`StreamMiner::from_state`] is the inverse; the
    /// round trip preserves every future mining decision bit for bit.
    pub fn export_state(&self) -> MinerState {
        self.retention.export_state(self.farmer.export_state())
    }

    /// Rebuild a shard miner from an exported image under `cfg`, which
    /// must match the configuration the image was taken under (the WAL
    /// replay contract). The shard identity comes from the image itself.
    ///
    /// # Panics
    /// As [`StreamMiner::for_shard`].
    pub fn from_state(cfg: StreamConfig, state: &MinerState) -> StreamMiner {
        cfg.validate();
        assert!(state.shard_id < state.num_shards, "shard_id out of range");
        StreamMiner {
            retention: Retention::from_state(&cfg, state),
            farmer: Farmer::from_state(cfg.farmer.clone(), &state.farmer),
            cfg,
            report: CutReport::default(),
        }
    }

    /// The wrapped model (diagnostics, tests).
    pub fn farmer(&self) -> &Farmer {
        &self.farmer
    }

    /// Number of currently tracked (owned, live) files. Never exceeds the
    /// configured `node_cap`.
    pub fn tracked_files(&self) -> usize {
        self.retention.counts.len()
    }

    /// Total events ingested (owned or not).
    pub fn events_seen(&self) -> u64 {
        self.retention.events_seen
    }

    /// Events whose file this shard owns.
    pub fn owned_events(&self) -> u64 {
        self.retention.owned_events
    }

    /// Total files evicted so far.
    pub fn evictions(&self) -> u64 {
        self.retention.evictions
    }

    /// Approximate resident heap bytes: the wrapped model, the counter
    /// table and the eviction scratch. Reading the model — a query, a
    /// [`StreamMiner::snapshot`] — leaves it as it was.
    pub fn state_bytes(&self) -> usize {
        self.farmer.memory_bytes() + self.retention.bytes()
    }

    /// The active configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use farmer_trace::{DevId, HostId, ProcId, UserId, WorkloadSpec};

    fn req(file: u32, uid: u32) -> Request {
        Request {
            file: FileId::new(file),
            uid: UserId::new(uid),
            pid: ProcId::new(uid),
            host: HostId::new(0),
            dev: DevId::new(0),
        }
    }

    fn small_cfg(cap: usize) -> StreamConfig {
        StreamConfig::default().with_node_cap(cap)
    }

    /// A miner reporting to a registry of its own (`stream.*`).
    fn instrumented(cfg: StreamConfig) -> (StreamMiner, farmer_obs::Registry) {
        let reg = farmer_obs::Registry::enabled();
        let mut m = StreamMiner::new(cfg);
        m.instrument(StreamMetrics::new(&reg.scope("stream")));
        (m, reg)
    }

    fn decay_ticks(reg: &farmer_obs::Registry) -> u64 {
        reg.snapshot().counter("stream.decay_ticks").unwrap()
    }

    #[test]
    fn cap_is_never_exceeded() {
        let cap = 16;
        let mut m = StreamMiner::new(small_cfg(cap));
        for i in 0..5_000u32 {
            m.ingest(req(i % 400, i % 7), None);
            assert!(
                m.tracked_files() <= cap,
                "tracked {} > cap",
                m.tracked_files()
            );
            assert!(m.farmer().graph().active_nodes() <= cap);
            let max_edges = cap * m.config().farmer.max_successors;
            assert!(m.farmer().graph().num_edges() <= max_edges);
        }
        assert!(m.evictions() > 0, "400 distinct files must force evictions");
    }

    #[test]
    fn heavy_hitters_survive_cold_parade() {
        // Two hot files interleaved with a stream of one-shot cold files:
        // Space-Saving retention must keep the hot pair tracked throughout.
        let mut m = StreamMiner::new(small_cfg(8));
        for cold in 100u32..2_100 {
            m.ingest(req(0, 1), None);
            m.ingest(req(1, 1), None);
            m.ingest(req(cold, 1), None);
        }
        let snap = m.snapshot();
        let hot = snap.lists.get(FileId::new(0));
        assert!(hot.is_some(), "hot file evicted by cold parade");
        assert!(m.tracked_files() <= 8);
    }

    #[test]
    fn eviction_is_complete_and_readmission_works() {
        let mut m = StreamMiner::new(small_cfg(4));
        // Build up correlations among files 0..4, then flood with new ones.
        for _ in 0..50 {
            for f in 0..4 {
                m.ingest(req(f, 1), None);
            }
        }
        for f in 10..200u32 {
            for _ in 0..20 {
                m.ingest(req(f, 2), None);
                m.ingest(req(f + 1000, 2), None);
            }
        }
        // The early files are gone entirely from graph + counters.
        assert!(m.tracked_files() <= 4);
        assert!(m.farmer().graph().active_nodes() <= 4);
        // Re-admission of an evicted file works and is fresh.
        m.ingest(req(0, 1), None);
        assert!(m.retention.counts.contains_key(&0));
    }

    #[test]
    fn unsharded_miner_matches_batch_farmer() {
        // With a cap no stream can hit, the stream engine is just Farmer.
        let trace = WorkloadSpec::hp().scaled(0.02).generate();
        let cfg = StreamConfig::default().with_node_cap(1 << 20);
        let mut m = StreamMiner::new(cfg.clone());
        for e in &trace.events {
            m.ingest_event(&trace, e);
        }
        let batch = Farmer::mine_trace(&trace, cfg.farmer.clone());
        assert_eq!(m.farmer().graph().num_edges(), batch.graph().num_edges());
        for f in 0..trace.num_files() as u32 {
            let a = m.farmer().correlators(FileId::new(f));
            let b = batch.correlators(FileId::new(f));
            assert_eq!(a.len(), b.len(), "list length diverged for f{f}");
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.file, y.file);
                assert!((x.degree - y.degree).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn count_decay_shifts_retention_to_recent_heat() {
        // File 0 is hot early then never again; files 1..=3 are hot from
        // then on, each at a third of its rate, and all four fit the
        // table. A newcomer evicts the lowest counter. Soon after the
        // shift that is a recent file: file 0's all-time count towers
        // over theirs, and by counts alone would for 600 000 events. With
        // [`COUNT_DECAY`] every [`DECAY_INTERVAL`] events the recent heat
        // has overtaken it well within the 240 000 fed here.
        let (mut m, reg) = instrumented(small_cfg(4));
        for _ in 0..200_000 {
            m.ingest(req(0, 1), None);
        }
        let recent = |m: &mut StreamMiner, events: u32| {
            for i in 0..events {
                m.ingest(req(1 + i % 3, 2), None);
            }
        };
        recent(&mut m, 24_000);
        m.ingest(req(50, 2), None);
        assert!(
            m.retention.counts.contains_key(&0),
            "the newcomer displaced the all-time hottest file"
        );
        recent(&mut m, 240_000);
        m.ingest(req(51, 2), None);
        assert!(
            !m.retention.counts.contains_key(&0),
            "stale hot file survived decayed retention"
        );
        assert_eq!(decay_ticks(&reg), m.events_seen() / DECAY_INTERVAL);
        assert!(decay_ticks(&reg) > 50);
    }

    #[test]
    fn snapshot_reports_owned_live_lists_only() {
        let mut m = StreamMiner::new(small_cfg(64));
        for _ in 0..30 {
            m.ingest(req(1, 1), None);
            m.ingest(req(2, 1), None);
        }
        let snap = m.snapshot();
        assert_eq!(snap.shard_id, 0);
        assert_eq!(snap.events_seen, 60);
        assert_eq!(snap.owned_events, 60);
        assert!(snap.tracked_files >= 2);
        assert!(snap.state_bytes > 0);
        assert!(!snap.lists.is_empty());
        for (owner, list) in snap.lists.iter() {
            assert!(!list.is_empty());
            assert!(m.retention.counts.contains_key(&owner.raw()));
        }
    }

    #[test]
    fn snapshot_leaves_state_bytes_as_they_were() {
        let trace = WorkloadSpec::hp().scaled(0.02).generate();
        let mut m = StreamMiner::new(small_cfg(256));
        for e in &trace.events {
            m.ingest_event(&trace, e);
        }
        let before = m.state_bytes();
        let snap = m.snapshot();
        assert!(snap.lists.len() > 50, "only {} lists", snap.lists.len());
        assert_eq!(snap.state_bytes, before);
        assert_eq!(m.state_bytes(), before, "publication left state behind");
        // Nor does a per-file query: the model keeps nothing between them.
        let (owner, _) = snap.lists.iter().next().unwrap();
        assert!(!m.farmer().correlators(owner).is_empty());
        assert_eq!(m.state_bytes(), before, "a query left state behind");
    }

    #[test]
    fn snapshot_reports_the_update_mix_as_counter_deltas() {
        let trace = WorkloadSpec::hp().scaled(0.02).generate();
        let (mut m, reg) = instrumented(small_cfg(4096));
        let check = |m: &StreamMiner| {
            let mix = m.farmer().graph().update_mix();
            let report = reg.snapshot();
            let named = [
                ("stream.edge_hits", mix.hits),
                ("stream.edge_inserts", mix.inserts),
                ("stream.edge_early_rejects", mix.early_rejects),
                ("stream.edge_exact_rejects", mix.exact_rejects),
                ("stream.edge_admits", mix.admits),
                ("stream.path_terms", mix.path_terms),
                ("stream.edge_relocates", mix.relocates),
            ];
            for (name, want) in named {
                assert_eq!(report.counter(name), Some(want), "{name}");
            }
            mix
        };
        let laps: Vec<TraceEvent> = trace.stream().take(2 * trace.len()).collect();
        let (first, second) = laps.split_at(trace.len() * 3 / 2);
        for e in first {
            m.ingest_event(&trace, e);
        }
        assert_eq!(reg.snapshot().counter("stream.edge_hits"), Some(0));
        m.snapshot();
        let mix = check(&m);
        // Seven different numbers, so a counter wired to the wrong field
        // cannot pass; and all five outcomes occur.
        let mut counts = vec![
            mix.hits,
            mix.inserts,
            mix.early_rejects,
            mix.exact_rejects,
            mix.admits,
            mix.path_terms,
            mix.relocates,
        ];
        counts.sort_unstable();
        counts.dedup();
        assert_eq!(counts.len(), 7, "{mix:?}");
        assert!(mix.admits > 0 && mix.early_rejects > 0, "{mix:?}");
        // A snapshot with nothing mined in between adds nothing; the next
        // one adds only what came after.
        m.snapshot();
        check(&m);
        for e in second {
            m.ingest_event(&trace, e);
        }
        m.snapshot();
        assert!(check(&m).updates() > mix.updates());
    }

    fn shard_snapshots_bitwise_equal(a: &ShardSnapshot, b: &ShardSnapshot) -> bool {
        a.shard_id == b.shard_id
            && a.events_seen == b.events_seen
            && a.owned_events == b.owned_events
            && a.tracked_files == b.tracked_files
            && a.evictions == b.evictions
            && crate::durable::tables_bitwise_equal(&a.lists, &b.lists)
    }

    #[test]
    fn state_roundtrip_continues_bitwise() {
        // Export mid-stream (with eviction, decay and forgets all active),
        // restore, and feed the identical suffix to both miners: every
        // future decision must match bit for bit. Laps enough for a
        // counter-decay tick on either side of the cut, which falls
        // between two of them.
        let trace = WorkloadSpec::hp().scaled(0.02).generate();
        let events: Vec<TraceEvent> = trace
            .stream()
            .take(7 * DECAY_INTERVAL as usize / 2)
            .collect();
        let cfg = small_cfg(256);
        let (mut original, reg) = instrumented(cfg.clone());
        let cut = events.len() / 2;
        for (i, e) in events.iter().take(cut).enumerate() {
            if i % 113 == 0 {
                original.forget(e.file);
            }
            original.ingest_event(&trace, e);
        }
        let state = original.export_state();
        assert_eq!(state.events_seen, cut as u64);
        let (ticks, evictions) = (decay_ticks(&reg), original.evictions());
        assert!(
            ticks > 0 && evictions > 0,
            "{ticks} ticks, {evictions} evictions"
        );
        let mut restored = StreamMiner::from_state(cfg, &state);
        assert_eq!(restored.export_state(), state, "round trip not identity");
        for (i, e) in events.iter().enumerate().skip(cut) {
            if i % 113 == 0 {
                original.forget(e.file);
                restored.forget(e.file);
            }
            original.ingest_event(&trace, e);
            restored.ingest_event(&trace, e);
        }
        assert!(decay_ticks(&reg) > ticks && original.evictions() > evictions);
        assert!(
            shard_snapshots_bitwise_equal(&original.snapshot(), &restored.snapshot()),
            "restored miner diverged from the original"
        );
        assert_eq!(original.export_state(), restored.export_state());
    }

    #[test]
    fn restored_miner_matches_after_every_eviction_batch() {
        // Small cap (two victims a batch), prune ticks every 512 events:
        // the restored miner starts with empty scratch, a rebuilt counter
        // map and stale weakest caches, and must still leave the same image
        // after each eviction batch — not only at the end of the stream,
        // which laps the trace until a counter-decay tick has passed on
        // either side of the cut.
        let trace = WorkloadSpec::hp().scaled(0.02).generate();
        let events: Vec<TraceEvent> = trace
            .stream()
            .take(7 * DECAY_INTERVAL as usize / 2)
            .collect();
        let mut cfg = small_cfg(128);
        cfg.farmer.prune_interval = 512;
        assert_eq!(cfg.evict_batch(), 2);
        let (mut original, reg) = instrumented(cfg.clone());
        let cut = events.len() / 2;
        for e in &events[..cut] {
            original.ingest_event(&trace, e);
        }
        assert!(original.evictions() > 0, "no pressure before the cut");
        let ticks = decay_ticks(&reg);
        assert!(ticks > 0, "no counter decay before the cut");
        let mut restored = StreamMiner::from_state(cfg, &original.export_state());
        let mut batches = 0;
        for e in &events[cut..] {
            let before = original.evictions();
            original.ingest_event(&trace, e);
            restored.ingest_event(&trace, e);
            if original.evictions() != before {
                assert_eq!(original.evictions(), before + 2);
                batches += 1;
                assert_eq!(
                    original.export_state(),
                    restored.export_state(),
                    "diverged at eviction batch {batches} after the restore"
                );
            }
        }
        assert!(
            batches > 100,
            "only {batches} eviction batches after the cut"
        );
        assert!(decay_ticks(&reg) > ticks, "no counter decay after the cut");
        assert_eq!(original.export_state(), restored.export_state());
    }

    #[test]
    fn every_eviction_batch_is_one_evict_ns_span() {
        let (mut m, reg) = instrumented(small_cfg(192));
        let batch = m.config().evict_batch() as u64;
        assert_eq!(batch, 3);
        for i in 0..2_000u32 {
            m.ingest(req(i % 500, i % 7), None);
        }
        assert!(m.evictions() > 0);
        let report = reg.snapshot();
        let spans = report.histogram("stream.evict_ns").expect("registered");
        assert_eq!(spans.count * batch, m.evictions());
        assert_eq!(report.counter("stream.evictions"), Some(m.evictions()));
        assert!(spans.sum > 0);
    }

    #[test]
    fn evict_keys_order_as_count_then_file() {
        // Equal counts (the file id decides), both zeroes, subnormals, an
        // infinity, negative counts: the packed key compares as
        // `total_cmp().then(id)` does, and gives the file id back.
        let counts = [
            1.0,
            1.0,
            0.0,
            -0.0,
            5e-324,
            f64::MIN_POSITIVE / 2.0,
            f64::MIN_POSITIVE,
            -1.5,
            f64::INFINITY,
            3.25,
        ];
        let entries: Vec<(u32, f64)> = counts
            .iter()
            .flat_map(|&c| [(7, c), (u32::MAX, c), (0, c)])
            .collect();
        for &(fa, ca) in &entries {
            for &(fb, cb) in &entries {
                assert_eq!(
                    evict_key(fa, ca).cmp(&evict_key(fb, cb)),
                    ca.total_cmp(&cb).then(fa.cmp(&fb)),
                    "({fa}, {ca}) vs ({fb}, {cb})"
                );
            }
            assert_eq!(evict_key(fa, ca) as u32, fa);
        }
    }

    #[test]
    fn eviction_scratch_stops_growing_after_first_batch() {
        let mut m = StreamMiner::new(small_cfg(256));
        let mut next_file = 0u32;
        let mut evict_once = |m: &mut StreamMiner| {
            let before = m.evictions();
            while m.evictions() == before {
                m.ingest(req(next_file, next_file % 5), None);
                next_file += 1;
            }
        };
        evict_once(&mut m);
        let caps = (
            m.retention.evict_keys.capacity(),
            m.retention.evict_victims.capacity(),
        );
        assert!(caps.0 >= 256 && caps.1 >= m.config().evict_batch());
        for _ in 0..100 {
            evict_once(&mut m);
        }
        assert_eq!(
            caps,
            (
                m.retention.evict_keys.capacity(),
                m.retention.evict_victims.capacity()
            )
        );
    }

    #[test]
    fn sharded_ownership_partitions_disjointly() {
        let n = 4;
        for f in 0..1000u32 {
            let owners: Vec<usize> = (0..n)
                .filter(|&s| owns_file(FileId::new(f), s, n))
                .collect();
            assert_eq!(owners.len(), 1, "file {f} owned by {owners:?}");
        }
    }
}
