//! FPA — the FARMER-enabled prefetching algorithm (paper §4.1).
//!
//! On every metadata access the model observes the request, then the
//! accessed file's Correlator List is consulted: every successor whose
//! correlation degree reaches `max_strength` is proposed for prefetch, in
//! decreasing degree order, up to a per-access group limit. The threshold
//! is the mechanism the paper credits for FPA's accuracy: "FARMER filters
//! out unrelated or weakly correlated files from Correlator List by
//! comparing the correlation degree with a valid correlation degree
//! threshold max_strength".
//!
//! Both serving modes query through [`CorrelationSource`] — the top-k
//! lands in a reusable buffer, so the per-access path is allocation-free
//! in steady state whether the predictor mines for itself or follows a
//! publication cell.

use std::sync::Arc;

use farmer_core::{CorrelationSource, Correlator, Farmer, FarmerConfig};
use farmer_obs::{Counter, Histogram, Registry};
use farmer_stream::{CellReader, SnapshotCell};
use farmer_trace::{FileId, Trace, TraceEvent};

use crate::predictor::Predictor;

/// Live observability handles for the predictor (the `fpa.*` scope of the
/// workspace registry map). No-op by default.
#[derive(Debug, Clone, Default)]
pub struct FpaMetrics {
    /// Publication epochs a following predictor picked up
    /// (`fpa.refreshes`): equal to its cell's epoch once it has served an
    /// access since the latest publication, lower while it lags.
    pub refreshes: Counter,
    /// Wall-clock nanoseconds per top-k correlator query (`fpa.topk_ns`) —
    /// the serving-path latency, excluding self-mining observation cost.
    pub topk_ns: Histogram,
}

impl FpaMetrics {
    /// Register the predictor metrics under `reg` (pass an `fpa`-scoped
    /// registry; [`FpaPredictor::instrument`] does this).
    pub fn new(reg: &Registry) -> FpaMetrics {
        FpaMetrics {
            refreshes: reg.counter("refreshes"),
            topk_ns: reg.histogram("topk_ns"),
        }
    }
}

/// The FARMER-enabled prefetcher.
///
/// Exactly two operating modes, fixed at construction:
///
/// * **Self-mining** ([`FpaPredictor::for_trace`], [`FpaPredictor::new`]):
///   every access is observed by the embedded [`Farmer`] and predictions
///   come from its live correlator state — the paper's single-node
///   deployment.
/// * **Following** ([`FpaPredictor::following`]): predictions are served
///   from whatever the mining tier last published into a
///   [`SnapshotCell`] — the same read path as the serving tier's readers,
///   one Acquire epoch load per access and an `Arc` pick-up per new
///   epoch. Local mining is skipped (the mining cost lives on the mining
///   tier) and the predictor follows the evolving workload
///   *mid-simulation* with no call from the driver: publishing into the
///   cell is the whole hand-over. Mined state from any other back-end (a
///   `CorrelatorTable`, a `farmer-store` view) reaches a predictor the
///   same way, installed once as a `StreamSnapshot`.
#[derive(Debug)]
pub struct FpaPredictor {
    farmer: Farmer,
    /// Upper bound on candidates proposed per access (prefetch group size).
    pub group_limit: usize,
    /// The followed cell's reader; `Some` switches serving to it.
    published: Option<CellReader>,
    /// Reusable top-k buffer (zero steady-state allocation).
    topk: Vec<Correlator>,
    obs: FpaMetrics,
}

impl FpaPredictor {
    /// Default group size; matches the Nexus comparator so the two differ
    /// only in *which* files they pick, not how many they may pick.
    pub const DEFAULT_GROUP_LIMIT: usize = 4;

    /// Build from a FARMER configuration.
    pub fn new(cfg: FarmerConfig) -> Self {
        FpaPredictor {
            farmer: Farmer::new(cfg),
            group_limit: Self::DEFAULT_GROUP_LIMIT,
            published: None,
            topk: Vec::new(),
            obs: FpaMetrics::default(),
        }
    }

    /// Paper-default configuration (p = 0.7, max_strength = 0.4, IPA),
    /// with the attribute base chosen per trace family.
    pub fn for_trace(trace: &Trace) -> Self {
        let cfg = if trace.family.has_paths() {
            FarmerConfig::default()
        } else {
            FarmerConfig::pathless()
        };
        Self::new(cfg)
    }

    /// Serve from `cell` instead of mining: the predictor registers a
    /// reader on the cell and from then on answers every access from the
    /// newest published snapshot (the empty epoch-0 snapshot until the
    /// first publication, so adaptation lag is measured from a cold model
    /// instead of being hidden by self-mining). The configuration keeps
    /// supplying the validity threshold.
    #[must_use]
    pub fn following(mut self, cell: &Arc<SnapshotCell>) -> Self {
        self.published = Some(cell.reader());
        self
    }

    /// Access the underlying FARMER model (diagnostics, Table 4). A
    /// following predictor never observes into it.
    pub fn farmer(&self) -> &Farmer {
        &self.farmer
    }

    /// Register this predictor's metrics under the `fpa` scope of `reg`
    /// (pass the run's *root* registry). Serving stays allocation-free;
    /// with a disabled registry the handles are no-ops.
    pub fn instrument(&mut self, reg: &Registry) {
        self.obs = FpaMetrics::new(&reg.scope("fpa"));
    }

    /// The reader a following predictor serves through (`None` when
    /// self-mining): its epoch and cached snapshot say how stale the
    /// predictions are.
    pub fn reader(&self) -> Option<&CellReader> {
        self.published.as_ref()
    }
}

impl Predictor for FpaPredictor {
    fn name(&self) -> &str {
        "FARMER"
    }

    fn on_access_into(&mut self, trace: &Trace, event: &TraceEvent, out: &mut Vec<FileId>) {
        out.clear();
        // FPA's validity threshold applies in both modes: published
        // snapshots are typically pre-thresholded (making this a no-op),
        // but one that retains weaker correlations must not leak them
        // into prefetch proposals.
        let threshold = self.farmer.config().max_strength;
        if let Some(reader) = &mut self.published {
            let seen = reader.epoch_seen();
            let span = self.obs.topk_ns.span();
            reader
                .current()
                .top_k_into(event.file, self.group_limit, threshold, &mut self.topk);
            span.finish();
            let picked_up = reader.epoch_seen() - seen;
            if picked_up > 0 {
                self.obs.refreshes.add(picked_up);
            }
        } else {
            self.farmer.observe_event(trace, event);
            let _span = self.obs.topk_ns.span();
            self.farmer
                .top_k_into(event.file, self.group_limit, threshold, &mut self.topk);
        }
        out.extend(self.topk.iter().map(|c| c.file));
    }

    fn memory_bytes(&self) -> usize {
        self.farmer.memory_bytes()
            + self
                .published
                .as_ref()
                .map_or(0, |r| r.cached().heap_bytes())
            + self.topk.capacity() * std::mem::size_of::<Correlator>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use farmer_stream::StreamSnapshot;
    use farmer_trace::WorkloadSpec;

    #[test]
    fn proposes_thresholded_candidates_only() {
        let trace = WorkloadSpec::hp().scaled(0.02).generate();
        let mut fpa = FpaPredictor::for_trace(&trace);
        let mut proposed_any = false;
        for e in &trace.events {
            let cands = fpa.on_access(&trace, e);
            assert!(cands.len() <= fpa.group_limit);
            proposed_any |= !cands.is_empty();
            // Every candidate clears the configured threshold.
            for c in &cands {
                let list = fpa.farmer().correlators(e.file);
                assert!(list.iter().any(|x| x.file == *c));
            }
            if e.seq > 2000 {
                break;
            }
        }
        assert!(proposed_any, "FPA should eventually propose prefetches");
    }

    #[test]
    fn pathless_trace_gets_pathless_combo() {
        let trace = WorkloadSpec::ins().scaled(0.01).generate();
        let fpa = FpaPredictor::for_trace(&trace);
        assert!(!fpa
            .farmer()
            .config()
            .combo
            .contains(farmer_core::AttrKind::Path));
    }

    #[test]
    fn memory_grows_with_observation() {
        let trace = WorkloadSpec::res().scaled(0.02).generate();
        let mut fpa = FpaPredictor::for_trace(&trace);
        for e in trace.events.iter().take(5000) {
            fpa.on_access(&trace, e);
        }
        assert!(fpa.memory_bytes() > 0);
    }

    /// Publish `table` into `cell` as the snapshot of a stream prefix of
    /// `events` — how mined state from any back-end reaches a follower.
    fn publish(cell: &SnapshotCell, table: farmer_core::CorrelatorTable, events: u64) {
        cell.install(Arc::new(StreamSnapshot {
            table,
            events,
            ..StreamSnapshot::default()
        }));
    }

    /// A one-list table: every access of file 0 predicts `to` (strongest
    /// first).
    fn zero_predicts(to: &[(u32, f64)]) -> farmer_core::CorrelatorTable {
        let list = to
            .iter()
            .map(|&(file, degree)| Correlator {
                file: FileId::new(file),
                degree,
            })
            .collect::<Vec<_>>();
        let mut table = farmer_core::CorrelatorTable::new();
        table.push_list(FileId::new(0), &list).unwrap();
        table
    }

    #[test]
    fn refresh_switches_serving_to_the_table() {
        let trace = WorkloadSpec::hp().scaled(0.01).generate();
        let cell = Arc::new(SnapshotCell::new());
        let mut fpa = FpaPredictor::for_trace(&trace).following(&cell);
        // A published table that maps every access of file 0 to file 42.
        publish(&cell, zero_predicts(&[(42, 0.9)]), 1234);
        let e0 = trace
            .events
            .iter()
            .find(|e| e.file == FileId::new(0))
            .copied()
            .unwrap_or_else(|| trace.events[0]);
        let preds = fpa.on_access(&trace, &e0);
        if e0.file == FileId::new(0) {
            assert_eq!(preds, vec![FileId::new(42)]);
        } else {
            assert!(preds.is_empty(), "unknown file must predict nothing");
        }
        let reader = fpa.reader().expect("following");
        assert_eq!((reader.epoch_seen(), reader.cached().events), (1, 1234));
        // Serving from the cell does not mine locally.
        assert_eq!(fpa.farmer().observed(), 0);
        // A predictor built without a cell mines for itself.
        let mut own = FpaPredictor::for_trace(&trace);
        assert!(own.reader().is_none());
        own.on_access(&trace, &trace.events[0]);
        assert_eq!(own.farmer().observed(), 1);
    }

    #[test]
    fn successive_refreshes_follow_the_miner() {
        let trace = WorkloadSpec::hp().scaled(0.01).generate();
        let cell = Arc::new(SnapshotCell::new());
        let reg = Registry::enabled();
        let mut fpa = FpaPredictor::for_trace(&trace).following(&cell);
        fpa.instrument(&reg);
        let mut e0 = trace.events[0];
        e0.file = FileId::new(0);
        assert!(fpa.on_access(&trace, &e0).is_empty(), "epoch 0 is empty");
        publish(&cell, zero_predicts(&[(7, 0.8)]), 100);
        assert_eq!(fpa.on_access(&trace, &e0), vec![FileId::new(7)]);
        publish(&cell, zero_predicts(&[(8, 0.8)]), 200);
        assert_eq!(fpa.on_access(&trace, &e0), vec![FileId::new(8)]);
        assert_eq!(fpa.reader().expect("following").cached().events, 200);
        assert!(fpa.memory_bytes() > 0);
        // Two publications skipped over in one access count as two epochs.
        publish(&cell, zero_predicts(&[(9, 0.8)]), 300);
        publish(&cell, zero_predicts(&[(10, 0.8)]), 400);
        assert_eq!(fpa.on_access(&trace, &e0), vec![FileId::new(10)]);
        assert_eq!(reg.snapshot().counter("fpa.refreshes"), Some(cell.epoch()));
    }

    #[test]
    fn serving_path_reuses_buffers() {
        let trace = WorkloadSpec::hp().scaled(0.01).generate();
        let cell = Arc::new(SnapshotCell::new());
        let mut fpa = FpaPredictor::for_trace(&trace).following(&cell);
        let degrees: Vec<(u32, f64)> = (1..=4).map(|i| (i, 1.0 - 0.1 * i as f64)).collect();
        publish(&cell, zero_predicts(&degrees), 1);
        let mut e0 = trace.events[0];
        e0.file = FileId::new(0);
        let mut out = Vec::new();
        fpa.on_access_into(&trace, &e0, &mut out);
        let (ptr, cap) = (out.as_ptr(), out.capacity());
        for _ in 0..64 {
            fpa.on_access_into(&trace, &e0, &mut out);
        }
        assert_eq!(out.len(), 4);
        assert_eq!(out.as_ptr(), ptr, "candidate buffer must be reused");
        assert_eq!(out.capacity(), cap);
    }

    #[test]
    fn group_limit_respected() {
        let trace = WorkloadSpec::hp().scaled(0.02).generate();
        let mut fpa = FpaPredictor::for_trace(&trace);
        fpa.group_limit = 1;
        for e in trace.events.iter().take(3000) {
            assert!(fpa.on_access(&trace, e).len() <= 1);
        }
    }

    #[test]
    fn following_picks_up_publications() {
        use farmer_stream::{ShardedMiner, StreamConfig};

        let trace = WorkloadSpec::hp().scaled(0.01).generate();
        let mut miner = ShardedMiner::spawn(StreamConfig::default().with_shards(2));
        let cell = Arc::new(SnapshotCell::new());
        let mut fpa = FpaPredictor::for_trace(&trace).following(&cell);
        let served_from = |fpa: &FpaPredictor| {
            let reader = fpa.reader().expect("following");
            (reader.epoch_seen(), reader.cached().events)
        };

        // Before any publication the predictor serves the empty epoch-0
        // snapshot: external from the first access, proposing nothing.
        assert!(fpa.on_access(&trace, &trace.events[0]).is_empty());
        assert_eq!(served_from(&fpa), (0, 0));

        let half = trace.len() / 2;
        for e in trace.events.iter().take(half) {
            miner.route_event(&trace, e);
        }
        miner.publish_into(&cell);
        // Publication alone moves nothing; the next access picks it up.
        assert_eq!(served_from(&fpa), (0, 0));
        fpa.on_access(&trace, &trace.events[0]);
        assert_eq!(served_from(&fpa), (1, half as u64), "epoch not picked up");

        for e in trace.events.iter().skip(half) {
            miner.route_event(&trace, e);
        }
        miner.publish_into(&cell);
        // Predictions now come from the published snapshot.
        let mut served = 0usize;
        for e in trace.events.iter().take(2000) {
            served += fpa.on_access(&trace, e).len();
        }
        assert_eq!(served_from(&fpa), (2, trace.len() as u64));
        assert!(served > 0, "cell-following predictor proposes nothing");
        assert_eq!(fpa.farmer().observed(), 0);
    }
}
