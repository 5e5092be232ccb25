//! The benchmark's fixed tables: workloads, end-to-end metrics with their
//! bounds, and the per-layer metric names. `BENCHMARK.json` is generated
//! from these (`farmer_pipeline manifest`), so the file the driver reads
//! and the numbers the binary prints cannot drift apart.

use farmer_trace::WorkloadSpec;

use crate::json::Json;

/// Events between publications (`ServeConfig::default().publish_every`);
/// the harness stamps one issue time per publication window.
pub const PUBLISH_EVERY: u64 = 8192;
/// `k` of every `top_k_into` the harness issues (a prefetch group).
pub const K: usize = 8;
/// An operation is on time when it finishes within this of being due.
pub const ON_TIME_NS: u64 = 1_000_000;
/// `run_seconds` in `BENCHMARK.json`: the sizes below are for this many
/// seconds and scale linearly with `--seconds`.
pub const RUN_SECONDS: u64 = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    Ins,
    Hp,
}

impl Preset {
    pub fn spec(self, seed: u64) -> WorkloadSpec {
        match self {
            Preset::Ins => WorkloadSpec::ins(),
            Preset::Hp => WorkloadSpec::hp(),
        }
        .with_seed(seed)
    }

    pub fn name(self) -> &'static str {
        match self {
            Preset::Ins => "INS",
            Preset::Hp => "HP",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// `FarmerServe`: ring + ingest worker + sharded miner + cell.
    Serve,
    /// `DurableMiner`: WAL + sharded miner, the harness publishing into
    /// its own `SnapshotCell` (no ring, no worker).
    Durable,
}

/// Rounds a run is cut into; each is a feed chunk, then a read chunk, then
/// the reference miner catching up, so every metric samples the whole run.
pub const ROUNDS: u64 = 8;

/// One workload: a feed leg and a read leg against one tier.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub preset: Preset,
    pub tier: Tier,
    /// `Some(rate)`: open loop, events due at a fixed rate per second.
    /// `None`: closed loop, the next event goes when the last returned.
    pub pace: Option<u64>,
    /// Publication windows (`PUBLISH_EVERY` events) per measurement window
    /// of the feed leg.
    pub window_pubs: u64,
    /// Feed-leg measurement windows per round at `RUN_SECONDS`.
    pub windows_per_round: u64,
    /// Read-leg queries per round at `RUN_SECONDS`.
    pub queries_per_round: u64,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "serve_fits",
        why: "closed-loop INS ingest through FarmerServe; working set fits node_cap, zero evictions, so ring + worker + route + periodic publish are what a change can move",
        preset: Preset::Ins,
        tier: Tier::Serve,
        pace: None,
        window_pubs: 8,
        windows_per_round: 24,
        queries_per_round: 9_000_000,
    },
    Workload {
        name: "serve_evict",
        why: "closed-loop HP ingest through FarmerServe; 16.9k files over a 4096 node_cap, so the Space-Saving sweep, forget_files and at-cap snapshot builds dominate and a ring change should not show",
        preset: Preset::Hp,
        tier: Tier::Serve,
        pace: None,
        window_pubs: 4,
        windows_per_round: 12,
        queries_per_round: 9_000_000,
    },
    Workload {
        name: "query_only",
        why: "short HP feed, then one ServeReader issues top_k_into over the trace's own file sequence (about 13% misses); snapshot layout and top-k changes show here, mining changes do not",
        preset: Preset::Hp,
        tier: Tier::Serve,
        pace: None,
        window_pubs: 4,
        windows_per_round: 4,
        queries_per_round: 24_000_000,
    },
    Workload {
        name: "mds_paced",
        why: "open loop: HP events due at a fixed 200k/s, each a top_k_into then an ingest_event; a throughput win bought with bigger batches or rarer, slower publishes shows here as worse latency and lag",
        preset: Preset::Hp,
        tier: Tier::Serve,
        pace: Some(200_000),
        window_pubs: 1,
        windows_per_round: 24,
        queries_per_round: 6_000_000,
    },
    Workload {
        name: "durable",
        why: "closed-loop INS ingest through DurableMiner (group commit per route batch, checkpoint + compaction), then crash and recover; WAL, images and recovery dominate, and no ring is involved",
        preset: Preset::Ins,
        tier: Tier::Durable,
        pace: None,
        window_pubs: 1,
        windows_per_round: 64,
        queries_per_round: 6_000_000,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// How much worse `new` is than `base`, as a share of `base`
    /// (negative when it improved).
    pub fn worsening(self, base: f64, new: f64) -> f64 {
        let d = match self {
            Better::Higher => base - new,
            Better::Lower => new - base,
        };
        if base == 0.0 {
            if d > 0.0 {
                f64::INFINITY
            } else {
                0.0
            }
        } else {
            d / base.abs()
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// before it counts as a regression. `0.0`: exact, any worsening
    /// counts.
    pub bound: f64,
}

const fn m(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics every workload reports (the driver's gate).
pub const E2E: [Metric; 7] = [
    m("ingest_eps", "1/s", Higher, 0.25),
    m("on_time_share", "share", Higher, 0.02),
    m("query_qps", "1/s", Higher, 0.15),
    m("query_p50_ns", "ns", Lower, 0.15),
    m("query_p99_ns", "ns", Lower, 0.25),
    m("peak_rss_mb", "MB", Lower, 0.10),
    m("setup_s", "s", Lower, 0.25),
];

/// End-to-end metrics the driver's list cannot hold: it wants every
/// metric from every workload, never zero, and steady within its bound
/// across seeds. `all` and `compare` report and gate these; in
/// `BENCHMARK.json` they ride in the per-layer list under their layer
/// names (`serve.op_p50_ns`, `serve.publish_lag_p50_ms`,
/// `durable.recover_s`, `wal.disk_bytes_per_event`), and `failed_share` is
/// the result line's `failed / attempted`.
pub const E2E_SCOPED: [(Metric, &str); 5] = [
    (m("op_p50_ns", "ns", Lower, 0.25), "*"),
    (m("publish_lag_p50_ms", "ms", Lower, 0.25), "*"),
    (m("recover_s", "s", Lower, 0.25), "durable"),
    (m("disk_bytes_per_event", "B", Lower, 0.02), "durable"),
    (m("failed_share", "share", Lower, 0.0), "*"),
];

pub fn scoped_applies(scope: &str, workload: &str) -> bool {
    scope == "*" || scope == workload
}

pub fn manifest() -> Json {
    let metric = |d: &Metric, bound: bool| {
        let j = Json::obj()
            .field("name", d.name)
            .field("unit", d.unit)
            .field("better", d.better.word());
        if bound {
            j.field("bound", d.bound)
        } else {
            j
        }
    };
    Json::obj()
        .field(
            "command",
            [
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--bin",
                "farmer_pipeline",
                "--",
            ]
            .iter()
            .map(|s| Json::from(*s))
            .collect::<Vec<_>>(),
        )
        .field("paths", vec![Json::from("benchmark")])
        .field("run_seconds", RUN_SECONDS)
        .field(
            "workloads",
            WORKLOADS
                .iter()
                .map(|w| Json::obj().field("name", w.name).field("why", w.why))
                .collect::<Vec<_>>(),
        )
        .field(
            "end_to_end",
            E2E.iter().map(|d| metric(d, true)).collect::<Vec<_>>(),
        )
        .field(
            "per_layer",
            crate::layers::LAYER
                .iter()
                .map(|d| metric(d, false))
                .collect::<Vec<_>>(),
        )
}
