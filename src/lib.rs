//! # farmer — File Access coRrelation Mining and Evaluation Reference model
//!
//! A from-scratch Rust reproduction of **"FARMER: A Novel Approach to File
//! Access Correlation Mining And Evaluation Reference Model for Optimizing
//! Peta-Scale File System Performance"** (Xia, Feng, Jiang, Tian, Wang —
//! UNL CSE TR-UNL-CSE-2008-0001 / HPDC 2008).
//!
//! This umbrella crate re-exports the workspace's public API:
//!
//! * [`trace`] — trace model, synthetic workload generators (LLNL / INS /
//!   RES / HP presets), parser, successor statistics,
//! * [`core`] — the FARMER model: semantic vectors (VSM), correlation
//!   graph, CoMiner, correlator lists, and the unified query layer
//!   (`CorrelationSource`) every consumer serves from,
//! * [`prefetch`] — the FARMER-enabled prefetching algorithm (FPA), the
//!   Nexus comparator, classical baselines, and a cache simulator,
//! * [`store`] — the durable mining tier's write-ahead log and its binary
//!   codec,
//! * [`mds`] — a discrete-event metadata-server / OSD simulator with the
//!   paper's dual priority queues, multi-MDS load balancing (§4.1) and the
//!   §4.2 grouped data layout,
//! * [`stream`] — the sharded online mining service: unbounded event
//!   streams mined under a hard memory budget, with consistent snapshots
//!   that refresh the prefetcher mid-flight,
//! * [`serve`] — the concurrent serving tier: lock-free multi-producer
//!   ingest into the always-running miner, epoch-swapped snapshot
//!   publication, and wait-free per-thread query readers,
//! * [`obs`] — zero-dependency observability: relaxed-atomic counters and
//!   gauges, log2-bucketed latency histograms, RAII spans and a
//!   hierarchical registry; every pipeline layer streams its metrics here
//!   when instrumented, and compiles to no-op handles when not.
//!
//! ## Quick start
//!
//! ```
//! use farmer::prelude::*;
//!
//! // Generate a synthetic HP-style trace and mine it.
//! let trace = WorkloadSpec::hp().scaled(0.02).generate();
//! let farmer = Farmer::mine_trace(&trace, FarmerConfig::default());
//!
//! // Query the strongest correlations of the first file accessed.
//! let file = trace.events[0].file;
//! let list = farmer.correlators(file);
//! for c in list.top(3) {
//!     println!("{file} -> {} (degree {:.2})", c.file, c.degree);
//! }
//! ```

// This crate is unsafe-free by policy.
#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::todo, clippy::unimplemented)]

pub use farmer_core as core;
pub use farmer_mds as mds;
pub use farmer_obs as obs;
pub use farmer_prefetch as prefetch;
pub use farmer_serve as serve;
pub use farmer_store as store;
pub use farmer_stream as stream;
pub use farmer_trace as trace;

/// The most commonly used types, importable in one line.
pub mod prelude {
    pub use farmer_core::{
        AttrCombo, AttrKind, CorrelationSource, Correlator, CorrelatorList, CorrelatorTable,
        Farmer, FarmerConfig, PathMode, Request,
    };
    pub use farmer_mds::{replay, LatencyModel, MdsServer, ReplayConfig, ReplayReport};
    pub use farmer_obs::Registry;
    pub use farmer_prefetch::{
        simulate, FpaPredictor, MetadataCache, NexusPredictor, Predictor, SimConfig, SimReport,
    };
    pub use farmer_serve::{FarmerServe, ServeConfig};
    pub use farmer_stream::{
        CellReader, ShardedMiner, SnapshotCell, StreamConfig, StreamMiner, StreamSnapshot,
    };
    pub use farmer_trace::{
        FileId, FilePath, Op, ReplayStream, Trace, TraceEvent, TraceFamily, WorkloadSpec,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn doc_example_compiles_and_runs() {
        let trace = WorkloadSpec::hp().scaled(0.02).generate();
        let farmer = Farmer::mine_trace(&trace, FarmerConfig::default());
        let file = trace.events[0].file;
        let _ = farmer.correlators(file);
    }
}
