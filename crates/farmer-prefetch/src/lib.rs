//! # farmer-prefetch — prefetching algorithms and cache simulation
//!
//! The paper's headline application (§4.1, §5): a metadata cache fronted by
//! a prefetcher. This crate provides:
//!
//! * an O(1) [LRU list](lru) and a [metadata cache](cache) that tags
//!   entries by origin (demand vs prefetch) so prefetching accuracy and
//!   cache pollution can be measured exactly,
//! * the [`Predictor`] trait and its implementations:
//!   [FPA](fpa::FpaPredictor) (the FARMER-enabled prefetching algorithm),
//!   [Nexus](nexus::NexusPredictor) (the CCGRID'06 weighted-graph
//!   comparator, reimplemented from its published description),
//!   [Probability Graph](probgraph::ProbabilityGraph) and the SEER-style
//!   [SD graph](sdgraph::SdGraph), plus the classical
//!   [baselines] — plain LRU and Last Successor,
//! * a [trace-driven cache simulator](sim) producing the hit-ratio and
//!   prefetch-accuracy numbers behind the paper's Figures 3/7 and Tables
//!   3/5.

// This crate is unsafe-free by policy (lint rule R2 guards the rest).
#![forbid(unsafe_code)]

pub mod baselines;
pub mod cache;
pub mod fpa;
pub mod lru;
pub mod metrics;
pub mod nexus;
pub mod predictor;
pub mod probgraph;
pub mod sdgraph;
pub mod sim;

pub use cache::{CacheMetrics, CacheStats, MetadataCache, Origin};
pub use fpa::{FpaMetrics, FpaPredictor};
pub use metrics::SimReport;
pub use nexus::NexusPredictor;
pub use predictor::Predictor;
pub use probgraph::ProbabilityGraph;
pub use sdgraph::SdGraph;
pub use sim::{simulate, SimConfig, SimRun};
