//! # farmer-core — the FARMER model (paper §3)
//!
//! Implements the File Access coRrelation Mining and Evaluation Reference
//! model of Xia et al. (TR-UNL-CSE-2008-0001 / HPDC 2008): a four-stage
//! online pipeline that combines **access-sequence mining** with
//! **semantic-attribute mining** to quantify inter-file correlations.
//!
//! | paper stage | module |
//! |---|---|
//! | 1. Extracting — collect request attributes | [`extract`] |
//! | 2. Constructing — weighted, directed correlation graph | [`graph`] |
//! | 3. Mining & Evaluating — the CoMiner algorithm | [`miner`] |
//! | 4. Sorting — per-file Correlator Lists | [`correlator`] |
//!
//! The model façade is [`Farmer`]: feed it one request at a time
//! ([`Farmer::observe`]) and query sorted correlator lists at any point
//! ([`Farmer::correlators`]).
//!
//! The two mined signals are:
//!
//! * **Semantic distance** `sim(A,B) = |A ∩ B| / max(|A|,|B|)` over semantic
//!   vectors built from a configurable attribute combination ([`AttrCombo`])
//!   with the file path handled by either the Divided or the Integrated
//!   Path Algorithm ([`PathMode`]) — see [`semvec`].
//! * **Access frequency** `F(A,B) = N(A,B)/N(A)` where `N(A,B)` accumulates
//!   Linear-Decremented-Assignment weights over a look-ahead window — see
//!   [`miner`].
//!
//! They combine into the correlation degree
//! `R(A,B) = sim·p + F·(1−p)` (paper Function 2), and only pairs with
//! `R ≥ max_strength` are considered valid correlations.
//!
//! # The query layer
//!
//! Mining produces the model; *serving* happens through one API:
//! [`CorrelationSource`] ([`source`]), implemented by the live [`Farmer`],
//! the exported [`CorrelatorTable`] and `farmer-stream`'s merged
//! snapshots. Its contract — caller-owned
//! buffers, canonical ordering, partial-select top-k in O(deg + k log k)
//! rather than a full O(deg log deg) sort — is what lets every consumer
//! (prefetcher, cache and MDS simulators, layout planner)
//! query any back-end allocation-free at demand-request rate.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::todo, clippy::unimplemented)]

pub mod attr;
pub mod config;
pub mod correlator;
pub mod extract;
pub mod graph;
pub mod miner;
pub mod model;
pub mod semvec;
pub mod source;
pub mod stage;
pub mod state;

// The statement of the mining rule that the workspace's spec suites drive
// through the public API (`tests/spec/`), here for `model`'s own tests. It
// names this crate as its dependents do.
#[cfg(test)]
extern crate self as farmer_core;
#[cfg(test)]
#[path = "../../../tests/spec/mod.rs"]
mod spec;

pub use attr::{AttrCombo, AttrKind};
pub use config::{FarmerConfig, PathMode};
pub use correlator::{Correlator, CorrelatorList, CorrelatorTable, DuplicateOwner, TableWalk};
pub use extract::Request;
pub use graph::{CorrelationGraph, EdgeView};
pub use model::Farmer;
pub use semvec::similarity;
pub use source::CorrelationSource;
pub use stage::{GraphStage, Steps, StreamStage};
pub use state::{EdgeState, FarmerState, GraphState, NodeState};
