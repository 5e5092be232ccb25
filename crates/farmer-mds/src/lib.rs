//! # farmer-mds — a discrete-event metadata-server simulator (HUSt's role)
//!
//! The paper evaluates FARMER inside HUSt, an object-based storage system:
//! clients issue metadata requests to an MDS backed by Berkeley DB, with a
//! **priority-based request-scheduling model** — "a metadata server uses
//! two request queues to guarantee the availability of service for the
//! demand requests queue that is of higher priority than the prefetching
//! request queue" (§4.1). OSDs hold object data; FARMER's correlator lists
//! additionally drive grouped file-data layout (§4.2).
//!
//! This crate simulates that system:
//!
//! * [`latency`] — the service-time model (cache probe, per-page store
//!   access, batched prefetch reads) and response-time statistics,
//! * [`queues`] — the bounded low-priority prefetch queue; demand requests
//!   have strict priority and preempt *queued* (not in-service) prefetches,
//! * [`server`] — the MDS: metadata cache + predictor + embedded store,
//!   processing one demand arrival at a time and draining prefetches in
//!   idle gaps,
//! * [`mod@replay`] — trace-driven closed-form replay producing the average
//!   response times behind Figures 6 and 8,
//! * [`osd`]/[`layout`] — object placement and the FARMER-enabled grouped
//!   data layout with a seek/transfer cost model,
//! * [`cluster`] — multi-MDS load balancing (§4.1's first direction):
//!   hash- or volume-partitioned namespaces across independent servers.

// This crate is unsafe-free by policy (lint rule R2 guards the rest).
#![forbid(unsafe_code)]

pub mod client;
pub mod cluster;
pub mod latency;
pub mod layout;
pub mod osd;
pub mod queues;
pub mod replay;
pub mod server;

pub use client::ClientTier;
pub use cluster::{replay_cluster, ClusterConfig, ClusterReport, Partition};
pub use latency::{LatencyModel, LatencyStats};
pub use replay::{replay, ReplayConfig, ReplayReport, ReplayRun};
pub use server::{MdsMetrics, MdsServer};
