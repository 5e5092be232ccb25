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
//! * [`latency`] — the service-time model (cache probe, a page per level
//!   of the metadata table's B+-tree on a miss, batched prefetch reads)
//!   and response-time statistics,
//! * [`queues`] — the bounded low-priority prefetch queue; demand requests
//!   have strict priority and preempt *queued* (not in-service) prefetches,
//! * [`server`] — the MDS: a metadata cache over a metadata table it
//!   models by its height (computed from the namespace size), processing
//!   one demand arrival at a time, queueing the prefetch candidates it is
//!   handed with it and draining them in idle gaps (it owns no predictor),
//! * [`mod@replay`] — trace-driven closed-form replay producing the average
//!   response times behind Figures 6 and 8; [`ReplayRun`] consumes one
//!   candidate slice per demand, so a caller can score a predictor's
//!   answers here and in `farmer-prefetch`'s cache simulation from one
//!   query,
//! * [`osd`]/[`layout`] — object placement and the FARMER-enabled grouped
//!   data layout with a seek/transfer cost model,
//! * [`cluster`] — multi-MDS load balancing (§4.1's first direction):
//!   hash- or volume-partitioned namespaces across independent servers.

// This crate is unsafe-free by policy.
#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::todo, clippy::unimplemented)]

pub mod cluster;
pub mod latency;
pub mod layout;
pub mod osd;
pub mod queues;
pub mod replay;
pub mod server;

pub use cluster::{replay_cluster, ClusterConfig, ClusterReport, Partition};
pub use latency::{LatencyModel, LatencyStats};
pub use replay::{replay, ReplayConfig, ReplayReport, ReplayRun};
pub use server::{MdsMetrics, MdsServer};
