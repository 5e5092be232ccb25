//! # farmer-obs — the workspace's observability substrate
//!
//! The paper's evaluation argues from *distributions* (response-time curves,
//! hit-ratio trajectories, space overhead), so the repro needs more than
//! means and ad-hoc counters: regressions in tail latency, eviction churn,
//! or snapshot-build cost must be visible between PRs. This crate provides
//! the measurement primitives every other crate instruments itself with:
//!
//! * [`Counter`] / [`Gauge`] — relaxed-atomic scalars, safe to bump from
//!   any thread (miner shards share one counter and the sum just works).
//! * [`Histogram`] — a fixed-size log2-bucketed latency histogram:
//!   recording is a handful of relaxed atomic adds (~2 ns), snapshots are
//!   mergeable and diffable, and quantiles (p50/p90/p99/max) come from the
//!   bucket bounds. [`HistSnapshot`] is the plain (non-atomic) counterpart
//!   used for single-threaded accounting and per-phase deltas.
//! * [`Span`] — an RAII wall-clock timer that records elapsed nanoseconds
//!   into a histogram on drop.
//! * [`Registry`] — a hierarchical name→metric map. `Registry::enabled()`
//!   hands out live handles; `Registry::disabled()` hands out no-op handles
//!   so instrumented code paths cost one branch when observability is off;
//!   what the live handles cost is *measured* rather than assumed, as
//!   `obs.trace_overhead_pct` of every traced `farmer_pipeline` run
//!   (`benchmark/`). [`Registry::snapshot`] produces an ordered, diff-able
//!   [`ObsReport`] with a text renderer ([`ObsReport::render`]) and a JSON
//!   one ([`ObsReport::json`]).
//! * [`Json`] — the workspace's one ordered JSON value (emitter, reader,
//!   one escaping rule): the `eval_matrix` record, the registry dump and
//!   the `farmer_lint` report are all built from it. It lives here because
//!   this crate depends on nothing, so everything can depend on it.
//!
//! ## Naming scheme
//!
//! Metric names are dot-separated paths, `subsystem.metric[_unit]`:
//! `stream.events`, `mds.demand_us`, `online.refresh_ns`. Unit suffixes are
//! part of the contract — `_us` for *simulated* microseconds (latency-model
//! output), `_ns` for *wall-clock* nanoseconds (span-measured real time).
//! Use [`Registry::scope`] to build the subsystem prefix once and hand the
//! scoped registry to the component being instrumented.
//!
//! ## Adding a metric
//!
//! ```
//! use farmer_obs::Registry;
//!
//! let reg = Registry::enabled();
//! let scope = reg.scope("demo");
//! let events = scope.counter("events");
//! let lat = scope.histogram("service_us");
//! events.inc();
//! lat.record(120);
//! {
//!     let _span = scope.histogram("build_ns").span(); // records on drop
//! }
//! let report = reg.snapshot();
//! assert_eq!(report.counter("demo.events"), Some(1));
//! println!("{}", report.render());
//! ```

// This crate is unsafe-free by policy (lint rule R2 guards the rest).
#![forbid(unsafe_code)]

mod hist;
mod json;
mod metric;
mod registry;

pub use hist::{HistSnapshot, Histogram, BUCKETS};
pub use json::{Json, JsonError};
pub use metric::{Counter, Gauge, Span};
pub use registry::{ObsEntry, ObsReport, ObsValue, Registry};
