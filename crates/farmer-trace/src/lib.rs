//! # farmer-trace — trace substrate for the FARMER reproduction
//!
//! The FARMER paper (Xia et al., TR-UNL-CSE-2008-0001 / HPDC 2008) evaluates
//! its correlation-mining model on four distributed file-system traces:
//! LLNL (parallel scientific cluster), INS (instructional HP-UX lab),
//! RES (research desktops) and HP (time-sharing server). Those traces are not
//! redistributable, so this crate provides:
//!
//! * a **trace model** ([`Trace`], [`TraceEvent`]) rich enough to carry every
//!   semantic attribute FARMER mines (user, process, host, device, path),
//! * **synthetic workload generators** ([`workload`]) that reproduce the
//!   statistics each trace family is known for — program file-set regularity,
//!   directory locality, Zipf popularity, and multi-process interleaving —
//!   with one preset per paper trace,
//! * a **text parser/serializer** ([`parser`]) so real traces can be plugged
//!   in using the same model, and
//! * **successor-probability statistics** ([`stats`]) that regenerate the
//!   paper's Figure 1.
//!
//! Everything downstream (the FARMER miner, the prefetchers, the metadata
//! server simulator) consumes traces exclusively through this crate.

// This crate is unsafe-free by policy.
#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::todo, clippy::unimplemented)]

pub mod event;
pub mod hash;
pub mod ids;
pub mod parser;
pub mod path;
pub mod phases;
pub mod stats;
pub mod stream;
pub mod trace;
pub mod workload;
pub mod zipf;

pub use event::{MiningAction, Op, TraceEvent};
pub use ids::{DevId, FileId, HostId, ProcId, UserId};
pub use path::{FilePath, PathInterner};
pub use stream::ReplayStream;
pub use trace::{FileMeta, Trace, TraceFamily};
pub use workload::{
    ChurnSpec, DriftSpec, MultiTenantSpec, ScanStormSpec, TraceGenerator, WorkloadSpec,
};
