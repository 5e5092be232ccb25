//! # farmer-store — the durable mining tier's log and its codec
//!
//! * [`wal`] — an append-only, page-structured write-ahead log the
//!   durable mining tier journals its operation stream into (per-record
//!   checksums, monotone LSNs, truncation-tolerant tail scan),
//! * [`codec`] — the compact little-endian reader and writer the log's
//!   records and the tier's checkpoint images are encoded with.
//!
//! The paper's host MDS keeps file metadata in Berkeley DB (§5.1). That
//! table is not modelled here: `farmer-mds` charges a metadata miss per
//! level of an order-64 B+-tree loaded with its namespace, a height the
//! server computes from the namespace size alone.
//!
//! Correlator Lists are not stored here: the one persisted form of a list
//! is the checkpoint image `farmer-stream` writes beside this crate's
//! [`wal`] (`farmer_stream::durable::encode_snapshot`, CRC'd and
//! length-checked), which reloads as a `CorrelationSource`.

// This crate is unsafe-free by policy.
#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::todo, clippy::unimplemented)]

pub mod codec;
pub mod wal;

pub use wal::{TailReport, Wal, WalCompaction, WalEntry, WalError, WalMetrics, WalSyncer};
