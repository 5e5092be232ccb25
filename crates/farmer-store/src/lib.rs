//! # farmer-store — an embedded, ordered key-value store
//!
//! HUSt (the paper's host system) keeps file/object metadata in Berkeley
//! DB (§5.1: "The metadata information of files and objects are stored in
//! the Berkeley DB"). This crate fills that role from scratch, and holds
//! the log the durable mining tier writes:
//!
//! * [`tree`] — a slab-backed **B+-tree** (ordered map `u64 → bytes`) with
//!   leaf-chained range scans, node splitting on overflow and lazy deletion
//!   (empty-leaf unlinking, as PostgreSQL's nbtree does), plus page-level
//!   I/O accounting that the metadata-server latency model consumes,
//! * [`codec`] — compact binary encode/decode for the record types,
//! * [`store`] — the [`MetaStore`] façade: the metadata table with typed
//!   accessors,
//! * [`wal`] — an append-only, page-structured write-ahead log the
//!   durable mining tier journals its operation stream into (per-record
//!   checksums, monotone LSNs, truncation-tolerant tail scan).
//!
//! Every metadata-server cache miss performs a real tree descent here, so
//! experiment response times inherit the store's actual page-touch counts.
//!
//! Correlator Lists are not stored here: the one persisted form of a list
//! is the checkpoint image `farmer-stream` writes beside this crate's
//! [`wal`] (`farmer_stream::durable::encode_snapshot`, CRC'd and
//! length-checked), which reloads as a `CorrelationSource`.

// This crate is unsafe-free by policy (lint rule R2 guards the rest).
#![forbid(unsafe_code)]

pub mod codec;
pub mod store;
pub mod tree;
pub mod wal;

pub use store::{IoStats, MetaStore, MetadataRecord, StoreMetrics};
pub use tree::BTree;
pub use wal::{TailReport, Wal, WalCompaction, WalEntry, WalError, WalMetrics, WalSyncer};
