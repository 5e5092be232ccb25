//! # farmer-store — an embedded, ordered key-value store
//!
//! HUSt (the paper's host system) keeps file/object metadata and FARMER's
//! Correlator Lists in Berkeley DB (§5.1: "The metadata information of
//! files and objects are stored in the Berkeley DB", "The mining and
//! evaluating utility also interacts with the Berkeley DB to store the file
//! correlation information such as Correlator List"). This crate fills that
//! role from scratch:
//!
//! * [`tree`] — a slab-backed **B+-tree** (ordered map `u64 → bytes`) with
//!   leaf-chained range scans, node splitting on overflow and lazy deletion
//!   (empty-leaf unlinking, as PostgreSQL's nbtree does), plus page-level
//!   I/O accounting that the metadata-server latency model consumes,
//! * [`codec`] — compact binary encode/decode for the record types,
//! * [`store`] — the [`MetaStore`] façade: a metadata table and a
//!   correlator-list table with typed accessors,
//! * [`wal`] — an append-only, page-structured write-ahead log the
//!   durable mining tier journals its operation stream into (per-record
//!   checksums, monotone LSNs, truncation-tolerant tail scan).
//!
//! Every metadata-server cache miss performs a real tree descent here, so
//! experiment response times inherit the store's actual page-touch counts.
//!
//! The persisted correlator table plugs into the workspace-wide query
//! layer via [`view`]: [`MetaStore::put_correlation_source`] persists any
//! `farmer_core::CorrelationSource` and [`MetaStore::correlator_view`]
//! reloads it as one, so lists survive restarts without consumers ever
//! leaving the unified read API.

// This crate is unsafe-free by policy (lint rule R2 guards the rest).
#![forbid(unsafe_code)]

pub mod codec;
pub mod snapshot;
pub mod store;
pub mod tree;
pub mod view;
pub mod wal;

pub use snapshot::SnapshotError;
pub use store::{CorrelatorRecord, IoStats, MetaStore, MetadataRecord, StoreMetrics};
pub use tree::BTree;
pub use view::CorrelatorView;
pub use wal::{TailReport, Wal, WalCompaction, WalEntry, WalError, WalMetrics, WalSyncer};
