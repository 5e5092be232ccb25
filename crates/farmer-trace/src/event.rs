//! Trace events: one record per file-system request.

use std::fmt;

use crate::ids::{DevId, FileId, HostId, ProcId, UserId};

/// File-system operation kind.
///
/// FARMER's mining is operation-agnostic — every request contributes to the
/// access sequence — but the metadata-server simulator distinguishes
/// metadata-mutating operations (create/unlink) from lookups, and workload
/// generators emit realistic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Op {
    /// `open(2)`-style lookup; the canonical metadata request.
    Open,
    /// Data read (metadata must already be resident).
    Read,
    /// Data write.
    Write,
    /// `stat(2)`-style attribute query.
    Stat,
    /// File creation (inserts metadata).
    Create,
    /// File removal (invalidates metadata).
    Unlink,
    /// `close(2)`.
    Close,
}

impl Op {
    /// All operation kinds, in serialization order.
    pub const ALL: [Op; 7] = [
        Op::Open,
        Op::Read,
        Op::Write,
        Op::Stat,
        Op::Create,
        Op::Unlink,
        Op::Close,
    ];

    /// Short stable token used by the text trace format.
    pub fn token(self) -> &'static str {
        match self {
            Op::Open => "open",
            Op::Read => "read",
            Op::Write => "write",
            Op::Stat => "stat",
            Op::Create => "create",
            Op::Unlink => "unlink",
            Op::Close => "close",
        }
    }

    /// Parse a token produced by [`Op::token`].
    pub fn from_token(tok: &str) -> Option<Op> {
        Op::ALL.into_iter().find(|op| op.token() == tok)
    }

    /// Whether this operation requires the file's metadata to be resident at
    /// the metadata server (i.e. constitutes a metadata *demand* request).
    pub fn is_metadata_demand(self) -> bool {
        !matches!(self, Op::Close)
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// One traced file-system request with its full semantic-attribute context.
///
/// This carries exactly the attribute set the paper's Extracting stage
/// collects: "timestamp, file name, user, group, program information, etc."
/// (§3.1 Stage 1). The path is looked up via the owning [`crate::Trace`]'s
/// file table — INS/RES-style traces have no recorded paths, which is
/// modelled at the trace level (`Trace::has_paths`), not per event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Dense event index within the trace (0-based).
    pub seq: u64,
    /// Virtual time in microseconds since trace start.
    pub timestamp_us: u64,
    /// Operation kind.
    pub op: Op,
    /// Which file the request targets.
    pub file: FileId,
    /// Device/volume holding the file.
    pub dev: DevId,
    /// Requesting user.
    pub uid: UserId,
    /// Requesting process (fresh id per program run).
    pub pid: ProcId,
    /// Requesting client host.
    pub host: HostId,
    /// Program identity (which application template the requesting process
    /// runs); `NO_APP` for background/daemon noise. Real traces carry this
    /// as the executable name.
    pub app: u32,
    /// Bytes transferred (0 for pure metadata ops).
    pub bytes: u64,
}

impl TraceEvent {
    /// Sentinel program id for background accesses with no application.
    pub const NO_APP: u32 = u32::MAX;
}

impl TraceEvent {
    /// A minimal event for tests: only identity fields, `Open`, time = seq.
    pub fn synthetic(seq: u64, file: FileId, uid: UserId, pid: ProcId, host: HostId) -> Self {
        TraceEvent {
            seq,
            timestamp_us: seq,
            op: Op::Open,
            file,
            dev: DevId::new(0),
            uid,
            pid,
            host,
            app: Self::NO_APP,
            bytes: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_token_roundtrip() {
        for op in Op::ALL {
            assert_eq!(Op::from_token(op.token()), Some(op));
        }
        assert_eq!(Op::from_token("bogus"), None);
    }

    #[test]
    fn op_display_matches_token() {
        assert_eq!(Op::Open.to_string(), "open");
        assert_eq!(Op::Unlink.to_string(), "unlink");
    }

    #[test]
    fn metadata_demand_classification() {
        assert!(Op::Open.is_metadata_demand());
        assert!(Op::Stat.is_metadata_demand());
        assert!(Op::Create.is_metadata_demand());
        assert!(!Op::Close.is_metadata_demand());
    }

    #[test]
    fn synthetic_event_defaults() {
        let e = TraceEvent::synthetic(
            5,
            FileId::new(1),
            UserId::new(2),
            ProcId::new(3),
            HostId::new(4),
        );
        assert_eq!(e.seq, 5);
        assert_eq!(e.timestamp_us, 5);
        assert_eq!(e.op, Op::Open);
        assert_eq!(e.bytes, 0);
    }
}
