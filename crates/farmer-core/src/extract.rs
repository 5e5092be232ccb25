//! Stage 1 — Extracting (paper §3.1).
//!
//! The extractor is "a file-type specific filter that takes as input the
//! request for a file from a client and outputs the corresponding semantic
//! vector of this file" (paper §5.1). Here [`Request::from_event`] pulls the
//! attribute tuple out of a [`TraceEvent`], and the file's path comes from
//! the trace namespace (`Trace::path_of`); the request plus that path
//! reference is everything the later stages consume.

use farmer_trace::{DevId, FileId, HostId, ProcId, TraceEvent, UserId};

/// The semantic-attribute tuple of one file request (scalar part).
///
/// Together with the file's path (carried separately because it lives in
/// the trace namespace) this is the semantic vector's raw material.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// File being accessed.
    pub file: FileId,
    /// Requesting user.
    pub uid: UserId,
    /// Requesting process.
    pub pid: ProcId,
    /// Requesting host.
    pub host: HostId,
    /// Device holding the file.
    pub dev: DevId,
}

impl Request {
    /// Extract the scalar attributes from a trace event.
    pub fn from_event(e: &TraceEvent) -> Request {
        Request {
            file: e.file,
            uid: e.uid,
            pid: e.pid,
            host: e.host,
            dev: e.dev,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use farmer_trace::WorkloadSpec;

    #[test]
    fn request_copies_event_attributes() {
        let trace = WorkloadSpec::hp().scaled(0.01).generate();
        let e = &trace.events[0];
        let r = Request::from_event(e);
        assert_eq!(r.file, e.file);
        assert_eq!(r.uid, e.uid);
        assert_eq!(r.pid, e.pid);
        assert_eq!(r.host, e.host);
        assert_eq!(r.dev, e.dev);
    }

    #[test]
    fn extract_resolves_paths_when_available() {
        let trace = WorkloadSpec::hp().scaled(0.01).generate();
        assert!(trace.path_of(trace.events[0].file).is_some());
    }

    #[test]
    fn extract_yields_no_path_for_pathless_traces() {
        let trace = WorkloadSpec::ins().scaled(0.01).generate();
        assert!(trace.path_of(trace.events[0].file).is_none());
    }
}
