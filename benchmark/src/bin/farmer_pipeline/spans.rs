//! Harness spans for the traced run: recorded in memory around each call
//! into a layer, written out when the run ends.
//!
//! A span is `{id, parent, workload, rep, name, start_ns, end_ns}`; its
//! self time is its duration minus what its children cover. Per-call spans
//! are batched (256 events, 64 queries) so none wraps less than about a
//! microsecond of work and the recorder stays out of the numbers.

use crate::json::Json;
use crate::util::now_ns;

struct Rec {
    parent: u32,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

pub struct Spans {
    workload: &'static str,
    rep: u32,
    /// Off for the untraced twin of a rung: every call is a no-op.
    enabled: bool,
    recs: Vec<Rec>,
    /// Ids (1-based) of the spans currently open, innermost last.
    open: Vec<u32>,
}

impl Spans {
    pub fn new(workload: &'static str, rep: u32, enabled: bool) -> Spans {
        Spans {
            workload,
            rep,
            enabled,
            recs: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`; returns `f`'s result and the
    /// span's duration in nanoseconds (measured even when disabled).
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> (R, u64) {
        let start = now_ns();
        let id = if self.enabled {
            self.recs.push(Rec {
                parent: self.open.last().copied().unwrap_or(0),
                name,
                start_ns: start,
                end_ns: 0,
            });
            let id = self.recs.len() as u32;
            self.open.push(id);
            id
        } else {
            0
        };
        let r = f(self);
        let end = now_ns();
        if id != 0 {
            self.recs[id as usize - 1].end_ns = end;
            self.open.pop();
        }
        (r, end - start)
    }

    /// Record a finished child of the innermost open span.
    #[inline]
    pub fn leaf(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        if self.enabled {
            self.recs.push(Rec {
                parent: self.open.last().copied().unwrap_or(0),
                name,
                start_ns,
                end_ns,
            });
        }
    }

    /// Self time of the most recent span named `name` as a share of its
    /// duration: what its children leave unexplained.
    pub fn unattributed_share(&self, name: &str) -> f64 {
        let Some(at) = self.recs.iter().rposition(|r| r.name == name) else {
            return f64::NAN;
        };
        let id = at as u32 + 1;
        let root = &self.recs[at];
        let children: u64 = self
            .recs
            .iter()
            .filter(|r| r.parent == id)
            .map(|r| r.end_ns - r.start_ns)
            .sum();
        let dur = (root.end_ns - root.start_ns).max(1);
        dur.saturating_sub(children) as f64 / dur as f64
    }

    /// Self time per span name, largest first.
    pub fn self_times(&self) -> Vec<(&'static str, u64, u64)> {
        let mut child_ns = vec![0u64; self.recs.len() + 1];
        for r in &self.recs {
            child_ns[r.parent as usize] += r.end_ns - r.start_ns;
        }
        let mut by_name: Vec<(&'static str, u64, u64)> = Vec::new();
        for (i, r) in self.recs.iter().enumerate() {
            let own = (r.end_ns - r.start_ns).saturating_sub(child_ns[i + 1]);
            match by_name.iter_mut().find(|(n, _, _)| *n == r.name) {
                Some(slot) => {
                    slot.1 += own;
                    slot.2 += 1;
                }
                None => by_name.push((r.name, own, 1)),
            }
        }
        by_name.sort_by_key(|&(_, self_ns, _)| std::cmp::Reverse(self_ns));
        by_name
    }

    pub fn len(&self) -> usize {
        self.recs.len()
    }

    pub fn to_json(&self) -> Json {
        let spans: Vec<Json> = self
            .recs
            .iter()
            .enumerate()
            .map(|(i, r)| {
                Json::obj()
                    .field("id", i + 1)
                    .field("parent", u64::from(r.parent))
                    .field("workload", self.workload)
                    .field("rep", u64::from(self.rep))
                    .field("name", r.name)
                    .field("start_ns", r.start_ns)
                    .field("end_ns", r.end_ns)
            })
            .collect();
        let self_times: Vec<Json> = self
            .self_times()
            .into_iter()
            .map(|(name, ns, count)| {
                Json::obj()
                    .field("name", name)
                    .field("self_ns", ns)
                    .field("spans", count)
            })
            .collect();
        Json::obj()
            .field("workload", self.workload)
            .field("rep", u64::from(self.rep))
            .field("self_times", self_times)
            .field("spans", spans)
    }
}
