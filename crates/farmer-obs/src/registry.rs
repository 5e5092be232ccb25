//! The hierarchical metric [`Registry`] and its ordered [`ObsReport`]
//! snapshot.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use crate::{Counter, Gauge, HistSnapshot, Histogram, Json};

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// Panics unless the `kind` name `name` follows the naming scheme (see
/// [`Registry`]).
fn check_name(kind: &str, name: &str) {
    let segment = |s: &str| {
        s.starts_with(|c: char| c.is_ascii_lowercase())
            && s.bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
    };
    let unit = ["_ns", "_us", "_ms", "_events", "_bytes"]
        .iter()
        .any(|u| name.ends_with(u));
    let ok = name.split('.').all(segment)
        && (kind != "scope" || !name.contains('.'))
        && (kind != "histogram" || unit);
    assert!(ok, "obs {kind} {name:?} breaks the naming scheme");
}

#[derive(Debug, Default)]
struct RegistryInner {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

/// A hierarchical name→metric map handing out shared metric handles.
///
/// * [`Registry::enabled`] — handles are live; recording costs relaxed
///   atomics.
/// * [`Registry::disabled`] (also `Default`) — every handle is a no-op and
///   registration allocates nothing; instrumented code pays one branch per
///   record. Every traced `farmer_pipeline` run reads what the live
///   handles cost as `obs.trace_overhead_pct`.
///
/// Registration is idempotent: asking for the same name again returns a
/// handle to the same cell (and panics if the name is already registered
/// as a different metric kind — a naming bug worth failing loudly on).
/// Cloning a registry shares the underlying map; [`Registry::scope`]
/// derives a child registry that prefixes every name with `prefix.`.
///
/// Every name is checked as it is registered, on a disabled registry too,
/// so building a component checks its names: dot-separated
/// `[a-z][a-z0-9_]*` segments, a scope is one segment, and a histogram
/// ends in `_ns`, `_us`, `_ms`, `_events` or `_bytes`. A name that breaks
/// this panics.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Option<Arc<RegistryInner>>,
    prefix: String,
}

impl Registry {
    /// A live registry.
    pub fn enabled() -> Registry {
        Registry {
            inner: Some(Arc::new(RegistryInner::default())),
            prefix: String::new(),
        }
    }

    /// A disabled registry: all handles are no-ops.
    pub fn disabled() -> Registry {
        Registry::default()
    }

    /// `enabled`/`disabled` chosen at runtime (e.g. from an `--obs` flag).
    pub fn new(enabled: bool) -> Registry {
        if enabled {
            Registry::enabled()
        } else {
            Registry::disabled()
        }
    }

    /// Whether handles from this registry record anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A child registry whose metric names are prefixed with `prefix.`.
    pub fn scope(&self, prefix: &str) -> Registry {
        check_name("scope", prefix);
        Registry {
            inner: self.inner.clone(),
            prefix: self.qualify(prefix),
        }
    }

    fn qualify(&self, name: &str) -> String {
        if self.prefix.is_empty() {
            name.to_string()
        } else {
            format!("{}.{name}", self.prefix)
        }
    }

    fn register<T: Clone>(
        &self,
        kind: &str,
        name: &str,
        noop: impl FnOnce() -> T,
        live: impl FnOnce() -> Metric,
        unwrap: impl FnOnce(&Metric) -> Option<T>,
    ) -> T {
        check_name(kind, name);
        let Some(inner) = &self.inner else {
            return noop();
        };
        let full = self.qualify(name);
        #[expect(
            clippy::expect_used,
            reason = "a poisoned metrics map means a registrant panicked mid-insert; metrics \
                      cannot be trusted after that"
        )]
        let mut map = inner.metrics.lock().expect("obs registry poisoned");
        let metric = map.entry(full.clone()).or_insert_with(live);
        match unwrap(metric) {
            Some(handle) => handle,
            #[expect(
                clippy::panic,
                reason = "registering one name as two different metric kinds is a programming \
                          error caught at startup"
            )]
            None => panic!(
                "obs metric {full:?} already registered as a {}",
                metric.kind()
            ),
        }
    }

    /// The counter named `name` (registered on first use).
    pub fn counter(&self, name: &str) -> Counter {
        self.register(
            "counter",
            name,
            Counter::noop,
            || Metric::Counter(Counter::live()),
            |m| match m {
                Metric::Counter(c) => Some(c.clone()),
                _ => None,
            },
        )
    }

    /// The gauge named `name` (registered on first use).
    pub fn gauge(&self, name: &str) -> Gauge {
        self.register(
            "gauge",
            name,
            Gauge::noop,
            || Metric::Gauge(Gauge::live()),
            |m| match m {
                Metric::Gauge(g) => Some(g.clone()),
                _ => None,
            },
        )
    }

    /// The histogram named `name` (registered on first use).
    pub fn histogram(&self, name: &str) -> Histogram {
        self.register(
            "histogram",
            name,
            Histogram::noop,
            || Metric::Histogram(Histogram::live()),
            |m| match m {
                Metric::Histogram(h) => Some(h.clone()),
                _ => None,
            },
        )
    }

    /// An ordered point-in-time report of every registered metric (empty
    /// for a disabled registry). Entries are sorted by name, so two
    /// reports — or their text/JSON renderings — diff cleanly.
    pub fn snapshot(&self) -> ObsReport {
        let mut entries = Vec::new();
        if let Some(inner) = &self.inner {
            #[expect(clippy::expect_used, reason = "same poisoning policy as register()")]
            let map = inner.metrics.lock().expect("obs registry poisoned");
            for (name, metric) in map.iter() {
                let value = match metric {
                    Metric::Counter(c) => ObsValue::Counter(c.get()),
                    Metric::Gauge(g) => ObsValue::Gauge(g.get()),
                    Metric::Histogram(h) => ObsValue::Histogram(Box::new(h.snapshot())),
                };
                entries.push(ObsEntry {
                    name: name.clone(),
                    value,
                });
            }
        }
        ObsReport { entries }
    }
}

/// One metric's value in an [`ObsReport`].
#[derive(Debug, Clone, PartialEq)]
pub enum ObsValue {
    /// A monotone counter's current total.
    Counter(u64),
    /// A gauge's last value.
    Gauge(i64),
    /// A histogram's full state (boxed: a [`HistSnapshot`] is ~0.5 KiB of
    /// buckets, which would otherwise dominate every entry's size).
    Histogram(Box<HistSnapshot>),
}

/// A named metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsEntry {
    /// Dot-separated metric path (`stream.events`, `mds.demand_us`).
    pub name: String,
    /// The metric's value at snapshot time.
    pub value: ObsValue,
}

/// An ordered (name-sorted) snapshot of a registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsReport {
    /// All metrics, sorted by name.
    pub entries: Vec<ObsEntry>,
}

impl ObsReport {
    /// The value of `name`, if registered.
    pub fn get(&self, name: &str) -> Option<&ObsValue> {
        self.entries
            .binary_search_by(|e| e.name.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].value)
    }

    /// The counter `name`'s total, if it is a counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            ObsValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// The gauge `name`'s value, if it is a gauge.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        match self.get(name)? {
            ObsValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// The histogram `name`'s snapshot, if it is a histogram.
    pub fn histogram(&self, name: &str) -> Option<&HistSnapshot> {
        match self.get(name)? {
            ObsValue::Histogram(h) => Some(h.as_ref()),
            _ => None,
        }
    }

    /// Activity between two snapshots of the same registry: counters and
    /// histograms subtract (saturating), gauges keep their latest value.
    /// Metrics registered after `earlier` was taken appear as-is.
    pub fn delta(&self, earlier: &ObsReport) -> ObsReport {
        let entries = self
            .entries
            .iter()
            .map(|e| {
                let value = match (&e.value, earlier.get(&e.name)) {
                    (ObsValue::Counter(v), Some(ObsValue::Counter(p))) => {
                        ObsValue::Counter(v.saturating_sub(*p))
                    }
                    (ObsValue::Histogram(h), Some(ObsValue::Histogram(p))) => {
                        ObsValue::Histogram(Box::new(h.delta(p)))
                    }
                    (v, _) => v.clone(),
                };
                ObsEntry {
                    name: e.name.clone(),
                    value,
                }
            })
            .collect();
        ObsReport { entries }
    }

    /// Render as aligned text, one metric per line — stable ordering, so
    /// two renders diff cleanly:
    ///
    /// ```text
    /// mds.demand_us      count=1200 mean=212.4 p50=256 p90=512 p99=1024 max=1891
    /// stream.events      9000
    /// ```
    pub fn render(&self) -> String {
        let width = self.entries.iter().map(|e| e.name.len()).max().unwrap_or(0);
        let mut out = String::new();
        for e in &self.entries {
            let _ = write!(out, "{:width$}  ", e.name);
            match &e.value {
                ObsValue::Counter(v) => {
                    let _ = writeln!(out, "{v}");
                }
                ObsValue::Gauge(v) => {
                    let _ = writeln!(out, "{v}");
                }
                ObsValue::Histogram(h) => {
                    let _ = writeln!(
                        out,
                        "count={} mean={:.1} p50={} p90={} p99={} max={}",
                        h.count,
                        h.mean(),
                        h.quantile(0.50),
                        h.quantile(0.90),
                        h.quantile(0.99),
                        h.max,
                    );
                }
            }
        }
        out
    }

    /// Render as an ordered JSON object: one key per metric, in the
    /// report's sorted order. Counters render as unsigned integers,
    /// gauges as (possibly negative) integers, histograms as
    /// `{count, mean, p50, p90, p99, max}` summaries.
    pub fn json(&self) -> Json {
        let mut obj = Json::obj();
        for entry in &self.entries {
            let value = match &entry.value {
                ObsValue::Counter(v) => Json::UInt(*v),
                ObsValue::Gauge(v) => u64::try_from(*v).map_or(Json::F64(*v as f64), Json::UInt),
                ObsValue::Histogram(h) => Json::obj()
                    .field("count", Json::UInt(h.count))
                    .field("mean", Json::Fixed(h.mean(), 1))
                    .field("p50", Json::UInt(h.quantile(0.50)))
                    .field("p90", Json::UInt(h.quantile(0.90)))
                    .field("p99", Json::UInt(h.quantile(0.99)))
                    .field("max", Json::UInt(h.max)),
            };
            obj = obj.field(&entry.name, value);
        }
        obj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_hands_out_noops() {
        let reg = Registry::disabled();
        assert!(!reg.is_enabled());
        let c = reg.counter("x");
        c.inc();
        assert_eq!(c.get(), 0);
        assert!(reg.snapshot().entries.is_empty());
        assert!(!reg.scope("sub").histogram("h_ns").is_enabled());
    }

    /// The naming scheme, checked at registration on either kind of
    /// registry: each seeded name panics, each clean one registers.
    #[test]
    fn names_are_checked_at_registration() {
        let seeded: [fn(&Registry); 4] = [
            |r| drop(r.counter("Serve.Hits")),
            |r| drop(r.gauge("serve..depth")),
            |r| drop(r.histogram("serve.publish")),
            |r| drop(r.scope("serve.ring")),
        ];
        for reg in [Registry::enabled(), Registry::disabled()] {
            for (i, register) in seeded.iter().enumerate() {
                assert!(
                    std::panic::catch_unwind(|| register(&reg)).is_err(),
                    "seeded name {i}"
                );
            }
            reg.counter("serve.hits").inc();
            reg.gauge("serve.queue_depth").set(3);
            reg.histogram("serve.publish_ns").record(1);
            reg.histogram("stream.batch_events").record(1);
            reg.scope("serve").scope("reader0").counter("hits").inc();
        }
    }

    #[test]
    fn same_name_shares_the_cell() {
        let reg = Registry::enabled();
        reg.counter("hits").inc();
        reg.counter("hits").add(2);
        assert_eq!(reg.snapshot().counter("hits"), Some(3));
    }

    #[test]
    #[should_panic(expected = "already registered as a counter")]
    fn kind_conflict_panics() {
        let reg = Registry::enabled();
        reg.counter("x_ns").inc();
        let _ = reg.histogram("x_ns");
    }

    #[test]
    fn scopes_prefix_names() {
        let reg = Registry::enabled();
        let mds = reg.scope("mds");
        mds.counter("demands").inc();
        mds.scope("queue").gauge("depth").set(4);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("mds.demands"), Some(1));
        assert_eq!(snap.gauge("mds.queue.depth"), Some(4));
        assert!(snap.get("demands").is_none());
    }

    #[test]
    fn snapshot_is_sorted_and_diffable() {
        let reg = Registry::enabled();
        reg.counter("b.count").add(10);
        reg.counter("a.count").add(1);
        reg.histogram("c.lat_us").record(100);
        reg.gauge("d.depth").set(7);
        let first = reg.snapshot();
        let names: Vec<&str> = first.entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["a.count", "b.count", "c.lat_us", "d.depth"]);

        reg.counter("b.count").add(5);
        reg.histogram("c.lat_us").record(200);
        reg.gauge("d.depth").set(2);
        let second = reg.snapshot();
        let d = second.delta(&first);
        assert_eq!(d.counter("b.count"), Some(5));
        assert_eq!(d.counter("a.count"), Some(0));
        assert_eq!(d.histogram("c.lat_us").unwrap().count, 1);
        assert_eq!(d.gauge("d.depth"), Some(2), "gauges keep the latest value");
    }

    #[test]
    fn render_is_stable_and_complete() {
        let reg = Registry::enabled();
        reg.counter("stream.events").add(9000);
        reg.histogram("mds.demand_us").record(300);
        let text = reg.snapshot().render();
        assert!(text.contains("stream.events"));
        assert!(text.contains("9000"));
        assert!(text.contains("p99="));
        assert_eq!(text, reg.snapshot().render());
    }

    #[test]
    fn obs_json_orders_and_summarizes() {
        let reg = Registry::enabled();
        reg.counter("stream.events").add(7);
        reg.gauge("mds.queue_depth").set(-2);
        let h = reg.histogram("cache.lookup_us");
        h.record(100);
        h.record(200);
        let tree = reg.snapshot().json();
        let j = tree.render();
        // Registry order is sorted by name.
        let pos = |n: &str| j.find(n).unwrap_or_else(|| panic!("missing {n}"));
        assert!(pos("cache.lookup_us") < pos("mds.queue_depth"));
        assert!(pos("mds.queue_depth") < pos("stream.events"));
        assert!(j.contains("\"stream.events\": 7"));
        assert!(j.contains("\"mds.queue_depth\": -2"));
        assert!(j.contains("\"count\": 2"));
        assert!(j.contains("\"max\": 200"));
        // What a consumer reads back is what was rendered.
        let parsed = Json::parse(&j).expect("the dump parses");
        assert_eq!(parsed, tree);
        let depth = parsed.get("mds.queue_depth").and_then(Json::as_f64);
        assert_eq!(depth, Some(-2.0));
        let lookups = parsed.get("cache.lookup_us").expect("histogram summary");
        assert_eq!(
            lookups.get("mean").map(Json::render).as_deref(),
            Some("150.0")
        );
    }

    #[test]
    fn concurrent_registration_and_recording() {
        let reg = Registry::enabled();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let reg = reg.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        reg.counter("shared").inc();
                    }
                });
            }
        });
        assert_eq!(reg.snapshot().counter("shared"), Some(4000));
    }
}
