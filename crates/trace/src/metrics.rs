//! Live run metrics: an in-process registry of atomic counters, gauges,
//! and fixed-boundary log₂-bucket histograms.
//!
//! Where the trace layer records *events* (what happened, in order), this
//! module maintains *aggregated state* (how much, how fast, right now) that
//! can be read while the run is in flight: by the per-generation
//! `metrics-snapshot` trace events (the trace's copy of `/metrics`) and by
//! the optional Prometheus exposition endpoint ([`crate::serve`]).
//!
//! Design constraints, in order:
//!
//! 1. **Cheap enough to stay enabled.** Recording is a relaxed atomic add
//!    (plus, for histograms, a `leading_zeros`); no locks, no floats, no
//!    allocation on the hot path. Hot call sites cache their
//!    `Arc<Counter>`/`Arc<Histogram>` handles once; the registry mutex is
//!    touched only at registration and snapshot time.
//! 2. **Derived state only.** Nothing in the search reads a metric back;
//!    a run with metrics enabled is bit-identical to one without.
//! 3. **Buckets, not quantiles.** Histograms bucket by bit length
//!    (`bucket i` holds values of `i` bits, i.e. `[2^(i-1), 2^i)`), so a
//!    bound read from them is within 2x at best. Nothing here derives a
//!    quantile: the run digest ([`crate::report`]) takes exact ones from
//!    the trace's spans.
//!
//! Snapshots ([`MetricsRegistry::snapshot_value`]) serialize every metric
//! in name-sorted order, so two registries holding the same values render
//! byte-identically regardless of registration interleaving.

use crate::json::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of log₂ histogram buckets: bucket `i` counts recorded values
/// whose bit length is `i` (bucket 0 counts zeros, bucket 64 the values
/// with the top bit set).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways (population, current
/// generation, quarantined genomes).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Set the gauge.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// The bucket index a value records into: its bit length.
fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (`2^i - 1`; `u64::MAX` for the
/// last): the `le` label of its Prometheus `_bucket` line.
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A fixed-boundary log₂-bucket histogram. Recording is two relaxed atomic
/// adds and a `leading_zeros`.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0u64; HISTOGRAM_BUCKETS].map(AtomicU64::new),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one observation.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The non-empty `(bucket index, count)` pairs, in index order.
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((i, n))
            })
            .collect()
    }
}

/// One registered metric.
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
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

struct Entry {
    family: String,
    /// Optional `(label key, label value)` pair: `pass_wall_ns{pass="x"}`.
    label: Option<(String, String)>,
    metric: Metric,
}

impl Entry {
    /// The snapshot key: `family` or `family{key="value"}`.
    fn key(&self) -> String {
        match &self.label {
            None => self.family.clone(),
            Some((k, v)) => format!("{}{{{}=\"{}\"}}", self.family, k, v),
        }
    }
}

/// A cheap, cloneable handle onto a shared metrics registry. Metrics are
/// registered (or re-fetched) by name; handles are `Arc`s, so hot call
/// sites register once and record lock-free thereafter.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<Vec<Entry>>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MetricsRegistry({} metrics)",
            self.inner.lock().unwrap().len()
        )
    }
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn get_or_register(
        &self,
        family: &str,
        label: Option<(&str, &str)>,
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        let mut entries = self.inner.lock().unwrap();
        if let Some(e) = entries.iter().find(|e| {
            e.family == family && e.label.as_ref().map(|(k, v)| (k.as_str(), v.as_str())) == label
        }) {
            return match &e.metric {
                Metric::Counter(c) => Metric::Counter(c.clone()),
                Metric::Gauge(g) => Metric::Gauge(g.clone()),
                Metric::Histogram(h) => Metric::Histogram(h.clone()),
            };
        }
        let metric = make();
        let clone = match &metric {
            Metric::Counter(c) => Metric::Counter(c.clone()),
            Metric::Gauge(g) => Metric::Gauge(g.clone()),
            Metric::Histogram(h) => Metric::Histogram(h.clone()),
        };
        entries.push(Entry {
            family: family.to_string(),
            label: label.map(|(k, v)| (k.to_string(), v.to_string())),
            metric,
        });
        clone
    }

    /// Get or register the counter `name`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        match self.get_or_register(name, None, || Metric::Counter(Arc::new(Counter::default()))) {
            Metric::Counter(c) => c,
            other => panic!("metric {name:?} is a {}, not a counter", other.kind()),
        }
    }

    /// Get or register the gauge `name`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        match self.get_or_register(name, None, || Metric::Gauge(Arc::new(Gauge::default()))) {
            Metric::Gauge(g) => g,
            other => panic!("metric {name:?} is a {}, not a gauge", other.kind()),
        }
    }

    /// Get or register the histogram `name`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        match self.get_or_register(name, None, || {
            Metric::Histogram(Arc::new(Histogram::default()))
        }) {
            Metric::Histogram(h) => h,
            other => panic!("metric {name:?} is a {}, not a histogram", other.kind()),
        }
    }

    /// Get or register one member of a labeled histogram family, e.g.
    /// `histogram_labeled("pass_wall_ns", "pass", "regalloc")`.
    ///
    /// # Panics
    /// Panics if the member is already registered as a different kind.
    pub fn histogram_labeled(&self, family: &str, key: &str, value: &str) -> Arc<Histogram> {
        match self.get_or_register(family, Some((key, value)), || {
            Metric::Histogram(Arc::new(Histogram::default()))
        }) {
            Metric::Histogram(h) => h,
            other => panic!("metric {family:?} is a {}, not a histogram", other.kind()),
        }
    }

    /// Serialize every metric as one JSON object, keys in sorted order
    /// (`family` or `family{key="value"}`). Counters and gauges render as
    /// unsigned integers; histograms as
    /// `{"count": N, "sum": N, "buckets": [[index, count], ...]}` with only
    /// the non-empty buckets listed. This is the `runtime` payload of the
    /// `metrics-snapshot` trace event.
    pub fn snapshot_value(&self) -> Value {
        let entries = self.inner.lock().unwrap();
        let mut fields: Vec<(String, Value)> = entries
            .iter()
            .map(|e| {
                let v = match &e.metric {
                    Metric::Counter(c) => Value::UInt(c.get()),
                    Metric::Gauge(g) => Value::UInt(g.get()),
                    Metric::Histogram(h) => Value::Obj(vec![
                        ("count".to_string(), Value::UInt(h.count())),
                        ("sum".to_string(), Value::UInt(h.sum())),
                        (
                            "buckets".to_string(),
                            Value::Arr(
                                h.nonzero_buckets()
                                    .into_iter()
                                    .map(|(i, n)| {
                                        Value::Arr(vec![Value::UInt(i as u64), Value::UInt(n)])
                                    })
                                    .collect(),
                            ),
                        ),
                    ]),
                };
                (e.key(), v)
            })
            .collect();
        fields.sort_by(|(a, _), (b, _)| a.cmp(b));
        Value::Obj(fields)
    }

    /// Render every metric in Prometheus text exposition format (version
    /// 0.0.4): one `# TYPE` line per family, then one sample line per
    /// member (histograms expand to cumulative `_bucket{le=...}` lines plus
    /// `_sum` and `_count`). Families render in sorted order, so output is
    /// deterministic for fixed values.
    pub fn render_prometheus(&self) -> String {
        let entries = self.inner.lock().unwrap();
        // Group members by family, families sorted, members sorted by label.
        let mut families: Vec<(&str, &'static str, Vec<&Entry>)> = Vec::new();
        for e in entries.iter() {
            match families.iter_mut().find(|(f, _, _)| *f == e.family) {
                Some((_, _, members)) => members.push(e),
                None => families.push((&e.family, e.metric.kind(), vec![e])),
            }
        }
        families.sort_by_key(|(a, _, _)| *a);
        let mut out = String::new();
        for (family, kind, mut members) in families {
            members.sort_by(|a, b| a.label.cmp(&b.label));
            out.push_str(&format!("# TYPE {family} {kind}\n"));
            for e in members {
                let label = |extra: &str| match (&e.label, extra) {
                    (None, "") => String::new(),
                    (None, extra) => format!("{{{extra}}}"),
                    (Some((k, v)), "") => format!("{{{k}=\"{v}\"}}"),
                    (Some((k, v)), extra) => format!("{{{k}=\"{v}\",{extra}}}"),
                };
                match &e.metric {
                    Metric::Counter(c) => {
                        out.push_str(&format!("{family}{} {}\n", label(""), c.get()));
                    }
                    Metric::Gauge(g) => {
                        out.push_str(&format!("{family}{} {}\n", label(""), g.get()));
                    }
                    Metric::Histogram(h) => {
                        let mut cum = 0u64;
                        for (i, n) in h.nonzero_buckets() {
                            cum += n;
                            let le = format!("le=\"{}\"", bucket_upper_bound(i));
                            out.push_str(&format!("{family}_bucket{} {cum}\n", label(&le)));
                        }
                        out.push_str(&format!(
                            "{family}_bucket{} {}\n",
                            label("le=\"+Inf\""),
                            h.count()
                        ));
                        out.push_str(&format!("{family}_sum{} {}\n", label(""), h.sum()));
                        out.push_str(&format!("{family}_count{} {}\n", label(""), h.count()));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_count() {
        let m = MetricsRegistry::new();
        let c = m.counter("evals");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Re-registering returns the same underlying atomic.
        assert_eq!(m.counter("evals").get(), 5);

        let g = m.gauge("depth");
        g.set(7);
        assert_eq!(g.get(), 7);
        g.set(6);
        assert_eq!(m.gauge("depth").get(), 6);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let h = Histogram::default();
        for v in [0u64, 1, 2, 3, 1000, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        let buckets = h.nonzero_buckets();
        // 0 -> bucket 0; 1 -> 1; 2,3 -> 2; 1000 (10 bits) -> 10; MAX -> 64.
        assert_eq!(buckets, vec![(0, 1), (1, 1), (2, 2), (10, 1), (64, 1)]);
        assert_eq!(bucket_upper_bound(10), 1023);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn snapshot_is_name_sorted_and_deterministic() {
        let m = MetricsRegistry::new();
        m.counter("zebra").inc();
        m.gauge("alpha").set(2);
        m.histogram_labeled("pass_wall_ns", "pass", "regalloc")
            .record(3);
        let v = m.snapshot_value();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            vec!["alpha", "pass_wall_ns{pass=\"regalloc\"}", "zebra"]
        );
        // A registry with the same values registered in another order
        // snapshots byte-identically.
        let n = MetricsRegistry::new();
        n.histogram_labeled("pass_wall_ns", "pass", "regalloc")
            .record(3);
        n.counter("zebra").inc();
        n.gauge("alpha").set(2);
        assert_eq!(v.to_string(), n.snapshot_value().to_string());
        // Histogram shape: {"count":1,"sum":3,"buckets":[[2,1]]}.
        let hist = v.get("pass_wall_ns{pass=\"regalloc\"}").unwrap();
        assert_eq!(hist.get("count").unwrap().as_u64(), Some(1));
        assert_eq!(hist.get("sum").unwrap().as_u64(), Some(3));
        assert_eq!(hist.get("buckets").unwrap().to_string(), "[[2,1]]");
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let m = MetricsRegistry::new();
        m.counter("metaopt_evaluations_total").add(42);
        m.gauge("metaopt_generation").set(3);
        let h = m.histogram("metaopt_eval_latency_ns");
        h.record(100);
        h.record(100_000);
        m.histogram_labeled("metaopt_pass_wall_ns", "pass", "regalloc")
            .record(5);
        let text = m.render_prometheus();
        for needle in [
            "# TYPE metaopt_evaluations_total counter\nmetaopt_evaluations_total 42\n",
            "# TYPE metaopt_generation gauge\nmetaopt_generation 3\n",
            "# TYPE metaopt_eval_latency_ns histogram\n",
            "metaopt_eval_latency_ns_bucket{le=\"127\"} 1\n",
            "metaopt_eval_latency_ns_bucket{le=\"131071\"} 2\n",
            "metaopt_eval_latency_ns_bucket{le=\"+Inf\"} 2\n",
            "metaopt_eval_latency_ns_sum 100100\n",
            "metaopt_eval_latency_ns_count 2\n",
            "metaopt_pass_wall_ns_bucket{pass=\"regalloc\",le=\"7\"} 1\n",
            "metaopt_pass_wall_ns_count{pass=\"regalloc\"} 1\n",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let m = MetricsRegistry::new();
        m.counter("x");
        m.gauge("x");
    }
}
