#![warn(missing_docs)]
//! # metaopt-trace
//!
//! Structured run telemetry for the Meta Optimization system: a
//! lightweight, zero-dependency event layer (spans + counters) that the GP
//! engine, the experiment drivers, the compiler pass manager, and the
//! simulator all emit into.
//!
//! Events stream to a versioned JSONL format, **`run-trace.v1`**
//! ([`SCHEMA_VERSION`]): one JSON object per line, each carrying a `type`,
//! a monotonic `ts` (nanoseconds since trace start), and type-specific
//! attributes. [`Event`] is the vocabulary: one variant per event type,
//! whose rustdoc lists each type's attributes and JSON types. Emitters
//! build a variant and [`Tracer::emit`] writes it; [`schema`] and
//! [`report`] read lines back through [`Event::from_value`], and a
//! [`metrics::MetricsRegistry`] folds the emitted value itself.
//!
//! Design constraints, in order:
//!
//! 1. **Free when off.** A [`Tracer`] with neither a sink nor a
//!    [`metrics::MetricsRegistry`] is two `None`s; every emission is a
//!    branch on [`Tracer::enabled`], taken before building the event
//!    wherever the event allocates, and no clock is read, so runs without
//!    `--trace-out` or `--metrics-addr` are bit-identical to runs built
//!    before tracing existed.
//! 2. **Deterministic payloads.** For a fixed configuration, every event's
//!    payload (everything except the timing fields `ts`, `dur_ns`,
//!    `wall_ns`) is reproducible across runs; with one worker thread the
//!    full event *sequence* is reproducible too, which is what the golden
//!    trace test pins. [`strip_timing`] produces that canonical form.
//! 3. **Thread-safe.** Worker threads share one sink; each event is
//!    serialized to a line off-lock and appended under a mutex, so lines
//!    never interleave.

pub mod events;
pub mod json;
pub mod live;
pub mod metrics;
pub mod report;
pub mod schema;
pub mod serve;

pub use events::{Event, FrontPoint};
use json::Value;
use metrics::MetricsRegistry;
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The trace schema version this crate writes and validates.
pub const SCHEMA_VERSION: &str = "run-trace.v1";

/// Why a sink lock is never poisoned: under it the tracer only pushes a
/// line or calls the writer, whose errors it ignores.
const SINK_LOCK: &str = "no code panics under the trace sink lock";

enum SinkKind {
    Writer(Box<dyn Write + Send>),
    Memory(Vec<String>),
}

struct Inner {
    start: Instant,
    sink: Mutex<SinkKind>,
}

impl Drop for Inner {
    fn drop(&mut self) {
        if let Ok(mut sink) = self.sink.lock() {
            if let SinkKind::Writer(w) = &mut *sink {
                let _ = w.flush();
            }
        }
    }
}

/// A cheap, cloneable handle onto a shared trace sink.
///
/// Disabled by default ([`Tracer::disabled`] / `Tracer::default()`): all
/// emission methods return immediately without reading a clock or taking a
/// lock. Tracers with a sink ([`Tracer::to_file`], [`Tracer::in_memory`])
/// write the `trace-header` event on creation, stamp every event with a
/// monotonic timestamp, and append scope attributes (see
/// [`Tracer::scoped`]) to each payload.
///
/// A tracer can also carry a live [`MetricsRegistry`]
/// ([`Tracer::with_metrics`]), which folds every event the tracer emits
/// into its digest. A registry alone enables the tracer: `--metrics-addr`
/// without `--trace-out` builds and folds each event and writes none.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
    scope: Vec<(&'static str, Value)>,
    metrics: Option<MetricsRegistry>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.enabled() {
            write!(f, "Tracer(enabled)")
        } else {
            write!(f, "Tracer(disabled)")
        }
    }
}

impl Tracer {
    /// The no-op tracer: emissions cost one branch.
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    fn from_sink(sink: SinkKind) -> Tracer {
        let t = Tracer {
            inner: Some(Arc::new(Inner {
                start: Instant::now(),
                sink: Mutex::new(sink),
            })),
            scope: Vec::new(),
            metrics: None,
        };
        t.emit(Event::TraceHeader {
            schema: SCHEMA_VERSION.to_string(),
            producer: "metaopt".to_string(),
        });
        t
    }

    /// A tracer streaming JSONL to `path` (truncating any existing file).
    ///
    /// # Errors
    /// Fails when the file cannot be created.
    pub fn to_file(path: impl AsRef<Path>) -> std::io::Result<Tracer> {
        let file = File::create(path)?;
        Ok(Tracer::from_sink(SinkKind::Writer(Box::new(
            BufWriter::new(file),
        ))))
    }

    /// A tracer collecting lines in memory, for tests ([`Tracer::lines`]).
    pub fn in_memory() -> Tracer {
        Tracer::from_sink(SinkKind::Memory(Vec::new()))
    }

    /// Whether events are being recorded: written to a sink, folded into
    /// a metrics registry, or both. Emission sites gate any
    /// attribute-building work on this.
    pub fn enabled(&self) -> bool {
        self.inner.is_some() || self.metrics.is_some()
    }

    /// The same tracer folding every event it emits into `registry`'s live
    /// digest. Works without a sink too (metrics without a trace file).
    pub fn with_metrics(mut self, registry: MetricsRegistry) -> Tracer {
        self.metrics = Some(registry);
        self
    }

    /// The live metrics registry, when one is attached.
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        self.metrics.as_ref()
    }

    /// A handle onto the same sink that appends `attrs` to every event it
    /// emits (after the event's own attributes). Used to stamp ambient
    /// context — e.g. the benchmark name — onto `pass`/`sim` events emitted
    /// deep inside the compiler without threading it through every call.
    pub fn scoped<I>(&self, attrs: I) -> Tracer
    where
        I: IntoIterator<Item = (&'static str, Value)>,
    {
        if !self.enabled() {
            return Tracer::disabled();
        }
        let mut t = self.clone();
        t.scope.extend(attrs);
        t
    }

    /// Start timing a span; free (no clock read) when the tracer is
    /// disabled.
    pub fn begin(&self) -> Span {
        Span {
            start: self.enabled().then(Instant::now),
        }
    }

    /// Emit one event, `{"type", "ts", <attributes>, <scope>}`: fold it
    /// into the attached registry's digest and write it to the sink as a
    /// single JSONL line. No-op when disabled.
    pub fn emit(&self, event: Event) {
        if !self.enabled() {
            return;
        }
        // The sink's lock is taken before the fold, so that concurrent
        // emitters fold their events in the order of their lines.
        let sink = self.inner.as_ref().map(|inner| {
            let ts = inner.start.elapsed().as_nanos() as u64;
            let mut fields = vec![
                ("type".to_string(), Value::str(event.name())),
                ("ts".to_string(), Value::UInt(ts)),
            ];
            event.write_attrs(&mut fields);
            fields.extend(self.scope.iter().map(|(k, v)| (k.to_string(), v.clone())));
            let line = Value::Obj(fields).to_string();
            (line, inner.sink.lock().expect(SINK_LOCK))
        });
        if let Some(registry) = &self.metrics {
            registry.fold(&event);
        }
        let Some((line, mut sink)) = sink else { return };
        match &mut *sink {
            SinkKind::Writer(w) => {
                let _ = writeln!(w, "{line}");
            }
            SinkKind::Memory(lines) => lines.push(line),
        }
    }

    /// Flush buffered output to the underlying file (no-op for disabled and
    /// in-memory tracers).
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            if let SinkKind::Writer(w) = &mut *inner.sink.lock().expect(SINK_LOCK) {
                let _ = w.flush();
            }
        }
    }

    /// The lines collected so far by an [`Tracer::in_memory`] tracer;
    /// `None` for file-backed or disabled tracers.
    pub fn lines(&self) -> Option<Vec<String>> {
        let inner = self.inner.as_ref()?;
        match &*inner.sink.lock().expect(SINK_LOCK) {
            SinkKind::Memory(lines) => Some(lines.clone()),
            SinkKind::Writer(_) => None,
        }
    }
}

/// An in-flight span timer from [`Tracer::begin`]. Reports elapsed
/// nanoseconds; 0 when the tracer was disabled (the corresponding `emit` is
/// a no-op anyway).
pub struct Span {
    start: Option<Instant>,
}

impl Span {
    /// Nanoseconds since [`Tracer::begin`].
    pub fn dur_ns(&self) -> u64 {
        self.start.map_or(0, |s| s.elapsed().as_nanos() as u64)
    }
}

/// The attribute keys that vary run to run and are therefore stripped from
/// the canonical payload: the timing fields, plus `runtime`, the registry
/// dump that `metrics-snapshot` events of older traces carry, whose latency
/// histograms and scheduling gauges are wall-clock- and schedule-dependent
/// (the snapshot's `counters` object is the deterministic part). Everything
/// else in a `run-trace.v1` payload is deterministic for a fixed
/// configuration.
pub const TIMING_KEYS: [&str; 4] = ["ts", "dur_ns", "wall_ns", "runtime"];

/// One trace line with its timing fields ([`TIMING_KEYS`]) removed — the
/// canonical deterministic payload the golden test pins.
///
/// # Errors
/// Fails when the line is not valid JSON.
pub fn strip_timing(line: &str) -> Result<String, json::ParseError> {
    fn strip(v: Value) -> Value {
        match v {
            Value::Obj(fields) => Value::Obj(
                fields
                    .into_iter()
                    .filter(|(k, _)| !TIMING_KEYS.contains(&k.as_str()))
                    .map(|(k, v)| (k, strip(v)))
                    .collect(),
            ),
            Value::Arr(items) => Value::Arr(items.into_iter().map(strip).collect()),
            other => other,
        }
    }
    Ok(strip(json::parse(line)?).to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        t.emit(Event::Generation {
            gen: 0,
            subset: vec![],
            evals: 0,
            cache_hits: 0,
            best_fitness: 0.0,
            mean_fitness: 0.0,
            best_size: 0,
            dur_ns: 0,
        });
        assert_eq!(t.lines(), None);
        assert_eq!(t.begin().dur_ns(), 0);
        // Scoping a disabled tracer stays disabled.
        assert!(!t.scoped([("bench", Value::str("x"))]).enabled());
    }

    #[test]
    fn metrics_ride_along_without_a_sink() {
        let registry = MetricsRegistry::new();
        let t = Tracer::disabled().with_metrics(registry.clone());
        // A registry alone enables the tracer: events are built and folded.
        assert!(t.enabled());
        assert!(t.metrics().is_some());
        // Scoping keeps the registry (one shared digest).
        let scoped = t.scoped([("bench", Value::str("x"))]);
        assert!(scoped.enabled());
        scoped.emit(Event::Sim {
            cycles: 40,
            insts: 9,
            dur_ns: 3,
            tier: None,
        });
        t.emit(Event::Retry {
            gen: 0,
            genome: "g".to_string(),
            case: 0,
            attempt: 0,
            kind: "timeout".to_string(),
            backoff_ns: 0,
        });
        let digest = registry.report();
        assert_eq!((digest.events, digest.sims, digest.sim_ns), (2, (1, 40), 3));
        assert_eq!(digest.reliability.retries, 1);
        // No sink: no line is written anywhere.
        assert_eq!(t.lines(), None);
        assert_eq!(scoped.lines(), None);
    }

    #[test]
    fn strip_timing_removes_snapshot_runtime() {
        let line = r#"{"type":"metrics-snapshot","ts":5,"seq":0,"gen":1,"counters":{"evaluations":3},"runtime":{"metaopt_eval_latency_ns":{"count":3,"sum":99,"buckets":[[5,3]]}}}"#;
        assert_eq!(
            strip_timing(line).unwrap(),
            r#"{"type":"metrics-snapshot","seq":0,"gen":1,"counters":{"evaluations":3}}"#
        );
    }

    #[test]
    fn memory_tracer_starts_with_the_header() {
        let t = Tracer::in_memory();
        t.emit(Event::RunStart {
            command: "test".to_string(),
        });
        let lines = t.lines().unwrap();
        assert_eq!(lines.len(), 2);
        let header = json::parse(&lines[0]).unwrap();
        assert_eq!(header.get("type").unwrap().as_str(), Some("trace-header"));
        assert_eq!(header.get("schema").unwrap().as_str(), Some(SCHEMA_VERSION));
        assert!(header.get("ts").unwrap().as_u64().is_some());
    }

    #[test]
    fn scope_attributes_ride_along() {
        let t = Tracer::in_memory();
        let scoped = t.scoped([("bench", Value::str("unepic"))]);
        scoped.emit(Event::Pass {
            pass: "regalloc".to_string(),
            wall_ns: 0,
            delta: vec![],
        });
        let lines = t.lines().unwrap();
        let ev = json::parse(lines.last().unwrap()).unwrap();
        assert_eq!(ev.get("pass").unwrap().as_str(), Some("regalloc"));
        assert_eq!(ev.get("bench").unwrap().as_str(), Some("unepic"));
    }

    #[test]
    fn clones_share_one_sink() {
        let t = Tracer::in_memory();
        let u = t.clone();
        u.emit(Event::RunStart {
            command: "x".to_string(),
        });
        assert_eq!(t.lines().unwrap().len(), 2);
    }

    #[test]
    fn strip_timing_removes_only_timing_keys() {
        let line = r#"{"type":"eval","ts":123,"genome":"(x)","dur_ns":9,"score":1.5}"#;
        assert_eq!(
            strip_timing(line).unwrap(),
            r#"{"type":"eval","genome":"(x)","score":1.5}"#
        );
    }

    #[test]
    fn file_tracer_writes_lines() {
        let path = std::env::temp_dir().join(format!("metaopt-trace-{}.jsonl", std::process::id()));
        {
            let t = Tracer::to_file(&path).unwrap();
            t.emit(Event::RunStart {
                command: "smoke".to_string(),
            });
            t.flush();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        std::fs::remove_file(&path).ok();
    }
}
