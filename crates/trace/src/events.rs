//! The `run-trace.v1` vocabulary: [`Event`] has one variant per event
//! type, and each variant's fields are that type's attributes, in the order
//! a trace line writes them.
//!
//! This module is the one statement of the format. Emitters build a
//! variant and hand it to [`crate::Tracer::emit`], which writes
//! `{"type", "ts", <attributes>, <scope attributes>}` and folds the value
//! into an attached registry; the validator and the digest read a line
//! back through [`Event::from_value`].
//! A required attribute is a plain field, an optional one an `Option`,
//! which is written only when it is `Some`. Reading ignores attributes the
//! variant does not declare, so a trace may carry more than this crate
//! knows. Contracts between attributes (a scored `eval` carries its score,
//! a front's size counts its points) are checked by [`crate::schema`].

use crate::json::Value;
use crate::SCHEMA_VERSION;

/// One attribute's Rust type: how it reads from and writes to its JSON
/// value.
trait Attr: Sized {
    /// What the JSON value must be, for the error that names a mistyped
    /// attribute.
    const EXPECTED: &'static str;

    fn from_json(v: &Value) -> Option<Self>;

    /// The JSON value to write, `None` to leave the attribute out.
    fn to_json(&self) -> Option<Value>;

    /// The value of an absent attribute, `None` when it is required.
    fn absent() -> Option<Self> {
        None
    }
}

impl Attr for u64 {
    const EXPECTED: &'static str = "a UInt";

    fn from_json(v: &Value) -> Option<Self> {
        v.as_u64()
    }

    fn to_json(&self) -> Option<Value> {
        Some(Value::UInt(*self))
    }
}

/// Any number. `null`, which is how a non-finite number is written, reads
/// as NaN.
impl Attr for f64 {
    const EXPECTED: &'static str = "a Num";

    fn from_json(v: &Value) -> Option<Self> {
        match v {
            Value::Null => Some(f64::NAN),
            v => v.as_f64(),
        }
    }

    fn to_json(&self) -> Option<Value> {
        Some(Value::Num(*self))
    }
}

impl Attr for bool {
    const EXPECTED: &'static str = "a Bool";

    fn from_json(v: &Value) -> Option<Self> {
        match v {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    fn to_json(&self) -> Option<Value> {
        Some(Value::Bool(*self))
    }
}

impl Attr for String {
    const EXPECTED: &'static str = "a Str";

    fn from_json(v: &Value) -> Option<Self> {
        v.as_str().map(str::to_string)
    }

    fn to_json(&self) -> Option<Value> {
        Some(Value::str(self))
    }
}

impl Attr for Vec<u64> {
    const EXPECTED: &'static str = "an array of unsigned integers";

    fn from_json(v: &Value) -> Option<Self> {
        v.as_arr()?.iter().map(Value::as_u64).collect()
    }

    fn to_json(&self) -> Option<Value> {
        Some(Value::Arr(self.iter().map(|&n| Value::UInt(n)).collect()))
    }
}

/// Named counts, as a JSON object of unsigned integers in insertion order.
impl Attr for Vec<(String, u64)> {
    const EXPECTED: &'static str = "an object of unsigned integers";

    fn from_json(v: &Value) -> Option<Self> {
        (v.as_obj()?.iter())
            .map(|(k, n)| Some((k.clone(), n.as_u64()?)))
            .collect()
    }

    fn to_json(&self) -> Option<Value> {
        Some(Value::Obj(
            self.iter()
                .map(|(k, n)| (k.clone(), Value::UInt(*n)))
                .collect(),
        ))
    }
}

impl Attr for Vec<FrontPoint> {
    const EXPECTED: &'static str =
        "an array of points with a \"plan\", an \"expr\" and non-empty unsigned \"objectives\"";

    fn from_json(v: &Value) -> Option<Self> {
        let point = |p: &Value| {
            let objectives = Vec::<u64>::from_json(p.get("objectives")?)?;
            if objectives.is_empty() {
                return None;
            }
            Some(FrontPoint {
                plan: String::from_json(p.get("plan")?)?,
                expr: String::from_json(p.get("expr")?)?,
                objectives,
            })
        };
        v.as_arr()?.iter().map(point).collect()
    }

    fn to_json(&self) -> Option<Value> {
        let point = |p: &FrontPoint| {
            let objectives = p.objectives.iter().map(|&n| Value::UInt(n)).collect();
            Value::obj([
                ("plan", Value::str(&p.plan)),
                ("expr", Value::str(&p.expr)),
                ("objectives", Value::Arr(objectives)),
            ])
        };
        Some(Value::Arr(self.iter().map(point).collect()))
    }
}

impl<T: Attr> Attr for Option<T> {
    const EXPECTED: &'static str = T::EXPECTED;

    fn from_json(v: &Value) -> Option<Self> {
        T::from_json(v).map(Some)
    }

    fn to_json(&self) -> Option<Value> {
        self.as_ref().and_then(T::to_json)
    }

    fn absent() -> Option<Self> {
        Some(None)
    }
}

/// Attribute `key` of the `ty` event `v`.
fn read<T: Attr>(v: &Value, ty: &str, key: &str) -> Result<T, String> {
    match v.get(key) {
        None => T::absent().ok_or_else(|| format!("event {ty:?} lacks required field {key:?}")),
        Some(value) => T::from_json(value)
            .ok_or_else(|| format!("event {ty:?} field {key:?} is not {}", T::EXPECTED)),
    }
}

/// Append attribute `key` to `out`, unless `value` is an absent option.
fn write<T: Attr>(value: &T, key: &str, out: &mut Vec<(String, Value)>) {
    if let Some(v) = value.to_json() {
        out.push((key.to_string(), v));
    }
}

/// One point of a `pareto-front` event: a non-dominated co-evolved genome
/// and its objective vector.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrontPoint {
    /// The genome's pipeline plan, in plan syntax.
    pub plan: String,
    /// The genome's priority expression.
    pub expr: String,
    /// The point's objectives, all minimized, in the emitter's order
    /// (cycles, code size, compile-cost proxy).
    pub objectives: Vec<u64>,
}

/// Declares [`Event`]: each variant with its `type` name and its
/// attributes in the order they are written, plus the reader and writer.
macro_rules! events {
    ($(
        $(#[$doc:meta])*
        $variant:ident = $name:literal {
            $( $(#[$field_doc:meta])* $field:ident: $ty:ty, )*
        }
    )*) => {
        /// One `run-trace.v1` event: its type and its attributes. The
        /// trace line also carries `ts`, the nanoseconds since the trace
        /// started, and the emitting tracer's scope attributes (`bench`).
        ///
        /// An attribute's JSON type follows its field's: `u64` an unsigned
        /// integer, `f64` any number (`null` when not finite), `bool` a
        /// boolean, `String` a string, `Vec<u64>` an array of unsigned
        /// integers, `Vec<(String, u64)>` an object of them and
        /// `Vec<FrontPoint>` an array of objects with `FrontPoint`'s
        /// fields. An `Option` attribute is left out when `None`.
        #[derive(Clone, Debug, PartialEq)]
        pub enum Event {
            $(
                $(#[$doc])*
                #[doc = concat!("\n\nType `", $name, "`.")]
                $variant { $( $(#[$field_doc])* $field: $ty, )* },
            )*
        }

        impl Event {
            /// The event's `type`.
            pub fn name(&self) -> &'static str {
                match self {
                    $( Event::$variant { .. } => $name, )*
                }
            }

            /// Append the event's attributes to `out`, in declaration order.
            pub(crate) fn write_attrs(&self, out: &mut Vec<(String, Value)>) {
                match self {
                    $( Event::$variant { $($field),* } => {
                        $( write($field, stringify!($field), out); )*
                    } )*
                }
            }

            /// Read one event from a parsed trace line. Attributes the
            /// type does not declare are ignored; `ts` is not read.
            ///
            /// # Errors
            /// Names what is wrong: the line is not an object, has no
            /// string `type` or an unknown one, or lacks or mistypes an
            /// attribute.
            pub fn from_value(v: &Value) -> Result<Event, String> {
                if v.as_obj().is_none() {
                    return Err("event is not a JSON object".to_string());
                }
                let ty = v
                    .get("type")
                    .and_then(Value::as_str)
                    .ok_or("missing string field \"type\"")?;
                match ty {
                    $( $name => Ok(Event::$variant {
                        $( $field: read(v, $name, stringify!($field))?, )*
                    }), )*
                    _ => Err(format!(
                        "unknown event type {ty:?} (schema drift? bump {SCHEMA_VERSION})"
                    )),
                }
            }
        }
    };
}

events! {
    /// The first line of every trace, written by the tracer itself.
    TraceHeader = "trace-header" {
        /// The schema the trace follows, [`SCHEMA_VERSION`].
        schema: String,
        /// The program that wrote the trace.
        producer: String,
    }
    /// A `metaopt` process started.
    RunStart = "run-start" {
        /// The command line's positional arguments.
        command: String,
    }
    /// A `metaopt` process finished its command.
    RunEnd = "run-end" {
        /// The command line's positional arguments.
        command: String,
        /// Wall time of the command.
        dur_ns: u64,
    }
    /// An evolution run started (fresh or resumed).
    EvolutionStart = "evolution-start" {
        /// Genomes per generation.
        population: u64,
        /// Generations the run goes to.
        generations: u64,
        /// The first generation this process runs (non-zero on resume).
        start_gen: u64,
        /// Evaluation threads.
        threads: u64,
        /// Whether the run resumed from a checkpoint.
        resumed: bool,
    }
    /// An evolution run ended.
    EvolutionEnd = "evolution-end" {
        /// Evaluations the run performed.
        evaluations: u64,
        /// Evaluations that returned a score.
        successes: u64,
        /// Evaluations that failed.
        failures: u64,
        /// `(genome, case)` pairs in the quarantine ledger.
        quarantined: u64,
        /// The winner's fitness.
        best_fitness: f64,
        /// The winner's genome key.
        best: String,
        /// Wall time of the run.
        dur_ns: u64,
    }
    /// A generation finished.
    Generation = "generation" {
        /// Generation index.
        gen: u64,
        /// The case indices the generation was scored on (the DSS subset).
        subset: Vec<u64>,
        /// Evaluations performed in the generation.
        evals: u64,
        /// Lookups the memo answered in the generation.
        cache_hits: u64,
        /// The generation's best fitness.
        best_fitness: f64,
        /// The population's mean fitness (NaN when none scored).
        mean_fitness: f64,
        /// Node count of the generation's best genome.
        best_size: u64,
        /// Wall time of the generation.
        dur_ns: u64,
    }
    /// One `(genome, case)` evaluation that the memo could not answer.
    Eval = "eval" {
        /// Generation index.
        gen: u64,
        /// The genome's key.
        genome: String,
        /// Case index.
        case: u64,
        /// [`crate::schema::OUTCOME_SCORE`], or the failure's error class.
        outcome: String,
        /// The speedup score (objective 0 for a co-evolved genome);
        /// required when `outcome` is [`crate::schema::OUTCOME_SCORE`].
        score: Option<f64>,
        /// A co-evolved genome's objective vector.
        objectives: Option<Vec<u64>>,
        /// `Some(true)` when the persistent fitness cache answered.
        warm: Option<bool>,
        /// Wall time of the evaluation, retries included.
        dur_ns: u64,
    }
    /// One compiler pass ran.
    Pass = "pass" {
        /// Pass name, in plan syntax.
        pass: String,
        /// Wall time of the pass.
        wall_ns: u64,
        /// The compile counters the pass moved, by name.
        delta: Vec<(String, u64)>,
    }
    /// One simulation completed.
    Sim = "sim" {
        /// Simulated cycles, before measurement noise.
        cycles: u64,
        /// Instructions executed.
        insts: u64,
        /// Wall time of the simulation.
        dur_ns: u64,
        /// The executing tier, `fast` or `reference`.
        tier: Option<String>,
    }
    /// Semantic validation of one pass's output.
    Validate = "validate" {
        /// Pass name, in plan syntax.
        pass: String,
        /// Validation level.
        level: String,
        /// Whether no finding was an error.
        ok: bool,
        /// Findings (warnings and errors).
        findings: u64,
        /// Wall time of the validation.
        wall_ns: u64,
    }
    /// A checkpoint was written.
    Checkpoint = "checkpoint" {
        /// The generation a resume starts at.
        gen: u64,
        /// Wall time of the write.
        dur_ns: u64,
    }
    /// A transient evaluation failure is retried.
    Retry = "retry" {
        /// Generation index.
        gen: u64,
        /// The genome's key.
        genome: String,
        /// Case index.
        case: u64,
        /// The failed attempt's index.
        attempt: u64,
        /// The failure's error class.
        kind: String,
        /// The deterministic backoff before the next attempt.
        backoff_ns: u64,
    }
    /// Retired: a watchdog timeout of the former evaluation service. No
    /// emitter; read so that older traces still validate.
    Timeout = "timeout" {
        /// The genome's key.
        genome: String,
        /// Case index.
        case: u64,
        /// Wall time until the timeout.
        wall_ns: u64,
    }
    /// Retired: a respawned worker of the former evaluation service. No
    /// emitter; read so that older traces still validate.
    WorkerRestart = "worker-restart" {
        /// Worker index.
        worker: u64,
        /// Restarts of the worker so far.
        restarts: u64,
        /// Why the worker was restarted.
        reason: String,
    }
    /// The persistent fitness store opened in a degraded or recovered
    /// state, or degraded on a failed append.
    CacheRecovered = "cache-recovered" {
        /// `recovered` (a torn tail was cut off) or `degraded` (in memory
        /// only).
        mode: String,
        /// Entries loaded.
        entries: u64,
        /// Bytes of torn tail dropped.
        dropped_bytes: u64,
    }
    /// A co-evolved generation's non-dominated front.
    ParetoFront = "pareto-front" {
        /// Generation index.
        gen: u64,
        /// Points on the front.
        size: u64,
        /// The front's saturating integer hypervolume proxy.
        hypervolume: u64,
        /// The front's points.
        points: Vec<FrontPoint>,
    }
    /// The evaluation core's counters at a generation's end, written while
    /// a metrics registry is attached. Older traces also carry `runtime`,
    /// the former atomic registry's dump, which [`crate::schema`] checks
    /// and [`crate::strip_timing`] drops.
    MetricsSnapshot = "metrics-snapshot" {
        /// Snapshot sequence number.
        seq: u64,
        /// Generation index.
        gen: u64,
        /// The deterministic engine counters, by name.
        counters: Vec<(String, u64)>,
    }
}
