//! The `run-trace.v1` schema: event taxonomy and JSONL validation.
//!
//! Versioning policy (see DESIGN.md §12): a trace's first line is a
//! `trace-header` event naming its schema. Within `v1`, *adding* event
//! types or optional attributes is allowed; removing or re-typing a
//! required attribute, or changing an event's meaning, requires bumping to
//! `run-trace.v2`. The validator is therefore strict about required fields
//! and known types, but tolerates unknown extra attributes (forward
//! compatibility within the version).

use crate::json::{self, Value};
use crate::SCHEMA_VERSION;
use std::fmt;

/// The expected JSON shape of a required attribute.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FieldKind {
    /// A JSON string.
    Str,
    /// An unsigned integer.
    UInt,
    /// Any number (integer or float; `null` tolerated for non-finite).
    Num,
    /// `true`/`false`.
    Bool,
    /// An array.
    Arr,
    /// An object.
    Obj,
}

impl FieldKind {
    fn matches(self, v: &Value) -> bool {
        match self {
            FieldKind::Str => matches!(v, Value::Str(_)),
            FieldKind::UInt => matches!(v, Value::UInt(_)),
            FieldKind::Num => matches!(v, Value::UInt(_) | Value::Num(_) | Value::Null),
            FieldKind::Bool => matches!(v, Value::Bool(_)),
            FieldKind::Arr => matches!(v, Value::Arr(_)),
            FieldKind::Obj => matches!(v, Value::Obj(_)),
        }
    }
}

/// Required attributes per event type (beyond the universal `type` and
/// `ts`). This table *is* the `run-trace.v1` contract; the golden trace
/// test and DESIGN.md §12 mirror it.
pub const EVENT_TYPES: &[(&str, &[(&str, FieldKind)])] = &[
    (
        "trace-header",
        &[("schema", FieldKind::Str), ("producer", FieldKind::Str)],
    ),
    ("run-start", &[("command", FieldKind::Str)]),
    (
        "run-end",
        &[("command", FieldKind::Str), ("dur_ns", FieldKind::UInt)],
    ),
    (
        "evolution-start",
        &[
            ("population", FieldKind::UInt),
            ("generations", FieldKind::UInt),
            ("start_gen", FieldKind::UInt),
            ("threads", FieldKind::UInt),
            ("resumed", FieldKind::Bool),
        ],
    ),
    (
        "evolution-end",
        &[
            ("evaluations", FieldKind::UInt),
            ("successes", FieldKind::UInt),
            ("failures", FieldKind::UInt),
            ("quarantined", FieldKind::UInt),
            ("best_fitness", FieldKind::Num),
            ("best", FieldKind::Str),
            ("dur_ns", FieldKind::UInt),
        ],
    ),
    (
        "generation",
        &[
            ("gen", FieldKind::UInt),
            ("subset", FieldKind::Arr),
            ("evals", FieldKind::UInt),
            ("cache_hits", FieldKind::UInt),
            ("best_fitness", FieldKind::Num),
            ("mean_fitness", FieldKind::Num),
            ("best_size", FieldKind::UInt),
            ("dur_ns", FieldKind::UInt),
        ],
    ),
    (
        "eval",
        &[
            ("gen", FieldKind::UInt),
            ("genome", FieldKind::Str),
            ("case", FieldKind::UInt),
            ("outcome", FieldKind::Str),
            ("dur_ns", FieldKind::UInt),
        ],
    ),
    (
        "pass",
        &[
            ("pass", FieldKind::Str),
            ("wall_ns", FieldKind::UInt),
            ("delta", FieldKind::Obj),
        ],
    ),
    (
        "sim",
        &[
            ("cycles", FieldKind::UInt),
            ("insts", FieldKind::UInt),
            ("dur_ns", FieldKind::UInt),
        ],
    ),
    (
        "validate",
        &[
            ("pass", FieldKind::Str),
            ("level", FieldKind::Str),
            ("ok", FieldKind::Bool),
            ("findings", FieldKind::UInt),
            ("wall_ns", FieldKind::UInt),
        ],
    ),
    (
        "checkpoint",
        &[("gen", FieldKind::UInt), ("dur_ns", FieldKind::UInt)],
    ),
    // Reliability events (additive within v1): retry comes from the
    // evaluation core's bounded retries and cache-recovered from the
    // persistent fitness store; timeout and worker-restart have no current
    // producer and are only validated, so older traces still load.
    (
        "retry",
        &[
            ("gen", FieldKind::UInt),
            ("genome", FieldKind::Str),
            ("case", FieldKind::UInt),
            ("attempt", FieldKind::UInt),
            ("kind", FieldKind::Str),
            ("backoff_ns", FieldKind::UInt),
        ],
    ),
    (
        "timeout",
        &[
            ("genome", FieldKind::Str),
            ("case", FieldKind::UInt),
            ("wall_ns", FieldKind::UInt),
        ],
    ),
    (
        "worker-restart",
        &[
            ("worker", FieldKind::UInt),
            ("restarts", FieldKind::UInt),
            ("reason", FieldKind::Str),
        ],
    ),
    (
        "cache-recovered",
        &[
            ("mode", FieldKind::Str),
            ("entries", FieldKind::UInt),
            ("dropped_bytes", FieldKind::UInt),
        ],
    ),
    // Co-evolution (additive within v1): one Pareto-front snapshot per
    // generation. `points` holds the non-dominated `(plan, expr)` genomes
    // with their integer objective vectors (cycles, code size, compile-cost
    // proxy — minimized); `hypervolume` is the front's saturating integer
    // hypervolume proxy, so the digest never needs floating point.
    (
        "pareto-front",
        &[
            ("gen", FieldKind::UInt),
            ("size", FieldKind::UInt),
            ("hypervolume", FieldKind::UInt),
            ("points", FieldKind::Arr),
        ],
    ),
    // Live metrics (additive within v1): one snapshot per generation while
    // a metrics registry is attached. `seq` is a monotonic snapshot
    // sequence number (not wall time); `counters` holds the deterministic
    // engine counters. Older traces also carry an optional `runtime` object,
    // the former registry's dump (latency histograms, gauges, sim
    // counters), stripped by `strip_timing` because it is schedule-dependent.
    (
        "metrics-snapshot",
        &[
            ("seq", FieldKind::UInt),
            ("gen", FieldKind::UInt),
            ("counters", FieldKind::Obj),
        ],
    ),
];

/// The `eval` outcome label for a successful evaluation; any other label is
/// a quarantine error class.
pub const OUTCOME_SCORE: &str = "score";

/// A schema violation (or JSON parse failure) at a specific line.
#[derive(Clone, Debug)]
pub struct SchemaError {
    /// 1-based line number in the trace file.
    pub line: usize,
    /// What is wrong with the line.
    pub message: String,
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SchemaError {}

/// Summary of a validated trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total events (lines).
    pub events: usize,
    /// `(type, count)` in first-seen order.
    pub by_type: Vec<(String, usize)>,
}

/// Validate one line against `run-trace.v1`. `lineno` is 1-based; the
/// first line must be the `trace-header`.
///
/// # Errors
/// Fails on malformed JSON, a non-object, a missing/unknown `type`, a
/// missing or mistyped required attribute, or a bad header.
pub fn validate_line(lineno: usize, line: &str) -> Result<String, SchemaError> {
    let err = |message: String| SchemaError {
        line: lineno,
        message,
    };
    let v = json::parse(line).map_err(|e| err(format!("invalid JSON: {e}")))?;
    if v.as_obj().is_none() {
        return Err(err("event is not a JSON object".to_string()));
    }
    let ty = v
        .get("type")
        .and_then(Value::as_str)
        .ok_or_else(|| err("missing string field \"type\"".to_string()))?;
    if v.get("ts").and_then(Value::as_u64).is_none() {
        return Err(err(format!(
            "event {ty:?} lacks the unsigned-integer field \"ts\""
        )));
    }
    let Some((_, required)) = EVENT_TYPES.iter().find(|(name, _)| *name == ty) else {
        return Err(err(format!(
            "unknown event type {ty:?} (schema drift? bump {SCHEMA_VERSION})"
        )));
    };
    for (key, kind) in *required {
        match v.get(key) {
            None => return Err(err(format!("event {ty:?} lacks required field {key:?}"))),
            Some(val) if !kind.matches(val) => {
                return Err(err(format!("event {ty:?} field {key:?} is not a {kind:?}")))
            }
            Some(_) => {}
        }
    }
    // Conditional contracts.
    if ty == "trace-header" {
        if lineno != 1 {
            return Err(err("trace-header must be the first line".to_string()));
        }
        let schema = v.get("schema").and_then(Value::as_str).unwrap_or("");
        if schema != SCHEMA_VERSION {
            return Err(err(format!(
                "unsupported schema {schema:?} (this validator reads {SCHEMA_VERSION})"
            )));
        }
    } else if lineno == 1 {
        return Err(err(format!(
            "first line must be the trace-header, found {ty:?}"
        )));
    }
    if ty == "eval"
        && v.get("outcome").and_then(Value::as_str) == Some(OUTCOME_SCORE)
        && !matches!(v.get("score"), Some(Value::UInt(_) | Value::Num(_)))
    {
        return Err(err(
            "eval with outcome \"score\" lacks a numeric \"score\"".to_string()
        ));
    }
    // Sim events may carry the executing tier (additive within v1); when
    // present it must be one of the known tier names.
    if ty == "sim" {
        if let Some(tier) = v.get("tier") {
            let known = matches!(tier.as_str(), Some("fast" | "reference"));
            if !known {
                return Err(err(
                    "sim \"tier\" must be \"fast\" or \"reference\"".to_string()
                ));
            }
        }
    }
    // `subset` entries must be case indices.
    if ty == "generation" {
        let subset = v.get("subset").and_then(Value::as_arr).unwrap_or(&[]);
        if subset.iter().any(|c| c.as_u64().is_none()) {
            return Err(err(
                "generation subset entries must be case indices".to_string()
            ));
        }
    }
    // Pareto-front snapshots: `size` counts the points, and every point is
    // an object carrying the genome (plan + expr strings) and an unsigned
    // objective vector.
    if ty == "pareto-front" {
        let size = v.get("size").and_then(Value::as_u64).unwrap_or(0);
        let points = v.get("points").and_then(Value::as_arr).unwrap_or(&[]);
        if points.len() as u64 != size {
            return Err(err(format!(
                "pareto-front size {size} disagrees with {} points",
                points.len()
            )));
        }
        for p in points {
            let well_formed = p.get("plan").and_then(Value::as_str).is_some()
                && p.get("expr").and_then(Value::as_str).is_some()
                && p.get("objectives")
                    .and_then(Value::as_arr)
                    .is_some_and(|os| !os.is_empty() && os.iter().all(|o| o.as_u64().is_some()));
            if !well_formed {
                return Err(err(
                    "pareto-front points must carry \"plan\", \"expr\", and an \
                     unsigned \"objectives\" vector"
                        .to_string(),
                ));
            }
        }
    }
    // Metrics snapshots: the deterministic `counters` object holds unsigned
    // counts only; an older trace's `runtime` registry dump must be an
    // object, and any histogram inside it must have well-formed log2
    // buckets.
    if ty == "metrics-snapshot" {
        let counters = v.get("counters").and_then(Value::as_obj).unwrap_or(&[]);
        if counters.iter().any(|(_, c)| c.as_u64().is_none()) {
            return Err(err(
                "metrics-snapshot counters must be unsigned integers".to_string()
            ));
        }
        if let Some(runtime) = v.get("runtime") {
            let Some(metrics) = runtime.as_obj() else {
                return Err(err(
                    "metrics-snapshot \"runtime\" must be an object".to_string()
                ));
            };
            for (name, metric) in metrics {
                if let Some(buckets) = metric.get("buckets") {
                    validate_histogram(name, metric, buckets).map_err(err)?;
                }
            }
        }
    }
    Ok(ty.to_string())
}

/// Log₂ buckets of a `runtime` histogram dump: bucket `i` counted the
/// values of bit length `i`, so indices run from 0 to 64.
const RUNTIME_BUCKETS: u64 = 65;

/// Check one `runtime` histogram dump: `count`/`sum` unsigned, `buckets`
/// an array of `[bucket index, count]` pairs with indices inside the log2
/// bucket range.
fn validate_histogram(name: &str, metric: &Value, buckets: &Value) -> Result<(), String> {
    for key in ["count", "sum"] {
        if metric.get(key).and_then(Value::as_u64).is_none() {
            return Err(format!("histogram {name:?} lacks unsigned field {key:?}"));
        }
    }
    let Some(pairs) = buckets.as_arr() else {
        return Err(format!("histogram {name:?} buckets must be an array"));
    };
    for pair in pairs {
        let ok = matches!(pair.as_arr(), Some([index, count])
            if index.as_u64().is_some_and(|i| i < RUNTIME_BUCKETS) && count.as_u64().is_some());
        if !ok {
            return Err(format!(
                "histogram {name:?} buckets must be [index < {RUNTIME_BUCKETS}, count] pairs"
            ));
        }
    }
    Ok(())
}

/// Validate a whole JSONL trace.
///
/// # Errors
/// Returns the first offending line's [`SchemaError`]. An empty input is an
/// error (a trace always has its header).
pub fn validate_trace(text: &str) -> Result<TraceSummary, SchemaError> {
    let mut summary = TraceSummary::default();
    let mut any = false;
    for (ix, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        any = true;
        let ty = validate_line(ix + 1, line)?;
        summary.events += 1;
        match summary.by_type.iter_mut().find(|(t, _)| *t == ty) {
            Some((_, n)) => *n += 1,
            None => summary.by_type.push((ty, 1)),
        }
    }
    if !any {
        return Err(SchemaError {
            line: 1,
            message: "empty trace (missing trace-header)".to_string(),
        });
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tracer;

    fn smoke_trace() -> String {
        let t = Tracer::in_memory();
        t.emit(
            "evolution-start",
            [
                ("population", Value::UInt(8)),
                ("generations", Value::UInt(2)),
                ("start_gen", Value::UInt(0)),
                ("threads", Value::UInt(1)),
                ("resumed", Value::Bool(false)),
            ],
        );
        t.emit(
            "eval",
            [
                ("gen", Value::UInt(0)),
                ("genome", Value::str("(mul 2.0 x)")),
                ("case", Value::UInt(0)),
                ("outcome", Value::str(OUTCOME_SCORE)),
                ("score", Value::Num(1.25)),
                ("dur_ns", Value::UInt(1000)),
            ],
        );
        t.emit(
            "generation",
            [
                ("gen", Value::UInt(0)),
                ("subset", Value::Arr(vec![Value::UInt(0)])),
                ("evals", Value::UInt(1)),
                ("cache_hits", Value::UInt(0)),
                ("best_fitness", Value::Num(1.25)),
                ("mean_fitness", Value::Num(1.25)),
                ("best_size", Value::UInt(3)),
                ("dur_ns", Value::UInt(2000)),
            ],
        );
        t.lines().unwrap().join("\n")
    }

    #[test]
    fn well_formed_trace_validates() {
        let summary = validate_trace(&smoke_trace()).unwrap();
        assert_eq!(summary.events, 4);
        assert_eq!(summary.by_type[0], ("trace-header".to_string(), 1));
    }

    #[test]
    fn header_must_come_first_and_match_version() {
        let trace = smoke_trace();
        let mut lines: Vec<&str> = trace.lines().collect();
        lines.swap(0, 1);
        let err = validate_trace(&lines.join("\n")).unwrap_err();
        assert!(err.message.contains("trace-header"), "{err}");

        let other = trace.replace("run-trace.v1", "run-trace.v0");
        let err = validate_trace(&other).unwrap_err();
        assert!(err.message.contains("unsupported schema"), "{err}");
    }

    #[test]
    fn unknown_types_and_missing_fields_are_rejected() {
        let header = smoke_trace().lines().next().unwrap().to_string();
        let bad_type = format!("{header}\n{{\"type\":\"mystery\",\"ts\":1}}");
        assert!(validate_trace(&bad_type)
            .unwrap_err()
            .message
            .contains("unknown event type"));

        let missing = format!("{header}\n{{\"type\":\"checkpoint\",\"ts\":1,\"gen\":0}}");
        assert!(validate_trace(&missing)
            .unwrap_err()
            .message
            .contains("dur_ns"));

        let mistyped =
            format!("{header}\n{{\"type\":\"checkpoint\",\"ts\":1,\"gen\":\"x\",\"dur_ns\":0}}");
        assert!(validate_trace(&mistyped)
            .unwrap_err()
            .message
            .contains("not a UInt"));
    }

    #[test]
    fn scored_eval_requires_a_score() {
        let header = smoke_trace().lines().next().unwrap().to_string();
        let bad = format!(
            "{header}\n{{\"type\":\"eval\",\"ts\":1,\"gen\":0,\"genome\":\"g\",\"case\":0,\
             \"outcome\":\"score\",\"dur_ns\":1}}"
        );
        assert!(validate_trace(&bad)
            .unwrap_err()
            .message
            .contains("lacks a numeric"));
        // A failed eval needs no score.
        let ok = format!(
            "{header}\n{{\"type\":\"eval\",\"ts\":1,\"gen\":0,\"genome\":\"g\",\"case\":0,\
             \"outcome\":\"budget\",\"dur_ns\":1}}"
        );
        validate_trace(&ok).unwrap();
    }

    #[test]
    fn empty_and_garbage_traces_are_rejected() {
        assert!(validate_trace("").is_err());
        assert!(validate_trace("not json").is_err());
    }

    #[test]
    fn sim_tier_attribute_is_optional_but_typed() {
        let header = smoke_trace().lines().next().unwrap().to_string();
        let sim = |tier: &str| {
            format!(
                "{header}\n{{\"type\":\"sim\",\"ts\":1,\"cycles\":10,\"insts\":4,\
                 \"dur_ns\":100{tier}}}"
            )
        };
        // Tier-less sim events stay valid (pre-tier traces).
        validate_trace(&sim("")).unwrap();
        // Both tier names validate.
        validate_trace(&sim(",\"tier\":\"fast\"")).unwrap();
        validate_trace(&sim(",\"tier\":\"reference\"")).unwrap();
        // Unknown tier names and non-strings are rejected.
        assert!(validate_trace(&sim(",\"tier\":\"jit\""))
            .unwrap_err()
            .message
            .contains("tier"));
        assert!(validate_trace(&sim(",\"tier\":3"))
            .unwrap_err()
            .message
            .contains("tier"));
    }

    fn front_line(size: u64, points: &str) -> String {
        let header = smoke_trace().lines().next().unwrap().to_string();
        format!(
            "{header}\n{{\"type\":\"pareto-front\",\"ts\":3,\"gen\":1,\"size\":{size},\
             \"hypervolume\":1200,\"points\":[{points}]}}"
        )
    }

    #[test]
    fn pareto_front_events_validate() {
        let point = "{\"plan\":\"regalloc,schedule\",\"expr\":\"(mul 2.0 x)\",\
                     \"objectives\":[120,34,68]}";
        validate_trace(&front_line(1, point)).unwrap();
        // An empty front is legal (size 0, no points).
        validate_trace(&front_line(0, "")).unwrap();
    }

    #[test]
    fn malformed_pareto_fronts_are_rejected() {
        // Size must agree with the point count.
        let point = "{\"plan\":\"p\",\"expr\":\"e\",\"objectives\":[1]}";
        assert!(validate_trace(&front_line(2, point))
            .unwrap_err()
            .message
            .contains("disagrees"));
        // Points must carry plan, expr, and unsigned objectives.
        let no_plan = "{\"expr\":\"e\",\"objectives\":[1]}";
        assert!(validate_trace(&front_line(1, no_plan))
            .unwrap_err()
            .message
            .contains("plan"));
        let bad_obj = "{\"plan\":\"p\",\"expr\":\"e\",\"objectives\":[-4]}";
        assert!(validate_trace(&front_line(1, bad_obj))
            .unwrap_err()
            .message
            .contains("objectives"));
        let empty_obj = "{\"plan\":\"p\",\"expr\":\"e\",\"objectives\":[]}";
        assert!(validate_trace(&front_line(1, empty_obj)).is_err());
    }

    fn snapshot_line(counters: &str, runtime: &str) -> String {
        let header = smoke_trace().lines().next().unwrap().to_string();
        format!(
            "{header}\n{{\"type\":\"metrics-snapshot\",\"ts\":9,\"seq\":0,\"gen\":1,\
             \"counters\":{counters}{runtime}}}"
        )
    }

    #[test]
    fn metrics_snapshots_validate_and_tolerate_unknown_attrs() {
        // A full snapshot with a runtime histogram dump.
        let ok = snapshot_line(
            "{\"evaluations\":12,\"cache_hits\":3}",
            ",\"runtime\":{\"metaopt_evaluations_total\":12,\
             \"metaopt_eval_latency_ns\":{\"count\":12,\"sum\":480,\"buckets\":[[5,9],[6,3]]}}",
        );
        validate_trace(&ok).unwrap();
        // `runtime` is optional (emission may dump counters only).
        validate_trace(&snapshot_line("{\"evaluations\":0}", "")).unwrap();
        // Unknown extra attributes are tolerated (additive-within-v1).
        let extra = snapshot_line("{\"evaluations\":1}", ",\"experimental_zzz\":\"yes\"");
        validate_trace(&extra).unwrap();
    }

    #[test]
    fn malformed_metrics_snapshots_are_rejected() {
        // Missing required field.
        let header = smoke_trace().lines().next().unwrap().to_string();
        let missing =
            format!("{header}\n{{\"type\":\"metrics-snapshot\",\"ts\":1,\"seq\":0,\"gen\":0}}");
        assert!(validate_trace(&missing)
            .unwrap_err()
            .message
            .contains("counters"));
        // Counters must be unsigned integers.
        let signed = snapshot_line("{\"evaluations\":-3}", "");
        assert!(validate_trace(&signed)
            .unwrap_err()
            .message
            .contains("unsigned"));
        // Runtime must be an object.
        let bad_runtime = snapshot_line("{}", ",\"runtime\":[1,2]");
        assert!(validate_trace(&bad_runtime)
            .unwrap_err()
            .message
            .contains("must be an object"));
        // Histogram buckets must be [index, count] pairs...
        let bad_pair = snapshot_line(
            "{}",
            ",\"runtime\":{\"h\":{\"count\":1,\"sum\":2,\"buckets\":[[5]]}}",
        );
        assert!(validate_trace(&bad_pair)
            .unwrap_err()
            .message
            .contains("pairs"));
        // ...with in-range indices...
        let bad_index = snapshot_line(
            "{}",
            ",\"runtime\":{\"h\":{\"count\":1,\"sum\":2,\"buckets\":[[99,1]]}}",
        );
        assert!(validate_trace(&bad_index)
            .unwrap_err()
            .message
            .contains("pairs"));
        // ...and count/sum alongside them.
        let no_count = snapshot_line("{}", ",\"runtime\":{\"h\":{\"buckets\":[[5,1]]}}");
        assert!(validate_trace(&no_count)
            .unwrap_err()
            .message
            .contains("count"));
    }
}
