//! The `run-trace.v1` schema: JSONL validation of the [`Event`]
//! vocabulary, plus the contracts between attributes that a type alone
//! does not state.
//!
//! Versioning policy (see DESIGN.md §12): a trace's first line is a
//! `trace-header` event naming its schema. Within `v1`, *adding* event
//! types or optional attributes is allowed; removing or re-typing a
//! required attribute, or changing an event's meaning, requires bumping to
//! `run-trace.v2`. The validator is therefore strict about required fields
//! and known types, but tolerates unknown extra attributes (forward
//! compatibility within the version).

use crate::json::{self, Value};
use crate::{Event, SCHEMA_VERSION};
use std::fmt;

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

/// Validate one line against `run-trace.v1` and return its event.
/// `lineno` is 1-based; the first line must be the `trace-header`.
///
/// # Errors
/// Fails on malformed JSON, a line [`Event::from_value`] rejects, a
/// missing `ts`, or a broken contract between attributes.
pub fn validate_line(lineno: usize, line: &str) -> Result<Event, SchemaError> {
    let err = |message: String| SchemaError {
        line: lineno,
        message,
    };
    let v = json::parse(line).map_err(|e| err(format!("invalid JSON: {e}")))?;
    let event = Event::from_value(&v).map_err(err)?;
    let ty = event.name();
    if v.get("ts").and_then(Value::as_u64).is_none() {
        return Err(err(format!(
            "event {ty:?} lacks the unsigned-integer field \"ts\""
        )));
    }
    match &event {
        Event::TraceHeader { .. } if lineno != 1 => {
            Err("trace-header must be the first line".to_string())
        }
        Event::TraceHeader { schema, .. } if schema != SCHEMA_VERSION => Err(format!(
            "unsupported schema {schema:?} (this validator reads {SCHEMA_VERSION})"
        )),
        Event::TraceHeader { .. } => Ok(()),
        _ if lineno == 1 => Err(format!("first line must be the trace-header, found {ty:?}")),
        // `null`, a non-finite score, reads as NaN.
        Event::Eval { outcome, score, .. }
            if outcome == OUTCOME_SCORE && !score.is_some_and(|s| !s.is_nan()) =>
        {
            Err("eval with outcome \"score\" lacks a numeric \"score\"".to_string())
        }
        Event::Sim {
            tier: Some(tier), ..
        } if !matches!(tier.as_str(), "fast" | "reference") => {
            Err("sim \"tier\" must be \"fast\" or \"reference\"".to_string())
        }
        Event::ParetoFront { size, points, .. } if points.len() as u64 != *size => Err(format!(
            "pareto-front size {size} disagrees with {} points",
            points.len()
        )),
        // An older trace's `runtime` registry dump must be an object, and
        // any histogram inside it must have well-formed log2 buckets.
        Event::MetricsSnapshot { .. } => match v.get("runtime").map(Value::as_obj) {
            None => Ok(()),
            Some(None) => Err("metrics-snapshot \"runtime\" must be an object".to_string()),
            Some(Some(metrics)) => metrics.iter().try_for_each(|(name, metric)| {
                metric
                    .get("buckets")
                    .map_or(Ok(()), |buckets| validate_histogram(name, metric, buckets))
            }),
        },
        _ => Ok(()),
    }
    .map_err(err)?;
    Ok(event)
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
        let ty = validate_line(ix + 1, line)?.name();
        summary.events += 1;
        match summary.by_type.iter_mut().find(|(t, _)| t == ty) {
            Some((_, n)) => *n += 1,
            None => summary.by_type.push((ty.to_string(), 1)),
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
        t.emit(Event::EvolutionStart {
            population: 8,
            generations: 2,
            start_gen: 0,
            threads: 1,
            resumed: false,
        });
        t.emit(Event::Eval {
            gen: 0,
            genome: "(mul 2.0 x)".to_string(),
            case: 0,
            outcome: OUTCOME_SCORE.to_string(),
            score: Some(1.25),
            objectives: None,
            warm: None,
            dur_ns: 1000,
        });
        t.emit(Event::Generation {
            gen: 0,
            subset: vec![0],
            evals: 1,
            cache_hits: 0,
            best_fitness: 1.25,
            mean_fitness: 1.25,
            best_size: 3,
            dur_ns: 2000,
        });
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
