//! Every `run-trace.v1` event type survives the trip through a trace line.
//! One value of each [`Event`] variant, with each optional attribute both
//! present and absent, is emitted through an in-memory tracer carrying a
//! metrics registry. The lines must validate, each must read back as the
//! value emitted, and the registry's live digest must equal the digest
//! `analyze` builds from the lines: the live path and the file path agree
//! on every type.

use metaopt_trace::json;
use metaopt_trace::metrics::MetricsRegistry;
use metaopt_trace::report::{analyze, Report};
use metaopt_trace::schema::{validate_trace, OUTCOME_SCORE};
use metaopt_trace::{Event, FrontPoint, Tracer, SCHEMA_VERSION};

/// The variant's place in declaration order. There is no wildcard arm, so
/// a new event type does not compile here until [`every_event`] holds it.
fn variant(event: &Event) -> usize {
    match event {
        Event::TraceHeader { .. } => 0,
        Event::RunStart { .. } => 1,
        Event::RunEnd { .. } => 2,
        Event::EvolutionStart { .. } => 3,
        Event::EvolutionEnd { .. } => 4,
        Event::Generation { .. } => 5,
        Event::Eval { .. } => 6,
        Event::Pass { .. } => 7,
        Event::Sim { .. } => 8,
        Event::Validate { .. } => 9,
        Event::Checkpoint { .. } => 10,
        Event::Retry { .. } => 11,
        Event::Timeout { .. } => 12,
        Event::WorkerRestart { .. } => 13,
        Event::CacheRecovered { .. } => 14,
        Event::ParetoFront { .. } => 15,
        Event::MetricsSnapshot { .. } => 16,
    }
}

/// One value of every variant after the header, which the tracer writes
/// itself; `eval` and `sim` once with every optional attribute and once
/// with none.
fn every_event() -> Vec<Event> {
    let genome = "(mul r2 (rconst 0.25))".to_string();
    vec![
        Event::RunStart {
            command: "specialize hyperblock \"unepic\"".to_string(),
        },
        Event::EvolutionStart {
            population: 6,
            generations: 2,
            start_gen: 1,
            threads: 2,
            resumed: true,
        },
        Event::Pass {
            pass: "hyperblock".to_string(),
            wall_ns: 41_732,
            delta: vec![
                ("hyperblocks".to_string(), 2),
                ("paths_merged".to_string(), 4),
            ],
        },
        Event::Validate {
            pass: "hyperblock".to_string(),
            level: "full".to_string(),
            ok: false,
            findings: 3,
            wall_ns: 997_576,
        },
        Event::Sim {
            cycles: 950_899,
            insts: 786_810,
            dur_ns: 2_782_932,
            tier: Some("reference".to_string()),
        },
        Event::Sim {
            cycles: u64::MAX,
            insts: 0,
            dur_ns: 0,
            tier: None,
        },
        Event::Retry {
            gen: 1,
            genome: genome.clone(),
            case: 2,
            attempt: 0,
            kind: "timeout".to_string(),
            backoff_ns: 65_536,
        },
        Event::Eval {
            gen: 1,
            genome: genome.clone(),
            case: 2,
            outcome: OUTCOME_SCORE.to_string(),
            score: Some(1.0576132328030616),
            objectives: Some(vec![428_677, 166, 498]),
            warm: Some(true),
            dur_ns: 4_714_277,
        },
        Event::Eval {
            gen: 1,
            genome: "(sqrt r10)".to_string(),
            case: 0,
            outcome: "budget".to_string(),
            score: None,
            objectives: None,
            warm: None,
            dur_ns: 514_277,
        },
        Event::Timeout {
            genome: genome.clone(),
            case: 1,
            wall_ns: 5_000_000,
        },
        Event::WorkerRestart {
            worker: 1,
            restarts: 3,
            reason: "worker thread died".to_string(),
        },
        Event::CacheRecovered {
            mode: "recovered".to_string(),
            entries: 4,
            dropped_bytes: 12,
        },
        Event::Generation {
            gen: 1,
            subset: vec![0, 2, 5],
            evals: 4,
            cache_hits: 7,
            best_fitness: 1.0576132328030616,
            mean_fitness: 0.25,
            best_size: 5,
            dur_ns: 18_145_412,
        },
        Event::ParetoFront {
            gen: 1,
            size: 2,
            hypervolume: 53_048,
            points: vec![
                FrontPoint {
                    plan: "hyperblock,regalloc,schedule".to_string(),
                    expr: genome.clone(),
                    objectives: vec![428_677, 166, 498],
                },
                FrontPoint {
                    plan: "regalloc,schedule".to_string(),
                    expr: "(rconst 0.25)".to_string(),
                    objectives: vec![436_210, 172, 344],
                },
            ],
        },
        Event::MetricsSnapshot {
            seq: 1,
            gen: 1,
            counters: vec![
                ("evaluations".to_string(), 5),
                ("cache_hits".to_string(), 3),
            ],
        },
        Event::Checkpoint {
            gen: 2,
            dur_ns: 104_471,
        },
        Event::EvolutionEnd {
            evaluations: 5,
            successes: 4,
            failures: 1,
            quarantined: 1,
            best_fitness: 1.0576132328030616,
            best: genome,
            dur_ns: 20_247_570,
        },
        Event::RunEnd {
            command: "specialize hyperblock \"unepic\"".to_string(),
            dur_ns: 37_332_386,
        },
    ]
}

#[test]
fn every_event_type_round_trips_through_its_line() {
    let header = Event::TraceHeader {
        schema: SCHEMA_VERSION.to_string(),
        producer: "metaopt".to_string(),
    };
    let events = every_event();
    let mut seen: Vec<usize> = std::iter::once(&header)
        .chain(&events)
        .map(variant)
        .collect();
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen, (0..17).collect::<Vec<_>>(), "a variant is missing");

    let registry = MetricsRegistry::new();
    let tracer = Tracer::in_memory().with_metrics(registry.clone());
    for event in &events {
        tracer.emit(event.clone());
    }
    let lines = tracer.lines().expect("an in-memory tracer keeps its lines");
    let text = lines.join("\n");
    let summary = validate_trace(&text).unwrap();
    assert_eq!(summary.events, events.len() + 1);

    assert_eq!(lines.len(), events.len() + 1);
    for (line, emitted) in lines.iter().zip(std::iter::once(&header).chain(&events)) {
        let read = Event::from_value(&json::parse(line).unwrap());
        assert_eq!(read.as_ref(), Ok(emitted), "{line}");
    }

    // The trace-header line is written before the registry is attached, so
    // the live digest counts one event fewer and is otherwise the file's.
    let file = analyze(&text).unwrap();
    let live = registry.report();
    assert_eq!(live.events + 1, file.events);
    assert_eq!(
        Report {
            events: file.events,
            ..live
        },
        file
    );
}
