//! One digest of a run trace. `metaopt top` folds a trace into
//! `metaopt_trace::report::Report` one line at a time, as it tails a file
//! still being written; `metaopt trace-report` builds the same `Report`
//! after strict schema validation. On real traced runs, a scalar
//! specialization and a co-evolved one, the two must be equal, and a torn
//! last line must change nothing. A tracer carrying a metrics registry
//! folds the same events live, so the registry's digest must be the
//! file's, with or without a sink.

use metaopt::experiment::{self, RunControl};
use metaopt::study;
use metaopt_gp::pareto::NUM_OBJECTIVES;
use metaopt_gp::GpParams;
use metaopt_trace::metrics::MetricsRegistry;
use metaopt_trace::report::{self, Report};
use metaopt_trace::{live, Tracer};

fn params(population: usize, generations: usize, seed: u64) -> GpParams {
    GpParams {
        population,
        generations,
        seed,
        threads: 2,
        ..GpParams::quick()
    }
}

fn traced() -> (Tracer, RunControl) {
    let tracer = Tracer::in_memory().with_metrics(MetricsRegistry::new());
    let control = RunControl {
        tracer: tracer.clone(),
        ..RunControl::default()
    };
    (tracer, control)
}

/// Fold `text` into a fresh digest line by line, the way `metaopt top` does.
fn fed(text: &str) -> Report {
    let mut report = Report::default();
    for line in text.lines() {
        report.push_line(line);
    }
    report
}

fn assert_one_digest(text: &str) -> Report {
    let whole = report::analyze(text).unwrap();
    assert_eq!(fed(text), whole);
    // Half of a line, as a tail of a file still being written may read it.
    let last = text.lines().last().unwrap();
    let half = last.char_indices().nth(last.chars().count() / 2).unwrap().0;
    assert_eq!(fed(&format!("{text}\n{}", &last[..half])), whole);
    assert!(!whole.eval_ns.is_empty() && whole.sims.0 > 0);
    let evals = text
        .lines()
        .filter(|l| l.starts_with("{\"type\":\"eval\","))
        .count();
    assert_eq!(whole.eval_ns.len(), evals);
    let frame = live::render(&whole);
    assert!(
        frame.contains(&format!("evals {} (", whole.total_evals)),
        "{frame}"
    );
    whole
}

#[test]
fn top_and_trace_report_digest_a_scalar_run_alike() {
    let (tracer, control) = traced();
    let cfg = study::hyperblock();
    let bench = metaopt_suite::by_name("unepic").unwrap();
    experiment::specialize_controlled(&cfg, &bench, &params(6, 2, 4), &control).unwrap();
    let whole = assert_one_digest(&tracer.lines().unwrap().join("\n"));
    assert_eq!(whole.generations.len(), 2);
    assert_eq!(whole.run.population, 6);
}

#[test]
fn top_and_trace_report_digest_a_co_evolved_run_alike() {
    let (tracer, control) = traced();
    let cfg = study::hyperblock();
    let bench = metaopt_suite::by_name("unepic").unwrap();
    experiment::co_evolve_controlled(
        &cfg,
        &bench,
        &params(6, 2, 7),
        [true; NUM_OBJECTIVES],
        &control,
    )
    .unwrap();
    let whole = assert_one_digest(&tracer.lines().unwrap().join("\n"));
    assert!(whole.front.is_some());
}

// The live digest: a tracer carrying a metrics registry folds each event
// it emits into the registry's `Report` through the same fold, so the
// registry holds the file's digest, and `/metrics` renders it.

/// An in-memory tracer carrying `registry`, and a run control around it.
fn metered(registry: &MetricsRegistry, sink: bool) -> (Tracer, RunControl) {
    let tracer = if sink {
        Tracer::in_memory()
    } else {
        Tracer::disabled()
    }
    .with_metrics(registry.clone());
    let control = RunControl {
        tracer: tracer.clone(),
        ..RunControl::default()
    };
    (tracer, control)
}

/// `report` with every wall-clock figure zeroed and the rows whose order
/// follows the clock or the thread schedule sorted by name.
fn untimed(report: &Report) -> Report {
    let mut r = report.clone();
    r.eval_ns.iter_mut().for_each(|ns| *ns = 0);
    r.generations.iter_mut().for_each(|g| g.dur_ns = 0);
    for p in &mut r.passes {
        (p.total_ns, p.max_ns) = (0, 0);
    }
    r.passes.sort_by(|a, b| a.pass.cmp(&b.pass));
    r.validation.iter_mut().for_each(|v| v.total_ns = 0);
    r.validation.sort_by(|a, b| a.pass.cmp(&b.pass));
    r.quarantine.sort();
    r.sim_ns = 0;
    r.checkpoints.1 = 0;
    r
}

/// The events of `lines` of type `ty`.
fn count(lines: &[String], ty: &str) -> u64 {
    let prefix = format!("{{\"type\":\"{ty}\",");
    lines.iter().filter(|l| l.starts_with(&prefix)).count() as u64
}

/// Check the live digest of a run traced into `registry` against the
/// tracer's own lines and the run's counters, and return it.
fn assert_live_digest(
    registry: &MetricsRegistry,
    tracer: &Tracer,
    evaluations: u64,
    successes: u64,
    warm_hits: u64,
) -> Report {
    let lines = tracer.lines().unwrap();
    let file = report::analyze(&lines.join("\n")).unwrap();
    let live = registry.report();
    // The trace-header line is written before the registry is attached.
    assert_eq!(live.events + 1, file.events);
    assert_eq!(
        Report {
            events: file.events,
            ..live.clone()
        },
        file
    );
    let text = metaopt_trace::metrics::render(&live);
    for (sample, value) in [
        ("metaopt_evaluations_total", evaluations),
        ("metaopt_eval_success_total", successes),
        ("metaopt_eval_failure_total", evaluations - successes),
        ("metaopt_warm_hits_total", warm_hits),
        ("metaopt_retries_total", count(&lines, "retry")),
        ("metaopt_sim_total", count(&lines, "sim")),
    ] {
        let line = format!("\n{sample} {value}\n");
        assert!(text.contains(&line), "missing {line:?} in:\n{text}");
    }
    assert!(live.sims.0 > 0 && !live.eval_ns.is_empty());
    live
}

#[test]
fn the_live_digest_is_the_file_digest_of_a_scalar_run() {
    let cfg = study::hyperblock();
    let bench = metaopt_suite::by_name("unepic").unwrap();
    let params = params(6, 2, 4);
    let registry = MetricsRegistry::new();
    let (tracer, control) = metered(&registry, true);
    let run = experiment::specialize_controlled(&cfg, &bench, &params, &control).unwrap();
    let live = assert_live_digest(
        &registry,
        &tracer,
        run.evaluations,
        run.successes,
        run.warm_hits,
    );

    // A registry alone folds the same events and writes no line.
    let alone = MetricsRegistry::new();
    let (tracer, control) = metered(&alone, false);
    let again = experiment::specialize_controlled(&cfg, &bench, &params, &control).unwrap();
    assert_eq!(tracer.lines(), None);
    assert_eq!(again.evaluations, run.evaluations);
    assert_eq!(untimed(&alone.report()), untimed(&live));
}

#[test]
fn the_live_digest_is_the_file_digest_of_a_co_evolved_run() {
    let cfg = study::hyperblock();
    let bench = metaopt_suite::by_name("unepic").unwrap();
    let params = params(6, 2, 7);
    let registry = MetricsRegistry::new();
    let (tracer, control) = metered(&registry, true);
    let run =
        experiment::co_evolve_controlled(&cfg, &bench, &params, [true; NUM_OBJECTIVES], &control)
            .unwrap();
    let live = assert_live_digest(
        &registry,
        &tracer,
        run.evaluations,
        run.successes,
        run.warm_hits,
    );
    assert!(live.front.is_some());

    let alone = MetricsRegistry::new();
    let (tracer, control) = metered(&alone, false);
    experiment::co_evolve_controlled(&cfg, &bench, &params, [true; NUM_OBJECTIVES], &control)
        .unwrap();
    assert_eq!(tracer.lines(), None);
    assert_eq!(untimed(&alone.report()), untimed(&live));
}

/// The CI smoke run behind `BENCH_evals.json`, traced at `threads`: its
/// digest as `trace-report --bench-json` writes it.
fn smoke_digest(threads: &str) -> metaopt_trace::json::Value {
    let trace = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("bench-smoke-threads-{threads}.jsonl"));
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_metaopt"))
        .args(["specialize", "hyperblock", "unepic", "--pop", "48"])
        .args(["--gens", "60", "--seed", "4", "--threads", threads])
        .args(["--sim-tier", "fast", "--trace-out"])
        .arg(&trace)
        .output()
        .expect("run metaopt");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&trace).unwrap();
    metaopt_trace::json::parse(&report::analyze(&text).unwrap().bench_json()).unwrap()
}

#[test]
fn the_gated_counts_are_exact_at_any_thread_count() {
    use metaopt_trace::json::Value;
    let committed = metaopt_trace::json::parse(include_str!("../../../BENCH_evals.json")).unwrap();
    let digests = [smoke_digest("1"), smoke_digest("2")];
    for key in ["total_evals", "sim_runs", "compiles", "sim_cycles"] {
        let want = committed.get(key).and_then(Value::as_u64);
        assert!(want.is_some(), "BENCH_evals.json lacks {key}");
        for (d, threads) in digests.iter().zip([1, 2]) {
            let got = d.get(key).and_then(Value::as_u64);
            assert_eq!(got, want, "{key} at --threads {threads}");
        }
    }
}
