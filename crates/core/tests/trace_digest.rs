//! One digest of a run trace. `metaopt top` folds a trace into
//! `metaopt_trace::report::Report` one line at a time, as it tails a file
//! still being written; `metaopt trace-report` builds the same `Report`
//! after strict schema validation. On real traced runs, a scalar
//! specialization and a co-evolved one, the two must be equal, and a torn
//! last line must change nothing.

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
