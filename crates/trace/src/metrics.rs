//! Live run metrics: the trace's own digest, kept current while the run
//! is in flight.
//!
//! A [`MetricsRegistry`] is a shared handle on one [`Report`], the digest
//! that `metaopt top` and `metaopt trace-report` build from a trace file.
//! A [`crate::Tracer`] carrying a registry folds every event it emits into
//! that report, through the same fold [`Report::push_line`] uses, so the
//! live figures are the file's figures: instrumented code records each
//! measurement once, as a trace event, and nothing else. The registry
//! needs no trace sink; `--metrics-addr` without `--trace-out` folds the
//! events and writes none.
//!
//! [`render`] states the digest in Prometheus text exposition format
//! (version 0.0.4), served on `GET /metrics` by [`crate::serve`]. Its
//! memory is the digest's: one `u64` per evaluation for the exact latency
//! quantiles, plus one row per generation and per pass. Nothing in the
//! search reads a metric back, so a run with a registry attached is
//! bit-identical to one without.

use crate::json::Value;
use crate::report::Report;
use std::fmt::Write;
use std::sync::{Arc, Mutex, MutexGuard};

/// A cheap, cloneable handle onto one live [`Report`]. Clones share it.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    report: Arc<Mutex<Report>>,
}

impl MetricsRegistry {
    /// A fresh registry holding an empty digest.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// A copy of the digest as it stands. The lock is held only for the
    /// copy, so a scrape never stalls the run while it formats.
    pub fn report(&self) -> Report {
        self.lock().clone()
    }

    /// Fold one emitted event into the digest.
    pub(crate) fn fold(&self, event: &Value) {
        self.lock().fold(event);
    }

    fn lock(&self) -> MutexGuard<'_, Report> {
        self.report
            .lock()
            .expect("the digest fold saturates and never panics, so no holder poisons the lock")
    }
}

/// Render `report` in Prometheus text exposition format 0.0.4: one
/// `# TYPE` line per family, then its samples.
///
/// - Counters: evaluations (`eval` events), successes, failures (`eval`
///   events with a failure outcome), warm hits, retries, cache hits inside
///   generations, simulator runs, their cycles and their wall time.
/// - Gauges: the latest evolution's population, generations and threads,
///   and the index of the last finished generation.
/// - Summaries: evaluation latency, with exact nearest-rank quantiles
///   behind [`Report::eval_latency_ns`]'s tail rule; generation and
///   per-pass wall time, with `_sum` and `_count` only.
pub fn render(report: &Report) -> String {
    let evaluations = report.eval_ns.len() as u64;
    let failures: u64 = report.quarantine.iter().map(|(_, n)| n).sum();
    let r = &report.reliability;
    let mut out = String::new();
    for (name, value) in [
        ("metaopt_evaluations_total", evaluations),
        (
            "metaopt_eval_success_total",
            evaluations.saturating_sub(failures),
        ),
        ("metaopt_eval_failure_total", failures),
        ("metaopt_warm_hits_total", r.warm_evals),
        ("metaopt_retries_total", r.retries),
        ("metaopt_cache_hits_total", report.total_hits),
        ("metaopt_sim_total", report.sims.0),
        ("metaopt_sim_cycles_total", report.sims.1),
        ("metaopt_sim_wall_ns_total", report.sim_ns),
    ] {
        let _ = write!(out, "# TYPE {name} counter\n{name} {value}\n");
    }
    let run = &report.run;
    let generation = report.generations.last().map_or(0, |g| g.gen);
    for (name, value) in [
        ("metaopt_population", run.population),
        ("metaopt_generations", run.generations),
        ("metaopt_threads", run.threads),
        ("metaopt_generation", generation),
    ] {
        let _ = write!(out, "# TYPE {name} gauge\n{name} {value}\n");
    }
    let latency = "metaopt_eval_latency_ns";
    let _ = writeln!(out, "# TYPE {latency} summary");
    for (p, ns) in report.eval_latency_ns() {
        let q = p as f64 / 100.0;
        let _ = writeln!(out, "{latency}{{quantile=\"{q}\"}} {ns}");
    }
    summary_totals(&mut out, latency, "", report.eval_ns_total(), evaluations);
    let gen_wall = "metaopt_gen_wall_ns";
    let _ = writeln!(out, "# TYPE {gen_wall} summary");
    let gens = report.generations.len() as u64;
    summary_totals(&mut out, gen_wall, "", report.gen_ns(), gens);
    let pass_wall = "metaopt_pass_wall_ns";
    let _ = writeln!(out, "# TYPE {pass_wall} summary");
    let mut passes: Vec<_> = report.passes.iter().collect();
    passes.sort_by(|a, b| a.pass.cmp(&b.pass));
    for p in passes {
        let label = format!("{{pass=\"{}\"}}", escape_label(&p.pass));
        summary_totals(&mut out, pass_wall, &label, p.total_ns, p.runs);
    }
    out
}

/// The `_sum` and `_count` lines of one summary member.
fn summary_totals(out: &mut String, family: &str, label: &str, sum: u64, count: u64) {
    let _ = write!(
        out,
        "{family}_sum{label} {sum}\n{family}_count{label} {count}\n"
    );
}

/// A label value as the exposition format quotes it: backslash, double
/// quote and newline escaped.
fn escape_label(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::OUTCOME_SCORE;
    use crate::Tracer;

    /// A registry-only tracer after `n` evaluations taking 1..=n
    /// microseconds, emitted slowest first.
    fn evaluated(n: u64) -> MetricsRegistry {
        let registry = MetricsRegistry::new();
        let t = Tracer::disabled().with_metrics(registry.clone());
        for i in 0..n {
            t.emit(
                "eval",
                [
                    ("gen", Value::UInt(0)),
                    ("genome", Value::str("g")),
                    ("case", Value::UInt(i)),
                    ("outcome", Value::str(OUTCOME_SCORE)),
                    ("score", Value::Num(1.0)),
                    ("dur_ns", Value::UInt((n - i) * 1000)),
                ],
            );
        }
        registry
    }

    /// The `metaopt_eval_latency_ns` sample lines of `text`.
    fn latency_lines(text: &str) -> Vec<&str> {
        text.lines()
            .filter(|l| l.starts_with("metaopt_eval_latency_ns"))
            .collect()
    }

    #[test]
    fn eval_latency_summary_is_exact_nearest_rank_behind_a_tail_rule() {
        // Rank ⌈p·n/100⌉, as `top` reports it: the median from one sample,
        // p90 from 100 and p99 from 1,000.
        let text = render(&evaluated(99).report());
        assert!(text.contains("# TYPE metaopt_eval_latency_ns summary\n"));
        assert_eq!(
            latency_lines(&text),
            [
                "metaopt_eval_latency_ns{quantile=\"0.5\"} 50000",
                "metaopt_eval_latency_ns_sum 4950000",
                "metaopt_eval_latency_ns_count 99",
            ]
        );
        let text = render(&evaluated(100).report());
        assert_eq!(
            latency_lines(&text)[..2],
            [
                "metaopt_eval_latency_ns{quantile=\"0.5\"} 50000",
                "metaopt_eval_latency_ns{quantile=\"0.9\"} 90000",
            ]
        );
        let text = render(&evaluated(999).report());
        assert_eq!(
            latency_lines(&text),
            [
                "metaopt_eval_latency_ns{quantile=\"0.5\"} 500000",
                "metaopt_eval_latency_ns{quantile=\"0.9\"} 900000",
                "metaopt_eval_latency_ns_sum 499500000",
                "metaopt_eval_latency_ns_count 999",
            ]
        );
        let text = render(&evaluated(1000).report());
        assert_eq!(
            latency_lines(&text)[..3],
            [
                "metaopt_eval_latency_ns{quantile=\"0.5\"} 500000",
                "metaopt_eval_latency_ns{quantile=\"0.9\"} 900000",
                "metaopt_eval_latency_ns{quantile=\"0.99\"} 990000",
            ]
        );
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let registry = MetricsRegistry::new();
        let t = Tracer::disabled().with_metrics(registry.clone());
        t.emit(
            "evolution-start",
            [
                ("population", Value::UInt(16)),
                ("generations", Value::UInt(12)),
                ("start_gen", Value::UInt(0)),
                ("threads", Value::UInt(2)),
                ("resumed", Value::Bool(false)),
            ],
        );
        for (outcome, warm) in [(OUTCOME_SCORE, true), ("budget", false)] {
            t.emit(
                "eval",
                [
                    ("gen", Value::UInt(0)),
                    ("genome", Value::str("g")),
                    ("case", Value::UInt(0)),
                    ("outcome", Value::str(outcome)),
                    ("dur_ns", Value::UInt(100)),
                    ("warm", Value::Bool(warm)),
                ],
            );
        }
        t.emit(
            "retry",
            [
                ("gen", Value::UInt(0)),
                ("genome", Value::str("g")),
                ("case", Value::UInt(0)),
                ("attempt", Value::UInt(0)),
                ("kind", Value::str("timeout")),
                ("backoff_ns", Value::UInt(5)),
            ],
        );
        for pass in ["schedule", "regalloc", "schedule", "odd\"na\\me"] {
            t.emit(
                "pass",
                [
                    ("pass", Value::str(pass)),
                    ("wall_ns", Value::UInt(7)),
                    ("delta", Value::Obj(vec![])),
                ],
            );
        }
        t.emit(
            "sim",
            [
                ("cycles", Value::UInt(900)),
                ("insts", Value::UInt(50)),
                ("dur_ns", Value::UInt(30)),
            ],
        );
        for gen in [0, 1] {
            t.emit(
                "generation",
                [
                    ("gen", Value::UInt(gen)),
                    ("subset", Value::Arr(vec![])),
                    ("evals", Value::UInt(1)),
                    ("cache_hits", Value::UInt(4)),
                    ("best_fitness", Value::Num(1.0)),
                    ("mean_fitness", Value::Num(1.0)),
                    ("best_size", Value::UInt(1)),
                    ("dur_ns", Value::UInt(1000)),
                ],
            );
        }
        let text = render(&registry.report());
        for needle in [
            "# TYPE metaopt_evaluations_total counter\nmetaopt_evaluations_total 2\n",
            "metaopt_eval_success_total 1\n",
            "metaopt_eval_failure_total 1\n",
            "metaopt_warm_hits_total 1\n",
            "metaopt_retries_total 1\n",
            "metaopt_cache_hits_total 8\n",
            "metaopt_sim_total 1\n",
            "metaopt_sim_cycles_total 900\n",
            "metaopt_sim_wall_ns_total 30\n",
            "# TYPE metaopt_population gauge\nmetaopt_population 16\n",
            "metaopt_generations 12\n",
            "metaopt_threads 2\n",
            "metaopt_generation 1\n",
            "# TYPE metaopt_gen_wall_ns summary\n\
             metaopt_gen_wall_ns_sum 2000\nmetaopt_gen_wall_ns_count 2\n",
            "# TYPE metaopt_pass_wall_ns summary\n\
             metaopt_pass_wall_ns_sum{pass=\"odd\\\"na\\\\me\"} 7\n",
            "metaopt_pass_wall_ns_sum{pass=\"regalloc\"} 7\n\
             metaopt_pass_wall_ns_count{pass=\"regalloc\"} 1\n\
             metaopt_pass_wall_ns_sum{pass=\"schedule\"} 14\n\
             metaopt_pass_wall_ns_count{pass=\"schedule\"} 2\n",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        // Every sample line belongs to a family typed above it.
        let mut typed = Vec::new();
        for line in text.lines() {
            match line.strip_prefix("# TYPE ") {
                Some(decl) => typed.push(decl.split(' ').next().unwrap().to_string()),
                None => assert!(
                    typed.iter().any(|f| line.starts_with(f.as_str())),
                    "untyped sample {line:?}"
                ),
            }
        }
        assert_eq!(typed.len(), 16);
    }

    #[test]
    fn an_empty_digest_renders_zeros() {
        let text = render(&MetricsRegistry::new().report());
        assert!(text.contains("metaopt_evaluations_total 0\n"));
        assert!(text.contains("metaopt_eval_latency_ns_count 0\n"));
        assert!(!text.contains("quantile"));
    }
}
