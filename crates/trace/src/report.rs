//! The one digest of a `run-trace.v1` JSONL stream, [`Report`]:
//! per-generation evaluation throughput and cache behaviour, the slowest
//! compiler passes, simulation volume, exact evaluation latency, and
//! quarantine pressure. `metaopt trace-report` builds it from a finished
//! trace after strict validation ([`analyze`]); `metaopt top` folds a
//! still-growing trace into it line by line ([`Report::push_line`]) and
//! renders it with [`crate::live::render`]; a tracer carrying a
//! [`crate::metrics::MetricsRegistry`] folds each event it emits into one,
//! which `/metrics` renders. All three go through one fold, so the views
//! cannot disagree.
//!
//! Every figure a trace supplies is added with saturation: a schema-valid
//! trace may carry `u64::MAX` durations or cycle counts, and the digest
//! then reads `u64::MAX` rather than panicking or wrapping.

use crate::json::{self, Value};
use crate::schema::{validate_line, SchemaError, OUTCOME_SCORE};

/// One generation's aggregated row.
#[derive(Clone, Debug, PartialEq)]
pub struct GenRow {
    /// Generation index.
    pub gen: u64,
    /// Subset size evaluated this generation.
    pub subset_len: usize,
    /// Uncached evaluations performed.
    pub evals: u64,
    /// Memo-cache hits observed.
    pub cache_hits: u64,
    /// Best fitness this generation.
    pub best_fitness: f64,
    /// Mean population fitness.
    pub mean_fitness: f64,
    /// Wall time of the generation in nanoseconds.
    pub dur_ns: u64,
}

impl GenRow {
    /// Uncached evaluations per wall-clock second (0 when instantaneous).
    pub fn evals_per_sec(&self) -> f64 {
        if self.dur_ns == 0 {
            0.0
        } else {
            self.evals as f64 * 1e9 / self.dur_ns as f64
        }
    }

    /// Cache hit rate over this generation's lookups, in [0, 1].
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.cache_hits.saturating_add(self.evals);
        if lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / lookups as f64
        }
    }
}

/// One compiler pass's aggregated cost across every traced compilation.
#[derive(Clone, Debug, PartialEq)]
pub struct PassRow {
    /// Pass name (plan syntax).
    pub pass: String,
    /// Number of executions.
    pub runs: u64,
    /// Total wall nanoseconds across all executions.
    pub total_ns: u64,
    /// Slowest single execution.
    pub max_ns: u64,
}

/// One pass's aggregated semantic-validation cost and outcomes across every
/// traced compilation (`validate` events).
#[derive(Clone, Debug, PartialEq)]
pub struct ValidateRow {
    /// Pass name (plan syntax).
    pub pass: String,
    /// Number of validation runs.
    pub runs: u64,
    /// Runs whose validation failed (`ok: false`).
    pub failures: u64,
    /// Total findings (warnings and errors) across all runs.
    pub findings: u64,
    /// Total wall nanoseconds spent validating this pass.
    pub total_ns: u64,
}

/// Reliability counters: containment activity (`retry` events from the
/// evaluation core's bounded retries) plus persistent fitness-cache
/// behaviour (`cache-recovered` events and warm `eval`s). All zero on a
/// healthy run without a persistent cache.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Reliability {
    /// Transient evaluation failures that were retried.
    pub retries: u64,
    /// Store opens that recovered a truncated/corrupt tail.
    pub cache_recovered: u64,
    /// Store opens (or appends) that degraded to in-memory-only.
    pub cache_degraded: u64,
    /// Evaluations answered by the persistent fitness cache
    /// (`eval` events carrying `"warm": true`).
    pub warm_evals: u64,
}

impl Reliability {
    /// True when every counter is zero (nothing to report).
    pub fn is_quiet(&self) -> bool {
        *self == Reliability::default()
    }
}

/// Digest of a co-evolved run's `pareto-front` stream: the final front's
/// shape plus the per-objective bests across its points. All figures are
/// integers straight from the trace — nothing here can go NaN.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FrontDigest {
    /// Generation of the last front event (the final front).
    pub gen: u64,
    /// Points on the final front.
    pub size: u64,
    /// Saturating hypervolume proxy of the final front.
    pub hypervolume: u64,
    /// Per-objective minimum across the final front's points, in the
    /// emitter's canonical objective order (cycles, size, compile).
    pub best: Vec<u64>,
    /// Total `pareto-front` events seen (one per generation).
    pub events: u64,
}

/// What the run is and how far it got: the `run-start` command, the shape
/// of the latest `evolution-start`, and whether `run-end` arrived.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunInfo {
    /// The CLI command line, once `run-start` is seen.
    pub command: Option<String>,
    /// Population size of the latest evolution.
    pub population: u64,
    /// Generations the latest evolution runs to.
    pub generations: u64,
    /// Evaluation threads of the latest evolution.
    pub threads: u64,
    /// Whether the producing process wrote its `run-end` event.
    pub finished: bool,
}

/// Aggregated view of one trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Report {
    /// Total events.
    pub events: usize,
    /// The run's command, shape and state.
    pub run: RunInfo,
    /// Per-generation rows, in emission order.
    pub generations: Vec<GenRow>,
    /// Per-pass totals, sorted by total wall time (descending).
    pub passes: Vec<PassRow>,
    /// Per-pass semantic-validation totals, sorted by total wall time
    /// (descending).
    pub validation: Vec<ValidateRow>,
    /// Quarantine counts per error class, in first-seen order.
    pub quarantine: Vec<(String, u64)>,
    /// Number of simulator runs (`sim` events) and their total simulated,
    /// noise-free cycles. An evaluation whose program an evaluator had
    /// already simulated runs nothing, so runs can be fewer than
    /// evaluations.
    pub sims: (u64, u64),
    /// Total wall nanoseconds spent inside the simulator (`sim` events).
    pub sim_ns: u64,
    /// Number of checkpoint writes and their total wall nanoseconds.
    pub checkpoints: (u64, u64),
    /// Uncached evaluations across the whole trace.
    pub total_evals: u64,
    /// Cache hits across the whole trace.
    pub total_hits: u64,
    /// Every `eval` event's `dur_ns`, in emission order: the exact spans
    /// behind [`Report::eval_latency_ns`] and [`Report::eval_us_per_eval`].
    pub eval_ns: Vec<u64>,
    /// Containment and persistent-cache counters.
    pub reliability: Reliability,
    /// Final Pareto front of a co-evolved run; `None` on scalar traces
    /// (the digest then reports `front_size` 0 with a note).
    pub front: Option<FrontDigest>,
}

impl Report {
    /// Fold one JSONL event into the digest. A line that does not parse as
    /// JSON, or has no string `type`, is ignored: a live tail races the
    /// writer, so its last line may be torn. Attributes are read leniently
    /// (absent counts as 0); [`analyze`] validates every line first.
    pub fn push_line(&mut self, line: &str) {
        if let Ok(v) = json::parse(line) {
            self.fold(&v);
        }
    }

    /// Fold one event, parsed from a line or built by [`crate::Tracer`]'s
    /// emission, into the digest. An event without a string `type` is
    /// ignored.
    pub(crate) fn fold(&mut self, v: &Value) {
        let Some(ty) = v.get("type").and_then(Value::as_str) else {
            return;
        };
        self.events += 1;
        let u = |key: &str| v.get(key).and_then(Value::as_u64).unwrap_or(0);
        let f = |key: &str| v.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN);
        let pass = || v.get("pass").and_then(Value::as_str).unwrap_or("?");
        match ty {
            "run-start" => {
                self.run.command = v.get("command").and_then(Value::as_str).map(str::to_string);
            }
            "run-end" => self.run.finished = true,
            "evolution-start" => {
                self.run.population = u("population");
                self.run.generations = u("generations");
                self.run.threads = u("threads");
            }
            "generation" => {
                let row = GenRow {
                    gen: u("gen"),
                    subset_len: v
                        .get("subset")
                        .and_then(Value::as_arr)
                        .map_or(0, <[Value]>::len),
                    evals: u("evals"),
                    cache_hits: u("cache_hits"),
                    best_fitness: f("best_fitness"),
                    mean_fitness: f("mean_fitness"),
                    dur_ns: u("dur_ns"),
                };
                self.total_evals = self.total_evals.saturating_add(row.evals);
                self.total_hits = self.total_hits.saturating_add(row.cache_hits);
                self.generations.push(row);
            }
            "pass" => {
                let wall = u("wall_ns");
                match self.passes.iter_mut().find(|p| p.pass == pass()) {
                    Some(p) => {
                        p.runs += 1;
                        p.total_ns = p.total_ns.saturating_add(wall);
                        p.max_ns = p.max_ns.max(wall);
                    }
                    None => self.passes.push(PassRow {
                        pass: pass().to_string(),
                        runs: 1,
                        total_ns: wall,
                        max_ns: wall,
                    }),
                }
                self.passes
                    .sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.pass.cmp(&b.pass)));
            }
            "eval" => {
                let outcome = v.get("outcome").and_then(Value::as_str).unwrap_or("?");
                if outcome != OUTCOME_SCORE {
                    match self.quarantine.iter_mut().find(|(k, _)| k == outcome) {
                        Some((_, n)) => *n += 1,
                        None => self.quarantine.push((outcome.to_string(), 1)),
                    }
                }
                if matches!(v.get("warm"), Some(Value::Bool(true))) {
                    self.reliability.warm_evals += 1;
                }
                self.eval_ns.push(u("dur_ns"));
            }
            "retry" => self.reliability.retries += 1,
            "cache-recovered" => match v.get("mode").and_then(Value::as_str) {
                Some("recovered") => self.reliability.cache_recovered += 1,
                _ => self.reliability.cache_degraded += 1,
            },
            "sim" => {
                self.sims.0 += 1;
                self.sims.1 = self.sims.1.saturating_add(u("cycles"));
                self.sim_ns = self.sim_ns.saturating_add(u("dur_ns"));
            }
            "validate" => {
                let ok = matches!(v.get("ok"), Some(Value::Bool(true)));
                let wall = u("wall_ns");
                let found = u("findings");
                match self.validation.iter_mut().find(|r| r.pass == pass()) {
                    Some(r) => {
                        r.runs += 1;
                        r.failures += u64::from(!ok);
                        r.findings = r.findings.saturating_add(found);
                        r.total_ns = r.total_ns.saturating_add(wall);
                    }
                    None => self.validation.push(ValidateRow {
                        pass: pass().to_string(),
                        runs: 1,
                        failures: u64::from(!ok),
                        findings: found,
                        total_ns: wall,
                    }),
                }
                self.validation
                    .sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.pass.cmp(&b.pass)));
            }
            "checkpoint" => {
                self.checkpoints.0 += 1;
                self.checkpoints.1 = self.checkpoints.1.saturating_add(u("dur_ns"));
            }
            "pareto-front" => {
                // Keep the last event (the final front); the running count
                // carries over so the digest also says how many fronts the
                // run reported.
                let mut best: Vec<u64> = Vec::new();
                if let Some(points) = v.get("points").and_then(Value::as_arr) {
                    for point in points {
                        let objectives = point
                            .get("objectives")
                            .and_then(Value::as_arr)
                            .unwrap_or(&[]);
                        for (k, o) in objectives.iter().enumerate() {
                            let val = o.as_u64().unwrap_or(0);
                            match best.get_mut(k) {
                                Some(b) => *b = (*b).min(val),
                                None => best.push(val),
                            }
                        }
                    }
                }
                let events = self.front.as_ref().map_or(0, |f| f.events) + 1;
                self.front = Some(FrontDigest {
                    gen: u("gen"),
                    size: u("size"),
                    hypervolume: u("hypervolume"),
                    best,
                    events,
                });
            }
            _ => {}
        }
    }

    /// Overall cache hit rate in [0, 1].
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.total_hits.saturating_add(self.total_evals);
        if lookups == 0 {
            0.0
        } else {
            self.total_hits as f64 / lookups as f64
        }
    }

    /// Total wall nanoseconds of the `generation` events.
    pub(crate) fn gen_ns(&self) -> u64 {
        saturating_sum(self.generations.iter().map(|g| g.dur_ns))
    }

    /// Total `dur_ns` of the `eval` events.
    pub(crate) fn eval_ns_total(&self) -> u64 {
        saturating_sum(self.eval_ns.iter().copied())
    }

    /// Uncached evaluations per wall-clock second across the whole trace
    /// (0 when no generation time was recorded).
    pub fn evals_per_sec(&self) -> f64 {
        let gen_ns = self.gen_ns();
        if gen_ns == 0 {
            0.0
        } else {
            self.total_evals as f64 * 1e9 / gen_ns as f64
        }
    }

    /// Share of evaluations answered by the persistent fitness cache,
    /// in [0, 1]. Warm hits are counted as evaluations by the engine, so
    /// this is `warm_evals / total_evals`.
    pub fn warm_hit_rate(&self) -> f64 {
        if self.total_evals == 0 {
            0.0
        } else {
            self.reliability.warm_evals as f64 / self.total_evals as f64
        }
    }

    /// Warm (persistent-cache-served) evaluations per wall-clock second
    /// of generation time — the throughput headroom a warm rerun gains.
    pub fn warm_evals_per_sec(&self) -> f64 {
        let gen_ns = self.gen_ns();
        if gen_ns == 0 {
            0.0
        } else {
            self.reliability.warm_evals as f64 * 1e9 / gen_ns as f64
        }
    }

    /// Simulated cycles per wall-clock second spent in the simulator
    /// (0 when no simulator time was recorded).
    pub fn sim_cycles_per_sec(&self) -> f64 {
        if self.sim_ns == 0 {
            0.0
        } else {
            self.sims.1 as f64 * 1e9 / self.sim_ns as f64
        }
    }

    /// Exact nearest-rank quantiles of the `eval` events' `dur_ns`, as
    /// `(percentile, ns)` pairs: the median whenever the trace holds an
    /// evaluation, p90 from 100 samples and p99 from 1,000, so that at
    /// least ten samples lie beyond every tail reported. Empty without
    /// evaluations.
    pub fn eval_latency_ns(&self) -> Vec<(u64, u64)> {
        let mut sorted = self.eval_ns.clone();
        sorted.sort_unstable();
        let n = sorted.len() as u64;
        [(50, 1), (90, 100), (99, 1000)]
            .into_iter()
            .filter(|&(_, min_samples)| n >= min_samples)
            .map(|(p, _)| (p, sorted[((n * p).div_ceil(100) - 1) as usize]))
            .collect()
    }

    /// Mean evaluation latency in microseconds: the `eval` events' summed
    /// `dur_ns` over their count. Exact spans, not histogram buckets; 0
    /// when the trace holds no evaluation.
    pub fn eval_us_per_eval(&self) -> f64 {
        if self.eval_ns.is_empty() {
            0.0
        } else {
            self.eval_ns_total() as f64 / 1e3 / self.eval_ns.len() as f64
        }
    }

    /// Compiles in the trace: the runs of the `schedule` pass, which ends
    /// every compile exactly once.
    pub fn compiles(&self) -> u64 {
        self.passes
            .iter()
            .find(|p| p.pass == "schedule")
            .map_or(0, |p| p.runs)
    }

    /// Compiler pass wall time per compile in microseconds: the `pass`
    /// events' summed `wall_ns` over [`Report::compiles`]. Exact spans, not
    /// histogram buckets; 0 when the trace holds no compile.
    pub fn pass_us_per_compile(&self) -> f64 {
        let compiles = self.compiles();
        if compiles == 0 {
            0.0
        } else {
            let pass_ns = saturating_sum(self.passes.iter().map(|p| p.total_ns));
            pass_ns as f64 / 1e3 / compiles as f64
        }
    }

    /// Anomalies worth surfacing next to the digest: throughput figures
    /// that read 0 not because the run was slow but because the trace holds
    /// no evaluations, no recorded generation time, or no simulator time.
    pub fn notes(&self) -> Vec<String> {
        let mut notes = Vec::new();
        let gen_ns = self.gen_ns();
        if self.total_evals == 0 {
            notes.push("no evaluations recorded; evals/sec reported as 0".to_string());
        } else if gen_ns == 0 {
            notes.push(
                "no generation wall time recorded (instant trace); evals/sec reported as 0"
                    .to_string(),
            );
        }
        if self.sims.0 > 0 && self.sim_ns == 0 {
            notes.push(
                "simulations recorded no wall time; sim cycles/sec reported as 0".to_string(),
            );
        }
        if self.front.is_none() {
            notes.push(
                "no co-evolution (pareto-front) events; front_size reported as 0".to_string(),
            );
        }
        notes
    }

    /// The throughput digest consumed by `BENCH_evals.json` and the CI
    /// regression gate: evaluation throughput, cache behaviour, simulator
    /// speed and compile cost, rendered as a JSON object. Four keys are
    /// exact counts that do not depend on the clock or the thread schedule:
    /// `total_evals`, `sim_runs` (`sim` events), `compiles` (see
    /// [`Report::compiles`]) and `sim_cycles`.
    pub fn bench_json(&self) -> String {
        use crate::json::Value;
        Value::Obj(vec![
            (
                "evals_per_sec".to_string(),
                Value::Num(self.evals_per_sec()),
            ),
            ("cache_hit_rate".to_string(), Value::Num(self.hit_rate())),
            (
                "sim_cycles_per_sec".to_string(),
                Value::Num(self.sim_cycles_per_sec()),
            ),
            ("total_evals".to_string(), Value::UInt(self.total_evals)),
            ("sim_cycles".to_string(), Value::UInt(self.sims.1)),
            ("sim_runs".to_string(), Value::UInt(self.sims.0)),
            ("compiles".to_string(), Value::UInt(self.compiles())),
            (
                "warm_evals".to_string(),
                Value::UInt(self.reliability.warm_evals),
            ),
            (
                "warm_evals_per_sec".to_string(),
                Value::Num(self.warm_evals_per_sec()),
            ),
            (
                "eval_us_per_eval".to_string(),
                Value::Num(self.eval_us_per_eval()),
            ),
            (
                "pass_us_per_compile".to_string(),
                Value::Num(self.pass_us_per_compile()),
            ),
            (
                "front_size".to_string(),
                Value::UInt(self.front.as_ref().map_or(0, |f| f.size)),
            ),
        ])
        .to_string()
    }

    /// Render the report as aligned text tables (the `metaopt trace-report`
    /// output).
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} events · {} generations · cache hit rate {:.1}%\n",
            self.events,
            self.generations.len(),
            100.0 * self.hit_rate()
        );
        if !self.generations.is_empty() {
            out.push_str(&format!(
                "\n{:>4} {:>6} {:>6} {:>10} {:>6} {:>9} {:>9}\n",
                "gen", "subset", "evals", "evals/sec", "hit%", "best", "mean"
            ));
            for g in &self.generations {
                out.push_str(&format!(
                    "{:>4} {:>6} {:>6} {:>10.1} {:>6.1} {:>9.4} {:>9.4}\n",
                    g.gen,
                    g.subset_len,
                    g.evals,
                    g.evals_per_sec(),
                    100.0 * g.hit_rate(),
                    g.best_fitness,
                    g.mean_fitness,
                ));
            }
        }
        if !self.passes.is_empty() {
            out.push_str(&format!(
                "\n{:<12} {:>8} {:>12} {:>12} {:>12}\n",
                "pass", "runs", "total", "mean", "max"
            ));
            for p in self.passes.iter().take(10) {
                let mean = p.total_ns as f64 / p.runs.max(1) as f64;
                out.push_str(&format!(
                    "{:<12} {:>8} {:>10.1}us {:>10.1}us {:>10.1}us\n",
                    p.pass,
                    p.runs,
                    p.total_ns as f64 / 1e3,
                    mean / 1e3,
                    p.max_ns as f64 / 1e3,
                ));
            }
        }
        if !self.validation.is_empty() {
            let grand = saturating_sum(self.validation.iter().map(|r| r.total_ns));
            out.push_str(&format!(
                "\n{:<12} {:>8} {:>9} {:>9} {:>12} {:>7}\n",
                "validate", "runs", "failures", "findings", "total", "share"
            ));
            for r in &self.validation {
                let share = if grand == 0 {
                    0.0
                } else {
                    100.0 * r.total_ns as f64 / grand as f64
                };
                out.push_str(&format!(
                    "{:<12} {:>8} {:>9} {:>9} {:>10.1}us {:>6.1}%\n",
                    r.pass,
                    r.runs,
                    r.failures,
                    r.findings,
                    r.total_ns as f64 / 1e3,
                    share,
                ));
            }
        }
        if self.sims.0 > 0 {
            out.push_str(&format!(
                "\nsimulations: {} runs for {} evaluations, {} cycles total\n",
                self.sims.0, self.total_evals, self.sims.1
            ));
        }
        if self.checkpoints.0 > 0 {
            out.push_str(&format!(
                "checkpoints: {} writes, {:.1}ms total\n",
                self.checkpoints.0,
                self.checkpoints.1 as f64 / 1e6
            ));
        }
        if let Some(front) = &self.front {
            out.push_str(&format!(
                "pareto front: gen {}, {} point(s), hypervolume {}",
                front.gen, front.size, front.hypervolume
            ));
            if !front.best.is_empty() {
                const NAMES: [&str; 3] = ["cycles", "size", "compile"];
                let parts: Vec<String> = front
                    .best
                    .iter()
                    .enumerate()
                    .map(|(k, b)| match NAMES.get(k) {
                        Some(name) => format!("{name} {b}"),
                        None => format!("obj{k} {b}"),
                    })
                    .collect();
                out.push_str(&format!(", best {}", parts.join(" / ")));
            }
            out.push('\n');
        }
        if !self.reliability.is_quiet() {
            let r = &self.reliability;
            out.push_str(&format!(
                "reliability: {} retries, {} cache recoveries, {} cache degradations\n",
                r.retries, r.cache_recovered, r.cache_degraded
            ));
            if r.warm_evals > 0 {
                out.push_str(&format!(
                    "warm cache: {} evals served ({:.1}% of evaluations, {:.1}/sec)\n",
                    r.warm_evals,
                    100.0 * self.warm_hit_rate(),
                    self.warm_evals_per_sec()
                ));
            }
        }
        let latency = self.eval_latency_ns();
        if !latency.is_empty() {
            let quantiles: Vec<String> = latency
                .iter()
                .map(|(p, ns)| format!("p{p} {:.3}ms", *ns as f64 / 1e6))
                .collect();
            out.push_str(&format!(
                "eval latency: {} ({} samples, exact)\n",
                quantiles.join(", "),
                self.eval_ns.len()
            ));
        }
        if self.quarantine.is_empty() {
            out.push_str("quarantine: none\n");
        } else {
            let classes: Vec<String> = self
                .quarantine
                .iter()
                .map(|(k, n)| format!("{k} x{n}"))
                .collect();
            out.push_str(&format!("quarantine: {}\n", classes.join(", ")));
        }
        for note in self.notes() {
            out.push_str(&format!("note: {note}\n"));
        }
        out
    }
}

/// The sum of `values`, saturating at `u64::MAX`.
fn saturating_sum(values: impl Iterator<Item = u64>) -> u64 {
    values.fold(0, u64::saturating_add)
}

/// Validate and aggregate a JSONL trace.
///
/// # Errors
/// Fails (with the offending line) when any line violates `run-trace.v1`.
pub fn analyze(text: &str) -> Result<Report, SchemaError> {
    let mut report = Report::default();
    for (ix, line) in text.lines().enumerate() {
        if !line.is_empty() {
            validate_line(ix + 1, line)?;
            report.push_line(line);
        }
    }
    if report.events == 0 {
        return Err(SchemaError {
            line: 1,
            message: "empty trace".to_string(),
        });
    }
    Ok(report)
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tracer;

    fn synthetic_trace() -> String {
        let t = Tracer::in_memory();
        t.emit(
            "run-start",
            [("command", Value::str("specialize hyperblock x"))],
        );
        t.emit(
            "evolution-start",
            [
                ("population", Value::UInt(3)),
                ("generations", Value::UInt(2)),
                ("start_gen", Value::UInt(0)),
                ("threads", Value::UInt(1)),
                ("resumed", Value::Bool(false)),
            ],
        );
        for gen in 0..2u64 {
            for case in 0..3u64 {
                t.emit(
                    "eval",
                    [
                        ("gen", Value::UInt(gen)),
                        ("genome", Value::str(format!("(g{gen}-{case})"))),
                        ("case", Value::UInt(case)),
                        (
                            "outcome",
                            Value::str(if case == 2 && gen == 1 {
                                "budget"
                            } else {
                                OUTCOME_SCORE
                            }),
                        ),
                        ("score", Value::Num(1.1)),
                        ("dur_ns", Value::UInt(500)),
                        ("warm", Value::Bool(gen == 0 && case == 0)),
                    ],
                );
                t.emit(
                    "pass",
                    [
                        (
                            "pass",
                            Value::str(if case == 0 { "regalloc" } else { "schedule" }),
                        ),
                        ("wall_ns", Value::UInt(1000 * (case + 1))),
                        ("delta", Value::Obj(vec![])),
                    ],
                );
                t.emit(
                    "sim",
                    [
                        ("cycles", Value::UInt(100)),
                        ("insts", Value::UInt(50)),
                        ("dur_ns", Value::UInt(10)),
                    ],
                );
                t.emit(
                    "validate",
                    [
                        (
                            "pass",
                            Value::str(if case == 0 { "regalloc" } else { "schedule" }),
                        ),
                        ("level", Value::str("full")),
                        ("ok", Value::Bool(!(case == 2 && gen == 1))),
                        ("findings", Value::UInt(case)),
                        ("wall_ns", Value::UInt(200 * (case + 1))),
                    ],
                );
            }
            t.emit(
                "generation",
                [
                    ("gen", Value::UInt(gen)),
                    (
                        "subset",
                        Value::Arr(vec![Value::UInt(0), Value::UInt(1), Value::UInt(2)]),
                    ),
                    ("evals", Value::UInt(3)),
                    ("cache_hits", Value::UInt(1)),
                    ("best_fitness", Value::Num(1.5)),
                    ("mean_fitness", Value::Num(1.2)),
                    ("best_size", Value::UInt(5)),
                    ("dur_ns", Value::UInt(3_000_000)),
                ],
            );
            t.emit(
                "checkpoint",
                [
                    ("gen", Value::UInt(gen + 1)),
                    ("dur_ns", Value::UInt(2_000_000)),
                ],
            );
            t.emit(
                "metrics-snapshot",
                [
                    ("seq", Value::UInt(gen)),
                    ("gen", Value::UInt(gen)),
                    (
                        "counters",
                        Value::Obj(vec![("evaluations".to_string(), Value::UInt(3))]),
                    ),
                ],
            );
        }
        // Reliability events from a contained run over a recovered cache.
        t.emit(
            "retry",
            [
                ("gen", Value::UInt(0)),
                ("genome", Value::str("(g0-0)")),
                ("case", Value::UInt(0)),
                ("attempt", Value::UInt(0)),
                ("kind", Value::str("timeout")),
                ("backoff_ns", Value::UInt(65_536)),
            ],
        );
        t.emit(
            "timeout",
            [
                ("genome", Value::str("(g0-1)")),
                ("case", Value::UInt(1)),
                ("wall_ns", Value::UInt(5_000_000)),
            ],
        );
        t.emit(
            "worker-restart",
            [
                ("worker", Value::UInt(1)),
                ("restarts", Value::UInt(1)),
                ("reason", Value::str("worker thread died")),
            ],
        );
        t.emit(
            "cache-recovered",
            [
                ("mode", Value::str("recovered")),
                ("entries", Value::UInt(4)),
                ("dropped_bytes", Value::UInt(12)),
            ],
        );
        t.emit(
            "evolution-end",
            [
                ("evaluations", Value::UInt(6)),
                ("successes", Value::UInt(5)),
                ("failures", Value::UInt(1)),
                ("quarantined", Value::UInt(1)),
                ("best_fitness", Value::Num(1.5)),
                ("best", Value::str("(g1-0)")),
                ("dur_ns", Value::UInt(6_000_000)),
            ],
        );
        t.emit(
            "run-end",
            [
                ("command", Value::str("specialize")),
                ("dur_ns", Value::UInt(7_000_000)),
            ],
        );
        t.lines().unwrap().join("\n")
    }

    /// Feed `text` line by line, the way `metaopt top` tails a trace.
    fn fed(text: &str) -> Report {
        let mut report = Report::default();
        for line in text.lines() {
            report.push_line(line);
        }
        report
    }

    #[test]
    fn line_by_line_feed_equals_analyze() {
        // The synthetic trace plus a co-evolved run's fronts: every event
        // type the schema knows.
        let t = Tracer::in_memory();
        front_event(&t, 0, &[[900, 170, 500]]);
        front_event(&t, 1, &[[901, 168, 504], [950, 180, 360]]);
        let fronts = t.lines().unwrap();
        let text = format!("{}\n{}", synthetic_trace(), fronts[1..].join("\n"));
        let whole = analyze(&text).unwrap();
        assert_eq!(fed(&text), whole);
        assert_eq!(
            whole.run.command.as_deref(),
            Some("specialize hyperblock x")
        );
        assert_eq!(
            (
                whole.run.population,
                whole.run.generations,
                whole.run.threads
            ),
            (3, 2, 1)
        );
        assert!(whole.run.finished && whole.front.is_some());
        // A torn last line, as a live tail may read it, is ignored.
        let torn = format!("{text}\n{}", &fronts[1][..fronts[1].len() / 2]);
        assert_eq!(fed(&torn), whole);
    }

    #[test]
    fn eval_latency_is_exact_nearest_rank_behind_a_tail_rule() {
        // `n` evaluations taking 1..=n microseconds, emitted slowest first.
        let digest = |n: u64| {
            let t = Tracer::in_memory();
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
            analyze(&t.lines().unwrap().join("\n")).unwrap()
        };
        // Rank ⌈p·n/100⌉: the median of 99 is the 50th value. p90 needs 100
        // samples and p99 1,000, so ten samples lie beyond either tail.
        let r = digest(99);
        assert_eq!(r.eval_latency_ns(), vec![(50, 50_000)]);
        assert!(r
            .render()
            .contains("eval latency: p50 0.050ms (99 samples, exact)"));
        assert!(crate::live::render(&r).contains("eval latency p50 50µs (99 samples)"));
        let r = digest(100);
        assert_eq!(r.eval_latency_ns(), vec![(50, 50_000), (90, 90_000)]);
        let r = digest(999);
        assert_eq!(r.eval_latency_ns(), vec![(50, 500_000), (90, 900_000)]);
        assert!(r
            .render()
            .contains("eval latency: p50 0.500ms, p90 0.900ms (999 samples, exact)"));
        assert!(
            crate::live::render(&r).contains("eval latency p50 500µs · p90 900µs (999 samples)")
        );
        let r = digest(1000);
        assert_eq!(
            r.eval_latency_ns(),
            vec![(50, 500_000), (90, 900_000), (99, 990_000)]
        );
        assert!(r
            .render()
            .contains("eval latency: p50 0.500ms, p90 0.900ms, p99 0.990ms (1000 samples, exact)"));
        assert!(crate::live::render(&r)
            .contains("eval latency p50 500µs · p90 900µs · p99 990µs (1000 samples)"));
    }

    #[test]
    fn aggregates_generations_passes_and_quarantine() {
        let r = analyze(&synthetic_trace()).unwrap();
        assert_eq!(r.generations.len(), 2);
        assert_eq!(r.generations[0].evals, 3);
        assert!((r.generations[0].evals_per_sec() - 1000.0).abs() < 1e-9);
        assert!((r.generations[0].hit_rate() - 0.25).abs() < 1e-9);
        assert_eq!(r.total_evals, 6);
        assert_eq!(r.sims, (6, 600));
        assert_eq!(r.checkpoints.0, 2);
        assert_eq!(r.quarantine, vec![("budget".to_string(), 1)]);
        // schedule ran 4x at 2000/3000ns, regalloc 2x at 1000ns; schedule
        // dominates total wall and sorts first.
        assert_eq!(r.passes[0].pass, "schedule");
        assert_eq!(r.passes[0].runs, 4);
        assert_eq!(r.passes[1].pass, "regalloc");
        assert_eq!(r.passes[1].max_ns, 1000);
    }

    #[test]
    fn aggregates_validate_events_per_pass() {
        let r = analyze(&synthetic_trace()).unwrap();
        // schedule validated 4x (cases 1,2 per gen): one failure (gen 1
        // case 2), findings 1+2 per gen, wall 400+600 per gen.
        let sched = r.validation.iter().find(|v| v.pass == "schedule").unwrap();
        assert_eq!((sched.runs, sched.failures, sched.findings), (4, 1, 6));
        assert_eq!(sched.total_ns, 2000);
        let ra = r.validation.iter().find(|v| v.pass == "regalloc").unwrap();
        assert_eq!((ra.runs, ra.failures, ra.findings), (2, 0, 0));
        assert_eq!(ra.total_ns, 400);
        // Sorted by total wall time: schedule first.
        assert_eq!(r.validation[0].pass, "schedule");
    }

    #[test]
    fn bench_json_digests_throughput() {
        let r = analyze(&synthetic_trace()).unwrap();
        // 6 evals over 6ms of generation time, 600 cycles over 60ns of sim.
        assert!((r.evals_per_sec() - 1000.0).abs() < 1e-9);
        assert!((r.sim_cycles_per_sec() - 1e10).abs() < 1.0);
        let digest = r.bench_json();
        let v = crate::json::parse(&digest).expect("bench digest is valid JSON");
        assert_eq!(v.get("total_evals").and_then(Value::as_u64), Some(6));
        assert_eq!(v.get("sim_cycles").and_then(Value::as_u64), Some(600));
        let hit = v.get("cache_hit_rate").and_then(Value::as_f64).unwrap();
        assert!((hit - 0.25).abs() < 1e-9, "hit rate {hit}");
        assert!(v.get("evals_per_sec").and_then(Value::as_f64).unwrap() > 0.0);
    }

    #[test]
    fn bench_json_carries_the_exact_counts() {
        let r = analyze(&synthetic_trace()).unwrap();
        let v = crate::json::parse(&r.bench_json()).unwrap();
        let count = |key| v.get(key).and_then(Value::as_u64);
        // 6 evals, 6 simulations of 600 cycles in all, 4 schedule runs.
        assert_eq!(count("total_evals"), Some(6));
        assert_eq!(count("sim_runs"), Some(6));
        assert_eq!(count("compiles"), Some(4));
        assert_eq!(count("sim_cycles"), Some(600));
        assert_eq!(r.compiles(), 4);
    }

    #[test]
    fn pass_time_per_compile_comes_from_exact_spans() {
        let r = analyze(&synthetic_trace()).unwrap();
        // Two generations of regalloc 1000ns + schedule 2000ns + schedule
        // 3000ns: 12000ns of passes over 4 schedule runs.
        assert!((r.pass_us_per_compile() - 3.0).abs() < 1e-12);
        let v = crate::json::parse(&r.bench_json()).unwrap();
        let per_compile = v.get("pass_us_per_compile").and_then(Value::as_f64);
        assert_eq!(per_compile, Some(r.pass_us_per_compile()));
        // No schedule run, no compile: reported as 0.
        let t = Tracer::in_memory();
        t.emit(
            "pass",
            [
                ("pass", Value::str("regalloc")),
                ("wall_ns", Value::UInt(1000)),
                ("delta", Value::Obj(vec![])),
            ],
        );
        let r = analyze(&t.lines().unwrap().join("\n")).unwrap();
        assert_eq!(r.pass_us_per_compile(), 0.0);
    }

    #[test]
    fn render_mentions_every_section() {
        let r = analyze(&synthetic_trace()).unwrap();
        let text = r.render();
        for needle in [
            "evals/sec",
            "hit%",
            "pass",
            "schedule",
            "validate",
            "failures",
            "simulations: 6 runs for 6 evaluations, 600 cycles total",
            "reliability: 1 retries, 1 cache recoveries, 0 cache degradations",
            "warm cache: 1 evals served",
            "quarantine: budget x1",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        // A trace with no reliability events renders no reliability line.
        let quiet = Tracer::in_memory();
        quiet.emit(
            "checkpoint",
            [("gen", Value::UInt(1)), ("dur_ns", Value::UInt(1))],
        );
        let quiet = analyze(&quiet.lines().unwrap().join("\n")).unwrap();
        assert!(quiet.reliability.is_quiet());
        assert!(!quiet.render().contains("reliability:"));
    }

    #[test]
    fn reliability_counters_and_warm_throughput() {
        let r = analyze(&synthetic_trace()).unwrap();
        assert_eq!(
            r.reliability,
            Reliability {
                retries: 1,
                cache_recovered: 1,
                cache_degraded: 0,
                warm_evals: 1,
            }
        );
        // 1 warm eval of 6 total, over 6ms of generation time.
        assert!((r.warm_hit_rate() - 1.0 / 6.0).abs() < 1e-9);
        assert!((r.warm_evals_per_sec() - 1e9 / 6e6).abs() < 1e-6);
        let v = crate::json::parse(&r.bench_json()).unwrap();
        assert_eq!(v.get("warm_evals").and_then(Value::as_u64), Some(1));
        assert!(v.get("warm_evals_per_sec").and_then(Value::as_f64).unwrap() > 0.0);
    }

    #[test]
    fn analyze_rejects_invalid_traces() {
        assert!(analyze("").is_err());
        assert!(analyze("{\"type\":\"generation\",\"ts\":0}").is_err());
    }

    #[test]
    fn eval_latency_quantiles_ride_the_digest() {
        let r = analyze(&synthetic_trace()).unwrap();
        // Every synthetic eval takes 500ns; six samples report the median
        // only, and the exact value, not a bucket bound.
        assert_eq!(r.eval_ns, vec![500; 6]);
        assert_eq!(r.eval_latency_ns(), vec![(50, 500)]);
        assert!(r.render().contains("eval latency: p50"));
        // The digest carries no latency quantile: the gate reads
        // `eval_us_per_eval`.
        let v = crate::json::parse(&r.bench_json()).unwrap();
        assert!(v.get("eval_p50_ms").is_none() && v.get("eval_p99_ms").is_none());
    }

    #[test]
    fn eval_time_per_eval_comes_from_exact_spans() {
        let r = analyze(&synthetic_trace()).unwrap();
        // Six evals of 500ns each: 3000ns over 6 events.
        assert_eq!((r.eval_ns.len(), r.eval_ns.iter().sum::<u64>()), (6, 3000));
        assert!((r.eval_us_per_eval() - 0.5).abs() < 1e-12);
        let v = crate::json::parse(&r.bench_json()).unwrap();
        let per_eval = v.get("eval_us_per_eval").and_then(Value::as_f64);
        assert_eq!(per_eval, Some(r.eval_us_per_eval()));
        let empty = analyze(&Tracer::in_memory().lines().unwrap().join("\n")).unwrap();
        assert_eq!(empty.eval_us_per_eval(), 0.0);
    }

    #[test]
    fn empty_and_instant_traces_report_zero_with_a_note() {
        // A header-only trace: no evals, no sims, no generations.
        let t = Tracer::in_memory();
        let r = analyze(&t.lines().unwrap().join("\n")).unwrap();
        assert_eq!(r.evals_per_sec(), 0.0);
        assert_eq!(r.sim_cycles_per_sec(), 0.0);
        assert_eq!(r.warm_evals_per_sec(), 0.0);
        assert!(r.eval_latency_ns().is_empty());
        let digest = r.bench_json();
        // The digest stays finite JSON: no NaN/Inf leaks (which would
        // serialize as null) and every figure is a number.
        assert!(!digest.contains("null"), "{digest}");
        let v = crate::json::parse(&digest).unwrap();
        assert_eq!(v.get("evals_per_sec").and_then(Value::as_f64), Some(0.0));
        assert_eq!(
            v.get("sim_cycles_per_sec").and_then(Value::as_f64),
            Some(0.0)
        );
        assert_eq!(
            r.notes(),
            vec![
                "no evaluations recorded; evals/sec reported as 0".to_string(),
                "no co-evolution (pareto-front) events; front_size reported as 0".to_string(),
            ]
        );
        assert!(r.render().contains("note: no evaluations recorded"));

        // An "instant" trace: work recorded, but zero wall time everywhere
        // (e.g. a clock too coarse to observe the run).
        let t = Tracer::in_memory();
        t.emit(
            "generation",
            [
                ("gen", Value::UInt(0)),
                ("subset", Value::Arr(vec![Value::UInt(0)])),
                ("evals", Value::UInt(5)),
                ("cache_hits", Value::UInt(0)),
                ("best_fitness", Value::Num(1.0)),
                ("mean_fitness", Value::Num(1.0)),
                ("best_size", Value::UInt(1)),
                ("dur_ns", Value::UInt(0)),
            ],
        );
        t.emit(
            "sim",
            [
                ("cycles", Value::UInt(100)),
                ("insts", Value::UInt(50)),
                ("dur_ns", Value::UInt(0)),
            ],
        );
        let r = analyze(&t.lines().unwrap().join("\n")).unwrap();
        assert_eq!(r.evals_per_sec(), 0.0);
        assert_eq!(r.sim_cycles_per_sec(), 0.0);
        assert!(r.evals_per_sec().is_finite() && r.sim_cycles_per_sec().is_finite());
        let notes = r.notes();
        assert_eq!(notes.len(), 3, "{notes:?}");
        assert!(notes[0].contains("no generation wall time"), "{notes:?}");
        assert!(
            notes[1].contains("simulations recorded no wall time"),
            "{notes:?}"
        );
        assert!(notes[2].contains("pareto-front"), "{notes:?}");
        assert!(!r.bench_json().contains("null"));
    }

    fn front_event(t: &Tracer, gen: u64, vectors: &[[u64; 3]]) {
        let points = vectors
            .iter()
            .enumerate()
            .map(|(i, o)| {
                Value::Obj(vec![
                    ("plan".to_string(), Value::str(format!("p{i}"))),
                    ("expr".to_string(), Value::str("(rconst 1.0)")),
                    (
                        "objectives".to_string(),
                        Value::Arr(o.iter().map(|&x| Value::UInt(x)).collect()),
                    ),
                ])
            })
            .collect::<Vec<_>>();
        t.emit(
            "pareto-front",
            [
                ("gen", Value::UInt(gen)),
                ("size", Value::UInt(vectors.len() as u64)),
                ("hypervolume", Value::UInt(1000 + gen)),
                ("points", Value::Arr(points)),
            ],
        );
    }

    #[test]
    fn pareto_front_digest_tracks_the_final_front() {
        let t = Tracer::in_memory();
        front_event(&t, 0, &[[900, 170, 500]]);
        front_event(&t, 1, &[[901, 168, 504], [950, 180, 360]]);
        let r = analyze(&t.lines().unwrap().join("\n")).unwrap();
        let front = r.front.as_ref().expect("front digested");
        assert_eq!(
            (front.gen, front.size, front.hypervolume, front.events),
            (1, 2, 1001, 2)
        );
        // Per-objective best across the FINAL front only.
        assert_eq!(front.best, vec![901, 168, 360]);
        let v = crate::json::parse(&r.bench_json()).unwrap();
        assert_eq!(v.get("front_size").and_then(Value::as_u64), Some(2));
        let text = r.render();
        assert!(
            text.contains("pareto front: gen 1, 2 point(s), hypervolume 1001"),
            "{text}"
        );
        assert!(
            text.contains("best cycles 901 / size 168 / compile 360"),
            "{text}"
        );
        // A co-evolved trace earns no "no co-evolution" note.
        assert!(r.notes().iter().all(|n| !n.contains("pareto-front")));
    }

    #[test]
    fn scalar_traces_report_front_size_zero_with_a_note() {
        let r = analyze(&synthetic_trace()).unwrap();
        assert!(r.front.is_none());
        let digest = r.bench_json();
        assert!(!digest.contains("null"), "{digest}");
        let v = crate::json::parse(&digest).unwrap();
        assert_eq!(v.get("front_size").and_then(Value::as_u64), Some(0));
        assert!(
            r.notes().iter().any(|n| n.contains("pareto-front")),
            "{:?}",
            r.notes()
        );
        assert!(!r.render().contains("pareto front: gen"));
    }
}
