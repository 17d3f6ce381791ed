//! Repository benchmark: the command-line entry point.
//!
//! ```text
//! metaopt-perfbench --workload <train-prefetch|coevolve-hyperblock|compile-regalloc>
//!                   [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Sets up the workload's kernels several times (reporting the median as
//! `setup_s`), then repeats a fixed-seed unit of work ("rep") until
//! `--seconds` have passed, checking every rep's deterministic results
//! against the first rep's and against the first run of the same binary
//! and seed. With `--trace 1` it then replays one more set-up and rep with
//! spans around each layer's public calls and reports per-layer metrics
//! instead of the end-to-end ones. The last line of standard output is a
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.

use metaopt::pipeline::PreparedBench;
use metaopt::study::StudyConfig;
use metaopt_gp::Expr;
use metaopt_perfbench::ledger::{self, Metric};
use metaopt_perfbench::spans::Recorder;
use metaopt_perfbench::stats::median;
use metaopt_perfbench::traced::{self, Replica, TracedEvaluator, TracedMultiEvaluator};
use metaopt_perfbench::workload::{self, Digest, RepOutcome, Tally, Workload};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 24301;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

struct Opts {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: metaopt-perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        names.join("|")
    )
}

fn parse_args() -> Result<Opts, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Opts {
        workload: Workload::TrainPrefetch,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad())?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

/// Where spans, ledgers and determinism references are written.
fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Compare `digest` with the one the first run of this binary recorded for
/// the same workload and seed, recording it if this is the first run.
fn matches_first_run(w: Workload, seed: u64, digest: &Digest) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the binary: {e}"))?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("cannot read {}: {e}", exe.display()))?;
    let dir = out_dir().join("ref");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "{:016x}-{}-{seed}.digest",
        workload::fnv1a(&bytes),
        w.name()
    ));
    let line = digest.to_string();
    match std::fs::read_to_string(&path) {
        Ok(first) => Ok(first.trim_end() == line),
        Err(_) => {
            std::fs::write(&path, format!("{line}\n"))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            Ok(true)
        }
    }
}

/// Everything a workload needs after set-up.
struct Ctx<'a> {
    w: Workload,
    study: &'a StudyConfig,
    prepared: &'a [PreparedBench],
    genomes: &'a [Expr],
    seed: u64,
}

impl Ctx<'_> {
    fn rep(&self) -> RepOutcome {
        match self.w {
            Workload::TrainPrefetch => {
                workload::train_prefetch(self.study, self.prepared, self.seed)
            }
            Workload::CoevolveHyperblock => {
                workload::coevolve_hyperblock(self.study, self.prepared, self.seed)
            }
            Workload::CompileRegalloc => {
                workload::compile_regalloc(self.study, self.prepared, self.genomes)
            }
        }
    }

    fn traced_rep(&self, rec: &Recorder, replicas: &[Replica]) -> RepOutcome {
        let (study, prepared) = (self.study, self.prepared);
        let tally = Tally::default();
        match self.w {
            Workload::TrainPrefetch => {
                let ev = TracedEvaluator {
                    rec,
                    study,
                    prepared,
                    replicas,
                    tally: &tally,
                };
                workload::train_all(study, prepared, self.seed, &ev, &tally, Some(rec))
            }
            Workload::CoevolveHyperblock => workload::coevolve_all(
                study,
                prepared,
                self.seed,
                |i| TracedMultiEvaluator {
                    rec,
                    study,
                    prepared: std::slice::from_ref(&prepared[i]),
                    replicas: std::slice::from_ref(&replicas[i]),
                    tally: &tally,
                },
                &tally,
                Some(rec),
            ),
            Workload::CompileRegalloc => {
                let plans = workload::sweep_plans(study);
                let sweep =
                    workload::compile_sweep(study, prepared, &plans, self.genomes, |pb, passes| {
                        traced::compile(rec, &pb.prepared, &pb.profile, &study.machine, passes)
                    });
                workload::sweep_outcome(sweep, self.genomes)
            }
        }
    }

    /// Replay sampled compiles and check each produces exactly what
    /// `metaopt_compiler::compile` produces. Returns the number checked.
    fn replay_check(&self, rep: &RepOutcome) -> Result<usize, String> {
        let study = self.study;
        let plans = workload::sweep_plans(study);
        let mut triples: Vec<(usize, metaopt_compiler::PipelinePlan, Expr)> = Vec::new();
        match self.w {
            Workload::CompileRegalloc => {
                for (g, genome) in self.genomes.iter().enumerate() {
                    for (p, plan) in plans.iter().enumerate() {
                        let k = (g * plans.len() + p) * 7 % self.prepared.len();
                        triples.push((k, plan.clone(), genome.clone()));
                    }
                }
            }
            Workload::TrainPrefetch => {
                for key in &rep.champions {
                    let expr = metaopt_gp::parse::parse_expr(key, &study.features)
                        .map_err(|e| format!("champion {key:?}: {e}"))?;
                    for k in 0..self.prepared.len() {
                        triples.push((k, study.plan.clone(), expr.clone()));
                    }
                }
            }
            Workload::CoevolveHyperblock => {
                for (k, key) in rep.champions.iter().enumerate() {
                    let (plan, expr) = key
                        .split_once('|')
                        .ok_or_else(|| format!("kernel {k} has no champion"))?;
                    let plan = plan.parse().map_err(|e| format!("champion {key:?}: {e}"))?;
                    let expr = metaopt_gp::parse::parse_expr(expr, &study.features)
                        .map_err(|e| format!("champion {key:?}: {e}"))?;
                    triples.push((k, plan, expr));
                }
            }
        }
        let scratch = Recorder::default();
        for (k, plan, expr) in &triples {
            let pb = &self.prepared[*k];
            let pri = metaopt::study::ExprPriority(expr);
            let passes = metaopt_compiler::Passes {
                plan: plan.clone(),
                validate: if self.w == Workload::CompileRegalloc {
                    metaopt_compiler::ValidationLevel::Fast
                } else {
                    study.validate
                },
                ..study.passes_with(&pri)
            };
            let lib = metaopt_compiler::compile(&pb.prepared, &pb.profile, &study.machine, &passes);
            let replay =
                traced::compile(&scratch, &pb.prepared, &pb.profile, &study.machine, &passes);
            let same = match (&lib, &replay) {
                (Ok(a), Ok(b)) => {
                    a.code == b.code
                        && a.mem_size == b.mem_size
                        && a.stats.counters == b.stats.counters
                        && a.validation == b.validation
                }
                (Err(a), Err(b)) => a.kind == b.kind && a.diagnostics == b.diagnostics,
                _ => false,
            };
            if !same {
                return Err(format!(
                    "traced compile of {} under {plan} with {} differs from metaopt_compiler::compile",
                    pb.name,
                    expr.key()
                ));
            }
        }
        Ok(triples.len())
    }
}

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

fn run(opts: &Opts) -> Result<Report, String> {
    let w = opts.workload;
    let study = w.study();
    let kernels = w.kernels();
    eprintln!(
        "perfbench: {} seed {} for {}s (trace {}), {} kernels",
        w.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        kernels.len()
    );

    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut prepared = Vec::new();
    for _ in 0..SETUP_REPS {
        drop(std::mem::take(&mut prepared));
        let t = Instant::now();
        prepared = workload::setup(&study, &kernels).map_err(|e| e.to_string())?;
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let setup_s = median(&setup_times);
    eprintln!("perfbench: set-up {setup_times:.3?} s");

    let genomes = match w {
        Workload::CompileRegalloc => {
            workload::sweep_genomes(&study, opts.seed, workload::RANDOM_GENOMES)
        }
        _ => Vec::new(),
    };
    let ctx = Ctx {
        w,
        study: &study,
        prepared: &prepared,
        genomes: &genomes,
        seed: opts.seed,
    };

    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut times = Vec::new();
    let mut first: Option<RepOutcome> = None;
    let start = Instant::now();
    loop {
        let t = Instant::now();
        let out = ctx.rep();
        let dt = t.elapsed().as_secs_f64();
        attempted += out.ops;
        failed += out.failed;
        correct &= out.wrong_answers == 0;
        match &first {
            Some(f) if f.digest != out.digest => {
                eprintln!(
                    "perfbench: rep {} differs from rep 0 in {:?}; not counted",
                    times.len(),
                    f.digest.diff(&out.digest)
                );
                correct = false;
            }
            _ => {
                eprintln!("perfbench: rep {} {dt:.3} s, {} ops", times.len(), out.ops);
                times.push(dt);
            }
        }
        first.get_or_insert(out);
        if start.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    let mut first = first.expect("at least one rep runs");
    eprintln!("perfbench: digest {}", first.digest);
    if !matches_first_run(w, opts.seed, &first.digest)? {
        eprintln!("perfbench: results differ from the first run of this binary and seed");
        correct = false;
    }
    if let Some(sweep) = &first.sweep {
        correct &= sweep.baseline_matches;
        if let Some(i) = sweep.champion() {
            (first.train_speedup, first.novel_speedup) =
                workload::champion_speedups(&study, &prepared, &genomes[i]);
        }
    }
    let run_s = median(&times);

    let metrics = if opts.trace {
        let rec = Recorder::default();
        let replicas = kernels
            .iter()
            .zip(&prepared)
            .map(|(b, pb)| traced::prepare(&rec, &study, b, pb))
            .collect::<Result<Vec<_>, _>>()?;
        let t = Instant::now();
        let traced = ctx.traced_rep(&rec, &replicas);
        let traced_run_s = t.elapsed().as_secs_f64();
        attempted += traced.ops;
        failed += traced.failed;
        if traced.digest != first.digest {
            eprintln!(
                "perfbench: traced rep differs from the untraced reps in {:?}",
                first.digest.diff(&traced.digest)
            );
            correct = false;
        }
        let checked = ctx.replay_check(&traced)?;
        eprintln!("perfbench: traced rep {traced_run_s:.3} s; {checked} replayed compiles match");
        let spans = rec.spans();
        let dir = out_dir();
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let stem = format!("{}-{}", w.name(), opts.seed);
        rec.write_jsonl(&dir.join(format!("{stem}.spans.jsonl")))
            .map_err(|e| format!("cannot write spans: {e}"))?;
        std::fs::write(
            dir.join(format!("{stem}.families.jsonl")),
            ledger::families_json(&spans),
        )
        .map_err(|e| format!("cannot write span families: {e}"))?;
        ledger::metrics(w, &spans, &traced, traced_run_s, run_s)
    } else {
        vec![
            metric("setup_s", setup_s, "s"),
            metric("run_s", run_s, "s"),
            metric("ops_per_s", first.ops as f64 / run_s, "1/s"),
            metric("peak_rss_mb", peak_rss_mb()?, "MiB"),
            metric("train_speedup", first.train_speedup, "x"),
            metric("novel_speedup", first.novel_speedup, "x"),
        ]
    };
    Ok(Report {
        correct,
        attempted,
        failed,
        metrics,
    })
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let mut report = match run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // JSON has no NaN or infinity; a non-finite metric is a failed run.
    let mut fields = Vec::with_capacity(report.metrics.len());
    for m in &report.metrics {
        let value = if m.value.is_finite() {
            m.value
        } else {
            eprintln!("perfbench: metric {} is {}", m.name, m.value);
            report.correct = false;
            0.0
        };
        fields.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        fields.join(", ")
    );
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
