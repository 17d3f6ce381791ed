//! `metaopt` — command-line interface to the Meta Optimization system.
//!
//! ```text
//! metaopt list                                  list benchmarks
//! metaopt specialize <study> <benchmark>        evolve for one benchmark
//! metaopt train <study>                         evolve a general-purpose fn (DSS)
//! metaopt crossval <study> <sexpr-file>         apply a saved fn to the test set
//! metaopt compile <study> <benchmark> <sexpr>   compile+simulate with a given fn
//! metaopt ablate <study> <benchmark> [plan ...] sweep pipeline plans, cycles per plan
//! metaopt check <study> [benchmark]             semantically validate baseline compiles
//! ```
//!
//! `<study>` is `hyperblock`, `regalloc`, or `prefetch`. GP scale options:
//! `--pop N`, `--gens N`, `--seed N`, `--threads N`. `--check-ir` runs the
//! `metaopt-analysis` invariant checker at every pass boundary of every
//! compilation.
//! `--validate off|fast|full` turns on semantic validation: per-pass
//! translation validators at `fast`, plus abstract interpretation of the
//! post-pass IR at `full`. `check` sweeps every suite kernel (or one
//! benchmark) through the study plan plus the standard ablation plans at
//! `full` validation and fails on any error-severity finding; `--json`
//! emits the diagnostics as a machine-readable report.
//!
//! Pipeline plans: `--passes <plan>` replaces the study's pass pipeline
//! with a textual plan such as `unroll(2),prefetch,hyperblock,regalloc,schedule`,
//! and `--unroll <N>` prepends loop unrolling to whatever plan is active.
//! `ablate` sweeps a set of plans (the built-in ablation set when none are
//! given) over one benchmark and prints a cycles-per-plan table (or, with
//! `--json`, a machine-readable cycles/size/compile-wall report); `compile`
//! prints per-pass wall time and counter deltas.
//!
//! Simulator tiers: `--sim-tier fast|reference` picks the execution
//! backend every evaluation simulates on — the pre-decoded bytecode tier
//! (the default) or the reference cycle-level interpreter. Both produce
//! bit-identical results by contract, so the flag only changes throughput;
//! caches and checkpoints written under one tier are valid under the other.
//!
//! Co-evolution: `specialize <study> <bench> --co-evolve` evolves joint
//! `(pipeline plan, priority function)` genomes under multi-objective
//! NSGA-II selection over (cycles, code size, compile cost) and prints the
//! final Pareto front plus the cycle-minimal champion. `--objectives`
//! restricts selection to a subset, e.g. `--objectives cycles,size`.
//! Co-evolved runs checkpoint/resume and cache like scalar runs (the
//! formats are fingerprint-separated) and stay bit-identical across
//! `--threads` settings.
//!
//! Long evolution runs can be made restartable: `--checkpoint <path>`
//! writes a checkpoint after every completed generation, and
//! `--resume <path>` continues a run from one (the GP parameters must
//! match; `--gens` may be raised to extend the run). A resumed run
//! reproduces the uninterrupted run exactly.
//!
//! `--eval-cache <path>` adds a crash-safe persistent fitness cache:
//! every successful score is appended as it is computed, and a rerun (or
//! resume) under the same configuration answers those evaluations from
//! disk — the run prints its warm-hit count. Corrupt or foreign cache
//! files are recovered or ignored, never fatal.
//!
//! Every subcommand accepts `--trace-out <path>`: structured run telemetry
//! (the `run-trace.v1` JSONL schema — evolution generations, uncached
//! evaluations, compiler passes, simulations, checkpoints) streams to the
//! file, and `metaopt trace-report <path>` renders it as throughput /
//! cache-hit / slowest-pass / quarantine tables. Runs without `--trace-out`
//! are bit-identical to runs of a build without tracing.
//!
//! Live observability: `--trace-out` (or `--metrics-addr`) also attaches
//! the in-process metrics registry, which folds every trace event as it is
//! emitted into the same digest `trace-report` prints. `metaopt top
//! <trace.jsonl> --follow` tails a running trace and renders a live status
//! view (generation progress, eval throughput, exact latency quantiles,
//! simulator speed) from that digest. `--metrics-addr 127.0.0.1:9184`
//! serves the registry's digest as Prometheus text exposition on
//! `GET /metrics`, with or without `--trace-out`; without it, no trace file
//! is written.

use metaopt::experiment::{ExperimentError, RunControl};
use metaopt::{experiment, study, EvalRequest, PreparedBench, StudyConfig};
use metaopt_gp::expr::display_named;
use metaopt_gp::{GpParams, QuarantineRecord};
use metaopt_trace::{json::Value, Event, Tracer};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: metaopt <command> [args]\n\
         \n\
         commands:\n\
           list                                 list the benchmark suite\n\
           specialize <study> <benchmark>       evolve a specialized priority fn\n\
           train <study>                        evolve a general-purpose fn with DSS\n\
           crossval <study> <sexpr-file>        cross-validate a saved priority fn\n\
           compile <study> <benchmark> <sexpr>  compile+simulate with a priority fn\n\
           ablate <study> <benchmark> [plan ..] sweep pipeline plans, report cycles\n\
           check <study> [benchmark]            semantically validate baseline compiles\n\
           trace-report <trace.jsonl>           summarize a --trace-out file\n\
           top <trace.jsonl> [--follow]         live status view of a (running) trace\n\
         \n\
         studies: hyperblock | regalloc | prefetch\n\
         options: --pop N --gens N --seed N --threads N --check-ir\n\
                  --validate off|fast|full --json\n\
                  --passes <plan> --unroll <N> --sim-tier fast|reference\n\
                  --co-evolve (specialize: evolve (plan, expr) genomes, NSGA-II)\n\
                  --objectives cycles,size,compile (co-evolve selection mask)\n\
                  --checkpoint <path> --resume <path> --trace-out <path>\n\
                  --eval-cache <path> (persistent fitness cache)\n\
                  --bench-json <path> (trace-report: write throughput digest)\n\
                  --metrics-addr HOST:PORT (serve Prometheus /metrics)\n\
                  --follow (top: keep tailing until the run ends)\n\
         plans:   comma-separated passes ending in regalloc,schedule,\n\
                  e.g. unroll(2),prefetch,hyperblock,regalloc,schedule"
    );
    ExitCode::FAILURE
}

fn study_by_name(name: &str) -> Option<StudyConfig> {
    match name {
        "hyperblock" => Some(study::hyperblock()),
        "regalloc" => Some(study::regalloc()),
        "prefetch" => Some(study::prefetch()),
        _ => None,
    }
}

fn training_set(cfg: &StudyConfig) -> Vec<metaopt_suite::Benchmark> {
    match cfg.kind {
        metaopt::StudyKind::Hyperblock => metaopt_suite::hyperblock_training_set(),
        metaopt::StudyKind::Regalloc => metaopt_suite::regalloc_training_set(),
        metaopt::StudyKind::Prefetch => metaopt_suite::prefetch_training_set(),
    }
}

fn test_set(cfg: &StudyConfig) -> Vec<metaopt_suite::Benchmark> {
    match cfg.kind {
        metaopt::StudyKind::Hyperblock => metaopt_suite::hyperblock_test_set(),
        metaopt::StudyKind::Regalloc => metaopt_suite::regalloc_test_set(),
        metaopt::StudyKind::Prefetch => metaopt_suite::prefetch_test_set(),
    }
}

struct Options {
    positional: Vec<String>,
    params: GpParams,
    check_ir: bool,
    validate: metaopt_compiler::ValidationLevel,
    json: bool,
    control: RunControl,
    passes: Option<metaopt_compiler::PipelinePlan>,
    unroll: Option<u32>,
    sim_tier: metaopt_sim::SimTier,
    co_evolve: bool,
    objectives: [bool; metaopt_gp::pareto::NUM_OBJECTIVES],
    trace_out: Option<std::path::PathBuf>,
    bench_json: Option<std::path::PathBuf>,
    metrics_addr: Option<String>,
    follow: bool,
}

fn parse_args() -> Option<Options> {
    let mut params = GpParams::quick();
    let mut positional = Vec::new();
    let mut check_ir = false;
    let mut validate = metaopt_compiler::ValidationLevel::Off;
    let mut json = false;
    let mut control = RunControl::default();
    let mut passes = None;
    let mut unroll = None;
    let mut sim_tier = metaopt_sim::SimTier::default();
    let mut co_evolve = false;
    let mut objectives = [true; metaopt_gp::pareto::NUM_OBJECTIVES];
    let mut trace_out = None;
    let mut bench_json = None;
    let mut metrics_addr = None;
    let mut follow = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--pop" => {
                params.population = args.next()?.parse().ok()?;
                if params.population < 2 {
                    eprintln!("--pop: the population must be at least 2");
                    return None;
                }
            }
            "--gens" => params.generations = args.next()?.parse().ok()?,
            "--seed" => params.seed = args.next()?.parse().ok()?,
            "--threads" => params.threads = args.next()?.parse().ok()?,
            "--check-ir" => check_ir = true,
            "--validate" => match metaopt_compiler::ValidationLevel::parse(&args.next()?) {
                Some(level) => validate = level,
                None => {
                    eprintln!("--validate: expected off, fast, or full");
                    return None;
                }
            },
            "--json" => json = true,
            "--passes" => match args.next()?.parse() {
                Ok(plan) => passes = Some(plan),
                Err(e) => {
                    eprintln!("--passes: {e}");
                    return None;
                }
            },
            "--unroll" => unroll = Some(args.next()?.parse().ok()?),
            "--sim-tier" => match args.next()?.parse() {
                Ok(tier) => sim_tier = tier,
                Err(e) => {
                    eprintln!("--sim-tier: {e}");
                    return None;
                }
            },
            "--co-evolve" => co_evolve = true,
            "--objectives" => match metaopt_gp::coevo::parse_mask(&args.next()?) {
                Some(mask) => objectives = mask,
                None => {
                    eprintln!(
                        "--objectives: expected a non-empty comma-separated subset of {}",
                        metaopt_gp::pareto::OBJECTIVE_NAMES.join(",")
                    );
                    return None;
                }
            },
            "--checkpoint" => control.checkpoint = Some(args.next()?.into()),
            "--resume" => control.resume = Some(args.next()?.into()),
            "--eval-cache" => control.eval_cache = Some(args.next()?.into()),
            "--trace-out" => trace_out = Some(args.next()?.into()),
            "--bench-json" => bench_json = Some(args.next()?.into()),
            "--metrics-addr" => metrics_addr = Some(args.next()?),
            "--follow" => follow = true,
            _ => positional.push(a),
        }
    }
    Some(Options {
        positional,
        params,
        check_ir,
        validate,
        json,
        control,
        passes,
        unroll,
        sim_tier,
        co_evolve,
        objectives,
        trace_out,
        bench_json,
        metrics_addr,
        follow,
    })
}

impl Options {
    /// `cfg` with every global override applied: `--check-ir`,
    /// `--validate`, `--passes`, `--unroll`, `--sim-tier`.
    fn configure(&self, cfg: StudyConfig) -> StudyConfig {
        let mut cfg = cfg
            .with_check_ir(self.check_ir)
            .with_validate(self.validate)
            .with_sim_tier(self.sim_tier);
        if let Some(plan) = &self.passes {
            cfg = cfg.with_plan(plan.clone());
        }
        if let Some(factor) = self.unroll {
            cfg = cfg.with_unroll(factor);
        }
        cfg
    }
}

/// Annotate an evolved winner with its genome lints (warnings on the raw
/// genome — dead branches, foldable subtrees, shadowed divisions — plus
/// which features it never reads).
fn print_lints(best: &metaopt_gp::Expr, cfg: &StudyConfig) {
    for l in metaopt_gp::lint::lint(best, cfg.genome_kind, &cfg.features) {
        println!("  lint {l}");
    }
}

/// Summarize the quarantine ledger: failure counts per error class, plus
/// the first few records for diagnosis.
fn print_quarantine(quarantined: &[QuarantineRecord], evaluations: u64, successes: u64) {
    if quarantined.is_empty() {
        return;
    }
    let mut by_kind: Vec<(&str, usize)> = Vec::new();
    for r in quarantined {
        let label = r.error.kind.label();
        match by_kind.iter_mut().find(|(k, _)| *k == label) {
            Some((_, n)) => *n += 1,
            None => by_kind.push((label, 1)),
        }
    }
    let classes: Vec<String> = by_kind.iter().map(|(k, n)| format!("{k} x{n}")).collect();
    println!(
        "quarantine: {} genome-case failures ({} of {} evaluations) [{}]",
        quarantined.len(),
        evaluations - successes,
        evaluations,
        classes.join(", ")
    );
    const SHOW: usize = 5;
    for r in quarantined.iter().take(SHOW) {
        println!("  {} case {}: {}", r.genome, r.case, r.error);
    }
    if quarantined.len() > SHOW {
        println!("  ... and {} more", quarantined.len() - SHOW);
    }
}

/// One greppable line for scripts and CI: how many evaluations the
/// persistent fitness cache answered. Printed only when `--eval-cache`
/// was given, so default output is unchanged.
fn print_warm_hits(control: &RunControl, warm_hits: u64) {
    if control.eval_cache.is_some() {
        println!("eval cache warm hits: {warm_hits}");
    }
}

fn report_error(e: &ExperimentError) -> ExitCode {
    eprintln!("error: {e}");
    ExitCode::FAILURE
}

/// `metaopt specialize <study> <bench> --co-evolve`: joint (plan, expr)
/// evolution with Pareto-rank selection. Prints the final front, the
/// hypervolume proxy, and the conventional champion report (the
/// cycle-minimal front point against the study's own baseline).
fn co_evolve_command(
    opts: &Options,
    cfg: &StudyConfig,
    bench: &metaopt_suite::Benchmark,
    control: &RunControl,
) -> ExitCode {
    let r = match experiment::co_evolve_controlled(
        cfg,
        bench,
        &opts.params,
        opts.objectives,
        control,
    ) {
        Ok(r) => r,
        Err(e) => return report_error(&e),
    };
    println!(
        "pareto front: {} point(s) on ({}), hypervolume {}",
        r.front.len(),
        metaopt_gp::coevo::mask_label(&opts.objectives),
        r.hypervolume
    );
    print!("{}", r.front_table());
    match (&r.best_plan, &r.best) {
        (Some(plan), Some(best)) => {
            println!("champion plan: {plan}");
            println!("train speedup: {:.3}", r.train_speedup);
            println!("novel speedup: {:.3}", r.novel_speedup);
            println!(
                "evolved: {}",
                display_named(&metaopt_gp::simplify::simplify(best), &cfg.features)
            );
            println!("raw (re-parseable): {}", best.key());
            print_lints(best, cfg);
        }
        _ => println!("no champion: every genome in the final population failed"),
    }
    print_quarantine(&r.quarantined, r.evaluations, r.successes);
    print_warm_hits(control, r.warm_hits);
    ExitCode::SUCCESS
}

/// `metaopt top <trace.jsonl> [--follow]` — render a live status view of a
/// trace. The lines fold into the same `report::Report` that `trace-report`
/// prints. Without `--follow` it reads the file once and prints one frame;
/// with it, the file is tailed (partial trailing lines are buffered until
/// their newline arrives) and the screen repainted until `run-end` appears.
fn top_command(path: &str, follow: bool) -> ExitCode {
    use metaopt_trace::{live, report::Report};
    use std::io::{Read as _, Seek as _};

    let mut report = Report::default();
    let mut offset = 0u64;
    let mut partial = String::new();
    loop {
        let mut file = match std::fs::File::open(path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let len = file.metadata().map(|m| m.len()).unwrap_or(0);
        if len < offset {
            // Truncated underneath us (a fresh run reusing the path):
            // start over rather than resuming mid-file.
            report = Report::default();
            offset = 0;
            partial.clear();
        }
        if len > offset {
            if file.seek(std::io::SeekFrom::Start(offset)).is_err() {
                eprintln!("cannot seek {path}");
                return ExitCode::FAILURE;
            }
            let mut chunk = String::new();
            match file.take(len - offset).read_to_string(&mut chunk) {
                Ok(n) => offset += n as u64,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            partial.push_str(&chunk);
            while let Some(nl) = partial.find('\n') {
                let line: String = partial.drain(..=nl).collect();
                report.push_line(line.trim_end());
            }
        }
        if follow {
            // Repaint in place: clear screen, home the cursor.
            print!("\x1b[2J\x1b[H{}", live::render(&report));
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
            if report.run.finished {
                return ExitCode::SUCCESS;
            }
            std::thread::sleep(std::time::Duration::from_millis(250));
        } else {
            // One-shot: flush any unterminated final line, print one frame.
            if !partial.is_empty() {
                report.push_line(partial.trim_end());
            }
            print!("{}", live::render(&report));
            return ExitCode::SUCCESS;
        }
    }
}

fn main() -> ExitCode {
    let Some(opts) = parse_args() else {
        return usage();
    };
    let mut tracer = match &opts.trace_out {
        Some(path) => match Tracer::to_file(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot create trace file {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        },
        None => Tracer::disabled(),
    };
    // The metrics registry rides on the tracer and folds every event it
    // emits; `--metrics-addr` alone is enough to attach it, without a sink.
    let mut _metrics_server = None;
    if opts.trace_out.is_some() || opts.metrics_addr.is_some() {
        let registry = metaopt_trace::metrics::MetricsRegistry::new();
        if let Some(addr) = &opts.metrics_addr {
            match metaopt_trace::serve::serve(addr.as_str(), registry.clone()) {
                Ok(server) => {
                    eprintln!(
                        "serving Prometheus metrics on http://{}/metrics",
                        server.local_addr()
                    );
                    _metrics_server = Some(server);
                }
                Err(e) => {
                    eprintln!("cannot serve metrics on {addr}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        tracer = tracer.with_metrics(registry);
    }
    let command = opts.positional.join(" ");
    let run_span = tracer.begin();
    if tracer.enabled() {
        tracer.emit(Event::RunStart {
            command: command.clone(),
        });
    }
    let code = run(&opts, &tracer);
    if tracer.enabled() {
        tracer.emit(Event::RunEnd {
            command,
            dur_ns: run_span.dur_ns(),
        });
        tracer.flush();
    }
    code
}

fn run(opts: &Options, tracer: &Tracer) -> ExitCode {
    let mut control = opts.control.clone();
    control.tracer = tracer.clone();
    let pos: Vec<&str> = opts.positional.iter().map(|s| s.as_str()).collect();
    match pos.as_slice() {
        ["list"] => {
            for b in metaopt_suite::all_benchmarks() {
                println!("{:<14} {:<12} {}", b.name, b.suite, b.description);
            }
            ExitCode::SUCCESS
        }
        ["specialize", study_name, bench_name] => {
            let Some(cfg) = study_by_name(study_name) else {
                return usage();
            };
            let cfg = opts.configure(cfg);
            let Some(bench) = metaopt_suite::by_name(bench_name) else {
                eprintln!("unknown benchmark {bench_name} (try `metaopt list`)");
                return ExitCode::FAILURE;
            };
            if opts.co_evolve {
                return co_evolve_command(opts, &cfg, &bench, &control);
            }
            let r = match experiment::specialize_controlled(&cfg, &bench, &opts.params, &control) {
                Ok(r) => r,
                Err(e) => return report_error(&e),
            };
            println!("train speedup: {:.3}", r.train_speedup);
            println!("novel speedup: {:.3}", r.novel_speedup);
            println!(
                "evolved: {}",
                display_named(&metaopt_gp::simplify::simplify(&r.best), &cfg.features)
            );
            println!("raw (re-parseable): {}", r.best.key());
            print_lints(&r.best, &cfg);
            print_quarantine(&r.quarantined, r.evaluations, r.successes);
            print_warm_hits(&control, r.warm_hits);
            ExitCode::SUCCESS
        }
        ["train", study_name] => {
            let Some(cfg) = study_by_name(study_name) else {
                return usage();
            };
            let cfg = opts.configure(cfg);
            let r = match experiment::train_general_controlled(
                &cfg,
                &training_set(&cfg),
                &opts.params,
                &control,
            ) {
                Ok(r) => r,
                Err(e) => return report_error(&e),
            };
            for (name, t, n) in &r.per_bench {
                println!("{name:<14} train {t:.3}  novel {n:.3}");
            }
            println!("mean: train {:.3} novel {:.3}", r.mean_train, r.mean_novel);
            println!(
                "winner: {}",
                display_named(&metaopt_gp::simplify::simplify(&r.best), &cfg.features)
            );
            println!("raw (re-parseable): {}", r.best.key());
            print_lints(&r.best, &cfg);
            print_quarantine(&r.quarantined, r.evaluations, r.successes);
            print_warm_hits(&control, r.warm_hits);
            ExitCode::SUCCESS
        }
        ["crossval", study_name, path] => {
            let Some(cfg) = study_by_name(study_name) else {
                return usage();
            };
            let cfg = opts.configure(cfg);
            let Ok(text) = std::fs::read_to_string(path) else {
                eprintln!("cannot read {path}");
                return ExitCode::FAILURE;
            };
            let expr = match metaopt_gp::parse::parse_expr(text.trim(), &cfg.features) {
                Ok(e) => e,
                Err(e) => {
                    eprintln!("cannot parse {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let cv = match experiment::try_cross_validate(&cfg, &expr, &test_set(&cfg)) {
                Ok(cv) => cv,
                Err(e) => return report_error(&e),
            };
            for (name, t, n) in &cv.per_bench {
                println!("{name:<14} train-data {t:.3}  novel-data {n:.3}");
            }
            println!("mean: {:.3}", cv.mean);
            ExitCode::SUCCESS
        }
        ["compile", study_name, bench_name, sexpr] => {
            let Some(cfg) = study_by_name(study_name) else {
                return usage();
            };
            let cfg = opts.configure(cfg);
            let Some(bench) = metaopt_suite::by_name(bench_name) else {
                eprintln!("unknown benchmark {bench_name}");
                return ExitCode::FAILURE;
            };
            let expr = match metaopt_gp::parse::parse_expr(sexpr, &cfg.features) {
                Ok(e) => e,
                Err(e) => {
                    eprintln!("cannot parse priority function: {e}");
                    eprintln!("features: {}", cfg.features);
                    return ExitCode::FAILURE;
                }
            };
            let pb = match PreparedBench::try_new(&cfg, &bench) {
                Ok(pb) => pb,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            for ds in [metaopt_suite::DataSet::Train, metaopt_suite::DataSet::Novel] {
                let req = EvalRequest {
                    expr: Some(&expr),
                    plan: None,
                    ds,
                    tracer,
                };
                let e = match pb.try_eval(&cfg, &req) {
                    Ok(e) => e,
                    Err(e) => {
                        eprintln!("{ds:?}: evaluation failed: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                // Per-pass instrumentation of the training compile: the
                // priority function in the study's slot, baselines elsewhere.
                if ds == metaopt_suite::DataSet::Train {
                    println!("plan: {}", cfg.plan);
                    println!("{}", e.stats.per_pass_table());
                }
                println!(
                    "{ds:?}: {} cycles (baseline {}, speedup {:.3})",
                    e.cycles,
                    pb.baseline_cycles(ds),
                    pb.baseline_cycles(ds) as f64 / e.cycles as f64
                );
            }
            ExitCode::SUCCESS
        }
        ["ablate", study_name, bench_name, plan_args @ ..] => {
            let Some(cfg) = study_by_name(study_name) else {
                return usage();
            };
            let cfg = opts.configure(cfg);
            let Some(bench) = metaopt_suite::by_name(bench_name) else {
                eprintln!("unknown benchmark {bench_name} (try `metaopt list`)");
                return ExitCode::FAILURE;
            };
            let plans = if plan_args.is_empty() {
                experiment::default_ablation_plans()
            } else {
                let mut plans = Vec::new();
                for text in plan_args {
                    match text.parse::<metaopt_compiler::PipelinePlan>() {
                        Ok(p) => plans.push(p),
                        Err(e) => {
                            eprintln!("bad plan {text}: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                }
                plans
            };
            let r = match experiment::try_ablate(&cfg, &bench, &plans, tracer) {
                Ok(r) => r,
                Err(e) => return report_error(&e),
            };
            if opts.json {
                println!("{}", r.json(study_name));
            } else {
                println!("{}: cycles per pipeline plan (train data)", r.bench);
                print!("{}", r.table());
            }
            ExitCode::SUCCESS
        }
        ["check", study_name, bench_args @ ..] => {
            let Some(cfg) = study_by_name(study_name) else {
                return usage();
            };
            let cfg = opts.configure(cfg);
            // `check` exists to validate; without an explicit level it runs
            // the whole battery.
            let level = if opts.validate == metaopt_compiler::ValidationLevel::Off {
                metaopt_compiler::ValidationLevel::Full
            } else {
                opts.validate
            };
            let benches = match bench_args {
                [] => metaopt_suite::all_benchmarks(),
                [name] => match metaopt_suite::by_name(name) {
                    Some(b) => vec![b],
                    None => {
                        eprintln!("unknown benchmark {name} (try `metaopt list`)");
                        return ExitCode::FAILURE;
                    }
                },
                _ => return usage(),
            };
            // The study's own plan plus the standard ablation set, deduped.
            let mut plans = vec![cfg.plan.clone()];
            for p in experiment::default_ablation_plans() {
                if plans.iter().all(|q| q.to_string() != p.to_string()) {
                    plans.push(p);
                }
            }
            let mut failures = 0usize;
            let mut compiles = 0usize;
            let mut results = Vec::new();
            for bench in &benches {
                let pb = match PreparedBench::try_new(&cfg, bench) {
                    Ok(pb) => pb,
                    Err(e) => {
                        eprintln!("error: {}: {e}", bench.name);
                        return ExitCode::FAILURE;
                    }
                };
                for plan in &plans {
                    let passes = metaopt_compiler::Passes {
                        plan: plan.clone(),
                        validate: level,
                        tracer: tracer.clone(),
                        ..cfg.baseline_passes()
                    };
                    compiles += 1;
                    let (ok, diags) = match metaopt_compiler::compile(
                        &pb.prepared,
                        &pb.profile,
                        &cfg.machine,
                        &passes,
                    ) {
                        Ok(compiled) => (true, compiled.validation),
                        Err(e) => {
                            failures += 1;
                            (false, e.diagnostics)
                        }
                    };
                    if opts.json {
                        let diags = diags.iter().map(metaopt_analysis::Diagnostic::to_value);
                        results.push(Value::obj([
                            ("bench", Value::str(bench.name)),
                            ("plan", Value::str(plan.to_string())),
                            ("ok", Value::Bool(ok)),
                            ("diagnostics", Value::Arr(diags.collect())),
                        ]));
                    } else if !ok {
                        let blame = metaopt_analysis::first_error(&diags)
                            .map_or_else(String::new, |d| format!(": {}", d.render()));
                        println!("FAIL {:<14} {plan}{blame}", bench.name);
                    } else if !diags.is_empty() {
                        println!("warn {:<14} {plan}: {} finding(s)", bench.name, diags.len());
                    }
                }
            }
            if opts.json {
                let summary = Value::obj([
                    ("study", Value::str(*study_name)),
                    ("level", Value::str(level.to_string())),
                    ("compiles", Value::UInt(compiles as u64)),
                    ("failures", Value::UInt(failures as u64)),
                    ("results", Value::Arr(results)),
                ]);
                println!("{summary}");
            } else {
                println!(
                    "check {study_name} ({level}): {} benchmark(s) x {} plan(s), {} compile(s), {} validation failure(s)",
                    benches.len(),
                    plans.len(),
                    compiles,
                    failures
                );
            }
            if failures == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        ["top", path] => top_command(path, opts.follow),
        ["trace-report", path] => {
            let text = match std::fs::read_to_string(path) {
                Ok(text) => text,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match metaopt_trace::report::analyze(&text) {
                Ok(report) => {
                    if let Some(out) = &opts.bench_json {
                        let digest = report.bench_json();
                        if let Err(e) = std::fs::write(out, format!("{digest}\n")) {
                            eprintln!("cannot write {}: {e}", out.display());
                            return ExitCode::FAILURE;
                        }
                        println!("bench digest -> {}", out.display());
                    }
                    print!("{}", report.render());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("{path}: invalid trace: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    }
}
