//! The three workloads, their fixed sizes, and one repetition of each.
//!
//! A repetition ("rep") is a fixed unit of work: the same seed gives the
//! same work and the same deterministic results, so reps can be timed
//! back to back and compared field by field. The GP functions here split
//! `experiment::train_general_controlled` and
//! `experiment::co_evolve_controlled` at the point where set-up ends, so
//! the benchmark can time `PreparedBench::try_new` on its own; they are
//! generic over the evaluator so the traced run reuses them unchanged.

use crate::spans::Recorder;
use metaopt::pipeline::{
    PrepareError, PreparedBench, StudyEvaluator, StudyMultiEvaluator, StudyPlanSpace,
};
use metaopt::study::{self, ExprPriority, StudyConfig};
use metaopt_compiler::{CompileError, Compiled, Passes, PipelinePlan, ValidationLevel};
use metaopt_gp::pareto::NUM_OBJECTIVES;
use metaopt_gp::{
    CoEvolution, EvalError, EvalErrorKind, EvalOutcome, Evaluator, Evolution, EvolutionResult,
    Expr, GenLog, GpParams, MultiEvaluator,
};
use metaopt_suite::{Benchmark, DataSet};
use metaopt_trace::Tracer;
use rand::SeedableRng;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Evaluation workers on the GP workloads (the host has two cores).
pub const WORKERS: usize = 2;

/// Independent trainings in one train-prefetch rep. One training's work
/// varies with its seed by about 9% (coefficient of variation of its
/// simulated cycles over 16 seeds), because DSS draws a different sequence
/// of case subsets and every surviving genome is evaluated on each newly
/// drawn case; the mean of three independent trainings varies about
/// 1/√3 as much.
pub const TRAININGS: u64 = 3;

/// Population and generations of each training.
pub const TRAIN_SIZE: (usize, usize) = (40, 3);

/// Population and generations of each kernel's co-evolution in one
/// coevolve-hyperblock rep.
pub const COEVO_SIZE: (usize, usize) = (24, 5);

/// Random regalloc genomes compiled (besides the baseline seed) in one
/// compile-regalloc rep.
pub const RANDOM_GENOMES: usize = 8;

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// General-purpose DSS training of the prefetch heuristic (paper Fig. 15).
    TrainPrefetch,
    /// (plan, expr) co-evolution on each hyperblock training kernel.
    CoevolveHyperblock,
    /// The compile half of `metaopt check`/`ablate` under the regalloc study.
    CompileRegalloc,
}

impl Workload {
    /// All workloads, in BENCHMARK.json order.
    pub const ALL: [Workload; 3] = [
        Workload::TrainPrefetch,
        Workload::CoevolveHyperblock,
        Workload::CompileRegalloc,
    ];

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainPrefetch => "train-prefetch",
            Workload::CoevolveHyperblock => "coevolve-hyperblock",
            Workload::CompileRegalloc => "compile-regalloc",
        }
    }

    /// The study the workload runs, at its default (fast) simulator tier.
    pub fn study(self) -> StudyConfig {
        match self {
            Workload::TrainPrefetch => study::prefetch(),
            Workload::CoevolveHyperblock => study::hyperblock(),
            Workload::CompileRegalloc => study::regalloc(),
        }
    }

    /// The kernels prepared during set-up.
    pub fn kernels(self) -> Vec<Benchmark> {
        match self {
            Workload::TrainPrefetch => metaopt_suite::prefetch_training_set(),
            Workload::CoevolveHyperblock => metaopt_suite::hyperblock_training_set(),
            Workload::CompileRegalloc => metaopt_suite::all_benchmarks(),
        }
    }

    /// Evaluation workers (1: the compile sweep is single-threaded).
    pub fn workers(self) -> usize {
        match self {
            Workload::CompileRegalloc => 1,
            _ => WORKERS,
        }
    }

    /// The span that counts as one operation in the traced run.
    pub fn op_span(self) -> &'static str {
        match self {
            Workload::CompileRegalloc => "compiler.compile",
            _ => "core.eval",
        }
    }
}

/// Set-up: `PreparedBench::try_new` for each kernel, as the `experiment`
/// functions do before their first evaluation.
pub fn setup(
    study: &StudyConfig,
    kernels: &[Benchmark],
) -> Result<Vec<PreparedBench>, PrepareError> {
    kernels
        .iter()
        .map(|b| PreparedBench::try_new(study, b))
        .collect()
}

/// Deterministic results of a rep, as named fields. Two reps of the same
/// code and seed must produce equal digests.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Digest(pub Vec<(&'static str, String)>);

impl Digest {
    fn push(&mut self, name: &'static str, value: impl fmt::Display) {
        self.0.push((name, value.to_string()));
    }

    /// Names of the fields whose values differ from `other`'s.
    pub fn diff(&self, other: &Digest) -> Vec<&'static str> {
        if self.0.len() != other.0.len() {
            return vec!["<field set>"];
        }
        self.0
            .iter()
            .zip(&other.0)
            .filter(|(a, b)| a != b)
            .map(|(a, _)| a.0)
            .collect()
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (k, v)) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(";")?;
            }
            write!(f, "{k}={v}")?;
        }
        Ok(())
    }
}

/// What a rep produced.
#[derive(Clone, Debug)]
pub struct RepOutcome {
    /// Deterministic results (the correctness gate compares these).
    pub digest: Digest,
    /// Operations: uncached evaluations, or compiles on compile-regalloc.
    pub ops: u64,
    /// Evaluator calls (GP workloads): `ops` plus any duplicate
    /// evaluations the engine discarded after a race between workers.
    pub calls: u64,
    /// Failed operations: quarantined evaluations or compile errors.
    pub failed: u64,
    /// Evaluations whose simulated result differed from the interpreter's.
    pub wrong_answers: u64,
    /// Champion's mean speedup over the study baseline on train data.
    pub train_speedup: f64,
    /// Champion's mean speedup over the study baseline on novel data.
    pub novel_speedup: f64,
    /// Σ simulated cycles of the distinct evaluations (GP workloads).
    pub sim_cycles: u64,
    /// Memo hits (GP workloads).
    pub memo_hits: u64,
    /// Quarantined `(genome, case)` pairs (GP workloads).
    pub quarantined: u64,
    /// Per-generation logs, one per evolution run (fidelity tests).
    pub logs: Vec<Vec<GenLog>>,
    /// Champion genome keys, one per evolution run (fidelity tests).
    pub champions: Vec<String>,
    /// Compile sweep totals (compile-regalloc only).
    pub sweep: Option<Sweep>,
}

/// What an evaluator saw, across threads: its call count and the outcome
/// of each distinct `(kernel, genome)` evaluation. When two workers race
/// to evaluate the same uncached pair the engine keeps one result and
/// discards the other, so totals are taken over distinct pairs, which makes
/// them independent of the thread schedule.
#[derive(Debug, Default)]
pub struct Tally {
    calls: AtomicU64,
    outcomes: Mutex<HashMap<(String, String), Result<u64, EvalErrorKind>>>,
}

impl Tally {
    /// Record one evaluator call on `kernel` for `genome`: its simulated
    /// cycles or its error.
    pub fn record(&self, kernel: &str, genome: String, outcome: Result<u64, &EvalError>) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.outcomes
            .lock()
            .expect("tally lock poisoned")
            .entry((kernel.to_string(), genome))
            .or_insert(outcome.map_err(|e| e.kind));
    }

    /// Totals of the calls recorded so far, leaving the tally empty for
    /// the next evolution run.
    pub fn drain(&self) -> Totals {
        let mut outcomes = self.outcomes.lock().expect("tally lock poisoned");
        let totals = Totals {
            calls: self.calls.swap(0, Ordering::Relaxed),
            cycles: outcomes.values().filter_map(|r| r.as_ref().ok()).sum(),
            wrong_answers: outcomes
                .values()
                .filter(|r| **r == Err(EvalErrorKind::WrongAnswer))
                .count() as u64,
        };
        outcomes.clear();
        totals
    }
}

/// Totals from a [`Tally`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    /// Evaluator calls, including any the engine discarded after a race.
    pub calls: u64,
    /// Σ simulated cycles over distinct successful evaluations.
    pub cycles: u64,
    /// Distinct evaluations whose simulated result differed from the
    /// interpreter's.
    pub wrong_answers: u64,
}

/// [`StudyEvaluator`] with a [`Tally`]: it forwards every call and
/// recovers the simulated cycles from the returned speedup, which is
/// `baseline / cycles` and so inverts exactly for any cycle count below
/// 2^51.
pub struct TalliedEvaluator<'a> {
    inner: StudyEvaluator<'a>,
    prepared: &'a [PreparedBench],
    tally: &'a Tally,
}

impl<'a> TalliedEvaluator<'a> {
    /// Wrap the library evaluator for `study` over `prepared`.
    pub fn new(study: &'a StudyConfig, prepared: &'a [PreparedBench], tally: &'a Tally) -> Self {
        TalliedEvaluator {
            inner: StudyEvaluator::new(study, prepared),
            prepared,
            tally,
        }
    }
}

impl Evaluator for TalliedEvaluator<'_> {
    fn num_cases(&self) -> usize {
        self.inner.num_cases()
    }

    fn eval_case(&self, expr: &Expr, case: usize) -> EvalOutcome {
        self.eval_case_attempt(expr, case, 0)
    }

    fn eval_case_attempt(&self, expr: &Expr, case: usize, attempt: u32) -> EvalOutcome {
        let outcome = self.inner.eval_case_attempt(expr, case, attempt);
        let pb = &self.prepared[case];
        let cycles = match &outcome {
            EvalOutcome::Score(s) => Ok((pb.baseline_train_cycles as f64 / s).round() as u64),
            EvalOutcome::Failed(e) => Err(e),
        };
        self.tally.record(&pb.name, expr.key(), cycles);
        outcome
    }
}

/// [`StudyMultiEvaluator`] with a [`Tally`].
pub struct TalliedMultiEvaluator<'a> {
    inner: StudyMultiEvaluator<'a>,
    prepared: &'a [PreparedBench],
    tally: &'a Tally,
}

impl<'a> TalliedMultiEvaluator<'a> {
    /// Wrap the library evaluator for `study` over `prepared`.
    pub fn new(study: &'a StudyConfig, prepared: &'a [PreparedBench], tally: &'a Tally) -> Self {
        TalliedMultiEvaluator {
            inner: StudyMultiEvaluator::new(study, prepared),
            prepared,
            tally,
        }
    }
}

impl MultiEvaluator for TalliedMultiEvaluator<'_> {
    fn num_cases(&self) -> usize {
        self.inner.num_cases()
    }

    fn eval_objectives(
        &self,
        plan: &str,
        expr: &Expr,
        case: usize,
        attempt: u32,
    ) -> Result<[u64; NUM_OBJECTIVES], EvalError> {
        let r = self.inner.eval_objectives(plan, expr, case, attempt);
        let genome = format!("{plan}|{}", expr.key());
        self.tally
            .record(&self.prepared[case].name, genome, r.as_ref().map(|o| o[0]));
        r
    }
}

/// Mean of the finite entries; NaN when none are (as the experiment
/// reports compute it).
pub fn mean_finite(vals: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0u32);
    for v in vals.filter(|v| v.is_finite()) {
        sum += v;
        n += 1;
    }
    if n == 0 {
        f64::NAN
    } else {
        sum / n as f64
    }
}

/// FNV-1a, for compact digests of long strings.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x1_0000_01b3)
    })
}

/// One evolution run's share of a rep: the engine's counters, the totals
/// its evaluator saw, and its champion's report.
fn part(
    result: &EvolutionResult,
    totals: Totals,
    champion: String,
    train_speedup: f64,
    novel_speedup: f64,
) -> RepOutcome {
    RepOutcome {
        digest: Digest::default(),
        ops: result.evaluations,
        calls: totals.calls,
        failed: result.failures,
        wrong_answers: totals.wrong_answers,
        train_speedup,
        novel_speedup,
        sim_cycles: totals.cycles,
        memo_hits: result.cache_hits,
        quarantined: result.quarantined.len() as u64,
        logs: vec![result.log.clone()],
        champions: vec![champion],
        sweep: None,
    }
}

/// Several evolution runs as one rep: counts add up, and the speedups are
/// the mean of the runs' finite speedups.
fn combine(parts: Vec<RepOutcome>) -> RepOutcome {
    let sum = |f: fn(&RepOutcome) -> u64| parts.iter().map(f).sum::<u64>();
    let mut out = RepOutcome {
        digest: Digest::default(),
        ops: sum(|p| p.ops),
        calls: sum(|p| p.calls),
        failed: sum(|p| p.failed),
        wrong_answers: sum(|p| p.wrong_answers),
        train_speedup: mean_finite(parts.iter().map(|p| p.train_speedup)),
        novel_speedup: mean_finite(parts.iter().map(|p| p.novel_speedup)),
        sim_cycles: sum(|p| p.sim_cycles),
        memo_hits: sum(|p| p.memo_hits),
        quarantined: sum(|p| p.quarantined),
        logs: parts.iter().flat_map(|p| p.logs.clone()).collect(),
        champions: parts.iter().flat_map(|p| p.champions.clone()).collect(),
        sweep: None,
    };
    let mut d = Digest::default();
    d.push("evaluations", out.ops);
    d.push("memo_hits", out.memo_hits);
    d.push("quarantined", out.quarantined);
    d.push("wrong_answers", out.wrong_answers);
    d.push(
        "champion",
        format!("{:016x}", fnv1a(out.champions.join("\n").as_bytes())),
    );
    d.push("train_speedup", format!("{:?}", out.train_speedup));
    d.push("novel_speedup", format!("{:?}", out.novel_speedup));
    d.push("sim_cycles", out.sim_cycles);
    out.digest = d;
    out
}

/// GP parameters of one rep: `GpParams::quick()` with the workload's
/// population, generations, seed and workers, completed the way
/// `train_general_controlled` completes them.
pub fn train_params(
    study: &StudyConfig,
    cases: usize,
    seed: u64,
    size: (usize, usize),
) -> GpParams {
    let mut p = GpParams::quick();
    p.population = size.0;
    p.generations = size.1;
    p.seed = seed;
    p.threads = WORKERS;
    p.kind = study.genome_kind;
    if p.subset_size.is_none() && cases > 4 {
        p.subset_size = Some(cases.div_ceil(2));
    }
    p
}

/// Parameters of one kernel's co-evolution, completed the way
/// `co_evolve_controlled` completes them (seed mixed with the kernel name).
pub fn coevo_params(study: &StudyConfig, name: &str, seed: u64, size: (usize, usize)) -> GpParams {
    let mut p = GpParams::quick();
    p.population = size.0;
    p.generations = size.1;
    p.seed = seed;
    p.threads = WORKERS;
    p.kind = study.genome_kind;
    let mut h = DefaultHasher::new();
    name.hash(&mut h);
    p.seed ^= h.finish();
    p
}

/// General-purpose training over `prepared` with `evaluator`, then the
/// per-kernel train/novel report: the search and report halves of
/// `experiment::train_general_controlled`. `tally` is the evaluator's; it
/// is drained at the end.
///
/// With a recorder, the search runs inside a `gp.evolution` span.
pub fn train_general<E: Evaluator>(
    study: &StudyConfig,
    prepared: &[PreparedBench],
    params: GpParams,
    evaluator: &E,
    tally: &Tally,
    rec: Option<&Recorder>,
) -> RepOutcome {
    let result = {
        let _span = rec.map(|r| r.span("gp.evolution"));
        Evolution::new(params, &study.features, evaluator)
            .with_seeds(vec![study.baseline_seed.clone()])
            .with_config_tag(study.plan.to_string())
            .run()
    };
    let speedup =
        |pb: &PreparedBench, ds| pb.try_speedup(study, &result.best, ds).unwrap_or(f64::NAN);
    let train = mean_finite(prepared.iter().map(|pb| speedup(pb, DataSet::Train)));
    let novel = mean_finite(prepared.iter().map(|pb| speedup(pb, DataSet::Novel)));
    combine(vec![part(
        &result,
        tally.drain(),
        result.best.key(),
        train,
        novel,
    )])
}

/// One train-prefetch rep: [`TRAININGS`] independent trainings, the `k`-th
/// seeded with `seed * TRAININGS + k` so that distinct seeds never share a
/// training.
pub fn train_all<E: Evaluator>(
    study: &StudyConfig,
    prepared: &[PreparedBench],
    seed: u64,
    evaluator: &E,
    tally: &Tally,
    rec: Option<&Recorder>,
) -> RepOutcome {
    combine(
        (0..TRAININGS)
            .map(|k| {
                let seed = seed.wrapping_mul(TRAININGS).wrapping_add(k);
                let params = train_params(study, prepared.len(), seed, TRAIN_SIZE);
                train_general(study, prepared, params, evaluator, tally, rec)
            })
            .collect(),
    )
}

/// One kernel's co-evolution on all three objectives plus the champion
/// report: the search and report halves of
/// `experiment::co_evolve_controlled`. With a recorder, the search runs
/// inside a `gp.evolution` span.
pub fn coevolve_kernel<M: MultiEvaluator>(
    study: &StudyConfig,
    pb: &PreparedBench,
    params: GpParams,
    evaluator: &M,
    rec: Option<&Recorder>,
) -> (EvolutionResult, String, f64, f64) {
    let plan_space = StudyPlanSpace::new(study);
    let result = {
        let _span = rec.map(|r| r.span("gp.evolution"));
        CoEvolution::new(params, &study.features, evaluator, &plan_space)
            .with_seeds(vec![study.baseline_seed.clone()])
            .with_objectives([true; NUM_OBJECTIVES])
            .with_config_tag(study.plan.to_string())
            .run()
    };
    let champion = result.front.first().and_then(|p| {
        let plan: PipelinePlan = p.plan.parse().ok()?;
        let expr = metaopt_gp::parse::parse_expr(&p.expr, &study.features).ok()?;
        Some((plan, expr))
    });
    let (key, train, novel) = match champion {
        Some((plan, expr)) => {
            let speedup = |ds: DataSet| {
                pb.try_objectives_traced(study, &plan, &expr, ds, &Tracer::disabled())
                    .map(|o| pb.baseline_cycles(ds) as f64 / o[0] as f64)
                    .unwrap_or(f64::NAN)
            };
            (
                format!("{plan}|{}", expr.key()),
                speedup(DataSet::Train),
                speedup(DataSet::Novel),
            )
        }
        None => (String::new(), f64::NAN, f64::NAN),
    };
    (result, key, train, novel)
}

/// Co-evolution specialised to each kernel in turn; `evaluator(i)` builds
/// the evaluator for kernel `i` alone, recording into `tally`.
pub fn coevolve_all<M: MultiEvaluator>(
    study: &StudyConfig,
    prepared: &[PreparedBench],
    seed: u64,
    evaluator: impl Fn(usize) -> M,
    tally: &Tally,
    rec: Option<&Recorder>,
) -> RepOutcome {
    combine(
        prepared
            .iter()
            .enumerate()
            .map(|(i, pb)| {
                let params = coevo_params(study, &pb.name, seed, COEVO_SIZE);
                let (result, key, train, novel) =
                    coevolve_kernel(study, pb, params, &evaluator(i), rec);
                part(&result, tally.drain(), key, train, novel)
            })
            .collect(),
    )
}

/// One train-prefetch rep through the library evaluator.
pub fn train_prefetch(study: &StudyConfig, prepared: &[PreparedBench], seed: u64) -> RepOutcome {
    let tally = Tally::default();
    let evaluator = TalliedEvaluator::new(study, prepared, &tally);
    train_all(study, prepared, seed, &evaluator, &tally, None)
}

/// One coevolve-hyperblock rep through the library evaluator.
pub fn coevolve_hyperblock(
    study: &StudyConfig,
    prepared: &[PreparedBench],
    seed: u64,
) -> RepOutcome {
    let tally = Tally::default();
    coevolve_all(
        study,
        prepared,
        seed,
        |i| TalliedMultiEvaluator::new(study, std::slice::from_ref(&prepared[i]), &tally),
        &tally,
        None,
    )
}

/// The plans `metaopt check` compiles: the study's own plan, then the
/// default ablation plans, deduplicated.
pub fn sweep_plans(study: &StudyConfig) -> Vec<PipelinePlan> {
    let mut plans = vec![study.plan.clone()];
    for p in metaopt::experiment::default_ablation_plans() {
        if plans.iter().all(|q| q.to_string() != p.to_string()) {
            plans.push(p);
        }
    }
    plans
}

/// The baseline seed followed by `count` random genomes drawn from `seed`.
pub fn sweep_genomes(study: &StudyConfig, seed: u64, count: usize) -> Vec<Expr> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let depth = GpParams::quick().init_depth;
    let mut genomes = vec![study.baseline_seed.clone()];
    genomes.extend((0..count).map(|_| {
        metaopt_gp::gen::random_expr(
            &mut rng,
            &study.features,
            study.genome_kind,
            depth.0,
            depth.1,
        )
    }));
    genomes
}

/// Totals of a compile sweep.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Sweep {
    /// Compiles attempted.
    pub compiles: u64,
    /// Compiles that returned an error.
    pub failures: u64,
    /// Σ static instructions of the successful compiles.
    pub static_insts: u64,
    /// Σ spilled live ranges of the successful compiles.
    pub spills: u64,
    /// Σ validation findings (warnings on success, diagnostics on failure).
    pub findings: u64,
    /// Per genome: Σ spills and Σ static instructions under the study plan,
    /// or `None` if any kernel failed to compile under it.
    pub per_genome: Vec<Option<(u64, u64)>>,
    /// Whether every kernel compiled under the baseline seed and the study
    /// plan reproduced the set-up's baseline compile counters.
    pub baseline_matches: bool,
}

impl Sweep {
    /// Index of the genome with the fewest spills under the study plan
    /// (then fewest static instructions, then lowest index).
    pub fn champion(&self) -> Option<usize> {
        self.per_genome
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.map(|t| (t, i)))
            .min()
            .map(|(_, i)| i)
    }
}

/// Compile every kernel under every plan for every genome, at
/// [`ValidationLevel::Fast`], with `compile` (the library's, or the traced
/// replay). `genomes[0]` is the study's baseline seed, as
/// [`sweep_genomes`] returns it, and `plans[0]` the study plan.
pub fn compile_sweep(
    study: &StudyConfig,
    prepared: &[PreparedBench],
    plans: &[PipelinePlan],
    genomes: &[Expr],
    mut compile: impl FnMut(&PreparedBench, &Passes<'_>) -> Result<Compiled, CompileError>,
) -> Sweep {
    let mut sweep = Sweep {
        baseline_matches: true,
        ..Sweep::default()
    };
    for (g, genome) in genomes.iter().enumerate() {
        let pri = ExprPriority(genome);
        let mut under_study_plan = Some((0, 0));
        for pb in prepared {
            for (p, plan) in plans.iter().enumerate() {
                let passes = Passes {
                    plan: plan.clone(),
                    validate: ValidationLevel::Fast,
                    ..study.passes_with(&pri)
                };
                sweep.compiles += 1;
                match compile(pb, &passes) {
                    Ok(c) => {
                        let k = c.stats.counters;
                        sweep.static_insts += k.static_insts;
                        sweep.spills += k.spills;
                        sweep.findings += c.validation.len() as u64;
                        if p == 0 {
                            under_study_plan =
                                under_study_plan.map(|(s, i)| (s + k.spills, i + k.static_insts));
                            if g == 0 && k != pb.baseline_stats.counters {
                                sweep.baseline_matches = false;
                            }
                        }
                    }
                    Err(e) => {
                        sweep.failures += 1;
                        sweep.findings += e.diagnostics.len() as u64;
                        if p == 0 {
                            under_study_plan = None;
                            if g == 0 {
                                sweep.baseline_matches = false;
                            }
                        }
                    }
                }
            }
        }
        sweep.per_genome.push(under_study_plan);
    }
    sweep
}

/// Turn a sweep into a rep outcome. Speedups are filled in later, outside
/// the timed region.
pub fn sweep_outcome(sweep: Sweep, genomes: &[Expr]) -> RepOutcome {
    let champion = sweep
        .champion()
        .map_or_else(String::new, |i| genomes[i].key());
    let mut d = Digest::default();
    d.push("compiles", sweep.compiles);
    d.push("failures", sweep.failures);
    d.push("static_insts", sweep.static_insts);
    d.push("spills", sweep.spills);
    d.push("findings", sweep.findings);
    d.push("baseline_matches", sweep.baseline_matches);
    d.push("champion", format!("{:016x}", fnv1a(champion.as_bytes())));
    RepOutcome {
        digest: d,
        ops: sweep.compiles,
        calls: sweep.compiles,
        failed: sweep.failures,
        wrong_answers: 0,
        train_speedup: f64::NAN,
        novel_speedup: f64::NAN,
        sim_cycles: 0,
        memo_hits: 0,
        quarantined: 0,
        logs: Vec::new(),
        champions: vec![champion],
        sweep: Some(sweep),
    }
}

/// One compile-regalloc rep through the library compiler.
pub fn compile_regalloc(
    study: &StudyConfig,
    prepared: &[PreparedBench],
    genomes: &[Expr],
) -> RepOutcome {
    let plans = sweep_plans(study);
    let sweep = compile_sweep(study, prepared, &plans, genomes, |pb, passes| {
        metaopt_compiler::compile(&pb.prepared, &pb.profile, &study.machine, passes)
    });
    sweep_outcome(sweep, genomes)
}

/// The compile-regalloc champion's mean train and novel speedups over the
/// study baseline (one compile and simulation per kernel and data set).
pub fn champion_speedups(
    study: &StudyConfig,
    prepared: &[PreparedBench],
    champion: &Expr,
) -> (f64, f64) {
    let speedup = |ds| {
        mean_finite(
            prepared
                .iter()
                .map(|pb| pb.try_speedup(study, champion, ds).unwrap_or(f64::NAN)),
        )
    };
    (speedup(DataSet::Train), speedup(DataSet::Novel))
}
