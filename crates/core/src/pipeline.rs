//! Benchmark preparation and the compile-and-simulate fitness pipeline.
//!
//! Two failure regimes live here, and they are handled differently:
//!
//! * **Preparation** ([`PreparedBench::try_new`]) runs before evolution on
//!   trusted, bundled benchmarks. A failure there is a setup bug, reported
//!   as a [`PrepareError`] carrying the benchmark name.
//! * **Evaluation** ([`PreparedBench::try_eval`]) runs on *evolved*
//!   priority functions and pipeline plans, which are adversarial inputs to
//!   the compiler. Every failure — compile error, IR invariant violation,
//!   budget exhaustion, simulator fault, or a wrong answer from the
//!   compiled program — is returned as a classified
//!   [`metaopt_gp::EvalError`] so the GP engine can quarantine the genome
//!   instead of tearing down the run.

use crate::fault::{FaultInjector, FaultStage};
use crate::study::{ExprPriority, StudyConfig};
use metaopt_compiler::{compile, prepare, CompileErrorKind, CompileStats, PipelinePlan};
use metaopt_gp::{EvalError, EvalErrorKind, EvalOutcome, Expr};
use metaopt_ir::budget;
use metaopt_ir::interp::{run, RunConfig};
use metaopt_ir::profile::FuncProfile;
use metaopt_ir::Program;
use metaopt_sim::exec::{jitter, simulate_traced, SimError};
use metaopt_sim::machine::MachineConfig;
use metaopt_sim::BytecodeProgram;
use metaopt_suite::{Benchmark, DataSet, SuiteError};
use metaopt_trace::{json::Value, Tracer};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock};
use std::{panic, thread};

/// Failure while preparing a benchmark for evaluation (loading, inlining,
/// interpreting the reference run, or timing the baseline). These occur
/// before any evolved genome is involved, so they indicate a broken setup
/// rather than a bad genome.
#[derive(Clone, Debug)]
pub struct PrepareError {
    /// Benchmark that failed to prepare.
    pub bench: String,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for PrepareError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cannot prepare benchmark {}: {}",
            self.bench, self.message
        )
    }
}

impl std::error::Error for PrepareError {}

impl From<SuiteError> for PrepareError {
    fn from(e: SuiteError) -> Self {
        let (bench, message) = match e {
            SuiteError::Compile { bench, message } => (bench, message),
            SuiteError::MissingDataseed { bench } => {
                (bench, "source lacks a dataseed global".to_string())
            }
        };
        PrepareError {
            bench: bench.to_string(),
            message,
        }
    }
}

/// One compile-and-simulate request against a [`PreparedBench`]: the
/// paper's fitness measurement (Fig. 2). A field left `None` keeps the
/// study's shipped configuration.
#[derive(Clone, Copy)]
pub struct EvalRequest<'a> {
    /// Priority function for the study's slot; `None` keeps the baseline
    /// heuristic.
    pub expr: Option<&'a Expr>,
    /// Pipeline plan to compile under; `None` keeps the study's plan.
    pub plan: Option<&'a PipelinePlan>,
    /// Data set to simulate on.
    pub ds: DataSet,
    /// Sink for the compile's `pass` events and the run's `sim` event.
    pub tracer: &'a Tracer,
}

/// What one [`EvalRequest`] measured.
#[derive(Clone, Debug)]
pub struct Evaluation {
    /// Simulated cycles, timing noise included, of a run whose result
    /// matched the interpreter's.
    pub cycles: u64,
    /// Compile statistics, including per-pass timing.
    pub stats: CompileStats,
}

/// A benchmark made ready for repeated fitness evaluation: inlined IR,
/// training profile, per-data-set memory images and interpreter ground
/// truth, plus the baseline compilation's cycle counts.
pub struct PreparedBench {
    /// Benchmark name.
    pub name: String,
    /// Inlined, cleaned program (single function).
    pub prepared: Program,
    /// Profile collected on the training data (what the compiler sees).
    pub profile: FuncProfile,
    /// Baseline cycles on the training data.
    pub baseline_train_cycles: u64,
    /// Baseline cycles on the novel data.
    pub baseline_novel_cycles: u64,
    /// Baseline compile statistics.
    pub baseline_stats: CompileStats,
    /// The study machine with the per-evaluation instruction budget
    /// ([`budget::EVAL_MAX_SIM_INSTS`]) so a pathological genome cannot
    /// stall a worker for the full default limit. Budgets only bound the
    /// abort point, never the cycle count of a run that finishes, so
    /// fitness is unaffected.
    eval_machine: MachineConfig,
    train_mem: Vec<u8>,
    novel_mem: Vec<u8>,
    train_ret: i64,
    novel_ret: i64,
}

impl PreparedBench {
    /// Prepare `bench` for `study`: inline, profile on the train data,
    /// verify both data sets in the interpreter, and time the baseline.
    pub fn try_new(study: &StudyConfig, bench: &Benchmark) -> Result<Self, PrepareError> {
        let err = |message: String| PrepareError {
            bench: bench.name.to_string(),
            message,
        };
        let prog = bench.try_program()?;
        let prepared = prepare(&prog).map_err(|e| err(format!("inlining failed: {e}")))?;
        let train_mem = bench.try_memory(&prepared, DataSet::Train)?;
        let novel_mem = bench.try_memory(&prepared, DataSet::Novel)?;

        let reference_run = |mem: &[u8], profile| {
            run(
                &prepared,
                &RunConfig {
                    memory: Some(mem.to_vec()),
                    profile,
                    max_steps: budget::KERNEL_VERIFY_MAX_STEPS,
                    ..Default::default()
                },
            )
        };
        // The two data sets are independent until the baselines, which need
        // only the train profile, so each phase runs the novel half on one
        // spawned thread beside the train half. Results are checked train
        // first, as a serial preparation would, and a panic on the spawned
        // thread surfaces only where the serial code would have reached it.
        let (train_out, novel_out) = thread::scope(|s| {
            let novel = s.spawn(|| reference_run(&novel_mem, false));
            (reference_run(&train_mem, true), novel.join())
        });
        let train_out =
            train_out.map_err(|e| err(format!("reference run on train data failed: {e}")))?;
        let novel_out = novel_out
            .unwrap_or_else(|p| panic::resume_unwind(p))
            .map_err(|e| err(format!("reference run on novel data failed: {e}")))?;
        let profile = train_out
            .profile
            .expect("profile requested")
            .funcs
            .swap_remove(0);

        let mut eval_machine = study.machine.clone();
        eval_machine.max_insts = budget::EVAL_MAX_SIM_INSTS;
        // The cooperative deadline: the simulator checks the cycle budget
        // every bundle, so even a low-IPC pathological schedule terminates
        // deterministically — the GP evaluation core's hang bound.
        eval_machine.max_cycles = budget::EVAL_MAX_SIM_CYCLES;
        let mut pb = PreparedBench {
            name: bench.name.to_string(),
            prepared,
            profile,
            baseline_train_cycles: 0,
            baseline_novel_cycles: 0,
            baseline_stats: CompileStats::default(),
            eval_machine,
            train_mem,
            novel_mem,
            train_ret: train_out.ret,
            novel_ret: novel_out.ret,
        };
        // The baseline heuristic is timed through the evaluation core, at
        // noise seed 0 and under the study machine's full budgets.
        let (train, novel) = {
            let off = Tracer::disabled();
            let baseline = |ds| {
                let req = EvalRequest {
                    expr: None,
                    plan: None,
                    ds,
                    tracer: &off,
                };
                pb.eval(study, &req, &study.machine, None, None)
                    .map_err(|e| err(format!("baseline failed: {e}")))
            };
            thread::scope(|s| {
                let novel = s.spawn(|| baseline(DataSet::Novel));
                (baseline(DataSet::Train), novel.join())
            })
        };
        let train = train?;
        let novel = novel.unwrap_or_else(|p| panic::resume_unwind(p))?;
        pb.baseline_train_cycles = train.cycles;
        pb.baseline_novel_cycles = novel.cycles;
        pb.baseline_stats = train.stats;
        Ok(pb)
    }

    /// Panicking convenience wrapper around [`PreparedBench::try_new`] for
    /// tests, examples, and benches where a broken bundled benchmark should
    /// abort loudly.
    ///
    /// # Panics
    /// Panics if the bundled benchmark fails to compile, run, or verify.
    pub fn new(study: &StudyConfig, bench: &Benchmark) -> Self {
        Self::try_new(study, bench).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Compile and simulate one [`EvalRequest`], differentially verifying
    /// the program result against the interpreter's.
    pub fn try_eval(
        &self,
        study: &StudyConfig,
        req: &EvalRequest<'_>,
    ) -> Result<Evaluation, EvalError> {
        self.eval(study, req, &self.eval_machine, None, None)
    }

    /// Speedup of `expr` over the baseline heuristic on `ds`.
    pub fn try_speedup(
        &self,
        study: &StudyConfig,
        expr: &Expr,
        ds: DataSet,
    ) -> Result<f64, EvalError> {
        let req = EvalRequest {
            expr: Some(expr),
            plan: None,
            ds,
            tracer: &Tracer::disabled(),
        };
        Ok(self.baseline_cycles(ds) as f64 / self.try_eval(study, &req)?.cycles as f64)
    }

    /// Baseline cycles on `ds`.
    pub fn baseline_cycles(&self, ds: DataSet) -> u64 {
        match ds {
            DataSet::Train => self.baseline_train_cycles,
            DataSet::Novel => self.baseline_novel_cycles,
        }
    }

    /// Compile with `expr` in the study's priority slot **under an
    /// arbitrary legal pipeline plan** and simulate on `ds` — the joint
    /// workload of co-evolution. Returns the multi-objective vector
    /// (all minimized):
    ///
    /// * `cycles` — simulated cycles, differentially verified;
    /// * `size` — static instruction count of the compiled code;
    /// * `compile` — a deterministic compile-cost proxy,
    ///   `plan length × static instructions` (the pass-sweep work bound).
    ///   Measured wall time would make selection depend on host load and
    ///   thread count, breaking the engine's bit-identical determinism
    ///   contract; wall nanos stay observable via `pass` trace events and
    ///   `metaopt ablate --json` instead.
    pub fn try_objectives_traced(
        &self,
        study: &StudyConfig,
        plan: &PipelinePlan,
        expr: &Expr,
        ds: DataSet,
        tracer: &Tracer,
    ) -> Result<[u64; 3], EvalError> {
        let req = EvalRequest {
            expr: Some(expr),
            plan: Some(plan),
            ds,
            tracer,
        };
        Ok(objectives(plan, self.try_eval(study, &req)?))
    }

    /// The one compile-and-simulate core behind every evaluation: compile
    /// `req`, simulate it on `machine`, and check the result. `fault` is an
    /// optional injector with the engine's retry attempt; only the
    /// (transient) timeout stage is attempt-sensitive. `memo` is the
    /// calling evaluator's [`SimMemo`] with this bench's case number; its
    /// key leaves the machine out, so evaluators always pass
    /// `self.eval_machine` with it.
    fn eval(
        &self,
        study: &StudyConfig,
        req: &EvalRequest<'_>,
        machine: &MachineConfig,
        fault: Option<(&FaultInjector, u32)>,
        memo: Option<(&SimMemo, usize)>,
    ) -> Result<Evaluation, EvalError> {
        let key = req.expr.map(Expr::key).unwrap_or_default();
        let inject = |stage, attempt| match fault {
            Some((f, _)) => f.check_at(stage, &key, &self.name, attempt),
            None => Ok(()),
        };
        inject(FaultStage::Compile, 0)?;
        let pri = req.expr.map(ExprPriority);
        let mut passes = match &pri {
            Some(pri) => study.passes_with(pri),
            None => study.baseline_passes(),
        };
        if let Some(plan) = req.plan {
            passes.plan = plan.clone();
        }
        passes.tracer = req.tracer.clone();
        let compiled =
            compile(&self.prepared, &self.profile, &study.machine, &passes).map_err(|e| {
                let kind = match e.kind {
                    CompileErrorKind::InvariantViolation => EvalErrorKind::IrCheck,
                    CompileErrorKind::Validation => EvalErrorKind::Validation,
                    _ => EvalErrorKind::Compile,
                };
                let message = match req.plan {
                    Some(plan) => format!("{}: plan {plan}: {e}", self.name),
                    None => format!("{}: {e}", self.name),
                };
                EvalError::new(kind, message)
            })?;
        inject(FaultStage::CheckIr, 0)?;
        inject(FaultStage::Validate, 0)?;
        inject(FaultStage::Timeout, fault.map_or(0, |(_, attempt)| attempt))?;
        inject(FaultStage::Simulate, 0)?;

        let ds = req.ds;
        let (image, expected) = match ds {
            DataSet::Train => (&self.train_mem, self.train_ret),
            DataSet::Novel => (&self.novel_mem, self.novel_ret),
        };
        let mem_len = compiled.mem_size.max(image.len());
        let run = || {
            let mut mem = image.clone();
            mem.resize(mem_len, 0);
            simulate_traced(
                &compiled.code,
                machine,
                mem,
                None,
                study.sim_tier,
                req.tracer,
            )
            .map(|r| SimRun {
                cycles: r.cycles,
                ret: r.ret,
            })
        };
        let outcome = match memo {
            Some((memo, case)) => {
                let code = BytecodeProgram::compile(&compiled.code, machine);
                let key = SimKey {
                    case,
                    ds,
                    mem_len,
                    code,
                };
                memo.get_or_run(key, run)
            }
            None => run(),
        };
        let result = outcome.map_err(|e| match e {
            SimError::InstLimit(n) => EvalError::new(
                EvalErrorKind::Budget,
                format!(
                    "{}: simulation exceeded the {n}-instruction budget on {ds:?}",
                    self.name
                ),
            ),
            // The cooperative deadline is deterministic (a property of
            // the genome's schedule, not of the host), so it classifies
            // as a permanent budget fault — retrying would be futile.
            SimError::CycleLimit(n) => EvalError::new(
                EvalErrorKind::Budget,
                format!(
                    "{}: simulation exceeded the {n}-cycle cooperative deadline on {ds:?}",
                    self.name
                ),
            ),
            other => EvalError::new(
                EvalErrorKind::Sim,
                format!("{}: simulation fault on {ds:?}: {other}", self.name),
            ),
        })?;
        if result.ret != expected {
            return Err(EvalError::new(
                EvalErrorKind::WrongAnswer,
                format!(
                    "{}: compiled program returned {} but the interpreter returned {expected} \
                     on {ds:?} — a compiler bug exposed by a priority function",
                    self.name, result.ret
                ),
            ));
        }

        // Timing noise (if the study has any) is seeded deterministically
        // from the genome (expression, and plan when given) and data set, so
        // memoized fitness stays consistent while distinct genomes still see
        // distinct measurement error — the situation GP must tolerate on a
        // real machine (paper §7.1). The baseline heuristic runs at seed 0.
        // It is part of the measurement, not of the run, so it applies after
        // the memo: genomes that compile to one program share its run but
        // not its noise.
        let cycles = if study.noise > 0.0 {
            let seed = match req.expr {
                None => 0,
                Some(_) => {
                    let mut h = DefaultHasher::new();
                    key.hash(&mut h);
                    if let Some(plan) = req.plan {
                        plan.to_string().hash(&mut h);
                    }
                    self.name.hash(&mut h);
                    (ds == DataSet::Novel).hash(&mut h);
                    h.finish()
                }
            };
            jitter(result.cycles, study.noise, seed)
        } else {
            result.cycles
        };
        Ok(Evaluation {
            cycles,
            stats: compiled.stats,
        })
    }
}

/// The co-evolution objective vector of an evaluation under `plan`: see
/// [`PreparedBench::try_objectives_traced`].
fn objectives(plan: &PipelinePlan, e: Evaluation) -> [u64; 3] {
    let size = e.stats.counters.static_insts;
    [
        e.cycles,
        size,
        (plan.steps().len() as u64).saturating_mul(size),
    ]
}

/// The noise-free outcome of one simulator run, as far as the evaluation
/// core reads it.
#[derive(Clone, Copy)]
struct SimRun {
    cycles: u64,
    ret: i64,
}

/// What makes two simulator runs of one evaluator the same run: the case
/// (which fixes the bench, and with it the machine and the memory images),
/// the data set, the length the memory image is resized to, and the
/// lowered program. The program is compared as bytecode, not as a
/// `MachineProgram`, whose derived `==` calls the immediates `0.0` and
/// `-0.0` equal.
#[derive(PartialEq, Eq, Hash)]
struct SimKey {
    case: usize,
    ds: DataSet,
    mem_len: usize,
    code: BytecodeProgram,
}

/// A study evaluator's exact simulation memo: each distinct [`SimKey`] is
/// simulated once per evaluator, at any thread count. Simulation is a pure
/// function of program, machine and memory image, so a remembered outcome
/// is the outcome a new run would give; the memo keeps only the key and
/// the small [`SimRun`], never a final memory image.
///
/// Each key holds a once-cell, taken under the map lock and filled outside
/// it: a second request for a key whose run is in flight waits for that
/// run instead of repeating it, and a run that panics leaves its cell
/// empty, so the next request runs (and panics) again.
///
/// The memo belongs to an evaluator, which is built once per search, and
/// never to a [`PreparedBench`], which outlives searches: every search
/// starts cold, as it did before the memo.
#[derive(Default)]
struct SimMemo {
    runs: Mutex<HashMap<SimKey, Arc<SimCell>>>,
}

/// One key's outcome, filled by the key's first run.
type SimCell = OnceLock<Result<SimRun, SimError>>;

impl SimMemo {
    /// The outcome of `key`: remembered, or `run()`'s on the first request.
    /// A remembered outcome emits no `sim` event.
    fn get_or_run(
        &self,
        key: SimKey,
        run: impl FnOnce() -> Result<SimRun, SimError>,
    ) -> Result<SimRun, SimError> {
        let cell = Arc::clone(
            self.runs
                .lock()
                .expect("no code panics under the memo lock")
                .entry(key)
                .or_default(),
        );
        cell.get_or_init(run).clone()
    }
}

/// GP fitness evaluator over a set of prepared benchmarks, for both loops:
/// case *i* is benchmark *i*'s training data. As a [`metaopt_gp::Evaluator`]
/// it scores an expression by its speedup over the baseline (paper §4:
/// "total execution time" / Table 2: "average speedup over the baseline");
/// as a [`metaopt_gp::MultiEvaluator`], a `(plan, expr)` genome compiled
/// under its own plan by the objective vector of
/// [`PreparedBench::try_objectives_traced`].
///
/// Evaluation failures are returned with a classified error; the GP engine
/// quarantines the genome and assigns the penalty fitness. With the
/// `fault-inject` feature, an optional [`FaultInjector`] can
/// deterministically force such failures for robustness testing.
///
/// Genomes that compile to the same program on the same case share one
/// simulator run: the evaluator remembers each distinct program's
/// noise-free outcome for its lifetime, and applies each genome's own noise
/// to it. Build one evaluator per search.
pub struct StudyEvaluator<'a> {
    study: &'a StudyConfig,
    benches: &'a [PreparedBench],
    fault: Option<FaultInjector>,
    tracer: Tracer,
    memo: SimMemo,
}

/// The name co-evolution's callers know [`StudyEvaluator`] by.
pub type StudyMultiEvaluator<'a> = StudyEvaluator<'a>;

impl<'a> StudyEvaluator<'a> {
    /// Evaluator for `study` over the prepared training cases.
    pub fn new(study: &'a StudyConfig, benches: &'a [PreparedBench]) -> Self {
        StudyEvaluator {
            study,
            benches,
            fault: None,
            tracer: Tracer::disabled(),
            memo: SimMemo::default(),
        }
    }

    /// Emit `pass` events for every evaluation and a `sim` event for every
    /// simulator run (stamped with the benchmark name) into `tracer`.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Attach a deterministic fault injector (robustness testing only).
    #[cfg(feature = "fault-inject")]
    pub fn with_fault(mut self, injector: FaultInjector) -> Self {
        self.fault = Some(injector);
        self
    }

    /// Number of training cases (prepared benchmarks), as both evaluator
    /// traits report it.
    pub fn num_cases(&self) -> usize {
        self.benches.len()
    }

    /// Compile `expr` under `plan` (or the study's) and simulate it on case
    /// `case`'s training data, through the memo, at retry `attempt`.
    fn evaluate(
        &self,
        expr: &Expr,
        plan: Option<&PipelinePlan>,
        case: usize,
        attempt: u32,
    ) -> Result<Evaluation, EvalError> {
        let pb = &self.benches[case];
        let tracer = self
            .tracer
            .scoped([("bench", Value::str(pb.name.as_str()))]);
        let req = EvalRequest {
            expr: Some(expr),
            plan,
            ds: DataSet::Train,
            tracer: &tracer,
        };
        let fault = self.fault.as_ref().map(|f| (f, attempt));
        let memo = Some((&self.memo, case));
        pb.eval(self.study, &req, &pb.eval_machine, fault, memo)
    }
}

impl metaopt_gp::Evaluator for StudyEvaluator<'_> {
    fn num_cases(&self) -> usize {
        StudyEvaluator::num_cases(self)
    }

    fn eval_case(&self, expr: &Expr, case: usize) -> EvalOutcome {
        self.eval_case_attempt(expr, case, 0)
    }

    fn eval_case_attempt(&self, expr: &Expr, case: usize, attempt: u32) -> EvalOutcome {
        let pb = &self.benches[case];
        match self.evaluate(expr, None, case, attempt) {
            Ok(e) => EvalOutcome::Score(pb.baseline_train_cycles as f64 / e.cycles as f64),
            Err(e) => EvalOutcome::Failed(e),
        }
    }
}

impl metaopt_gp::MultiEvaluator for StudyEvaluator<'_> {
    fn num_cases(&self) -> usize {
        StudyEvaluator::num_cases(self)
    }

    fn eval_objectives(
        &self,
        plan: &str,
        expr: &Expr,
        case: usize,
        attempt: u32,
    ) -> Result<[u64; 3], EvalError> {
        let pb = &self.benches[case];
        let plan: PipelinePlan = plan.parse().map_err(|e| {
            EvalError::new(
                EvalErrorKind::Compile,
                format!("{}: unparseable pipeline plan {plan:?}: {e}", pb.name),
            )
        })?;
        let evaluation = self.evaluate(expr, Some(&plan), case, attempt)?;
        Ok(objectives(&plan, evaluation))
    }
}

/// The plan half of the co-evolution search space: seeds, genetic
/// operators, and validity over canonical plan strings, delegating to the
/// compiler's structural grammar and `plan_ops` operators. Implemented
/// here (not in the GP crate) so the engine stays compiler-agnostic.
pub struct StudyPlanSpace {
    seeds: Vec<PipelinePlan>,
}

impl StudyPlanSpace {
    /// Plan space seeded with the study's own plan and the minimal legal
    /// plan. The minimal plan has the strictly smallest compile-cost and
    /// size objectives of any legal pipeline, so fronts start with a
    /// genuine trade-off axis already populated.
    pub fn new(study: &StudyConfig) -> Self {
        let mut seeds = vec![PipelinePlan::minimal(), study.plan.clone()];
        seeds.dedup_by_key(|p| p.to_string());
        StudyPlanSpace { seeds }
    }
}

impl metaopt_gp::PlanSpace for StudyPlanSpace {
    fn seed_plans(&self) -> Vec<String> {
        self.seeds.iter().map(|p| p.to_string()).collect()
    }

    fn mutate_plan(&self, rng: &mut rand::rngs::StdRng, plan: &str) -> String {
        let plan: PipelinePlan = plan.parse().expect("plan genomes are canonical");
        metaopt_compiler::plan_ops::mutate_plan(rng, &plan).to_string()
    }

    fn crossover_plans(&self, rng: &mut rand::rngs::StdRng, a: &str, b: &str) -> String {
        let a: PipelinePlan = a.parse().expect("plan genomes are canonical");
        let b: PipelinePlan = b.parse().expect("plan genomes are canonical");
        metaopt_compiler::plan_ops::crossover_plans(rng, &a, &b).to_string()
    }

    fn is_valid(&self, plan: &str) -> bool {
        plan.parse::<PipelinePlan>()
            .is_ok_and(|p| p.to_string() == plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study;

    /// Untraced cycles of `expr` under the study's plan on `ds`.
    fn cycles_with(pb: &PreparedBench, cfg: &StudyConfig, expr: &Expr, ds: DataSet) -> u64 {
        let req = EvalRequest {
            expr: Some(expr),
            plan: None,
            ds,
            tracer: &Tracer::disabled(),
        };
        pb.try_eval(cfg, &req)
            .unwrap_or_else(|e| panic!("{e}"))
            .cycles
    }

    #[test]
    fn baseline_seed_reproduces_baseline_cycles() {
        // Compiling with the GP-expressed baseline seed must give exactly
        // the native baseline's cycle count (the seed is Eq. 1).
        let cfg = study::hyperblock();
        let bench = metaopt_suite::by_name("unepic").unwrap();
        let pb = PreparedBench::new(&cfg, &bench);
        let cycles = cycles_with(&pb, &cfg, &cfg.baseline_seed, DataSet::Train);
        assert_eq!(cycles, pb.baseline_train_cycles);
    }

    #[test]
    fn disabling_ifconversion_changes_cycles() {
        let cfg = study::hyperblock();
        let bench = metaopt_suite::by_name("rawdaudio").unwrap();
        let pb = PreparedBench::new(&cfg, &bench);
        let never = metaopt_gp::parse::parse_expr("(rconst -1.0)", &cfg.features).unwrap();
        let c = cycles_with(&pb, &cfg, &never, DataSet::Train);
        assert_ne!(c, pb.baseline_train_cycles);
    }

    #[test]
    fn prefetch_study_runs_with_noise() {
        let cfg = study::prefetch();
        let bench = metaopt_suite::by_name("102.swim").unwrap();
        let pb = PreparedBench::new(&cfg, &bench);
        let always = metaopt_gp::parse::parse_expr("(bconst true)", &cfg.features).unwrap();
        let never = metaopt_gp::parse::parse_expr("(bconst false)", &cfg.features).unwrap();
        let ca = cycles_with(&pb, &cfg, &always, DataSet::Train);
        let cn = cycles_with(&pb, &cfg, &never, DataSet::Train);
        assert!(ca > 0 && cn > 0);
        // Identical inputs give identical (memoizable) results.
        assert_eq!(ca, cycles_with(&pb, &cfg, &always, DataSet::Train));
    }

    #[test]
    fn noise_seeds_follow_the_request() {
        // Fitness on the noisy prefetch study, pinned: the noise seed is 0
        // without an expression, hashes (expression, bench, data set) with
        // one, and hashes the plan too when the request names one.
        let cfg = study::prefetch();
        let pb = PreparedBench::new(&cfg, &metaopt_suite::by_name("102.swim").unwrap());
        let off = Tracer::disabled();
        let seed = Some(&cfg.baseline_seed);
        for (ds, expr_only, with_plan) in [
            (DataSet::Train, 1077267, 1075910),
            (DataSet::Novel, 1072834, 1075881),
        ] {
            let cycles = |expr, plan| {
                let req = EvalRequest {
                    expr,
                    plan,
                    ds,
                    tracer: &off,
                };
                pb.try_eval(&cfg, &req).unwrap().cycles
            };
            assert_eq!(cycles(seed, None), expr_only);
            assert_eq!(cycles(seed, Some(&cfg.plan)), with_plan);
            assert_eq!(cycles(None, Some(&cfg.plan)), 1070714);
            assert_eq!(cycles(None, None), 1070714);
            assert_eq!(pb.baseline_cycles(ds), 1070714);
            let objectives =
                pb.try_objectives_traced(&cfg, &cfg.plan, &cfg.baseline_seed, ds, &off);
            assert_eq!(objectives.unwrap(), [with_plan, 265, 795]);
        }
    }

    #[test]
    fn regalloc_study_spills_on_stressed_machine() {
        let cfg = study::regalloc();
        let bench = metaopt_suite::by_name("g721encode").unwrap();
        let pb = PreparedBench::new(&cfg, &bench);
        assert!(pb.baseline_train_cycles > 0);
    }

    #[test]
    fn evaluator_scores_the_baseline_seed_at_one() {
        let cfg = study::hyperblock();
        let bench = metaopt_suite::by_name("unepic").unwrap();
        let benches = [PreparedBench::new(&cfg, &bench)];
        let ev = StudyEvaluator::new(&cfg, &benches);
        let out = metaopt_gp::Evaluator::eval_case(&ev, &cfg.baseline_seed, 0);
        match out {
            EvalOutcome::Score(s) => assert!((s - 1.0).abs() < 1e-12, "speedup {s}"),
            EvalOutcome::Failed(e) => panic!("baseline seed failed: {e}"),
        }
    }

    #[test]
    fn evaluator_simulates_each_distinct_program_once() {
        // Equivalent genomes compile to one program per case. The evaluator
        // runs each program once, yet every score has the bits of an
        // unshared evaluation, each genome's own noise included.
        let cfg = study::prefetch();
        let benches = ["102.swim", "101.tomcatv"]
            .map(|name| PreparedBench::new(&cfg, &metaopt_suite::by_name(name).unwrap()));
        let metrics = metaopt_trace::metrics::MetricsRegistry::new();
        let tracer = Tracer::in_memory().with_metrics(metrics.clone());
        let ev = StudyEvaluator::new(&cfg, &benches).with_tracer(tracer.clone());
        let genomes = [
            "(bconst true)",
            "(or (bconst true) (barg trip_known))",
            "(bconst false)",
            "(and (bconst false) (barg trip_known))",
            "(barg trip_known)",
        ];
        let mut programs = std::collections::HashSet::new();
        let mut scores = Vec::new();
        for text in genomes {
            let expr = metaopt_gp::parse::parse_expr(text, &cfg.features).unwrap();
            for (case, pb) in benches.iter().enumerate() {
                let EvalOutcome::Score(score) = metaopt_gp::Evaluator::eval_case(&ev, &expr, case)
                else {
                    panic!("{text} failed on {}", pb.name);
                };
                let cycles = cycles_with(pb, &cfg, &expr, DataSet::Train);
                let unshared = pb.baseline_train_cycles as f64 / cycles as f64;
                assert_eq!(score.to_bits(), unshared.to_bits(), "{text} on {}", pb.name);
                scores.push(score);
                let pri = ExprPriority(&expr);
                let passes = cfg.passes_with(&pri);
                let compiled = compile(&pb.prepared, &pb.profile, &cfg.machine, &passes).unwrap();
                programs.insert((
                    case,
                    compiled.mem_size.max(pb.train_mem.len()),
                    BytecodeProgram::compile(&compiled.code, &pb.eval_machine),
                ));
            }
        }
        let sims = tracer
            .lines()
            .unwrap()
            .iter()
            .filter(|l| l.contains(r#""type":"sim""#))
            .count();
        assert_eq!(sims, programs.len());
        assert!(sims < scores.len(), "no two genomes shared a program");
        // The live digest counts the same runs; every other evaluation was
        // answered by the memo.
        assert_eq!(metrics.report().sims.0 as usize, sims);
        // `(bconst true)` and its equivalent share a run but not its noise.
        assert_ne!(scores[0], scores[2]);
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn injected_faults_surface_as_classified_failures() {
        let cfg = study::hyperblock();
        let bench = metaopt_suite::by_name("unepic").unwrap();
        let benches = [PreparedBench::new(&cfg, &bench)];
        // Only the per-evaluation pipeline stages surface through
        // `eval_case`; `CacheCorrupt` acts at the storage layer and is
        // exercised through the fitness store's corruption hook instead.
        for stage in FaultStage::EVAL {
            let ev = StudyEvaluator::new(&cfg, &benches)
                .with_fault(FaultInjector::new(0).with_rate(stage, 1.0));
            match metaopt_gp::Evaluator::eval_case(&ev, &cfg.baseline_seed, 0) {
                EvalOutcome::Failed(e) => {
                    assert_eq!(e.kind, stage.kind());
                    assert!(e.injected);
                }
                EvalOutcome::Score(s) => panic!("expected injected failure, got score {s}"),
            }
        }
    }
}
