//! The traced run: set-up, evaluation and compilation replayed from the
//! library's public calls, with a span around each call into a layer.
//!
//! Each replay mirrors the library function it stands in for step by step
//! (`PreparedBench::try_new`, `PreparedBench`'s evaluation path, and
//! `metaopt_compiler::compile` with its pass manager), so it does the same
//! work in the same order; the run checks that its results are identical
//! to the untraced run's before any per-layer number is reported.

use crate::spans::Recorder;
use crate::workload::Tally;
use metaopt::pipeline::PreparedBench;
use metaopt::study::{ExprPriority, StudyConfig};
use metaopt_compiler::{
    CompileError, CompileErrorKind, Compiled, PassCtx, PassManager, PassStat, Passes, PipelinePlan,
    ValidationLevel,
};
use metaopt_gp::pareto::NUM_OBJECTIVES;
use metaopt_gp::{EvalError, EvalErrorKind, EvalOutcome, Evaluator, Expr, MultiEvaluator};
use metaopt_ir::budget;
use metaopt_ir::interp::{self, RunConfig};
use metaopt_ir::profile::FuncProfile;
use metaopt_ir::{Function, Program};
use metaopt_sim::exec::SimError;
use metaopt_sim::{BytecodeProgram, MachineConfig, SimTier};
use metaopt_suite::{Benchmark, DataSet};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// What `PreparedBench` keeps private but an evaluation needs: the
/// training data's memory image, the interpreter's result on it, and the
/// evaluation machine with its per-evaluation budgets.
pub struct Replica {
    train_mem: Vec<u8>,
    train_ret: i64,
    eval_machine: MachineConfig,
}

/// Replay `PreparedBench::try_new(study, bench)` with spans and check that
/// it reproduces `reference` (the untraced set-up's result).
pub fn prepare(
    rec: &Recorder,
    study: &StudyConfig,
    bench: &Benchmark,
    reference: &PreparedBench,
) -> Result<Replica, String> {
    let err = |m: String| format!("{}: {m}", bench.name);
    let _kernel = rec.span("core.prepared_bench");
    let prog = {
        let _s = rec.span("lang.frontend");
        bench.try_program().map_err(|e| err(e.to_string()))?
    };
    let prepared = {
        let _s = rec.span("compiler.prepare");
        metaopt_compiler::prepare(&prog).map_err(|e| err(e.to_string()))?
    };
    let train_mem = bench
        .try_memory(&prepared, DataSet::Train)
        .map_err(|e| err(e.to_string()))?;
    let novel_mem = bench
        .try_memory(&prepared, DataSet::Novel)
        .map_err(|e| err(e.to_string()))?;
    let interp = |mem: &Vec<u8>, profile: bool| {
        let mut s = rec.span("ir.interp");
        let out = interp::run(
            &prepared,
            &RunConfig {
                memory: Some(mem.clone()),
                profile,
                max_steps: budget::KERNEL_VERIFY_MAX_STEPS,
                ..Default::default()
            },
        )
        .map_err(|e| err(format!("reference run failed: {e}")))?;
        s.count("ir.interp_steps", out.steps);
        Ok::<_, String>(out)
    };
    let train_out = interp(&train_mem, true)?;
    interp(&novel_mem, false)?;
    let profile = train_out.profile.expect("profile requested").funcs[0].clone();

    let (stats, train_cycles, novel_cycles) = {
        let _s = rec.span("core.baseline");
        let compiled = metaopt_compiler::compile(
            &prepared,
            &profile,
            &study.machine,
            &study.baseline_passes(),
        )
        .map_err(|e| err(format!("baseline compilation failed: {e}")))?;
        let noise = (study.noise > 0.0).then_some((study.noise, 0));
        let time = |mem: &Vec<u8>| {
            let mut mem = mem.clone();
            mem.resize(compiled.mem_size.max(mem.len()), 0);
            metaopt_sim::exec::simulate_traced(
                &compiled.code,
                &study.machine,
                mem,
                noise,
                study.sim_tier,
                &metaopt_trace::Tracer::disabled(),
            )
            .map(|r| r.cycles)
            .map_err(|e| err(format!("baseline timing failed: {e}")))
        };
        (
            compiled.stats.counters,
            time(&train_mem)?,
            time(&novel_mem)?,
        )
    };

    // Program and FuncProfile implement no equality and hold hash maps, so
    // compare their ordered parts.
    let (r, p) = (&reference.profile, &profile);
    let same = format!("{:?}", reference.prepared.funcs) == format!("{:?}", prepared.funcs)
        && format!("{:?}", reference.prepared.globals) == format!("{:?}", prepared.globals)
        && r.block_counts == p.block_counts
        && r.edge_counts == p.edge_counts
        && r.branches == p.branches
        && reference.baseline_stats.counters == stats
        && reference.baseline_train_cycles == train_cycles
        && reference.baseline_novel_cycles == novel_cycles;
    if !same {
        return Err(err(
            "traced set-up differs from PreparedBench::try_new".into()
        ));
    }
    let mut eval_machine = study.machine.clone();
    eval_machine.max_insts = budget::EVAL_MAX_SIM_INSTS;
    eval_machine.max_cycles = budget::EVAL_MAX_SIM_CYCLES;
    Ok(Replica {
        train_mem,
        train_ret: train_out.ret,
        eval_machine,
    })
}

fn pass_span(pass: &str) -> &'static str {
    match pass {
        "unroll" => "compiler.pass.unroll",
        "prefetch" => "compiler.pass.prefetch",
        "hyperblock" => "compiler.pass.hyperblock",
        "regalloc" => "compiler.pass.regalloc",
        _ => "compiler.pass.schedule",
    }
}

fn validate_span(pass: &str) -> &'static str {
    match pass {
        "unroll" => "analysis.validate.unroll",
        "prefetch" => "analysis.validate.prefetch",
        "hyperblock" => "analysis.validate.hyperblock",
        "regalloc" => "analysis.validate.regalloc",
        _ => "analysis.validate.schedule",
    }
}

/// Replay `metaopt_compiler::compile` pass by pass
/// (`PassManager::from_plan(..).passes()`, `Pass::run`, then the
/// `metaopt_analysis::validate_*` translation validator when validation is
/// on), with a span around each pass and each validator.
///
/// Supports the configurations the benchmark runs: no IR invariant
/// checking, validation off or fast.
pub fn compile(
    rec: &Recorder,
    prepared: &Program,
    profile: &FuncProfile,
    machine: &MachineConfig,
    passes: &Passes<'_>,
) -> Result<Compiled, CompileError> {
    assert!(
        !passes.check_ir && passes.validate <= ValidationLevel::Fast,
        "the traced compile replays neither IR checking nor full validation"
    );
    let mut span = rec.span("compiler.compile");
    passes
        .plan
        .validate()
        .map_err(|e| CompileError::new(CompileErrorKind::Plan, format!("invalid plan: {e}")))?;
    let mut func: Function = prepared.funcs[0].clone();
    let mut ctx = PassCtx::new(profile, machine, passes, prepared.memory_size());
    for pass in PassManager::from_plan(&passes.plan).passes() {
        let before = ctx.stats.counters;
        let pre =
            (passes.validate > ValidationLevel::Off && pass.mutates_ir()).then(|| func.clone());
        let start = Instant::now();
        {
            let _p = rec.span(pass_span(pass.name()));
            pass.run(&mut func, &mut ctx)?;
        }
        let wall_nanos = start.elapsed().as_nanos() as u64;
        if passes.validate > ValidationLevel::Off {
            validate_after(rec, pre.as_ref(), &func, &mut ctx, pass.name())?;
        }
        let delta = ctx.stats.counters.delta_since(before);
        ctx.stats.per_pass.push(PassStat {
            name: pass.name(),
            wall_nanos,
            delta,
        });
    }
    let code = ctx
        .code
        .take()
        .expect("validated plans terminate with the schedule pass");
    metaopt_sim::code::verify_machine(&code, machine).map_err(|m| {
        CompileError::new(
            CompileErrorKind::MachineVerify,
            format!("generated machine code failed verification: {m}"),
        )
    })?;
    span.count("compiler.static_insts", ctx.stats.counters.static_insts);
    span.count("compiler.spills", ctx.stats.counters.spills);
    span.count("analysis.findings", ctx.validation.len() as u64);
    Ok(Compiled {
        code,
        mem_size: ctx.mem_size,
        stats: ctx.stats,
        validation: ctx.validation,
    })
}

/// The pass manager's post-pass translation validation, with a span
/// around the validator.
fn validate_after(
    rec: &Recorder,
    pre: Option<&Function>,
    func: &Function,
    ctx: &mut PassCtx<'_>,
    pass: &'static str,
) -> Result<(), CompileError> {
    use metaopt_analysis as analysis;
    let mut diags = {
        let _v = rec.span(validate_span(pass));
        match (pass, pre) {
            ("unroll", Some(pre)) => analysis::validate_unroll(pre, func, pass),
            ("prefetch", Some(pre)) => analysis::validate_prefetch(pre, func, pass),
            ("hyperblock", Some(pre)) => analysis::validate_hyperblock(pre, func, pass),
            ("regalloc", Some(pre)) => analysis::validate_regalloc(
                pre,
                func,
                ctx.machine,
                ctx.base_mem_size,
                ctx.mem_size,
                pass,
            ),
            ("schedule", _) => match &ctx.code {
                Some(code) => analysis::validate_schedule(func, code, ctx.machine, pass),
                None => Vec::new(),
            },
            _ => Vec::new(),
        }
    };
    let plan = ctx.config.plan.to_string();
    for d in &mut diags {
        d.plan = Some(plan.clone());
    }
    ctx.validation.extend(diags.iter().cloned());
    match analysis::first_error(&diags) {
        None => Ok(()),
        Some(first) => Err(CompileError::new(
            CompileErrorKind::Validation,
            format!(
                "semantic validation failed after pass '{pass}' (plan {plan}): {}",
                first.render()
            ),
        )
        .with_diagnostics(diags.clone())),
    }
}

fn classify(name: &str, e: CompileError) -> EvalError {
    let kind = match e.kind {
        CompileErrorKind::InvariantViolation => EvalErrorKind::IrCheck,
        CompileErrorKind::Validation => EvalErrorKind::Validation,
        _ => EvalErrorKind::Compile,
    };
    EvalError::new(kind, format!("{name}: {e}"))
}

/// Multiplicative timing noise applied to a finished run's cycle count,
/// exactly as `simulate_noisy_tier` applies it.
fn apply_noise(cycles: u64, amplitude: f64, seed: u64) -> u64 {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    let u = (x >> 11) as f64 / (1u64 << 53) as f64;
    let factor = 1.0 + amplitude * (2.0 * u - 1.0);
    ((cycles as f64) * factor).round().max(1.0) as u64
}

/// Simulate `compiled` on the training data with spans around the bytecode
/// lowering, the memory-image build and the run, classifying failures and
/// checking the result against the interpreter's as the library does.
fn simulate(
    rec: &Recorder,
    study: &StudyConfig,
    name: &str,
    replica: &Replica,
    compiled: &Compiled,
    noise_seed: u64,
) -> Result<u64, EvalError> {
    assert_eq!(
        study.sim_tier,
        SimTier::Fast,
        "the traced run replays the fast tier"
    );
    let machine = &replica.eval_machine;
    let code = {
        let _s = rec.span("sim.bytecode_compile");
        BytecodeProgram::compile(&compiled.code, machine)
    };
    let mem = {
        let _s = rec.span("sim.mem_image");
        let mut mem = replica.train_mem.clone();
        mem.resize(compiled.mem_size.max(mem.len()), 0);
        mem
    };
    let result = {
        let mut s = rec.span("sim.run");
        let r = code.run(machine, mem);
        if let Ok(r) = &r {
            s.count("sim.cycles", r.cycles);
            s.count("sim.insts", r.insts);
            s.count("sim.nullified", r.nullified);
            s.count("sim.mispredicts", r.mispredicts);
            s.count("sim.l1_misses", r.cache.l1_misses);
            s.count("sim.l2_misses", r.cache.l2_misses);
            s.count("sim.prefetches", r.cache.prefetches);
        }
        r
    };
    let ds = DataSet::Train;
    let result = result.map_err(|e| match e {
        SimError::InstLimit(n) => EvalError::new(
            EvalErrorKind::Budget,
            format!("{name}: simulation exceeded the {n}-instruction budget on {ds:?}"),
        ),
        SimError::CycleLimit(n) => EvalError::new(
            EvalErrorKind::Budget,
            format!("{name}: simulation exceeded the {n}-cycle cooperative deadline on {ds:?}"),
        ),
        other => EvalError::new(
            EvalErrorKind::Sim,
            format!("{name}: simulation fault on {ds:?}: {other}"),
        ),
    })?;
    if result.ret != replica.train_ret {
        return Err(EvalError::new(
            EvalErrorKind::WrongAnswer,
            format!(
                "{name}: compiled program returned {} but the interpreter returned {} on {ds:?}",
                result.ret, replica.train_ret
            ),
        ));
    }
    Ok(if study.noise > 0.0 {
        apply_noise(result.cycles, study.noise, noise_seed)
    } else {
        result.cycles
    })
}

/// Traced stand-in for `StudyEvaluator`.
pub struct TracedEvaluator<'a> {
    /// Span sink.
    pub rec: &'a Recorder,
    /// The study.
    pub study: &'a StudyConfig,
    /// Prepared kernels (one case each).
    pub prepared: &'a [PreparedBench],
    /// Their replicas, index-aligned with `prepared`.
    pub replicas: &'a [Replica],
    /// Cycle and wrong-answer totals.
    pub tally: &'a Tally,
}

impl Evaluator for TracedEvaluator<'_> {
    fn num_cases(&self) -> usize {
        self.prepared.len()
    }

    fn eval_case(&self, expr: &Expr, case: usize) -> EvalOutcome {
        let _eval = self.rec.span("core.eval");
        let pb = &self.prepared[case];
        let key = expr.key();
        let pri = ExprPriority(expr);
        let passes = self.study.passes_with(&pri);
        let cycles = compile(
            self.rec,
            &pb.prepared,
            &pb.profile,
            &self.study.machine,
            &passes,
        )
        .map_err(|e| classify(&pb.name, e))
        .and_then(|compiled| {
            let mut h = DefaultHasher::new();
            key.hash(&mut h);
            pb.name.hash(&mut h);
            false.hash(&mut h);
            simulate(
                self.rec,
                self.study,
                &pb.name,
                &self.replicas[case],
                &compiled,
                h.finish(),
            )
        });
        self.tally.record(&pb.name, key, cycles.as_ref().copied());
        match cycles {
            Ok(c) => EvalOutcome::Score(pb.baseline_train_cycles as f64 / c as f64),
            Err(e) => EvalOutcome::Failed(e),
        }
    }
}

/// Traced stand-in for `StudyMultiEvaluator`.
pub struct TracedMultiEvaluator<'a> {
    /// Span sink.
    pub rec: &'a Recorder,
    /// The study.
    pub study: &'a StudyConfig,
    /// Prepared kernels (one case each).
    pub prepared: &'a [PreparedBench],
    /// Their replicas, index-aligned with `prepared`.
    pub replicas: &'a [Replica],
    /// Cycle and wrong-answer totals.
    pub tally: &'a Tally,
}

impl MultiEvaluator for TracedMultiEvaluator<'_> {
    fn num_cases(&self) -> usize {
        self.prepared.len()
    }

    fn eval_objectives(
        &self,
        plan: &str,
        expr: &Expr,
        case: usize,
        _attempt: u32,
    ) -> Result<[u64; NUM_OBJECTIVES], EvalError> {
        let _eval = self.rec.span("core.eval");
        let pb = &self.prepared[case];
        let plan: PipelinePlan = plan.parse().map_err(|e| {
            EvalError::new(
                EvalErrorKind::Compile,
                format!("{}: unparseable pipeline plan {plan:?}: {e}", pb.name),
            )
        })?;
        let pri = ExprPriority(expr);
        let mut passes = self.study.passes_with(&pri);
        passes.plan = plan.clone();
        let result = compile(
            self.rec,
            &pb.prepared,
            &pb.profile,
            &self.study.machine,
            &passes,
        )
        .map_err(|e| {
            let e = classify(&pb.name, e);
            EvalError::new(e.kind, format!("plan {plan}: {}", e.message))
        })
        .and_then(|compiled| {
            let mut h = DefaultHasher::new();
            expr.key().hash(&mut h);
            plan.to_string().hash(&mut h);
            pb.name.hash(&mut h);
            false.hash(&mut h);
            let cycles = simulate(
                self.rec,
                self.study,
                &pb.name,
                &self.replicas[case],
                &compiled,
                h.finish(),
            )?;
            let size = compiled.stats.counters.static_insts;
            let compile_cost = (plan.steps().len() as u64).saturating_mul(size);
            Ok([cycles, size, compile_cost])
        });
        let genome = format!("{plan}|{}", expr.key());
        self.tally
            .record(&pb.name, genome, result.as_ref().map(|o| o[0]));
        result
    }
}
