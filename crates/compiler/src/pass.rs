//! The pass manager: typed passes, shared pass context, uniform
//! instrumentation and invariant checking.
//!
//! Each compiler stage is a [`Pass`] — a named transformation over the
//! single prepared [`Function`] — and a compilation is the execution of a
//! [`PipelinePlan`](crate::plan::PipelinePlan) by the [`PassManager`]. The
//! manager owns the cross-cutting concerns the old monolithic `compile()`
//! body hand-rolled at each site:
//!
//! * **Invariant checking** — after every IR-mutating pass the
//!   `metaopt-analysis` checker runs (when [`Passes::check_ir`] is set),
//!   attributing the first broken invariant to the pass that produced it.
//!   Once register allocation has rewritten the function into
//!   machine-register form, the machine-form subset of the checker is used
//!   automatically.
//! * **Instrumentation** — per-pass wall time and counter deltas are
//!   recorded into [`CompileStats::per_pass`] in execution order.
//! * **State transitions** — the CFG discipline ([`CfgForm`]), the profile
//!   remap after block pruning, and the machine-form switch all live in the
//!   passes that cause them, carried by the shared [`PassCtx`].

use crate::{CompileError, CompileErrorKind, CompileStats, PassStat, Passes, ValidationLevel};
use metaopt_analysis::{first_error, Diagnostic};
use metaopt_ir::profile::FuncProfile;
use metaopt_ir::verify::CfgForm;
use metaopt_ir::Function;
use metaopt_sim::{MachineConfig, MachineProgram};
use metaopt_trace::Event;
use std::borrow::Cow;
use std::time::Instant;

/// Shared state threaded through a pipeline run: everything a [`Pass`] may
/// read or update besides the function body itself.
pub struct PassCtx<'a> {
    /// The block-level execution profile the priority functions consult.
    /// Starts as the caller's borrowed profile; a pass that renumbers
    /// blocks (hyperblock pruning) replaces it with a remapped copy.
    pub profile: Cow<'a, FuncProfile>,
    /// Target machine.
    pub machine: &'a MachineConfig,
    /// The pass configuration: priority functions and knobs.
    pub config: &'a Passes<'a>,
    /// Size of the program's own memory image (globals); the spill area
    /// starts here.
    pub base_mem_size: usize,
    /// The CFG discipline the function currently satisfies. Loosens to
    /// [`CfgForm::Hyperblock`] once if-conversion has run.
    pub form: CfgForm,
    /// Whether the function has been rewritten into machine-register form
    /// (true after register allocation); selects the machine-form subset of
    /// the invariant checker.
    pub machine_form: bool,
    /// Accumulated statistics, including per-pass instrumentation.
    pub stats: CompileStats,
    /// Required memory image size (globals + spill area); set by register
    /// allocation.
    pub mem_size: usize,
    /// The scheduled machine code; set by the `schedule` terminal.
    pub code: Option<MachineProgram>,
    /// Semantic-validation findings accumulated across the run (when
    /// [`Passes::validate`] is on). Error-severity findings abort the
    /// pipeline; the warnings that remain here ship in
    /// [`Compiled::validation`](crate::Compiled::validation).
    pub validation: Vec<Diagnostic>,
}

impl<'a> PassCtx<'a> {
    /// A fresh context for one compilation.
    pub fn new(
        profile: &'a FuncProfile,
        machine: &'a MachineConfig,
        config: &'a Passes<'a>,
        base_mem_size: usize,
    ) -> Self {
        PassCtx {
            profile: Cow::Borrowed(profile),
            machine,
            config,
            base_mem_size,
            form: CfgForm::Canonical,
            machine_form: false,
            stats: CompileStats::default(),
            mem_size: base_mem_size,
            code: None,
            validation: Vec::new(),
        }
    }
}

/// One compiler pass: a named transformation of the prepared function.
///
/// Implementations live with the algorithms they wrap (e.g.
/// [`crate::hyperblock::HyperblockPass`]); the [`PassManager`] instantiates
/// them from a [`PipelinePlan`](crate::plan::PipelinePlan) and supplies the
/// uniform post-pass invariant check and instrumentation.
pub trait Pass {
    /// Stable name used in plan syntax, diagnostics attribution, and
    /// per-pass statistics.
    fn name(&self) -> &'static str;

    /// Transform `func`, updating `ctx` (stats, profile, form, outputs).
    ///
    /// # Errors
    /// A [`CompileError`] aborts the pipeline; the GP evaluation layer maps
    /// it onto the quarantine taxonomy.
    fn run(&self, func: &mut Function, ctx: &mut PassCtx<'_>) -> Result<(), CompileError>;

    /// Whether the pass mutates the IR. The post-pass invariant checker is
    /// skipped for passes that only *read* the function (e.g. scheduling,
    /// which emits machine code without touching the IR).
    fn mutates_ir(&self) -> bool {
        true
    }
}

/// Executes a pass list built from a [`PipelinePlan`](crate::plan::PipelinePlan),
/// applying the `metaopt-analysis` invariant checker and per-pass
/// instrumentation uniformly after every pass.
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
}

impl PassManager {
    /// Instantiate the pass objects for `plan`. The plan should already be
    /// [validated](crate::plan::PipelinePlan::validate); the compile entry
    /// points do so.
    pub fn from_plan(plan: &crate::plan::PipelinePlan) -> Self {
        use crate::plan::PassSpec;
        let passes = plan
            .steps()
            .iter()
            .map(|spec| -> Box<dyn Pass> {
                match *spec {
                    PassSpec::Unroll(factor) => Box::new(crate::unroll::UnrollPass { factor }),
                    PassSpec::Prefetch => Box::new(crate::prefetch::PrefetchPass),
                    PassSpec::Hyperblock => Box::new(crate::hyperblock::HyperblockPass),
                    PassSpec::Regalloc => Box::new(crate::regalloc::RegallocPass),
                    PassSpec::Schedule => Box::new(crate::schedule::SchedulePass),
                }
            })
            .collect();
        PassManager { passes }
    }

    /// The passes in execution order.
    pub fn passes(&self) -> &[Box<dyn Pass>] {
        &self.passes
    }

    /// Run every pass over `func`, checking invariants and recording
    /// per-pass instrumentation into `ctx.stats.per_pass`.
    ///
    /// # Errors
    /// The first pass failure or invariant violation aborts the run.
    pub fn run(&self, func: &mut Function, ctx: &mut PassCtx<'_>) -> Result<(), CompileError> {
        for pass in &self.passes {
            let before = ctx.stats.counters;
            // Translation validation compares the pass's input against its
            // output, so snapshot the function for the passes that rewrite
            // it (the scheduler is validated IR-vs-bundles instead).
            let pre = (ctx.config.validate > ValidationLevel::Off && pass.mutates_ir())
                .then(|| func.clone());
            let start = Instant::now();
            pass.run(func, ctx)?;
            let wall_nanos = start.elapsed().as_nanos() as u64;
            if ctx.config.check_ir && pass.mutates_ir() {
                check_after(func, ctx, pass.name())?;
            }
            if ctx.config.validate > ValidationLevel::Off {
                validate_after(pre.as_ref(), func, ctx, pass.name())?;
            }
            let delta = ctx.stats.counters.delta_since(before);
            if ctx.config.tracer.enabled() {
                ctx.config.tracer.emit(Event::Pass {
                    pass: pass.name().to_string(),
                    wall_ns: wall_nanos,
                    delta: (delta.nonzero().into_iter())
                        .map(|(name, v)| (name.to_string(), v))
                        .collect(),
                });
            }
            ctx.stats.per_pass.push(PassStat {
                name: pass.name(),
                wall_nanos,
                delta,
            });
        }
        Ok(())
    }
}

/// Run the invariant checker over `func` as the output of `pass`, selecting
/// the machine-form subset once register allocation has run. Failures carry
/// the pipeline plan so sweeps over many plans can attribute broken IR.
fn check_after(func: &Function, ctx: &PassCtx<'_>, pass: &str) -> Result<(), CompileError> {
    let result = if ctx.machine_form {
        metaopt_analysis::enforce_machine_function(func, ctx.form, pass)
    } else {
        metaopt_analysis::enforce_function(func, ctx.form, pass)
    };
    result.map_err(|e| {
        let e = e.with_plan(ctx.config.plan.to_string());
        CompileError::new(CompileErrorKind::InvariantViolation, e.to_string())
            .with_diagnostics(e.diagnostics)
    })
}

/// Run semantic validation over the output of `pass`: the matching
/// translation validator (comparing against the pre-pass snapshot `pre`, or
/// the emitted bundles for the scheduler), plus abstract interpretation of
/// the post-pass IR at [`ValidationLevel::Full`]. Findings accumulate in
/// [`PassCtx::validation`] with pass and plan blame; an error-severity
/// finding aborts the pipeline as [`CompileErrorKind::Validation`].
fn validate_after(
    pre: Option<&Function>,
    func: &Function,
    ctx: &mut PassCtx<'_>,
    pass: &'static str,
) -> Result<(), CompileError> {
    use metaopt_analysis as analysis;
    let start = Instant::now();
    let mut diags: Vec<Diagnostic> = Vec::new();
    match (pass, pre) {
        ("unroll", Some(pre)) => diags.extend(analysis::validate_unroll(pre, func, pass)),
        ("prefetch", Some(pre)) => diags.extend(analysis::validate_prefetch(pre, func, pass)),
        ("hyperblock", Some(pre)) => diags.extend(analysis::validate_hyperblock(pre, func, pass)),
        ("regalloc", Some(pre)) => diags.extend(analysis::validate_regalloc(
            pre,
            func,
            ctx.machine,
            ctx.base_mem_size,
            ctx.mem_size,
            pass,
        )),
        ("schedule", _) => {
            if let Some(code) = &ctx.code {
                diags.extend(analysis::validate_schedule(func, code, ctx.machine, pass));
            }
        }
        _ => {}
    }
    // Abstract interpretation of the pass's output IR; the scheduler does
    // not rewrite the IR, so its output was already analyzed after the
    // previous pass.
    if ctx.config.validate >= ValidationLevel::Full && pass != "schedule" {
        let form = if ctx.machine_form {
            analysis::AbsForm::Machine(ctx.machine)
        } else {
            analysis::AbsForm::Virtual
        };
        diags.extend(analysis::analyze_function(func, form, ctx.mem_size, pass));
    }
    let wall_ns = start.elapsed().as_nanos() as u64;

    let plan = ctx.config.plan.to_string();
    for d in &mut diags {
        d.plan = Some(plan.clone());
    }
    let ok = first_error(&diags).is_none();
    if ctx.config.tracer.enabled() {
        ctx.config.tracer.emit(Event::Validate {
            pass: pass.to_string(),
            level: ctx.config.validate.label().to_string(),
            ok,
            findings: diags.len() as u64,
            wall_ns,
        });
    }
    ctx.validation.extend(diags.iter().cloned());
    if !ok {
        let first = first_error(&diags).expect("checked above");
        return Err(CompileError::new(
            CompileErrorKind::Validation,
            format!(
                "semantic validation failed after pass '{pass}' (plan {plan}): {}",
                first.render()
            ),
        )
        .with_diagnostics(diags));
    }
    Ok(())
}
