#![warn(missing_docs)]
//! # metaopt-compiler
//!
//! The optimizing compiler of the *Meta Optimization* (PLDI 2003)
//! reproduction: a from-scratch reimplementation of the Trimaran pipeline
//! pieces whose **priority functions** the paper evolves.
//!
//! The pipeline has two halves:
//!
//! * **Preparation** ([`prepare`]) runs once per program, independent of any
//!   priority function: [`inline`] (mandatory full inlining — the machine
//!   has no call support, matching how the suite kernels are written)
//!   followed by the [`opt`] scalar cleanups (constant folding and
//!   dead-code elimination).
//! * **Compilation** ([`compile`]) is driven by a declarative
//!   [`PipelinePlan`]: an ordered pass list in the
//!   textual syntax `unroll(N),prefetch,hyperblock,regalloc,schedule`,
//!   executed by the [`PassManager`]. The shipped
//!   configuration [`Passes::baseline`] runs the plan
//!   `prefetch,hyperblock,regalloc,schedule` (the [`plan::BASELINE_PLAN`]
//!   constant — a unit test keeps this doc and the code in sync), where
//!
//!   * [`unroll`] — optional counted-loop unrolling (not part of the
//!     paper-calibrated study pipelines; enable via plan syntax),
//!   * [`prefetch`] — Mowry-style software data prefetching with a pluggable
//!     **Boolean** confidence function (paper case study III),
//!   * [`hyperblock`] — if-conversion driven by a pluggable path **priority
//!     function** (paper case study I, Trimaran/IMPACT algorithm, Eq. 1
//!     baseline),
//!   * [`regalloc`] — Chow–Hennessy priority-based coloring with a pluggable
//!     per-block **savings function** (paper case study II, Eq. 2 baseline),
//!   * [`schedule`] — latency-weighted-depth list scheduling into VLIW
//!     bundles for the `metaopt-sim` machine.
//!
//! The pass manager applies the `metaopt-analysis` inter-pass invariant
//! checker uniformly after every IR-mutating pass (when
//! [`Passes::check_ir`] is set) and records per-pass wall time and counter
//! deltas into [`CompileStats::per_pass`], so any pass order the plan
//! grammar admits — the phase-ordering search space — is checked and
//! instrumented identically.
//!
//! On top of the structural checks sits **semantic validation**
//! ([`Passes::validate`], DESIGN.md §13): at [`ValidationLevel::Fast`] the
//! per-pass translation validators from `metaopt-analysis` prove each
//! optimization preserved the meaning of its input where decidable;
//! [`ValidationLevel::Full`] additionally abstract-interprets the post-pass
//! IR to flag statically-provable faults. Validation findings ride along in
//! [`Compiled::validation`]; an error-severity finding aborts compilation
//! with [`CompileErrorKind::Validation`] and per-pass, per-plan blame.
//!
//! Every pass keeps program semantics: the test suite differentially checks
//! compiled results against the IR interpreter for arbitrary priority
//! functions, which is what lets the genetic search explore the heuristic
//! space safely (only performance varies, never correctness).

pub mod hyperblock;
pub mod inline;
pub mod opt;
pub mod pass;
pub mod plan;
pub mod plan_ops;
pub mod prefetch;
pub mod regalloc;
pub mod schedule;
pub mod unroll;

pub use pass::{Pass, PassCtx, PassManager};
pub use plan::{PassSpec, PipelinePlan, PlanError};

use metaopt_ir::profile::FuncProfile;
use metaopt_ir::{Function, Program};
use metaopt_sim::{MachineConfig, MachineProgram};
use std::fmt;

/// A real-valued priority function over named features; the focal point the
/// paper's GP search replaces. Implemented by baselines in this crate and by
/// GP expressions in `metaopt` (the core crate).
pub trait RealPriority: Sync {
    /// Score the option described by the feature vectors (higher = better).
    fn score(&self, reals: &[f64], bools: &[bool]) -> f64;
}

impl<F: Fn(&[f64], &[bool]) -> f64 + Sync> RealPriority for F {
    fn score(&self, reals: &[f64], bools: &[bool]) -> f64 {
        self(reals, bools)
    }
}

/// A Boolean priority ("confidence") function, as used by the data
/// prefetching case study (paper §7).
pub trait BoolPriority: Sync {
    /// Decide the option described by the feature vectors.
    fn decide(&self, reals: &[f64], bools: &[bool]) -> bool;
}

impl<F: Fn(&[f64], &[bool]) -> bool + Sync> BoolPriority for F {
    fn decide(&self, reals: &[f64], bools: &[bool]) -> bool {
        self(reals, bools)
    }
}

/// Classification of a compilation failure. The GP evaluation layer maps
/// these onto its quarantine taxonomy, so a run's failure ledger can say
/// *which stage* a pathological priority function broke.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CompileErrorKind {
    /// Malformed input program or inlining failure (front half of the
    /// pipeline, independent of any priority function).
    Inline,
    /// The pipeline plan is structurally invalid (see
    /// [`plan::PipelinePlan::validate`]).
    Plan,
    /// The inter-pass IR invariant checker flagged a broken invariant; the
    /// offending pass is named in the message.
    InvariantViolation,
    /// Register allocation could not fit the program on the machine.
    Regalloc,
    /// Final machine-code verification rejected the generated schedule.
    MachineVerify,
    /// Semantic validation ([`Passes::validate`]) proved a pass broke the
    /// program's meaning: a translation validator could not reconstruct a
    /// semantic correspondence, or abstract interpretation found a
    /// statically-provable fault. The offending pass and plan are named in
    /// the message and in [`CompileError::diagnostics`].
    Validation,
}

/// Compilation failure.
#[derive(Clone, Debug, PartialEq)]
pub struct CompileError {
    /// Which stage failed.
    pub kind: CompileErrorKind,
    /// Description.
    pub message: String,
    /// Structured findings backing the error, when the failing stage
    /// produced diagnostics (the invariant checker and semantic validation
    /// do; other stages leave this empty). Each carries pass and plan blame.
    pub diagnostics: Vec<metaopt_analysis::Diagnostic>,
}

impl CompileError {
    /// A new compilation error.
    pub fn new(kind: CompileErrorKind, message: impl Into<String>) -> Self {
        CompileError {
            kind,
            message: message.into(),
            diagnostics: Vec::new(),
        }
    }

    /// Attach the structured findings behind this error.
    pub fn with_diagnostics(mut self, diagnostics: Vec<metaopt_analysis::Diagnostic>) -> Self {
        self.diagnostics = diagnostics;
        self
    }
}

/// How much semantic validation the [`PassManager`] runs after each pass.
///
/// Ordered: each level includes everything below it. Structural IR checking
/// is a separate, orthogonal knob ([`Passes::check_ir`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ValidationLevel {
    /// No semantic validation (the default).
    #[default]
    Off,
    /// Per-pass translation validation: after every plan pass, prove the
    /// output means the same as the input where decidable (register
    /// assignment consistency, dependence-respecting schedules, exact loop
    /// replication, insertion-only prefetching, hyperblock obligations).
    Fast,
    /// [`Fast`](ValidationLevel::Fast) plus abstract interpretation of the
    /// post-pass IR (interval + initialization domains), flagging
    /// statically-provable out-of-bounds accesses, uninitialized reads,
    /// division by a provable zero, and definite overflow.
    Full,
}

impl ValidationLevel {
    /// Lowercase label, as used in plan/CLI syntax and trace events.
    pub fn label(self) -> &'static str {
        match self {
            ValidationLevel::Off => "off",
            ValidationLevel::Fast => "fast",
            ValidationLevel::Full => "full",
        }
    }

    /// Parse a [`label`](ValidationLevel::label).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "off" => Some(ValidationLevel::Off),
            "fast" => Some(ValidationLevel::Fast),
            "full" => Some(ValidationLevel::Full),
            _ => None,
        }
    }
}

impl fmt::Display for ValidationLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "compilation failed: {}", self.message)
    }
}

impl std::error::Error for CompileError {}

/// Which passes run (the [`PipelinePlan`]) and with which priority
/// functions. A pass participates exactly when its step appears in the
/// plan; the priority slots merely replace the shipped baseline heuristics
/// for the passes that do run.
pub struct Passes<'a> {
    /// The pass schedule. [`PipelinePlan::minimal`] by default; the shipped
    /// full pipeline is [`Passes::baseline`].
    pub plan: PipelinePlan,
    /// Hyperblock-formation path priority (Eq. 1 baseline by default).
    pub hyperblock: &'a dyn RealPriority,
    /// Register-allocation per-block savings function (Eq. 2 baseline by
    /// default).
    pub regalloc: &'a dyn RealPriority,
    /// Prefetch confidence function (trip-count baseline by default).
    pub prefetch: &'a dyn BoolPriority,
    /// Prefetch distance in loop iterations.
    pub prefetch_iters_ahead: i64,
    /// Run the `metaopt-analysis` invariant checker after every IR-mutating
    /// pass, attributing the first broken invariant to the pass that
    /// produced it. Off by default.
    pub check_ir: bool,
    /// Semantic validation level: per-pass translation validation and
    /// abstract interpretation (see [`ValidationLevel`]). Off by default.
    pub validate: ValidationLevel,
    /// Structured-trace sink: the [`PassManager`] emits one `pass` event
    /// (wall time + counter deltas) per executed pass into it. Disabled by
    /// default, which costs one branch per pass and changes nothing else.
    pub tracer: metaopt_trace::Tracer,
}

impl<'a> Default for Passes<'a> {
    /// The minimal pipeline (`regalloc,schedule`): no optimization passes,
    /// baseline priority functions.
    fn default() -> Self {
        Passes {
            plan: PipelinePlan::minimal(),
            hyperblock: &hyperblock::BaselineEq1,
            regalloc: &regalloc::BaselineEq2,
            prefetch: &prefetch::BaselineTripCount,
            prefetch_iters_ahead: 8,
            check_ir: false,
            validate: ValidationLevel::Off,
            tracer: metaopt_trace::Tracer::disabled(),
        }
    }
}

impl<'a> Passes<'a> {
    /// The compiler's shipped configuration: the [`plan::BASELINE_PLAN`]
    /// pipeline with the baseline (human-written) priority functions.
    pub fn baseline() -> Self {
        Passes {
            plan: PipelinePlan::baseline(),
            ..Passes::default()
        }
    }

    /// This configuration with a different pipeline plan.
    pub fn with_plan(mut self, plan: PipelinePlan) -> Self {
        self.plan = plan;
        self
    }

    /// This configuration with a different semantic validation level.
    pub fn with_validate(mut self, level: ValidationLevel) -> Self {
        self.validate = level;
        self
    }
}

/// The scalar pass counters (how much each optimization did overall).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PassCounters {
    /// Hyperblocks formed (regions if-converted).
    pub hyperblocks: u64,
    /// Paths merged into hyperblocks.
    pub paths_merged: u64,
    /// Live ranges spilled by the register allocator.
    pub spills: u64,
    /// Counted loops unrolled.
    pub unrolled: u64,
    /// Prefetch instructions inserted.
    pub prefetches: u64,
    /// Static instructions in the final machine code.
    pub static_insts: u64,
    /// Static bundles (schedule length).
    pub static_bundles: u64,
}

impl PassCounters {
    /// Field-wise difference against an earlier snapshot (counters only
    /// grow, so this is the work attributable to the passes in between).
    pub fn delta_since(self, before: PassCounters) -> PassCounters {
        PassCounters {
            hyperblocks: self.hyperblocks - before.hyperblocks,
            paths_merged: self.paths_merged - before.paths_merged,
            spills: self.spills - before.spills,
            unrolled: self.unrolled - before.unrolled,
            prefetches: self.prefetches - before.prefetches,
            static_insts: self.static_insts - before.static_insts,
            static_bundles: self.static_bundles - before.static_bundles,
        }
    }

    /// The non-zero counters as `name +value` pairs, for compact display.
    pub fn nonzero(&self) -> Vec<(&'static str, u64)> {
        [
            ("hyperblocks", self.hyperblocks),
            ("paths_merged", self.paths_merged),
            ("spills", self.spills),
            ("unrolled", self.unrolled),
            ("prefetches", self.prefetches),
            ("static_insts", self.static_insts),
            ("static_bundles", self.static_bundles),
        ]
        .into_iter()
        .filter(|(_, v)| *v > 0)
        .collect()
    }
}

/// Per-pass instrumentation recorded by the [`PassManager`]: what one pass
/// cost and what it changed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PassStat {
    /// Pass name (plan syntax).
    pub name: &'static str,
    /// Wall-clock time spent inside the pass (excluding the post-pass
    /// invariant check).
    pub wall_nanos: u64,
    /// Counter changes attributable to this pass.
    pub delta: PassCounters,
}

/// Per-compilation statistics: the overall [`PassCounters`] plus per-pass
/// instrumentation in execution order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CompileStats {
    /// Totals across the whole pipeline.
    pub counters: PassCounters,
    /// Wall time and counter delta of every executed pass, in plan order.
    pub per_pass: Vec<PassStat>,
}

impl CompileStats {
    /// Render the per-pass instrumentation as an aligned text table — one
    /// `pass  wall  changes` row per executed pass. Used by the CLI and the
    /// bench harness.
    pub fn per_pass_table(&self) -> String {
        let mut out = String::new();
        for p in &self.per_pass {
            let delta: Vec<String> = p
                .delta
                .nonzero()
                .into_iter()
                .map(|(k, v)| format!("{k} +{v}"))
                .collect();
            let delta = if delta.is_empty() {
                "-".to_string()
            } else {
                delta.join(", ")
            };
            out.push_str(&format!(
                "{:<12} {:>9.1}us  {}\n",
                p.name,
                p.wall_nanos as f64 / 1000.0,
                delta
            ));
        }
        out
    }
}

/// The compiler's output: scheduled machine code plus the memory image size
/// it needs (globals + spill area).
#[derive(Clone, Debug)]
pub struct Compiled {
    /// Machine code for `metaopt_sim::simulate`.
    pub code: MachineProgram,
    /// Required memory image size in bytes (extends the program's globals
    /// with the spill area).
    pub mem_size: usize,
    /// Pass statistics.
    pub stats: CompileStats,
    /// Semantic-validation findings that did not abort the compilation
    /// (warnings and notes; empty when [`Passes::validate`] is off).
    pub validation: Vec<metaopt_analysis::Diagnostic>,
}

impl Compiled {
    /// Build the initial memory image for `prog` sized for this compilation
    /// (globals initialized, spill area zeroed).
    pub fn initial_memory(&self, prog: &Program) -> Vec<u8> {
        let mut mem = prog.initial_memory();
        mem.resize(self.mem_size, 0);
        mem
    }
}

/// Run the invariant checker over `func` as the output of `pass` when
/// checking is enabled; a violation aborts the compilation with the pass
/// named in the error. (Used by the [`prepare`] half; the compile half's
/// checks are applied uniformly by the [`PassManager`].)
fn checkpoint(
    enabled: bool,
    func: &Function,
    form: metaopt_ir::verify::CfgForm,
    pass: &str,
) -> Result<(), CompileError> {
    if !enabled {
        return Ok(());
    }
    metaopt_analysis::enforce_function(func, form, pass).map_err(|e| {
        CompileError::new(CompileErrorKind::InvariantViolation, e.to_string())
            .with_diagnostics(e.diagnostics)
    })
}

/// Inline all calls and clean up: the "front half" of the pipeline, which is
/// independent of any priority function and therefore runs once per
/// benchmark. The result always has a single function.
///
/// Equivalent to [`prepare_checked`] with IR checking off.
///
/// # Errors
/// Fails on recursive call graphs or a missing entry function.
pub fn prepare(prog: &Program) -> Result<Program, CompileError> {
    prepare_checked(prog, false)
}

/// [`prepare`] with explicit control over inter-pass IR checking: when
/// `check_ir` is set, the invariant checker runs after inlining and after
/// the scalar optimizations, attributing any violation to the offending
/// pass.
///
/// # Errors
/// Fails on recursive call graphs, a missing entry function, or (with
/// `check_ir`) a broken IR invariant.
pub fn prepare_checked(prog: &Program, check_ir: bool) -> Result<Program, CompileError> {
    use metaopt_ir::verify::CfgForm;
    let mut p = inline::inline_program(prog)?;
    checkpoint(check_ir, &p.funcs[0], CfgForm::Canonical, "inline")?;
    opt::constant_fold(&mut p.funcs[0]);
    checkpoint(check_ir, &p.funcs[0], CfgForm::Canonical, "constant_fold")?;
    opt::dead_code_elim(&mut p.funcs[0]);
    checkpoint(check_ir, &p.funcs[0], CfgForm::Canonical, "dead_code_elim")?;
    debug_assert!(
        metaopt_ir::verify::verify_program(&p, metaopt_ir::verify::CfgForm::Canonical).is_ok()
    );
    Ok(p)
}

/// Compile a [`prepare`]d program (single function) to machine code using
/// `profile` (collected on the prepared IR) and the given `passes`: the
/// [`PassManager`] executes `passes.plan`, then the generated code is
/// verified against the machine description.
///
/// # Errors
/// Fails if the plan is structurally invalid, a pass fails (e.g. register
/// allocation cannot fit the program on the machine), an IR invariant
/// breaks under `check_ir`, or the generated code does not verify.
pub fn compile(
    prepared: &Program,
    profile: &FuncProfile,
    machine: &MachineConfig,
    passes: &Passes<'_>,
) -> Result<Compiled, CompileError> {
    passes
        .plan
        .validate()
        .map_err(|e| CompileError::new(CompileErrorKind::Plan, format!("invalid plan: {e}")))?;
    let mut func: Function = prepared.funcs[0].clone();
    let mut ctx = PassCtx::new(profile, machine, passes, prepared.memory_size());
    PassManager::from_plan(&passes.plan).run(&mut func, &mut ctx)?;

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

    Ok(Compiled {
        code,
        mem_size: ctx.mem_size,
        stats: ctx.stats,
        validation: ctx.validation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Anti-drift guard for the module docs: the pipeline list above is
    /// written in plan syntax, and the source text must contain the exact
    /// baseline plan string [`plan::BASELINE_PLAN`] that
    /// [`Passes::baseline`] executes — so the docs cannot silently diverge
    /// from the code again.
    #[test]
    fn module_docs_quote_the_baseline_plan() {
        let source = include_str!("lib.rs");
        assert!(
            source.contains(&format!("`{}`", plan::BASELINE_PLAN)),
            "lib.rs module docs must quote the baseline plan string verbatim"
        );
        assert_eq!(Passes::baseline().plan.to_string(), plan::BASELINE_PLAN);
    }

    #[test]
    fn default_passes_run_the_minimal_plan() {
        assert_eq!(Passes::default().plan.to_string(), plan::MINIMAL_PLAN);
    }

    #[test]
    fn invalid_plan_is_a_plan_error() {
        let prog = metaopt_lang::compile("fn main() -> int { return 7; }").unwrap();
        let prepared = prepare_checked(&prog, true).unwrap();
        let profile = metaopt_ir::interp::run(
            &prepared,
            &metaopt_ir::interp::RunConfig {
                profile: true,
                ..Default::default()
            },
        )
        .unwrap()
        .profile
        .unwrap();
        let passes = Passes::default().with_plan(PipelinePlan::baseline().without("regalloc"));
        let err = compile(
            &prepared,
            &profile.funcs[0],
            &MachineConfig::table3(),
            &passes,
        )
        .unwrap_err();
        assert_eq!(err.kind, CompileErrorKind::Plan);
        assert!(err.message.contains("regalloc"), "{}", err.message);
    }
}
