//! Inter-pass IR invariant checking.
//!
//! [`check_program`] runs the full battery — structural verification,
//! CFG reachability, def-before-use, and predicate consistency — over a
//! program snapshot and attributes every finding to the pass whose output
//! was checked. The compiler driver calls [`enforce`] at each pass
//! boundary when IR checking is enabled, so a buggy pass is caught at the
//! first boundary after it runs, by name, instead of surfacing later as a
//! miscompile or simulator divergence.

use crate::diagnostics::{first_error, render_lines, Diagnostic, Severity};
use crate::instances::DefBeforeUse;
use metaopt_ir::cfg::Cfg;
use metaopt_ir::verify::{verify_program, CfgForm};
use metaopt_ir::{BlockId, Function, Program, RegClass};
use std::fmt;

/// A failed [`enforce`] call: the first offending pass plus everything the
/// checker found.
#[derive(Clone, Debug)]
pub struct CheckFailure {
    /// Name of the pass whose output failed the check.
    pub pass: String,
    /// The pipeline plan that ordered the passes, when known. Ablation
    /// sweeps and plan genomes run many plans over one benchmark; the plan
    /// string pins the failure to the right one.
    pub plan: Option<String>,
    /// All diagnostics from the failing checkpoint.
    pub diagnostics: Vec<Diagnostic>,
}

impl CheckFailure {
    /// Attach the pipeline plan to the failure and every diagnostic in it.
    pub fn with_plan(mut self, plan: impl Into<String>) -> Self {
        let plan = plan.into();
        for d in &mut self.diagnostics {
            d.plan = Some(plan.clone());
        }
        self.plan = Some(plan);
        self
    }
}

impl fmt::Display for CheckFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ir invariants violated after pass '{}'", self.pass)?;
        if let Some(plan) = &self.plan {
            write!(f, " (plan {plan})")?;
        }
        write!(f, ":\n{}", render_lines(&self.diagnostics))
    }
}

impl std::error::Error for CheckFailure {}

/// Run every invariant check over `prog` as it stands after `pass`,
/// under the CFG discipline `form`. Returns all findings in discovery
/// order.
pub fn check_program(prog: &Program, form: CfgForm, pass: &str) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    // Structural verifier first: block shape, operand classes, branch
    // targets, call signatures. A structural break makes the dataflow
    // checks unreliable, so report it and stop.
    if let Err(e) = verify_program(prog, form) {
        diags.push(Diagnostic::new(
            Severity::Error,
            pass,
            "<program>",
            e.message,
        ));
        return diags;
    }

    for func in &prog.funcs {
        run_function_checks(func, pass, &mut diags);
    }
    diags
}

/// [`check_program`] for a single function (cross-function call checks are
/// skipped): the compiler driver uses this between passes, which operate on
/// one fully-inlined function.
pub fn check_function(func: &Function, form: CfgForm, pass: &str) -> Vec<Diagnostic> {
    if let Err(e) = metaopt_ir::verify::verify_function(func, form) {
        return vec![Diagnostic::new(
            Severity::Error,
            pass,
            &func.name,
            e.message,
        )];
    }
    let mut diags = Vec::new();
    run_function_checks(func, pass, &mut diags);
    diags
}

/// [`check_function`], failing fast like [`enforce`].
pub fn enforce_function(func: &Function, form: CfgForm, pass: &str) -> Result<(), CheckFailure> {
    let diags = check_function(func, form, pass);
    if first_error(&diags).is_some() {
        Err(CheckFailure {
            pass: pass.to_string(),
            plan: None,
            diagnostics: diags,
        })
    } else {
        Ok(())
    }
}

/// The checks that stay valid once a function is in **machine-register
/// form** (after register allocation): shape-only structural verification
/// plus CFG reachability.
///
/// Post-allocation, operand indices are physical registers whose class is
/// implied by the consuming opcode — the same index names a GPR, an FPR, or
/// a predicate register depending on position — so the class-sensitive
/// checks (full verification, def-before-use over vregs, predicate
/// consistency) would report false violations and are skipped.
pub fn check_machine_function(func: &Function, form: CfgForm, pass: &str) -> Vec<Diagnostic> {
    if let Err(e) = metaopt_ir::verify::verify_function_shape(func, form) {
        return vec![Diagnostic::new(
            Severity::Error,
            pass,
            &func.name,
            e.message,
        )];
    }
    let mut diags = Vec::new();
    check_reachability(func, &Cfg::new(func), pass, &mut diags);
    diags
}

/// [`check_machine_function`], failing fast like [`enforce`].
pub fn enforce_machine_function(
    func: &Function,
    form: CfgForm,
    pass: &str,
) -> Result<(), CheckFailure> {
    let diags = check_machine_function(func, form, pass);
    if first_error(&diags).is_some() {
        Err(CheckFailure {
            pass: pass.to_string(),
            plan: None,
            diagnostics: diags,
        })
    } else {
        Ok(())
    }
}

fn run_function_checks(func: &Function, pass: &str, diags: &mut Vec<Diagnostic>) {
    let cfg = Cfg::new(func);
    check_reachability(func, &cfg, pass, diags);
    check_def_before_use(func, &cfg, pass, diags);
    check_predicate_consistency(func, pass, diags);
}

/// [`check_program`], failing fast: `Err` carries the pass name and the
/// diagnostics when any error-severity finding exists.
pub fn enforce(prog: &Program, form: CfgForm, pass: &str) -> Result<(), CheckFailure> {
    let diags = check_program(prog, form, pass);
    if first_error(&diags).is_some() {
        Err(CheckFailure {
            pass: pass.to_string(),
            plan: None,
            diagnostics: diags,
        })
    } else {
        Ok(())
    }
}

/// Every block must be reachable from the entry. Passes that rewrite
/// control flow (unrolling, hyperblock formation) must either keep their
/// byproduct blocks wired in or delete them.
fn check_reachability(func: &Function, cfg: &Cfg, pass: &str, diags: &mut Vec<Diagnostic>) {
    for bi in 0..func.blocks.len() {
        if !cfg.is_reachable(BlockId(bi as u32)) {
            diags.push(
                Diagnostic::new(
                    Severity::Error,
                    pass,
                    &func.name,
                    "block unreachable from entry",
                )
                .at_block(BlockId(bi as u32)),
            );
        }
    }
}

/// No path from entry may reach a read of a register with no prior def.
/// Predicated defs count as assignments: if-converted code assigns under
/// complementary predicates, which this path-insensitive check cannot see
/// through (the structural verifier owns guard well-formedness).
fn check_def_before_use(func: &Function, cfg: &Cfg, pass: &str, diags: &mut Vec<Diagnostic>) {
    let dbu = DefBeforeUse::compute(func, cfg);
    diags.extend(dbu.check(func, cfg, pass));
}

/// Predicate registers must be produced only by predicate-producing
/// opcodes: an Int- or Float-producing instruction writing a Pred-class
/// register means a pass rewired a destination without fixing classes.
fn check_predicate_consistency(func: &Function, pass: &str, diags: &mut Vec<Diagnostic>) {
    for (bi, block) in func.blocks.iter().enumerate() {
        for (ii, inst) in block.insts.iter().enumerate() {
            if let Some(d) = inst.dst {
                if func.class_of(d) == RegClass::Pred && inst.op.dst_class() != Some(RegClass::Pred)
                {
                    diags.push(
                        Diagnostic::new(
                            Severity::Error,
                            pass,
                            &func.name,
                            format!("{} written by non-predicate op {}", d, inst.op),
                        )
                        .at_inst(BlockId(bi as u32), ii),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaopt_ir::builder::FunctionBuilder;

    fn clean_program() -> Program {
        let mut fb = FunctionBuilder::new("main");
        let a = fb.movi(2);
        let b = fb.movi(40);
        let c = fb.add(a, b);
        fb.ret(Some(c));
        let mut prog = Program::new();
        prog.add_function(fb.finish());
        prog
    }

    #[test]
    fn clean_program_has_no_findings() {
        let prog = clean_program();
        assert!(check_program(&prog, CfgForm::Canonical, "opt").is_empty());
        assert!(enforce(&prog, CfgForm::Canonical, "opt").is_ok());
    }

    #[test]
    fn unreachable_block_is_reported() {
        let mut fb = FunctionBuilder::new("orphan");
        let dead = fb.new_block();
        let a = fb.movi(1);
        fb.ret(Some(a));
        fb.switch_to(dead);
        fb.ret(None);
        let mut prog = Program::new();
        prog.add_function(fb.finish());
        let diags = check_program(&prog, CfgForm::Canonical, "unroll");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("unreachable"));
        assert_eq!(diags[0].block, Some(dead));
        let err = enforce(&prog, CfgForm::Canonical, "unroll").unwrap_err();
        assert_eq!(err.pass, "unroll");
        assert!(err.to_string().contains("after pass 'unroll'"));
    }

    #[test]
    fn structural_break_short_circuits() {
        let mut prog = clean_program();
        prog.funcs[0].blocks[0].insts.pop(); // drop the terminator
        let diags = check_program(&prog, CfgForm::Canonical, "schedule");
        assert_eq!(diags.len(), 1);
        assert!(
            diags[0].message.contains("must end with br/ret"),
            "{diags:?}"
        );
    }
}
