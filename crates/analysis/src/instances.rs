//! Definite assignment (def-before-use), instantiated over the generic
//! worklist solver in [`metaopt_ir::dataflow`].
//!
//! A predicated definition counts as an assignment: in if-converted code
//! complementary predicates cover every path, so the checker accepts it.

use crate::diagnostics::{Diagnostic, Severity};
use metaopt_ir::cfg::Cfg;
use metaopt_ir::dataflow::{solve, Direction, GenKill, Join};
use metaopt_ir::util::{BitMatrix, BitSet};
use metaopt_ir::{BlockId, Function};

/// Definite-assignment analysis: forward-must over the vreg domain.
///
/// `entry[b]` holds the registers assigned on *every* path from the
/// function entry to the top of `b`; parameters are assigned at the
/// boundary.
#[derive(Clone, Debug)]
pub struct DefBeforeUse {
    /// Registers definitely assigned at each block's entry: one row per
    /// block.
    pub entry: BitMatrix,
    /// Registers definitely assigned at each block's exit.
    pub exit: BitMatrix,
}

impl DefBeforeUse {
    /// Compute definite assignment for `func`, whose graph is `cfg`.
    pub fn compute(func: &Function, cfg: &Cfg) -> Self {
        let nb = func.blocks.len();
        let nv = func.num_vregs();
        let mut problem = GenKill::new(Direction::Forward, Join::Must, nb, nv);
        for &p in &func.params {
            problem.boundary.insert(p.index());
        }
        for (bi, block) in func.blocks.iter().enumerate() {
            for inst in &block.insts {
                if let Some(d) = inst.dst {
                    problem.gen.insert(bi, d.index());
                }
            }
        }
        let sol = solve(cfg, &problem);
        DefBeforeUse {
            entry: sol.entry,
            exit: sol.exit,
        }
    }

    /// Report every read of a register that is not assigned on some path
    /// from entry, attributing findings to `pass`. `func` and `cfg` are the
    /// function and graph this analysis was computed for.
    ///
    /// Blocks unreachable from the entry are skipped: no path reaches them,
    /// so no read in them can observe an unassigned register at run time
    /// (reachability itself is a separate check).
    pub fn check(&self, func: &Function, cfg: &Cfg, pass: &str) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        let mut assigned = BitSet::new(self.entry.cols());
        for (bi, block) in func.blocks.iter().enumerate() {
            if !cfg.is_reachable(BlockId(bi as u32)) {
                continue;
            }
            assigned.copy_from_row(&self.entry, bi);
            for (ii, inst) in block.insts.iter().enumerate() {
                for r in inst.reads() {
                    if !assigned.contains(r.index()) {
                        diags.push(
                            Diagnostic::new(
                                Severity::Error,
                                pass,
                                &func.name,
                                format!("use of {r} before definition"),
                            )
                            .at_inst(BlockId(bi as u32), ii),
                        );
                    }
                }
                if let Some(d) = inst.dst {
                    assigned.insert(d.index());
                }
            }
        }
        diags
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaopt_ir::builder::FunctionBuilder;
    use metaopt_ir::types::RegClass;
    use metaopt_ir::{Inst, Opcode};

    /// entry(b0) → hdr(b1) → body(b2) → hdr, hdr → exit(b3), with `i` a
    /// loop-carried mutable cell.
    fn loop_function() -> Function {
        let mut fb = FunctionBuilder::new("loopy");
        let n = fb.param(RegClass::Int);
        let x = fb.param(RegClass::Int);
        let hdr = fb.new_block();
        let body = fb.new_block();
        let exit = fb.new_block();
        let t = fb.add(x, n);
        let i = fb.new_vreg(RegClass::Int);
        let z = fb.movi(0);
        fb.push(Inst::new(Opcode::Mov).dst(i).args(&[z]));
        fb.br(hdr);
        fb.switch_to(hdr);
        let p = fb.cmp_lt(i, n);
        fb.branch(p, body, exit);
        fb.switch_to(body);
        let t2 = fb.add(x, n);
        let i2 = fb.add(i, t2);
        fb.push(Inst::new(Opcode::Mov).dst(i).args(&[i2]));
        fb.br(hdr);
        fb.switch_to(exit);
        fb.ret(Some(t));
        fb.finish()
    }

    #[test]
    fn def_before_use_clean_on_loop() {
        let f = loop_function();
        let cfg = Cfg::new(&f);
        let dbu = DefBeforeUse::compute(&f, &cfg);
        assert!(dbu.check(&f, &cfg, "test").is_empty());
    }

    #[test]
    fn def_before_use_catches_one_armed_assignment() {
        // v assigned only on the true edge of a diamond, used at the join.
        let mut fb = FunctionBuilder::new("onearm");
        let a = fb.param(RegClass::Int);
        let t = fb.new_block();
        let e = fb.new_block();
        let j = fb.new_block();
        let v = fb.new_vreg(RegClass::Int);
        let p = fb.cmp_lti(a, 0);
        fb.branch(p, t, e);
        fb.switch_to(t);
        let one = fb.movi(1);
        fb.push(Inst::new(Opcode::Mov).dst(v).args(&[one]));
        fb.br(j);
        fb.switch_to(e);
        fb.br(j);
        fb.switch_to(j);
        fb.ret(Some(v));
        let f = fb.finish();
        let cfg = Cfg::new(&f);
        let dbu = DefBeforeUse::compute(&f, &cfg);
        let diags = dbu.check(&f, &cfg, "frontend");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].severity, Severity::Error);
        assert_eq!(diags[0].pass, "frontend");
        assert_eq!(diags[0].block, Some(BlockId(3)));
        assert!(diags[0].message.contains("before definition"));
    }

    #[test]
    fn predicated_assign_mode_accepts_if_converted_pattern() {
        // v = 1 (if p); v = 2 (if !p); use v — fine, because predicated
        // defs count as assignments.
        let mut fb = FunctionBuilder::new("ifconv");
        let a = fb.param(RegClass::Int);
        let v = fb.new_vreg(RegClass::Int);
        let p = fb.cmp_lti(a, 0);
        let np = fb.new_vreg(RegClass::Pred);
        fb.push(Inst::new(Opcode::PNot).dst(np).args(&[p]));
        fb.push(Inst::new(Opcode::MovI).dst(v).imm(1).guarded(p));
        fb.push(Inst::new(Opcode::MovI).dst(v).imm(2).guarded(np));
        fb.ret(Some(v));
        let f = fb.finish();
        let cfg = Cfg::new(&f);
        let dbu = DefBeforeUse::compute(&f, &cfg);
        assert!(dbu.check(&f, &cfg, "hyperblock").is_empty());
    }
}
