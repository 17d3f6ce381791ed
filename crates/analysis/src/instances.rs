//! Classical dataflow analyses instantiated over the generic worklist
//! solver in [`metaopt_ir::dataflow`].
//!
//! All three follow the IR's predication semantics: a *predicated*
//! definition may not execute, so it never kills (reaching definitions,
//! available expressions) and never definitely assigns (def-before-use)
//! unless the caller opts into counting it.

use crate::diagnostics::{Diagnostic, Severity};
use metaopt_ir::cfg::Cfg;
use metaopt_ir::dataflow::{solve, Direction, GenKill, Join};
use metaopt_ir::util::{BitMatrix, BitSet};
use metaopt_ir::{BlockId, Function, Inst, Opcode, VReg};

// ---------------------------------------------------------------- reaching

/// One definition site in a function.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DefSite {
    /// The implicit definition of a parameter at function entry.
    Param(VReg),
    /// `blocks[block].insts[inst]` defines `vreg` (possibly under a guard).
    Inst {
        /// Block containing the defining instruction.
        block: BlockId,
        /// Index of the defining instruction within the block.
        inst: usize,
        /// The register defined.
        vreg: VReg,
    },
}

impl DefSite {
    /// The register this site defines.
    pub fn vreg(&self) -> VReg {
        match *self {
            DefSite::Param(v) => v,
            DefSite::Inst { vreg, .. } => vreg,
        }
    }
}

/// Reaching definitions: which definition sites may reach each block
/// boundary. Forward-may; a predicated def reaches onward but does not
/// kill other defs of the same register.
#[derive(Clone, Debug)]
pub struct ReachingDefs {
    /// All definition sites, parameters first.
    pub sites: Vec<DefSite>,
    /// Sites (by index into `sites`) that may reach each block's entry:
    /// one row per block.
    pub entry: BitMatrix,
    /// Sites that may reach each block's exit.
    pub exit: BitMatrix,
}

impl ReachingDefs {
    /// Compute reaching definitions for `func`, whose graph is `cfg`.
    pub fn compute(func: &Function, cfg: &Cfg) -> Self {
        let nb = func.blocks.len();
        let mut sites: Vec<DefSite> = func.params.iter().map(|&p| DefSite::Param(p)).collect();
        for (bi, block) in func.blocks.iter().enumerate() {
            for (ii, inst) in block.insts.iter().enumerate() {
                if let Some(d) = inst.dst {
                    sites.push(DefSite::Inst {
                        block: BlockId(bi as u32),
                        inst: ii,
                        vreg: d,
                    });
                }
            }
        }
        let ns = sites.len();
        // Row v of `sites_of` holds the sites defining vreg v.
        let mut sites_of = BitMatrix::new(func.num_vregs(), ns);
        for (si, s) in sites.iter().enumerate() {
            sites_of.insert(s.vreg().index(), si);
        }

        let mut problem = GenKill::new(Direction::Forward, Join::May, nb, ns);
        for &p in &func.params {
            // Parameters reach from the boundary; an unpredicated redefinition
            // kills them like any other site.
            let si = sites_of
                .iter_row(p.index())
                .next()
                .expect("a parameter is a def site");
            problem.boundary.insert(si);
        }
        let mut site_idx = func.params.len();
        for (bi, block) in func.blocks.iter().enumerate() {
            for inst in &block.insts {
                if let Some(d) = inst.dst {
                    let si = site_idx;
                    site_idx += 1;
                    if inst.pred.is_none() {
                        problem.kill.union_row(bi, sites_of.row(d.index()));
                        problem.gen.subtract_row(bi, sites_of.row(d.index()));
                    }
                    problem.gen.insert(bi, si);
                    problem.kill.remove(bi, si);
                }
            }
        }

        let sol = solve(cfg, &problem);
        ReachingDefs {
            sites,
            entry: sol.entry,
            exit: sol.exit,
        }
    }

    /// Sites defining `v` that may reach the entry of `b`.
    pub fn reaching_defs_of(&self, b: BlockId, v: VReg) -> Vec<&DefSite> {
        self.entry
            .iter_row(b.index())
            .map(|si| &self.sites[si])
            .filter(|s| s.vreg() == v)
            .collect()
    }
}

// ---------------------------------------------------------- def-before-use

/// How def-before-use treats predicated definitions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PredicatedDefs {
    /// A predicated def counts as an assignment. Right for if-converted
    /// code, where complementary predicates cover all paths.
    CountAsAssign,
    /// Only unpredicated defs count ("definite assignment" proper).
    Strict,
}

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
    mode: PredicatedDefs,
}

impl DefBeforeUse {
    /// Compute definite assignment for `func`, whose graph is `cfg`.
    pub fn compute(func: &Function, cfg: &Cfg, mode: PredicatedDefs) -> Self {
        let nb = func.blocks.len();
        let nv = func.num_vregs();
        let mut problem = GenKill::new(Direction::Forward, Join::Must, nb, nv);
        for &p in &func.params {
            problem.boundary.insert(p.index());
        }
        for (bi, block) in func.blocks.iter().enumerate() {
            for inst in &block.insts {
                if let Some(d) = inst.dst {
                    if inst.pred.is_none() || mode == PredicatedDefs::CountAsAssign {
                        problem.gen.insert(bi, d.index());
                    }
                }
            }
        }
        let sol = solve(cfg, &problem);
        DefBeforeUse {
            entry: sol.entry,
            exit: sol.exit,
            mode,
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
                    if inst.pred.is_none() || self.mode == PredicatedDefs::CountAsAssign {
                        assigned.insert(d.index());
                    }
                }
            }
        }
        diags
    }
}

// ------------------------------------------------------- available exprs

/// A pure computation's identity: opcode, operands, and immediates.
/// Two instructions with equal keys compute the same value from the same
/// inputs (the IR has no hidden state on these opcodes).
#[derive(Clone, PartialEq, Debug)]
pub struct ExprKey {
    /// The computing opcode.
    pub op: Opcode,
    /// Register operands.
    pub args: Vec<VReg>,
    /// Integer immediate.
    pub imm: i64,
    /// Float immediate, compared bitwise.
    pub fimm_bits: u64,
}

impl ExprKey {
    /// The key of `inst`, if it is a pure, unpredicated, register-producing
    /// computation (no memory, control, or call effects).
    pub fn of(inst: &Inst) -> Option<ExprKey> {
        if inst.pred.is_some()
            || inst.dst.is_none()
            || inst.op.is_control()
            || inst.op.is_mem()
            // Constants are excluded: "availability" of a constant is
            // trivially true and only bloats the domain.
            || matches!(inst.op, Opcode::MovI | Opcode::PMovI | Opcode::FMovI)
        {
            return None;
        }
        Some(ExprKey {
            op: inst.op,
            args: inst.args.to_vec(),
            imm: inst.imm,
            fimm_bits: inst.fimm.to_bits(),
        })
    }
}

/// Available expressions: forward-must over the distinct [`ExprKey`]s of a
/// function. An expression is available at a point when it was computed on
/// every path to it and no operand has been redefined since.
#[derive(Clone, Debug)]
pub struct AvailableExprs {
    /// The function's distinct pure expressions.
    pub exprs: Vec<ExprKey>,
    /// Expressions (by index into `exprs`) available at each block's
    /// entry: one row per block.
    pub entry: BitMatrix,
    /// Expressions available at each block's exit.
    pub exit: BitMatrix,
}

impl AvailableExprs {
    /// Compute available expressions for `func`, whose graph is `cfg`.
    pub fn compute(func: &Function, cfg: &Cfg) -> Self {
        // Number the distinct expressions; `key_of_inst` holds the
        // expression of each instruction, in block then program order.
        let mut exprs: Vec<ExprKey> = Vec::new();
        let mut key_of_inst: Vec<Option<usize>> = Vec::with_capacity(func.num_insts());
        for inst in func.blocks.iter().flat_map(|b| &b.insts) {
            key_of_inst.push(ExprKey::of(inst).map(|k| {
                exprs.iter().position(|e| *e == k).unwrap_or_else(|| {
                    exprs.push(k);
                    exprs.len() - 1
                })
            }));
        }
        let ne = exprs.len();
        // Row v of `users` holds the expressions with v as an operand.
        let mut users = BitMatrix::new(func.num_vregs(), ne);
        for (ei, e) in exprs.iter().enumerate() {
            for a in &e.args {
                users.insert(a.index(), ei);
            }
        }

        let nb = func.blocks.len();
        let mut problem = GenKill::new(Direction::Forward, Join::Must, nb, ne);
        let mut keys = key_of_inst.into_iter();
        for (bi, block) in func.blocks.iter().enumerate() {
            for inst in &block.insts {
                if let Some(ei) = keys.next().flatten() {
                    problem.gen.insert(bi, ei);
                    problem.kill.remove(bi, ei);
                }
                if let Some(d) = inst.dst {
                    // Any def (even predicated: it *may* execute) invalidates
                    // expressions reading the overwritten register.
                    problem.gen.subtract_row(bi, users.row(d.index()));
                    problem.kill.union_row(bi, users.row(d.index()));
                }
            }
        }

        let sol = solve(cfg, &problem);
        AvailableExprs {
            exprs,
            entry: sol.entry,
            exit: sol.exit,
        }
    }

    /// Is `key` available on entry to `b`?
    pub fn available_in(&self, b: BlockId, key: &ExprKey) -> bool {
        self.exprs
            .iter()
            .position(|e| e == key)
            .is_some_and(|ei| self.entry.contains(b.index(), ei))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaopt_ir::builder::FunctionBuilder;
    use metaopt_ir::types::RegClass;

    /// entry(b0) → hdr(b1) → body(b2) → hdr, hdr → exit(b3).
    /// `acc`/`i` are loop-carried mutable cells, `t = x + y` is computed in
    /// entry and recomputed (same operands) in the body.
    fn loop_function() -> (Function, VReg, VReg, VReg, VReg) {
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
        (fb.finish(), n, x, t, i)
    }

    #[test]
    fn reaching_defs_flow_around_the_loop() {
        let (f, n, _x, _t, i) = loop_function();
        let rd = ReachingDefs::compute(&f, &Cfg::new(&f));
        let hdr = BlockId(1);
        // Two defs of `i` (entry Mov and body Mov) both reach the header.
        assert_eq!(rd.reaching_defs_of(hdr, i).len(), 2);
        // The parameter def of `n` reaches everywhere (never redefined).
        for b in 0..f.blocks.len() {
            let reaching = rd.reaching_defs_of(BlockId(b as u32), n);
            assert_eq!(reaching.len(), 1, "param n at block {b}");
            assert!(matches!(reaching[0], DefSite::Param(_)));
        }
    }

    #[test]
    fn predicated_def_reaches_without_killing() {
        let mut fb = FunctionBuilder::new("p");
        let a = fb.param(RegClass::Int);
        let b1 = fb.new_block();
        let v = fb.movi(1);
        let p = fb.cmp_lti(a, 0);
        fb.push(Inst::new(Opcode::MovI).dst(v).imm(2).guarded(p));
        fb.br(b1);
        fb.switch_to(b1);
        fb.ret(Some(v));
        let f = fb.finish();
        let rd = ReachingDefs::compute(&f, &Cfg::new(&f));
        // Both the plain def and the predicated overwrite reach b1.
        assert_eq!(rd.reaching_defs_of(BlockId(1), v).len(), 2);
    }

    #[test]
    fn def_before_use_clean_on_loop() {
        let (f, ..) = loop_function();
        let cfg = Cfg::new(&f);
        let dbu = DefBeforeUse::compute(&f, &cfg, PredicatedDefs::Strict);
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
        let dbu = DefBeforeUse::compute(&f, &cfg, PredicatedDefs::Strict);
        let diags = dbu.check(&f, &cfg, "frontend");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].severity, Severity::Error);
        assert_eq!(diags[0].pass, "frontend");
        assert_eq!(diags[0].block, Some(BlockId(3)));
        assert!(diags[0].message.contains("before definition"));
    }

    #[test]
    fn predicated_assign_mode_accepts_if_converted_pattern() {
        // v = 1 (if p); v = 2 (if !p); use v — fine when predicated defs
        // count, an error under the strict rule.
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
        let lax = DefBeforeUse::compute(&f, &cfg, PredicatedDefs::CountAsAssign);
        assert!(lax.check(&f, &cfg, "hyperblock").is_empty());
        let strict = DefBeforeUse::compute(&f, &cfg, PredicatedDefs::Strict);
        assert_eq!(strict.check(&f, &cfg, "hyperblock").len(), 1);
    }

    #[test]
    fn available_exprs_must_join_at_loop_header() {
        let (f, n, x, ..) = loop_function();
        let av = AvailableExprs::compute(&f, &Cfg::new(&f));
        let key = ExprKey {
            op: Opcode::Add,
            args: vec![x, n],
            imm: 0,
            fimm_bits: 0.0f64.to_bits(),
        };
        // x + n is computed in the entry block and rematerialized in the
        // body; neither operand is ever redefined, so it is available at
        // the header and the exit despite the loop.
        assert!(av.available_in(BlockId(1), &key), "header");
        assert!(av.available_in(BlockId(3), &key), "exit");
    }

    #[test]
    fn redefining_an_operand_kills_availability() {
        let mut fb = FunctionBuilder::new("kill");
        let a = fb.param(RegClass::Int);
        let b1 = fb.new_block();
        let cell = fb.new_vreg(RegClass::Int);
        fb.push(Inst::new(Opcode::Mov).dst(cell).args(&[a]));
        let s = fb.add(cell, a);
        fb.push(Inst::new(Opcode::Mov).dst(cell).args(&[s]));
        fb.br(b1);
        fb.switch_to(b1);
        fb.ret(Some(cell));
        let f = fb.finish();
        let av = AvailableExprs::compute(&f, &Cfg::new(&f));
        let key = ExprKey {
            op: Opcode::Add,
            args: vec![cell, a],
            imm: 0,
            fimm_bits: 0.0f64.to_bits(),
        };
        assert!(
            !av.available_in(BlockId(1), &key),
            "cell was redefined after cell + a"
        );
    }

    #[test]
    fn constants_are_not_tracked_as_expressions() {
        let mut fb = FunctionBuilder::new("c");
        let a = fb.movi(7);
        fb.ret(Some(a));
        let f = fb.finish();
        let av = AvailableExprs::compute(&f, &Cfg::new(&f));
        assert!(av.exprs.is_empty());
    }
}
