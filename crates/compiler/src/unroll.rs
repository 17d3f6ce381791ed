//! Counted-loop unrolling.
//!
//! Trimaran's §5.3 pipeline includes loop unrolling among the enabled
//! classic optimizations. This pass unrolls *counted* innermost loops of
//! the canonical frontend shape — a two-block loop whose header tests a
//! constant bound against a constant-initialized, constant-step induction
//! cell — by the largest factor from `{8, 4, 2}` that divides the trip
//! count exactly (so no prologue/epilogue is needed and the header test
//! stays correct when executed once per group).
//!
//! Because cross-iteration state lives in multiply-defined *cells*, body
//! replication is verbatim: each copy recomputes the induction variable
//! from the cell, so no register renaming is required. The pass is **not**
//! part of the default study pipelines (it would perturb the calibrated
//! paper dynamics); enable it with `unroll(N)` in a
//! [`PipelinePlan`](crate::plan::PipelinePlan) (CLI: `--unroll N` or
//! `--passes "unroll(2),prefetch,hyperblock,regalloc,schedule"`).

use crate::pass::{Pass, PassCtx};
use crate::CompileError;
use metaopt_ir::cfg::Cfg;
use metaopt_ir::dom::DomTree;
use metaopt_ir::loops::LoopForest;
use metaopt_ir::{Function, Inst, Opcode};
use std::collections::HashMap;

/// Upper bound on body size (instructions) eligible for unrolling.
const MAX_BODY: usize = 64;

/// A recognized counted loop.
struct Counted {
    header: usize,
    body: usize,
    trip: i64,
}

/// The cell's unique out-of-loop initialization constant, if any: either a
/// direct `MovI cell, k` (after constant folding) or the frontend's
/// `MovI t, k; Mov cell, t` idiom.
fn init_of(func: &Function, in_loop: &dyn Fn(usize) -> bool, cell: u32) -> Option<i64> {
    // Single-def MovI constants anywhere in the function.
    let mut def_count: HashMap<u32, u32> = HashMap::new();
    let mut movi: HashMap<u32, i64> = HashMap::new();
    for b in &func.blocks {
        for inst in &b.insts {
            if let Some(d) = inst.dst {
                *def_count.entry(d.0).or_insert(0) += 1;
                if inst.op == Opcode::MovI && inst.pred.is_none() {
                    movi.insert(d.0, inst.imm);
                }
            }
        }
    }
    let const_of = |r: u32| -> Option<i64> {
        (def_count.get(&r) == Some(&1))
            .then(|| movi.get(&r).copied())
            .flatten()
    };
    let mut init = None;
    let mut outside_defs = 0;
    for (bi, b) in func.blocks.iter().enumerate() {
        for inst in &b.insts {
            if inst.dst.map(|d| d.0) != Some(cell) || in_loop(bi) {
                continue;
            }
            outside_defs += 1;
            init = match inst.op {
                Opcode::MovI if inst.pred.is_none() => Some(inst.imm),
                Opcode::Mov if inst.pred.is_none() => const_of(inst.args[0].0),
                _ => None,
            };
        }
    }
    (outside_defs == 1).then_some(init).flatten()
}

fn recognize(func: &Function, forest: &LoopForest) -> Vec<Counted> {
    let mut out = Vec::new();
    for l in &forest.loops {
        let blocks: Vec<usize> = l.blocks.iter().collect();
        if blocks.len() != 2 {
            continue;
        }
        let header = l.header.index();
        let body = *blocks.iter().find(|&&b| b != header).expect("two blocks");
        // Header shape: [..cmp p = CmpLtI(cell, N); CBr p -> body; Br exit]
        let h = &func.blocks[header].insts;
        if h.len() < 3 {
            continue;
        }
        let (cbr, br) = (&h[h.len() - 2], &h[h.len() - 1]);
        if cbr.op != Opcode::CBr
            || br.op != Opcode::Br
            || cbr.target.map(|t| t.index()) != Some(body)
        {
            continue;
        }
        let cmp = &h[h.len() - 3];
        if cmp.op != Opcode::CmpLtI || cmp.dst != Some(cbr.args[0]) || cmp.pred.is_some() {
            continue;
        }
        let cell = cmp.args[0].0;
        let bound = cmp.imm;
        // Body: straight-line, ends Br header, updates the cell by AddI step
        // exactly once (via the Mov idiom), size-bounded.
        let b = &func.blocks[body].insts;
        if b.len() > MAX_BODY || b.last().map(|i| i.op) != Some(Opcode::Br) {
            continue;
        }
        if b.iter().any(|i| i.op.is_control() && i.op != Opcode::Br) {
            continue;
        }
        let in_loop = |bi: usize| bi == header || bi == body;
        let steps = crate_step_of(func, body, cell);
        let Some(step) = steps else { continue };
        if step <= 0 {
            continue;
        }
        let Some(init) = init_of(func, &in_loop, cell) else {
            continue;
        };
        if init >= bound {
            continue;
        }
        let span = bound - init;
        if span % step != 0 {
            continue;
        }
        out.push(Counted {
            header,
            body,
            trip: span / step,
        });
    }
    out
}

/// The cell's in-body step, if it is updated exactly once as
/// `t = AddI(cell, c); Mov cell, t` (or a direct `AddI cell <- cell, c`).
fn crate_step_of(func: &Function, body: usize, cell: u32) -> Option<i64> {
    let insts = &func.blocks[body].insts;
    let mut step = None;
    let mut defs = 0;
    for inst in insts {
        if inst.dst.map(|d| d.0) == Some(cell) {
            defs += 1;
            match inst.op {
                Opcode::AddI if inst.args[0].0 == cell && inst.pred.is_none() => {
                    step = Some(inst.imm);
                }
                Opcode::Mov if inst.pred.is_none() => {
                    let src = inst.args[0].0;
                    step = insts.iter().find_map(|s| {
                        (s.dst.map(|d| d.0) == Some(src)
                            && s.op == Opcode::AddI
                            && s.args[0].0 == cell
                            && s.pred.is_none())
                        .then_some(s.imm)
                    });
                }
                _ => return None,
            }
        }
    }
    (defs == 1).then_some(step).flatten()
}

/// Unroll eligible counted loops by the largest factor in `{8, 4, 2}` that
/// divides their trip count. Returns the number of loops unrolled.
pub fn unroll_loops(func: &mut Function, max_factor: u32) -> u64 {
    let cfg = Cfg::new(func);
    let forest = LoopForest::compute(&cfg, &DomTree::compute(&cfg));
    let loops = recognize(func, &forest);
    let mut unrolled = 0;
    for c in loops {
        let factor = [8i64, 4, 2]
            .into_iter()
            .filter(|f| *f <= max_factor as i64)
            .find(|f| c.trip % f == 0);
        let Some(factor) = factor else { continue };
        let body: Vec<Inst> = func.blocks[c.body].insts.clone();
        let tail = body.last().cloned().expect("non-empty body"); // Br header
        let straight = &body[..body.len() - 1];
        let mut new_insts = Vec::with_capacity(straight.len() * factor as usize + 1);
        for _ in 0..factor {
            new_insts.extend(straight.iter().cloned());
        }
        new_insts.push(tail);
        func.blocks[c.body].insts = new_insts;
        let _ = c.header;
        unrolled += 1;
    }
    unrolled
}

/// [`unroll_loops`] as a plan-schedulable [`Pass`] (`unroll(N)` in plan
/// syntax).
pub struct UnrollPass {
    /// Unrolling factor cap (≥ 2).
    pub factor: u32,
}

impl Pass for UnrollPass {
    fn name(&self) -> &'static str {
        "unroll"
    }

    fn run(&self, func: &mut Function, ctx: &mut PassCtx<'_>) -> Result<(), CompileError> {
        ctx.stats.counters.unrolled += unroll_loops(func, self.factor);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaopt_ir::interp::{run, RunConfig};
    use metaopt_ir::verify::{verify_function, CfgForm};

    fn prepared(src: &str) -> metaopt_ir::Program {
        let prog = metaopt_lang::compile(src).unwrap();
        crate::prepare_checked(&prog, true).unwrap()
    }

    const SUMLOOP: &str = r#"
        global int xs[64];
        fn main() -> int {
            let s = 0;
            for (let i = 0; i < 64; i = i + 1) { xs[i] = i * 7 % 13; }
            for (let i = 0; i < 64; i = i + 1) { s = s + xs[i] * 3; }
            return s;
        }
    "#;

    #[test]
    fn unrolls_and_preserves_semantics() {
        let mut p = prepared(SUMLOOP);
        let want = run(&p, &RunConfig::default()).unwrap().ret;
        let before = p.funcs[0].num_insts();
        let n = unroll_loops(&mut p.funcs[0], 8);
        assert!(n >= 2, "both loops are counted: {n}");
        assert!(p.funcs[0].num_insts() > before * 4, "bodies replicated");
        verify_function(&p.funcs[0], CfgForm::Canonical).unwrap();
        assert_eq!(run(&p, &RunConfig::default()).unwrap().ret, want);
    }

    #[test]
    fn unrolled_loop_executes_fewer_branches() {
        let mut p = prepared(SUMLOOP);
        let base = run(
            &p,
            &RunConfig {
                profile: true,
                ..Default::default()
            },
        )
        .unwrap()
        .profile
        .unwrap();
        let base_branches: u64 = base.funcs[0].branches.values().map(|s| s.executed).sum();
        unroll_loops(&mut p.funcs[0], 8);
        let after = run(
            &p,
            &RunConfig {
                profile: true,
                ..Default::default()
            },
        )
        .unwrap()
        .profile
        .unwrap();
        let after_branches: u64 = after.funcs[0].branches.values().map(|s| s.executed).sum();
        assert!(
            after_branches * 4 < base_branches,
            "{after_branches} vs {base_branches}"
        );
    }

    #[test]
    fn skips_non_divisible_and_data_dependent_loops() {
        let mut p = prepared(
            r#"
            fn main() -> int {
                let s = 0;
                for (let i = 0; i < 7; i = i + 1) { s = s + i; }    // trip 7: indivisible
                let n = s % 5 + 2;
                for (let j = 0; j < n; j = j + 1) { s = s + 1; }    // data-dependent bound
                while (s > 10) { s = s - 10; }                      // not counted
                return s;
            }
        "#,
        );
        let want = run(&p, &RunConfig::default()).unwrap().ret;
        // The trip-7 loop may unroll only by a divisor of 7 (none in {8,4,2}).
        let n = unroll_loops(&mut p.funcs[0], 8);
        assert_eq!(n, 0, "nothing here is safely unrollable");
        assert_eq!(run(&p, &RunConfig::default()).unwrap().ret, want);
    }

    #[test]
    fn respects_max_factor() {
        let mut p2 = prepared(SUMLOOP);
        unroll_loops(&mut p2.funcs[0], 2);
        let mut p8 = prepared(SUMLOOP);
        unroll_loops(&mut p8.funcs[0], 8);
        assert!(p8.funcs[0].num_insts() > p2.funcs[0].num_insts());
        assert_eq!(
            run(&p2, &RunConfig::default()).unwrap().ret,
            run(&p8, &RunConfig::default()).unwrap().ret
        );
    }

    #[test]
    fn loops_with_inner_control_are_skipped() {
        let mut p = prepared(
            r#"
            global int xs[16];
            fn main() -> int {
                let s = 0;
                for (let i = 0; i < 16; i = i + 1) {
                    if (xs[i] % 2 == 0) { s = s + 1; } else { s = s - 1; }
                }
                return s;
            }
        "#,
        );
        let want = run(&p, &RunConfig::default()).unwrap().ret;
        // The loop body spans multiple blocks; only the (absent) two-block
        // loops qualify.
        unroll_loops(&mut p.funcs[0], 8);
        assert_eq!(run(&p, &RunConfig::default()).unwrap().ret, want);
    }

    #[test]
    fn compiles_and_simulates_after_unrolling() {
        let mut p = prepared(SUMLOOP);
        let want = run(&p, &RunConfig::default()).unwrap().ret;
        unroll_loops(&mut p.funcs[0], 8);
        let profile = run(
            &p,
            &RunConfig {
                profile: true,
                ..Default::default()
            },
        )
        .unwrap()
        .profile
        .unwrap();
        let machine = metaopt_sim::MachineConfig::table3();
        let passes = crate::Passes {
            check_ir: true,
            ..Default::default()
        };
        let compiled = crate::compile(&p, &profile.funcs[0], &machine, &passes).unwrap();
        let sim =
            metaopt_sim::simulate(&compiled.code, &machine, compiled.initial_memory(&p)).unwrap();
        assert_eq!(sim.ret, want);
    }
}
