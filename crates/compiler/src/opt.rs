//! Classic clean-up optimizations: constant folding and dead-code
//! elimination. These run once after inlining, before any priority-driven
//! pass, so the search operates on reasonable code. Folding computes each
//! value through [`Opcode::eval`], the evaluation the interpreter and the
//! simulator run, so a folded constant is the value the executed
//! instruction would have produced.

use metaopt_ir::{Function, Inst, Opcode};
use std::collections::HashMap;

/// The opcodes [`constant_fold`] evaluates, through [`Opcode::eval`]. Folding
/// any other would change compiled programs, and with them fitness values.
const FOLDED: [Opcode; 6] = [
    Opcode::Add,
    Opcode::Sub,
    Opcode::Mul,
    Opcode::AddI,
    Opcode::MulI,
    Opcode::Mov,
];

/// Fold instructions whose integer operands are all known constants
/// (`MovI`-defined and never redefined) into `MovI`s. Intra-procedural and
/// conservative: a register counts as constant only if it has exactly one
/// definition in the whole function and that definition is an unpredicated
/// `MovI`.
pub fn constant_fold(func: &mut Function) {
    // Count defs and record MovI constants.
    let mut def_count: HashMap<u32, u32> = HashMap::new();
    let mut constants: HashMap<u32, i64> = HashMap::new();
    for b in &func.blocks {
        for inst in &b.insts {
            if let Some(d) = inst.dst {
                *def_count.entry(d.0).or_insert(0) += 1;
                if inst.op == Opcode::MovI && inst.pred.is_none() {
                    constants.insert(d.0, inst.imm);
                }
            }
        }
    }
    let get = |r: &metaopt_ir::VReg| -> Option<i64> {
        if def_count.get(&r.0) == Some(&1) {
            constants.get(&r.0).copied()
        } else {
            None
        }
    };
    for b in &mut func.blocks {
        for inst in &mut b.insts {
            if inst.pred.is_some() || !FOLDED.contains(&inst.op) {
                continue;
            }
            let consts: Option<Vec<i64>> = inst.args.iter().map(get).collect();
            if let Some(v) = consts.map(|c| inst.op.eval(|i| c[i], inst.imm)) {
                *inst = Inst::new(Opcode::MovI).dst(inst.dst.unwrap()).imm(v);
            }
        }
    }
    // Strength-reduce binary ops with one constant operand into immediate
    // forms (fewer registers, better schedules).
    for b in &mut func.blocks {
        for inst in &mut b.insts {
            if inst.pred.is_some() {
                continue;
            }
            match inst.op {
                Opcode::Add => {
                    if let Some(c) = get(&inst.args[1]) {
                        let a = inst.args[0];
                        *inst = Inst::new(Opcode::AddI)
                            .dst(inst.dst.unwrap())
                            .args(&[a])
                            .imm(c);
                    } else if let Some(c) = get(&inst.args[0]) {
                        let a = inst.args[1];
                        *inst = Inst::new(Opcode::AddI)
                            .dst(inst.dst.unwrap())
                            .args(&[a])
                            .imm(c);
                    }
                }
                Opcode::Mul => {
                    if let Some(c) = get(&inst.args[1]) {
                        let a = inst.args[0];
                        *inst = Inst::new(Opcode::MulI)
                            .dst(inst.dst.unwrap())
                            .args(&[a])
                            .imm(c);
                    } else if let Some(c) = get(&inst.args[0]) {
                        let a = inst.args[1];
                        *inst = Inst::new(Opcode::MulI)
                            .dst(inst.dst.unwrap())
                            .args(&[a])
                            .imm(c);
                    }
                }
                Opcode::CmpLt => {
                    if let Some(c) = get(&inst.args[1]) {
                        let a = inst.args[0];
                        *inst = Inst::new(Opcode::CmpLtI)
                            .dst(inst.dst.unwrap())
                            .args(&[a])
                            .imm(c);
                    }
                }
                Opcode::CmpEq => {
                    if let Some(c) = get(&inst.args[1]) {
                        let a = inst.args[0];
                        *inst = Inst::new(Opcode::CmpEqI)
                            .dst(inst.dst.unwrap())
                            .args(&[a])
                            .imm(c);
                    }
                }
                _ => {}
            }
        }
    }
}

/// Remove pure instructions whose results are never read. Iterates to a
/// fixpoint. Memory operations, control flow, and `UnsafeCall`s are never
/// removed; predicated definitions count as uses of nothing extra but their
/// removal is safe when the destination is dead everywhere.
pub fn dead_code_elim(func: &mut Function) {
    loop {
        let mut used = vec![false; func.num_vregs()];
        for b in &func.blocks {
            for inst in &b.insts {
                for r in inst.reads() {
                    used[r.index()] = true;
                }
            }
        }
        let mut removed = false;
        for b in &mut func.blocks {
            b.insts.retain(|inst| {
                let pure =
                    !inst.op.is_control() && !inst.op.is_mem() && inst.op != Opcode::UnsafeCall;
                let dead = match inst.dst {
                    Some(d) => !used[d.index()],
                    None => false,
                };
                if pure && dead {
                    removed = true;
                    false
                } else {
                    true
                }
            });
        }
        if !removed {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaopt_ir::interp::{run, RunConfig};
    use metaopt_ir::verify::{verify_function, CfgForm};
    use metaopt_lang::compile as mc;

    fn optimized(src: &str) -> (metaopt_ir::Program, metaopt_ir::Program) {
        let prog = mc(src).unwrap();
        let mut opt = crate::inline::inline_program(&prog).unwrap();
        constant_fold(&mut opt.funcs[0]);
        dead_code_elim(&mut opt.funcs[0]);
        verify_function(&opt.funcs[0], CfgForm::Canonical).unwrap();
        (prog, opt)
    }

    #[test]
    fn preserves_semantics() {
        let src = r#"
            global int xs[8] = { 1, 2, 3, 4, 5, 6, 7, 8 };
            fn main() -> int {
                let s = 0;
                let dead = 12345 * 99;
                for (let i = 0; i < 8; i = i + 1) { s = s + xs[i] * 2; }
                return s;
            }
        "#;
        let (orig, opt) = optimized(src);
        let a = run(&orig, &RunConfig::default()).unwrap();
        let b = run(&opt, &RunConfig::default()).unwrap();
        assert_eq!(a.ret, b.ret);
    }

    #[test]
    fn removes_dead_code() {
        let (_, opt) =
            optimized("fn main() -> int { let dead = 3 * 4 + 5; let live = 2; return live; }");
        // `dead` chain removed: expect only a handful of instructions.
        assert!(
            opt.funcs[0].num_insts() <= 4,
            "{} insts:\n{}",
            opt.funcs[0].num_insts(),
            opt.funcs[0]
        );
    }

    #[test]
    fn folds_constants() {
        let (_, opt) = optimized("fn main() -> int { return 6 * 7; }");
        let f = &opt.funcs[0];
        // The multiply should be folded away.
        assert!(
            !f.blocks
                .iter()
                .flat_map(|b| &b.insts)
                .any(|i| matches!(i.op, Opcode::Mul | Opcode::MulI)),
            "{f}"
        );
        assert_eq!(run(&opt, &RunConfig::default()).unwrap().ret, 42);
    }

    #[test]
    fn never_removes_stores_or_ucalls() {
        let (_, opt) = optimized(
            r#"
            global int g[2];
            fn main() -> int { g[0] = 7; ucall(1, 5); return g[0]; }
        "#,
        );
        let f = &opt.funcs[0];
        assert!(f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .any(|i| i.op.is_store()));
        assert!(f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .any(|i| i.op == Opcode::UnsafeCall));
        assert_eq!(run(&opt, &RunConfig::default()).unwrap().ret, 7);
    }

    #[test]
    fn immediate_forms_substituted() {
        let (_, opt) = optimized(
            "global int xs[4] = {1,2,3,4}; fn main() -> int { let s = 0; for (let i = 0; i < 4; i = i + 1) { s = s + xs[i]; } return s; }",
        );
        // Address arithmetic i*8 should become MulI.
        let f = &opt.funcs[0];
        assert!(
            f.blocks
                .iter()
                .flat_map(|b| &b.insts)
                .any(|i| i.op == Opcode::MulI && i.imm == 8),
            "{f}"
        );
        assert_eq!(run(&opt, &RunConfig::default()).unwrap().ret, 10);
    }
}
