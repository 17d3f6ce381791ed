//! Scheduled, register-allocated machine code.
//!
//! A [`MachineProgram`] is the compiler's output: one fully-inlined function
//! whose blocks are sequences of [`Bundle`]s (VLIW issue groups). Register
//! operands reuse the IR's [`Inst`] structure but are *physical* register
//! indices into the class-specific files of a [`MachineConfig`].

use crate::machine::{unit_of, MachineConfig};
use metaopt_ir::{Inst, Opcode};

/// One VLIW issue group: instructions the scheduler placed in the same cycle.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Bundle {
    /// Slots, executed with sequential semantics (the scheduler only bundles
    /// independent instructions, so this matches EQ-model hardware).
    pub insts: Vec<Inst>,
}

/// A scheduled machine program.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MachineProgram {
    /// Blocks of bundles; `Inst::target` indexes this vector.
    pub blocks: Vec<Vec<Bundle>>,
    /// Entry block index.
    pub entry: usize,
}

impl MachineProgram {
    /// Total instructions (static).
    pub fn num_insts(&self) -> usize {
        self.blocks
            .iter()
            .flat_map(|b| b.iter())
            .map(|bu| bu.insts.len())
            .sum()
    }

    /// Total bundles (static schedule length).
    pub fn num_bundles(&self) -> usize {
        self.blocks.iter().map(|b| b.len()).sum()
    }
}

/// Check that `mp` is executable on `cfg`: per-bundle functional-unit usage
/// within limits, physical register indices within the files, control
/// transfers only in the last slot of a bundle, each block terminated by an
/// unconditional `Br`/`Ret`, targets in range, and no residual `Call`s.
///
/// # Errors
/// Returns a description of the first violation.
pub fn verify_machine(mp: &MachineProgram, cfg: &MachineConfig) -> Result<(), String> {
    if mp.entry >= mp.blocks.len() {
        return Err("entry block out of range".into());
    }
    for (bi, block) in mp.blocks.iter().enumerate() {
        let Some(last_bundle) = block.last() else {
            return Err(format!("block {bi} is empty"));
        };
        match last_bundle.insts.last().map(|i| i.op) {
            Some(Opcode::Br | Opcode::Ret) => {}
            other => {
                return Err(format!(
                    "block {bi} must end with br/ret, ends with {other:?}"
                ))
            }
        }
        for (ki, bundle) in block.iter().enumerate() {
            let mut used = [0usize; 4];
            for (si, inst) in bundle.insts.iter().enumerate() {
                if inst.op == Opcode::Call {
                    return Err(format!("block {bi} bundle {ki}: residual call"));
                }
                used[unit_of(inst.op).index()] += 1;
                if inst.op.is_control() && si + 1 != bundle.insts.len() {
                    return Err(format!(
                        "block {bi} bundle {ki}: control instruction not in last slot"
                    ));
                }
                if let Some(t) = inst.target {
                    if t.index() >= mp.blocks.len() {
                        return Err(format!("block {bi} bundle {ki}: target {t} out of range"));
                    }
                }
                // Register ranges.
                for (i, a) in inst.args.iter().enumerate() {
                    let Some(c) = inst.op.arg_class(i) else {
                        continue;
                    };
                    if a.index() >= cfg.file_size(c) {
                        return Err(format!(
                            "block {bi} bundle {ki}: {c} register {a} out of file"
                        ));
                    }
                }
                if let (Some(c), Some(d)) = (inst.op.dst_class(), inst.dst) {
                    if d.index() >= cfg.file_size(c) {
                        return Err(format!(
                            "block {bi} bundle {ki}: {c} destination {d} out of file"
                        ));
                    }
                }
                if let Some(p) = inst.pred {
                    if p.index() >= cfg.pred {
                        return Err(format!("block {bi} bundle {ki}: guard {p} out of file"));
                    }
                }
            }
            if used.iter().zip(cfg.unit_caps()).any(|(&u, cap)| u > cap) {
                return Err(format!(
                    "block {bi} bundle {ki}: unit over-subscription {used:?}"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaopt_ir::VReg;

    fn ret_bundle() -> Bundle {
        Bundle {
            insts: vec![Inst::new(Opcode::Ret)],
        }
    }

    fn one_block(bundles: Vec<Bundle>) -> MachineProgram {
        MachineProgram {
            blocks: vec![bundles],
            entry: 0,
        }
    }

    #[test]
    fn accepts_minimal_program() {
        let mp = one_block(vec![ret_bundle()]);
        assert!(verify_machine(&mp, &MachineConfig::table3()).is_ok());
    }

    #[test]
    fn rejects_unit_oversubscription() {
        let mut b = Bundle::default();
        for _ in 0..5 {
            // 5 int ops > 4 int units
            b.insts.push(
                Inst::new(Opcode::Add)
                    .dst(VReg(0))
                    .args(&[VReg(1), VReg(2)]),
            );
        }
        let mp = one_block(vec![b, ret_bundle()]);
        let e = verify_machine(&mp, &MachineConfig::table3()).unwrap_err();
        assert!(e.contains("over-subscription"), "{e}");
    }

    #[test]
    fn rejects_register_out_of_file() {
        let b = Bundle {
            insts: vec![Inst::new(Opcode::Add)
                .dst(VReg(64))
                .args(&[VReg(0), VReg(1)])],
        };
        let mp = one_block(vec![b, ret_bundle()]);
        let e = verify_machine(&mp, &MachineConfig::table3()).unwrap_err();
        assert!(e.contains("destination"), "{e}");
    }

    #[test]
    fn rejects_control_mid_bundle() {
        let b = Bundle {
            insts: vec![
                Inst::new(Opcode::Br).target(metaopt_ir::BlockId(0)),
                Inst::new(Opcode::MovI).dst(VReg(0)).imm(1),
            ],
        };
        let mp = one_block(vec![b, ret_bundle()]);
        let e = verify_machine(&mp, &MachineConfig::table3()).unwrap_err();
        assert!(e.contains("not in last slot"), "{e}");
    }

    #[test]
    fn rejects_missing_terminator() {
        let b = Bundle {
            insts: vec![Inst::new(Opcode::MovI).dst(VReg(0)).imm(1)],
        };
        let mp = one_block(vec![b]);
        assert!(verify_machine(&mp, &MachineConfig::table3()).is_err());
    }

    #[test]
    fn counts_insts_and_bundles() {
        let mp = one_block(vec![
            Bundle {
                insts: vec![Inst::new(Opcode::MovI).dst(VReg(0)).imm(1)],
            },
            ret_bundle(),
        ]);
        assert_eq!(mp.num_insts(), 2);
        assert_eq!(mp.num_bundles(), 2);
    }
}
