//! Backward liveness dataflow over virtual registers.
//!
//! Predication-aware in the conservative direction: a *predicated* definition
//! is not treated as a kill (the guard might be false, leaving the previous
//! value live), which is the standard safe treatment for EPIC-style IRs.

use crate::cfg::Cfg;
use crate::dataflow::{self, Direction, GenKill, Join};
use crate::program::Function;
use crate::types::{BlockId, VReg};
use crate::util::BitMatrix;

/// Per-block live-in/live-out sets: row `b` of each matrix is a set of
/// vregs of block `b`.
#[derive(Clone, Debug)]
pub struct Liveness {
    /// Registers live on entry to each block.
    pub live_in: BitMatrix,
    /// Registers live on exit from each block.
    pub live_out: BitMatrix,
    /// Upward-exposed uses per block.
    pub use_set: BitMatrix,
    /// Unconditional defs per block.
    pub def_set: BitMatrix,
}

impl Liveness {
    /// Compute liveness for `func` (whose graph is `cfg`) as a
    /// backward-may instance of the generic worklist solver: gen =
    /// upward-exposed uses, kill = unconditional defs.
    pub fn compute(func: &Function, cfg: &Cfg) -> Self {
        let nb = func.blocks.len();
        let nv = func.num_vregs();
        let mut problem = GenKill::new(Direction::Backward, Join::May, nb, nv);

        for (bi, block) in func.blocks.iter().enumerate() {
            let (gen, kill) = (&mut problem.gen, &mut problem.kill);
            for inst in &block.insts {
                for r in inst.reads() {
                    if !kill.contains(bi, r.index()) {
                        gen.insert(bi, r.index());
                    }
                }
                if let Some(d) = inst.dst {
                    if inst.pred.is_none() {
                        kill.insert(bi, d.index());
                    } else {
                        // Predicated def: also an upward-exposed *use* of the
                        // old value (merge semantics), and not a kill.
                        if !kill.contains(bi, d.index()) {
                            gen.insert(bi, d.index());
                        }
                    }
                }
            }
        }

        let sol = dataflow::solve(cfg, &problem);
        Liveness {
            live_in: sol.entry,
            live_out: sol.exit,
            use_set: problem.gen,
            def_set: problem.kill,
        }
    }

    /// Is `r` live on entry to `b`?
    pub fn live_in_at(&self, b: BlockId, r: VReg) -> bool {
        self.live_in.contains(b.index(), r.index())
    }

    /// Is `r` live on exit from `b`?
    pub fn live_out_at(&self, b: BlockId, r: VReg) -> bool {
        self.live_out.contains(b.index(), r.index())
    }

    /// Block-granularity live ranges of `func` (the function this liveness
    /// was computed for), as one vreg × block matrix: row `v` holds the
    /// blocks where `v` is live on entry or on exit, or referenced (read,
    /// guarding an instruction, or defined).
    pub fn ranges(&self, func: &Function) -> BitMatrix {
        let nb = func.blocks.len();
        let mut range = BitMatrix::new(func.num_vregs(), nb);
        for (bi, block) in func.blocks.iter().enumerate() {
            for v in self.live_in.iter_row(bi) {
                range.insert(v, bi);
            }
            for v in self.live_out.iter_row(bi) {
                range.insert(v, bi);
            }
            for inst in &block.insts {
                for r in inst.reads() {
                    range.insert(r.index(), bi);
                }
                if let Some(d) = inst.dst {
                    range.insert(d.index(), bi);
                }
            }
        }
        range
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::{Inst, Opcode};
    use crate::types::RegClass;

    #[test]
    fn loop_carried_value_is_live_around_loop() {
        // acc defined in entry, used+updated in loop body, used after.
        let mut fb = FunctionBuilder::new("l");
        let n = fb.param(RegClass::Int);
        let hdr = fb.new_block();
        let body = fb.new_block();
        let exit = fb.new_block();
        let acc0 = fb.movi(0);
        let i0 = fb.movi(0);
        // Use explicit registers as mutable cells via Mov into fixed vregs.
        let acc = fb.new_vreg(RegClass::Int);
        let i = fb.new_vreg(RegClass::Int);
        fb.push(Inst::new(Opcode::Mov).dst(acc).args(&[acc0]));
        fb.push(Inst::new(Opcode::Mov).dst(i).args(&[i0]));
        fb.br(hdr);
        fb.switch_to(hdr);
        let p = fb.cmp_lt(i, n);
        fb.branch(p, body, exit);
        fb.switch_to(body);
        let acc2 = fb.add(acc, i);
        fb.push(Inst::new(Opcode::Mov).dst(acc).args(&[acc2]));
        let i2 = fb.addi(i, 1);
        fb.push(Inst::new(Opcode::Mov).dst(i).args(&[i2]));
        fb.br(hdr);
        fb.switch_to(exit);
        fb.ret(Some(acc));
        let f = fb.finish();
        let lv = Liveness::compute(&f, &Cfg::new(&f));
        assert!(lv.live_in_at(hdr, acc));
        assert!(lv.live_in_at(hdr, i));
        assert!(lv.live_out_at(body, acc));
        assert!(lv.live_in_at(exit, acc));
        assert!(!lv.live_in_at(exit, i));
    }

    #[test]
    fn predicated_def_does_not_kill() {
        let mut fb = FunctionBuilder::new("p");
        let x = fb.param(RegClass::Int);
        let b1 = fb.new_block();
        let p = fb.cmp_lti(x, 0);
        let v = fb.movi(1);
        // Predicated overwrite of v.
        fb.push(Inst::new(Opcode::MovI).dst(v).imm(2).guarded(p));
        fb.br(b1);
        fb.switch_to(b1);
        fb.ret(Some(v));
        let f = fb.finish();
        let lv = Liveness::compute(&f, &Cfg::new(&f));
        // v's unpredicated def in entry kills it: not live-in to entry.
        assert!(!lv.live_in_at(f.entry, v));
        // But within the entry block, the predicated def counted as a use and
        // not a def; v flows out to b1.
        assert!(lv.live_out_at(f.entry, v));
    }

    #[test]
    fn dead_value_not_live() {
        let mut fb = FunctionBuilder::new("d");
        let a = fb.movi(1);
        let _dead = fb.movi(99);
        fb.ret(Some(a));
        let f = fb.finish();
        let lv = Liveness::compute(&f, &Cfg::new(&f));
        assert!(lv.live_in.row_is_empty(f.entry.index()));
    }
}
