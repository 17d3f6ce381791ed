//! Ergonomic construction of IR functions.
//!
//! [`FunctionBuilder`] keeps a current insertion block and offers one method
//! per opcode, allocating destination registers automatically. The
//! `metaopt-lang` frontend lowers MiniC through this interface, and tests
//! use it to build CFGs by hand.

use crate::inst::{Inst, Opcode, Width};
use crate::program::{Block, Function};
use crate::types::{BlockId, RegClass, VReg};

/// Incremental builder for a [`Function`].
#[derive(Debug)]
pub struct FunctionBuilder {
    func: Function,
    cur: BlockId,
}

impl FunctionBuilder {
    /// Start building a function with the given name; the insertion point is
    /// the entry block.
    pub fn new(name: impl Into<String>) -> Self {
        let func = Function::new(name);
        let cur = func.entry;
        FunctionBuilder { func, cur }
    }

    /// Declare a parameter of the given class.
    pub fn param(&mut self, class: RegClass) -> VReg {
        let r = self.func.new_vreg(class);
        self.func.params.push(r);
        r
    }

    /// Allocate a fresh virtual register.
    pub fn new_vreg(&mut self, class: RegClass) -> VReg {
        self.func.new_vreg(class)
    }

    /// Create a new (empty, unconnected) block.
    pub fn new_block(&mut self) -> BlockId {
        self.func.new_block()
    }

    /// Move the insertion point.
    pub fn switch_to(&mut self, b: BlockId) {
        self.cur = b;
    }

    /// The current insertion block.
    pub fn current(&self) -> BlockId {
        self.cur
    }

    /// Append a raw instruction at the insertion point.
    pub fn push(&mut self, inst: Inst) {
        self.func.blocks[self.cur.index()].insts.push(inst);
    }

    /// Access the block being built.
    pub fn current_block(&self) -> &Block {
        self.func.block(self.cur)
    }

    /// Finish and return the function.
    pub fn finish(self) -> Function {
        self.func
    }

    fn emit(&mut self, op: Opcode, args: &[VReg]) -> VReg {
        let class = op.dst_class().expect("emit used with non-defining opcode");
        let d = self.func.new_vreg(class);
        self.push(Inst::new(op).dst(d).args(args));
        d
    }

    fn emit_imm(&mut self, op: Opcode, args: &[VReg], imm: i64) -> VReg {
        let class = op
            .dst_class()
            .expect("emit_imm used with non-defining opcode");
        let d = self.func.new_vreg(class);
        self.push(Inst::new(op).dst(d).args(args).imm(imm));
        d
    }

    // ---- integer ----

    /// `a + b`
    pub fn add(&mut self, a: VReg, b: VReg) -> VReg {
        self.emit(Opcode::Add, &[a, b])
    }
    /// `a - b`
    pub fn sub(&mut self, a: VReg, b: VReg) -> VReg {
        self.emit(Opcode::Sub, &[a, b])
    }
    /// `a * b`
    pub fn mul(&mut self, a: VReg, b: VReg) -> VReg {
        self.emit(Opcode::Mul, &[a, b])
    }
    /// `a / b`
    pub fn div(&mut self, a: VReg, b: VReg) -> VReg {
        self.emit(Opcode::Div, &[a, b])
    }
    /// `a % b`
    pub fn rem(&mut self, a: VReg, b: VReg) -> VReg {
        self.emit(Opcode::Rem, &[a, b])
    }
    /// `a & b`
    pub fn and(&mut self, a: VReg, b: VReg) -> VReg {
        self.emit(Opcode::And, &[a, b])
    }
    /// `a | b`
    pub fn or(&mut self, a: VReg, b: VReg) -> VReg {
        self.emit(Opcode::Or, &[a, b])
    }
    /// `a ^ b`
    pub fn xor(&mut self, a: VReg, b: VReg) -> VReg {
        self.emit(Opcode::Xor, &[a, b])
    }
    /// `a << b`
    pub fn shl(&mut self, a: VReg, b: VReg) -> VReg {
        self.emit(Opcode::Shl, &[a, b])
    }
    /// `a >> b`
    pub fn shr(&mut self, a: VReg, b: VReg) -> VReg {
        self.emit(Opcode::Shr, &[a, b])
    }
    /// `a + imm`
    pub fn addi(&mut self, a: VReg, imm: i64) -> VReg {
        self.emit_imm(Opcode::AddI, &[a], imm)
    }
    /// `a * imm`
    pub fn muli(&mut self, a: VReg, imm: i64) -> VReg {
        self.emit_imm(Opcode::MulI, &[a], imm)
    }
    /// integer constant
    pub fn movi(&mut self, imm: i64) -> VReg {
        self.emit_imm(Opcode::MovI, &[], imm)
    }
    /// register copy
    pub fn mov(&mut self, a: VReg) -> VReg {
        self.emit(Opcode::Mov, &[a])
    }
    /// `if p { a } else { b }`
    pub fn sel(&mut self, p: VReg, a: VReg, b: VReg) -> VReg {
        self.emit(Opcode::Sel, &[p, a, b])
    }

    // ---- comparisons ----

    /// `a == b`
    pub fn cmp_eq(&mut self, a: VReg, b: VReg) -> VReg {
        self.emit(Opcode::CmpEq, &[a, b])
    }
    /// `a != b`
    pub fn cmp_ne(&mut self, a: VReg, b: VReg) -> VReg {
        self.emit(Opcode::CmpNe, &[a, b])
    }
    /// `a < b`
    pub fn cmp_lt(&mut self, a: VReg, b: VReg) -> VReg {
        self.emit(Opcode::CmpLt, &[a, b])
    }
    /// `a <= b`
    pub fn cmp_le(&mut self, a: VReg, b: VReg) -> VReg {
        self.emit(Opcode::CmpLe, &[a, b])
    }
    /// `a < imm`
    pub fn cmp_lti(&mut self, a: VReg, imm: i64) -> VReg {
        self.emit_imm(Opcode::CmpLtI, &[a], imm)
    }
    /// `a == imm`
    pub fn cmp_eqi(&mut self, a: VReg, imm: i64) -> VReg {
        self.emit_imm(Opcode::CmpEqI, &[a], imm)
    }

    // ---- float ----

    /// `a + b`
    pub fn fadd(&mut self, a: VReg, b: VReg) -> VReg {
        self.emit(Opcode::FAdd, &[a, b])
    }
    /// `a - b`
    pub fn fsub(&mut self, a: VReg, b: VReg) -> VReg {
        self.emit(Opcode::FSub, &[a, b])
    }
    /// `a * b`
    pub fn fmul(&mut self, a: VReg, b: VReg) -> VReg {
        self.emit(Opcode::FMul, &[a, b])
    }
    /// `a / b`
    pub fn fdiv(&mut self, a: VReg, b: VReg) -> VReg {
        self.emit(Opcode::FDiv, &[a, b])
    }
    /// float constant
    pub fn fmovi(&mut self, v: f64) -> VReg {
        let d = self.func.new_vreg(RegClass::Float);
        self.push(Inst::new(Opcode::FMovI).dst(d).fimm(v));
        d
    }
    /// int → float
    pub fn i2f(&mut self, a: VReg) -> VReg {
        self.emit(Opcode::I2F, &[a])
    }
    /// float → int
    pub fn f2i(&mut self, a: VReg) -> VReg {
        self.emit(Opcode::F2I, &[a])
    }
    /// `a < b` (float)
    pub fn fcmp_lt(&mut self, a: VReg, b: VReg) -> VReg {
        self.emit(Opcode::FCmpLt, &[a, b])
    }

    // ---- memory ----

    /// 8-byte integer load from `addr + off`.
    pub fn ld8(&mut self, addr: VReg, off: i64) -> VReg {
        self.emit_imm(Opcode::Ld(Width::B8), &[addr], off)
    }
    /// 4-byte integer load from `addr + off`.
    pub fn ld4(&mut self, addr: VReg, off: i64) -> VReg {
        self.emit_imm(Opcode::Ld(Width::B4), &[addr], off)
    }
    /// 1-byte integer load from `addr + off`.
    pub fn ld1(&mut self, addr: VReg, off: i64) -> VReg {
        self.emit_imm(Opcode::Ld(Width::B1), &[addr], off)
    }
    /// 8-byte integer store of `val` to `addr + off`.
    pub fn st8(&mut self, addr: VReg, val: VReg, off: i64) {
        self.push(Inst::new(Opcode::St(Width::B8)).args(&[addr, val]).imm(off));
    }
    /// 4-byte integer store of `val` to `addr + off`.
    pub fn st4(&mut self, addr: VReg, val: VReg, off: i64) {
        self.push(Inst::new(Opcode::St(Width::B4)).args(&[addr, val]).imm(off));
    }
    /// 1-byte integer store of `val` to `addr + off`.
    pub fn st1(&mut self, addr: VReg, val: VReg, off: i64) {
        self.push(Inst::new(Opcode::St(Width::B1)).args(&[addr, val]).imm(off));
    }
    /// Float load from `addr + off`.
    pub fn fld(&mut self, addr: VReg, off: i64) -> VReg {
        self.emit_imm(Opcode::FLd, &[addr], off)
    }
    /// Float store of `val` to `addr + off`.
    pub fn fst(&mut self, addr: VReg, val: VReg, off: i64) {
        self.push(Inst::new(Opcode::FSt).args(&[addr, val]).imm(off));
    }
    /// Prefetch the cache line containing `addr + off`.
    pub fn prefetch(&mut self, addr: VReg, off: i64) {
        self.push(Inst::new(Opcode::Prefetch).args(&[addr]).imm(off));
    }

    // ---- control ----

    /// Unconditional branch.
    pub fn br(&mut self, target: BlockId) {
        self.push(Inst::new(Opcode::Br).target(target));
    }
    /// Conditional branch on predicate `p`; falls through when false.
    pub fn cbr(&mut self, p: VReg, target: BlockId) {
        self.push(Inst::new(Opcode::CBr).args(&[p]).target(target));
    }
    /// Two-way branch: to `on_true` if `p`, else to `on_false`.
    pub fn branch(&mut self, p: VReg, on_true: BlockId, on_false: BlockId) {
        self.cbr(p, on_true);
        self.br(on_false);
    }
    /// Return, optionally with a value.
    pub fn ret(&mut self, val: Option<VReg>) {
        let mut i = Inst::new(Opcode::Ret);
        if let Some(v) = val {
            i = i.args(&[v]);
        }
        self.push(i);
    }
    /// Call `callee` (by raw function index) with `args`; returns the result
    /// register.
    pub fn call(&mut self, callee: i64, args: &[VReg]) -> VReg {
        self.emit_imm(Opcode::Call, args, callee)
    }
    /// Opaque side-effecting call (hazard) with scratch-slot selector `site`.
    pub fn unsafe_call(&mut self, site: i64, arg: VReg) -> VReg {
        self.emit_imm(Opcode::UnsafeCall, &[arg], site)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::RegClass;

    #[test]
    fn builds_straight_line_code() {
        let mut fb = FunctionBuilder::new("f");
        let a = fb.movi(1);
        let b = fb.movi(2);
        let c = fb.add(a, b);
        fb.ret(Some(c));
        let f = fb.finish();
        assert_eq!(f.blocks.len(), 1);
        assert_eq!(f.block(f.entry).insts.len(), 4);
        assert_eq!(f.class_of(c), RegClass::Int);
    }

    #[test]
    fn builds_diamond_cfg() {
        let mut fb = FunctionBuilder::new("f");
        let x = fb.param(RegClass::Int);
        let t = fb.new_block();
        let e = fb.new_block();
        let j = fb.new_block();
        let p = fb.cmp_lti(x, 0);
        fb.branch(p, t, e);
        fb.switch_to(t);
        fb.br(j);
        fb.switch_to(e);
        fb.br(j);
        fb.switch_to(j);
        fb.ret(None);
        let f = fb.finish();
        let cfg = crate::cfg::Cfg::new(&f);
        assert_eq!(cfg.succs(f.entry), [t, e]);
        assert_eq!(cfg.succs(t), [j]);
        assert_eq!(cfg.preds(j).len(), 2);
    }

    #[test]
    fn comparison_dst_is_pred_class() {
        let mut fb = FunctionBuilder::new("f");
        let a = fb.movi(1);
        let b = fb.movi(2);
        let p = fb.cmp_lt(a, b);
        fb.ret(None);
        let f = fb.finish();
        assert_eq!(f.class_of(p), RegClass::Pred);
    }
}
