//! Instructions and opcodes.

use crate::types::{BlockId, RegClass, VReg};
use std::fmt;
use std::ops::{Deref, DerefMut};

/// Memory access width in bytes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Width {
    /// 1 byte (zero-extended on load).
    B1,
    /// 4 bytes (sign-extended on load).
    B4,
    /// 8 bytes.
    B8,
}

impl Width {
    /// Number of bytes accessed.
    #[inline]
    pub fn bytes(self) -> usize {
        match self {
            Width::B1 => 1,
            Width::B4 => 4,
            Width::B8 => 8,
        }
    }
}

/// Operation performed by an [`Inst`].
///
/// Operand conventions (see [`Inst`]): register operands live in
/// `Inst::args`, integer immediates in `Inst::imm`, float immediates in
/// `Inst::fimm`, and branch targets in `Inst::target`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Opcode {
    // ---- integer ALU (dst: Int) ----
    /// `dst = args[0] + args[1]`
    Add,
    /// `dst = args[0] - args[1]`
    Sub,
    /// `dst = args[0] * args[1]`
    Mul,
    /// `dst = args[0] / args[1]` (wrapping; division by zero yields 0)
    Div,
    /// `dst = args[0] % args[1]` (remainder by zero yields 0)
    Rem,
    /// `dst = args[0] & args[1]`
    And,
    /// `dst = args[0] | args[1]`
    Or,
    /// `dst = args[0] ^ args[1]`
    Xor,
    /// `dst = args[0] << (args[1] & 63)`
    Shl,
    /// `dst = args[0] >> (args[1] & 63)` (arithmetic)
    Shr,
    /// `dst = args[0] + imm`
    AddI,
    /// `dst = args[0] * imm`
    MulI,
    /// `dst = args[0] & imm`
    AndI,
    /// `dst = args[0] << (imm & 63)`
    ShlI,
    /// `dst = args[0] >> (imm & 63)` (arithmetic)
    ShrI,
    /// `dst = imm`
    MovI,
    /// `dst = args[0]`
    Mov,
    /// `dst = -args[0]`
    Neg,
    /// `dst = |args[0]|`
    Abs,
    /// `dst = min(args[0], args[1])`
    Min,
    /// `dst = max(args[0], args[1])`
    Max,
    /// `dst = if args[0] (pred) { args[1] } else { args[2] }` — integer select
    Sel,

    // ---- integer comparisons (dst: Pred) ----
    /// `dst = args[0] == args[1]`
    CmpEq,
    /// `dst = args[0] != args[1]`
    CmpNe,
    /// `dst = args[0] < args[1]` (signed)
    CmpLt,
    /// `dst = args[0] <= args[1]` (signed)
    CmpLe,
    /// `dst = args[0] == imm`
    CmpEqI,
    /// `dst = args[0] < imm` (signed)
    CmpLtI,
    /// `dst = args[0] > imm` (signed)
    CmpGtI,

    // ---- predicate ops (dst: Pred) ----
    /// `dst = args[0] & args[1]` (predicates)
    PAnd,
    /// `dst = args[0] | args[1]` (predicates)
    POr,
    /// `dst = !args[0]` (predicate)
    PNot,
    /// `dst = imm != 0` (predicate constant)
    PMovI,
    /// `dst = args[0]` (predicate copy)
    PMov,
    /// `dst (Int) = if args[0] (pred) { 1 } else { 0 }`
    P2I,
    /// `dst (Pred) = args[0] (int) != 0`
    I2P,

    // ---- floating point (dst: Float) ----
    /// `dst = args[0] + args[1]`
    FAdd,
    /// `dst = args[0] - args[1]`
    FSub,
    /// `dst = args[0] * args[1]`
    FMul,
    /// `dst = args[0] / args[1]` (division by zero yields 0.0)
    FDiv,
    /// `dst = sqrt(|args[0]|)`
    FSqrt,
    /// `dst = |args[0]|`
    FAbs,
    /// `dst = -args[0]`
    FNeg,
    /// `dst = min(args[0], args[1])`
    FMin,
    /// `dst = max(args[0], args[1])`
    FMax,
    /// `dst = fimm`
    FMovI,
    /// `dst = args[0]`
    FMov,
    /// `dst = if args[0] (pred) { args[1] } else { args[2] }` — float select
    FSel,

    // ---- float comparisons (dst: Pred) ----
    /// `dst = args[0] == args[1]`
    FCmpEq,
    /// `dst = args[0] < args[1]`
    FCmpLt,
    /// `dst = args[0] <= args[1]`
    FCmpLe,

    // ---- conversions ----
    /// `dst (Float) = args[0] (Int) as f64`
    I2F,
    /// `dst (Int) = args[0] (Float) as i64` (truncating; saturates)
    F2I,
    /// `dst (Int) = bit pattern of args[0] (Float)` — lossless bitcast,
    /// used by the calling convention for float returns.
    FBits,
    /// `dst (Float) = f64 from the bit pattern of args[0] (Int)`.
    BitsF,

    // ---- memory (address = args[0] + imm) ----
    /// Integer load of the given width; B1 zero-extends, B4 sign-extends.
    Ld(Width),
    /// Integer store of the given width; value = `args[1]`.
    St(Width),
    /// Float load (8 bytes).
    FLd,
    /// Float store (8 bytes); value = `args[1]` (Float).
    FSt,
    /// Non-binding cache prefetch of the line containing the address.
    Prefetch,

    // ---- control ----
    /// Unconditional jump to `target`.
    Br,
    /// Conditional jump to `target` if `args[0]` (Pred) is true, else fall
    /// through to the next instruction.
    CBr,
    /// Return from the function; optional return value in `args[0]`.
    Ret,
    /// Call function `imm` (as a `FuncId` index); args are the call
    /// arguments; `dst` receives the return value if present.
    Call,
    /// Opaque side-effecting call (a compiler *hazard*): reads `args[0]`,
    /// writes a derived value to a program scratch slot selected by `imm`,
    /// and returns a value in `dst`. Not inlinable, not speculatable.
    UnsafeCall,
}

impl Opcode {
    /// Is this a control transfer instruction?
    pub fn is_control(self) -> bool {
        matches!(
            self,
            Opcode::Br | Opcode::CBr | Opcode::Ret | Opcode::Call | Opcode::UnsafeCall
        )
    }

    /// Is this a branch (changes the PC to `target`)?
    pub fn is_branch(self) -> bool {
        matches!(self, Opcode::Br | Opcode::CBr)
    }

    /// Does this opcode read memory?
    pub fn is_load(self) -> bool {
        matches!(self, Opcode::Ld(_) | Opcode::FLd)
    }

    /// Does this opcode write memory?
    pub fn is_store(self) -> bool {
        matches!(self, Opcode::St(_) | Opcode::FSt)
    }

    /// Does this opcode access memory at all (including prefetches)?
    pub fn is_mem(self) -> bool {
        self.is_load() || self.is_store() || matches!(self, Opcode::Prefetch)
    }

    /// Expected register classes of the operands in `args`, or `None` for
    /// variable-arity opcodes (`Ret`, `Call`).
    pub fn arg_classes(self) -> Option<&'static [RegClass]> {
        use Opcode::*;
        use RegClass::*;
        Some(match self {
            Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr | Min | Max => &[Int, Int],
            AddI | MulI | AndI | ShlI | ShrI | Mov | Neg | Abs | I2F | I2P | BitsF => &[Int],
            MovI => &[],
            Sel => &[Pred, Int, Int],
            CmpEq | CmpNe | CmpLt | CmpLe => &[Int, Int],
            CmpEqI | CmpLtI | CmpGtI => &[Int],
            PAnd | POr => &[Pred, Pred],
            PNot | PMov | P2I => &[Pred],
            PMovI => &[],
            FAdd | FSub | FMul | FDiv | FMin | FMax => &[Float, Float],
            FSqrt | FAbs | FNeg | FMov | F2I | FBits => &[Float],
            FMovI => &[],
            FSel => &[Pred, Float, Float],
            FCmpEq | FCmpLt | FCmpLe => &[Float, Float],
            Ld(_) => &[Int],
            St(_) => &[Int, Int],
            FLd => &[Int],
            FSt => &[Int, Float],
            Prefetch => &[Int],
            Br => &[],
            CBr => &[Pred],
            UnsafeCall => &[Int],
            Ret | Call => return None,
        })
    }

    /// The register class operand `i` is read as, or `None` if the opcode
    /// reads no operand `i`: [`Opcode::arg_classes`], with every operand of
    /// `Ret` and `Call`, which have no fixed arity, read as `Int`.
    #[inline]
    pub fn arg_class(self, i: usize) -> Option<RegClass> {
        match self.arg_classes() {
            Some(cs) => cs.get(i).copied(),
            None => Some(RegClass::Int),
        }
    }

    /// Register class produced in `dst`, if the opcode defines a register.
    pub fn dst_class(self) -> Option<RegClass> {
        use Opcode::*;
        Some(match self {
            Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr | AddI | MulI | AndI
            | ShlI | ShrI | MovI | Mov | Neg | Abs | Min | Max | Sel | P2I | F2I | FBits
            | Ld(_) | Call | UnsafeCall => RegClass::Int,
            FAdd | FSub | FMul | FDiv | FSqrt | FAbs | FNeg | FMin | FMax | FMovI | FMov | FSel
            | I2F | BitsF | FLd => RegClass::Float,
            CmpEq | CmpNe | CmpLt | CmpLe | CmpEqI | CmpLtI | CmpGtI | PAnd | POr | PNot
            | PMovI | PMov | I2P | FCmpEq | FCmpLt | FCmpLe => RegClass::Pred,
            St(_) | FSt | Prefetch | Br | CBr | Ret => return None,
        })
    }

    /// The result of a value-producing opcode: every opcode but the memory
    /// and control ones and `UnsafeCall`, which each executor runs itself.
    /// This is the one definition of those opcodes' meaning, shared by the
    /// interpreter, both simulator tiers and constant folding.
    ///
    /// Values are raw 64-bit words: an integer is itself, a float its IEEE
    /// bit pattern, a predicate 0 or 1. `arg(i)` reads operand `i`, in the
    /// class [`Opcode::arg_class`] gives; it is called only for the
    /// operands the opcode reads, in the order written below, so a missing
    /// operand fails inside `arg` exactly when it would be read. `imm` is
    /// [`Inst::eval_imm`].
    ///
    /// # Panics
    /// On an opcode that does not produce a value.
    #[inline]
    pub fn eval(self, arg: impl Fn(usize) -> i64, imm: i64) -> i64 {
        use Opcode::*;
        let f = |i| f64::from_bits(arg(i) as u64);
        let p = |i| arg(i) != 0;
        let bits = |x: f64| x.to_bits() as i64;
        match self {
            Add => arg(0).wrapping_add(arg(1)),
            Sub => arg(0).wrapping_sub(arg(1)),
            Mul => arg(0).wrapping_mul(arg(1)),
            Div => match arg(1) {
                0 => 0,
                d => arg(0).wrapping_div(d),
            },
            Rem => match arg(1) {
                0 => 0,
                d => arg(0).wrapping_rem(d),
            },
            And => arg(0) & arg(1),
            Or => arg(0) | arg(1),
            Xor => arg(0) ^ arg(1),
            Shl => arg(0).wrapping_shl(arg(1) as u32 & 63),
            Shr => arg(0).wrapping_shr(arg(1) as u32 & 63),
            AddI => arg(0).wrapping_add(imm),
            MulI => arg(0).wrapping_mul(imm),
            AndI => arg(0) & imm,
            ShlI => arg(0).wrapping_shl(imm as u32 & 63),
            ShrI => arg(0).wrapping_shr(imm as u32 & 63),
            MovI | FMovI => imm,
            Mov | FMov | FBits | BitsF => arg(0),
            Neg => arg(0).wrapping_neg(),
            Abs => arg(0).wrapping_abs(),
            Min => arg(0).min(arg(1)),
            Max => arg(0).max(arg(1)),
            Sel | FSel => {
                if p(0) {
                    arg(1)
                } else {
                    arg(2)
                }
            }

            CmpEq => i64::from(arg(0) == arg(1)),
            CmpNe => i64::from(arg(0) != arg(1)),
            CmpLt => i64::from(arg(0) < arg(1)),
            CmpLe => i64::from(arg(0) <= arg(1)),
            CmpEqI => i64::from(arg(0) == imm),
            CmpLtI => i64::from(arg(0) < imm),
            CmpGtI => i64::from(arg(0) > imm),

            PAnd => i64::from(p(0) && p(1)),
            POr => i64::from(p(0) || p(1)),
            PNot => i64::from(!p(0)),
            PMovI => i64::from(imm != 0),
            PMov | P2I | I2P => i64::from(p(0)),

            FAdd => bits(f(0) + f(1)),
            FSub => bits(f(0) - f(1)),
            FMul => bits(f(0) * f(1)),
            FDiv => {
                let d = f(1);
                if d == 0.0 {
                    0
                } else {
                    bits(f(0) / d)
                }
            }
            FSqrt => bits(f(0).abs().sqrt()),
            FAbs => bits(f(0).abs()),
            FNeg => bits(-f(0)),
            FMin => bits(f(0).min(f(1))),
            FMax => bits(f(0).max(f(1))),
            FCmpEq => i64::from(f(0) == f(1)),
            FCmpLt => i64::from(f(0) < f(1)),
            FCmpLe => i64::from(f(0) <= f(1)),

            I2F => bits(arg(0) as f64),
            // `as` saturates, and maps NaN to 0.
            F2I => f(0) as i64,

            Ld(_) | St(_) | FLd | FSt | Prefetch | Br | CBr | Ret | Call | UnsafeCall => {
                panic!("{self} does not produce a value")
            }
        }
    }

    /// Short mnemonic used by the IR printer.
    pub fn mnemonic(self) -> &'static str {
        use Opcode::*;
        match self {
            Add => "add",
            Sub => "sub",
            Mul => "mul",
            Div => "div",
            Rem => "rem",
            And => "and",
            Or => "or",
            Xor => "xor",
            Shl => "shl",
            Shr => "shr",
            AddI => "addi",
            MulI => "muli",
            AndI => "andi",
            ShlI => "shli",
            ShrI => "shri",
            MovI => "movi",
            Mov => "mov",
            Neg => "neg",
            Abs => "abs",
            Min => "min",
            Max => "max",
            Sel => "sel",
            CmpEq => "cmpeq",
            CmpNe => "cmpne",
            CmpLt => "cmplt",
            CmpLe => "cmple",
            CmpEqI => "cmpeqi",
            CmpLtI => "cmplti",
            CmpGtI => "cmpgti",
            PAnd => "pand",
            POr => "por",
            PNot => "pnot",
            PMovI => "pmovi",
            PMov => "pmov",
            P2I => "p2i",
            I2P => "i2p",
            FAdd => "fadd",
            FSub => "fsub",
            FMul => "fmul",
            FDiv => "fdiv",
            FSqrt => "fsqrt",
            FAbs => "fabs",
            FNeg => "fneg",
            FMin => "fmin",
            FMax => "fmax",
            FMovI => "fmovi",
            FMov => "fmov",
            FSel => "fsel",
            FCmpEq => "fcmpeq",
            FCmpLt => "fcmplt",
            FCmpLe => "fcmple",
            I2F => "i2f",
            F2I => "f2i",
            FBits => "fbits",
            BitsF => "bitsf",
            Ld(Width::B1) => "ld1",
            Ld(Width::B4) => "ld4",
            Ld(Width::B8) => "ld8",
            St(Width::B1) => "st1",
            St(Width::B4) => "st4",
            St(Width::B8) => "st8",
            FLd => "fld",
            FSt => "fst",
            Prefetch => "prefetch",
            Br => "br",
            CBr => "cbr",
            Ret => "ret",
            Call => "call",
            UnsafeCall => "ucall",
        }
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A single IR instruction.
///
/// Every instruction may be guarded by a predicate register (`pred`); a
/// guarded instruction whose predicate evaluates to `false` is nullified
/// (it neither writes its destination nor touches memory nor transfers
/// control). This is the EPIC predication model the hyperblock case study
/// relies on.
#[derive(Clone, PartialEq, Debug)]
pub struct Inst {
    /// The operation.
    pub op: Opcode,
    /// Destination register, for opcodes that define one.
    pub dst: Option<VReg>,
    /// Register operands; interpretation is per-opcode (see [`Opcode`]).
    pub args: Args,
    /// Integer immediate (offset, constant, callee index, …).
    pub imm: i64,
    /// Floating-point immediate.
    pub fimm: f64,
    /// Branch target for `Br`/`CBr`.
    pub target: Option<BlockId>,
    /// Optional guard predicate.
    pub pred: Option<VReg>,
}

impl Inst {
    /// Create an instruction with all optional fields empty.
    pub fn new(op: Opcode) -> Self {
        Inst {
            op,
            dst: None,
            args: Args::default(),
            imm: 0,
            fimm: 0.0,
            target: None,
            pred: None,
        }
    }

    /// Builder-style destination setter.
    pub fn dst(mut self, d: VReg) -> Self {
        self.dst = Some(d);
        self
    }

    /// Builder-style operand setter.
    pub fn args(mut self, a: &[VReg]) -> Self {
        self.args = a.iter().copied().collect();
        self
    }

    /// Builder-style integer-immediate setter.
    pub fn imm(mut self, v: i64) -> Self {
        self.imm = v;
        self
    }

    /// Builder-style float-immediate setter.
    pub fn fimm(mut self, v: f64) -> Self {
        self.fimm = v;
        self
    }

    /// Builder-style branch-target setter.
    pub fn target(mut self, t: BlockId) -> Self {
        self.target = Some(t);
        self
    }

    /// Builder-style guard-predicate setter.
    pub fn guarded(mut self, p: VReg) -> Self {
        self.pred = Some(p);
        self
    }

    /// The immediate [`Opcode::eval`] reads: the bit pattern of `fimm` for
    /// `FMovI`, `imm` for every other opcode.
    #[inline]
    pub fn eval_imm(&self) -> i64 {
        if self.op == Opcode::FMovI {
            self.fimm.to_bits() as i64
        } else {
            self.imm
        }
    }

    /// All registers read by this instruction (operands + guard).
    pub fn reads(&self) -> impl Iterator<Item = VReg> + '_ {
        self.args.iter().copied().chain(self.pred)
    }

    /// Is this instruction a potential *hazard* for aggressive optimization
    /// (per the paper §5.1: pointer dereferences and opaque calls)?
    pub fn is_hazard(&self) -> bool {
        matches!(self.op, Opcode::UnsafeCall) || self.op.is_store()
    }
}

/// Operands held inline; only longer lists go to the heap.
const INLINE_ARGS: usize = 3;

/// The register operands of an [`Inst`], used as a `[VReg]` slice.
///
/// Up to three operands, which every opcode but `Call` takes, are held
/// inline, so creating or cloning an instruction allocates nothing for
/// them; only a longer call argument list lives on the heap. Equality
/// compares the operands as a slice, whichever way they are held, and
/// `{:?}` prints them as a `Vec<VReg>` would.
#[derive(Clone)]
pub struct Args(Repr);

#[derive(Clone)]
enum Repr {
    Inline { len: u8, regs: [VReg; INLINE_ARGS] },
    Heap(Vec<VReg>),
}

impl Args {
    /// Append an operand, moving the list to the heap when it outgrows the
    /// inline slots.
    pub fn push(&mut self, r: VReg) {
        match &mut self.0 {
            Repr::Inline { len, regs } if usize::from(*len) < INLINE_ARGS => {
                regs[usize::from(*len)] = r;
                *len += 1;
            }
            Repr::Inline { regs, .. } => self.0 = Repr::Heap([&regs[..], &[r]].concat()),
            Repr::Heap(v) => v.push(r),
        }
    }
}

impl Default for Args {
    fn default() -> Self {
        Args(Repr::Inline {
            len: 0,
            regs: [VReg(0); INLINE_ARGS],
        })
    }
}

impl Deref for Args {
    type Target = [VReg];

    fn deref(&self) -> &[VReg] {
        match &self.0 {
            Repr::Inline { len, regs } => &regs[..usize::from(*len)],
            Repr::Heap(v) => v,
        }
    }
}

impl DerefMut for Args {
    fn deref_mut(&mut self) -> &mut [VReg] {
        match &mut self.0 {
            Repr::Inline { len, regs } => &mut regs[..usize::from(*len)],
            Repr::Heap(v) => v,
        }
    }
}

impl PartialEq for Args {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl fmt::Debug for Args {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl FromIterator<VReg> for Args {
    fn from_iter<I: IntoIterator<Item = VReg>>(iter: I) -> Self {
        let mut args = Args::default();
        for r in iter {
            args.push(r);
        }
        args
    }
}

impl<'a> IntoIterator for &'a Args {
    type Item = &'a VReg;
    type IntoIter = std::slice::Iter<'a, VReg>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(p) = self.pred {
            write!(f, "({p}) ")?;
        }
        write!(f, "{}", self.op)?;
        if let Some(d) = self.dst {
            write!(f, " {d} <-")?;
        }
        for a in &self.args {
            write!(f, " {a}")?;
        }
        match self.op {
            Opcode::MovI
            | Opcode::AddI
            | Opcode::MulI
            | Opcode::AndI
            | Opcode::ShlI
            | Opcode::ShrI
            | Opcode::CmpEqI
            | Opcode::CmpLtI
            | Opcode::CmpGtI
            | Opcode::PMovI
            | Opcode::Call
            | Opcode::UnsafeCall => write!(f, " #{}", self.imm)?,
            Opcode::FMovI => write!(f, " #{}", self.fimm)?,
            Opcode::Ld(_) | Opcode::St(_) | Opcode::FLd | Opcode::FSt | Opcode::Prefetch
                if self.imm != 0 =>
            {
                write!(f, " +{}", self.imm)?;
            }
            _ => {}
        }
        if let Some(t) = self.target {
            write!(f, " -> {t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_bytes() {
        assert_eq!(Width::B1.bytes(), 1);
        assert_eq!(Width::B4.bytes(), 4);
        assert_eq!(Width::B8.bytes(), 8);
    }

    /// The opcodes [`Opcode::eval`] defines.
    const VALUE_OPS: [Opcode; 55] = {
        use Opcode::*;
        [
            Add, Sub, Mul, Div, Rem, And, Or, Xor, Shl, Shr, AddI, MulI, AndI, ShlI, ShrI, MovI,
            Mov, Neg, Abs, Min, Max, Sel, CmpEq, CmpNe, CmpLt, CmpLe, CmpEqI, CmpLtI, CmpGtI, PAnd,
            POr, PNot, PMovI, PMov, P2I, I2P, FAdd, FSub, FMul, FDiv, FSqrt, FAbs, FNeg, FMin,
            FMax, FMovI, FMov, FSel, FCmpEq, FCmpLt, FCmpLe, I2F, F2I, FBits, BitsF,
        ]
    };

    #[test]
    fn eval_reads_exactly_the_operands_the_table_lists() {
        for op in VALUE_OPS {
            let n = op.arg_classes().expect("fixed arity").len();
            assert!(op.dst_class().is_some() && !op.is_mem() && !op.is_control());
            assert_eq!(op.arg_class(n), None, "{op}");
            // Operands read lazily (a select's arms, a short-circuit, a
            // divisor of zero) are each read under one of the two values.
            let read = std::cell::RefCell::new(vec![false; n]);
            for v in [0, 1] {
                op.eval(
                    |i| {
                        read.borrow_mut()[i] = true;
                        v
                    },
                    0,
                );
            }
            assert!(read.into_inner().iter().all(|&r| r), "{op}");
        }
    }

    #[test]
    #[should_panic(expected = "does not produce a value")]
    fn eval_rejects_opcodes_without_a_value() {
        Opcode::Ld(Width::B8).eval(|_| 0, 0);
    }

    #[test]
    fn variable_arity_operands_read_as_integers() {
        assert_eq!(Opcode::Ret.arg_class(0), Some(RegClass::Int));
        assert_eq!(Opcode::Call.arg_class(5), Some(RegClass::Int));
        assert_eq!(Opcode::FSel.arg_class(0), Some(RegClass::Pred));
        assert_eq!(Opcode::FSt.arg_class(1), Some(RegClass::Float));
        assert_eq!(Opcode::Br.arg_class(0), None);
    }

    #[test]
    fn fmovi_evaluates_its_bit_pattern() {
        let neg = Inst::new(Opcode::FMovI).fimm(-0.0);
        assert_eq!(neg.eval_imm(), i64::MIN);
        assert_eq!(neg.op.eval(|_| unreachable!(), neg.eval_imm()), i64::MIN);
        assert_eq!(Inst::new(Opcode::AddI).imm(7).fimm(2.0).eval_imm(), 7);
    }

    #[test]
    fn opcode_classification() {
        assert!(Opcode::Br.is_control());
        assert!(Opcode::CBr.is_branch());
        assert!(!Opcode::Add.is_control());
        assert!(Opcode::Ld(Width::B8).is_load());
        assert!(Opcode::FSt.is_store());
        assert!(Opcode::Prefetch.is_mem());
        assert!(!Opcode::Prefetch.is_load());
    }

    #[test]
    fn dst_classes() {
        assert_eq!(Opcode::Add.dst_class(), Some(RegClass::Int));
        assert_eq!(Opcode::FAdd.dst_class(), Some(RegClass::Float));
        assert_eq!(Opcode::CmpLt.dst_class(), Some(RegClass::Pred));
        assert_eq!(Opcode::St(Width::B4).dst_class(), None);
        assert_eq!(Opcode::Br.dst_class(), None);
    }

    #[test]
    fn display_includes_guard_and_target() {
        let i = Inst::new(Opcode::CBr)
            .args(&[VReg(1)])
            .target(BlockId(3))
            .guarded(VReg(2));
        let s = i.to_string();
        assert!(s.contains("(v2)"), "{s}");
        assert!(s.contains("-> b3"), "{s}");
    }

    #[test]
    fn reads_include_guard() {
        let i = Inst::new(Opcode::Add)
            .dst(VReg(0))
            .args(&[VReg(1), VReg(2)])
            .guarded(VReg(3));
        let reads: Vec<_> = i.reads().collect();
        assert_eq!(reads, vec![VReg(1), VReg(2), VReg(3)]);
    }

    fn is_heap(a: &Args) -> bool {
        matches!(a.0, Repr::Heap(_))
    }

    #[test]
    fn fourth_push_moves_operands_to_the_heap() {
        let mut a = Args::default();
        for i in 0..3 {
            a.push(VReg(i));
            assert!(!is_heap(&a), "{} operands fit inline", i + 1);
        }
        a.push(VReg(3));
        assert!(is_heap(&a));
        a.push(VReg(4));
        assert_eq!(&*a, &[VReg(0), VReg(1), VReg(2), VReg(3), VReg(4)]);
    }

    #[test]
    fn inline_and_heap_operands_compare_as_slices() {
        let inline: Args = [VReg(7), VReg(8)].into_iter().collect();
        let heap = Args(Repr::Heap(vec![VReg(7), VReg(8)]));
        assert!(!is_heap(&inline));
        assert_eq!(inline, heap);
        assert_ne!(inline, [VReg(7)].into_iter().collect::<Args>());
        assert_ne!(Args::default(), heap);
    }

    #[test]
    fn debug_text_matches_vec() {
        for n in 0..6 {
            let v: Vec<VReg> = (0..n).map(VReg).collect();
            let a: Args = v.iter().copied().collect();
            assert_eq!(format!("{a:?}"), format!("{v:?}"));
            assert_eq!(format!("{a:#?}"), format!("{v:#?}"));
        }
    }

    #[test]
    fn collect_and_builder_round_trip() {
        for n in 0..6 {
            let v: Vec<VReg> = (0..n).map(|i| VReg(i * 3)).collect();
            let collected: Args = v.iter().copied().collect();
            assert_eq!(collected.to_vec(), v);
            let i = Inst::new(Opcode::Call).args(&v);
            assert_eq!(&*i.args, &v[..]);
            assert_eq!(i.args, collected);
            assert_eq!(is_heap(&i.args), n > 3);
        }
    }

    #[test]
    fn hazards() {
        assert!(Inst::new(Opcode::UnsafeCall).is_hazard());
        assert!(Inst::new(Opcode::St(Width::B8)).is_hazard());
        assert!(!Inst::new(Opcode::Ld(Width::B8)).is_hazard());
    }
}
