//! The meaning of every value-producing opcode, pinned on edge values.
//!
//! Each of the 55 pure opcodes runs as a one-instruction program (operand
//! set-up, the opcode under test, a conversion of its result to an integer,
//! `Ret`) through the IR interpreter and through both simulator tiers. All
//! three must return the same bits, and the two tiers the same
//! [`metaopt_sim::SimResult`]. Operands are drawn from the values random
//! MiniC never produces: `i64::MIN`, `-1`, `0`, `1`, `i64::MAX`, the shift
//! counts 63, 64 and -1, `±0.0`, `±∞`, a NaN with a payload and a
//! subnormal. Hand-written expectations then pin the corner cases the
//! opcode documentation promises.

use metaopt_ir::builder::FunctionBuilder;
use metaopt_ir::interp::{run, RunConfig};
use metaopt_ir::{Inst, Opcode, Program, RegClass, VReg};
use metaopt_sim::{simulate_tier, Bundle, MachineConfig, MachineProgram, SimTier};

/// The value-producing opcodes: everything but memory, control and
/// `UnsafeCall`.
const PURE: [Opcode; 55] = {
    use Opcode::*;
    [
        Add, Sub, Mul, Div, Rem, And, Or, Xor, Shl, Shr, AddI, MulI, AndI, ShlI, ShrI, MovI, Mov,
        Neg, Abs, Min, Max, Sel, CmpEq, CmpNe, CmpLt, CmpLe, CmpEqI, CmpLtI, CmpGtI, PAnd, POr,
        PNot, PMovI, PMov, P2I, I2P, FAdd, FSub, FMul, FDiv, FSqrt, FAbs, FNeg, FMin, FMax, FMovI,
        FMov, FSel, FCmpEq, FCmpLt, FCmpLe, I2F, F2I, FBits, BitsF,
    ]
};

/// Integer operands and immediates (63, 64 and -1 double as shift counts).
const INTS: [i64; 7] = [i64::MIN, -1, 0, 1, i64::MAX, 63, 64];

/// A quiet NaN carrying a payload.
const NAN_PAYLOAD: u64 = 0x7ff8_0000_0000_beef;

/// Float operands, as bit patterns: `±0.0`, `±∞`, a NaN with a payload, a
/// negative subnormal, and two ordinary values.
fn floats() -> [i64; 8] {
    let subnormal = -(f64::MIN_POSITIVE / 3.0);
    assert!(subnormal.is_subnormal());
    [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::from_bits(NAN_PAYLOAD),
        subnormal,
        1.0,
        -2.5,
    ]
    .map(|f: f64| f.to_bits() as i64)
}

const PREDS: [i64; 2] = [0, 1];

fn bits(f: f64) -> i64 {
    f.to_bits() as i64
}

/// What an opcode reads besides its register operands.
#[derive(Clone, Copy, PartialEq)]
enum Imm {
    None,
    Int,
    Float,
}

fn imm_kind(op: Opcode) -> Imm {
    use Opcode::*;
    match op {
        AddI | MulI | AndI | ShlI | ShrI | MovI | CmpEqI | CmpLtI | CmpGtI | PMovI => Imm::Int,
        FMovI => Imm::Float,
        _ => Imm::None,
    }
}

/// One run of one opcode: raw operand values (ints as themselves, floats as
/// bit patterns, predicates as 0/1) and the immediate (a float immediate as
/// its bit pattern).
#[derive(Clone, Debug)]
struct Case {
    op: Opcode,
    args: Vec<i64>,
    imm: i64,
}

impl Case {
    fn new(op: Opcode, args: &[i64], imm: i64) -> Self {
        Case {
            op,
            args: args.to_vec(),
            imm,
        }
    }

    fn inst(&self) -> Inst {
        let inst = Inst::new(self.op);
        match imm_kind(self.op) {
            Imm::None => inst,
            Imm::Int => inst.imm(self.imm),
            Imm::Float => inst.fimm(f64::from_bits(self.imm as u64)),
        }
    }

    fn classes(&self) -> &'static [RegClass] {
        self.op
            .arg_classes()
            .expect("pure opcodes have a fixed arity")
    }

    fn dst_class(&self) -> RegClass {
        self.op.dst_class().expect("pure opcodes write a register")
    }

    /// The case as an IR program for the interpreter.
    fn ir(&self) -> Program {
        let mut fb = FunctionBuilder::new("main");
        let mut regs = Vec::new();
        for (class, &v) in self.classes().iter().zip(&self.args) {
            let r = fb.new_vreg(*class);
            match class {
                RegClass::Int => fb.push(Inst::new(Opcode::MovI).dst(r).imm(v)),
                RegClass::Float => {
                    let raw = fb.movi(v);
                    fb.push(Inst::new(Opcode::BitsF).dst(r).args(&[raw]));
                }
                RegClass::Pred => fb.push(Inst::new(Opcode::PMovI).dst(r).imm(v)),
            }
            regs.push(r);
        }
        let d = fb.new_vreg(self.dst_class());
        fb.push(self.inst().dst(d).args(&regs));
        let out = match self.dst_class() {
            RegClass::Int => d,
            RegClass::Float => {
                let r = fb.new_vreg(RegClass::Int);
                fb.push(Inst::new(Opcode::FBits).dst(r).args(&[d]));
                r
            }
            RegClass::Pred => {
                let r = fb.new_vreg(RegClass::Int);
                fb.push(Inst::new(Opcode::P2I).dst(r).args(&[d]));
                r
            }
        };
        fb.ret(Some(out));
        let mut p = Program::new();
        p.add_function(fb.finish());
        p
    }

    /// The same case as machine code: one instruction per bundle, operand
    /// `i` in physical register `i + 1` of its class, the result in register
    /// 20 of its class and the returned integer in `r21`.
    fn machine(&self) -> MachineProgram {
        let mut insts = Vec::new();
        let mut regs = Vec::new();
        for (i, (class, &v)) in self.classes().iter().zip(&self.args).enumerate() {
            let r = VReg(i as u32 + 1);
            match class {
                RegClass::Int => insts.push(Inst::new(Opcode::MovI).dst(r).imm(v)),
                RegClass::Float => {
                    let raw = VReg(i as u32 + 10);
                    insts.push(Inst::new(Opcode::MovI).dst(raw).imm(v));
                    insts.push(Inst::new(Opcode::BitsF).dst(r).args(&[raw]));
                }
                RegClass::Pred => insts.push(Inst::new(Opcode::PMovI).dst(r).imm(v)),
            }
            regs.push(r);
        }
        let d = VReg(20);
        insts.push(self.inst().dst(d).args(&regs));
        let out = match self.dst_class() {
            RegClass::Int => d,
            RegClass::Float => {
                insts.push(Inst::new(Opcode::FBits).dst(VReg(21)).args(&[d]));
                VReg(21)
            }
            RegClass::Pred => {
                insts.push(Inst::new(Opcode::P2I).dst(VReg(21)).args(&[d]));
                VReg(21)
            }
        };
        insts.push(Inst::new(Opcode::Ret).args(&[out]));
        MachineProgram {
            blocks: vec![insts
                .into_iter()
                .map(|i| Bundle { insts: vec![i] })
                .collect()],
            entry: 0,
        }
    }

    /// Run the case through all three executors, require them to agree, and
    /// return the raw result.
    fn eval(&self) -> i64 {
        let interp = run(&self.ir(), &RunConfig::default())
            .unwrap_or_else(|e| panic!("{self:?}: interpreter failed: {e}"))
            .ret;
        let mp = self.machine();
        let cfg = MachineConfig::table3();
        let sim = |tier| {
            simulate_tier(&mp, &cfg, vec![0u8; 4096], tier)
                .unwrap_or_else(|e| panic!("{self:?}: {tier} tier failed: {e}"))
        };
        let (fast, reference) = (sim(SimTier::Fast), sim(SimTier::Reference));
        assert_eq!(fast, reference, "{self:?}: the tiers diverge");
        assert_eq!(
            interp, fast.ret,
            "{self:?}: interpreter {interp:#x}, simulator {:#x}",
            fast.ret
        );
        interp
    }
}

fn values(class: RegClass) -> Vec<i64> {
    match class {
        RegClass::Int => INTS.to_vec(),
        RegClass::Float => floats().to_vec(),
        RegClass::Pred => PREDS.to_vec(),
    }
}

/// Every combination of edge-value operands and immediate for `op`.
fn cases(op: Opcode) -> Vec<Case> {
    let classes = op.arg_classes().expect("pure opcodes have a fixed arity");
    let mut operand_lists: Vec<Vec<i64>> = vec![Vec::new()];
    for class in classes {
        operand_lists = operand_lists
            .iter()
            .flat_map(|prefix| {
                values(*class).into_iter().map(move |v| {
                    let mut l = prefix.clone();
                    l.push(v);
                    l
                })
            })
            .collect();
    }
    let imms = match imm_kind(op) {
        Imm::None => vec![0],
        Imm::Int => INTS.to_vec(),
        Imm::Float => floats().to_vec(),
    };
    operand_lists
        .iter()
        .flat_map(|args| imms.iter().map(move |&imm| Case::new(op, args, imm)))
        .collect()
}

fn eval(op: Opcode, args: &[i64], imm: i64) -> i64 {
    Case::new(op, args, imm).eval()
}

#[test]
fn the_pure_opcodes_are_the_value_producing_ones() {
    for op in PURE {
        assert!(op.dst_class().is_some(), "{op}");
        assert!(op.arg_classes().is_some(), "{op}");
        assert!(
            !op.is_mem() && !op.is_control(),
            "{op} is not a pure opcode"
        );
    }
    let mut seen = PURE.to_vec();
    seen.sort_by_key(|op| op.mnemonic());
    seen.dedup();
    assert_eq!(seen.len(), PURE.len());
}

#[test]
fn all_three_executors_agree_on_every_edge_value() {
    let mut n = 0;
    for op in PURE {
        for case in cases(op) {
            case.eval();
            n += 1;
        }
    }
    assert!(n > 2000, "only {n} cases");
}

#[test]
fn integer_division_is_total_and_wraps() {
    for a in INTS {
        assert_eq!(eval(Opcode::Div, &[a, 0], 0), 0, "{a} / 0");
        assert_eq!(eval(Opcode::Rem, &[a, 0], 0), 0, "{a} % 0");
    }
    assert_eq!(eval(Opcode::Div, &[i64::MIN, -1], 0), i64::MIN);
    assert_eq!(eval(Opcode::Rem, &[i64::MIN, -1], 0), 0);
    assert_eq!(eval(Opcode::Neg, &[i64::MIN], 0), i64::MIN);
    assert_eq!(eval(Opcode::Abs, &[i64::MIN], 0), i64::MIN);
    assert_eq!(eval(Opcode::Add, &[i64::MAX, 1], 0), i64::MIN);
    assert_eq!(eval(Opcode::MulI, &[i64::MIN], -1), i64::MIN);
}

#[test]
fn shift_counts_are_masked_to_63() {
    for a in INTS {
        assert_eq!(eval(Opcode::Shl, &[a, 64], 0), a, "{a} << 64");
        assert_eq!(eval(Opcode::Shr, &[a, 64], 0), a, "{a} >> 64");
        assert_eq!(eval(Opcode::ShlI, &[a], 64), a, "{a} << #64");
        assert_eq!(eval(Opcode::ShrI, &[a], 64), a, "{a} >> #64");
        assert_eq!(eval(Opcode::Shl, &[a, -1], 0), a << 63, "{a} << -1");
        assert_eq!(eval(Opcode::Shr, &[a, -1], 0), a >> 63, "{a} >> -1");
        assert_eq!(eval(Opcode::ShlI, &[a], -1), a << 63, "{a} << #-1");
        assert_eq!(eval(Opcode::ShrI, &[a], -1), a >> 63, "{a} >> #-1");
        assert_eq!(eval(Opcode::Shl, &[a, 63], 0), a << 63, "{a} << 63");
        assert_eq!(eval(Opcode::Shr, &[a, 63], 0), a >> 63, "{a} >> 63");
    }
    assert_eq!(
        eval(Opcode::Shr, &[i64::MIN, 63], 0),
        -1,
        "shr is arithmetic"
    );
}

#[test]
fn f2i_saturates() {
    let f2i = |f: f64| eval(Opcode::F2I, &[bits(f)], 0);
    assert_eq!(f2i(f64::INFINITY), i64::MAX);
    assert_eq!(f2i(f64::NEG_INFINITY), i64::MIN);
    assert_eq!(f2i(f64::from_bits(NAN_PAYLOAD)), 0);
    assert_eq!(f2i(1e300), i64::MAX);
    assert_eq!(f2i(-1e300), i64::MIN);
    assert_eq!(f2i(-2.5), -2, "truncates toward zero");
    assert_eq!(f2i(-(f64::MIN_POSITIVE / 3.0)), 0);
    assert_eq!(f2i(-0.0), 0);
}

#[test]
fn fsqrt_takes_the_magnitude() {
    let sqrt = |f: f64| f64::from_bits(eval(Opcode::FSqrt, &[bits(f)], 0) as u64);
    assert_eq!(sqrt(-4.0), 2.0);
    assert_eq!(sqrt(f64::NEG_INFINITY), f64::INFINITY);
    assert_eq!(sqrt(-0.0).to_bits(), 0, "sqrt(|-0.0|) is +0.0");
    assert!(sqrt(f64::from_bits(NAN_PAYLOAD)).is_nan());
}

#[test]
fn fdiv_by_signed_zero_gives_positive_zero() {
    for a in floats() {
        for zero in [0.0, -0.0] {
            assert_eq!(
                eval(Opcode::FDiv, &[a, bits(zero)], 0),
                0,
                "{} / {zero}",
                f64::from_bits(a as u64)
            );
        }
    }
    assert_eq!(eval(Opcode::FDiv, &[bits(-1.0), bits(0.5)], 0), bits(-2.0));
}

#[test]
fn bit_casts_keep_nan_payloads() {
    let nan = NAN_PAYLOAD as i64;
    assert_eq!(eval(Opcode::BitsF, &[nan], 0), nan);
    assert_eq!(eval(Opcode::FBits, &[nan], 0), nan);
    assert_eq!(eval(Opcode::FMov, &[nan], 0), nan);
    assert_eq!(eval(Opcode::FMovI, &[], nan), nan);
    assert_eq!(eval(Opcode::FNeg, &[nan], 0), nan ^ i64::MIN);
    assert_eq!(eval(Opcode::FAbs, &[nan ^ i64::MIN], 0), nan);
    assert_eq!(eval(Opcode::FSel, &[1, nan, 0], 0), nan);
    assert_eq!(eval(Opcode::FSel, &[0, 0, nan], 0), nan);
    // Every integer is some float's bit pattern, NaNs included.
    for v in INTS {
        assert_eq!(eval(Opcode::BitsF, &[v], 0), v);
    }
}

#[test]
fn signed_zero_immediates_differ_in_every_executor() {
    assert_eq!(eval(Opcode::FMovI, &[], bits(0.0)), 0);
    assert_eq!(eval(Opcode::FMovI, &[], bits(-0.0)), i64::MIN);
    assert_eq!(eval(Opcode::FNeg, &[bits(0.0)], 0), i64::MIN);
}

#[test]
fn float_comparisons_follow_ieee() {
    let nan = NAN_PAYLOAD as i64;
    for op in [Opcode::FCmpEq, Opcode::FCmpLt, Opcode::FCmpLe] {
        for a in floats() {
            assert_eq!(eval(op, &[nan, a], 0), 0, "{op} NaN");
            assert_eq!(eval(op, &[a, nan], 0), 0, "{op} NaN");
        }
    }
    assert_eq!(eval(Opcode::FCmpEq, &[bits(0.0), bits(-0.0)], 0), 1);
    assert_eq!(eval(Opcode::FCmpLt, &[bits(-0.0), bits(0.0)], 0), 0);
    assert_eq!(eval(Opcode::FMin, &[nan, bits(1.0)], 0), bits(1.0));
    assert_eq!(eval(Opcode::FMax, &[bits(-2.5), nan], 0), bits(-2.5));
}

#[test]
fn predicates_are_zero_or_one() {
    for v in INTS {
        assert_eq!(eval(Opcode::I2P, &[v], 0), i64::from(v != 0));
        assert_eq!(eval(Opcode::PMovI, &[], v), i64::from(v != 0));
    }
    assert_eq!(eval(Opcode::P2I, &[1], 0), 1);
    assert_eq!(eval(Opcode::Sel, &[0, 7, 9], 0), 9);
    assert_eq!(eval(Opcode::CmpLt, &[i64::MIN, i64::MAX], 0), 1);
    assert_eq!(eval(Opcode::CmpGtI, &[i64::MAX], i64::MIN), 1);
    assert_eq!(eval(Opcode::I2F, &[i64::MAX], 0), bits(i64::MAX as f64));
}
