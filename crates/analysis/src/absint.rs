//! Abstract interpretation over post-pass IR: interval + constant +
//! initialization-state domains.
//!
//! [`analyze_function`] runs a forward value analysis to fixpoint over a
//! function's CFG — the same optimistic worklist discipline as
//! [`metaopt_ir::dataflow::solve`], lifted from bit-vectors to a per-slot
//! value lattice — and then makes one reporting sweep over the stable
//! states, flagging statically-provable faults:
//!
//! * **out-of-bounds memory accesses** whose whole address interval misses
//!   `[0, mem_size - width]`,
//! * **uninitialized reads** of registers with no definition on *any* path,
//! * **division by a provably-zero divisor** (the IR defines `x/0 = 0`, so
//!   this is suspicious rather than faulting), and
//! * **provable signed overflow** (arithmetic is wrapping, likewise).
//!
//! Soundness stance (DESIGN.md §13): a finding is `Error` severity only
//! when it is provable on **all** values along **all** CFG paths reaching
//! an **unpredicated** instruction — exactly the cases where the reference
//! tiers (interpreter and simulator) would fault on any execution reaching
//! the instruction. Everything weaker (predicated, partial, or
//! defined-but-suspicious) is a `Warning`, and warnings never fail a
//! check, so the analysis cannot reject a compile the reference tier
//! accepts on semantic grounds.

use crate::diagnostics::{Diagnostic, Severity};
use metaopt_ir::cfg::Cfg;
use metaopt_ir::{BlockId, Function, Inst, Opcode, RegClass, VReg, Width};
use metaopt_sim::MachineConfig;

/// How register slots are named and initialized at function entry.
#[derive(Clone, Copy, Debug)]
pub enum AbsForm<'a> {
    /// Virtual-register form (before register allocation): slots are vregs,
    /// parameters enter holding unknown values, everything else is
    /// uninitialized (and reads as 0, matching the interpreter's zeroed
    /// frames).
    Virtual,
    /// Machine-register form (after register allocation): slots are the
    /// machine's physical register files, all of which start zeroed.
    Machine(&'a MachineConfig),
}

/// One abstract register slot: initialization bits plus a value interval.
///
/// The interval is always a sound over-approximation of the runtime value
/// (uninitialized registers read as 0 in both reference tiers, so entry
/// intervals are `[0, 0]`, not bottom). `must_uninit` means no definition
/// precedes on *any* path; `maybe_uninit` means one is missing on *some*
/// path. Predicated definitions count as assignments, mirroring the
/// `DefBeforeUse` discipline, so this analysis never rejects more than the
/// structural checker.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct AbsVal {
    maybe_uninit: bool,
    must_uninit: bool,
    lo: i64,
    hi: i64,
}

const TOP: (i64, i64) = (i64::MIN, i64::MAX);

impl AbsVal {
    fn uninit() -> AbsVal {
        // Uninitialized slots read as 0 in the interpreter and simulator.
        AbsVal {
            maybe_uninit: true,
            must_uninit: true,
            lo: 0,
            hi: 0,
        }
    }

    fn init(lo: i64, hi: i64) -> AbsVal {
        AbsVal {
            maybe_uninit: false,
            must_uninit: false,
            lo,
            hi,
        }
    }

    fn top() -> AbsVal {
        AbsVal::init(TOP.0, TOP.1)
    }

    fn join(self, other: AbsVal) -> AbsVal {
        AbsVal {
            maybe_uninit: self.maybe_uninit || other.maybe_uninit,
            must_uninit: self.must_uninit && other.must_uninit,
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Standard interval widening against the previous state: any bound
    /// that moved jumps straight to its extreme, guaranteeing termination.
    fn widen(self, previous: AbsVal) -> AbsVal {
        AbsVal {
            lo: if self.lo < previous.lo {
                i64::MIN
            } else {
                self.lo
            },
            hi: if self.hi > previous.hi {
                i64::MAX
            } else {
                self.hi
            },
            ..self
        }
    }
}

/// Per-program-point abstract state: one slot array per register class.
#[derive(Clone, PartialEq, Eq, Debug)]
struct State {
    ints: Vec<AbsVal>,
    floats: Vec<AbsVal>,
    preds: Vec<AbsVal>,
}

impl State {
    fn entry(func: &Function, form: AbsForm<'_>) -> State {
        match form {
            AbsForm::Virtual => {
                let n = func.num_vregs();
                let mut s = State {
                    ints: vec![AbsVal::uninit(); n],
                    floats: vec![AbsVal::uninit(); n],
                    preds: vec![AbsVal::uninit(); n],
                };
                for &p in &func.params {
                    let v = match func.class_of(p) {
                        RegClass::Pred => AbsVal::init(0, 1),
                        _ => AbsVal::top(),
                    };
                    *s.slot_mut(func.class_of(p), p.index()).expect("param slot") = v;
                }
                s
            }
            AbsForm::Machine(cfg) => State {
                // Physical registers start zeroed: everything is
                // initialized and holds 0.
                ints: vec![AbsVal::init(0, 0); cfg.gpr],
                floats: vec![AbsVal::init(0, 0); cfg.fpr],
                preds: vec![AbsVal::init(0, 0); cfg.pred],
            },
        }
    }

    fn file(&self, class: RegClass) -> &[AbsVal] {
        match class {
            RegClass::Int => &self.ints,
            RegClass::Float => &self.floats,
            RegClass::Pred => &self.preds,
        }
    }

    fn slot(&self, class: RegClass, ix: usize) -> AbsVal {
        // Out-of-range indices mean broken machine code; the machine
        // verifier owns that report, so the value analysis degrades to ⊤.
        self.file(class)
            .get(ix)
            .copied()
            .unwrap_or_else(AbsVal::top)
    }

    fn slot_mut(&mut self, class: RegClass, ix: usize) -> Option<&mut AbsVal> {
        match class {
            RegClass::Int => self.ints.get_mut(ix),
            RegClass::Float => self.floats.get_mut(ix),
            RegClass::Pred => self.preds.get_mut(ix),
        }
    }

    fn join_from(&mut self, other: &State) -> bool {
        let mut changed = false;
        for (mine, theirs) in [
            (&mut self.ints, &other.ints),
            (&mut self.floats, &other.floats),
            (&mut self.preds, &other.preds),
        ] {
            for (a, b) in mine.iter_mut().zip(theirs) {
                let joined = a.join(*b);
                if joined != *a {
                    *a = joined;
                    changed = true;
                }
            }
        }
        changed
    }

    fn widen_from(&mut self, previous: &State) {
        for (mine, prev) in [
            (&mut self.ints, &previous.ints),
            (&mut self.floats, &previous.floats),
            (&mut self.preds, &previous.preds),
        ] {
            for (a, p) in mine.iter_mut().zip(prev) {
                *a = a.widen(*p);
            }
        }
    }
}

/// Exact `i128` result range clamped back into the `i64` interval domain:
/// `None` means the range escapes `i64` somewhere (the op may wrap) and the
/// result must go to ⊤.
fn fit(lo: i128, hi: i128) -> Option<(i64, i64)> {
    if lo >= i64::MIN as i128 && hi <= i64::MAX as i128 {
        Some((lo as i64, hi as i64))
    } else {
        None
    }
}

/// Does the exact result range lie *entirely* outside `i64`? Then every
/// concrete execution of the op wraps — worth a warning even though
/// wrapping is defined behaviour.
fn definitely_overflows(lo: i128, hi: i128) -> bool {
    hi < i64::MIN as i128 || lo > i64::MAX as i128
}

fn corners(av: AbsVal, bv: AbsVal, f: impl Fn(i128, i128) -> i128) -> (i128, i128) {
    let mut lo = i128::MAX;
    let mut hi = i128::MIN;
    for a in [av.lo as i128, av.hi as i128] {
        for b in [bv.lo as i128, bv.hi as i128] {
            let v = f(a, b);
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    (lo, hi)
}

/// The abstract result written to `inst.dst`, plus the exact pre-wrap
/// range when one was computed (for overflow reporting).
fn eval_value(inst: &Inst, state: &State) -> (AbsVal, Option<(i128, i128)>) {
    use Opcode::*;
    let arg = |ix: usize| {
        let class = inst
            .op
            .arg_class(ix)
            .expect("a verified instruction fits its arity");
        state.slot(class, inst.args[ix].index())
    };
    let imm = AbsVal::init(inst.imm, inst.imm);
    let from_exact = |(lo, hi): (i128, i128)| {
        let v = match fit(lo, hi) {
            Some((l, h)) => AbsVal::init(l, h),
            None => AbsVal::top(),
        };
        (v, Some((lo, hi)))
    };
    let bool_val = |known: Option<bool>| match known {
        Some(true) => AbsVal::init(1, 1),
        Some(false) => AbsVal::init(0, 0),
        None => AbsVal::init(0, 1),
    };
    match inst.op {
        Add => from_exact(corners(arg(0), arg(1), |a, b| a + b)),
        AddI => from_exact(corners(arg(0), imm, |a, b| a + b)),
        Sub => from_exact(corners(arg(0), arg(1), |a, b| a - b)),
        Mul => from_exact(corners(arg(0), arg(1), |a, b| a * b)),
        MulI => from_exact(corners(arg(0), imm, |a, b| a * b)),
        Neg => from_exact(corners(arg(0), imm, |a, _| -a)),
        Abs => {
            let a = arg(0);
            let (lo, hi) = corners(a, imm, |x, _| x.abs());
            let lo = if a.lo <= 0 && a.hi >= 0 { 0 } else { lo };
            from_exact((lo.min(hi), hi))
        }
        Div | Rem => {
            let b = arg(1);
            if b.lo == b.hi && b.lo != 0 && b.lo != -1 {
                let c = b.lo as i128;
                let a = arg(0);
                let (lo, hi) = if inst.op == Div {
                    corners(a, b, |x, _| x / c)
                } else {
                    corners(a, b, |x, _| x % c)
                };
                // x % c additionally never exceeds |c| - 1 in magnitude.
                from_exact((lo, hi))
            } else {
                (AbsVal::top(), None)
            }
        }
        And => {
            let (a, b) = (arg(0), arg(1));
            if a.lo >= 0 || b.lo >= 0 {
                let hi = match (a.lo >= 0, b.lo >= 0) {
                    (true, true) => a.hi.min(b.hi),
                    (true, false) => a.hi,
                    (false, true) => b.hi,
                    (false, false) => unreachable!(),
                };
                (AbsVal::init(0, hi), None)
            } else {
                (AbsVal::top(), None)
            }
        }
        AndI => {
            if inst.imm >= 0 {
                (AbsVal::init(0, inst.imm), None)
            } else {
                (AbsVal::top(), None)
            }
        }
        Or | Xor | Shl | Shr => (AbsVal::top(), None),
        ShlI => {
            let s = (inst.imm & 63) as u32;
            from_exact(corners(arg(0), imm, |a, _| a << s))
        }
        ShrI => {
            let s = (inst.imm & 63) as u32;
            from_exact(corners(arg(0), imm, |a, _| a >> s))
        }
        MovI => (imm, None),
        Mov => (arg(0), None),
        Min => {
            let (a, b) = (arg(0), arg(1));
            (AbsVal::init(a.lo.min(b.lo), a.hi.min(b.hi)), None)
        }
        Max => {
            let (a, b) = (arg(0), arg(1));
            (AbsVal::init(a.lo.max(b.lo), a.hi.max(b.hi)), None)
        }
        Sel => (arg(1).join(arg(2)), None),
        CmpEq => {
            let (a, b) = (arg(0), arg(1));
            let known = if a.lo == a.hi && a == b {
                Some(true)
            } else if a.hi < b.lo || b.hi < a.lo {
                Some(false)
            } else {
                None
            };
            (bool_val(known), None)
        }
        CmpNe => {
            let (a, b) = (arg(0), arg(1));
            let known = if a.hi < b.lo || b.hi < a.lo {
                Some(true)
            } else if a.lo == a.hi && a == b {
                Some(false)
            } else {
                None
            };
            (bool_val(known), None)
        }
        CmpLt => cmp_interval(arg(0), arg(1), false),
        CmpLe => cmp_interval(arg(0), arg(1), true),
        CmpEqI => {
            let a = arg(0);
            let known = if a.lo == a.hi && a.lo == inst.imm {
                Some(true)
            } else if inst.imm < a.lo || inst.imm > a.hi {
                Some(false)
            } else {
                None
            };
            (bool_val(known), None)
        }
        CmpLtI => cmp_interval(arg(0), imm, false),
        CmpGtI => cmp_interval(imm, arg(0), false),
        PAnd => {
            let (a, b) = (arg(0), arg(1));
            (
                AbsVal::init(a.lo.min(b.lo).min(1), a.hi.min(b.hi).clamp(0, 1)),
                None,
            )
        }
        POr => {
            let (a, b) = (arg(0), arg(1));
            (
                AbsVal::init(a.lo.max(b.lo).clamp(0, 1), a.hi.max(b.hi).clamp(0, 1)),
                None,
            )
        }
        PNot => {
            let a = arg(0);
            (
                AbsVal::init(1 - a.hi.clamp(0, 1), 1 - a.lo.clamp(0, 1)),
                None,
            )
        }
        PMovI => (bool_val(Some(inst.imm != 0)), None),
        PMov => (arg(0), None),
        P2I => (arg(0), None),
        I2P => {
            let a = arg(0);
            let known = if a.lo == 0 && a.hi == 0 {
                Some(false)
            } else if a.lo > 0 || a.hi < 0 {
                Some(true)
            } else {
                None
            };
            (bool_val(known), None)
        }
        FCmpEq | FCmpLt | FCmpLe => (AbsVal::init(0, 1), None),
        // Loads recover width information: B1 zero-extends, B4 sign-extends.
        Ld(Width::B1) => (AbsVal::init(0, 255), None),
        Ld(Width::B4) => (AbsVal::init(i32::MIN as i64, i32::MAX as i64), None),
        // Everything else producing a value is unknown.
        _ => (AbsVal::top(), None),
    }
}

fn cmp_interval(a: AbsVal, b: AbsVal, or_equal: bool) -> (AbsVal, Option<(i128, i128)>) {
    // a < b (or a <= b): decided when the intervals are disjoint.
    let yes = if or_equal { a.hi <= b.lo } else { a.hi < b.lo };
    let no = if or_equal { a.lo > b.hi } else { a.lo >= b.hi };
    let v = if yes {
        AbsVal::init(1, 1)
    } else if no {
        AbsVal::init(0, 0)
    } else {
        AbsVal::init(0, 1)
    };
    (v, None)
}

/// Apply one instruction's effect on the abstract state.
fn transfer(inst: &Inst, state: &mut State) {
    let Some(class) = inst.op.dst_class() else {
        return;
    };
    let Some(dst) = inst.dst else { return };
    let (mut value, _) = eval_value(inst, state);
    if class == RegClass::Float {
        // Float values are tracked for initialization only.
        value.lo = TOP.0;
        value.hi = TOP.1;
    }
    if let Some(slot) = state.slot_mut(class, dst.index()) {
        if inst.pred.is_some() {
            // A predicated definition may not execute: the old value
            // survives on the guard-false path. It still counts as an
            // assignment for must-uninit (the DefBeforeUse discipline).
            let mut joined = slot.join(value);
            joined.must_uninit = false;
            *slot = joined;
        } else {
            *slot = value;
        }
    }
}

/// The address interval of a memory instruction, in exact `i128` space.
fn addr_range(inst: &Inst, state: &State) -> (i128, i128) {
    let base = state.slot(RegClass::Int, inst.args[0].index());
    (
        base.lo as i128 + inst.imm as i128,
        base.hi as i128 + inst.imm as i128,
    )
}

fn severity_for(inst: &Inst) -> Severity {
    if inst.pred.is_none() {
        Severity::Error
    } else {
        Severity::Warning
    }
}

/// Reporting sweep over one instruction given the stable pre-state.
fn check_inst(
    inst: &Inst,
    state: &State,
    func: &Function,
    pass: &str,
    mem_size: usize,
    loc: (BlockId, usize),
    diags: &mut Vec<Diagnostic>,
) {
    let diag = |sev: Severity, msg: String| {
        Diagnostic::new(sev, pass, &func.name, msg).at_inst(loc.0, loc.1)
    };

    // Uninitialized reads: operands and the guard itself.
    let mut report_uninit = |class: RegClass, r: VReg, what: &str, sev: Severity| {
        let v = state.slot(class, r.index());
        if v.must_uninit {
            diags.push(diag(
                sev,
                format!("absint: {what} reads {r} with no definition on any path"),
            ));
        }
    };
    for (ix, &a) in inst.args.iter().enumerate() {
        let class = inst
            .op
            .arg_class(ix)
            .expect("a verified instruction fits its arity");
        report_uninit(class, a, "operand", severity_for(inst));
    }
    if let Some(p) = inst.pred {
        // The guard is read unconditionally.
        report_uninit(RegClass::Pred, p, "guard", Severity::Error);
    }

    // Provable out-of-bounds accesses.
    let width = match inst.op {
        Opcode::Ld(w) | Opcode::St(w) => Some(w.bytes() as i128),
        Opcode::FLd | Opcode::FSt => Some(8),
        _ => None,
    };
    if let Some(w) = width {
        let (lo, hi) = addr_range(inst, state);
        let limit = mem_size as i128 - w;
        if hi < 0 || lo > limit {
            diags.push(diag(
                severity_for(inst),
                format!(
                    "absint: {} address is provably out of bounds \
                     (addr in [{lo}, {hi}], memory is {mem_size} bytes)",
                    inst.op
                ),
            ));
        }
    }

    // Division by a provably-zero divisor: defined (yields 0) but almost
    // certainly not what the program meant.
    if matches!(inst.op, Opcode::Div | Opcode::Rem) {
        let b = state.slot(RegClass::Int, inst.args[1].index());
        if b.lo == 0 && b.hi == 0 && !b.must_uninit {
            diags.push(diag(
                Severity::Warning,
                format!(
                    "absint: {} divisor is provably zero (defined to yield 0)",
                    inst.op
                ),
            ));
        }
    }

    // Provable wrapping: the exact result range misses i64 entirely.
    if let (_, Some((lo, hi))) = eval_value(inst, state) {
        if definitely_overflows(lo, hi) {
            diags.push(diag(
                Severity::Warning,
                format!("absint: {} provably overflows i64 (wraps)", inst.op),
            ));
        }
    }
}

/// Block visits before interval widening kicks in: small enough to converge
/// fast, large enough to let short counted loops settle exactly.
const WIDEN_AFTER: u32 = 4;

/// Run the abstract interpreter over `func` and report findings attributed
/// to `pass`. `mem_size` is the byte size of the memory image the function
/// will run against (post-regalloc: globals + spill area).
pub fn analyze_function(
    func: &Function,
    form: AbsForm<'_>,
    mem_size: usize,
    pass: &str,
) -> Vec<Diagnostic> {
    let nb = func.blocks.len();
    let mut entry: Vec<Option<State>> = vec![None; nb];
    let mut visits = vec![0u32; nb];
    entry[func.entry.index()] = Some(State::entry(func, form));

    // Deduplicating worklist seeded in reverse postorder, exactly like
    // `dataflow::solve`; value states replace bit-vectors.
    let cfg = Cfg::new(func);
    let mut worklist: std::collections::VecDeque<usize> =
        cfg.rpo().iter().map(|b| b.index()).collect();
    let mut queued = vec![false; nb];
    for &b in &worklist {
        queued[b] = true;
    }

    while let Some(bi) = worklist.pop_front() {
        queued[bi] = false;
        let Some(mut state) = entry[bi].clone() else {
            continue; // not yet reached from the entry
        };
        for inst in &func.blocks[bi].insts {
            transfer(inst, &mut state);
        }
        for &succ in cfg.succs(BlockId(bi as u32)) {
            let si = succ.index();
            let changed = match &mut entry[si] {
                Some(existing) => {
                    let mut joined = existing.clone();
                    let c = joined.join_from(&state);
                    if c {
                        visits[si] += 1;
                        if visits[si] > WIDEN_AFTER {
                            joined.widen_from(existing);
                        }
                        *existing = joined;
                    }
                    c
                }
                slot @ None => {
                    *slot = Some(state.clone());
                    true
                }
            };
            if changed && !queued[si] {
                queued[si] = true;
                worklist.push_back(si);
            }
        }
    }

    // Single reporting sweep over the stable states: each finding is
    // emitted exactly once, in program order.
    let mut diags = Vec::new();
    for (bi, e) in entry.iter().enumerate() {
        let Some(s) = e else { continue };
        let mut state = s.clone();
        for (ii, inst) in func.blocks[bi].insts.iter().enumerate() {
            check_inst(
                inst,
                &state,
                func,
                pass,
                mem_size,
                (BlockId(bi as u32), ii),
                &mut diags,
            );
            transfer(inst, &mut state);
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaopt_ir::builder::FunctionBuilder;

    fn analyze(func: &Function, mem: usize) -> Vec<Diagnostic> {
        analyze_function(func, AbsForm::Virtual, mem, "test")
    }

    #[test]
    fn clean_straightline_code_has_no_findings() {
        let mut fb = FunctionBuilder::new("ok");
        let a = fb.movi(2);
        let b = fb.movi(40);
        let c = fb.add(a, b);
        fb.ret(Some(c));
        let f = fb.finish();
        assert!(analyze(&f, 64).is_empty());
    }

    #[test]
    fn constant_oob_store_is_an_error() {
        let mut fb = FunctionBuilder::new("oob");
        let base = fb.movi(1 << 20);
        let v = fb.movi(7);
        fb.st8(base, v, 0);
        fb.ret(Some(v));
        let f = fb.finish();
        let diags = analyze(&f, 4096);
        assert!(
            diags
                .iter()
                .any(|d| d.severity == Severity::Error && d.message.contains("out of bounds")),
            "{diags:?}"
        );
    }

    #[test]
    fn negative_address_is_an_error_and_predication_demotes_it() {
        let mut fb = FunctionBuilder::new("neg");
        let base = fb.movi(-64);
        let v = fb.ld8(base, 0);
        fb.ret(Some(v));
        let mut f = fb.finish();
        let diags = analyze(&f, 4096);
        assert!(
            diags.iter().any(|d| d.severity == Severity::Error),
            "{diags:?}"
        );

        // Guard the load: the fault is no longer provable to execute.
        let p = f.new_vreg(RegClass::Pred);
        let pm = Inst::new(Opcode::PMovI).dst(p).imm(0);
        let lix = f.blocks[0]
            .insts
            .iter()
            .position(|i| i.op.is_load())
            .unwrap();
        f.blocks[0].insts[lix].pred = Some(p);
        f.blocks[0].insts.insert(0, pm);
        let diags = analyze(&f, 4096);
        assert!(
            diags.iter().all(|d| d.severity <= Severity::Warning),
            "{diags:?}"
        );
        assert!(diags.iter().any(|d| d.message.contains("out of bounds")));
    }

    #[test]
    fn in_bounds_loop_indexing_is_clean() {
        // for (i = 0; i < 8; i++) xs[i] += 1  over a 64-byte array at 0.
        let mut fb = FunctionBuilder::new("loopy");
        let hdr = fb.new_block();
        let body = fb.new_block();
        let exit = fb.new_block();
        let i = fb.movi(0);
        fb.br(hdr);
        fb.switch_to(hdr);
        let p = fb.cmp_lti(i, 8);
        fb.branch(p, body, exit);
        fb.switch_to(body);
        let addr = fb.muli(i, 8);
        let v = fb.ld8(addr, 0);
        let v2 = fb.addi(v, 1);
        fb.st8(addr, v2, 0);
        let inext = fb.addi(i, 1);
        fb.push(Inst::new(Opcode::Mov).dst(i).args(&[inext]));
        fb.br(hdr);
        fb.switch_to(exit);
        fb.ret(Some(i));
        let f = fb.finish();
        let diags = analyze(&f, 64);
        assert!(
            diags.iter().all(|d| d.severity < Severity::Error),
            "{diags:?}"
        );
    }

    #[test]
    fn provable_div_by_zero_warns() {
        let mut fb = FunctionBuilder::new("divz");
        let a = fb.movi(10);
        let z = fb.movi(0);
        let d = fb.div(a, z);
        fb.ret(Some(d));
        let diags = analyze(&fb.finish(), 64);
        assert!(
            diags
                .iter()
                .any(|d| d.severity == Severity::Warning && d.message.contains("zero")),
            "{diags:?}"
        );
        assert!(diags.iter().all(|d| d.severity < Severity::Error));
    }

    #[test]
    fn provable_overflow_warns() {
        let mut fb = FunctionBuilder::new("wrap");
        let a = fb.movi(i64::MAX);
        let b = fb.addi(a, 1);
        fb.ret(Some(b));
        let diags = analyze(&fb.finish(), 64);
        assert!(
            diags
                .iter()
                .any(|d| d.severity == Severity::Warning && d.message.contains("overflow")),
            "{diags:?}"
        );
    }

    #[test]
    fn machine_form_registers_start_initialized() {
        let cfg = MachineConfig::table3();
        let mut fb = FunctionBuilder::new("mf");
        let a = fb.movi(1);
        fb.ret(Some(a));
        let f = fb.finish();
        assert!(analyze_function(&f, AbsForm::Machine(&cfg), 4096, "t").is_empty());
    }

    #[test]
    fn widening_terminates_on_unbounded_loops() {
        // while (i >= 0) i++  — the interval must widen rather than loop.
        let mut fb = FunctionBuilder::new("diverge");
        let hdr = fb.new_block();
        let body = fb.new_block();
        let exit = fb.new_block();
        let i = fb.movi(0);
        fb.br(hdr);
        fb.switch_to(hdr);
        let p = fb.cmp_lti(i, i64::MAX);
        fb.branch(p, body, exit);
        fb.switch_to(body);
        let inext = fb.addi(i, 1);
        fb.push(Inst::new(Opcode::Mov).dst(i).args(&[inext]));
        fb.br(hdr);
        fb.switch_to(exit);
        fb.ret(Some(i));
        let _ = analyze(&fb.finish(), 64); // must terminate
    }
}
