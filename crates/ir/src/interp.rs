//! Reference interpreter and profiler.
//!
//! Executes a [`Program`], defining the semantic ground truth for the
//! compiler and the cycle simulator. Optionally collects the execution
//! [`Profile`] (block/edge counts, branch predictability) that the
//! optimization passes consume.
//!
//! [`run`] first lowers the program into one flat array of fixed-size
//! entries: every function's blocks end to end, each instruction's operand,
//! destination and guard registers as indices into its frame's register
//! file, its immediate as [`Inst::eval_imm`] gives it, and its branch
//! target as the flat index of the target block's first entry. An entry
//! after each block's last instruction stops a run that passes the end of
//! the block ([`InterpError::FellOffBlock`]). The run then steps a program
//! counter over that array, with one dispatch per step: the value-producing
//! opcodes are evaluated by [`Opcode::eval`], the same definition both
//! simulator tiers and constant folding use, whose match the compiler folds
//! into the loop's; the loop runs memory, control, calls and `UnsafeCall`
//! itself. Nothing is cached across runs. The memory helpers and the
//! `UnsafeCall` semantics below are shared with the simulator.

use crate::inst::{Inst, Opcode, Width};
use crate::profile::{BranchStats, FuncProfile, Profile};
use crate::program::{Program, UNSAFE_SCRATCH_BASE};
use crate::types::{BlockId, FuncId, RegClass, VReg};
use std::collections::HashMap;
use std::fmt;

/// Interpreter failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InterpError {
    /// The configured step limit was exceeded (probable infinite loop).
    StepLimit(u64),
    /// A memory access fell outside the program's memory image.
    OutOfBounds {
        /// The faulting byte address.
        addr: i64,
    },
    /// The requested entry function does not exist.
    NoEntry(String),
    /// Call stack exceeded the hard limit.
    StackOverflow,
    /// Control ran past the end of this block of the running function, e.g.
    /// after a conditional branch that ends the block and is not taken, or
    /// into an empty block.
    FellOffBlock(BlockId),
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::StepLimit(n) => write!(f, "step limit of {n} exceeded"),
            InterpError::OutOfBounds { addr } => write!(f, "memory access out of bounds at {addr}"),
            InterpError::NoEntry(n) => write!(f, "no entry function named {n}"),
            InterpError::StackOverflow => write!(f, "call stack overflow"),
            InterpError::FellOffBlock(b) => write!(f, "fell off end of block {b}"),
        }
    }
}

impl std::error::Error for InterpError {}

/// A memory access outside the memory image: the one failure of
/// [`read_mem`] and [`write_mem`]. The interpreter reports it as
/// [`InterpError::OutOfBounds`]; the simulator converts it into its own
/// error without ever seeing the interpreter's other failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutOfBounds {
    /// The faulting byte address.
    pub addr: i64,
}

impl fmt::Display for OutOfBounds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "memory access out of bounds at {}", self.addr)
    }
}

impl std::error::Error for OutOfBounds {}

impl From<OutOfBounds> for InterpError {
    fn from(e: OutOfBounds) -> Self {
        InterpError::OutOfBounds { addr: e.addr }
    }
}

/// Configuration for a run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Integer arguments passed to the entry function's parameters.
    pub args: Vec<i64>,
    /// Maximum dynamic instructions before aborting.
    pub max_steps: u64,
    /// Collect a [`Profile`]?
    pub profile: bool,
    /// Entry function name (`main` or function 0 by default).
    pub entry: Option<String>,
    /// Initial memory image override (defaults to
    /// [`Program::initial_memory`]).
    pub memory: Option<Vec<u8>>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            args: Vec::new(),
            max_steps: crate::budget::DEFAULT_MAX_STEPS,
            profile: false,
            entry: None,
            memory: None,
        }
    }
}

/// Result of a successful run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Value returned by the entry function (0 if it returned nothing).
    pub ret: i64,
    /// Dynamic instructions executed (including nullified predicated ones).
    pub steps: u64,
    /// Execution profile, if requested.
    pub profile: Option<Profile>,
    /// Final memory image.
    pub memory: Vec<u8>,
}

/// Deterministic semantics of [`Opcode::UnsafeCall`], shared by interpreter
/// and simulator: mixes the argument with the old scratch value.
/// Returns `(new_scratch, result)`.
#[inline]
pub fn unsafe_call_semantics(old: i64, arg: i64, site: i64) -> (i64, i64) {
    let mixed = old
        .wrapping_mul(6364136223846793005)
        .wrapping_add(arg ^ site.wrapping_mul(0x9E3779B97F4A7C15u64 as i64));
    let ret = (mixed >> 17) ^ mixed;
    (mixed, ret)
}

/// Scratch-slot address used by an `UnsafeCall` with selector `site`.
#[inline]
pub fn unsafe_call_slot(site: i64) -> i64 {
    UNSAFE_SCRATCH_BASE + (site.rem_euclid(64)) * 8
}

/// Read `w` bytes at `addr` (shared by interpreter and simulator).
///
/// # Errors
/// Returns [`OutOfBounds`] on an out-of-range access.
#[inline]
pub fn read_mem(mem: &[u8], addr: i64, w: Width) -> Result<i64, OutOfBounds> {
    let a = addr as usize;
    if addr < 0 || a + w.bytes() > mem.len() {
        return Err(OutOfBounds { addr });
    }
    Ok(match w {
        Width::B1 => mem[a] as i64,
        Width::B4 => i32::from_le_bytes(mem[a..a + 4].try_into().expect("a 4-byte range")) as i64,
        Width::B8 => i64::from_le_bytes(mem[a..a + 8].try_into().expect("an 8-byte range")),
    })
}

/// Write `w` bytes at `addr` (shared by interpreter and simulator).
///
/// # Errors
/// Returns [`OutOfBounds`] on an out-of-range access.
#[inline]
pub fn write_mem(mem: &mut [u8], addr: i64, w: Width, v: i64) -> Result<(), OutOfBounds> {
    let a = addr as usize;
    if addr < 0 || a + w.bytes() > mem.len() {
        return Err(OutOfBounds { addr });
    }
    match w {
        Width::B1 => mem[a] = v as u8,
        Width::B4 => mem[a..a + 4].copy_from_slice(&(v as i32).to_le_bytes()),
        Width::B8 => mem[a..a + 8].copy_from_slice(&v.to_le_bytes()),
    }
    Ok(())
}

const MAX_STACK: usize = 1024;

/// An absent register field of an [`Op`]. Reading it indexes out of the
/// register file and panics, where the instruction's missing operand is
/// read; an absent destination skips the write.
const NONE: u32 = u32::MAX;

/// A register outside its function's file, or a branch target outside its
/// function: any use indexes out of range and panics. Distinct from
/// [`NONE`], so that a `Ret` of such a register panics instead of
/// returning 0.
const OOB: u32 = u32::MAX - 1;

/// The target of the `Br` that closes every block, which control reaches
/// only by running past the block's last instruction.
const END: u32 = u32::MAX;

/// One pre-decoded instruction. Register fields index the frame's file:
/// operand `i` of the instruction is in `args[i]`, and a field the
/// instruction does not fill is [`NONE`].
#[derive(Clone, Copy)]
struct Op {
    /// The operation; a `Br` to [`END`] for the entry that closes a block.
    op: Opcode,
    args: [u32; 3],
    dst: u32,
    pred: u32,
    /// [`Inst::eval_imm`]; for the entry that closes a block, the block's
    /// id.
    imm: i64,
    /// Flat index of the branch target's first entry. A branch without a
    /// target jumps to the next entry, which is where it falls through.
    target: u32,
}

/// Where one function's code sits in the flat array.
struct FuncCode {
    /// Flat index of each block's first entry; block `b`'s instruction
    /// `ip` is at `blocks[b] + ip`.
    blocks: Vec<usize>,
    /// Flat index of the entry block's first entry ([`OOB`] if the entry
    /// block does not exist).
    entry: usize,
}

/// `prog` lowered for one run: every function's blocks laid end to end in
/// one array, each block followed by the entry that closes it.
struct Code<'p> {
    prog: &'p Program,
    ops: Vec<Op>,
    funcs: Vec<FuncCode>,
}

impl<'p> Code<'p> {
    fn decode(prog: &'p Program) -> Self {
        let len = prog
            .funcs
            .iter()
            .map(|f| f.num_insts() + f.blocks.len())
            .sum();
        let mut ops = Vec::with_capacity(len);
        let mut funcs = Vec::with_capacity(prog.funcs.len());
        for f in &prog.funcs {
            let mut blocks = Vec::with_capacity(f.blocks.len());
            let mut at = ops.len();
            for b in &f.blocks {
                blocks.push(at);
                at += b.insts.len() + 1;
            }
            let nregs = f.num_vregs();
            let reg = |r: VReg| if r.index() < nregs { r.0 } else { OOB };
            let start = |b: BlockId| blocks.get(b.index()).map_or(OOB, |&s| s as u32);
            for (bi, b) in f.blocks.iter().enumerate() {
                for inst in &b.insts {
                    let next = ops.len() as u32 + 1;
                    ops.push(Op {
                        op: inst.op,
                        args: [0, 1, 2].map(|i| inst.args.get(i).map_or(NONE, |&r| reg(r))),
                        dst: inst.dst.map_or(NONE, reg),
                        pred: inst.pred.map_or(NONE, reg),
                        imm: inst.eval_imm(),
                        target: inst.target.map_or(next, start),
                    });
                }
                ops.push(Op {
                    op: Opcode::Br,
                    args: [NONE; 3],
                    dst: NONE,
                    pred: NONE,
                    imm: bi as i64,
                    target: END,
                });
            }
            funcs.push(FuncCode {
                entry: start(f.entry) as usize,
                blocks,
            });
        }
        Code { prog, ops, funcs }
    }

    /// A fresh activation of `func`, about to run its entry block.
    fn frame(&self, func: usize) -> Frame {
        Frame {
            func,
            pc: self.funcs[func].entry,
            regs: vec![0; self.prog.funcs[func].num_vregs()],
        }
    }

    /// The instruction that entry `pc` of `func` was decoded from.
    fn inst(&self, func: usize, pc: usize) -> &'p Inst {
        let blocks = &self.funcs[func].blocks;
        let b = blocks.partition_point(|&s| s <= pc) - 1;
        &self.prog.funcs[func].blocks[b].insts[pc - blocks[b]]
    }
}

/// One activation. Each virtual register has one class, so the registers
/// share one file of raw values, as [`Opcode::eval`] reads and writes them:
/// an integer as itself, a float as its bit pattern, a predicate as 0/1.
/// The running activation's fields are locals of [`run`], which keeps the
/// callers' on its stack.
struct Frame {
    func: usize,
    /// Flat index of the next entry to run.
    pc: usize,
    regs: Vec<i64>,
}

/// What a profiled run counts at one instruction.
#[derive(Clone, Copy)]
struct SiteCounts {
    /// 2-bit saturating predictor counter of a conditional branch.
    predictor: u8,
    /// Statistics of a conditional branch.
    branch: BranchStats,
    /// Control transfers to the instruction's target.
    transfers: u64,
}

impl SiteCounts {
    /// Count one execution of the conditional branch at this site.
    fn branch(&mut self, taken: bool) {
        let predicted_taken = self.predictor >= 2;
        self.predictor = match (taken, self.predictor) {
            (true, c) => (c + 1).min(3),
            (false, c) => c.saturating_sub(1),
        };
        let st = &mut self.branch;
        st.executed += 1;
        if taken {
            st.taken += 1;
            self.transfers += 1;
        }
        if predicted_taken == taken {
            st.correct += 1;
        }
    }
}

/// The profile counters of a run: one site per flat entry, and the number
/// of activations of each function. They live for the whole run, so a
/// branch's predictor state is shared by every call of its function.
struct Counts {
    sites: Vec<SiteCounts>,
    entries: Vec<u64>,
}

impl Counts {
    fn new(code: &Code) -> Self {
        Counts {
            sites: vec![
                SiteCounts {
                    predictor: 1, // weakly not-taken
                    branch: BranchStats::default(),
                    transfers: 0,
                };
                code.ops.len()
            ],
            entries: vec![0; code.funcs.len()],
        }
    }

    /// Fold the counters into a [`Profile`]. Per function, a block runs
    /// once per activation (the entry block) and once per transfer into
    /// it, `branches` gets one entry per site that executed, and
    /// `edge_counts` one entry per `(block, target)`, summed over the
    /// block's transfers to that target.
    fn into_profile(self, code: &Code, steps: u64) -> Profile {
        let funcs = code.prog.funcs.iter().zip(&code.funcs).zip(self.entries);
        let funcs = funcs.map(|((f, fc), entries)| {
            let mut block_counts = vec![0; f.blocks.len()];
            if entries > 0 {
                block_counts[f.entry.index()] += entries;
            }
            let mut edge_counts = HashMap::new();
            let mut branches = HashMap::new();
            for (bi, block) in f.blocks.iter().enumerate() {
                let b = BlockId(bi as u32);
                let sites = &self.sites[fc.blocks[bi]..];
                for (ip, (inst, site)) in block.insts.iter().zip(sites).enumerate() {
                    if site.branch.executed > 0 {
                        branches.insert((b, ip), site.branch);
                    }
                    // A branch without a target counts its transfers to the
                    // next entry, which is no edge.
                    if let (Some(t), n @ 1..) = (inst.target, site.transfers) {
                        *edge_counts.entry((b, t)).or_insert(0) += n;
                        block_counts[t.index()] += n;
                    }
                }
            }
            FuncProfile {
                block_counts,
                edge_counts,
                branches,
            }
        });
        Profile {
            funcs: funcs.collect(),
            dyn_insts: steps,
        }
    }
}

/// Execute `prog` under `cfg`.
///
/// Each run first lowers every function into one flat array of fixed-size
/// entries, then steps a program counter over it, with one dispatch per
/// step.
///
/// # Errors
/// Returns an [`InterpError`] on step-limit exhaustion, out-of-bounds memory
/// access, a missing entry function, call-stack overflow, or control
/// running past the end of a block.
pub fn run(prog: &Program, cfg: &RunConfig) -> Result<Outcome, InterpError> {
    let entry = match &cfg.entry {
        Some(name) => prog
            .func_by_name(name)
            .ok_or_else(|| InterpError::NoEntry(name.clone()))?,
        None => prog.entry_func(),
    };
    let mut mem = match &cfg.memory {
        Some(m) => m.clone(),
        None => prog.initial_memory(),
    };

    let code = Code::decode(prog);
    let mut counts = cfg.profile.then(|| Counts::new(&code));

    let mut stack: Vec<Frame> = Vec::new();
    let Frame {
        mut func,
        mut pc,
        mut regs,
    } = code.frame(entry.index());
    for (i, p) in prog.func(entry).params.iter().enumerate() {
        let v = cfg.args.get(i).copied().unwrap_or(0);
        regs[p.index()] = match prog.func(entry).class_of(*p) {
            RegClass::Int => v,
            RegClass::Float => (v as f64).to_bits() as i64,
            RegClass::Pred => i64::from(v != 0),
        };
    }
    if let Some(c) = &mut counts {
        c.entries[entry.index()] += 1;
    }

    let mut steps: u64 = 0;
    let ret_val = loop {
        let op = &code.ops[pc];
        steps += 1;
        if steps > cfg.max_steps {
            // Running past a block is no step, so it is reported first.
            return Err(if op.target == END {
                InterpError::FellOffBlock(BlockId(op.imm as u32))
            } else {
                InterpError::StepLimit(cfg.max_steps)
            });
        }

        // Guard predicate: nullified instructions advance the PC only.
        if op.pred != NONE && regs[op.pred as usize] == 0 {
            pc += 1;
            continue;
        }

        let arg = |i: usize| regs[op.args[i] as usize];
        // Read before the dispatch, so that the value arm below holds
        // nothing but `Opcode::eval`'s match, which the compiler then folds
        // into this one: one jump table per step.
        let imm = op.imm;
        match op.op {
            Opcode::Ld(w) => {
                let v = read_mem(&mem, arg(0).wrapping_add(imm), w)?;
                set(&mut regs, op.dst, v);
            }
            Opcode::St(w) => {
                write_mem(&mut mem, arg(0).wrapping_add(imm), w, arg(1))?;
            }
            Opcode::FLd => {
                let bits = read_mem(&mem, arg(0).wrapping_add(imm), Width::B8)?;
                set(&mut regs, op.dst, bits);
            }
            Opcode::FSt => {
                write_mem(&mut mem, arg(0).wrapping_add(imm), Width::B8, arg(1))?;
            }
            Opcode::Prefetch => {} // architecturally a no-op

            Opcode::Br => {
                if op.target == END {
                    return Err(InterpError::FellOffBlock(BlockId(imm as u32)));
                }
                if let Some(c) = &mut counts {
                    c.sites[pc].transfers += 1;
                }
                pc = op.target as usize;
                continue;
            }
            Opcode::CBr => {
                let taken = arg(0) != 0;
                if let Some(c) = &mut counts {
                    c.sites[pc].branch(taken);
                }
                if taken {
                    pc = op.target as usize;
                    continue;
                }
            }
            Opcode::Ret => {
                let v = if op.args[0] == NONE { 0 } else { arg(0) };
                match stack.pop() {
                    None => break v,
                    Some(parent) => {
                        (func, pc, regs) = (parent.func, parent.pc, parent.regs);
                        // The caller's pc is still at its call.
                        set(&mut regs, code.ops[pc].dst, v);
                        pc += 1;
                        continue;
                    }
                }
            }
            Opcode::Call => {
                if stack.len() >= MAX_STACK {
                    return Err(InterpError::StackOverflow);
                }
                let callee = FuncId(imm as u32).index();
                let Frame {
                    pc: callee_pc,
                    regs: mut callee_regs,
                    ..
                } = code.frame(callee);
                let args = &code.inst(func, pc).args;
                for (ai, p) in prog.funcs[callee].params.iter().enumerate() {
                    callee_regs[p.index()] = regs[args[ai].index()];
                }
                if let Some(c) = &mut counts {
                    c.entries[callee] += 1;
                }
                let caller_regs = std::mem::replace(&mut regs, callee_regs);
                stack.push(Frame {
                    func,
                    pc,
                    regs: caller_regs,
                });
                (func, pc) = (callee, callee_pc);
                continue;
            }
            Opcode::UnsafeCall => {
                let slot = unsafe_call_slot(imm);
                let old = read_mem(&mem, slot, Width::B8)?;
                let (new, ret) = unsafe_call_semantics(old, arg(0), imm);
                write_mem(&mut mem, slot, Width::B8, new)?;
                set(&mut regs, op.dst, ret);
            }
            value_op => {
                let v = value_op.eval(arg, imm);
                set(&mut regs, op.dst, v);
            }
        }
        pc += 1;
    };

    let profile = counts.map(|c| c.into_profile(&code, steps));
    Ok(Outcome {
        ret: ret_val,
        steps,
        profile,
        memory: mem,
    })
}

/// Write a result to register `dst`, unless the instruction has none.
#[inline(always)]
fn set(regs: &mut [i64], dst: u32, v: i64) {
    if dst != NONE {
        regs[dst as usize] = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::program::{GlobalData, GlobalInit};
    use crate::types::RegClass;

    fn run_main(prog: &Program) -> Outcome {
        run(prog, &RunConfig::default()).unwrap()
    }

    #[test]
    fn arithmetic_and_return() {
        let mut fb = FunctionBuilder::new("main");
        let a = fb.movi(6);
        let b = fb.movi(7);
        let c = fb.mul(a, b);
        fb.ret(Some(c));
        let mut p = Program::new();
        p.add_function(fb.finish());
        assert_eq!(run_main(&p).ret, 42);
    }

    #[test]
    fn division_by_zero_yields_zero() {
        let mut fb = FunctionBuilder::new("main");
        let a = fb.movi(10);
        let z = fb.movi(0);
        let d = fb.div(a, z);
        let r = fb.rem(a, z);
        let s = fb.add(d, r);
        fb.ret(Some(s));
        let mut p = Program::new();
        p.add_function(fb.finish());
        assert_eq!(run_main(&p).ret, 0);
    }

    #[test]
    fn loop_sums_range() {
        // sum 0..10 = 45
        let mut fb = FunctionBuilder::new("main");
        let hdr = fb.new_block();
        let body = fb.new_block();
        let exit = fb.new_block();
        let acc = fb.new_vreg(RegClass::Int);
        let i = fb.new_vreg(RegClass::Int);
        let z = fb.movi(0);
        fb.push(crate::inst::Inst::new(Opcode::Mov).dst(acc).args(&[z]));
        fb.push(crate::inst::Inst::new(Opcode::Mov).dst(i).args(&[z]));
        fb.br(hdr);
        fb.switch_to(hdr);
        let p = fb.cmp_lti(i, 10);
        fb.branch(p, body, exit);
        fb.switch_to(body);
        let acc2 = fb.add(acc, i);
        fb.push(crate::inst::Inst::new(Opcode::Mov).dst(acc).args(&[acc2]));
        let i2 = fb.addi(i, 1);
        fb.push(crate::inst::Inst::new(Opcode::Mov).dst(i).args(&[i2]));
        fb.br(hdr);
        fb.switch_to(exit);
        fb.ret(Some(acc));
        let mut p = Program::new();
        p.add_function(fb.finish());
        assert_eq!(run_main(&p).ret, 45);
    }

    #[test]
    fn memory_roundtrip_and_widths() {
        let mut prog = Program::new();
        let mut fb = FunctionBuilder::new("main");
        let addr = fb.movi(crate::program::GLOBAL_BASE);
        let v = fb.movi(-2);
        fb.st4(addr, v, 0);
        let back4 = fb.ld4(addr, 0);
        fb.st1(addr, v, 8);
        let back1 = fb.ld1(addr, 8); // zero-extended: 254
        let s = fb.add(back4, back1);
        fb.ret(Some(s));
        prog.add_global(GlobalData {
            name: "g".into(),
            size: 16,
            init: GlobalInit::Zero,
        });
        prog.add_function(fb.finish());
        assert_eq!(run_main(&prog).ret, -2 + 254);
    }

    #[test]
    fn out_of_bounds_detected() {
        let mut fb = FunctionBuilder::new("main");
        let addr = fb.movi(-8);
        let v = fb.ld8(addr, 0);
        fb.ret(Some(v));
        let mut p = Program::new();
        p.add_function(fb.finish());
        assert!(matches!(
            run(&p, &RunConfig::default()),
            Err(InterpError::OutOfBounds { addr: -8 })
        ));
    }

    #[test]
    fn memory_helpers_report_only_out_of_bounds() {
        let mut mem = [0u8; 8];
        assert_eq!(write_mem(&mut mem, 0, Width::B4, -2), Ok(()));
        assert_eq!(read_mem(&mem, 0, Width::B4), Ok(-2));
        assert_eq!(read_mem(&mem, 5, Width::B4), Err(OutOfBounds { addr: 5 }));
        assert_eq!(
            write_mem(&mut mem, -1, Width::B1, 0),
            Err(OutOfBounds { addr: -1 })
        );
        let e = InterpError::from(OutOfBounds { addr: 9 });
        assert_eq!(e.to_string(), OutOfBounds { addr: 9 }.to_string());
    }

    #[test]
    fn step_limit_detected() {
        let mut fb = FunctionBuilder::new("main");
        fb.br(BlockId(0));
        let mut p = Program::new();
        p.add_function(fb.finish());
        let cfg = RunConfig {
            max_steps: 100,
            ..Default::default()
        };
        assert!(matches!(run(&p, &cfg), Err(InterpError::StepLimit(100))));
    }

    #[test]
    fn calls_pass_args_and_return() {
        let mut callee = FunctionBuilder::new("sq");
        let x = callee.param(RegClass::Int);
        let y = callee.mul(x, x);
        callee.ret(Some(y));
        let mut main = FunctionBuilder::new("main");
        let a = main.movi(9);
        let r = main.call(0, &[a]);
        main.ret(Some(r));
        let mut p = Program::new();
        p.add_function(callee.finish());
        p.add_function(main.finish());
        assert_eq!(run_main(&p).ret, 81);
    }

    #[test]
    fn predicated_instruction_nullified() {
        let mut fb = FunctionBuilder::new("main");
        let one = fb.movi(1);
        let two = fb.movi(2);
        let pf = fb.cmp_lt(two, one); // false
        let pt = fb.cmp_lt(one, two); // true
        let out = fb.movi(0);
        fb.push(
            crate::inst::Inst::new(Opcode::MovI)
                .dst(out)
                .imm(10)
                .guarded(pf),
        );
        fb.push(
            crate::inst::Inst::new(Opcode::MovI)
                .dst(out)
                .imm(20)
                .guarded(pt),
        );
        fb.ret(Some(out));
        let mut p = Program::new();
        p.add_function(fb.finish());
        assert_eq!(run_main(&p).ret, 20);
    }

    #[test]
    fn unsafe_call_is_deterministic_and_side_effecting() {
        let build = || {
            let mut fb = FunctionBuilder::new("main");
            let a = fb.movi(5);
            let r1 = fb.unsafe_call(3, a);
            let r2 = fb.unsafe_call(3, a); // second call sees updated scratch
            let d = fb.sub(r1, r2);
            fb.ret(Some(d));
            let mut p = Program::new();
            p.add_function(fb.finish());
            p
        };
        let o1 = run_main(&build());
        let o2 = run_main(&build());
        assert_eq!(o1.ret, o2.ret);
        assert_ne!(
            o1.ret, 0,
            "two calls with same arg must differ via scratch state"
        );
    }

    #[test]
    fn profile_counts_blocks_edges_branches() {
        // if (i & 1) odd++ ; loop 10 times
        let mut fb = FunctionBuilder::new("main");
        let hdr = fb.new_block();
        let odd = fb.new_block();
        let join = fb.new_block();
        let exit = fb.new_block();
        let i = fb.new_vreg(RegClass::Int);
        let z = fb.movi(0);
        fb.push(crate::inst::Inst::new(Opcode::Mov).dst(i).args(&[z]));
        fb.br(hdr);
        fb.switch_to(hdr);
        let p = fb.cmp_lti(i, 10);
        fb.branch(p, join, exit);
        fb.switch_to(join);
        let bit = fb.new_vreg(RegClass::Int);
        fb.push(
            crate::inst::Inst::new(Opcode::AndI)
                .dst(bit)
                .args(&[i])
                .imm(1),
        );
        let isodd = fb.new_vreg(RegClass::Pred);
        fb.push(
            crate::inst::Inst::new(Opcode::CmpEqI)
                .dst(isodd)
                .args(&[bit])
                .imm(1),
        );
        let back = fb.new_block();
        fb.branch(isodd, odd, back);
        fb.switch_to(odd);
        fb.br(back);
        fb.switch_to(back);
        let i2 = fb.addi(i, 1);
        fb.push(crate::inst::Inst::new(Opcode::Mov).dst(i).args(&[i2]));
        fb.br(hdr);
        fb.switch_to(exit);
        fb.ret(None);
        let mut prog = Program::new();
        let fid = prog.add_function(fb.finish());
        let cfg = RunConfig {
            profile: true,
            ..Default::default()
        };
        let out = run(&prog, &cfg).unwrap();
        let prof = out.profile.unwrap();
        let fp = prof.func(fid);
        assert_eq!(fp.block_count(hdr), 11); // 10 iterations + exit test
        assert_eq!(fp.block_count(odd), 5);
        assert_eq!(fp.edge_count(hdr, exit), 1);
        // The alternating odd/even branch defeats a 2-bit predictor.
        let (_, stats) = fp
            .branches
            .iter()
            .find(|((b, _), _)| *b == join)
            .expect("branch stats recorded");
        assert_eq!(stats.executed, 10);
        assert_eq!(stats.taken, 5);
        assert!(stats.predictability() < 0.7, "{stats:?}");
    }

    fn profile_of(prog: &Program) -> Profile {
        let cfg = RunConfig {
            profile: true,
            ..Default::default()
        };
        run(prog, &cfg).unwrap().profile.unwrap()
    }

    #[test]
    fn callee_branch_shares_one_predictor_counter_across_call_sites() {
        // f(x) = if x < 100 { 1 } else { 0 }, called twice with x = 5.
        let mut f = FunctionBuilder::new("f");
        let x = f.param(RegClass::Int);
        let yes = f.new_block();
        let no = f.new_block();
        let p = f.cmp_lti(x, 100);
        f.branch(p, yes, no);
        f.switch_to(yes);
        let one = f.movi(1);
        f.ret(Some(one));
        f.switch_to(no);
        let zero = f.movi(0);
        f.ret(Some(zero));
        let mut main = FunctionBuilder::new("main");
        let a = main.movi(5);
        let r1 = main.call(0, &[a]);
        let r2 = main.call(0, &[a]);
        let s = main.add(r1, r2);
        main.ret(Some(s));
        let mut prog = Program::new();
        let fid = prog.add_function(f.finish());
        prog.add_function(main.finish());
        let prof = profile_of(&prog);
        let fp = prof.func(fid);
        assert_eq!(fp.branches.len(), 1, "{:?}", fp.branches);
        let stats = fp.branches.values().next().unwrap();
        // The counter starts weakly not-taken: the first call mispredicts
        // and moves it to weakly taken, so the second call predicts right.
        // A counter per call, or per call site, would mispredict twice.
        assert_eq!(
            *stats,
            BranchStats {
                executed: 2,
                taken: 2,
                correct: 1
            }
        );
    }

    #[test]
    fn two_transfers_to_one_target_sum_into_one_edge() {
        // for i in 0..4 { if i odd { cbr -> body } else { br -> body } }
        let mut fb = FunctionBuilder::new("main");
        let hdr = fb.new_block();
        let body = fb.new_block();
        let exit = fb.new_block();
        let i = fb.new_vreg(RegClass::Int);
        let z = fb.movi(0);
        fb.push(crate::inst::Inst::new(Opcode::Mov).dst(i).args(&[z]));
        fb.br(hdr);
        fb.switch_to(hdr);
        let bit = fb.new_vreg(RegClass::Int);
        fb.push(
            crate::inst::Inst::new(Opcode::AndI)
                .dst(bit)
                .args(&[i])
                .imm(1),
        );
        let odd = fb.cmp_eqi(bit, 1);
        fb.branch(odd, body, body);
        fb.switch_to(body);
        let i2 = fb.addi(i, 1);
        fb.push(crate::inst::Inst::new(Opcode::Mov).dst(i).args(&[i2]));
        let more = fb.cmp_lti(i, 4);
        fb.branch(more, hdr, exit);
        fb.switch_to(exit);
        fb.ret(None);
        let mut prog = Program::new();
        let fid = prog.add_function(fb.finish());
        let prof = profile_of(&prog);
        let fp = prof.func(fid);
        assert_eq!(fp.edge_count(hdr, body), 4);
        let from_hdr: Vec<_> = fp.edge_counts.keys().filter(|(f, _)| *f == hdr).collect();
        assert_eq!(from_hdr, vec![&(hdr, body)]);
        assert_eq!(fp.block_count(body), 4);
        assert_eq!(fp.edge_count(body, hdr), 3);
        assert_eq!(fp.edge_count(body, exit), 1);
    }

    #[test]
    fn nullified_conditional_branch_records_nothing() {
        let mut fb = FunctionBuilder::new("main");
        let skipped = fb.new_block();
        let next = fb.new_block();
        let one = fb.movi(1);
        let two = fb.movi(2);
        let guard = fb.cmp_lt(two, one); // false
        let cond = fb.cmp_lt(one, two); // true
        fb.push(
            crate::inst::Inst::new(Opcode::CBr)
                .args(&[cond])
                .target(skipped)
                .guarded(guard),
        );
        fb.br(next);
        fb.switch_to(skipped);
        fb.ret(Some(one));
        fb.switch_to(next);
        fb.ret(Some(two));
        let mut prog = Program::new();
        let fid = prog.add_function(fb.finish());
        let prof = profile_of(&prog);
        let fp = prof.func(fid);
        assert!(fp.branches.is_empty(), "{:?}", fp.branches);
        assert_eq!(fp.edge_count(BlockId(0), skipped), 0);
        assert_eq!(fp.block_count(skipped), 0);
        assert_eq!(fp.edge_count(BlockId(0), next), 1);
    }

    #[test]
    fn unexecuted_branch_site_has_no_entry() {
        // The block's first branch is always taken, so its second branch
        // site is never reached although the block runs.
        let mut fb = FunctionBuilder::new("main");
        let a = fb.new_block();
        let b = fb.new_block();
        let one = fb.movi(1);
        let two = fb.movi(2);
        let t = fb.cmp_lt(one, two);
        fb.cbr(t, a);
        fb.cbr(t, b);
        fb.br(b);
        fb.switch_to(a);
        fb.ret(Some(one));
        fb.switch_to(b);
        fb.ret(Some(two));
        let mut prog = Program::new();
        let fid = prog.add_function(fb.finish());
        let prof = profile_of(&prog);
        let fp = prof.func(fid);
        assert_eq!(fp.branches.len(), 1, "{:?}", fp.branches);
        assert_eq!(fp.branch(BlockId(0), 3).executed, 1);
        assert!(!fp.branches.contains_key(&(BlockId(0), 4)));
        assert_eq!(fp.block_count(b), 0);
    }

    #[test]
    fn running_past_a_block_without_a_terminator_is_an_error() {
        let mut fb = FunctionBuilder::new("main");
        let one = fb.movi(1);
        fb.add(one, one);
        let mut p = Program::new();
        p.add_function(fb.finish());
        for (profile, max_steps) in [(false, 2), (true, 2), (false, 100)] {
            let cfg = RunConfig {
                profile,
                max_steps,
                ..Default::default()
            };
            assert_eq!(
                run(&p, &cfg).map(|o| o.ret),
                Err(InterpError::FellOffBlock(BlockId(0))),
                "profile {profile}, max_steps {max_steps}"
            );
        }
        assert_eq!(
            InterpError::FellOffBlock(BlockId(0)).to_string(),
            "fell off end of block b0"
        );
    }

    #[test]
    fn an_untaken_branch_that_ends_its_block_is_an_error() {
        // b0: cbr (2 < 1) -> b1, and nothing after it; b1: ret 1.
        let build = |cond_true: bool| {
            let mut fb = FunctionBuilder::new("main");
            let target = fb.new_block();
            let one = fb.movi(1);
            let two = fb.movi(2);
            let cond = if cond_true {
                fb.cmp_lt(one, two)
            } else {
                fb.cmp_lt(two, one)
            };
            fb.cbr(cond, target);
            fb.switch_to(target);
            fb.ret(Some(one));
            let mut p = Program::new();
            p.add_function(fb.finish());
            p
        };
        let cfg = RunConfig {
            profile: true,
            ..Default::default()
        };
        assert_eq!(run(&build(true), &cfg).map(|o| o.ret), Ok(1));
        assert_eq!(
            run(&build(false), &cfg).map(|o| o.ret),
            Err(InterpError::FellOffBlock(BlockId(0)))
        );
    }
}
