//! Reference interpreter and profiler.
//!
//! Executes a [`Program`] directly on the IR, defining the semantic ground
//! truth for the compiler and the cycle simulator. Optionally collects the
//! execution [`Profile`] (block/edge counts, branch predictability) that the
//! optimization passes consume.
//!
//! The value-producing opcodes are evaluated by [`Opcode::eval`], the same
//! definition both simulator tiers and constant folding use; this module
//! runs memory, control, calls and `UnsafeCall` itself. The memory helpers
//! and the `UnsafeCall` semantics below are shared with the simulator.

use crate::inst::{Opcode, Width};
use crate::profile::{BranchStats, FuncProfile, Profile};
use crate::program::{Function, Program, UNSAFE_SCRATCH_BASE};
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
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::StepLimit(n) => write!(f, "step limit of {n} exceeded"),
            InterpError::OutOfBounds { addr } => write!(f, "memory access out of bounds at {addr}"),
            InterpError::NoEntry(n) => write!(f, "no entry function named {n}"),
            InterpError::StackOverflow => write!(f, "call stack overflow"),
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

/// One activation. Each virtual register has one class, so the registers
/// share one file of raw values, as [`Opcode::eval`] reads and writes them:
/// an integer as itself, a float as its bit pattern, a predicate as 0/1.
struct Frame {
    func: FuncId,
    block: BlockId,
    ip: usize,
    regs: Vec<i64>,
    ret_dst: Option<VReg>,
}

fn new_frame(prog: &Program, func: FuncId, ret_dst: Option<VReg>) -> Frame {
    let f = prog.func(func);
    Frame {
        func,
        block: f.entry,
        ip: 0,
        regs: vec![0; f.num_vregs()],
        ret_dst,
    }
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

/// The profile counters of one function while it runs: flat tables, with
/// instruction `ip` of block `b` at `base[b] + ip`. They live for the whole
/// run, so a branch's predictor state is shared by every call of its
/// function.
struct FuncCounts {
    block_counts: Vec<u64>,
    base: Vec<usize>,
    sites: Vec<SiteCounts>,
}

impl FuncCounts {
    fn new(f: &Function) -> Self {
        let mut base = Vec::with_capacity(f.blocks.len());
        let mut n = 0;
        for b in &f.blocks {
            base.push(n);
            n += b.insts.len();
        }
        FuncCounts {
            block_counts: vec![0; f.blocks.len()],
            base,
            sites: vec![
                SiteCounts {
                    predictor: 1, // weakly not-taken
                    branch: BranchStats::default(),
                    transfers: 0,
                };
                n
            ],
        }
    }

    fn site(&mut self, block: BlockId, ip: usize) -> &mut SiteCounts {
        &mut self.sites[self.base[block.index()] + ip]
    }

    /// Count one execution of the conditional branch at `ip` of `block`.
    fn branch(&mut self, block: BlockId, ip: usize, taken: bool) {
        let site = self.site(block, ip);
        let predicted_taken = site.predictor >= 2;
        site.predictor = match (taken, site.predictor) {
            (true, c) => (c + 1).min(3),
            (false, c) => c.saturating_sub(1),
        };
        let st = &mut site.branch;
        st.executed += 1;
        if taken {
            st.taken += 1;
        }
        if predicted_taken == taken {
            st.correct += 1;
        }
    }

    /// Count one transfer from `ip` of `block` into `target`.
    fn transfer(&mut self, block: BlockId, ip: usize, target: BlockId) {
        self.site(block, ip).transfers += 1;
        self.block_counts[target.index()] += 1;
    }

    /// Fold the tables into a [`FuncProfile`]: one branch entry per site
    /// that executed, and one edge per `(block, target)` summed over the
    /// block's transfers to that target.
    fn into_profile(self, f: &Function) -> FuncProfile {
        let mut edge_counts = HashMap::new();
        let mut branches = HashMap::new();
        for (bi, block) in f.blocks.iter().enumerate() {
            let b = BlockId(bi as u32);
            let sites = &self.sites[self.base[bi]..];
            for (ip, (inst, site)) in block.insts.iter().zip(sites).enumerate() {
                if site.branch.executed > 0 {
                    branches.insert((b, ip), site.branch);
                }
                if site.transfers > 0 {
                    let t = inst.target.expect("only a branch to its target transfers");
                    *edge_counts.entry((b, t)).or_insert(0) += site.transfers;
                }
            }
        }
        FuncProfile {
            block_counts: self.block_counts,
            edge_counts,
            branches,
        }
    }
}

/// Execute `prog` under `cfg`.
///
/// # Errors
/// Returns an [`InterpError`] on step-limit exhaustion, out-of-bounds memory
/// access, a missing entry function, or call-stack overflow.
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

    let mut counts: Option<Vec<FuncCounts>> = cfg
        .profile
        .then(|| prog.funcs.iter().map(FuncCounts::new).collect());

    let mut stack: Vec<Frame> = Vec::new();
    let mut frame = new_frame(prog, entry, None);
    for (i, p) in prog.func(entry).params.iter().enumerate() {
        let v = cfg.args.get(i).copied().unwrap_or(0);
        frame.regs[p.index()] = match prog.func(entry).class_of(*p) {
            RegClass::Int => v,
            RegClass::Float => (v as f64).to_bits() as i64,
            RegClass::Pred => i64::from(v != 0),
        };
    }
    if let Some(tables) = &mut counts {
        tables[entry.index()].block_counts[frame.block.index()] += 1;
    }

    let mut steps: u64 = 0;
    let ret_val: i64;

    'outer: loop {
        let func = prog.func(frame.func);
        let block = func.block(frame.block);
        debug_assert!(frame.ip < block.insts.len(), "fell off a block");
        let inst = &block.insts[frame.ip];
        steps += 1;
        if steps > cfg.max_steps {
            return Err(InterpError::StepLimit(cfg.max_steps));
        }

        // Guard predicate: nullified instructions advance the PC only.
        if let Some(p) = inst.pred {
            if frame.regs[p.index()] == 0 {
                frame.ip += 1;
                continue;
            }
        }

        let args: &[VReg] = &inst.args;
        macro_rules! arg {
            ($i:expr) => {
                frame.regs[args[$i].index()]
            };
        }
        macro_rules! set {
            ($v:expr) => {
                if let Some(d) = inst.dst {
                    frame.regs[d.index()] = $v;
                }
            };
        }

        let mut next_block: Option<BlockId> = None;
        match inst.op {
            Opcode::Ld(w) => {
                let v = read_mem(&mem, arg!(0).wrapping_add(inst.imm), w)?;
                set!(v);
            }
            Opcode::St(w) => {
                write_mem(&mut mem, arg!(0).wrapping_add(inst.imm), w, arg!(1))?;
            }
            Opcode::FLd => {
                let bits = read_mem(&mem, arg!(0).wrapping_add(inst.imm), Width::B8)?;
                set!(bits);
            }
            Opcode::FSt => {
                write_mem(&mut mem, arg!(0).wrapping_add(inst.imm), Width::B8, arg!(1))?;
            }
            Opcode::Prefetch => {} // architecturally a no-op

            Opcode::Br => next_block = inst.target,
            Opcode::CBr => {
                let taken = arg!(0) != 0;
                if let Some(tables) = &mut counts {
                    tables[frame.func.index()].branch(frame.block, frame.ip, taken);
                }
                if taken {
                    next_block = inst.target;
                }
            }
            Opcode::Ret => {
                let v = if inst.args.is_empty() { 0 } else { arg!(0) };
                match stack.pop() {
                    None => {
                        ret_val = v;
                        break 'outer;
                    }
                    Some(mut parent) => {
                        if let Some(d) = frame.ret_dst {
                            parent.regs[d.index()] = v;
                        }
                        parent.ip += 1;
                        frame = parent;
                        continue 'outer;
                    }
                }
            }
            Opcode::Call => {
                if stack.len() >= MAX_STACK {
                    return Err(InterpError::StackOverflow);
                }
                let callee = FuncId(inst.imm as u32);
                let mut callee_frame = new_frame(prog, callee, inst.dst);
                for (ai, p) in prog.func(callee).params.iter().enumerate() {
                    callee_frame.regs[p.index()] = arg!(ai);
                }
                if let Some(tables) = &mut counts {
                    tables[callee.index()].block_counts[callee_frame.block.index()] += 1;
                }
                stack.push(frame);
                frame = callee_frame;
                continue 'outer;
            }
            Opcode::UnsafeCall => {
                let slot = unsafe_call_slot(inst.imm);
                let old = read_mem(&mem, slot, Width::B8)?;
                let (new, ret) = unsafe_call_semantics(old, arg!(0), inst.imm);
                write_mem(&mut mem, slot, Width::B8, new)?;
                set!(ret);
            }
            op => {
                // Inlined into every arm of `eval`: a call per operand read
                // would cost the interpreter a quarter of its speed.
                let v = op.eval(
                    #[inline(always)]
                    |i| arg!(i),
                    inst.eval_imm(),
                );
                set!(v);
            }
        }

        match next_block {
            Some(t) => {
                if let Some(tables) = &mut counts {
                    tables[frame.func.index()].transfer(frame.block, frame.ip, t);
                }
                frame.block = t;
                frame.ip = 0;
            }
            None => frame.ip += 1,
        }
    }

    let profile = counts.map(|tables| Profile {
        funcs: tables
            .into_iter()
            .zip(&prog.funcs)
            .map(|(c, f)| c.into_profile(f))
            .collect(),
        dyn_insts: steps,
    });
    Ok(Outcome {
        ret: ret_val,
        steps,
        profile,
        memory: mem,
    })
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
}
