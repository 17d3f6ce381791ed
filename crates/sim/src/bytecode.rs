//! The fast execution tier: pre-decoded linear bytecode.
//!
//! [`BytecodeProgram::compile`] lowers a [`MachineProgram`] into a flat,
//! cache-friendly instruction stream in which everything the reference
//! interpreter recomputes per dynamic instruction is resolved once per
//! static instruction:
//!
//! * the three architectural register files are folded into one unified
//!   `i64` array (floats live as bit patterns, predicates as 0/1), so each
//!   operand is a single pre-resolved index — no per-class array selection,
//!   and destination value and ready-time writes share one index,
//! * functional-unit latencies are baked in (`latency_of` is never called
//!   at run time),
//! * the per-bundle issue-stall scan is pre-flattened into a sorted,
//!   deduplicated list of unified-file indices, pruned to the registers
//!   that can actually stall (multi-cycle results and loads), and
//! * branch-predictor sites are renumbered densely so the 2-bit counters
//!   live in a `Vec<u8>` instead of a `HashMap`.
//!
//! The observable semantics are the **equivalence contract** of DESIGN.md
//! §17: for any machine-verified program, compiling and running it here
//! returns a [`SimResult`] bit-identical to the reference tier's
//! ([`SimTier::Reference`](crate::exec::SimTier::Reference)) —
//! same cycles, dynamic counts, branch/cache statistics, return value, and
//! final memory image — and fails with the same [`SimError`] on the same
//! inputs. The cross-tier differential proptest (`tests/tier_differential`)
//! enforces this over random programs, plans, and machines.
//!
//! Programs that would make the reference tier panic (register numbers
//! outside the machine's files, missing operands) panic here too, at the
//! same point of execution: compilation maps such operands to the `NONE`
//! / `OOB` sentinels, which index out of range at run time rather than
//! being rejected eagerly, so unreached malformed code stays unreached.

use crate::cache::Hierarchy;
use crate::code::MachineProgram;
use crate::exec::{SimError, SimResult};
use crate::machine::{latency_of, MachineConfig};
use metaopt_ir::interp::{f2i_sat, read_mem, unsafe_call_semantics, unsafe_call_slot, write_mem};
use metaopt_ir::{Opcode, RegClass, Width};

/// Sentinel for "operand/destination absent" in packed [`Op`] fields.
/// Reading an absent operand indexes out of range and panics, exactly where
/// the reference tier would panic indexing its argument vector; an absent
/// *destination* skips the write-back, as the reference does.
const NONE: u32 = u32::MAX;

/// Sentinel for "register present but outside the machine's file". Distinct
/// from [`NONE`] so that e.g. `Ret` with an out-of-range source still
/// panics (like the reference) instead of being treated as argument-less.
const OOB: u32 = u32::MAX - 1;

/// Fieldless dispatch kind: one variant per executable behavior of
/// [`Opcode`], with load/store widths moved into [`Op::width`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum OpK {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    AddI,
    MulI,
    AndI,
    ShlI,
    ShrI,
    MovI,
    Mov,
    Neg,
    Abs,
    Min,
    Max,
    Sel,
    CmpEq,
    CmpNe,
    CmpLt,
    CmpLe,
    CmpEqI,
    CmpLtI,
    CmpGtI,
    PAnd,
    POr,
    PNot,
    PMovI,
    PMov,
    P2I,
    I2P,
    FAdd,
    FSub,
    FMul,
    FDiv,
    FSqrt,
    FAbs,
    FNeg,
    FMin,
    FMax,
    FMovI,
    FMov,
    FSel,
    FCmpEq,
    FCmpLt,
    FCmpLe,
    I2F,
    F2I,
    FBits,
    BitsF,
    Ld,
    FLd,
    St,
    FSt,
    Prefetch,
    Br,
    CBr,
    Ret,
    Call,
    UnsafeCall,
}

/// One pre-decoded instruction: 32 bytes, `Copy`, no heap indirection.
///
/// All register references are indices into the unified file
/// (`[ints | floats | preds]`). Branches reuse the operand slots: `Br`
/// keeps its target in `a`; `CBr` keeps its guard-input in `a`, target in
/// `b`, and dense predictor site in `c`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Op {
    kind: OpK,
    /// Load/store access width ([`Width::B8`] for non-memory ops).
    width: Width,
    /// Result-ready latency (`latency_of`, baked in).
    lat: u8,
    /// Unified operand indices ([`NONE`] if absent, [`OOB`] if unmappable).
    a: u32,
    b: u32,
    c: u32,
    /// Unified destination index, [`NONE`] if the instruction has none.
    dst: u32,
    /// Guard predicate index, [`NONE`] if unguarded.
    pred: u32,
    /// Immediate; for `FMovI` this is the `f64` bit pattern.
    imm: i64,
}

/// Issue-group metadata: ranges into the flat `ops` and `deps` arrays.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct BundleMeta {
    ops: (u32, u32),
    deps: (u32, u32),
}

/// A [`MachineProgram`] compiled to linear bytecode for a specific
/// [`MachineConfig`] (the register-file sizes are baked into the unified
/// file indices).
///
/// Equality and hashing are exact over everything [`BytecodeProgram::run`]
/// reads, so two programs that compare equal simulate identically on the
/// same machine and memory image. `FMovI` immediates compare as bit
/// patterns: unlike [`MachineProgram`]'s derived `==`, which compares
/// `fimm` as `f64`, `0.0` and `-0.0` are different programs here.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct BytecodeProgram {
    ops: Vec<Op>,
    bundles: Vec<BundleMeta>,
    /// Sorted, deduplicated unified-file indices per bundle, pruned to
    /// registers that can stall (see `compile`).
    deps: Vec<u32>,
    /// Per-block `[start, end)` ranges into `bundles`.
    blocks: Vec<(u32, u32)>,
    entry: usize,
    /// Unified file size: `gpr + fpr + pred`.
    nregs: usize,
    /// Static `CBr` site count (dense predictor table size).
    nsites: usize,
}

/// Register class of the value an opcode writes back, mirroring the `Out`
/// arms of the reference executor (distinct from `Opcode::dst_class`, which
/// claims e.g. `Call` writes an integer).
fn out_class(op: Opcode) -> Option<RegClass> {
    use Opcode::*;
    Some(match op {
        Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr | AddI | MulI | AndI | ShlI
        | ShrI | MovI | Mov | Neg | Abs | Min | Max | Sel | P2I | F2I | FBits | Ld(_)
        | UnsafeCall => RegClass::Int,
        FAdd | FSub | FMul | FDiv | FSqrt | FAbs | FNeg | FMin | FMax | FMovI | FMov | FSel
        | I2F | BitsF | FLd => RegClass::Float,
        CmpEq | CmpNe | CmpLt | CmpLe | CmpEqI | CmpLtI | CmpGtI | PAnd | POr | PNot | PMovI
        | PMov | I2P | FCmpEq | FCmpLt | FCmpLe => RegClass::Pred,
        St(_) | FSt | Prefetch | Br | CBr | Ret | Call => return None,
    })
}

/// The register class each operand slot is *read* as, mirroring exactly
/// which file the reference executor's arms index (not `arg_classes`, which
/// drives only the stall scan).
fn read_classes(op: Opcode) -> [Option<RegClass>; 3] {
    use Opcode::*;
    use RegClass::{Float as F, Int as I, Pred as P};
    match op {
        Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr | Min | Max | CmpEq | CmpNe
        | CmpLt | CmpLe | St(_) => [Some(I), Some(I), None],
        AddI | MulI | AndI | ShlI | ShrI | Mov | Neg | Abs | CmpEqI | CmpLtI | CmpGtI | I2P
        | I2F | BitsF | Ld(_) | FLd | Prefetch | Ret | UnsafeCall => [Some(I), None, None],
        Sel => [Some(P), Some(I), Some(I)],
        PAnd | POr => [Some(P), Some(P), None],
        PNot | PMov | P2I | CBr => [Some(P), None, None],
        FAdd | FSub | FMul | FDiv | FMin | FMax | FCmpEq | FCmpLt | FCmpLe => {
            [Some(F), Some(F), None]
        }
        FSqrt | FAbs | FNeg | FMov | F2I | FBits => [Some(F), None, None],
        FSel => [Some(P), Some(F), Some(F)],
        FSt => [Some(I), Some(F), None],
        MovI | PMovI | FMovI | Br | Call => [None, None, None],
    }
}

fn kind_of(op: Opcode) -> OpK {
    use Opcode as O;
    match op {
        O::Add => OpK::Add,
        O::Sub => OpK::Sub,
        O::Mul => OpK::Mul,
        O::Div => OpK::Div,
        O::Rem => OpK::Rem,
        O::And => OpK::And,
        O::Or => OpK::Or,
        O::Xor => OpK::Xor,
        O::Shl => OpK::Shl,
        O::Shr => OpK::Shr,
        O::AddI => OpK::AddI,
        O::MulI => OpK::MulI,
        O::AndI => OpK::AndI,
        O::ShlI => OpK::ShlI,
        O::ShrI => OpK::ShrI,
        O::MovI => OpK::MovI,
        O::Mov => OpK::Mov,
        O::Neg => OpK::Neg,
        O::Abs => OpK::Abs,
        O::Min => OpK::Min,
        O::Max => OpK::Max,
        O::Sel => OpK::Sel,
        O::CmpEq => OpK::CmpEq,
        O::CmpNe => OpK::CmpNe,
        O::CmpLt => OpK::CmpLt,
        O::CmpLe => OpK::CmpLe,
        O::CmpEqI => OpK::CmpEqI,
        O::CmpLtI => OpK::CmpLtI,
        O::CmpGtI => OpK::CmpGtI,
        O::PAnd => OpK::PAnd,
        O::POr => OpK::POr,
        O::PNot => OpK::PNot,
        O::PMovI => OpK::PMovI,
        O::PMov => OpK::PMov,
        O::P2I => OpK::P2I,
        O::I2P => OpK::I2P,
        O::FAdd => OpK::FAdd,
        O::FSub => OpK::FSub,
        O::FMul => OpK::FMul,
        O::FDiv => OpK::FDiv,
        O::FSqrt => OpK::FSqrt,
        O::FAbs => OpK::FAbs,
        O::FNeg => OpK::FNeg,
        O::FMin => OpK::FMin,
        O::FMax => OpK::FMax,
        O::FMovI => OpK::FMovI,
        O::FMov => OpK::FMov,
        O::FSel => OpK::FSel,
        O::FCmpEq => OpK::FCmpEq,
        O::FCmpLt => OpK::FCmpLt,
        O::FCmpLe => OpK::FCmpLe,
        O::I2F => OpK::I2F,
        O::F2I => OpK::F2I,
        O::FBits => OpK::FBits,
        O::BitsF => OpK::BitsF,
        O::Ld(_) => OpK::Ld,
        O::FLd => OpK::FLd,
        O::St(_) => OpK::St,
        O::FSt => OpK::FSt,
        O::Prefetch => OpK::Prefetch,
        O::Br => OpK::Br,
        O::CBr => OpK::CBr,
        O::Ret => OpK::Ret,
        O::Call => OpK::Call,
        O::UnsafeCall => OpK::UnsafeCall,
    }
}

/// Write a raw result into the unified file and stamp its ready time
/// (no-op when the instruction has no destination, mirroring the reference
/// write-back).
#[inline(always)]
fn st(file: &mut [i64], ready: &mut [u64], op: &Op, v: i64, at: u64) {
    if op.dst != NONE {
        file[op.dst as usize] = v;
        ready[op.dst as usize] = at;
    }
}

/// Write a float result (stored as its bit pattern).
#[inline(always)]
fn st_f(file: &mut [i64], ready: &mut [u64], op: &Op, v: f64, at: u64) {
    st(file, ready, op, v.to_bits() as i64, at);
}

/// Write a predicate result (stored as 0/1).
#[inline(always)]
fn st_p(file: &mut [i64], ready: &mut [u64], op: &Op, v: bool, at: u64) {
    st(file, ready, op, v as i64, at);
}

/// Read a unified-file slot as a float.
#[inline(always)]
fn ld_f(file: &[i64], ix: usize) -> f64 {
    f64::from_bits(file[ix] as u64)
}

impl BytecodeProgram {
    /// Pre-decode `mp` for execution on `cfg`. The same `cfg` must be
    /// passed to [`BytecodeProgram::run`]: register-file sizes are baked
    /// into the unified file layout.
    pub fn compile(mp: &MachineProgram, cfg: &MachineConfig) -> BytecodeProgram {
        let (gpr, fpr, pred) = (cfg.gpr, cfg.fpr, cfg.pred);
        // Unified-file index for a class-local register. Out-of-range
        // registers map to `OOB`, which indexes out of the run-time arrays
        // and reproduces the reference tier's panic at the same point of
        // execution.
        let uix = |class: RegClass, ix: usize| -> u32 {
            let (off, size) = match class {
                RegClass::Int => (0usize, gpr),
                RegClass::Float => (gpr, fpr),
                RegClass::Pred => (gpr + fpr, pred),
            };
            if ix >= size {
                OOB
            } else {
                (off + ix) as u32
            }
        };

        // Unified-file slots that can ever stall a later bundle. A bundle
        // issued at `issue_k` writes its results ready at `issue_k + lat`,
        // and the next bundle starts no earlier than `issue_k + 1` — so a
        // single-cycle result is always ready by the time anything can
        // read it. Only multi-cycle results (`lat > 1`) and loads (whose
        // ready time comes from the cache model) can lift `issue` above
        // `cycle`; deps on every other slot are dropped from the stall
        // scan. Sentinel entries are always kept — they are the
        // out-of-bounds panics the reference tier would hit.
        let mut may_stall = vec![false; gpr + fpr + pred];
        for bb in &mp.blocks {
            for bundle in bb {
                for inst in &bundle.insts {
                    if latency_of(inst.op) <= 1 && !matches!(inst.op, Opcode::Ld(_) | Opcode::FLd) {
                        continue;
                    }
                    if let (Some(c), Some(d)) = (out_class(inst.op), inst.dst) {
                        let r = uix(c, d.index());
                        if r < OOB {
                            may_stall[r as usize] = true;
                        }
                    }
                }
            }
        }

        let mut ops = Vec::with_capacity(mp.num_insts());
        let mut bundles = Vec::with_capacity(mp.num_bundles());
        let mut deps: Vec<u32> = Vec::new();
        let mut blocks = Vec::with_capacity(mp.blocks.len());
        let mut nsites: u32 = 0;

        for bb in &mp.blocks {
            let bstart = bundles.len() as u32;
            for bundle in bb {
                let ops_start = ops.len() as u32;
                let deps_start = deps.len() as u32;
                let mut bdeps: Vec<u32> = Vec::new();
                for inst in &bundle.insts {
                    // Issue-stall scan, mirrored from the reference tier:
                    // sources by class (all-int fallback), guards, and the
                    // overwritten destination.
                    if let Some(classes) = inst.op.arg_classes() {
                        for (a, c) in inst.args.iter().zip(classes) {
                            bdeps.push(uix(*c, a.index()));
                        }
                    } else {
                        for a in &inst.args {
                            bdeps.push(uix(RegClass::Int, a.index()));
                        }
                    }
                    if let Some(p) = inst.pred {
                        bdeps.push(uix(RegClass::Pred, p.index()));
                    }
                    if let (Some(c), Some(d)) = (inst.op.dst_class(), inst.dst) {
                        bdeps.push(uix(c, d.index()));
                    }

                    let rc = read_classes(inst.op);
                    let arg = |i: usize| match rc[i] {
                        Some(c) => inst.args.get(i).map_or(NONE, |v| uix(c, v.index())),
                        None => NONE,
                    };
                    let (mut a, b, mut c) = (arg(0), arg(1), arg(2));
                    let dst = match (out_class(inst.op), inst.dst) {
                        (Some(cl), Some(d)) => uix(cl, d.index()),
                        _ => NONE,
                    };
                    // Branches reuse the free operand slots (see [`Op`]).
                    let target = inst
                        .target
                        .map_or(NONE, |t| (t.index() as u32).min(OOB - 1));
                    match inst.op {
                        Opcode::Br => a = target,
                        Opcode::CBr => {
                            c = nsites;
                            nsites += 1;
                        }
                        _ => {}
                    }
                    let b = if inst.op == Opcode::CBr { target } else { b };
                    ops.push(Op {
                        kind: kind_of(inst.op),
                        width: match inst.op {
                            Opcode::Ld(w) | Opcode::St(w) => w,
                            _ => Width::B8,
                        },
                        lat: latency_of(inst.op) as u8,
                        a,
                        b,
                        c,
                        dst,
                        pred: inst.pred.map_or(NONE, |p| uix(RegClass::Pred, p.index())),
                        imm: if inst.op == Opcode::FMovI {
                            inst.fimm.to_bits() as i64
                        } else {
                            inst.imm
                        },
                    });
                }
                bdeps.sort_unstable();
                bdeps.dedup();
                bdeps.retain(|&d| d >= OOB || may_stall[d as usize]);
                deps.extend_from_slice(&bdeps);
                bundles.push(BundleMeta {
                    ops: (ops_start, ops.len() as u32),
                    deps: (deps_start, deps.len() as u32),
                });
            }
            blocks.push((bstart, bundles.len() as u32));
        }

        BytecodeProgram {
            ops,
            bundles,
            deps,
            blocks,
            entry: mp.entry,
            nregs: gpr + fpr + pred,
            nsites: nsites as usize,
        }
    }

    /// Execute the bytecode on machine `cfg` (the config passed to
    /// [`BytecodeProgram::compile`]) from the given memory image.
    ///
    /// # Errors
    /// Exactly the reference tier's failures: out-of-bounds memory
    /// accesses, malformed machine code (a block without a terminating
    /// branch), or an exceeded `cfg.max_insts` / `cfg.max_cycles` budget.
    pub fn run(&self, cfg: &MachineConfig, memory: Vec<u8>) -> Result<SimResult, SimError> {
        let mut mem = memory;
        // Unified register file: [ints | floats(bits) | preds(0/1)], with a
        // parallel ready-time array sharing the same indices.
        let mut file = vec![0i64; self.nregs];
        let mut ready = vec![0u64; self.nregs];
        let max_insts = cfg.max_insts;
        let max_cycles = cfg.max_cycles;
        let mispredict_penalty = cfg.mispredict_penalty;
        let prefetch_queue_cycles = cfg.prefetch_queue_cycles;
        let mut cache = Hierarchy::new(&cfg.cache);
        // Dense 2-bit predictor, weakly-not-taken like the reference.
        let mut counters = vec![1u8; self.nsites];
        let mut predictions: u64 = 0;
        let mut mispredicts: u64 = 0;

        let mut cycle: u64 = 0;
        let mut insts: u64 = 0;
        let mut nullified: u64 = 0;
        let mut bundles: u64 = 0;
        let mut pf_queue: u64 = 0;

        let mut cur_block = self.entry;
        let (mut bpc, mut bend) = self.blocks[cur_block];
        let ret_val: i64;

        'outer: loop {
            if bpc >= bend {
                return Err(SimError::FellOffBlock(cur_block));
            }
            let bm = self.bundles[bpc as usize];
            bundles += 1;

            let mut issue = cycle;
            for &d in &self.deps[bm.deps.0 as usize..bm.deps.1 as usize] {
                issue = issue.max(ready[d as usize]);
            }

            let mut next: Option<u32> = None;
            let mut penalty: u64 = 0;

            for op in &self.ops[bm.ops.0 as usize..bm.ops.1 as usize] {
                insts += 1;
                if insts > max_insts {
                    return Err(SimError::InstLimit(max_insts));
                }
                if op.pred != NONE && file[op.pred as usize] == 0 {
                    nullified += 1;
                    continue;
                }
                let a = op.a as usize;
                let b = op.b as usize;
                let c = op.c as usize;
                let at = issue + op.lat as u64;

                match op.kind {
                    OpK::Add => {
                        let v = file[a].wrapping_add(file[b]);
                        st(&mut file, &mut ready, op, v, at);
                    }
                    OpK::Sub => {
                        let v = file[a].wrapping_sub(file[b]);
                        st(&mut file, &mut ready, op, v, at);
                    }
                    OpK::Mul => {
                        let v = file[a].wrapping_mul(file[b]);
                        st(&mut file, &mut ready, op, v, at);
                    }
                    OpK::Div => {
                        let d = file[b];
                        let v = if d == 0 { 0 } else { file[a].wrapping_div(d) };
                        st(&mut file, &mut ready, op, v, at);
                    }
                    OpK::Rem => {
                        let d = file[b];
                        let v = if d == 0 { 0 } else { file[a].wrapping_rem(d) };
                        st(&mut file, &mut ready, op, v, at);
                    }
                    OpK::And => {
                        let v = file[a] & file[b];
                        st(&mut file, &mut ready, op, v, at);
                    }
                    OpK::Or => {
                        let v = file[a] | file[b];
                        st(&mut file, &mut ready, op, v, at);
                    }
                    OpK::Xor => {
                        let v = file[a] ^ file[b];
                        st(&mut file, &mut ready, op, v, at);
                    }
                    OpK::Shl => {
                        let v = file[a].wrapping_shl(file[b] as u32 & 63);
                        st(&mut file, &mut ready, op, v, at);
                    }
                    OpK::Shr => {
                        let v = file[a].wrapping_shr(file[b] as u32 & 63);
                        st(&mut file, &mut ready, op, v, at);
                    }
                    OpK::AddI => {
                        let v = file[a].wrapping_add(op.imm);
                        st(&mut file, &mut ready, op, v, at);
                    }
                    OpK::MulI => {
                        let v = file[a].wrapping_mul(op.imm);
                        st(&mut file, &mut ready, op, v, at);
                    }
                    OpK::AndI => {
                        let v = file[a] & op.imm;
                        st(&mut file, &mut ready, op, v, at);
                    }
                    OpK::ShlI => {
                        let v = file[a].wrapping_shl(op.imm as u32 & 63);
                        st(&mut file, &mut ready, op, v, at);
                    }
                    OpK::ShrI => {
                        let v = file[a].wrapping_shr(op.imm as u32 & 63);
                        st(&mut file, &mut ready, op, v, at);
                    }
                    OpK::MovI => st(&mut file, &mut ready, op, op.imm, at),
                    OpK::Mov => {
                        let v = file[a];
                        st(&mut file, &mut ready, op, v, at);
                    }
                    OpK::Neg => {
                        let v = file[a].wrapping_neg();
                        st(&mut file, &mut ready, op, v, at);
                    }
                    OpK::Abs => {
                        let v = file[a].wrapping_abs();
                        st(&mut file, &mut ready, op, v, at);
                    }
                    OpK::Min => {
                        let v = file[a].min(file[b]);
                        st(&mut file, &mut ready, op, v, at);
                    }
                    OpK::Max => {
                        let v = file[a].max(file[b]);
                        st(&mut file, &mut ready, op, v, at);
                    }
                    OpK::Sel => {
                        let v = if file[a] != 0 { file[b] } else { file[c] };
                        st(&mut file, &mut ready, op, v, at);
                    }

                    OpK::CmpEq => {
                        let v = file[a] == file[b];
                        st_p(&mut file, &mut ready, op, v, at);
                    }
                    OpK::CmpNe => {
                        let v = file[a] != file[b];
                        st_p(&mut file, &mut ready, op, v, at);
                    }
                    OpK::CmpLt => {
                        let v = file[a] < file[b];
                        st_p(&mut file, &mut ready, op, v, at);
                    }
                    OpK::CmpLe => {
                        let v = file[a] <= file[b];
                        st_p(&mut file, &mut ready, op, v, at);
                    }
                    OpK::CmpEqI => {
                        let v = file[a] == op.imm;
                        st_p(&mut file, &mut ready, op, v, at);
                    }
                    OpK::CmpLtI => {
                        let v = file[a] < op.imm;
                        st_p(&mut file, &mut ready, op, v, at);
                    }
                    OpK::CmpGtI => {
                        let v = file[a] > op.imm;
                        st_p(&mut file, &mut ready, op, v, at);
                    }

                    OpK::PAnd => {
                        let v = file[a] != 0 && file[b] != 0;
                        st_p(&mut file, &mut ready, op, v, at);
                    }
                    OpK::POr => {
                        let v = file[a] != 0 || file[b] != 0;
                        st_p(&mut file, &mut ready, op, v, at);
                    }
                    OpK::PNot => {
                        let v = file[a] == 0;
                        st_p(&mut file, &mut ready, op, v, at);
                    }
                    OpK::PMovI => st_p(&mut file, &mut ready, op, op.imm != 0, at),
                    OpK::PMov => {
                        let v = file[a] != 0;
                        st_p(&mut file, &mut ready, op, v, at);
                    }
                    OpK::P2I => {
                        let v = i64::from(file[a] != 0);
                        st(&mut file, &mut ready, op, v, at);
                    }
                    OpK::I2P => {
                        let v = file[a] != 0;
                        st_p(&mut file, &mut ready, op, v, at);
                    }

                    OpK::FAdd => {
                        let v = ld_f(&file, a) + ld_f(&file, b);
                        st_f(&mut file, &mut ready, op, v, at);
                    }
                    OpK::FSub => {
                        let v = ld_f(&file, a) - ld_f(&file, b);
                        st_f(&mut file, &mut ready, op, v, at);
                    }
                    OpK::FMul => {
                        let v = ld_f(&file, a) * ld_f(&file, b);
                        st_f(&mut file, &mut ready, op, v, at);
                    }
                    OpK::FDiv => {
                        let d = ld_f(&file, b);
                        let v = if d == 0.0 { 0.0 } else { ld_f(&file, a) / d };
                        st_f(&mut file, &mut ready, op, v, at);
                    }
                    OpK::FSqrt => {
                        let v = ld_f(&file, a).abs().sqrt();
                        st_f(&mut file, &mut ready, op, v, at);
                    }
                    OpK::FAbs => {
                        let v = ld_f(&file, a).abs();
                        st_f(&mut file, &mut ready, op, v, at);
                    }
                    OpK::FNeg => {
                        let v = -ld_f(&file, a);
                        st_f(&mut file, &mut ready, op, v, at);
                    }
                    OpK::FMin => {
                        let v = ld_f(&file, a).min(ld_f(&file, b));
                        st_f(&mut file, &mut ready, op, v, at);
                    }
                    OpK::FMax => {
                        let v = ld_f(&file, a).max(ld_f(&file, b));
                        st_f(&mut file, &mut ready, op, v, at);
                    }
                    OpK::FMovI => st(&mut file, &mut ready, op, op.imm, at),
                    OpK::FMov => {
                        let v = file[a];
                        st(&mut file, &mut ready, op, v, at);
                    }
                    OpK::FSel => {
                        let v = if file[a] != 0 { file[b] } else { file[c] };
                        st(&mut file, &mut ready, op, v, at);
                    }
                    OpK::FCmpEq => {
                        let v = ld_f(&file, a) == ld_f(&file, b);
                        st_p(&mut file, &mut ready, op, v, at);
                    }
                    OpK::FCmpLt => {
                        let v = ld_f(&file, a) < ld_f(&file, b);
                        st_p(&mut file, &mut ready, op, v, at);
                    }
                    OpK::FCmpLe => {
                        let v = ld_f(&file, a) <= ld_f(&file, b);
                        st_p(&mut file, &mut ready, op, v, at);
                    }
                    OpK::I2F => {
                        let v = file[a] as f64;
                        st_f(&mut file, &mut ready, op, v, at);
                    }
                    OpK::F2I => {
                        let v = f2i_sat(ld_f(&file, a));
                        st(&mut file, &mut ready, op, v, at);
                    }
                    OpK::FBits => {
                        let v = file[a];
                        st(&mut file, &mut ready, op, v, at);
                    }
                    OpK::BitsF => {
                        let v = file[a];
                        st(&mut file, &mut ready, op, v, at);
                    }

                    OpK::Ld => {
                        let addr = file[a].wrapping_add(op.imm);
                        let v = read_mem(&mem, addr, op.width)?;
                        let at = cache.access(addr, issue.max(pf_queue));
                        st(&mut file, &mut ready, op, v, at);
                    }
                    OpK::FLd => {
                        let addr = file[a].wrapping_add(op.imm);
                        let bits = read_mem(&mem, addr, Width::B8)?;
                        let at = cache.access(addr, issue.max(pf_queue));
                        st(&mut file, &mut ready, op, bits, at);
                    }
                    OpK::St => {
                        let addr = file[a].wrapping_add(op.imm);
                        write_mem(&mut mem, addr, op.width, file[b])?;
                        cache.access(addr, issue); // allocate; store buffer hides latency
                    }
                    OpK::FSt => {
                        let addr = file[a].wrapping_add(op.imm);
                        write_mem(&mut mem, addr, Width::B8, file[b])?;
                        cache.access(addr, issue);
                    }
                    OpK::Prefetch => {
                        let addr = file[a].wrapping_add(op.imm);
                        let start = issue.max(pf_queue);
                        cache.prefetch(addr, start);
                        pf_queue = start + prefetch_queue_cycles;
                    }

                    OpK::Br => next = (op.a != NONE).then_some(op.a),
                    OpK::CBr => {
                        let taken = file[a] != 0;
                        let ctr = &mut counters[c];
                        let predicted_taken = *ctr >= 2;
                        *ctr = if taken {
                            (*ctr + 1).min(3)
                        } else {
                            ctr.saturating_sub(1)
                        };
                        predictions += 1;
                        if predicted_taken != taken {
                            mispredicts += 1;
                            penalty = penalty.max(mispredict_penalty);
                        }
                        if taken {
                            next = (op.b != NONE).then_some(op.b);
                        }
                    }
                    OpK::Ret => {
                        ret_val = if op.a == NONE { 0 } else { file[a] };
                        cycle = issue + 1 + penalty;
                        break 'outer;
                    }
                    OpK::Call => unreachable!("calls are inlined before lowering"),
                    OpK::UnsafeCall => {
                        let slot = unsafe_call_slot(op.imm);
                        let old = read_mem(&mem, slot, Width::B8)?;
                        let (newv, r) = unsafe_call_semantics(old, file[a], op.imm);
                        write_mem(&mut mem, slot, Width::B8, newv)?;
                        st(&mut file, &mut ready, op, r, at);
                    }
                }
            }

            cycle = issue + 1 + penalty;
            if cycle > max_cycles {
                return Err(SimError::CycleLimit(max_cycles));
            }
            match next {
                Some(t) => {
                    cur_block = t as usize;
                    let (s, e) = self.blocks[cur_block];
                    bpc = s;
                    bend = e;
                }
                None => bpc += 1,
            }
        }

        Ok(SimResult {
            ret: ret_val,
            cycles: cycle.max(1),
            insts,
            nullified,
            bundles,
            branches: predictions,
            mispredicts,
            cache: cache.stats,
            memory: mem,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::Bundle;
    use crate::exec::{simulate_tier, SimTier};
    use metaopt_ir::{Inst, VReg};
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn hash_of(bc: &BytecodeProgram) -> u64 {
        let mut h = DefaultHasher::new();
        bc.hash(&mut h);
        h.finish()
    }

    /// `f1 <- fimm; r1 <- fbits f1; ret r1`.
    fn fbits_of(fimm: f64) -> MachineProgram {
        let bundle = |insts| Bundle { insts };
        MachineProgram {
            blocks: vec![vec![
                bundle(vec![Inst::new(Opcode::FMovI).dst(VReg(1)).fimm(fimm)]),
                bundle(vec![Inst::new(Opcode::FBits).dst(VReg(1)).args(&[VReg(1)])]),
                bundle(vec![Inst::new(Opcode::Ret).args(&[VReg(1)])]),
            ]],
            entry: 0,
        }
    }

    #[test]
    fn lowering_is_a_deterministic_identity() {
        let cfg = MachineConfig::table3();
        let mp = fbits_of(1.5);
        let (a, b) = (
            BytecodeProgram::compile(&mp, &cfg),
            BytecodeProgram::compile(&mp, &cfg),
        );
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn signed_zero_immediates_are_different_programs() {
        // MachineProgram compares `fimm` as f64, so it cannot tell the two
        // apart; the bytecode compares bit patterns, and so does the run.
        let cfg = MachineConfig::table3();
        let (pos, neg) = (fbits_of(0.0), fbits_of(-0.0));
        assert_eq!(pos, neg);
        assert_ne!(
            BytecodeProgram::compile(&pos, &cfg),
            BytecodeProgram::compile(&neg, &cfg)
        );
        for tier in [SimTier::Fast, SimTier::Reference] {
            let ret = |mp| simulate_tier(mp, &cfg, vec![0u8; 4096], tier).unwrap().ret;
            assert_eq!(ret(&pos), 0, "{tier}");
            assert_eq!(ret(&neg), i64::MIN, "{tier}");
        }
    }
}
