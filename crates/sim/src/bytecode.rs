//! The fast execution tier: pre-decoded linear bytecode.
//!
//! [`BytecodeProgram::compile`] lowers a [`MachineProgram`] into a flat,
//! cache-friendly instruction stream in which everything the reference
//! interpreter recomputes per dynamic instruction is resolved once per
//! static instruction:
//!
//! * the three architectural register files are folded into one unified
//!   `i64` array (floats live as bit patterns, predicates as 0/1, the raw
//!   values [`Opcode::eval`] computes on), so each operand is a single
//!   pre-resolved index — no per-class array selection, and destination
//!   value and ready-time writes share one index,
//! * functional-unit latencies are baked in (`latency_of` is never called
//!   at run time),
//! * the per-bundle issue-stall scan is pre-flattened into a sorted,
//!   deduplicated list of unified-file indices, pruned to the registers
//!   that can actually stall (multi-cycle results and loads), and
//! * branch-predictor sites are renumbered densely so the 2-bit counters
//!   live in a `Vec<u8>` instead of a `HashMap`.
//!
//! Each op keeps its [`Opcode`]. The loop runs memory, control and
//! `UnsafeCall` itself and hands every other opcode to [`Opcode::eval`],
//! the one definition it shares with the reference tier and the IR
//! interpreter, in a single dispatch per executed op.
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
use metaopt_ir::interp::{read_mem, unsafe_call_semantics, unsafe_call_slot, write_mem};
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

/// One pre-decoded instruction: 32 bytes, `Copy`, no heap indirection.
///
/// All register references are indices into the unified file
/// (`[ints | floats | preds]`). Operand `i` sits in `args[i]` when the
/// opcode reads it ([`Opcode::arg_class`]) and is [`NONE`] otherwise.
/// Branches reuse the operand slots: `Br` keeps its target in `args[0]`;
/// `CBr` keeps its guard-input in `args[0]`, target in `args[1]`, and dense
/// predictor site in `args[2]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Op {
    /// The operation; a load or store carries its width.
    op: Opcode,
    /// Result-ready latency (`latency_of`, baked in).
    lat: u8,
    /// Unified operand indices ([`NONE`] if absent, [`OOB`] if unmappable).
    args: [u32; 3],
    /// Unified destination index, [`NONE`] if the instruction has none.
    dst: u32,
    /// Guard predicate index, [`NONE`] if unguarded.
    pred: u32,
    /// Immediate, as [`metaopt_ir::Inst::eval_imm`] gives it (for `FMovI`,
    /// the `f64` bit pattern).
    imm: i64,
}

const _: () = assert!(std::mem::size_of::<Op>() == 32);

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
                    if let (Some(c), Some(d)) = (inst.op.dst_class(), inst.dst) {
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
                    // sources by class, guards, and the overwritten
                    // destination.
                    for (i, a) in inst.args.iter().enumerate() {
                        if let Some(c) = inst.op.arg_class(i) {
                            bdeps.push(uix(c, a.index()));
                        }
                    }
                    if let Some(p) = inst.pred {
                        bdeps.push(uix(RegClass::Pred, p.index()));
                    }
                    let dst = match (inst.op.dst_class(), inst.dst) {
                        (Some(c), Some(d)) => uix(c, d.index()),
                        _ => NONE,
                    };
                    if dst != NONE {
                        bdeps.push(dst);
                    }

                    let mut args = [0, 1, 2].map(|i| match inst.op.arg_class(i) {
                        Some(c) => inst.args.get(i).map_or(NONE, |v| uix(c, v.index())),
                        None => NONE,
                    });
                    // Branches reuse the free operand slots (see [`Op`]).
                    let target = inst
                        .target
                        .map_or(NONE, |t| (t.index() as u32).min(OOB - 1));
                    match inst.op {
                        Opcode::Br => args[0] = target,
                        Opcode::CBr => {
                            args[1] = target;
                            args[2] = nsites;
                            nsites += 1;
                        }
                        _ => {}
                    }
                    ops.push(Op {
                        op: inst.op,
                        lat: latency_of(inst.op) as u8,
                        args,
                        dst,
                        pred: inst.pred.map_or(NONE, |p| uix(RegClass::Pred, p.index())),
                        imm: inst.eval_imm(),
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
                let arg = |i: usize| file[op.args[i] as usize];
                // Read before the dispatch, so that the value arm below holds
                // nothing but `Opcode::eval`'s match, which the compiler then
                // folds into this one: one jump table per executed op.
                let imm = op.imm;
                let at = issue + op.lat as u64;

                match op.op {
                    Opcode::Ld(w) => {
                        let addr = arg(0).wrapping_add(imm);
                        let v = read_mem(&mem, addr, w)?;
                        let at = cache.access(addr, issue.max(pf_queue));
                        st(&mut file, &mut ready, op, v, at);
                    }
                    Opcode::FLd => {
                        let addr = arg(0).wrapping_add(imm);
                        let bits = read_mem(&mem, addr, Width::B8)?;
                        let at = cache.access(addr, issue.max(pf_queue));
                        st(&mut file, &mut ready, op, bits, at);
                    }
                    Opcode::St(w) => {
                        let addr = arg(0).wrapping_add(imm);
                        write_mem(&mut mem, addr, w, arg(1))?;
                        cache.access(addr, issue); // allocate; store buffer hides latency
                    }
                    Opcode::FSt => {
                        let addr = arg(0).wrapping_add(imm);
                        write_mem(&mut mem, addr, Width::B8, arg(1))?;
                        cache.access(addr, issue);
                    }
                    Opcode::Prefetch => {
                        let addr = arg(0).wrapping_add(imm);
                        let start = issue.max(pf_queue);
                        cache.prefetch(addr, start);
                        pf_queue = start + prefetch_queue_cycles;
                    }

                    Opcode::Br => next = (op.args[0] != NONE).then_some(op.args[0]),
                    Opcode::CBr => {
                        let taken = arg(0) != 0;
                        let ctr = &mut counters[op.args[2] as usize];
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
                            next = (op.args[1] != NONE).then_some(op.args[1]);
                        }
                    }
                    Opcode::Ret => {
                        ret_val = if op.args[0] == NONE { 0 } else { arg(0) };
                        cycle = issue + 1 + penalty;
                        break 'outer;
                    }
                    Opcode::Call => unreachable!("calls are inlined before lowering"),
                    Opcode::UnsafeCall => {
                        let slot = unsafe_call_slot(imm);
                        let old = read_mem(&mem, slot, Width::B8)?;
                        let (newv, r) = unsafe_call_semantics(old, arg(0), imm);
                        write_mem(&mut mem, slot, Width::B8, newv)?;
                        st(&mut file, &mut ready, op, r, at);
                    }
                    code => {
                        let v = code.eval(arg, imm);
                        st(&mut file, &mut ready, op, v, at);
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
