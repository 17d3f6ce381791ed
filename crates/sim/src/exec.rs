//! The cycle-level executor.
//!
//! In-order EPIC issue model: a bundle issues once every source register it
//! reads (including guard predicates) and every destination it overwrites is
//! ready; instruction results become ready after their functional-unit
//! latency, loads after the cache hierarchy delivers the line, and a
//! mispredicted branch charges the pipeline-flush penalty. The executor is
//! also a functional interpreter of the machine code, returning the final
//! memory image and return value for differential testing.
//!
//! This reference tier keeps the three register files apart, as raw
//! 64-bit values. It runs memory, control and `UnsafeCall` itself and
//! evaluates every other opcode through [`Opcode::eval`], the definition
//! the fast tier and the IR interpreter share, reading each operand from
//! the file [`Opcode::arg_class`] names.

use crate::cache::{CacheStats, Hierarchy};
use crate::code::MachineProgram;
use crate::machine::{latency_of, MachineConfig};
use crate::predictor::TwoBitPredictor;
use metaopt_ir::interp::{
    read_mem, unsafe_call_semantics, unsafe_call_slot, write_mem, OutOfBounds,
};
use metaopt_ir::{Opcode, RegClass, Width};
use std::fmt;

/// Simulation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// Out-of-bounds memory access.
    OutOfBounds {
        /// Faulting byte address.
        addr: i64,
    },
    /// Dynamic instruction limit exceeded.
    InstLimit(u64),
    /// Simulated-cycle limit exceeded: the cooperative deadline fired.
    CycleLimit(u64),
    /// The program fell off the end of a block (malformed machine code).
    FellOffBlock(usize),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::OutOfBounds { addr } => write!(f, "memory access out of bounds at {addr}"),
            SimError::InstLimit(n) => write!(f, "instruction limit of {n} exceeded"),
            SimError::CycleLimit(n) => write!(f, "cycle limit of {n} exceeded"),
            SimError::FellOffBlock(b) => write!(f, "fell off end of block {b}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Which execution backend runs a simulation.
///
/// Both tiers implement the same observable semantics — bit-identical cycle
/// counts, memory traffic, statistics, and outputs (the equivalence
/// contract of DESIGN.md §17, enforced by the cross-tier differential test
/// harness). The tier therefore never enters fitness, caches, or checkpoint
/// fingerprints: results produced under one tier are valid under the other.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SimTier {
    /// Pre-decoded linear bytecode (the default): same results, several
    /// times the throughput of [`SimTier::Reference`].
    #[default]
    Fast,
    /// The original cycle-level interpreter, kept as the semantic
    /// reference the fast tier is differentially tested against.
    Reference,
}

impl SimTier {
    /// Canonical lowercase name, as accepted by `--sim-tier` and emitted in
    /// the `tier` attribute of `sim` trace events.
    pub fn as_str(self) -> &'static str {
        match self {
            SimTier::Fast => "fast",
            SimTier::Reference => "reference",
        }
    }
}

impl fmt::Display for SimTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for SimTier {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "fast" | "bytecode" => Ok(SimTier::Fast),
            "reference" | "ref" => Ok(SimTier::Reference),
            other => Err(format!(
                "unknown sim tier `{other}` (expected `fast` or `reference`)"
            )),
        }
    }
}

impl From<OutOfBounds> for SimError {
    fn from(e: OutOfBounds) -> Self {
        SimError::OutOfBounds { addr: e.addr }
    }
}

/// Result of a simulation.
///
/// Equality is total over every observable — cycles, dynamic counts,
/// branch/cache statistics, return value, and the final memory image —
/// which is exactly the cross-tier equivalence contract.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimResult {
    /// Value returned by the program.
    pub ret: i64,
    /// Total cycles.
    pub cycles: u64,
    /// Dynamic instructions issued (including nullified predicated ones).
    pub insts: u64,
    /// Nullified (guard-false) instructions among `insts`.
    pub nullified: u64,
    /// Bundles issued.
    pub bundles: u64,
    /// Conditional branches executed.
    pub branches: u64,
    /// Mispredicted conditional branches.
    pub mispredicts: u64,
    /// Cache statistics.
    pub cache: CacheStats,
    /// Final memory image.
    pub memory: Vec<u8>,
}

impl SimResult {
    /// Instructions per cycle actually achieved.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            (self.insts - self.nullified) as f64 / self.cycles as f64
        }
    }
}

/// The machine's three register files, indexed by class: raw values (a
/// float as its bit pattern, a predicate as 0/1, as [`Opcode::eval`] reads
/// them) and the cycle each value becomes ready.
struct RegFiles {
    vals: [Vec<i64>; 3],
    ready: [Vec<u64>; 3],
}

impl RegFiles {
    fn new(cfg: &MachineConfig) -> Self {
        let sizes = [cfg.gpr, cfg.fpr, cfg.pred];
        RegFiles {
            vals: sizes.map(|n| vec![0; n]),
            ready: sizes.map(|n| vec![0; n]),
        }
    }
}

/// Execute `mp` on machine `cfg` starting from the given memory image,
/// using the default tier ([`SimTier::Fast`]).
///
/// # Errors
/// Fails on out-of-bounds memory accesses, malformed machine code (a block
/// without a terminating branch), or when `cfg.max_insts` or
/// `cfg.max_cycles` is exceeded.
pub fn simulate(
    mp: &MachineProgram,
    cfg: &MachineConfig,
    memory: Vec<u8>,
) -> Result<SimResult, SimError> {
    simulate_tier(mp, cfg, memory, SimTier::default())
}

/// Execute `mp` on machine `cfg` under an explicit execution [`SimTier`].
///
/// # Errors
/// As [`simulate`]; both tiers fail identically by contract.
pub fn simulate_tier(
    mp: &MachineProgram,
    cfg: &MachineConfig,
    memory: Vec<u8>,
    tier: SimTier,
) -> Result<SimResult, SimError> {
    match tier {
        SimTier::Fast => crate::bytecode::BytecodeProgram::compile(mp, cfg).run(cfg, memory),
        SimTier::Reference => simulate_reference(mp, cfg, memory),
    }
}

/// The reference cycle-level interpreter (the semantic ground truth the
/// bytecode tier is differentially tested against).
fn simulate_reference(
    mp: &MachineProgram,
    cfg: &MachineConfig,
    memory: Vec<u8>,
) -> Result<SimResult, SimError> {
    let mut mem = memory;
    let mut regs = RegFiles::new(cfg);
    let mut cache = Hierarchy::new(&cfg.cache);
    let mut predictor = TwoBitPredictor::new();

    let mut cycle: u64 = 0;
    let mut insts: u64 = 0;
    let mut nullified: u64 = 0;
    let mut bundles: u64 = 0;
    // Memory-queue drain time: software prefetches occupy the memory
    // pipeline; demand loads issued while the queue is busy start late.
    let mut pf_queue: u64 = 0;

    let mut block = mp.entry;
    let mut bix = 0usize;
    let ret_val: i64;

    'outer: loop {
        let bb = &mp.blocks[block];
        if bix >= bb.len() {
            return Err(SimError::FellOffBlock(block));
        }
        let bundle = &bb[bix];
        bundles += 1;

        // Issue stall: wait for every register the bundle reads or
        // overwrites (guards included) to be ready.
        let mut issue = cycle;
        for inst in &bundle.insts {
            for (i, a) in inst.args.iter().enumerate() {
                if let Some(c) = inst.op.arg_class(i) {
                    issue = issue.max(regs.ready[c as usize][a.index()]);
                }
            }
            if let Some(p) = inst.pred {
                issue = issue.max(regs.ready[RegClass::Pred as usize][p.index()]);
            }
            if let (Some(c), Some(d)) = (inst.op.dst_class(), inst.dst) {
                issue = issue.max(regs.ready[c as usize][d.index()]);
            }
        }

        let mut next: Option<usize> = None; // taken-branch target block
        let mut penalty: u64 = 0;

        for (si, inst) in bundle.insts.iter().enumerate() {
            insts += 1;
            if insts > cfg.max_insts {
                return Err(SimError::InstLimit(cfg.max_insts));
            }
            if let Some(p) = inst.pred {
                if regs.vals[RegClass::Pred as usize][p.index()] == 0 {
                    nullified += 1;
                    continue;
                }
            }
            let arg = |i: usize| {
                let c = inst
                    .op
                    .arg_class(i)
                    .expect("an opcode reads only its listed operands");
                regs.vals[c as usize][inst.args[i].index()]
            };
            let done = issue + latency_of(inst.op);

            // The value written back and the cycle it is ready, if any.
            let out = match inst.op {
                Opcode::Ld(w) => {
                    let addr = arg(0).wrapping_add(inst.imm);
                    let v = read_mem(&mem, addr, w)?;
                    Some((v, cache.access(addr, issue.max(pf_queue))))
                }
                Opcode::FLd => {
                    let addr = arg(0).wrapping_add(inst.imm);
                    let bits = read_mem(&mem, addr, Width::B8)?;
                    Some((bits, cache.access(addr, issue.max(pf_queue))))
                }
                Opcode::St(w) => {
                    let addr = arg(0).wrapping_add(inst.imm);
                    write_mem(&mut mem, addr, w, arg(1))?;
                    cache.access(addr, issue); // allocate; store buffer hides latency
                    None
                }
                Opcode::FSt => {
                    let addr = arg(0).wrapping_add(inst.imm);
                    write_mem(&mut mem, addr, Width::B8, arg(1))?;
                    cache.access(addr, issue);
                    None
                }
                Opcode::Prefetch => {
                    let addr = arg(0).wrapping_add(inst.imm);
                    let start = issue.max(pf_queue);
                    cache.prefetch(addr, start);
                    pf_queue = start + cfg.prefetch_queue_cycles;
                    None
                }

                Opcode::Br => {
                    next = inst.target.map(|t| t.index());
                    None
                }
                Opcode::CBr => {
                    let taken = arg(0) != 0;
                    let site = ((block as u64) << 32) | ((bix as u64) << 8) | si as u64;
                    let correct = predictor.predict_and_update(site, taken);
                    if !correct {
                        penalty = penalty.max(cfg.mispredict_penalty);
                    }
                    if taken {
                        next = inst.target.map(|t| t.index());
                    }
                    None
                }
                Opcode::Ret => {
                    ret_val = if inst.args.is_empty() { 0 } else { arg(0) };
                    cycle = issue + 1 + penalty;
                    break 'outer;
                }
                Opcode::Call => unreachable!("calls are inlined before lowering"),
                Opcode::UnsafeCall => {
                    let slot = unsafe_call_slot(inst.imm);
                    let old = read_mem(&mem, slot, Width::B8)?;
                    let (newv, r) = unsafe_call_semantics(old, arg(0), inst.imm);
                    write_mem(&mut mem, slot, Width::B8, newv)?;
                    Some((r, done))
                }
                op => Some((op.eval(arg, inst.eval_imm()), done)),
            };

            if let (Some((v, at)), Some(d)) = (out, inst.dst) {
                let c = inst
                    .op
                    .dst_class()
                    .expect("an opcode with a result has a class") as usize;
                regs.vals[c][d.index()] = v;
                regs.ready[c][d.index()] = at;
            }
        }

        cycle = issue + 1 + penalty;
        // Cooperative deadline: bail out deterministically once the cycle
        // counter passes the budget, instead of leaving hang detection to a
        // wall clock. Checked per bundle, so a stalled schedule that stays
        // under `max_insts` still terminates.
        if cycle > cfg.max_cycles {
            return Err(SimError::CycleLimit(cfg.max_cycles));
        }
        match next {
            Some(t) => {
                block = t;
                bix = 0;
            }
            None => bix += 1,
        }
    }

    Ok(SimResult {
        ret: ret_val,
        cycles: cycle.max(1),
        insts,
        nullified,
        bundles,
        branches: predictor.predictions,
        mispredicts: predictor.mispredicts,
        cache: cache.stats,
        memory: mem,
    })
}

/// Run [`simulate_tier`] and emit one `sim` trace event per completed
/// simulation: the run's simulated `cycles` (before any noise) and
/// `insts`, the host-side wall time as `dur_ns`, and the executing `tier`.
/// Failed simulations emit nothing — the caller's evaluation layer records
/// the failure in its own taxonomy.
///
/// `noise = Some((amplitude, seed))` then applies [`jitter`] to the
/// returned cycle count: the paper §7's real-machine timing jitter. It is
/// part of the measurement, not of the run, so the event keeps the
/// noise-free cycles, and it is identical across tiers.
pub fn simulate_traced(
    mp: &MachineProgram,
    cfg: &MachineConfig,
    memory: Vec<u8>,
    noise: Option<(f64, u64)>,
    tier: SimTier,
    tracer: &metaopt_trace::Tracer,
) -> Result<SimResult, SimError> {
    let span = tracer.begin();
    let mut result = simulate_tier(mp, cfg, memory, tier);
    let dur_ns = span.dur_ns();
    if let Ok(r) = &mut result {
        if tracer.enabled() {
            use metaopt_trace::json::Value;
            tracer.emit(
                "sim",
                [
                    ("cycles", Value::UInt(r.cycles)),
                    ("insts", Value::UInt(r.insts)),
                    ("dur_ns", Value::UInt(dur_ns)),
                    ("tier", Value::Str(tier.as_str().to_string())),
                ],
            );
        }
        if let Some((amplitude, seed)) = noise {
            r.cycles = jitter(r.cycles, amplitude, seed);
        }
    }
    result
}

/// The measurement noise of [`simulate_traced`]: `cycles` scaled by
/// `1 + amplitude * u`, with `u` drawn uniformly from `[-1, 1)` by a
/// deterministic xorshift of `seed`. Public so that a caller which
/// remembers noise-free runs applies exactly the same noise to a
/// remembered outcome.
pub fn jitter(cycles: u64, amplitude: f64, seed: u64) -> u64 {
    let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15).max(1);
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    let u = (x >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
    let factor = 1.0 + amplitude * (2.0 * u - 1.0);
    ((cycles as f64) * factor).round().max(1.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::Bundle;
    use metaopt_ir::{BlockId, Inst, VReg};

    #[test]
    fn memory_faults_convert_to_the_simulator_error() {
        let e = SimError::from(OutOfBounds { addr: -8 });
        assert_eq!(e, SimError::OutOfBounds { addr: -8 });
        assert_eq!(e.to_string(), "memory access out of bounds at -8");
    }

    fn bundle(insts: Vec<Inst>) -> Bundle {
        Bundle { insts }
    }

    // Runs the program under both tiers and asserts the equivalence
    // contract before returning the (fast-tier) result, so every unit test
    // in this module doubles as a cross-tier check.
    fn run(mp: &MachineProgram) -> SimResult {
        let cfg = MachineConfig::table3();
        let fast = simulate_tier(mp, &cfg, vec![0u8; 65536], SimTier::Fast).unwrap();
        let reference = simulate_tier(mp, &cfg, vec![0u8; 65536], SimTier::Reference).unwrap();
        assert_eq!(fast, reference, "tier divergence");
        fast
    }

    #[test]
    fn straight_line_arithmetic() {
        let mp = MachineProgram {
            blocks: vec![vec![
                bundle(vec![
                    Inst::new(Opcode::MovI).dst(VReg(1)).imm(6),
                    Inst::new(Opcode::MovI).dst(VReg(2)).imm(7),
                ]),
                bundle(vec![Inst::new(Opcode::Mul)
                    .dst(VReg(3))
                    .args(&[VReg(1), VReg(2)])]),
                bundle(vec![Inst::new(Opcode::Ret).args(&[VReg(3)])]),
            ]],
            entry: 0,
        };
        let r = run(&mp);
        assert_eq!(r.ret, 42);
        assert_eq!(r.insts, 4);
        // mul has 3-cycle latency: ret stalls for it.
        assert!(r.cycles >= 4, "cycles={}", r.cycles);
    }

    #[test]
    fn load_latency_stalls_consumer() {
        // ld -> immediately consume: expect the cold-miss latency in cycles.
        let mp = MachineProgram {
            blocks: vec![vec![
                bundle(vec![Inst::new(Opcode::MovI).dst(VReg(1)).imm(8192)]),
                bundle(vec![Inst::new(Opcode::Ld(Width::B8))
                    .dst(VReg(2))
                    .args(&[VReg(1)])]),
                bundle(vec![Inst::new(Opcode::AddI)
                    .dst(VReg(3))
                    .args(&[VReg(2)])
                    .imm(1)]),
                bundle(vec![Inst::new(Opcode::Ret).args(&[VReg(3)])]),
            ]],
            entry: 0,
        };
        let r = run(&mp);
        assert_eq!(r.ret, 1);
        assert!(r.cycles >= 35, "cold miss must stall: {}", r.cycles);
        assert_eq!(r.cache.l2_misses, 1);
    }

    #[test]
    fn prefetch_hides_load_latency() {
        // prefetch far ahead of the load: the load hits L1.
        let make = |with_prefetch: bool| {
            let mut bundles = vec![bundle(vec![
                Inst::new(Opcode::MovI).dst(VReg(1)).imm(8192),
                Inst::new(Opcode::MovI).dst(VReg(4)).imm(0),
            ])];
            if with_prefetch {
                bundles.push(bundle(vec![Inst::new(Opcode::Prefetch).args(&[VReg(1)])]));
            }
            // Busy work to give the prefetch time to land.
            for _ in 0..40 {
                bundles.push(bundle(vec![Inst::new(Opcode::AddI)
                    .dst(VReg(4))
                    .args(&[VReg(4)])
                    .imm(1)]));
            }
            bundles.push(bundle(vec![Inst::new(Opcode::Ld(Width::B8))
                .dst(VReg(2))
                .args(&[VReg(1)])]));
            bundles.push(bundle(vec![Inst::new(Opcode::Add)
                .dst(VReg(3))
                .args(&[VReg(2), VReg(4)])]));
            bundles.push(bundle(vec![Inst::new(Opcode::Ret).args(&[VReg(3)])]));
            MachineProgram {
                blocks: vec![bundles],
                entry: 0,
            }
        };
        let without = run(&make(false));
        let with = run(&make(true));
        assert_eq!(without.ret, with.ret);
        assert!(
            with.cycles + 20 < without.cycles,
            "prefetch should hide the miss: {} vs {}",
            with.cycles,
            without.cycles
        );
        assert_eq!(with.cache.prefetches, 1);
    }

    #[test]
    fn mispredicted_branch_pays_penalty() {
        // Loop 100 times with an alternating inner branch; compare cycle
        // count against a version with a constant (predictable) branch.
        let make = |alternating: bool| {
            // b0: i=0; p_exit? -> b3 ; body computes parity branch to b1/b2
            // Simplified: single loop block with a CBr over parity to same join.
            let mut blocks = Vec::new();
            // block 0: init
            blocks.push(vec![
                bundle(vec![
                    Inst::new(Opcode::MovI).dst(VReg(1)).imm(0), // i
                    Inst::new(Opcode::MovI).dst(VReg(2)).imm(0), // acc
                ]),
                bundle(vec![Inst::new(Opcode::Br).target(BlockId(1))]),
            ]);
            // block 1: loop header/body
            blocks.push(vec![
                bundle(vec![Inst::new(Opcode::AndI)
                    .dst(VReg(3))
                    .args(&[VReg(1)])
                    .imm(if alternating { 1 } else { 0 })]),
                bundle(vec![Inst::new(Opcode::CmpEqI)
                    .dst(VReg(0))
                    .args(&[VReg(3)])
                    .imm(1)]),
                bundle(vec![Inst::new(Opcode::CBr)
                    .args(&[VReg(0)])
                    .target(BlockId(2))]),
                bundle(vec![Inst::new(Opcode::Br).target(BlockId(2))]),
            ]);
            // block 2: latch
            blocks.push(vec![
                bundle(vec![Inst::new(Opcode::AddI)
                    .dst(VReg(1))
                    .args(&[VReg(1)])
                    .imm(1)]),
                bundle(vec![Inst::new(Opcode::CmpLtI)
                    .dst(VReg(0))
                    .args(&[VReg(1)])
                    .imm(100)]),
                bundle(vec![Inst::new(Opcode::CBr)
                    .args(&[VReg(0)])
                    .target(BlockId(1))]),
                bundle(vec![Inst::new(Opcode::Ret).args(&[VReg(2)])]),
            ]);
            MachineProgram { blocks, entry: 0 }
        };
        let predictable = run(&make(false));
        let unpredictable = run(&make(true));
        assert!(
            unpredictable.cycles > predictable.cycles + 100,
            "alternating branch must cost mispredicts: {} vs {}",
            unpredictable.cycles,
            predictable.cycles
        );
        assert!(unpredictable.mispredicts > 30);
        assert!(predictable.mispredicts < 10);
    }

    #[test]
    fn nullified_instructions_do_not_write() {
        let mp = MachineProgram {
            blocks: vec![vec![
                bundle(vec![
                    Inst::new(Opcode::MovI).dst(VReg(1)).imm(5),
                    Inst::new(Opcode::PMovI).dst(VReg(0)).imm(0), // false
                ]),
                bundle(vec![Inst::new(Opcode::MovI)
                    .dst(VReg(1))
                    .imm(99)
                    .guarded(VReg(0))]),
                bundle(vec![Inst::new(Opcode::Ret).args(&[VReg(1)])]),
            ]],
            entry: 0,
        };
        let r = run(&mp);
        assert_eq!(r.ret, 5);
        assert_eq!(r.nullified, 1);
    }

    #[test]
    fn noise_is_deterministic_per_seed_and_bounded() {
        let mp = MachineProgram {
            blocks: vec![vec![bundle(vec![Inst::new(Opcode::Ret)])]],
            entry: 0,
        };
        let cfg = MachineConfig::table3();
        let base = simulate(&mp, &cfg, vec![0u8; 4096]).unwrap().cycles;
        let noisy = |tier| {
            let off = metaopt_trace::Tracer::disabled();
            simulate_traced(&mp, &cfg, vec![0u8; 4096], Some((0.05, 7)), tier, &off).unwrap()
        };
        let a = noisy(SimTier::Fast);
        let b = noisy(SimTier::Fast);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a, noisy(SimTier::Reference));
        let lo = (base as f64 * 0.94).floor() as u64;
        let hi = (base as f64 * 1.06).ceil() as u64;
        assert!(a.cycles >= lo.max(1) && a.cycles <= hi.max(2));
    }

    #[test]
    fn inst_limit_enforced() {
        let mp = MachineProgram {
            blocks: vec![vec![bundle(vec![Inst::new(Opcode::Br).target(BlockId(0))])]],
            entry: 0,
        };
        let mut cfg = MachineConfig::table3();
        cfg.max_insts = 50;
        assert!(matches!(
            simulate(&mp, &cfg, vec![0u8; 4096]),
            Err(SimError::InstLimit(50))
        ));
    }

    #[test]
    fn cycle_limit_enforced() {
        // An infinite loop with a huge instruction budget: only the
        // cooperative cycle deadline can stop it.
        let mp = MachineProgram {
            blocks: vec![vec![bundle(vec![Inst::new(Opcode::Br).target(BlockId(0))])]],
            entry: 0,
        };
        let mut cfg = MachineConfig::table3();
        cfg.max_cycles = 40;
        assert!(matches!(
            simulate(&mp, &cfg, vec![0u8; 4096]),
            Err(SimError::CycleLimit(40))
        ));
    }

    #[test]
    fn cycle_limit_does_not_fire_on_terminating_programs() {
        let mp = MachineProgram {
            blocks: vec![vec![bundle(vec![Inst::new(Opcode::Ret)])]],
            entry: 0,
        };
        let r = simulate(&mp, &MachineConfig::table3(), vec![0u8; 4096]).unwrap();
        assert!(r.cycles < MachineConfig::table3().max_cycles);
    }
}
