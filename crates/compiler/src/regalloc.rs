//! Priority-based coloring register allocation (Chow & Hennessy), paper
//! case study II.
//!
//! Live ranges are per-vreg sets of blocks (the rows of one vreg × block
//! bit matrix); interference is block-set overlap within a register class.
//! Ranges are colored **in priority order**, where the priority of a range
//! is the *mean over its blocks* of a per-block savings function — paper
//! Eq. 3 wrapping Eq. 2:
//!
//! ```text
//! savings_i  = w_i · (LDsave · uses_i + STsave · defs_i)      (Eq. 2)
//! priority   = Σ_i savings_i / N                               (Eq. 3)
//! ```
//!
//! Eq. 3 (the normalization) stays fixed, exactly as in the paper (§6); the
//! GP search replaces only the per-block savings function via
//! [`RealPriority`]. Ranges that cannot be colored are spilled with
//! load-before-use / store-after-def code around reserved temp registers.
//!
//! Register-file reservations (per class): int r0 is the hard-wired zero /
//! spill-base register, r1–r3 are spill temps; float f0–f2 are spill temps;
//! predicate p0–p3 are spill temps. Everything else is allocatable.

use crate::pass::{Pass, PassCtx};
use crate::{CompileError, CompileErrorKind, RealPriority};
use metaopt_ir::cfg::Cfg;
use metaopt_ir::dom::DomTree;
use metaopt_ir::liveness::Liveness;
use metaopt_ir::loops::LoopForest;
use metaopt_ir::profile::FuncProfile;
use metaopt_ir::util::BitMatrix;
use metaopt_ir::{BlockId, Function, Inst, Opcode, RegClass, VReg};
use metaopt_sim::MachineConfig;

/// Real-valued features fed to the savings function, per (block, range).
/// Index order matches [`feature_names`].
pub const REAL_FEATURES: &[&str] = &[
    "uses",       // uses of the range's vreg in this block
    "defs",       // defs in this block
    "w",          // block execution frequency (profile, normalized)
    "loop_depth", // loop nesting depth of the block
    "range_size", // number of blocks in the live range (Eq. 3's N)
    "degree",     // interference degree of the range
    "total_refs", // uses+defs of the range across the whole function
];

/// Boolean features. Index order matches [`feature_names`].
pub const BOOL_FEATURES: &[&str] = &["is_float", "is_pred"];

/// The feature names (reals, bools) in index order.
pub fn feature_names() -> (Vec<&'static str>, Vec<&'static str>) {
    (REAL_FEATURES.to_vec(), BOOL_FEATURES.to_vec())
}

/// The paper's Eq. 2 baseline: `w · (LDsave·uses + STsave·defs)` with
/// `LDsave` = the L1 hit latency (2) and `STsave` = the buffered store cost
/// (1), per the Table 3 machine.
pub struct BaselineEq2;

impl RealPriority for BaselineEq2 {
    fn score(&self, reals: &[f64], _bools: &[bool]) -> f64 {
        let uses = reals[0];
        let defs = reals[1];
        let w = reals[2];
        w * (2.0 * uses + 1.0 * defs)
    }
}

/// Result of allocation.
#[derive(Clone, Copy, Debug, Default)]
pub struct RaResult {
    /// Live ranges spilled.
    pub spilled: u64,
    /// Required memory size (globals + spill slots).
    pub mem_size: usize,
}

const INT_TEMPS: [u32; 3] = [1, 2, 3]; // r0 is the zero/spill-base register
const FLOAT_TEMPS: [u32; 3] = [0, 1, 2];
const PRED_TEMPS: [u32; 4] = [0, 1, 2, 3];
const FIRST_INT: u32 = 4;
const FIRST_FLOAT: u32 = 3;
const FIRST_PRED: u32 = 4;

/// One register class's interference graph as a dense bit matrix: row i
/// holds the class members whose live ranges share a block with member i.
struct Interference {
    /// Words per row.
    stride: usize,
    rows: Vec<u64>,
}

impl Interference {
    /// Build the graph of `vregs` from their block ranges. Each block gets
    /// a member set, and a row is the union of the member sets of the
    /// blocks in its range: O(k·|range|·⌈k/64⌉) for k members rather than
    /// k²/2 pairwise range tests.
    fn build(vregs: &[usize], range: &BitMatrix) -> Self {
        let k = vregs.len();
        let stride = k.div_ceil(64);
        let mut members = vec![0u64; range.cols() * stride];
        for (i, &v) in vregs.iter().enumerate() {
            for b in range.iter_row(v) {
                members[b * stride + i / 64] |= 1 << (i % 64);
            }
        }
        let mut rows = vec![0u64; k * stride];
        for (i, &v) in vregs.iter().enumerate() {
            let row = &mut rows[i * stride..(i + 1) * stride];
            for b in range.iter_row(v) {
                for (r, m) in row.iter_mut().zip(&members[b * stride..(b + 1) * stride]) {
                    *r |= m;
                }
            }
            row[i / 64] &= !(1 << (i % 64));
        }
        Interference { stride, rows }
    }

    fn row(&self, i: usize) -> &[u64] {
        &self.rows[i * self.stride..(i + 1) * self.stride]
    }

    /// Number of members interfering with member `i`.
    fn degree(&self, i: usize) -> usize {
        self.row(i).iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Members interfering with member `i`, in increasing order.
    fn neighbours(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        self.row(i).iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    wi * 64 + b
                })
            })
        })
    }
}

/// Allocate registers for `func`, rewriting it **in place** into machine
/// register form (operand indices become physical registers of the class
/// implied by the opcode). `globals_size` is where the spill area starts.
///
/// # Errors
/// Returns a message if the machine has too few registers even with
/// spilling (pathological class pressure inside a single instruction).
pub fn allocate(
    func: &mut Function,
    machine: &MachineConfig,
    savings: &dyn RealPriority,
    profile: &FuncProfile,
    globals_size: usize,
) -> Result<RaResult, String> {
    let nv = func.num_vregs();
    let nb = func.blocks.len();
    let cfg = Cfg::new(func);

    // Live range = set of blocks where the vreg is live or referenced.
    // `refs[v * nb + b]` counts (uses, defs) of vreg v in block b.
    let range = Liveness::compute(func, &cfg).ranges(func);
    let mut refs: Vec<(u32, u32)> = vec![(0, 0); nv * nb];
    for (bi, block) in func.blocks.iter().enumerate() {
        for inst in &block.insts {
            for r in inst.reads() {
                refs[r.index() * nb + bi].0 += 1;
            }
            if let Some(d) = inst.dst {
                refs[d.index() * nb + bi].1 += 1;
            }
        }
    }

    let referenced: Vec<bool> = (0..nv).map(|v| !range.row_is_empty(v)).collect();

    // Interference: same class and overlapping block sets.
    let by_class = |c: RegClass| -> Vec<usize> {
        (0..nv)
            .filter(|&v| referenced[v] && func.vreg_class[v] == c)
            .collect()
    };

    // Block frequency normalization.
    let entry_count = profile.block_count(func.entry).max(1) as f64;
    let loops = LoopForest::compute(&cfg, &DomTree::compute(&cfg));
    let block_w: Vec<f64> = (0..nb)
        .map(|b| profile.block_count(BlockId(b as u32)) as f64 / entry_count)
        .collect();
    let block_depth: Vec<f64> = (0..nb)
        .map(|b| loops.depth_of(BlockId(b as u32)) as f64)
        .collect();

    let mut assignment: Vec<Option<u32>> = vec![None; nv];
    let mut spilled: Vec<bool> = vec![false; nv];
    let mut num_spilled = 0u64;
    let mut taken: Vec<bool> = Vec::new();

    for (class, first, count) in [
        (RegClass::Int, FIRST_INT, machine.gpr as u32),
        (RegClass::Float, FIRST_FLOAT, machine.fpr as u32),
        (RegClass::Pred, FIRST_PRED, machine.pred as u32),
    ] {
        let vregs = by_class(class);
        let k = vregs.len();
        let adj = Interference::build(&vregs, &range);
        // Priorities: mean over the range's blocks of the savings function.
        let bools = [class == RegClass::Float, class == RegClass::Pred];
        let mut prio: Vec<f64> = Vec::with_capacity(k);
        for (i, &v) in vregs.iter().enumerate() {
            let row = &refs[v * nb..(v + 1) * nb];
            let n = range.count_row(v).max(1) as f64;
            let total_refs: u32 = range.iter_row(v).map(|b| row[b].0 + row[b].1).sum();
            let degree = adj.degree(i) as f64;
            let mut sum = 0.0;
            for b in range.iter_row(v) {
                let reals = [
                    row[b].0 as f64,
                    row[b].1 as f64,
                    block_w[b],
                    block_depth[b],
                    n,
                    degree,
                    total_refs as f64,
                ];
                sum += savings.score(&reals, &bools);
            }
            prio.push(sum / n);
        }
        // Color in priority order.
        let mut order: Vec<usize> = (0..k).collect();
        order.sort_by(|&a, &b| {
            prio[b]
                .partial_cmp(&prio[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(vregs[a].cmp(&vregs[b]))
        });
        let colors_available = count.saturating_sub(first);
        for &i in &order {
            let v = vregs[i];
            taken.clear();
            taken.resize(colors_available as usize, false);
            for j in adj.neighbours(i) {
                if let Some(c) = assignment[vregs[j]] {
                    taken[(c - first) as usize] = true;
                }
            }
            match taken.iter().position(|t| !t) {
                Some(c) => assignment[v] = Some(first + c as u32),
                None => {
                    if class == RegClass::Pred && colors_available == 0 {
                        return Err("no allocatable predicate registers".into());
                    }
                    spilled[v] = true;
                    num_spilled += 1;
                }
            }
        }
    }

    // Spill slots.
    let mut slot_of: Vec<Option<usize>> = vec![None; nv];
    let mut next_slot = 0usize;
    for v in 0..nv {
        if spilled[v] {
            slot_of[v] = Some(next_slot);
            next_slot += 1;
        }
    }
    let spill_base = ((globals_size + 7) & !7) as i64;

    // Rewrite instructions.
    for bi in 0..nb {
        let old = std::mem::take(&mut func.blocks[bi].insts);
        let mut new = Vec::with_capacity(old.len());
        for mut inst in old {
            let mut int_t = 0usize;
            let mut float_t = 0usize;
            let mut pred_t = 0usize;
            // Reload guard first (it controls the instruction).
            if let Some(p) = inst.pred {
                let v = p.index();
                if spilled[v] {
                    let slot = spill_base + slot_of[v].unwrap() as i64 * 8;
                    let it = INT_TEMPS[int_t];
                    int_t += 1;
                    let pt = PRED_TEMPS[pred_t];
                    pred_t += 1;
                    new.push(
                        Inst::new(Opcode::Ld(metaopt_ir::Width::B8))
                            .dst(VReg(it))
                            .args(&[VReg(0)])
                            .imm(slot),
                    );
                    new.push(Inst::new(Opcode::I2P).dst(VReg(pt)).args(&[VReg(it)]));
                    inst.pred = Some(VReg(pt));
                } else {
                    inst.pred = Some(VReg(assignment[v].expect("allocated")));
                }
            }
            // Operands.
            for ai in 0..inst.args.len() {
                let v = inst.args[ai].index();
                let class = inst
                    .op
                    .arg_class(ai)
                    .expect("a verified instruction fits its arity");
                if spilled[v] {
                    let slot = spill_base + slot_of[v].unwrap() as i64 * 8;
                    match class {
                        RegClass::Int => {
                            if int_t >= INT_TEMPS.len() {
                                return Err("out of int spill temps".into());
                            }
                            let t = INT_TEMPS[int_t];
                            int_t += 1;
                            new.push(
                                Inst::new(Opcode::Ld(metaopt_ir::Width::B8))
                                    .dst(VReg(t))
                                    .args(&[VReg(0)])
                                    .imm(slot),
                            );
                            inst.args[ai] = VReg(t);
                        }
                        RegClass::Float => {
                            if float_t >= FLOAT_TEMPS.len() - 1 {
                                return Err("out of float spill temps".into());
                            }
                            let t = FLOAT_TEMPS[float_t];
                            float_t += 1;
                            new.push(
                                Inst::new(Opcode::FLd)
                                    .dst(VReg(t))
                                    .args(&[VReg(0)])
                                    .imm(slot),
                            );
                            inst.args[ai] = VReg(t);
                        }
                        RegClass::Pred => {
                            if int_t >= INT_TEMPS.len() || pred_t >= PRED_TEMPS.len() - 1 {
                                return Err("out of pred spill temps".into());
                            }
                            let it = INT_TEMPS[int_t];
                            int_t += 1;
                            let pt = PRED_TEMPS[pred_t];
                            pred_t += 1;
                            new.push(
                                Inst::new(Opcode::Ld(metaopt_ir::Width::B8))
                                    .dst(VReg(it))
                                    .args(&[VReg(0)])
                                    .imm(slot),
                            );
                            new.push(Inst::new(Opcode::I2P).dst(VReg(pt)).args(&[VReg(it)]));
                            inst.args[ai] = VReg(pt);
                        }
                    }
                } else {
                    inst.args[ai] = VReg(assignment[v].expect("allocated"));
                }
            }
            // Destination.
            let mut post: Vec<Inst> = Vec::new();
            if let Some(d) = inst.dst {
                let v = d.index();
                let class = inst.op.dst_class().expect("dst implies class");
                if spilled[v] {
                    let slot = spill_base + slot_of[v].unwrap() as i64 * 8;
                    match class {
                        RegClass::Int => {
                            let t = INT_TEMPS[INT_TEMPS.len() - 1];
                            inst.dst = Some(VReg(t));
                            let mut st = Inst::new(Opcode::St(metaopt_ir::Width::B8))
                                .args(&[VReg(0), VReg(t)])
                                .imm(slot);
                            st.pred = inst.pred; // only write back if executed
                            post.push(st);
                        }
                        RegClass::Float => {
                            let t = FLOAT_TEMPS[FLOAT_TEMPS.len() - 1];
                            inst.dst = Some(VReg(t));
                            let mut st = Inst::new(Opcode::FSt).args(&[VReg(0), VReg(t)]).imm(slot);
                            st.pred = inst.pred;
                            post.push(st);
                        }
                        RegClass::Pred => {
                            let pt = PRED_TEMPS[PRED_TEMPS.len() - 1];
                            let it = INT_TEMPS[INT_TEMPS.len() - 1];
                            inst.dst = Some(VReg(pt));
                            let mut cvt = Inst::new(Opcode::P2I).dst(VReg(it)).args(&[VReg(pt)]);
                            cvt.pred = inst.pred;
                            post.push(cvt);
                            let mut st = Inst::new(Opcode::St(metaopt_ir::Width::B8))
                                .args(&[VReg(0), VReg(it)])
                                .imm(slot);
                            st.pred = inst.pred;
                            post.push(st);
                        }
                    }
                } else {
                    inst.dst = Some(VReg(assignment[v].expect("allocated")));
                }
            }
            new.push(inst);
            new.extend(post);
        }
        func.blocks[bi].insts = new;
    }

    Ok(RaResult {
        spilled: num_spilled,
        mem_size: spill_base as usize + next_slot * 8,
    })
}

/// [`allocate`] as a plan-schedulable [`Pass`]: the mandatory
/// second-to-last step of every plan. Rewrites the function into
/// machine-register form (flipping [`PassCtx::machine_form`] so the
/// invariant checker switches to its shape-and-reachability subset) and
/// records the required memory image size.
pub struct RegallocPass;

impl Pass for RegallocPass {
    fn name(&self) -> &'static str {
        "regalloc"
    }

    fn run(&self, func: &mut Function, ctx: &mut PassCtx<'_>) -> Result<(), CompileError> {
        let ra = allocate(
            func,
            ctx.machine,
            ctx.config.regalloc,
            &ctx.profile,
            ctx.base_mem_size,
        )
        .map_err(|m| CompileError::new(CompileErrorKind::Regalloc, m))?;
        ctx.stats.counters.spills += ra.spilled;
        ctx.mem_size = ra.mem_size;
        ctx.machine_form = true;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaopt_ir::interp::{run, RunConfig};
    use metaopt_sim::simulate;

    fn compile_and_compare(src: &str, machine: &MachineConfig) {
        let prog = metaopt_lang::compile(src).unwrap();
        let prepared = crate::prepare(&prog).unwrap();
        let interp_out = run(&prepared, &RunConfig::default()).unwrap();
        let profile = run(
            &prepared,
            &RunConfig {
                profile: true,
                ..Default::default()
            },
        )
        .unwrap()
        .profile
        .unwrap();
        let compiled = crate::compile(
            &prepared,
            &profile.funcs[0],
            machine,
            &crate::Passes::default(),
        )
        .unwrap();
        let mem = compiled.initial_memory(&prepared);
        let sim = simulate(&compiled.code, machine, mem).unwrap();
        assert_eq!(
            sim.ret, interp_out.ret,
            "simulated result must match interpreter"
        );
    }

    const KERNEL: &str = r#"
        global int xs[64];
        fn main() -> int {
            for (let i = 0; i < 64; i = i + 1) { xs[i] = i * 3 % 17; }
            let a = 0; let b = 1; let c = 2; let d = 3; let e = 4;
            let f = 5; let g = 6; let h = 7; let k = 8; let m = 9;
            for (let i = 0; i < 64; i = i + 1) {
                a = a + xs[i]; b = b + a; c = c + b; d = d + c;
                e = e + d; f = f + e; g = g + f; h = h + g;
                k = k + h; m = m + k;
            }
            return a + b + c + d + e + f + g + h + k + m;
        }
    "#;

    #[test]
    fn allocates_and_matches_interpreter_on_table3() {
        compile_and_compare(KERNEL, &MachineConfig::table3());
    }

    #[test]
    fn spills_correctly_on_tiny_register_file() {
        // 8 int registers (4 allocatable after reservations) forces heavy
        // spilling; the program must still compute the same result.
        let mut m = MachineConfig::table3();
        m.gpr = 8;
        compile_and_compare(KERNEL, &m);
    }

    #[test]
    fn float_pressure_spills() {
        let mut m = MachineConfig::table3();
        m.fpr = 6;
        compile_and_compare(
            r#"
            global float fs[32];
            fn main() -> int {
                for (let i = 0; i < 32; i = i + 1) { fs[i] = i2f(i) * 1.5; }
                let a = 0.0; let b = 1.0; let c = 2.0; let d = 3.0;
                let e = 4.0; let f = 5.0; let g = 6.0;
                for (let i = 0; i < 32; i = i + 1) {
                    a = a + fs[i]; b = b + a; c = c + b; d = d + c;
                    e = e + d; f = f + e; g = g + f;
                }
                return f2i(a + b + c + d + e + f + g);
            }
        "#,
            &m,
        );
    }

    #[test]
    fn spill_count_grows_as_registers_shrink() {
        let prog = metaopt_lang::compile(KERNEL).unwrap();
        let prepared = crate::prepare(&prog).unwrap();
        let profile = run(
            &prepared,
            &RunConfig {
                profile: true,
                ..Default::default()
            },
        )
        .unwrap()
        .profile
        .unwrap();
        let spills_at = |gpr: usize| {
            let mut m = MachineConfig::table3();
            m.gpr = gpr;
            crate::compile(&prepared, &profile.funcs[0], &m, &crate::Passes::default())
                .unwrap()
                .stats
                .counters
                .spills
        };
        assert_eq!(spills_at(64), 0, "Table 3 machine should not spill");
        assert!(spills_at(8) > 0, "8 registers must spill");
        assert!(spills_at(8) >= spills_at(16));
    }

    #[test]
    fn baseline_eq2_prefers_hot_ranges() {
        // Eq. 2 weight scales with frequency and use counts.
        let hot = BaselineEq2.score(&[5.0, 1.0, 10.0, 2.0, 3.0, 4.0, 6.0], &[false, false]);
        let cold = BaselineEq2.score(&[5.0, 1.0, 0.1, 0.0, 3.0, 4.0, 6.0], &[false, false]);
        assert!(hot > cold);
    }
}
