//! Software data prefetching (paper case study III).
//!
//! A Mowry-style selective prefetcher: recognize induction-variable address
//! streams in loops, and for each candidate load ask a **Boolean** priority
//! ("confidence") function whether to emit a non-binding `Prefetch` of the
//! line the load will touch a few iterations ahead. The baseline
//! ([`BaselineTripCount`]) mimics ORC's shipped heuristic — prefetch
//! whenever the loop's trip count is estimable — which the paper found
//! "overzealous"; the evolved functions mostly learn to say no.

use crate::pass::{Pass, PassCtx};
use crate::{BoolPriority, CompileError};
use metaopt_ir::cfg::Cfg;
use metaopt_ir::dom::DomTree;
use metaopt_ir::loops::{LoopForest, NaturalLoop};
use metaopt_ir::profile::FuncProfile;
use metaopt_ir::{Function, Inst, Opcode, VReg};
use metaopt_sim::MachineConfig;

/// Real-valued features per candidate load. Index order is the public
/// contract for confidence functions.
pub const REAL_FEATURES: &[&str] = &[
    "trip_count", // profiled average iterations per loop entry
    "stride",     // signed address stride in bytes per iteration (0 if unknown)
    "abs_stride", // |stride|
    "loop_depth", // nesting depth of the loop
    "body_insts", // static instructions in the loop
    "mem_ops",    // memory operations in the loop
    "num_loads",  // loads in the loop
    "line_reuse", // cache-line size / |stride| (accesses per line)
];

/// Boolean features per candidate load.
pub const BOOL_FEATURES: &[&str] = &["stride_known", "trip_known", "is_float"];

/// The feature names (reals, bools) in index order.
pub fn feature_names() -> (Vec<&'static str>, Vec<&'static str>) {
    (REAL_FEATURES.to_vec(), BOOL_FEATURES.to_vec())
}

/// ORC-like baseline: prefetch whenever the compiler can estimate the trip
/// count (paper §7: "the priority function is simply based upon how well
/// the compiler can estimate loop trip counts"). Deliberately stride-blind
/// — the overzealousness the paper observed in ORC.
pub struct BaselineTripCount;

impl BoolPriority for BaselineTripCount {
    fn decide(&self, _reals: &[f64], bools: &[bool]) -> bool {
        bools[1]
    }
}

/// Definition sites indexed by vreg: the unique defining instruction
/// `(block, index)`, `None` for cells defined more than once or never.
fn single_defs(func: &Function) -> Vec<Option<(usize, usize)>> {
    let mut defs = vec![(0u32, (0, 0)); func.num_vregs()];
    for (bi, b) in func.blocks.iter().enumerate() {
        for (ii, inst) in b.insts.iter().enumerate() {
            if let Some(d) = inst.dst {
                let (count, site) = &mut defs[d.index()];
                *count += 1;
                *site = (bi, ii);
            }
        }
    }
    defs.into_iter()
        .map(|(count, site)| (count == 1).then_some(site))
        .collect()
}

/// Basic induction variables of loop `l`, indexed by vreg: cells `i` whose
/// only in-loop definition is `Mov i, t` with `t = AddI(i, c)` (the
/// frontend's canonical update), or a direct `AddI i <- i, c`. Each holds
/// its step; every other cell `None`.
fn induction_steps(
    func: &Function,
    l: &NaturalLoop,
    defs: &[Option<(usize, usize)>],
) -> Vec<Option<i64>> {
    // In-loop definitions per vreg: how many, and the last one's site.
    let mut in_loop = vec![(0u32, (0, 0)); defs.len()];
    for bi in l.blocks.iter() {
        for (ii, inst) in func.blocks[bi].insts.iter().enumerate() {
            if let Some(d) = inst.dst {
                let (count, site) = &mut in_loop[d.index()];
                *count += 1;
                *site = (bi, ii);
            }
        }
    }
    in_loop
        .iter()
        .enumerate()
        .map(|(reg, &(count, (bi, ii)))| {
            if count != 1 {
                return None;
            }
            let inst = &func.blocks[bi].insts[ii];
            if inst.pred.is_some() {
                return None;
            }
            let reg = reg as u32;
            match inst.op {
                Opcode::AddI if inst.args[0].0 == reg => Some(inst.imm),
                Opcode::Mov => {
                    let (sbi, sii) = defs[inst.args[0].index()]?;
                    let s = &func.blocks[sbi].insts[sii];
                    let update = l.blocks.contains(sbi)
                        && s.op == Opcode::AddI
                        && s.args[0].0 == reg
                        && s.pred.is_none();
                    update.then_some(s.imm)
                }
                _ => None,
            }
        })
        .collect()
}

/// Per-iteration address stride of `reg` (bytes), if derivable: walk the
/// (single-)definition chain treating induction variables as the base case.
fn stride_of(
    func: &Function,
    reg: u32,
    ivs: &[Option<i64>],
    defs: &[Option<(usize, usize)>],
    l: &NaturalLoop,
    depth: usize,
) -> Option<i64> {
    if depth == 0 {
        return None;
    }
    if let Some(s) = ivs[reg as usize] {
        return Some(s);
    }
    // Multiply-defined cells are not induction variables.
    let (bi, ii) = defs[reg as usize]?;
    if !l.blocks.contains(bi) {
        return Some(0); // loop-invariant
    }
    let inst = &func.blocks[bi].insts[ii];
    if inst.pred.is_some() {
        return None;
    }
    let arg = |k: usize| stride_of(func, inst.args[k].0, ivs, defs, l, depth - 1);
    match inst.op {
        Opcode::MovI => Some(0),
        Opcode::Mov | Opcode::AddI => arg(0),
        Opcode::Add => Some(arg(0)? + arg(1)?),
        Opcode::Sub => Some(arg(0)? - arg(1)?),
        Opcode::MulI => Some(arg(0)?.wrapping_mul(inst.imm)),
        Opcode::ShlI => Some(arg(0)?.wrapping_shl(inst.imm as u32 & 63)),
        _ => None,
    }
}

/// Run prefetch insertion over every loop of `func`; returns the number of
/// `Prefetch` instructions inserted.
pub fn insert_prefetches(
    func: &mut Function,
    profile: &FuncProfile,
    machine: &MachineConfig,
    confidence: &dyn BoolPriority,
    iters_ahead: i64,
) -> u64 {
    let cfg = Cfg::new(func);
    let forest = LoopForest::compute(&cfg, &DomTree::compute(&cfg));
    let defs = single_defs(func);
    let line = machine.cache.line_bytes as f64;

    // Collect insertion requests first (block, inst index, prefetch inst).
    let mut requests: Vec<(usize, usize, Inst)> = Vec::new();
    for (li, l) in forest.loops.iter().enumerate() {
        let ivs = induction_steps(func, l, &defs);

        // Loop statistics.
        let header_count = profile.block_count(l.header) as f64;
        let backedges: f64 = l
            .latches
            .iter()
            .map(|&lat| profile.edge_count(lat, l.header) as f64)
            .sum();
        let entries = (header_count - backedges).max(0.0);
        let trip = if entries > 0.0 {
            header_count / entries
        } else {
            0.0
        };
        let body = || l.blocks.iter().flat_map(|b| &func.blocks[b].insts);
        let body_insts = body().count();
        let mem_ops = body().filter(|i| i.op.is_mem()).count() as f64;
        let num_loads = body().filter(|i| i.op.is_load()).count() as f64;

        for bi in l.blocks.iter() {
            // Only innermost placement: skip blocks whose innermost loop is
            // a different (deeper) loop.
            if forest.innermost[bi] != Some(li) {
                continue;
            }
            for (ii, inst) in func.blocks[bi].insts.iter().enumerate() {
                if !inst.op.is_load() {
                    continue;
                }
                let addr = inst.args[0];
                let stride = stride_of(func, addr.0, &ivs, &defs, l, 16);
                let stride_known = stride.is_some_and(|s| s != 0);
                let s = stride.unwrap_or(0);
                let trip_known = trip > 2.0;
                let is_float = inst.op == Opcode::FLd;
                let reals = [
                    trip,
                    s as f64,
                    s.abs() as f64,
                    l.depth as f64,
                    body_insts as f64,
                    mem_ops,
                    num_loads,
                    if s != 0 { line / s.abs() as f64 } else { 0.0 },
                ];
                let bools = [stride_known, trip_known, is_float];
                if confidence.decide(&reals, &bools) {
                    let dist = if stride_known {
                        s * iters_ahead
                    } else {
                        machine.cache.line_bytes as i64
                    };
                    let pf = Inst::new(Opcode::Prefetch)
                        .args(&[VReg(addr.0)])
                        .imm(inst.imm + dist);
                    requests.push((bi, ii, pf));
                }
            }
        }
    }

    // Insert back-to-front so indices stay valid.
    requests.sort_by_key(|r| std::cmp::Reverse((r.0, r.1)));
    let count = requests.len() as u64;
    for (bi, ii, pf) in requests {
        func.blocks[bi].insts.insert(ii, pf);
    }
    count
}

/// [`insert_prefetches`] as a plan-schedulable [`Pass`], reading the
/// confidence function and prefetch distance from the [`PassCtx`] config.
pub struct PrefetchPass;

impl Pass for PrefetchPass {
    fn name(&self) -> &'static str {
        "prefetch"
    }

    fn run(&self, func: &mut Function, ctx: &mut PassCtx<'_>) -> Result<(), CompileError> {
        ctx.stats.counters.prefetches += insert_prefetches(
            func,
            &ctx.profile,
            ctx.machine,
            ctx.config.prefetch,
            ctx.config.prefetch_iters_ahead,
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaopt_ir::interp::{run, RunConfig};

    const STREAM: &str = r#"
        global float a[2048];
        global float b[2048];
        fn main() -> int {
            for (let i = 0; i < 2048; i = i + 1) { a[i] = i2f(i) * 0.5; }
            let s = 0.0;
            for (let r = 0; r < 4; r = r + 1) {
                for (let i = 0; i < 2048; i = i + 1) {
                    s = s + a[i] * 1.0001 + b[i];
                    b[i] = s;
                }
            }
            return f2i(s);
        }
    "#;

    fn prepared_with_profile(src: &str) -> (metaopt_ir::Program, FuncProfile) {
        let prog = metaopt_lang::compile(src).unwrap();
        let prepared = crate::prepare_checked(&prog, true).unwrap();
        let prof = run(
            &prepared,
            &RunConfig {
                profile: true,
                ..Default::default()
            },
        )
        .unwrap()
        .profile
        .unwrap();
        (prepared, prof.funcs[0].clone())
    }

    #[test]
    fn baseline_inserts_prefetches_for_strided_loads() {
        let (prepared, prof) = prepared_with_profile(STREAM);
        let mut func = prepared.funcs[0].clone();
        let n = insert_prefetches(
            &mut func,
            &prof,
            &MachineConfig::itanium_like(),
            &BaselineTripCount,
            8,
        );
        assert!(
            n >= 2,
            "expected prefetches for the streaming loads, got {n}"
        );
        assert!(func
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .any(|i| i.op == Opcode::Prefetch));
    }

    #[test]
    fn prefetches_preserve_semantics() {
        let (prepared, prof) = prepared_with_profile(STREAM);
        let want = run(&prepared, &RunConfig::default()).unwrap().ret;
        let mut func = prepared.funcs[0].clone();
        insert_prefetches(
            &mut func,
            &prof,
            &MachineConfig::itanium_like(),
            &BaselineTripCount,
            8,
        );
        let mut p2 = prepared.clone();
        p2.funcs[0] = func;
        metaopt_ir::verify::verify_program(&p2, metaopt_ir::verify::CfgForm::Canonical).unwrap();
        assert_eq!(run(&p2, &RunConfig::default()).unwrap().ret, want);
    }

    #[test]
    fn never_confidence_inserts_nothing() {
        let (prepared, prof) = prepared_with_profile(STREAM);
        let mut func = prepared.funcs[0].clone();
        let never = |_: &[f64], _: &[bool]| false;
        let n = insert_prefetches(&mut func, &prof, &MachineConfig::itanium_like(), &never, 8);
        assert_eq!(n, 0);
    }

    #[test]
    fn stride_detection_finds_unit_stride() {
        let (prepared, prof) = prepared_with_profile(STREAM);
        let func = &prepared.funcs[0];
        let _ = prof;
        let cfg = Cfg::new(func);
        let forest = LoopForest::compute(&cfg, &DomTree::compute(&cfg));
        let defs = single_defs(func);
        let mut found_stride8 = false;
        for l in &forest.loops {
            let ivs = induction_steps(func, l, &defs);
            for bi in l.blocks.iter() {
                for inst in &func.blocks[bi].insts {
                    if inst.op.is_load() {
                        if let Some(8) = stride_of(func, inst.args[0].0, &ivs, &defs, l, 16) {
                            found_stride8 = true;
                        }
                    }
                }
            }
        }
        assert!(
            found_stride8,
            "float stream loads should have 8-byte stride"
        );
    }

    #[test]
    fn byte_arrays_have_unit_stride() {
        let src = r#"
            global byte data[4096];
            fn main() -> int {
                let s = 0;
                for (let i = 0; i < 4096; i = i + 1) { s = s + data[i]; }
                return s;
            }
        "#;
        let (prepared, prof) = prepared_with_profile(src);
        let mut func = prepared.funcs[0].clone();
        let record = std::sync::Mutex::new(Vec::new());
        let spy = |reals: &[f64], bools: &[bool]| {
            record.lock().unwrap().push((reals[1], bools[0]));
            false
        };
        insert_prefetches(&mut func, &prof, &MachineConfig::itanium_like(), &spy, 8);
        let seen = record.lock().unwrap();
        assert!(
            seen.iter().any(|(s, known)| *s == 1.0 && *known),
            "expected unit-stride candidate: {seen:?}"
        );
    }
}
