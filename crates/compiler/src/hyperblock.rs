//! Hyperblock formation by if-conversion (paper case study I).
//!
//! Reimplements the decision structure of Trimaran/IMPACT's hyperblock
//! selector (Mahlke; Park–Schlansker): enumerate the control paths through
//! an acyclic single-entry region, score each path with a **priority
//! function** over the paper's Table 4 features, and merge paths in priority
//! order until the machine's estimated resources are consumed. The priority
//! function is pluggable ([`RealPriority`]); [`BaselineEq1`] is the paper's
//! Eq. 1.
//!
//! Regions are if-then-else diamonds and if-then triangles, processed
//! innermost-first to a fixpoint so nested conditionals collapse into large
//! multi-path hyperblocks (merged guards are combined with predicate ANDs,
//! and previously-formed side exits are preserved). A path is eligible for
//! inclusion only if its priority is positive; a region is converted only
//! when at least two paths are included — this gives the evolved priority
//! functions full control over both *whether* and *what* to predicate.
//!
//! **Precondition** (guaranteed by the MiniC frontend and preserved by every
//! pass here): values that flow between blocks are multiply-defined cells
//! with a definition on every path or a dominating definition; expression
//! temporaries never cross block boundaries. This is what makes plain
//! guard-predication (without phi insertion) semantics-preserving.

use crate::pass::{Pass, PassCtx};
use crate::{CompileError, RealPriority};
use metaopt_ir::cfg::Cfg;
use metaopt_ir::profile::{BranchStats, FuncProfile};
use metaopt_ir::verify::CfgForm;
use metaopt_ir::{BlockId, Function, Inst, Opcode, RegClass, VReg};
use metaopt_sim::machine::latency_of;
use metaopt_sim::MachineConfig;

/// Real-valued path features (paper Table 4 + min/mean/max/std aggregates
/// over the region's paths, §5.3). Index order is the public contract for
/// priority functions.
pub const REAL_FEATURES: &[&str] = &[
    "dep_height",
    "num_ops",
    "exec_ratio",
    "num_branches",
    "predictability",
    "predict_product",
    "dep_height_min",
    "dep_height_mean",
    "dep_height_max",
    "dep_height_std",
    "num_ops_min",
    "num_ops_mean",
    "num_ops_max",
    "num_ops_std",
    "exec_ratio_min",
    "exec_ratio_mean",
    "exec_ratio_max",
    "exec_ratio_std",
    "num_branches_min",
    "num_branches_mean",
    "num_branches_max",
    "num_branches_std",
    "predictability_min",
    "predictability_mean",
    "predictability_max",
    "predictability_std",
    "predict_product_mean",
    "num_paths",
];

/// Boolean path features (hazards, §5.1).
pub const BOOL_FEATURES: &[&str] = &["mem_hazard", "has_unsafe_jsr", "has_pointer_deref"];

/// The feature names (reals, bools) in index order.
pub fn feature_names() -> (Vec<&'static str>, Vec<&'static str>) {
    (REAL_FEATURES.to_vec(), BOOL_FEATURES.to_vec())
}

/// Per-path feature record.
#[derive(Clone, Debug, Default)]
pub struct PathFeatures {
    /// Real features, ordered as [`REAL_FEATURES`].
    pub reals: Vec<f64>,
    /// Boolean features, ordered as [`BOOL_FEATURES`].
    pub bools: Vec<bool>,
}

/// The paper's Eq. 1 (IMPACT's shipped heuristic):
/// `priority_i = exec_ratio_i · h_i · (2.1 − d_ratio_i − o_ratio_i)` with
/// `h_i = 0.25` for paths containing hazards, 1 otherwise.
pub struct BaselineEq1;

impl RealPriority for BaselineEq1 {
    fn score(&self, reals: &[f64], bools: &[bool]) -> f64 {
        let dep_height = reals[0];
        let num_ops = reals[1];
        let exec_ratio = reals[2];
        let dep_height_max = reals[8].max(1e-9);
        let num_ops_max = reals[12].max(1e-9);
        let hazard = bools[0] || bools[1] || bools[2];
        let h = if hazard { 0.25 } else { 1.0 };
        let d_ratio = dep_height / dep_height_max;
        let o_ratio = num_ops / num_ops_max;
        exec_ratio * h * (2.1 - d_ratio - o_ratio)
    }
}

/// Outcome of the pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HyperblockResult {
    /// Regions if-converted.
    pub regions_converted: u64,
    /// Paths merged across all regions.
    pub paths_merged: u64,
}

/// One candidate path through a region.
pub struct PathInfo {
    /// Conditional blocks along the path (possibly empty for the
    /// fall-through side of a triangle).
    pub blocks: Vec<BlockId>,
    /// Latency-weighted dependence height.
    pub dep_height: f64,
    /// Instruction count.
    pub num_ops: f64,
    /// Execution ratio from the profile.
    pub exec_ratio: f64,
    /// Branches (explicit plus absorbed guards).
    pub num_branches: f64,
    /// 2-bit-predictor accuracy of the region's branch.
    pub predictability: f64,
    /// Contains a store or opaque call.
    pub mem_hazard: bool,
    /// Contains an opaque call.
    pub has_unsafe_jsr: bool,
    /// Contains an indirect (pointer-chasing) load.
    pub has_pointer_deref: bool,
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Dependence height of a straight-line instruction sequence: longest
/// latency-weighted chain through register dependences.
fn dep_height(insts: &[Inst]) -> f64 {
    use std::collections::HashMap;
    let mut ready: HashMap<(RegClass, u32), u64> = HashMap::new();
    let mut height = 0u64;
    for inst in insts {
        let mut start = 0u64;
        if let Some(classes) = inst.op.arg_classes() {
            for (a, c) in inst.args.iter().zip(classes) {
                start = start.max(ready.get(&(*c, a.0)).copied().unwrap_or(0));
            }
        }
        if let Some(p) = inst.pred {
            start = start.max(ready.get(&(RegClass::Pred, p.0)).copied().unwrap_or(0));
        }
        let fin = start + latency_of(inst.op);
        if let (Some(c), Some(d)) = (inst.op.dst_class(), inst.dst) {
            ready.insert((c, d.0), fin);
        }
        height = height.max(fin);
    }
    height as f64
}

/// Registers anywhere in the function that are defined by a load; used to
/// spot indirect ("pointer-chasing") loads, the paper's pointer-deref
/// hazard.
fn load_defined(func: &Function) -> Vec<bool> {
    let mut out = vec![false; func.num_vregs()];
    for b in &func.blocks {
        for inst in &b.insts {
            if inst.op.is_load() {
                if let Some(d) = inst.dst {
                    out[d.index()] = true;
                }
            }
        }
    }
    out
}

fn path_info(
    func: &Function,
    blocks: &[BlockId],
    exec_ratio: f64,
    stats: BranchStats,
    loaded: &[bool],
) -> PathInfo {
    let mut insts: Vec<Inst> = Vec::new();
    for &b in blocks {
        // Exclude the trailing unconditional branch from path cost.
        let bb = func.block(b);
        let end = bb.insts.len().saturating_sub(1);
        insts.extend(bb.insts[..end].iter().cloned());
    }
    // Branches absorbed into this path by earlier merges show up as guard
    // predicates; count distinct guards plus any remaining explicit CBrs.
    let mut guards: Vec<u32> = Vec::new();
    for i in &insts {
        if let Some(g) = i.pred {
            if !guards.contains(&g.0) {
                guards.push(g.0);
            }
        }
    }
    let num_branches =
        insts.iter().filter(|i| i.op == Opcode::CBr).count() as f64 + guards.len() as f64;
    let mem_hazard = insts.iter().any(|i| i.is_hazard());
    let has_unsafe_jsr = insts.iter().any(|i| i.op == Opcode::UnsafeCall);
    let has_pointer_deref = insts
        .iter()
        .any(|i| i.op.is_load() && i.args.first().is_some_and(|a| loaded[a.index()]));
    PathInfo {
        blocks: blocks.to_vec(),
        dep_height: dep_height(&insts),
        num_ops: insts.len() as f64,
        exec_ratio,
        num_branches,
        predictability: stats.predictability(),
        mem_hazard,
        has_unsafe_jsr,
        has_pointer_deref,
    }
}

/// Build the full feature vectors for every path in a region (the paper
/// extracts aggregates "of all path-specific characteristics" to give the
/// greedy local heuristic some global information).
pub fn features_of_region(paths: &[PathInfo]) -> Vec<PathFeatures> {
    let dh: Vec<f64> = paths.iter().map(|p| p.dep_height).collect();
    let no: Vec<f64> = paths.iter().map(|p| p.num_ops).collect();
    let er: Vec<f64> = paths.iter().map(|p| p.exec_ratio).collect();
    let nb: Vec<f64> = paths.iter().map(|p| p.num_branches).collect();
    let pr: Vec<f64> = paths.iter().map(|p| p.predictability).collect();
    let pp: Vec<f64> = paths
        .iter()
        .map(|p| p.predictability * p.exec_ratio)
        .collect();
    let minmax = |xs: &[f64]| {
        (
            xs.iter().copied().fold(f64::INFINITY, f64::min),
            xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        )
    };
    let (dh_min, dh_max) = minmax(&dh);
    let (no_min, no_max) = minmax(&no);
    let (er_min, er_max) = minmax(&er);
    let (nb_min, nb_max) = minmax(&nb);
    let (pr_min, pr_max) = minmax(&pr);
    let num_paths = paths.len() as f64 + paths.iter().map(|p| p.num_branches).sum::<f64>();
    paths
        .iter()
        .enumerate()
        .map(|(i, p)| PathFeatures {
            reals: vec![
                p.dep_height,
                p.num_ops,
                p.exec_ratio,
                p.num_branches,
                p.predictability,
                pp[i],
                dh_min,
                mean(&dh),
                dh_max,
                std_dev(&dh),
                no_min,
                mean(&no),
                no_max,
                std_dev(&no),
                er_min,
                mean(&er),
                er_max,
                std_dev(&er),
                nb_min,
                mean(&nb),
                nb_max,
                std_dev(&nb),
                pr_min,
                mean(&pr),
                pr_max,
                std_dev(&pr),
                mean(&pp),
                num_paths,
            ],
            bools: vec![p.mem_hazard, p.has_unsafe_jsr, p.has_pointer_deref],
        })
        .collect()
}

/// Aggregate branch statistics for a block's (single) conditional branch.
/// Keyed by block only so it survives instruction-index shifts caused by
/// earlier passes.
fn branch_stats_of(profile: &FuncProfile, b: BlockId) -> BranchStats {
    let mut agg = BranchStats::default();
    for ((bb, _), s) in &profile.branches {
        if *bb == b {
            agg.executed += s.executed;
            agg.taken += s.taken;
            agg.correct += s.correct;
        }
    }
    agg
}

/// A matched region: entry block `a` ending with `CBr p -> t; Br f`, with a
/// join `j` and the conditional path blocks on each side.
struct Region {
    a: BlockId,
    taken_path: Vec<BlockId>, // blocks predicated under p
    fall_path: Vec<BlockId>,  // blocks predicated under !p
    join: BlockId,
}

/// Try to match a diamond or triangle rooted at `a`.
fn match_region(func: &Function, a: BlockId, cfg: &Cfg) -> Option<Region> {
    let insts = &func.block(a).insts;
    let n = insts.len();
    if n < 2 {
        return None;
    }
    let (cbr, br) = (&insts[n - 2], &insts[n - 1]);
    if cbr.op != Opcode::CBr || br.op != Opcode::Br || cbr.pred.is_some() {
        return None;
    }
    // Exactly one CBr in the tail (our canonical frontend shape).
    if insts[..n - 2].iter().any(|i| i.op == Opcode::CBr) {
        return None;
    }
    let t = cbr.target?;
    let f = br.target?;
    if t == f || t == a || f == a {
        return None;
    }
    // Follow a chain of straight-line blocks starting at `start` (whose
    // only predecessor must be `from`): each block contains no control flow
    // except a trailing unconditional `Br`. Returns the chain and the block
    // it finally joins (the first block with other predecessors or any
    // non-straight shape).
    let straight_chain = |from: BlockId, start: BlockId| -> Option<(Vec<BlockId>, BlockId)> {
        let mut chain = Vec::new();
        let mut prev = from;
        let mut cur = start;
        loop {
            if chain.len() > 8 {
                return None;
            }
            if cfg.preds(cur) != [prev] {
                return Some((chain, cur));
            }
            let insts = &func.block(cur).insts;
            let last = insts.last()?;
            if last.op != Opcode::Br || insts[..insts.len() - 1].iter().any(|i| i.op.is_control()) {
                return Some((chain, cur));
            }
            chain.push(cur);
            prev = cur;
            cur = last.target?;
            if cur == a {
                return None; // loop backedge, not a hammock
            }
        }
    };
    // Diamond: a -> t-chain -> j and a -> f-chain -> j.
    if let (Some((ct, jt)), Some((cf, jf))) = (straight_chain(a, t), straight_chain(a, f)) {
        if jt == jf && jt != a && !ct.is_empty() && !cf.is_empty() {
            return Some(Region {
                a,
                taken_path: ct,
                fall_path: cf,
                join: jt,
            });
        }
        // Triangle (then on taken side): a -> t-chain -> f.
        if !ct.is_empty() && jt == f {
            return Some(Region {
                a,
                taken_path: ct,
                fall_path: vec![],
                join: f,
            });
        }
        // Triangle (then on fall-through side): a -> f-chain -> t.
        if !cf.is_empty() && jf == t {
            return Some(Region {
                a,
                taken_path: vec![],
                fall_path: cf,
                join: t,
            });
        }
    }
    None
}

/// Cap on merged block size (instructions) to keep schedules sane.
const MAX_MERGED_INSTS: usize = 512;

/// Run hyperblock formation over `func` using `priority`; `profile` supplies
/// execution ratios and branch predictability. Returns conversion counts.
/// The function is left in **hyperblock form** (predicated side exits).
pub fn form_hyperblocks(
    func: &mut Function,
    profile: &FuncProfile,
    machine: &MachineConfig,
    priority: &dyn RealPriority,
) -> HyperblockResult {
    let mut result = HyperblockResult::default();
    loop {
        let mut changed = false;
        let cfg = Cfg::new(func);
        let loaded = load_defined(func);
        for a in (0..func.blocks.len() as u32).map(BlockId) {
            let Some(region) = match_region(func, a, &cfg) else {
                continue;
            };
            let stats = branch_stats_of(profile, a);
            let taken_ratio = stats.taken_ratio();
            let p_taken = path_info(func, &region.taken_path, taken_ratio, stats, &loaded);
            let p_fall = path_info(func, &region.fall_path, 1.0 - taken_ratio, stats, &loaded);
            let total_ops = p_taken.num_ops + p_fall.num_ops;
            if total_ops as usize + func.block(a).insts.len() > MAX_MERGED_INSTS {
                continue;
            }
            let paths = [p_taken, p_fall];
            let feats = features_of_region(&paths);
            let scores: Vec<f64> = feats
                .iter()
                .map(|f| priority.score(&f.reals, &f.bools))
                .collect();
            // Select paths in priority order while the estimated resources
            // last (IMPACT §5.2); only positive-priority paths are eligible.
            let mut order: Vec<usize> = (0..paths.len()).collect();
            order.sort_by(|&x, &y| {
                scores[y]
                    .partial_cmp(&scores[x])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            // Architecture-fixed resource budget (IMPACT "stops merging
            // paths when it has consumed the target architecture's
            // estimated resources"): the compute slots available inside a
            // misprediction shadow. Instructions already predicated into
            // `a` by earlier merges count against it, which is what stops
            // deep else-if chains from collapsing into one giant block.
            let compute_slots = (machine.int_units + machine.fp_units + machine.mem_units) as f64;
            let budget = compute_slots * (machine.mispredict_penalty + 2) as f64;
            let mut cumulative = func
                .block(a)
                .insts
                .iter()
                .filter(|i| i.pred.is_some())
                .count() as f64;
            // Mahlke's relative selection threshold: paths scoring far
            // below the region's best path are not worth predicating in.
            let best_score = order.first().map(|&i| scores[i]).unwrap_or(0.0).max(0.0);
            let mut selected = Vec::new();
            for &i in &order {
                if scores[i] <= 0.0 || scores[i] < 0.10 * best_score {
                    continue;
                }
                if cumulative + paths[i].num_ops <= budget {
                    cumulative += paths[i].num_ops;
                    selected.push(i);
                }
            }
            if selected.len() < 2 {
                continue;
            }
            // Convert.
            if_convert(func, &region);
            result.regions_converted += 1;
            result.paths_merged += selected.len() as u64;
            changed = true;
            break; // predecessor lists are stale; recompute
        }
        if !changed {
            break;
        }
    }
    result
}

/// Predicate `inst` under `guard`, combining with any existing guard via a
/// freshly inserted `PAnd` (whose own result is only meaningful when the
/// outer guard is true — exactly the nullification semantics we need).
fn guard_inst(func: &mut Function, out: &mut Vec<Inst>, inst: &Inst, guard: VReg) {
    match inst.pred {
        None => {
            let mut ni = inst.clone();
            ni.pred = Some(guard);
            out.push(ni);
        }
        Some(g) => {
            let combined = func.new_vreg(RegClass::Pred);
            out.push(Inst::new(Opcode::PAnd).dst(combined).args(&[guard, g]));
            let mut ni = inst.clone();
            ni.pred = Some(combined);
            out.push(ni);
        }
    }
}

/// Perform the if-conversion for a matched region.
fn if_convert(func: &mut Function, region: &Region) {
    let insts = &func.block(region.a).insts;
    let n = insts.len();
    let cbr = insts[n - 2].clone();
    debug_assert_eq!(cbr.op, Opcode::CBr);
    let p = cbr.args[0];

    // Drop the region's CBr + Br from `a`.
    let mut merged: Vec<Inst> = func.block(region.a).insts[..n - 2].to_vec();

    // !p for the fall-through side.
    let np = func.new_vreg(RegClass::Pred);
    merged.push(Inst::new(Opcode::PNot).dst(np).args(&[p]));

    let absorb = |func: &mut Function, merged: &mut Vec<Inst>, path: &[BlockId], g: VReg| {
        for &b in path {
            let body: Vec<Inst> = {
                let bb = func.block(b);
                bb.insts[..bb.insts.len() - 1].to_vec() // drop trailing Br
            };
            for inst in &body {
                guard_inst(func, merged, inst, g);
            }
            // Stub out the absorbed block (now unreachable).
            func.block_mut(b).insts = vec![Inst::new(Opcode::Ret)];
        }
    };
    absorb(func, &mut merged, &region.taken_path, p);
    absorb(func, &mut merged, &region.fall_path, np);

    merged.push(Inst::new(Opcode::Br).target(region.join));
    func.block_mut(region.a).insts = merged;
}

/// [`form_hyperblocks`] as a plan-schedulable [`Pass`]. Owns the
/// form-transition and profile-remap logic that if-conversion causes: the
/// CFG discipline loosens to [`CfgForm::Hyperblock`], absorbed blocks are
/// pruned, and the block profile is renumbered to match so downstream
/// passes (e.g. the allocator's block weights) stay aligned.
pub struct HyperblockPass;

impl Pass for HyperblockPass {
    fn name(&self) -> &'static str {
        "hyperblock"
    }

    fn run(&self, func: &mut Function, ctx: &mut PassCtx<'_>) -> Result<(), CompileError> {
        let r = form_hyperblocks(func, &ctx.profile, ctx.machine, ctx.config.hyperblock);
        ctx.stats.counters.hyperblocks += r.regions_converted;
        ctx.stats.counters.paths_merged += r.paths_merged;
        ctx.form = CfgForm::Hyperblock;
        // If-conversion tombstones the absorbed blocks; delete them and
        // renumber the profile to match.
        let map = func.prune_unreachable_blocks();
        if map.iter().any(|m| m.is_none()) {
            ctx.profile = std::borrow::Cow::Owned(ctx.profile.remap_blocks(&map));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaopt_ir::interp::{run, RunConfig};
    use metaopt_ir::verify::{verify_function, CfgForm};

    /// Benchmark with an unpredictable branch in a hot loop — the canonical
    /// case where predication wins (paper Fig. 3).
    const UNPREDICTABLE: &str = r#"
        global int xs[256];
        global int seed;
        fn main() -> int {
            seed = 12345;
            for (let i = 0; i < 256; i = i + 1) {
                seed = (seed * 1103515245 + 12345) % 2147483648;
                xs[i] = seed % 997;
            }
            let s = 0;
            for (let r = 0; r < 20; r = r + 1) {
                for (let i = 0; i < 256; i = i + 1) {
                    if (xs[i] % 2 == 0) { s = s + xs[i] * 3; } else { s = s - xs[i] * 2; }
                }
            }
            return s;
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
    fn baseline_converts_the_diamond_and_preserves_semantics() {
        let (prepared, prof) = prepared_with_profile(UNPREDICTABLE);
        let want = run(&prepared, &RunConfig::default()).unwrap().ret;
        let mut func = prepared.funcs[0].clone();
        let r = form_hyperblocks(&mut func, &prof, &MachineConfig::table3(), &BaselineEq1);
        assert!(r.regions_converted >= 1, "{r:?}");
        verify_function(&func, CfgForm::Hyperblock).unwrap();
        let mut p2 = prepared.clone();
        p2.funcs[0] = func;
        let got = run(&p2, &RunConfig::default()).unwrap().ret;
        assert_eq!(got, want);
    }

    #[test]
    fn negative_priority_disables_conversion() {
        let (prepared, prof) = prepared_with_profile(UNPREDICTABLE);
        let mut func = prepared.funcs[0].clone();
        let never = |_: &[f64], _: &[bool]| -1.0;
        let r = form_hyperblocks(&mut func, &prof, &MachineConfig::table3(), &never);
        assert_eq!(r.regions_converted, 0);
    }

    #[test]
    fn arbitrary_priority_functions_preserve_semantics() {
        // The GP explores wild functions; none may change program results.
        let (prepared, prof) = prepared_with_profile(UNPREDICTABLE);
        let want = run(&prepared, &RunConfig::default()).unwrap().ret;
        type PriorityFn = Box<dyn Fn(&[f64], &[bool]) -> f64 + Sync>;
        let weird_fns: Vec<PriorityFn> = vec![
            Box::new(|r: &[f64], _: &[bool]| r[1] - r[0]),
            Box::new(|r: &[f64], b: &[bool]| if b[0] { 100.0 } else { r[2] * 50.0 }),
            Box::new(|_: &[f64], _: &[bool]| 1e9),
            Box::new(|r: &[f64], _: &[bool]| (r[27] - 2.0) * 7.3),
        ];
        for f in &weird_fns {
            let mut func = prepared.funcs[0].clone();
            let fr = |r: &[f64], b: &[bool]| f(r, b);
            form_hyperblocks(&mut func, &prof, &MachineConfig::table3(), &fr);
            verify_function(&func, CfgForm::Hyperblock).unwrap();
            let mut p2 = prepared.clone();
            p2.funcs[0] = func;
            assert_eq!(run(&p2, &RunConfig::default()).unwrap().ret, want);
        }
    }

    #[test]
    fn nested_diamonds_collapse() {
        let src = r#"
            global int xs[128];
            fn main() -> int {
                for (let i = 0; i < 128; i = i + 1) { xs[i] = (i * 37 + 11) % 101; }
                let s = 0;
                for (let i = 0; i < 128; i = i + 1) {
                    let v = xs[i];
                    if (v % 2 == 0) {
                        if (v % 3 == 0) { s = s + 2 * v; } else { s = s + v; }
                    } else {
                        s = s - 1;
                    }
                }
                return s;
            }
        "#;
        let (prepared, prof) = prepared_with_profile(src);
        let want = run(&prepared, &RunConfig::default()).unwrap().ret;
        let mut func = prepared.funcs[0].clone();
        let always = |_: &[f64], _: &[bool]| 10.0;
        let r = form_hyperblocks(&mut func, &prof, &MachineConfig::table3(), &always);
        assert!(
            r.regions_converted >= 2,
            "inner and outer should both convert: {r:?}"
        );
        verify_function(&func, CfgForm::Hyperblock).unwrap();
        let mut p2 = prepared.clone();
        p2.funcs[0] = func;
        assert_eq!(run(&p2, &RunConfig::default()).unwrap().ret, want);
    }

    #[test]
    fn triangles_convert() {
        let src = r#"
            global int xs[64];
            fn main() -> int {
                for (let i = 0; i < 64; i = i + 1) { xs[i] = (i * 53) % 31; }
                let s = 0;
                for (let i = 0; i < 64; i = i + 1) {
                    if (xs[i] % 2 == 0) { s = s + xs[i]; }
                }
                return s;
            }
        "#;
        let (prepared, prof) = prepared_with_profile(src);
        let want = run(&prepared, &RunConfig::default()).unwrap().ret;
        let mut func = prepared.funcs[0].clone();
        let always = |_: &[f64], _: &[bool]| 5.0;
        let r = form_hyperblocks(&mut func, &prof, &MachineConfig::table3(), &always);
        assert!(r.regions_converted >= 1, "{r:?}");
        let mut p2 = prepared.clone();
        p2.funcs[0] = func;
        assert_eq!(run(&p2, &RunConfig::default()).unwrap().ret, want);
    }

    #[test]
    fn eq1_baseline_scores_sensibly() {
        // Hot, short, hazard-free paths score high.
        let mut reals = vec![0.0; REAL_FEATURES.len()];
        reals[0] = 2.0; // dep_height
        reals[1] = 4.0; // num_ops
        reals[2] = 0.9; // exec_ratio
        reals[8] = 4.0; // dep_height_max
        reals[12] = 8.0; // num_ops_max
        let hot = BaselineEq1.score(&reals, &[false, false, false]);
        let hazardous = BaselineEq1.score(&reals, &[true, false, false]);
        assert!(hot > 0.0);
        assert!((hazardous - hot * 0.25).abs() < 1e-12);
        reals[2] = 0.1;
        let cold = BaselineEq1.score(&reals, &[false, false, false]);
        assert!(cold < hot);
    }

    #[test]
    fn feature_vector_matches_declared_names() {
        let (prepared, prof) = prepared_with_profile(UNPREDICTABLE);
        let func = &prepared.funcs[0];
        let loaded = load_defined(func);
        // Find any diamond and check the feature vector shape.
        let cfg = Cfg::new(func);
        let mut found = false;
        for a in (0..func.blocks.len() as u32).map(BlockId) {
            if let Some(region) = match_region(func, a, &cfg) {
                let stats = branch_stats_of(&prof, a);
                let p1 = path_info(func, &region.taken_path, 0.5, stats, &loaded);
                let p2 = path_info(func, &region.fall_path, 0.5, stats, &loaded);
                let feats = features_of_region(&[p1, p2]);
                assert_eq!(feats[0].reals.len(), REAL_FEATURES.len());
                assert_eq!(feats[0].bools.len(), BOOL_FEATURES.len());
                found = true;
                break;
            }
        }
        assert!(found, "test program must contain a diamond");
    }
}
