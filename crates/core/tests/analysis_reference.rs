//! The IR analyses pinned to straightforward references kept in this file.
//!
//! Under test: the flat [`Cfg`], [`Liveness`] (with its live ranges),
//! [`DomTree`], [`LoopForest`] and [`DefBeforeUse`]. The references rescan
//! each block's branches for its edges, walk each block's instructions as
//! its transfer function over per-block sets iterated round-robin to a
//! fixpoint from the same initialisation (⊥ for may problems, ⊤ for must
//! ones), compute dominators by set intersection over predecessors, and
//! natural loops by backward reachability from each back edge.
//!
//! Inputs: every suite kernel at every pass boundary of the five plans the
//! `compile-regalloc` sweep compiles, and random CFGs with self-loops,
//! unreachable blocks, duplicate successor edges and predicated multi-exit
//! blocks.

use metaopt::study::ExprPriority;
use metaopt::{experiment, study, PreparedBench};
use metaopt_analysis::DefBeforeUse;
use metaopt_compiler::{PassCtx, PassManager, Passes, PipelinePlan};
use metaopt_ir::builder::FunctionBuilder;
use metaopt_ir::cfg::Cfg;
use metaopt_ir::dom::DomTree;
use metaopt_ir::liveness::Liveness;
use metaopt_ir::loops::LoopForest;
use metaopt_ir::util::BitMatrix;
use metaopt_ir::{BlockId, Function, Inst, Opcode, RegClass, VReg};
use proptest::prelude::*;

/// One set per block, as a membership vector over the fact domain.
type Sets = Vec<Vec<bool>>;

fn sets(m: &BitMatrix) -> Sets {
    (0..m.rows())
        .map(|r| (0..m.cols()).map(|c| m.contains(r, c)).collect())
        .collect()
}

fn bid(b: usize) -> BlockId {
    BlockId(b as u32)
}

// ------------------------------------------------------------------ graph

/// Edges rescanned from the instructions, and a recursive depth-first
/// search from the entry.
struct RefCfg {
    succs: Vec<Vec<usize>>,
    preds: Vec<Vec<usize>>,
    rpo: Vec<usize>,
    reachable: Vec<bool>,
}

fn ref_cfg(f: &Function) -> RefCfg {
    let succs: Vec<Vec<usize>> = f
        .blocks
        .iter()
        .map(|b| {
            b.insts
                .iter()
                .filter(|i| matches!(i.op, Opcode::CBr | Opcode::Br))
                .filter_map(|i| i.target.map(|t| t.index()))
                .collect()
        })
        .collect();
    let mut preds = vec![Vec::new(); succs.len()];
    for (b, ss) in succs.iter().enumerate() {
        for &s in ss {
            preds[s].push(b);
        }
    }
    fn visit(b: usize, succs: &[Vec<usize>], seen: &mut [bool], post: &mut Vec<usize>) {
        seen[b] = true;
        for &s in &succs[b] {
            if !seen[s] {
                visit(s, succs, seen, post);
            }
        }
        post.push(b);
    }
    let mut reachable = vec![false; succs.len()];
    let mut rpo = Vec::new();
    visit(f.entry.index(), &succs, &mut reachable, &mut rpo);
    rpo.reverse();
    RefCfg {
        succs,
        preds,
        rpo,
        reachable,
    }
}

fn check_cfg(cfg: &Cfg, r: &RefCfg, at: &str) {
    let ix = |bs: &[BlockId]| bs.iter().map(|b| b.index()).collect::<Vec<_>>();
    assert_eq!(cfg.num_blocks(), r.succs.len(), "{at}: block count");
    for b in 0..r.succs.len() {
        assert_eq!(
            ix(cfg.succs(bid(b))),
            r.succs[b],
            "{at}: successors of b{b}"
        );
        assert_eq!(
            ix(cfg.preds(bid(b))),
            r.preds[b],
            "{at}: predecessors of b{b}"
        );
        assert_eq!(
            cfg.is_reachable(bid(b)),
            r.reachable[b],
            "{at}: b{b} reachable"
        );
        let pos = r.rpo.iter().position(|&x| x == b);
        assert_eq!(cfg.rpo_pos(bid(b)), pos, "{at}: RPO position of b{b}");
    }
    assert_eq!(ix(cfg.rpo()), r.rpo, "{at}: reverse postorder");
}

// ------------------------------------------------------------- dominators

/// `dom[b][d]`: `d` dominates `b`. Reachable blocks: the greatest solution
/// of `Dom(b) = {b} ∪ ⋂ Dom(p)` over reachable predecessors; unreachable
/// blocks dominate and are dominated by themselves only.
fn ref_dominators(r: &RefCfg, entry: usize) -> Sets {
    let nb = r.succs.len();
    let only = |b: usize| (0..nb).map(|d| d == b).collect::<Vec<_>>();
    let mut dom: Sets = (0..nb)
        .map(|b| if b == entry { only(b) } else { vec![true; nb] })
        .collect();
    loop {
        let mut changed = false;
        for b in 0..nb {
            if b == entry || !r.reachable[b] {
                continue;
            }
            let mut next = vec![true; nb];
            for &p in r.preds[b].iter().filter(|&&p| r.reachable[p]) {
                for (x, &d) in next.iter_mut().zip(&dom[p]) {
                    *x &= d;
                }
            }
            next[b] = true;
            if next != dom[b] {
                dom[b] = next;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    for b in (0..nb).filter(|&b| !r.reachable[b]) {
        dom[b] = only(b);
    }
    dom
}

fn check_dominators(dt: &DomTree, r: &RefCfg, dom: &Sets, entry: usize, at: &str) {
    let nb = dom.len();
    let size = |b: usize| dom[b].iter().filter(|&&x| x).count();
    for (b, dom_b) in dom.iter().enumerate() {
        // The immediate dominator is the strict dominator deepest in the tree.
        let idom = (0..nb)
            .filter(|&d| d != b && dom_b[d])
            .max_by_key(|&d| size(d))
            .filter(|_| b != entry && r.reachable[b]);
        assert_eq!(dt.idom[b], idom.map(bid), "{at}: idom of b{b}");
        assert_eq!(
            dt.is_reachable(bid(b)),
            r.reachable[b],
            "{at}: b{b} reachable"
        );
        for (a, &dominates) in dom_b.iter().enumerate() {
            assert_eq!(
                dt.dominates(bid(a), bid(b)),
                dominates,
                "{at}: b{a} dom b{b}"
            );
        }
    }
}

// ------------------------------------------------------------------ loops

struct RefLoop {
    header: usize,
    latches: Vec<usize>,
    blocks: Vec<bool>,
}

/// Back edges `u → h` (`h` dominates `u`) found walking blocks in reverse
/// postorder and successors in order, grouped by header in first-seen
/// order; each back edge's loop is `h` plus every reachable block that
/// reaches `u` without passing through `h`, and a header's loop is the
/// union over its back edges.
fn ref_loops(r: &RefCfg, dom: &Sets) -> Vec<RefLoop> {
    let nb = dom.len();
    let mut loops: Vec<RefLoop> = Vec::new();
    for &u in &r.rpo {
        for &h in &r.succs[u] {
            if !dom[u][h] {
                continue;
            }
            let mut body = vec![false; nb];
            body[h] = true;
            let mut stack = vec![u];
            while let Some(b) = stack.pop() {
                if !body[b] {
                    body[b] = true;
                    stack.extend(r.preds[b].iter().filter(|&&p| r.reachable[p]));
                }
            }
            match loops.iter_mut().find(|l| l.header == h) {
                Some(l) => {
                    l.latches.push(u);
                    for (x, y) in l.blocks.iter_mut().zip(body) {
                        *x |= y;
                    }
                }
                None => loops.push(RefLoop {
                    header: h,
                    latches: vec![u],
                    blocks: body,
                }),
            }
        }
    }
    loops
}

fn check_loops(forest: &LoopForest, cfg: &Cfg, r: &RefCfg, loops: &[RefLoop], at: &str) {
    let nb = r.succs.len();
    let size = |l: &RefLoop| l.blocks.iter().filter(|&&x| x).count();
    // Natural loops nest or are disjoint, so the smallest strictly
    // enclosing loop, and the smallest loop holding a block, are unique.
    let smallest = |pick: &dyn Fn(usize) -> bool| {
        (0..loops.len())
            .filter(|&j| pick(j))
            .min_by_key(|&j| size(&loops[j]))
    };
    let parent: Vec<Option<usize>> = (0..loops.len())
        .map(|i| smallest(&|j| j != i && loops[j].blocks[loops[i].header]))
        .collect();
    let depth = |mut i: usize| {
        let mut d = 1;
        while let Some(p) = parent[i] {
            d += 1;
            i = p;
        }
        d
    };
    assert_eq!(forest.loops.len(), loops.len(), "{at}: loop count");
    for (i, (got, want)) in forest.loops.iter().zip(loops).enumerate() {
        assert_eq!(got.header.index(), want.header, "{at}: header of loop {i}");
        let latches: Vec<usize> = got.latches.iter().map(|b| b.index()).collect();
        assert_eq!(latches, want.latches, "{at}: latches of loop {i}");
        let blocks: Vec<bool> = (0..nb).map(|b| got.blocks.contains(b)).collect();
        assert_eq!(blocks, want.blocks, "{at}: blocks of loop {i}");
        assert_eq!(got.parent, parent[i], "{at}: parent of loop {i}");
        assert_eq!(got.depth, depth(i), "{at}: depth of loop {i}");
        let mut exits = Vec::new();
        for b in (0..nb).filter(|&b| want.blocks[b]) {
            for &s in &r.succs[b] {
                if !want.blocks[s] && !exits.contains(&s) {
                    exits.push(s);
                }
            }
        }
        let got_exits: Vec<usize> = got.exit_targets(cfg).iter().map(|b| b.index()).collect();
        assert_eq!(got_exits, exits, "{at}: exit targets of loop {i}");
    }
    for b in 0..nb {
        let inner = smallest(&|j| loops[j].blocks[b]);
        assert_eq!(forest.innermost[b], inner, "{at}: innermost loop of b{b}");
        assert_eq!(
            forest.depth_of(bid(b)),
            inner.map_or(0, depth),
            "{at}: depth of b{b}"
        );
    }
}

// --------------------------------------------------------------- dataflow

/// Round-robin fixpoint: visit blocks in index order, each joining its
/// neighbours' output sides into its input side (from the boundary fact
/// where nothing flows in, or at the entry going forward) and applying
/// `walk`, until a whole pass changes nothing. Every side starts at ⊥ for
/// may problems and ⊤ for must ones. Returns (entry sides, exit sides).
fn round_robin(
    r: &RefCfg,
    entry: usize,
    n: usize,
    forward: bool,
    must: bool,
    boundary: &[bool],
    walk: impl Fn(usize, &[bool]) -> Vec<bool>,
) -> (Sets, Sets) {
    let nb = r.succs.len();
    let mut input: Sets = vec![vec![must; n]; nb];
    let mut output: Sets = vec![vec![must; n]; nb];
    loop {
        let mut changed = false;
        for b in 0..nb {
            let from = if forward { &r.preds[b] } else { &r.succs[b] };
            let at_boundary = if forward { b == entry } else { from.is_empty() };
            let mut acc = if at_boundary {
                boundary.to_vec()
            } else {
                vec![must; n]
            };
            for &p in from {
                for (a, &o) in acc.iter_mut().zip(&output[p]) {
                    *a = if must { *a && o } else { *a || o };
                }
            }
            let out = walk(b, &acc);
            changed |= acc != input[b] || out != output[b];
            input[b] = acc;
            output[b] = out;
        }
        if !changed {
            break;
        }
    }
    if forward {
        (input, output)
    } else {
        (output, input)
    }
}

fn check_liveness(f: &Function, cfg: &Cfg, r: &RefCfg, at: &str) {
    let nv = f.num_vregs();
    let (live_in, live_out) = round_robin(
        r,
        f.entry.index(),
        nv,
        false,
        false,
        &vec![false; nv],
        |b, out| {
            // Backwards through the block: an unguarded def kills, a guarded
            // one reads the old value (it may not execute), operands read.
            let mut live = out.to_vec();
            for inst in f.blocks[b].insts.iter().rev() {
                if let Some(d) = inst.dst {
                    live[d.index()] = inst.pred.is_some();
                }
                for v in inst.reads() {
                    live[v.index()] = true;
                }
            }
            live
        },
    );
    let lv = Liveness::compute(f, cfg);
    assert_eq!(sets(&lv.live_in), live_in, "{at}: live-in");
    assert_eq!(sets(&lv.live_out), live_out, "{at}: live-out");
    // A live range holds the blocks where its vreg is live or referenced.
    let ranges = sets(&lv.ranges(f));
    for (v, row) in ranges.iter().enumerate() {
        for (b, &got) in row.iter().enumerate() {
            let touched = f.blocks[b]
                .insts
                .iter()
                .any(|i| i.dst == Some(VReg(v as u32)) || i.reads().any(|x| x.index() == v));
            let want = live_in[b][v] || live_out[b][v] || touched;
            assert_eq!(got, want, "{at}: live range of v{v} at b{b}");
        }
    }
}

/// Predicated definitions count as assignments.
fn check_def_before_use(f: &Function, cfg: &Cfg, r: &RefCfg, at: &str) {
    let nv = f.num_vregs();
    let mut boundary = vec![false; nv];
    for p in &f.params {
        boundary[p.index()] = true;
    }
    let (entry, exit) = round_robin(r, f.entry.index(), nv, true, true, &boundary, |b, input| {
        let mut assigned = input.to_vec();
        for inst in &f.blocks[b].insts {
            if let Some(d) = inst.dst {
                assigned[d.index()] = true;
            }
        }
        assigned
    });
    let dbu = DefBeforeUse::compute(f, cfg);
    assert_eq!(sets(&dbu.entry), entry, "{at}: assigned at entries");
    assert_eq!(sets(&dbu.exit), exit, "{at}: assigned at exits");
}

/// Compare every analysis of `f` with its reference. `virtual_regs` is
/// false once register allocation has turned operands into machine
/// registers, where only the graph analyses apply.
fn check_all(f: &Function, virtual_regs: bool, at: &str) {
    let entry = f.entry.index();
    let cfg = Cfg::new(f);
    let r = ref_cfg(f);
    check_cfg(&cfg, &r, at);
    let dom = ref_dominators(&r, entry);
    let dt = DomTree::compute(&cfg);
    check_dominators(&dt, &r, &dom, entry, at);
    check_loops(
        &LoopForest::compute(&cfg, &dt),
        &cfg,
        &r,
        &ref_loops(&r, &dom),
        at,
    );
    if virtual_regs {
        check_liveness(f, &cfg, &r, at);
        check_def_before_use(f, &cfg, &r, at);
    }
}

// ------------------------------------------------------------ suite input

/// The plans the `compile-regalloc` sweep compiles: the study's own plan,
/// then the default ablation plans, deduplicated.
fn sweep_plans(study: &study::StudyConfig) -> Vec<PipelinePlan> {
    let mut plans = vec![study.plan.clone()];
    for p in experiment::default_ablation_plans() {
        if plans.iter().all(|q| q.to_string() != p.to_string()) {
            plans.push(p);
        }
    }
    plans
}

#[test]
fn analyses_match_the_reference_at_every_suite_pass_boundary() {
    let study = study::regalloc();
    let plans = sweep_plans(&study);
    assert_eq!(
        plans.len(),
        5,
        "the compile-regalloc sweep compiles five plans"
    );
    let pri = ExprPriority(&study.baseline_seed);
    let mut boundaries = 0;
    for bench in metaopt_suite::all_benchmarks() {
        let pb = PreparedBench::try_new(&study, &bench).expect("suite kernel prepares");
        check_all(
            &pb.prepared.funcs[0],
            true,
            &format!("{} prepared", bench.name),
        );
        for plan in &plans {
            let passes = Passes {
                plan: plan.clone(),
                ..study.passes_with(&pri)
            };
            let mut func = pb.prepared.funcs[0].clone();
            let mut ctx = PassCtx::new(
                &pb.profile,
                &study.machine,
                &passes,
                pb.prepared.memory_size(),
            );
            for pass in PassManager::from_plan(plan).passes() {
                pass.run(&mut func, &mut ctx)
                    .expect("baseline compile succeeds");
                let at = format!("{} under {plan} after {}", bench.name, pass.name());
                check_all(&func, !ctx.machine_form, &at);
                boundaries += 1;
            }
        }
    }
    assert!(
        boundaries >= 40 * 5 * 2,
        "only {boundaries} boundaries checked"
    );
}

// ----------------------------------------------------------- random input

/// One instruction of a random block: register numbers and targets are
/// reduced modulo what the function has.
#[derive(Clone, Debug)]
enum Op {
    /// `int[d] = int[a] + int[b]`.
    Add(u8, u8, u8),
    /// `int[d] = 1`.
    Movi(u8),
    /// `pred[d] = int[a] < int[b]`.
    Cmp(u8, u8, u8),
    /// A side exit `cbr pred[p] -> block[t]` before the block's end.
    SideExit(u8, u8),
}

#[derive(Clone, Debug)]
enum Term {
    Ret(u8),
    Br(u8),
    /// `cbr pred[p] -> t; br f`, where `t` may equal `f` or the block itself.
    Branch(u8, u8, u8),
}

/// Instructions with an optional guard predicate, and a terminator.
type BlockSpec = (Vec<(Op, Option<u8>)>, Term);

const INTS: usize = 4;
const PREDS: usize = 3;

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(d, a, b)| Op::Add(d, a, b)),
        1 => any::<u8>().prop_map(Op::Movi),
        2 => (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(d, a, b)| Op::Cmp(d, a, b)),
        1 => (any::<u8>(), any::<u8>()).prop_map(|(p, t)| Op::SideExit(p, t)),
    ]
}

fn arb_guard() -> impl Strategy<Value = Option<u8>> {
    prop_oneof![2 => Just(None), 1 => any::<u8>().prop_map(Some)]
}

fn arb_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        1 => any::<u8>().prop_map(Term::Ret),
        2 => any::<u8>().prop_map(Term::Br),
        3 => (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(p, t, f)| Term::Branch(p, t, f)),
    ]
}

fn arb_block() -> impl Strategy<Value = BlockSpec> {
    (
        proptest::collection::vec((arb_op(), arb_guard()), 0..6),
        arb_term(),
    )
}

fn build(spec: &[BlockSpec]) -> Function {
    let nb = spec.len();
    let mut fb = FunctionBuilder::new("random");
    let mut ints: Vec<VReg> = (0..2).map(|_| fb.param(RegClass::Int)).collect();
    ints.extend((2..INTS).map(|_| fb.new_vreg(RegClass::Int)));
    let preds: Vec<VReg> = (0..PREDS).map(|_| fb.new_vreg(RegClass::Pred)).collect();
    let mut blocks = vec![fb.current()];
    blocks.extend((1..nb).map(|_| fb.new_block()));
    let int = |x: u8| ints[x as usize % INTS];
    let pred = |x: u8| preds[x as usize % PREDS];
    let block = |x: u8| blocks[x as usize % nb];
    for (b, (ops, term)) in spec.iter().enumerate() {
        fb.switch_to(blocks[b]);
        for (op, guard) in ops {
            let inst = match *op {
                Op::Add(d, a, c) => Inst::new(Opcode::Add).dst(int(d)).args(&[int(a), int(c)]),
                Op::Movi(d) => Inst::new(Opcode::MovI).dst(int(d)).imm(1),
                Op::Cmp(d, a, c) => Inst::new(Opcode::CmpLt)
                    .dst(pred(d))
                    .args(&[int(a), int(c)]),
                Op::SideExit(p, t) => Inst::new(Opcode::CBr).args(&[pred(p)]).target(block(t)),
            };
            fb.push(match guard {
                Some(g) => inst.guarded(pred(*g)),
                None => inst,
            });
        }
        match *term {
            Term::Ret(a) => fb.ret(Some(int(a))),
            Term::Br(t) => fb.br(block(t)),
            Term::Branch(p, t, f) => fb.branch(pred(p), block(t), block(f)),
        }
    }
    fb.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn analyses_match_the_reference_on_random_cfgs(
        spec in proptest::collection::vec(arb_block(), 1..9)
    ) {
        let f = build(&spec);
        check_all(&f, true, &format!("random function\n{f}"));
    }
}
