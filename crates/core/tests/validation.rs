//! Semantic-validation acceptance suite: the translation validators and
//! the abstract interpreter prove their two contractual properties on real
//! compiles.
//!
//! 1. **Zero false rejects** — every baseline compile of representative
//!    suite kernels, across all three studies and every default ablation
//!    plan, passes `--validate full` (the whole-suite sweep runs in CI as
//!    `metaopt check`; the fuzzed version lives in the compiler crate's
//!    differential test).
//! 2. **Miscompiles are caught statically** — deterministic corruptions of
//!    real register-allocator output (dropped reloads, dropped spill
//!    store-backs, clobbered destination registers) and of real scheduler
//!    output (reordered bundles, dependence-violating merges) are each
//!    rejected by the matching validator *before* any simulation runs.

use metaopt::{experiment, study, PreparedBench};
use metaopt_compiler::{compile, prepare, PassCtx, PassManager, Passes, ValidationLevel};
use metaopt_ir::interp::{run, RunConfig};
use metaopt_ir::{Function, Opcode, VReg, Width};
use metaopt_sim::{MachineConfig, MachineProgram};

/// A program lowered through the real minimal pipeline
/// (`regalloc,schedule`), with every artifact the validators compare.
struct Lowered {
    /// The prepared (pre-regalloc) function.
    pre: Function,
    /// The post-regalloc, machine-form function.
    post: Function,
    /// The scheduled bundles.
    code: MachineProgram,
    /// Globals size (spill area starts here).
    base_mem: usize,
    /// Globals + spill area.
    mem_size: usize,
}

fn lower(src: &str, machine: &MachineConfig) -> Lowered {
    let prog = metaopt_lang::compile(src).expect("source compiles");
    let prepared = prepare(&prog).expect("prepares");
    let profile = run(
        &prepared,
        &RunConfig {
            profile: true,
            ..Default::default()
        },
    )
    .expect("profiles")
    .profile
    .expect("requested");
    let passes = Passes::default();
    let pre = prepared.funcs[0].clone();
    let mut post = pre.clone();
    let mut ctx = PassCtx::new(&profile.funcs[0], machine, &passes, prepared.memory_size());
    PassManager::from_plan(&passes.plan)
        .run(&mut post, &mut ctx)
        .expect("lowers");
    Lowered {
        pre,
        post,
        code: ctx.code.take().expect("schedule emitted code"),
        base_mem: prepared.memory_size(),
        mem_size: ctx.mem_size,
    }
}

/// A source program with far more simultaneously-live integers than a
/// 10-GPR machine (6 allocatable registers) can hold, forcing real spill
/// code. The loads defeat constant folding.
const SPILLY: &str = r#"
    global int xs[16];
    fn main() -> int {
        for (let k = 0; k < 16; k = k + 1) { xs[k] = k * 7 + 3; }
        let a = xs[0]; let b = xs[1]; let c = xs[2]; let d = xs[3];
        let e = xs[4]; let f = xs[5]; let g = xs[6]; let h = xs[7];
        let i = xs[8]; let j = xs[9];
        return (a * b + c * d + e * f + g * h + i * j)
             + (a + c + e + g + i) - (b + d + f + h + j);
    }
"#;

fn tiny_machine() -> MachineConfig {
    let mut m = MachineConfig::table3();
    m.gpr = 10;
    m
}

fn regalloc_errors(l: &Lowered, post: &Function, machine: &MachineConfig) -> usize {
    let diags = metaopt_analysis::validate_regalloc(
        &l.pre, post, machine, l.base_mem, l.mem_size, "regalloc",
    );
    diags
        .iter()
        .filter(|d| d.severity == metaopt_analysis::Severity::Error)
        .count()
}

/// Position of the first post-IR instruction matching `want`.
fn find_inst(post: &Function, want: impl Fn(&metaopt_ir::Inst) -> bool) -> (usize, usize) {
    for (b, block) in post.blocks.iter().enumerate() {
        for (i, inst) in block.insts.iter().enumerate() {
            if want(inst) {
                return (b, i);
            }
        }
    }
    panic!("expected instruction not found in lowered function");
}

#[test]
fn real_allocator_output_validates_cleanly_even_under_spill_pressure() {
    let machine = tiny_machine();
    let l = lower(SPILLY, &machine);
    // The scenario is real: the allocator actually spilled.
    find_inst(&l.post, |i| {
        matches!(i.op, Opcode::Ld(Width::B8)) && i.args.first() == Some(&VReg(0))
    });
    assert_eq!(regalloc_errors(&l, &l.post, &machine), 0);
    let sched = metaopt_analysis::validate_schedule(&l.post, &l.code, &machine, "schedule");
    assert!(
        metaopt_analysis::first_error(&sched).is_none(),
        "schedule validator must accept real scheduler output"
    );
}

#[test]
fn dropped_reload_is_caught_statically() {
    let machine = tiny_machine();
    let l = lower(SPILLY, &machine);
    let mut bad = l.post.clone();
    let (b, i) = find_inst(&bad, |i| {
        matches!(i.op, Opcode::Ld(Width::B8)) && i.args.first() == Some(&VReg(0))
    });
    bad.blocks[b].insts.remove(i);
    assert!(
        regalloc_errors(&l, &bad, &machine) > 0,
        "removing a spill reload must be rejected"
    );
}

#[test]
fn dropped_spill_store_back_is_caught_statically() {
    let machine = tiny_machine();
    let l = lower(SPILLY, &machine);
    let mut bad = l.post.clone();
    let (b, i) = find_inst(&bad, |i| {
        matches!(i.op, Opcode::St(Width::B8)) && i.args.first() == Some(&VReg(0))
    });
    bad.blocks[b].insts.remove(i);
    assert!(
        regalloc_errors(&l, &bad, &machine) > 0,
        "removing a spill store-back must be rejected"
    );
}

#[test]
fn clobbered_destination_register_is_caught_statically() {
    let machine = tiny_machine();
    let l = lower(SPILLY, &machine);
    let mut bad = l.post.clone();
    // A core instruction writing an allocated (non-temp) register.
    let (b, i) = find_inst(&bad, |i| i.dst.is_some_and(|d| d.0 >= 4));
    let dst = bad.blocks[b].insts[i].dst.unwrap();
    let other = if dst.0 + 1 < machine.gpr as u32 {
        VReg(dst.0 + 1)
    } else {
        VReg(dst.0 - 1)
    };
    bad.blocks[b].insts[i].dst = Some(other);
    assert!(
        regalloc_errors(&l, &bad, &machine) > 0,
        "rerouting a result to the wrong physical register must be rejected"
    );
}

#[test]
fn dependence_violating_bundle_reorder_is_caught_statically() {
    let machine = tiny_machine();
    let l = lower(SPILLY, &machine);
    // Swapping the first and last bundles of a multi-bundle block must
    // break at least one dependence edge somewhere in the function.
    let mut caught = 0;
    for b in 0..l.code.blocks.len() {
        if l.code.blocks[b].len() < 2 {
            continue;
        }
        let mut bad = l.code.clone();
        let last = bad.blocks[b].len() - 1;
        bad.blocks[b].swap(0, last);
        let diags = metaopt_analysis::validate_schedule(&l.post, &bad, &machine, "schedule");
        if metaopt_analysis::first_error(&diags).is_some() {
            caught += 1;
        }
    }
    assert!(
        caught > 0,
        "no bundle reordering was rejected across any block"
    );
}

#[test]
fn over_packed_bundle_is_caught_statically() {
    let machine = tiny_machine();
    let l = lower(SPILLY, &machine);
    // Collapse the fullest block into one giant bundle: this violates
    // intra-block dependences (same-bundle ordering is not "after") and
    // the per-cycle unit caps.
    let b = (0..l.code.blocks.len())
        .max_by_key(|&b| {
            l.code.blocks[b]
                .iter()
                .map(|bu| bu.insts.len())
                .sum::<usize>()
        })
        .unwrap();
    let mut bad = l.code.clone();
    let merged: Vec<_> = bad.blocks[b].drain(..).flat_map(|bu| bu.insts).collect();
    bad.blocks[b].push(metaopt_sim::Bundle { insts: merged });
    let diags = metaopt_analysis::validate_schedule(&l.post, &bad, &machine, "schedule");
    assert!(
        metaopt_analysis::first_error(&diags).is_some(),
        "merging a whole block into one bundle must be rejected"
    );
}

/// Zero false rejects over real suite kernels: every baseline compile, in
/// every study, under the study plan and every default ablation plan,
/// passes full validation. (`metaopt check <study>` runs the all-40-kernel
/// version of this sweep; CI invokes it for all three studies.)
#[test]
fn baseline_suite_compiles_validate_cleanly_across_studies() {
    let names = ["codrle4", "huff_enc", "g721encode", "mpeg2dec", "102.swim"];
    for cfg in [study::hyperblock(), study::regalloc(), study::prefetch()] {
        let cfg = cfg.with_validate(ValidationLevel::Full);
        let mut plans = vec![cfg.plan.clone()];
        for p in experiment::default_ablation_plans() {
            if plans.iter().all(|q| q.to_string() != p.to_string()) {
                plans.push(p);
            }
        }
        for name in names {
            let bench = metaopt_suite::by_name(name).expect("suite kernel exists");
            let pb = PreparedBench::try_new(&cfg, &bench).expect("prepares");
            for plan in &plans {
                let passes = Passes {
                    plan: plan.clone(),
                    ..cfg.baseline_passes()
                };
                let compiled = compile(&pb.prepared, &pb.profile, &cfg.machine, &passes)
                    .unwrap_or_else(|e| {
                        panic!(
                            "false reject: {name} under plan {plan} ({:?}): {e}",
                            cfg.kind
                        )
                    });
                assert!(
                    metaopt_analysis::first_error(&compiled.validation).is_none(),
                    "{name} under plan {plan}: error-severity finding survived a passing compile"
                );
            }
        }
    }
}
