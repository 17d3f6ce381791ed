//! Differential acceptance for the pass-manager refactor: the plan-driven
//! [`metaopt_compiler::compile`] must be **behavior-preserving by
//! construction** against the pre-refactor monolithic pipeline. The
//! reference below is a line-for-line replica of the old `compile()` body
//! (fixed pass order, hand-rolled profile remap and form transitions); for
//! every suite benchmark under all three study configurations, with
//! invariant checking on and off, the new pipeline must produce a
//! bit-identical [`MachineProgram`], the same memory size, and the same
//! simulated cycle count.

use metaopt::study::{self, StudyConfig, StudyKind};
use metaopt_compiler::{compile, hyperblock, prefetch, prepare, regalloc, schedule};
use metaopt_ir::budget::KERNEL_VERIFY_MAX_STEPS;
use metaopt_ir::interp::{run, RunConfig};
use metaopt_ir::profile::FuncProfile;
use metaopt_ir::{Function, Program};
use metaopt_sim::{simulate, MachineProgram};
use metaopt_suite::DataSet;

/// Replica of the monolithic pre-refactor `compile()`: the fixed
/// unroll → prefetch → hyperblock → regalloc → schedule order with each
/// study's baseline pass selection, sequencing the profile remap and the
/// machine-form switch by hand exactly as the old body did.
fn reference_compile(
    prepared: &Program,
    profile: &FuncProfile,
    cfg: &StudyConfig,
) -> (MachineProgram, usize) {
    let machine = &cfg.machine;
    let mut func: Function = prepared.funcs[0].clone();

    if cfg.kind == StudyKind::Prefetch {
        prefetch::insert_prefetches(&mut func, profile, machine, &prefetch::BaselineTripCount, 8);
    }
    let remapped_profile;
    let mut profile = profile;
    if matches!(cfg.kind, StudyKind::Hyperblock | StudyKind::Regalloc) {
        hyperblock::form_hyperblocks(&mut func, profile, machine, &hyperblock::BaselineEq1);
        let map = func.prune_unreachable_blocks();
        if map.iter().any(|m| m.is_none()) {
            remapped_profile = profile.remap_blocks(&map);
            profile = &remapped_profile;
        }
    }
    let ra = regalloc::allocate(
        &mut func,
        machine,
        &regalloc::BaselineEq2,
        profile,
        prepared.memory_size(),
    )
    .expect("reference regalloc succeeds");
    let code = schedule::schedule_function(&func, machine);
    metaopt_sim::code::verify_machine(&code, machine).expect("reference code verifies");
    (code, ra.mem_size)
}

fn profile_on_train(prepared: &Program, bench: &metaopt_suite::Benchmark) -> FuncProfile {
    let mem = bench.memory(prepared, DataSet::Train);
    run(
        prepared,
        &RunConfig {
            memory: Some(mem),
            profile: true,
            max_steps: KERNEL_VERIFY_MAX_STEPS,
            ..Default::default()
        },
    )
    .unwrap_or_else(|e| panic!("{}: profiling run failed: {e:?}", bench.name))
    .profile
    .expect("profile requested")
    .funcs[0]
        .clone()
}

#[test]
fn plan_driven_compile_matches_the_monolithic_pipeline() {
    for bench in metaopt_suite::all_benchmarks() {
        let prog = bench.program();
        let prepared =
            prepare(&prog).unwrap_or_else(|e| panic!("{}: preparation failed: {e}", bench.name));
        let profile = profile_on_train(&prepared, &bench);
        for cfg in [study::hyperblock(), study::regalloc(), study::prefetch()] {
            let (want_code, want_mem) = reference_compile(&prepared, &profile, &cfg);
            for check_ir in [false, true] {
                let cfg = cfg.clone().with_check_ir(check_ir);
                let got = compile(&prepared, &profile, &cfg.machine, &cfg.baseline_passes())
                    .unwrap_or_else(|e| {
                        panic!(
                            "{} under {:?} (check_ir={check_ir}): compile failed: {e}",
                            bench.name, cfg.kind
                        )
                    });
                assert_eq!(
                    got.code, want_code,
                    "{} under {:?} (check_ir={check_ir}): machine code diverged from \
                     the pre-refactor pipeline",
                    bench.name, cfg.kind
                );
                assert_eq!(
                    got.mem_size, want_mem,
                    "{} under {:?}",
                    bench.name, cfg.kind
                );
                assert_eq!(
                    got.stats.per_pass.len(),
                    cfg.plan.steps().len(),
                    "one instrumentation record per executed pass"
                );
            }

            // Same code and memory layout, so the cycle counts must agree.
            let mut mem = bench.memory(&prepared, DataSet::Train);
            mem.resize(want_mem.max(mem.len()), 0);
            let want_cycles = simulate(&want_code, &cfg.machine, mem.clone())
                .unwrap_or_else(|e| panic!("{}: reference simulation failed: {e}", bench.name))
                .cycles;
            let got = compile(&prepared, &profile, &cfg.machine, &cfg.baseline_passes())
                .expect("compiles");
            let got_cycles = simulate(&got.code, &cfg.machine, mem)
                .unwrap_or_else(|e| panic!("{}: simulation failed: {e}", bench.name))
                .cycles;
            assert_eq!(
                got_cycles, want_cycles,
                "{} under {:?}: cycle count diverged",
                bench.name, cfg.kind
            );
        }
    }
}

/// Satellite: the (formerly dead) unroll pass, now reachable through plan
/// syntax, is semantics-preserving — on every suite benchmark, the unrolled
/// pipeline's compiled code agrees with the IR interpreter's result on both
/// data sets. `plan_cycles` panics on any differential mismatch.
#[test]
fn unrolled_pipelines_agree_with_the_interpreter_on_all_data_sets() {
    let cfg = study::hyperblock();
    let unrolled = cfg.plan.clone().with_unroll(2);
    for bench in metaopt_suite::all_benchmarks() {
        let pb = metaopt::PreparedBench::new(&cfg, &bench);
        for ds in [DataSet::Train, DataSet::Novel] {
            let plan_cycles = |plan| {
                let req = metaopt::EvalRequest {
                    expr: None,
                    plan: Some(plan),
                    ds,
                    tracer: &metaopt_trace::Tracer::disabled(),
                };
                let e = pb.try_eval(&cfg, &req).unwrap_or_else(|e| panic!("{e}"));
                (e.cycles, e.stats)
            };
            let (plain, _) = plan_cycles(&cfg.plan);
            let (unroll_cycles, stats) = plan_cycles(&unrolled);
            assert!(plain > 0 && unroll_cycles > 0);
            assert_eq!(
                stats.per_pass.first().map(|p| p.name),
                Some("unroll"),
                "{}: the unroll pass must have executed first",
                bench.name
            );
        }
    }
}
