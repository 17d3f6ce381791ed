//! Allocation budget: heap allocations per compile and per profiled
//! interpreter run stay at or under committed figures.
//!
//! A counting global allocator counts `alloc`, `alloc_zeroed` and `realloc`
//! calls, but only on a thread that has switched counting on, so the test
//! harness and any other test running beside these see no effect. The
//! budgets are the figures measured when they were committed; a change
//! that needs more allocations raises them on purpose and says why.
//!
//! * Compiles: the 40 suite kernels, each compiled once under the regalloc
//!   study's plan and baseline seed with fast validation, as the
//!   `compile-regalloc` sweep compiles them.
//! * Interpreter runs: each kernel's prepared program, profiled on train
//!   data, as set-up runs it. A run allocates while it lowers the program
//!   and folds the profile, never per step, so the figure is a bound per
//!   run however many steps the run takes.
//! * Priority evaluations: a genome evaluates inside every compile, once
//!   per decision, so evaluating one allocates nothing.

use metaopt::pipeline::PreparedBench;
use metaopt::study::{self, ExprPriority};
use metaopt_compiler::{compile, Passes, ValidationLevel};
use metaopt_gp::expr::Env;
use metaopt_gp::gen::random_expr;
use metaopt_gp::Kind;
use metaopt_ir::budget::KERNEL_VERIFY_MAX_STEPS;
use metaopt_ir::interp::{run, RunConfig};
use metaopt_suite::DataSet;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocations per compile over the 40 kernels, rounded up.
const COMPILE_BUDGET: u64 = 886;

/// Allocations of the most allocating profiled run.
const RUN_BUDGET: u64 = 19;

struct Counting;

thread_local! {
    /// Allocations counted on this thread, or `None` while not counting.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

fn tick() {
    // `try_with` because the allocator also runs while thread-locals are
    // torn down.
    let _ = COUNT.try_with(|c| c.set(c.get().map(|n| n + 1)));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting touches only a `const`-initialised thread-local,
// which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tick();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tick();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tick();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations made on this thread while `f` runs.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    COUNT.with(|c| c.set(Some(0)));
    let out = f();
    let n = COUNT.with(|c| c.replace(None)).expect("counting was on");
    (n, out)
}

#[test]
fn compiles_stay_within_the_allocation_budget() {
    let study = study::regalloc();
    let pri = ExprPriority(&study.baseline_seed);
    let passes = Passes {
        validate: ValidationLevel::Fast,
        ..study.passes_with(&pri)
    };
    let benches = metaopt_suite::all_benchmarks();
    let mut total = 0;
    for bench in &benches {
        let pb = PreparedBench::try_new(&study, bench)
            .unwrap_or_else(|e| panic!("suite kernel prepares: {e}"));
        let (n, compiled) =
            allocations(|| compile(&pb.prepared, &pb.profile, &study.machine, &passes));
        compiled.unwrap_or_else(|e| panic!("{} compiles: {e}", bench.name));
        total += n;
    }
    let per_compile = total.div_ceil(benches.len() as u64);
    println!("allocations per compile: {per_compile} ({total} in all)");
    assert!(
        per_compile <= COMPILE_BUDGET,
        "{per_compile} allocations per compile, over the budget of {COMPILE_BUDGET}"
    );
}

#[test]
fn profiled_runs_stay_within_the_allocation_budget() {
    let mut most = (0, "");
    for bench in metaopt_suite::all_benchmarks() {
        let prepared = metaopt_compiler::prepare(&bench.program()).expect("suite kernel prepares");
        let cfg = RunConfig {
            memory: Some(bench.memory(&prepared, DataSet::Train)),
            profile: true,
            max_steps: KERNEL_VERIFY_MAX_STEPS,
            ..Default::default()
        };
        let (n, out) = allocations(|| run(&prepared, &cfg));
        out.unwrap_or_else(|e| panic!("{} runs: {e}", bench.name));
        most = most.max((n, bench.name));
    }
    println!(
        "allocations per profiled run: at most {} ({})",
        most.0, most.1
    );
    assert!(
        most.0 <= RUN_BUDGET,
        "{} allocates {} times in one profiled run, over the budget of {RUN_BUDGET}",
        most.1,
        most.0
    );
}

#[test]
fn evaluating_a_genome_allocates_nothing() {
    let mut rng = StdRng::seed_from_u64(5);
    for study in [study::hyperblock(), study::regalloc(), study::prefetch()] {
        let fs = &study.features;
        let reals: Vec<f64> = (0..fs.num_reals()).map(|i| i as f64 * 1.5 - 2.0).collect();
        let bools: Vec<bool> = (0..fs.num_bools()).map(|i| i % 2 == 0).collect();
        let env = Env {
            reals: &reals,
            bools: &bools,
        };
        let mut genomes = vec![study.baseline_seed.clone()];
        for kind in [Kind::Real, Kind::Bool] {
            genomes.extend((0..20).map(|_| random_expr(&mut rng, fs, kind, 1, 9)));
        }
        for g in &genomes {
            let (n, _) = allocations(|| (g.eval_real(&env), g.eval_bool(&env)));
            assert_eq!(n, 0, "evaluating {g} allocated {n} times");
        }
    }
}
