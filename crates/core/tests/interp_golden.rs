//! Golden interpreter runs: pins exactly what `metaopt_ir::interp::run`
//! returns on every suite kernel.
//!
//! Each kernel runs in two forms: the frontend's program, which has calls,
//! frames and one profile table per function, and the prepared (inlined and
//! folded) program that set-up runs. Each form runs the way
//! `PreparedBench::try_new` runs it: profiled on train data and unprofiled
//! on novel data, under the kernel verification step budget. Each run
//! contributes one line: the return value, the step count, an FNV-1a digest
//! of the final memory image and an FNV-1a digest of the profile, with
//! every function's maps in key order as `setup_golden.rs` orders them. A
//! few kernels also pin the step budget's edge: one step less than a run
//! takes fails with `StepLimit`, and exactly its steps succeed.
//!
//! Regenerate the golden after an intentional change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p metaopt --test interp_golden
//! ```

use metaopt_compiler::prepare;
use metaopt_ir::budget::KERNEL_VERIFY_MAX_STEPS;
use metaopt_ir::interp::{run, InterpError, RunConfig};
use metaopt_ir::profile::{FuncProfile, Profile};
use metaopt_ir::Program;
use metaopt_suite::{Benchmark, DataSet};
use std::fmt::Write as _;
use std::path::Path;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/interp_digest.golden"
);

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The profile's `{:?}` text with both maps in key order.
fn sorted_profile_text(p: &FuncProfile) -> String {
    let mut edges: Vec<_> = p.edge_counts.iter().collect();
    edges.sort();
    let mut branches: Vec<_> = p
        .branches
        .iter()
        .map(|(k, s)| (k, (s.executed, s.taken, s.correct)))
        .collect();
    branches.sort();
    format!("{:?} {edges:?} {branches:?}", p.block_counts)
}

/// Every function's sorted profile text, in function order, and the
/// profile's dynamic instruction count.
fn profile_text(p: &Profile) -> String {
    let funcs: Vec<String> = p.funcs.iter().map(sorted_profile_text).collect();
    format!("{} {}", funcs.join(" | "), p.dyn_insts)
}

/// The two forms of a kernel that the interpreter runs.
fn forms(bench: &Benchmark) -> [(&'static str, Program); 2] {
    let frontend = bench.program();
    let prepared = prepare(&frontend).expect("suite kernel prepares");
    [("frontend", frontend), ("prepared", prepared)]
}

fn config(bench: &Benchmark, prog: &Program, ds: DataSet, max_steps: u64) -> RunConfig {
    RunConfig {
        memory: Some(bench.memory(prog, ds)),
        profile: ds == DataSet::Train,
        max_steps,
        ..Default::default()
    }
}

fn digest_lines() -> String {
    let mut out = String::new();
    for bench in metaopt_suite::all_benchmarks() {
        for (form, prog) in &forms(&bench) {
            for ds in [DataSet::Train, DataSet::Novel] {
                let o = run(prog, &config(&bench, prog, ds, KERNEL_VERIFY_MAX_STEPS))
                    .unwrap_or_else(|e| panic!("{} {form} {ds:?} runs: {e}", bench.name));
                let profile = match &o.profile {
                    Some(p) => format!("{:016x}", fnv1a(profile_text(p).as_bytes())),
                    None => "-".to_string(),
                };
                writeln!(
                    out,
                    "{} {form} {ds:?}: ret={} steps={} memory={:016x} profile={profile}",
                    bench.name,
                    o.ret,
                    o.steps,
                    fnv1a(&o.memory)
                )
                .unwrap();
            }
        }
    }
    out
}

#[test]
fn suite_runs_match_the_golden_digest() {
    let lines = digest_lines();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &lines).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            Path::new(GOLDEN).display()
        )
    });
    for (i, (got, want)) in lines.lines().zip(golden.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "interpreter digest line {} drifted from the golden; if the change \
             is intentional, regenerate with UPDATE_GOLDEN=1 and review the diff",
            i + 1
        );
    }
    assert_eq!(
        lines.lines().count(),
        golden.lines().count(),
        "interpreter digest has a different number of runs than the golden"
    );
}

#[test]
fn the_step_limit_fires_one_step_short_of_a_run() {
    for name in ["codrle4", "rawcaudio", "101.tomcatv"] {
        let bench = metaopt_suite::by_name(name).expect("suite kernel exists");
        for (form, prog) in &forms(&bench) {
            for ds in [DataSet::Train, DataSet::Novel] {
                let full = run(prog, &config(&bench, prog, ds, KERNEL_VERIFY_MAX_STEPS))
                    .unwrap_or_else(|e| panic!("{name} {form} {ds:?} runs: {e}"));
                let exact = run(prog, &config(&bench, prog, ds, full.steps))
                    .unwrap_or_else(|e| panic!("{name} {form} {ds:?} at its own steps: {e}"));
                assert_eq!(
                    (exact.ret, exact.steps, &exact.memory),
                    (full.ret, full.steps, &full.memory),
                    "{name} {form} {ds:?}"
                );
                let short = full.steps - 1;
                assert_eq!(
                    run(prog, &config(&bench, prog, ds, short)).map(|o| o.steps),
                    Err(InterpError::StepLimit(short)),
                    "{name} {form} {ds:?}"
                );
            }
        }
    }
}
