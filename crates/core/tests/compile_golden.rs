//! Golden compile digest: pins the exact machine code the back end emits.
//!
//! Every suite kernel is compiled under all three studies, under the study
//! plan plus every default ablation plan (deduplicated), with the study's
//! baseline seed and two fixed genome texts, at
//! [`ValidationLevel::Fast`]. Each compile contributes one line: an FNV-1a
//! digest of the `MachineProgram`'s `{:?}` text, the memory size, the
//! static instruction and bundle counts, the spill count and the number of
//! validation findings (or the error kind of a failed compile). Any change
//! to what `regalloc::allocate` or `schedule::schedule_function` produce
//! shows up as a diff here.
//!
//! Regenerate the golden after an intentional code-generation change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p metaopt --test compile_golden
//! ```

use metaopt::experiment;
use metaopt::study::{self, ExprPriority, StudyConfig, StudyKind};
use metaopt_compiler::{compile, prepare, Passes, ValidationLevel};
use metaopt_gp::parse::parse_expr;
use metaopt_ir::budget::KERNEL_VERIFY_MAX_STEPS;
use metaopt_ir::interp::{run, RunConfig};
use metaopt_suite::DataSet;
use std::fmt::Write as _;
use std::path::Path;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/compile_digest.golden"
);

/// 64-bit FNV-1a.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The two fixed genome texts compiled next to each study's baseline seed.
fn genome_texts(kind: StudyKind) -> [&'static str; 2] {
    match kind {
        StudyKind::Hyperblock => ["(rconst -1.0)", "(sub num_ops_max num_ops)"],
        StudyKind::Regalloc => ["(sub 0.0 (mul w uses))", "(div total_refs range_size)"],
        StudyKind::Prefetch => ["(bconst true)", "(bconst false)"],
    }
}

fn digest_lines() -> String {
    let studies: Vec<StudyConfig> = [study::hyperblock(), study::regalloc(), study::prefetch()]
        .into_iter()
        .map(|cfg| cfg.with_validate(ValidationLevel::Fast))
        .collect();
    let mut out = String::new();
    for bench in metaopt_suite::all_benchmarks() {
        let prepared = prepare(&bench.program()).expect("suite kernel prepares");
        let profile = run(
            &prepared,
            &RunConfig {
                memory: Some(bench.memory(&prepared, DataSet::Train)),
                profile: true,
                max_steps: KERNEL_VERIFY_MAX_STEPS,
                ..Default::default()
            },
        )
        .expect("suite kernel profiles")
        .profile
        .expect("profile requested")
        .funcs[0]
            .clone();
        for cfg in &studies {
            let mut plans = vec![cfg.plan.clone()];
            for p in experiment::default_ablation_plans() {
                if plans.iter().all(|q| q.to_string() != p.to_string()) {
                    plans.push(p);
                }
            }
            let mut genomes = vec![("seed", cfg.baseline_seed.clone())];
            for text in genome_texts(cfg.kind) {
                let expr = parse_expr(text, &cfg.features)
                    .unwrap_or_else(|e| panic!("genome {text} parses: {e}"));
                genomes.push((text, expr));
            }
            for plan in &plans {
                for (label, expr) in &genomes {
                    let prio = ExprPriority(expr);
                    let passes = Passes {
                        plan: plan.clone(),
                        ..cfg.passes_with(&prio)
                    };
                    let result = match compile(&prepared, &profile, &cfg.machine, &passes) {
                        Ok(c) => format!(
                            "{:016x} mem={} insts={} bundles={} spills={} findings={}",
                            fnv1a(&format!("{:?}", c.code)),
                            c.mem_size,
                            c.stats.counters.static_insts,
                            c.stats.counters.static_bundles,
                            c.stats.counters.spills,
                            c.validation.len()
                        ),
                        Err(e) => format!("error {:?}", e.kind),
                    };
                    writeln!(
                        out,
                        "{} {:?} {plan} {label}: {result}",
                        bench.name, cfg.kind
                    )
                    .unwrap();
                }
            }
        }
    }
    out
}

#[test]
fn suite_compiles_match_the_golden_digest() {
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
            "compile digest line {} drifted from the golden; if the change is \
             intentional, regenerate with UPDATE_GOLDEN=1 and review the diff",
            i + 1
        );
    }
    assert_eq!(
        lines.lines().count(),
        golden.lines().count(),
        "compile digest has a different number of compiles than the golden"
    );
}
