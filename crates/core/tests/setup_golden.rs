//! Golden set-up digest: pins exactly what [`PreparedBench::try_new`]
//! produces.
//!
//! Every suite kernel is prepared under all three studies. Each preparation
//! contributes one line: an FNV-1a digest of the inlined program's
//! functions (`{:?}` text), an FNV-1a digest of the training profile in a
//! fixed order (block counts, then edge counts and branch statistics sorted
//! by key), the baseline cycles on both data sets and the baseline compile
//! counters. Any change to the interpreter's profile, to the inliner, to
//! the baseline evaluations or to the `{:?}` text of the IR shows up as a
//! diff here.
//!
//! Regenerate the golden after an intentional change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p metaopt --test setup_golden
//! ```

use metaopt::pipeline::PreparedBench;
use metaopt::study;
use metaopt_ir::profile::FuncProfile;
use std::fmt::Write as _;
use std::path::Path;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/setup_digest.golden"
);

/// 64-bit FNV-1a.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
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

fn digest_lines() -> String {
    let studies = [study::hyperblock(), study::regalloc(), study::prefetch()];
    let mut out = String::new();
    for bench in metaopt_suite::all_benchmarks() {
        for cfg in &studies {
            let pb = PreparedBench::try_new(cfg, &bench)
                .unwrap_or_else(|e| panic!("suite kernel prepares: {e}"));
            writeln!(
                out,
                "{} {:?}: funcs={:016x} profile={:016x} train={} novel={} counters={:?}",
                bench.name,
                cfg.kind,
                fnv1a(&format!("{:?}", pb.prepared.funcs)),
                fnv1a(&sorted_profile_text(&pb.profile)),
                pb.baseline_train_cycles,
                pb.baseline_novel_cycles,
                pb.baseline_stats.counters
            )
            .unwrap();
        }
    }
    out
}

#[test]
fn suite_setups_match_the_golden_digest() {
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
            "set-up digest line {} drifted from the golden; if the change is \
             intentional, regenerate with UPDATE_GOLDEN=1 and review the diff",
            i + 1
        );
    }
    assert_eq!(
        lines.lines().count(),
        golden.lines().count(),
        "set-up digest has a different number of preparations than the golden"
    );
}
