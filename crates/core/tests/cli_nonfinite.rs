//! A priority function typed on the command line or read from a file may
//! hold a non-finite constant. `compile` and `crossval` evaluate it
//! directly, without the lint gate a search applies, so the evaluator's
//! clamp of every leaf is what keeps NaN and infinities out of the
//! compiler's priority sort. Both commands must finish and print cycles.

use std::process::{Command, Output};

/// Real constant NaN on one side of a `tern`, which passes leaves through
/// unchanged.
const GENOME: &str = "(tern (lt w 3.0) (rconst NaN) w)";

fn metaopt(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_metaopt"))
        .args(args)
        .output()
        .expect("run metaopt")
}

fn assert_finished(out: &Output, run: &str, printed: &str) {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{run}: {stderr}");
    assert!(!stderr.contains("panicked"), "{run}: {stderr}");
    assert!(stdout.contains(printed), "{run}: {stdout}");
}

#[test]
fn compile_evaluates_a_non_finite_constant() {
    for bench in ["g721encode", "codrle4", "huff_enc"] {
        let out = metaopt(&["compile", "regalloc", bench, GENOME]);
        assert_finished(
            &out,
            &format!("compile regalloc {bench}"),
            " cycles (baseline ",
        );
    }
}

#[test]
fn crossval_evaluates_a_non_finite_constant() {
    let path = std::env::temp_dir().join(format!("metaopt-nonfinite-{}.sexpr", std::process::id()));
    std::fs::write(&path, GENOME).expect("write the genome file");
    let out = metaopt(&[
        "crossval",
        "regalloc",
        path.to_str().expect("UTF-8 temp path"),
    ]);
    let _ = std::fs::remove_file(&path);
    assert_finished(&out, "crossval regalloc", "mean: ");
}
