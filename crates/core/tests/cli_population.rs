//! The CLI refuses a population below 2 with a usage error for both
//! evolution loops: each generation replaces at least one genome while
//! elitism keeps another, so a smaller population cannot breed.

use std::process::Command;

#[test]
fn population_below_two_is_a_usage_error() {
    for pop in ["0", "1"] {
        for extra in [&[][..], &["--co-evolve"][..]] {
            let out = Command::new(env!("CARGO_BIN_EXE_metaopt"))
                .args(["specialize", "hyperblock", "unepic", "--gens", "2"])
                .args(["--pop", pop])
                .args(extra)
                .output()
                .expect("run metaopt");
            let stderr = String::from_utf8_lossy(&out.stderr);
            let run = format!("--pop {pop} {extra:?}");
            assert_eq!(out.status.code(), Some(1), "{run}: {stderr}");
            assert!(!stderr.contains("panicked"), "{run}: {stderr}");
            assert!(
                stderr.contains("the population must be at least 2"),
                "{run}: {stderr}"
            );
        }
    }
}
