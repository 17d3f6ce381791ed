#![warn(missing_docs)]
//! # metaopt-bench
//!
//! The reproduction harness: one binary per table and figure of the paper's
//! evaluation (run e.g. `cargo run --release -p metaopt-bench --bin fig4`).
//! Timing lives elsewhere: `perfbench/` is the repository's one benchmark.
//!
//! Every figure binary prints the same rows/series the paper reports. GP
//! scale defaults to a laptop-friendly configuration; set the environment
//! variables `METAOPT_POP`, `METAOPT_GENS`, `METAOPT_SEED` and
//! `METAOPT_THREADS` to change it. `METAOPT_PAPER=1` selects the paper's
//! full Table 2 parameters (population 400 × 50 generations). The paper
//! reports "about one day per benchmark"; here the 15 figure and ablation
//! binaries take minutes in total at that scale with `METAOPT_THREADS=2` on
//! a 2-vCPU host (219 s in one run). Each binary stands alone: the
//! cross-validation figures run their training figure's deterministic DSS
//! training themselves rather than read a winner another binary wrote.

use metaopt_gp::GpParams;

/// GP parameters for the figure harness: [`GpParams::quick`]-based defaults
/// overridable through the environment (see crate docs).
pub fn harness_params() -> GpParams {
    let mut p = if std::env::var("METAOPT_PAPER").is_ok_and(|v| v == "1") {
        GpParams::paper()
    } else {
        let mut q = GpParams::quick();
        q.population = 24;
        q.generations = 8;
        q
    };
    if let Ok(v) = std::env::var("METAOPT_POP") {
        if let Ok(n) = v.parse() {
            p.population = n;
        }
    }
    if let Ok(v) = std::env::var("METAOPT_GENS") {
        if let Ok(n) = v.parse() {
            p.generations = n;
        }
    }
    if let Ok(v) = std::env::var("METAOPT_SEED") {
        if let Ok(n) = v.parse() {
            p.seed = n;
        }
    }
    if let Ok(v) = std::env::var("METAOPT_THREADS") {
        if let Ok(n) = v.parse() {
            p.threads = n;
        }
    }
    p
}

/// Print a figure header in a uniform style.
pub fn header(id: &str, caption: &str) {
    println!("==============================================================");
    println!("{id}: {caption}");
    println!("==============================================================");
}

/// Print one speedup bar-pair row (the paper's dark/light bars).
pub fn speedup_row(name: &str, train: f64, novel: f64) {
    println!(
        "{name:<14} train {train:>6.3}  {}  novel {novel:>6.3}  {}",
        bar(train),
        bar(novel)
    );
}

/// A crude text bar for a speedup value (1.0 = baseline).
pub fn bar(speedup: f64) -> String {
    let over = ((speedup - 1.0) * 100.0).round() as i64;
    if over >= 0 {
        format!("|{}", "#".repeat((over as usize).min(60)))
    } else {
        format!("-{}", "~".repeat(((-over) as usize).min(60)))
    }
}

/// Geometric-style arithmetic mean used by the paper's "Average" bars.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        1.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_overrides_apply() {
        // Serialize env manipulation within this test only.
        std::env::set_var("METAOPT_POP", "17");
        std::env::set_var("METAOPT_GENS", "3");
        let p = harness_params();
        assert_eq!(p.population, 17);
        assert_eq!(p.generations, 3);
        std::env::remove_var("METAOPT_POP");
        std::env::remove_var("METAOPT_GENS");
    }

    #[test]
    fn bars_render() {
        assert!(bar(1.10).contains("##"));
        assert!(bar(0.95).contains("~"));
        assert_eq!(bar(1.0), "|");
    }

    #[test]
    fn mean_handles_empty() {
        assert_eq!(mean(&[]), 1.0);
        assert!((mean(&[1.0, 2.0]) - 1.5).abs() < 1e-12);
    }
}
