//! Figure 12: cross-validation of the general-purpose register-allocation
//! priority function. The function is `fig11`'s winner: the same
//! deterministic DSS training, run again here.

use metaopt::experiment::{cross_validate, train_general};
use metaopt_bench::{harness_params, header, mean, speedup_row};

fn main() {
    header(
        "Figure 12",
        "Regalloc cross-validation (paper: ~1.03 avg, a couple below 1.0)",
    );
    let cfg = metaopt::study::regalloc();
    let winner = train_general(
        &cfg,
        &metaopt_suite::regalloc_training_set(),
        &harness_params(),
    )
    .best;
    let cv = cross_validate(&cfg, &winner, &metaopt_suite::regalloc_test_set());
    let mut vals = Vec::new();
    for (name, t, n) in &cv.per_bench {
        speedup_row(name, *t, *n);
        vals.push(*t);
    }
    speedup_row(
        "Average",
        mean(&vals),
        mean(&cv.per_bench.iter().map(|x| x.2).collect::<Vec<_>>()),
    );
}
