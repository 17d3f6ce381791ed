//! Figure 7: cross-validation of the general-purpose hyperblock priority
//! function on the unrelated test set. The function is `fig6`'s winner:
//! the same deterministic DSS training, run again here.

use metaopt::experiment::{cross_validate, train_general};
use metaopt_bench::{harness_params, header, mean, speedup_row};

fn main() {
    header(
        "Figure 7",
        "Cross-validation on the unrelated test set (paper: avg 1.09, a few below 1.0)",
    );
    let cfg = metaopt::study::hyperblock();
    let winner = train_general(
        &cfg,
        &metaopt_suite::hyperblock_training_set(),
        &harness_params(),
    )
    .best;
    let cv = cross_validate(&cfg, &winner, &metaopt_suite::hyperblock_test_set());
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
