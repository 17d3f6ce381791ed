//! Figure 15: general-purpose prefetching confidence function trained with
//! DSS over the SPECfp-like suite.

use metaopt::experiment::train_general;
use metaopt_bench::{harness_params, header, speedup_row};
use metaopt_gp::expr::display_named;

fn main() {
    header(
        "Figure 15",
        "General-purpose prefetch confidence on its training set (paper: 1.31/1.36)",
    );
    let cfg = metaopt::study::prefetch();
    let r = train_general(
        &cfg,
        &metaopt_suite::prefetch_training_set(),
        &harness_params(),
    );
    for (name, t, n) in &r.per_bench {
        speedup_row(name, *t, *n);
    }
    speedup_row("Average", r.mean_train, r.mean_novel);
    println!("\nwinner: {}", display_named(&r.best, &cfg.features));
}
