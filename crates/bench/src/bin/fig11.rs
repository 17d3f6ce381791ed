//! Figure 11: general-purpose register-allocation priority on its training
//! set.

use metaopt::experiment::train_general;
use metaopt_bench::{harness_params, header, speedup_row};

fn main() {
    header(
        "Figure 11",
        "General-purpose regalloc priority on its training set (paper: ~1.03/1.03)",
    );
    let cfg = metaopt::study::regalloc();
    let r = train_general(
        &cfg,
        &metaopt_suite::regalloc_training_set(),
        &harness_params(),
    );
    for (name, t, n) in &r.per_bench {
        speedup_row(name, *t, *n);
    }
    speedup_row("Average", r.mean_train, r.mean_novel);
}
