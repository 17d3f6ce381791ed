//! Figure 6: training one general-purpose hyperblock priority function over
//! the whole training suite with dynamic subset selection.

use metaopt::experiment::train_general;
use metaopt_bench::{harness_params, header, speedup_row};

fn main() {
    header(
        "Figure 6",
        "General-purpose hyperblock priority on its training set (paper: 1.44/1.25)",
    );
    let cfg = metaopt::study::hyperblock();
    let benches = metaopt_suite::hyperblock_training_set();
    let r = train_general(&cfg, &benches, &harness_params());
    for (name, t, n) in &r.per_bench {
        speedup_row(name, *t, *n);
    }
    speedup_row("Average", r.mean_train, r.mean_novel);
}
