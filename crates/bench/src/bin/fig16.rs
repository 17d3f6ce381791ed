//! Figure 16: cross-validation of the prefetch confidence function on
//! SPEC2000-like kernels, on two target architectures. Reproduces the
//! paper's caveat: the training set taught "rarely prefetch", but several
//! streaming SPEC2000 kernels *want* aggressive prefetching. The function
//! is `fig15`'s winner: the same deterministic DSS training, run again here.

use metaopt::experiment::{cross_validate, train_general};
use metaopt_bench::{harness_params, header, mean, speedup_row};

fn main() {
    header(
        "Figure 16",
        "Prefetch cross-validation on SPEC2000, two architectures (mixed results)",
    );
    let mut cfg = metaopt::study::prefetch();
    let winner = train_general(
        &cfg,
        &metaopt_suite::prefetch_training_set(),
        &harness_params(),
    )
    .best;
    for (label, machine) in [
        (
            "architecture A (Itanium-like)",
            metaopt_sim::MachineConfig::itanium_like(),
        ),
        (
            "architecture B (bigger caches)",
            metaopt_sim::MachineConfig::itanium_bigcache(),
        ),
    ] {
        println!("--- {label} ---");
        cfg.machine = machine;
        let cv = cross_validate(&cfg, &winner, &metaopt_suite::prefetch_test_set());
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
    println!("\n(below-1.0 rows are the paper's point: the training set lacked");
    println!(" streaming workloads, so the evolved function under-prefetches there)");
}
