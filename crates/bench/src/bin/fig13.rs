//! Figure 13: prefetching specialization on the SPECfp-like training
//! kernels. Also reports the paper's observation that simply shutting off
//! prefetching gets within a few percent of the specialized functions.

use metaopt::experiment::specialize;
use metaopt_bench::{harness_params, header, mean, speedup_row};
use metaopt_suite::DataSet;

fn main() {
    header(
        "Figure 13",
        "Prefetching specialization (paper: large gains; no-prefetch within 7%)",
    );
    let cfg = metaopt::study::prefetch();
    let params = harness_params();
    let never = metaopt_gp::parse::parse_expr("(bconst false)", &cfg.features).expect("parses");
    let mut trains = Vec::new();
    let mut novels = Vec::new();
    let mut nevers = Vec::new();
    for b in metaopt_suite::prefetch_training_set() {
        let r = specialize(&cfg, &b, &params);
        let pb = metaopt::PreparedBench::new(&cfg, &b);
        let off = pb
            .try_speedup(&cfg, &never, DataSet::Train)
            .expect("evaluates");
        println!(
            "{:<14} train {:>6.3} novel {:>6.3}   (no-prefetch {:>6.3})",
            r.name, r.train_speedup, r.novel_speedup, off
        );
        trains.push(r.train_speedup);
        novels.push(r.novel_speedup);
        nevers.push(off);
    }
    speedup_row("Average", mean(&trains), mean(&novels));
    println!("no-prefetch average: {:.3}", mean(&nevers));
}
