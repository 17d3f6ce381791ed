//! The prefetching case study (paper §7): Boolean confidence functions on a
//! noisy "real machine". Compares the overzealous ORC-like baseline, never
//! prefetching, and an evolved confidence function.
//!
//! ```sh
//! cargo run --release -p metaopt --example prefetch_tuning
//! ```

use metaopt::{experiment, study, EvalRequest, PreparedBench};
use metaopt_gp::parse::parse_expr;
use metaopt_gp::GpParams;
use metaopt_suite::DataSet;
use metaopt_trace::Tracer;

fn main() {
    let cfg = study::prefetch();
    let bench = metaopt_suite::by_name("101.tomcatv").expect("registered");

    let pb = PreparedBench::new(&cfg, &bench);
    let never = parse_expr("(bconst false)", &cfg.features).expect("parses");
    let always = parse_expr("(bconst true)", &cfg.features).expect("parses");
    println!("101.tomcatv under different prefetch policies (train data):");
    println!(
        "  ORC-like baseline: {:>9} cycles (1.000x)",
        pb.baseline_cycles(DataSet::Train)
    );
    for (name, e) in [("never prefetch", &never), ("always prefetch", &always)] {
        let req = EvalRequest {
            expr: Some(e),
            plan: None,
            ds: DataSet::Train,
            tracer: &Tracer::disabled(),
        };
        let cycles = pb.try_eval(&cfg, &req).expect("evaluates").cycles;
        println!(
            "  {name:<17} {cycles:>9} cycles ({:.3}x)",
            pb.baseline_cycles(DataSet::Train) as f64 / cycles as f64
        );
    }

    let mut params = GpParams::quick();
    params.population = 24;
    params.generations = 6;
    let r = experiment::specialize(&cfg, &bench, &params);
    println!(
        "  evolved           ({:.3}x) -> {}",
        r.train_speedup, r.best
    );
    println!("\nThe paper's finding reproduces: the shipped heuristic overzealously");
    println!("prefetches; evolved functions rarely prefetch on these kernels.");
}
