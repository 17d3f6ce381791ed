//! Phase-ordering as a workload: sweep pipeline plans over representative
//! benchmarks and report cycles per plan, then break one baseline
//! compilation down into per-pass wall time and counter deltas.

use metaopt::experiment::{default_ablation_plans, try_ablate};
use metaopt::study;
use metaopt::PreparedBench;
use metaopt_bench::header;
use metaopt_trace::Tracer;

fn main() {
    header(
        "Phases",
        "Pipeline-plan ablation (cycles per plan) and per-pass instrumentation",
    );
    let cfg = study::hyperblock();
    let plans = default_ablation_plans();
    for name in ["rawdaudio", "unepic", "g721encode"] {
        let bench = metaopt_suite::by_name(name).expect("registered");
        match try_ablate(&cfg, &bench, &plans, &Tracer::disabled()) {
            Ok(r) => {
                println!("{}:", r.bench);
                for line in r.table().lines() {
                    println!("  {line}");
                }
            }
            Err(e) => println!("{name}: preparation failed: {e}"),
        }
        println!();
    }

    // One compilation under the canonical plan, decomposed pass by pass.
    let cfg = cfg.with_plan(metaopt_compiler::PipelinePlan::baseline());
    let bench = metaopt_suite::by_name("rawdaudio").expect("registered");
    let pb = PreparedBench::new(&cfg, &bench);
    println!("per-pass breakdown (rawdaudio, plan {}):", cfg.plan);
    for line in pb.baseline_stats.per_pass_table().lines() {
        println!("  {line}");
    }
}
