//! Parameter sweep: prefetch distance (iterations ahead) on a streaming
//! kernel vs an L1-resident kernel — the timeliness/pollution trade-off the
//! simulator models and the paper's pass exposes as a fixed policy knob.

use metaopt::study;
use metaopt::PreparedBench;
use metaopt_compiler::compile;
use metaopt_sim::exec::simulate_traced;
use metaopt_suite::DataSet;
use metaopt_trace::Tracer;

fn main() {
    metaopt_bench::header(
        "Sweep",
        "Prefetch distance (iterations ahead): streaming vs resident kernels",
    );
    let cfg = study::prefetch();
    println!(
        "{:<14} {}",
        "bench",
        (0..7).map(|k| format!("{:>9}", 1 << k)).collect::<String>()
    );
    for name in ["171.swim", "101.tomcatv"] {
        let b = metaopt_suite::by_name(name).expect("registered");
        let pb = PreparedBench::new(&cfg, &b);
        let mem0 = b.memory(&pb.prepared, DataSet::Train);
        print!("{name:<14}");
        for k in 0..7 {
            let dist = 1i64 << k;
            let passes = metaopt_compiler::Passes {
                prefetch_iters_ahead: dist,
                ..cfg.baseline_passes()
            };
            let compiled =
                compile(&pb.prepared, &pb.profile, &cfg.machine, &passes).expect("compiles");
            let mut mem = mem0.clone();
            mem.resize(compiled.mem_size.max(mem.len()), 0);
            // Timed as the baseline is: the study's noise at seed 0.
            let noise = Some((cfg.noise, 0));
            let r = simulate_traced(
                &compiled.code,
                &cfg.machine,
                mem,
                noise,
                cfg.sim_tier,
                &Tracer::disabled(),
            )
            .expect("simulates");
            print!("{:>9}", r.cycles);
        }
        println!(
            "   (baseline dist 8: {})",
            pb.baseline_cycles(DataSet::Train)
        );
    }
    println!("\n(columns: prefetch distance 1,2,4,...,64 iterations ahead; cells: cycles)");
}
