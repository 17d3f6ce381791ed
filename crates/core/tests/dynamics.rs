//! Guard tests for the calibrated experiment dynamics: these assert the
//! *shape* relationships that make the paper's figures reproducible, so a
//! future change to the simulator, the suite, or a pass cannot silently
//! invert a case study's story (see DESIGN.md §8).

use metaopt::{study, EvalRequest, PreparedBench};
use metaopt_gp::parse::parse_expr;
use metaopt_suite::DataSet;
use metaopt_trace::Tracer;

#[test]
fn prefetch_baseline_is_overzealous_on_the_training_set() {
    // Paper §7: "ORC overzealously prefetches... shutting off prefetching
    // altogether achieves gains within 7% of the specialized priority
    // functions". Guard: disabling prefetch must beat the baseline by a
    // solid margin on average, and on at least half the training kernels.
    let cfg = study::prefetch();
    let never = parse_expr("(bconst false)", &cfg.features).unwrap();
    let mut speedups = Vec::new();
    for b in metaopt_suite::prefetch_training_set() {
        let pb = PreparedBench::new(&cfg, &b);
        speedups.push(pb.try_speedup(&cfg, &never, DataSet::Train).unwrap());
    }
    let mean = speedups.iter().sum::<f64>() / speedups.len() as f64;
    assert!(
        mean > 1.05,
        "no-prefetch mean {mean} must beat the baseline"
    );
    let winners = speedups.iter().filter(|s| **s > 1.02).count();
    assert!(winners * 2 >= speedups.len(), "{speedups:?}");
}

#[test]
fn streaming_spec2000_kernels_want_aggressive_prefetch() {
    // Paper Fig. 16's caveat: for some SPEC2000 benchmarks aggressive
    // prefetching is desirable — disabling it must hurt at least one.
    let cfg = study::prefetch();
    let never = parse_expr("(bconst false)", &cfg.features).unwrap();
    let mut any_loss = false;
    for name in ["171.swim", "172.mgrid", "183.equake"] {
        let b = metaopt_suite::by_name(name).unwrap();
        let pb = PreparedBench::new(&cfg, &b);
        if pb.try_speedup(&cfg, &never, DataSet::Train).unwrap() < 0.97 {
            any_loss = true;
        }
    }
    assert!(any_loss, "disabling prefetch must hurt a streaming kernel");
}

#[test]
fn hyperblock_search_space_has_room_in_both_directions() {
    // GP can only improve on Eq. 1 if the baseline's decisions are wrong in
    // both directions somewhere in the suite: some benchmark wants *more*
    // predication than Eq. 1 gives it, another wants *less*.
    let cfg = study::hyperblock();
    let never = parse_expr("(rconst -1.0)", &cfg.features).unwrap();
    let always = parse_expr("(rconst 5.0)", &cfg.features).unwrap();
    let mut more_wins = false;
    let mut less_wins = false;
    for b in metaopt_suite::hyperblock_training_set() {
        let pb = PreparedBench::new(&cfg, &b);
        if pb.try_speedup(&cfg, &always, DataSet::Train).unwrap() > 1.02 {
            more_wins = true;
        }
        if pb.try_speedup(&cfg, &never, DataSet::Train).unwrap() > 1.002 {
            less_wins = true;
        }
    }
    assert!(more_wins, "some benchmark must reward more predication");
    assert!(less_wins, "some benchmark must reward less predication");
}

#[test]
fn regalloc_pressure_exists_on_the_stressed_machine() {
    // The 32-register study is meaningless unless the baseline actually
    // spills somewhere.
    let cfg = study::regalloc();
    let mut any_spills = false;
    for b in metaopt_suite::regalloc_training_set() {
        let pb = PreparedBench::new(&cfg, &b);
        if pb.baseline_stats.counters.spills > 0 {
            any_spills = true;
        }
    }
    assert!(any_spills, "the 32-register machine must force spills");
}

#[test]
fn unpredictable_branches_make_predication_profitable() {
    // The core hyperblock dynamic: on the ADPCM decoder (data-dependent
    // step adaptation), full if-conversion beats no if-conversion.
    let cfg = study::hyperblock();
    let b = metaopt_suite::by_name("rawdaudio").unwrap();
    let pb = PreparedBench::new(&cfg, &b);
    let never = parse_expr("(rconst -1.0)", &cfg.features).unwrap();
    let always = parse_expr("(rconst 5.0)", &cfg.features).unwrap();
    let cycles_with = |e| {
        let req = EvalRequest {
            expr: Some(e),
            plan: None,
            ds: DataSet::Train,
            tracer: &Tracer::disabled(),
        };
        pb.try_eval(&cfg, &req).unwrap().cycles
    };
    let never_cycles = cycles_with(&never);
    let always_cycles = cycles_with(&always);
    assert!(
        (always_cycles as f64) < 0.92 * never_cycles as f64,
        "predication must pay on rawdaudio: {always_cycles} vs {never_cycles}"
    );
}
