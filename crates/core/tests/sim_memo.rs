//! The study evaluators simulate each distinct compiled program once, and
//! which runs happen does not depend on the thread schedule or the
//! simulator tier: a traced specialization emits the same multiset of
//! `sim` events at every thread count, on both tiers.

use metaopt::experiment::{self, RunControl};
use metaopt::study;
use metaopt_gp::GpParams;
use metaopt_sim::SimTier;
use metaopt_trace::{strip_timing, Tracer};

/// The sorted, timing-stripped `sim` lines of a traced `specialize
/// hyperblock unepic` run (tier stamp normalised), and its `eval` count.
fn sim_lines(threads: usize, tier: SimTier) -> (Vec<String>, usize) {
    let cfg = study::hyperblock().with_sim_tier(tier);
    let bench = metaopt_suite::by_name("unepic").unwrap();
    let params = GpParams {
        population: 10,
        generations: 3,
        seed: 7,
        threads,
        ..GpParams::quick()
    };
    let tracer = Tracer::in_memory();
    let control = RunControl {
        tracer: tracer.clone(),
        ..RunControl::default()
    };
    experiment::specialize_controlled(&cfg, &bench, &params, &control).unwrap();
    let lines = tracer.lines().unwrap();
    let evals = lines
        .iter()
        .filter(|l| l.contains(r#""type":"eval""#))
        .count();
    let mut sims: Vec<String> = lines
        .iter()
        .filter(|l| l.contains(r#""type":"sim""#))
        .map(|l| {
            strip_timing(l)
                .unwrap()
                .replace(r#""tier":"reference""#, r#""tier":"fast""#)
        })
        .collect();
    sims.sort();
    (sims, evals)
}

#[test]
fn sim_runs_match_across_thread_counts_and_tiers() {
    let (serial, evals) = sim_lines(1, SimTier::Fast);
    assert!(
        serial.len() < evals,
        "{} simulations for {evals} evaluations: no evaluation shared a run",
        serial.len()
    );
    for (threads, tier) in [
        (3, SimTier::Fast),
        (1, SimTier::Reference),
        (3, SimTier::Reference),
    ] {
        assert_eq!(
            sim_lines(threads, tier).0,
            serial,
            "sim runs differ at --threads {threads} on the {tier} tier"
        );
    }
}
