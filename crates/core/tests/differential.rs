//! Differential testing across the whole pipeline: for every benchmark in
//! the suite and a collection of adversarial priority functions, the
//! compiled-and-simulated program must produce exactly the interpreter's
//! result. This is the property that makes the GP search safe (and which
//! the paper notes in passing: "Our system can also be used to uncover
//! bugs!").

use metaopt::study::{self, StudyConfig};
use metaopt::{EvalRequest, PreparedBench};
use metaopt_gp::gen::random_expr;
use metaopt_gp::{FeatureSet, Kind};
use metaopt_suite::{Benchmark, DataSet};
use metaopt_trace::Tracer;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn random_priorities(fs: &FeatureSet, kind: Kind, n: usize, seed: u64) -> Vec<metaopt_gp::Expr> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| random_expr(&mut rng, fs, kind, 2, 6))
        .collect()
}

/// `cycles_with` panics on divergence, so simply running it is the check.
fn check(cfg: &StudyConfig, bench: &Benchmark, exprs: &[metaopt_gp::Expr]) {
    let pb = PreparedBench::new(cfg, bench);
    let cycles_with = |e, ds| {
        let req = EvalRequest {
            expr: Some(e),
            plan: None,
            ds,
            tracer: &Tracer::disabled(),
        };
        pb.try_eval(cfg, &req)
            .unwrap_or_else(|e| panic!("{e}"))
            .cycles
    };
    for e in exprs {
        let c1 = cycles_with(e, DataSet::Train);
        let c2 = cycles_with(e, DataSet::Novel);
        assert!(c1 > 0 && c2 > 0);
    }
}

#[test]
fn hyperblock_priorities_never_change_results() {
    let cfg = study::hyperblock();
    let exprs = random_priorities(&cfg.features, Kind::Real, 6, 101);
    for b in ["rawdaudio", "129.compress", "085.cc1", "147.vortex"] {
        check(&cfg, &metaopt_suite::by_name(b).unwrap(), &exprs);
    }
}

#[test]
fn regalloc_priorities_never_change_results() {
    let cfg = study::regalloc();
    let exprs = random_priorities(&cfg.features, Kind::Real, 6, 202);
    for b in ["g721encode", "mpeg2dec", "huff_enc"] {
        check(&cfg, &metaopt_suite::by_name(b).unwrap(), &exprs);
    }
}

#[test]
fn prefetch_priorities_never_change_results() {
    let cfg = study::prefetch();
    let exprs = random_priorities(&cfg.features, Kind::Bool, 6, 303);
    for b in ["101.tomcatv", "146.wave5", "183.equake"] {
        check(&cfg, &metaopt_suite::by_name(b).unwrap(), &exprs);
    }
}

#[test]
fn every_benchmark_compiles_and_matches_under_all_baselines() {
    // The full suite through each study's baseline pipeline.
    for cfg in [study::hyperblock(), study::regalloc(), study::prefetch()] {
        let benches = match cfg.kind {
            metaopt::StudyKind::Prefetch => {
                let mut v = metaopt_suite::prefetch_training_set();
                v.extend(metaopt_suite::prefetch_test_set());
                v
            }
            _ => metaopt_suite::int_benchmarks(),
        };
        for b in benches {
            // PreparedBench::new differentially verifies both data sets.
            let pb = PreparedBench::new(&cfg, &b);
            assert!(pb.baseline_cycles(DataSet::Train) > 0, "{}", b.name);
        }
    }
}
