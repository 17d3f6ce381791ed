//! The benchmark's GP functions must measure exactly what the library's own
//! `experiment` functions do: splitting set-up from search, and replaying
//! compiles pass by pass for the traced run, may change timing but never
//! results.

use metaopt::experiment::{co_evolve_controlled, train_general_controlled, RunControl};
use metaopt::study::{self, ExprPriority};
use metaopt_compiler::{Passes, ValidationLevel};
use metaopt_gp::GpParams;
use metaopt_perfbench::spans::Recorder;
use metaopt_perfbench::traced::{self, TracedEvaluator, TracedMultiEvaluator};
use metaopt_perfbench::workload::{self, TalliedEvaluator, TalliedMultiEvaluator, Tally};

const SEEDS: [u64; 2] = [24301, 7];
const SIZE: (usize, usize) = (8, 2);

fn library_params(seed: u64) -> GpParams {
    GpParams {
        population: SIZE.0,
        generations: SIZE.1,
        seed,
        threads: workload::WORKERS,
        ..GpParams::quick()
    }
}

#[test]
fn split_training_reproduces_train_general_controlled() {
    let study = study::prefetch();
    let kernels: Vec<_> = metaopt_suite::prefetch_training_set()
        .into_iter()
        .take(5)
        .collect();
    let prepared = workload::setup(&study, &kernels).unwrap();
    let rec = Recorder::default();
    let replicas: Vec<_> = kernels
        .iter()
        .zip(&prepared)
        .map(|(b, pb)| traced::prepare(&rec, &study, b, pb).unwrap())
        .collect();
    for seed in SEEDS {
        let lib = train_general_controlled(
            &study,
            &kernels,
            &library_params(seed),
            &RunControl::default(),
        )
        .unwrap();
        let params = workload::train_params(&study, kernels.len(), seed, SIZE);

        let tally = Tally::default();
        let ev = TalliedEvaluator::new(&study, &prepared, &tally);
        let split = workload::train_general(&study, &prepared, params.clone(), &ev, &tally, None);

        let traced_tally = Tally::default();
        let traced_ev = TracedEvaluator {
            rec: &rec,
            study: &study,
            prepared: &prepared,
            replicas: &replicas,
            tally: &traced_tally,
        };
        let traced = workload::train_general(
            &study,
            &prepared,
            params,
            &traced_ev,
            &traced_tally,
            Some(&rec),
        );

        for out in [&split, &traced] {
            assert_eq!(out.champions, vec![lib.best.key()], "seed {seed}");
            assert_eq!(
                out.train_speedup.to_bits(),
                lib.mean_train.to_bits(),
                "seed {seed}"
            );
            assert_eq!(
                out.novel_speedup.to_bits(),
                lib.mean_novel.to_bits(),
                "seed {seed}"
            );
            assert_eq!(out.ops, lib.evaluations, "seed {seed}");
            assert_eq!(out.quarantined, lib.quarantined.len() as u64, "seed {seed}");
            assert_eq!(out.logs, vec![lib.log.clone()], "seed {seed}");
        }
        assert_eq!(split.digest, traced.digest, "seed {seed}");
    }
}

#[test]
fn split_coevolution_reproduces_co_evolve_controlled() {
    let study = study::hyperblock();
    let kernels: Vec<_> = metaopt_suite::hyperblock_training_set()
        .into_iter()
        .take(2)
        .collect();
    let prepared = workload::setup(&study, &kernels).unwrap();
    let rec = Recorder::default();
    let replicas: Vec<_> = kernels
        .iter()
        .zip(&prepared)
        .map(|(b, pb)| traced::prepare(&rec, &study, b, pb).unwrap())
        .collect();
    for seed in SEEDS {
        for (i, bench) in kernels.iter().enumerate() {
            let lib = co_evolve_controlled(
                &study,
                bench,
                &library_params(seed),
                [true; 3],
                &RunControl::default(),
            )
            .unwrap();
            let lib_key = format!(
                "{}|{}",
                lib.best_plan.as_ref().unwrap(),
                lib.best.as_ref().unwrap().key()
            );
            let one = std::slice::from_ref(&prepared[i]);
            let params = workload::coevo_params(&study, bench.name, seed, SIZE);
            let tally = Tally::default();
            let ev = TalliedMultiEvaluator::new(&study, one, &tally);
            let traced_ev = TracedMultiEvaluator {
                rec: &rec,
                study: &study,
                prepared: one,
                replicas: std::slice::from_ref(&replicas[i]),
                tally: &tally,
            };
            let split = workload::coevolve_kernel(&study, &prepared[i], params.clone(), &ev, None);
            let traced =
                workload::coevolve_kernel(&study, &prepared[i], params, &traced_ev, Some(&rec));
            for (result, key, train, novel) in [split, traced] {
                assert_eq!(key, lib_key, "seed {seed} {}", bench.name);
                assert_eq!(train.to_bits(), lib.train_speedup.to_bits());
                assert_eq!(novel.to_bits(), lib.novel_speedup.to_bits());
                assert_eq!(result.evaluations, lib.evaluations);
                assert_eq!(result.log, lib.log);
            }
        }
    }
}

#[test]
fn traced_compile_replays_metaopt_compiler_compile() {
    let study = study::regalloc();
    let kernels: Vec<_> = metaopt_suite::all_benchmarks()
        .into_iter()
        .step_by(5)
        .collect();
    let prepared = workload::setup(&study, &kernels).unwrap();
    let rec = Recorder::default();
    let plans = workload::sweep_plans(&study);
    for seed in SEEDS {
        let genomes = workload::sweep_genomes(&study, seed, 3);
        for (g, genome) in genomes.iter().enumerate() {
            let pri = ExprPriority(genome);
            for (p, plan) in plans.iter().enumerate() {
                let pb = &prepared[(g * plans.len() + p) % prepared.len()];
                for validate in [ValidationLevel::Off, ValidationLevel::Fast] {
                    let passes = Passes {
                        plan: plan.clone(),
                        validate,
                        ..study.passes_with(&pri)
                    };
                    let lib = metaopt_compiler::compile(
                        &pb.prepared,
                        &pb.profile,
                        &study.machine,
                        &passes,
                    )
                    .unwrap();
                    let replay =
                        traced::compile(&rec, &pb.prepared, &pb.profile, &study.machine, &passes)
                            .unwrap();
                    assert_eq!(lib.code, replay.code, "{} {plan} {}", pb.name, genome.key());
                    assert_eq!(lib.mem_size, replay.mem_size);
                    assert_eq!(lib.stats.counters, replay.stats.counters);
                    let names = |s: &metaopt_compiler::CompileStats| -> Vec<&str> {
                        s.per_pass.iter().map(|p| p.name).collect()
                    };
                    assert_eq!(names(&lib.stats), names(&replay.stats));
                    assert_eq!(lib.validation, replay.validation);
                }
            }
        }
        // The whole sweep agrees too, and its baseline seed reproduces the
        // set-up's baseline compiles.
        let lib = workload::compile_regalloc(&study, &prepared, &genomes);
        let replayed = workload::sweep_outcome(
            workload::compile_sweep(&study, &prepared, &plans, &genomes, |pb, passes| {
                traced::compile(&rec, &pb.prepared, &pb.profile, &study.machine, passes)
            }),
            &genomes,
        );
        assert_eq!(lib.digest, replayed.digest);
        assert!(lib.sweep.unwrap().baseline_matches);
    }
    // Every pass and validator ran under a span.
    let spans = rec.spans();
    for name in [
        "compiler.compile",
        "compiler.pass.unroll",
        "compiler.pass.prefetch",
        "compiler.pass.hyperblock",
        "compiler.pass.regalloc",
        "compiler.pass.schedule",
        "analysis.validate.unroll",
        "analysis.validate.regalloc",
        "analysis.validate.schedule",
    ] {
        assert!(spans.iter().any(|s| s.name == name), "no {name} span");
    }
}
