//! Fault-injection acceptance suite (`--features fault-inject`): with the
//! deterministic injector forcing failures in well over 5% of evaluations
//! across all three studies, every generation must complete, the
//! quarantine ledger must exactly match the faults the injector predicts,
//! and the whole run must be bit-for-bit repeatable.
#![cfg(feature = "fault-inject")]

use metaopt::fault::{FaultInjector, FaultStage};
use metaopt::{study, PreparedBench, StudyConfig, StudyEvaluator};
use metaopt_gp::{Evolution, EvolutionResult, GpParams};
use std::io::Write;

const RATE: f64 = 0.1;

fn params(seed: u64) -> GpParams {
    GpParams {
        population: 16,
        generations: 4,
        seed,
        threads: 2,
        ..GpParams::quick()
    }
}

fn run_with_faults(cfg: &StudyConfig, bench_names: &[&str], seed: u64) -> EvolutionResult {
    let benches: Vec<PreparedBench> = bench_names
        .iter()
        .map(|n| {
            let b = metaopt_suite::by_name(n).unwrap();
            PreparedBench::new(cfg, &b)
        })
        .collect();
    let injector = FaultInjector::uniform(seed, RATE);
    let evaluator = StudyEvaluator::new(cfg, &benches).with_fault(injector);
    let mut p = params(seed);
    p.kind = cfg.genome_kind;
    Evolution::new(p, &cfg.features, &evaluator)
        .with_seeds(vec![cfg.baseline_seed.clone()])
        .run()
}

/// Write the ledger where CI can pick it up as an artifact, *before* any
/// assertion runs, so a failing suite still leaves its evidence behind.
fn dump_ledger(study: &str, result: &EvolutionResult) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target");
    let _ = std::fs::create_dir_all(&dir);
    if let Ok(mut f) = std::fs::File::create(dir.join(format!("quarantine-ledger-{study}.txt"))) {
        for r in &result.quarantined {
            let _ = writeln!(f, "{r}");
        }
    }
}

/// The injector's own prediction for a `(genome, bench)` pair under the
/// engine's retry policy: which stage, if any, ends up in the ledger.
///
/// Permanent stages are attempt-invariant, so the first one that fires
/// (in pipeline check order, before the timeout check) decides the
/// outcome on attempt 0 and no retry can change it. Otherwise the engine
/// retries transient timeouts up to `retries` times: the evaluation
/// succeeds (or falls through to the attempt-invariant Simulate check) on
/// the first attempt where the timeout does not fire, and quarantines as
/// a timeout only when every attempt timed out.
fn predicted_failure(
    injector: &FaultInjector,
    genome: &str,
    bench: &str,
    retries: u32,
) -> Option<FaultStage> {
    use FaultStage::{CheckIr, Compile, Simulate, Timeout, Validate};
    for stage in [Compile, CheckIr, Validate] {
        if injector.should_fail(stage, genome, bench) {
            return Some(stage);
        }
    }
    for attempt in 0..=retries {
        if !injector.should_fail_at(Timeout, genome, bench, attempt) {
            return injector
                .should_fail(Simulate, genome, bench)
                .then_some(Simulate);
        }
    }
    Some(Timeout)
}

fn check_study(name: &str, cfg: &StudyConfig, bench_names: &[&str], seed: u64) {
    let result = run_with_faults(cfg, bench_names, seed);
    dump_ledger(name, &result);
    let injector = FaultInjector::uniform(seed, RATE);

    // Every generation completed despite the injected failures.
    assert_eq!(
        result.log.len(),
        params(seed).generations,
        "{name}: every generation must complete"
    );
    // Accounting identity, and a fresh run's ledger covers every failure.
    assert_eq!(
        result.evaluations,
        result.successes + result.failures,
        "{name}: accounting identity"
    );
    assert_eq!(
        result.quarantined.len() as u64,
        result.failures,
        "{name}: ledger covers every distinct failure"
    );
    // The injector actually exercised the failure path at meaningful volume.
    assert!(
        result.failures as f64 >= 0.05 * result.evaluations as f64,
        "{name}: expected >=5% injected failures, got {}/{}",
        result.failures,
        result.evaluations
    );
    assert!(
        result.successes > 0,
        "{name}: clean genomes must still score"
    );

    // The ledger matches the injector's own predictions exactly: every
    // record is marked injected, lands on the predicted stage's error
    // class, and names a (genome, bench) pair the injector fires on.
    for r in &result.quarantined {
        let bench = bench_names[r.case];
        assert!(
            r.error.injected,
            "{name}: bundled kernels only fail when injected: {r}"
        );
        let stage = predicted_failure(&injector, &r.genome, bench, params(seed).retries)
            .unwrap_or_else(|| panic!("{name}: ledger record not predicted by injector: {r}"));
        assert_eq!(
            r.error.kind,
            stage.kind(),
            "{name}: error class must match the predicted stage: {r}"
        );
        assert!(
            r.error.message.contains(bench),
            "{name}: diagnostics must name the benchmark: {r}"
        );
    }
    // The winner survived: it is quarantined on no case it was scored on.
    assert!(
        !result
            .quarantined
            .iter()
            .any(|r| r.genome == result.best.key()),
        "{name}: a quarantined genome must never win"
    );

    // Determinism: the identical run reproduces everything, ledger included.
    let again = run_with_faults(cfg, bench_names, seed);
    assert_eq!(result.best.key(), again.best.key(), "{name}: best differs");
    assert_eq!(result.best_fitness, again.best_fitness, "{name}");
    assert_eq!(result.evaluations, again.evaluations, "{name}");
    assert_eq!(
        result.quarantined, again.quarantined,
        "{name}: ledger differs"
    );
}

/// The `CacheCorrupt` stage never flows through the evaluation pipeline —
/// it models torn writes to the persistent fitness store. Drive it through
/// the store's corruption hook and prove the recovery contract: a reopened
/// store drops the corrupt record and everything after it, serves every
/// record before it with the exact appended score, and never surfaces a
/// wrong fitness.
#[test]
fn cache_corrupt_faults_are_recovered_on_reopen() {
    use metaopt_gp::{FitnessStore, StoreHealth};
    use metaopt_trace::Tracer;
    use std::sync::Arc;

    let path = std::env::temp_dir().join(format!("metaopt-fault-cache-{}.bin", std::process::id()));
    let _ = std::fs::remove_file(&path);
    const FP: &str = "pop=16 seed=7 config=fault";
    let injector = FaultInjector::uniform(7, 0.2);
    let hook = Arc::new(move |key: &str, case: usize| {
        injector.should_fail(FaultStage::CacheCorrupt, key, &format!("case{case}"))
    });
    let store = FitnessStore::open(&path, FP, &Tracer::disabled()).with_corrupt_hook(hook.clone());

    let rows: Vec<(String, usize, f64)> = (0..64)
        .map(|i| (format!("(add x {i}.0)"), i % 3, i as f64 * 0.5 - 1.0))
        .collect();
    for (k, c, v) in &rows {
        store.append(k, *c, *v);
    }
    drop(store);

    let first_bad = rows
        .iter()
        .position(|(k, c, _)| hook(k, *c))
        .expect("at 20% corruption over 64 appends, at least one must fire");

    let s = FitnessStore::open(&path, FP, &Tracer::disabled());
    assert_eq!(s.health(), StoreHealth::Recovered);
    assert_eq!(s.entries(), first_bad as u64);
    for (i, (k, c, v)) in rows.iter().enumerate() {
        if i < first_bad {
            assert_eq!(s.lookup(k, *c), Some(*v), "record {i} must survive intact");
        } else {
            assert_eq!(s.lookup(k, *c), None, "record {i} is past the corrupt tail");
        }
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn hyperblock_survives_injected_faults() {
    check_study(
        "hyperblock",
        &study::hyperblock(),
        &["unepic", "mpeg2dec"],
        101,
    );
}

#[test]
fn regalloc_survives_injected_faults() {
    check_study(
        "regalloc",
        &study::regalloc(),
        &["g721encode", "huff_enc"],
        202,
    );
}

#[test]
fn prefetch_survives_injected_faults() {
    check_study(
        "prefetch",
        &study::prefetch(),
        &["102.swim", "101.tomcatv"],
        303,
    );
}
