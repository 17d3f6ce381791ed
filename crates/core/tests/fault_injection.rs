//! Fault-injection acceptance suite: with the deterministic injector
//! forcing failures in well over 5% of evaluations across all three
//! studies, every generation must complete, the quarantine ledger must
//! exactly match the faults the injector predicts, and the whole run must
//! be bit-for-bit repeatable.
//!
//! The injector is test code: [`Faulty`] wraps a [`StudyEvaluator`] and
//! fails an evaluation, before handing it on, at the first pipeline stage
//! where the injector fires.

use metaopt::{study, PreparedBench, StudyConfig, StudyEvaluator};
use metaopt_gp::{
    EvalError, EvalErrorKind, EvalOutcome, Evaluator, Evolution, EvolutionResult, Expr, GpParams,
};
use std::io::Write;

/// Pipeline stage at which a fault can be injected, in the order the
/// wrapper checks them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FaultStage {
    /// The compiler (forces a [`EvalErrorKind::Compile`]).
    Compile,
    /// The inter-pass IR checking boundary (forces a
    /// [`EvalErrorKind::IrCheck`]).
    CheckIr,
    /// The semantic-validation boundary (forces a
    /// [`EvalErrorKind::Validation`]).
    Validate,
    /// An operational timeout between validation and simulation (forces a
    /// *transient* [`EvalErrorKind::Timeout`], which the engine retries).
    /// Unlike the other stages, timeout decisions are attempt-sensitive —
    /// see [`FaultInjector::should_fail_at`] — so a timeout can clear on
    /// retry, exercising the retry path end to end.
    Timeout,
    /// The simulator, after the timeout check (forces a
    /// [`EvalErrorKind::Sim`]).
    Simulate,
}

impl FaultStage {
    /// Every stage, in pipeline order.
    const ALL: [FaultStage; 5] = [
        FaultStage::Compile,
        FaultStage::CheckIr,
        FaultStage::Validate,
        FaultStage::Timeout,
        FaultStage::Simulate,
    ];

    /// The error class an injected fault at this stage reports as.
    fn kind(self) -> EvalErrorKind {
        match self {
            FaultStage::Compile => EvalErrorKind::Compile,
            FaultStage::CheckIr => EvalErrorKind::IrCheck,
            FaultStage::Validate => EvalErrorKind::Validation,
            FaultStage::Timeout => EvalErrorKind::Timeout,
            FaultStage::Simulate => EvalErrorKind::Sim,
        }
    }

    /// Stable label used in diagnostics.
    fn label(self) -> &'static str {
        match self {
            FaultStage::Compile => "compile",
            FaultStage::CheckIr => "check-ir",
            FaultStage::Validate => "validate",
            FaultStage::Timeout => "timeout",
            FaultStage::Simulate => "simulate",
        }
    }
}

/// Deterministic fault injector: decides failure purely from
/// `(seed, stage, genome key, benchmark name)` — no global state, no RNG
/// stream — so a given genome fails (or not) identically across
/// re-evaluations, runs and threads. That consistency is what lets the
/// suite assert that the quarantine ledger matches the injected faults
/// exactly.
#[derive(Clone, Copy, Debug, PartialEq)]
struct FaultInjector {
    seed: u64,
    rates: [f64; 5],
}

impl FaultInjector {
    /// An injector with all rates zero (injects nothing until configured
    /// via [`FaultInjector::with_rate`]).
    fn new(seed: u64) -> Self {
        FaultInjector {
            seed,
            rates: [0.0; 5],
        }
    }

    /// An injector failing every stage with probability `rate`.
    fn uniform(seed: u64, rate: f64) -> Self {
        FaultInjector {
            seed,
            rates: [rate; 5],
        }
    }

    /// Set the failure probability for one stage (clamped to `[0, 1]`).
    fn with_rate(mut self, stage: FaultStage, rate: f64) -> Self {
        self.rates[stage as usize] = rate.clamp(0.0, 1.0);
        self
    }

    /// Whether this injector fires for `(stage, genome, bench)` on the
    /// first attempt — a pure function, identical on every call.
    fn should_fail(&self, stage: FaultStage, genome_key: &str, bench: &str) -> bool {
        self.should_fail_at(stage, genome_key, bench, 0)
    }

    /// Whether this injector fires for `(stage, genome, bench)` on retry
    /// attempt `attempt`. Permanent stages ignore `attempt` — a compile
    /// fault that fired once fires on every retry, which is exactly why the
    /// engine never retries them. [`FaultStage::Timeout`] folds the attempt
    /// into the draw, so an injected timeout can clear on a later attempt
    /// (or persist through the whole retry budget and quarantine).
    fn should_fail_at(
        &self,
        stage: FaultStage,
        genome_key: &str,
        bench: &str,
        attempt: u32,
    ) -> bool {
        let rate = self.rates[stage as usize];
        if rate <= 0.0 {
            return false;
        }
        if rate >= 1.0 {
            return true;
        }
        // FNV-1a over the identifying tuple, then a splitmix64 finalizer to
        // decorrelate the low-entropy inputs; top 53 bits become a uniform
        // draw in [0, 1).
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ self.seed;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x1_0000_01b3);
            }
        };
        eat(stage.label().as_bytes());
        eat(&[0xFF]);
        eat(genome_key.as_bytes());
        eat(&[0xFF]);
        eat(bench.as_bytes());
        if stage == FaultStage::Timeout {
            eat(&[0xFF]);
            eat(&attempt.to_le_bytes());
        }
        let mut z = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let draw = (z >> 11) as f64 / (1u64 << 53) as f64;
        draw < rate
    }

    /// Fail the evaluation if the injector fires for this tuple on the
    /// first attempt; the error is marked [`EvalError::injected`] so
    /// ledgers distinguish forced from organic failures.
    fn check(&self, stage: FaultStage, genome_key: &str, bench: &str) -> Result<(), EvalError> {
        self.check_at(stage, genome_key, bench, 0)
    }

    /// [`FaultInjector::check`] with an explicit retry attempt.
    fn check_at(
        &self,
        stage: FaultStage,
        genome_key: &str,
        bench: &str,
        attempt: u32,
    ) -> Result<(), EvalError> {
        if self.should_fail_at(stage, genome_key, bench, attempt) {
            return Err(EvalError::injected(
                stage.kind(),
                format!(
                    "fault injector forced a {} failure on {bench} (attempt {attempt})",
                    stage.label()
                ),
            ));
        }
        Ok(())
    }
}

/// A [`StudyEvaluator`] behind a [`FaultInjector`]: before it hands an
/// evaluation on, it checks every stage in pipeline order and fails with
/// the first injected fault.
struct Faulty<'a> {
    inner: StudyEvaluator<'a>,
    benches: &'a [PreparedBench],
    injector: FaultInjector,
}

impl<'a> Faulty<'a> {
    fn new(cfg: &'a StudyConfig, benches: &'a [PreparedBench], injector: FaultInjector) -> Self {
        Faulty {
            inner: StudyEvaluator::new(cfg, benches),
            benches,
            injector,
        }
    }
}

impl Evaluator for Faulty<'_> {
    fn num_cases(&self) -> usize {
        self.inner.num_cases()
    }

    fn eval_case(&self, expr: &Expr, case: usize) -> EvalOutcome {
        self.eval_case_attempt(expr, case, 0)
    }

    /// Only the timeout stage draws at the engine's retry `attempt`; the
    /// permanent stages draw at attempt 0, on every attempt.
    fn eval_case_attempt(&self, expr: &Expr, case: usize, attempt: u32) -> EvalOutcome {
        let key = expr.key();
        let bench = &self.benches[case].name;
        for stage in FaultStage::ALL {
            let at = if stage == FaultStage::Timeout {
                attempt
            } else {
                0
            };
            if let Err(e) = self.injector.check_at(stage, &key, bench, at) {
                return EvalOutcome::Failed(e);
            }
        }
        self.inner.eval_case(expr, case)
    }
}

#[test]
fn zero_rate_never_fires_and_one_always_does() {
    let off = FaultInjector::new(7);
    let on = FaultInjector::uniform(7, 1.0);
    for stage in FaultStage::ALL {
        assert!(!off.should_fail(stage, "(add r0 r1)", "unepic"));
        assert!(on.should_fail(stage, "(add r0 r1)", "unepic"));
    }
}

#[test]
fn decisions_are_deterministic_and_input_sensitive() {
    let inj = FaultInjector::uniform(42, 0.5);
    let a = inj.should_fail(FaultStage::Compile, "(add r0 r1)", "unepic");
    for _ in 0..10 {
        assert_eq!(
            a,
            inj.should_fail(FaultStage::Compile, "(add r0 r1)", "unepic")
        );
    }
    // Across many genomes, both outcomes and both stage-sensitivity and
    // seed-sensitivity must appear.
    let genomes: Vec<String> = (0..200).map(|i| format!("(rconst {i}.5)")).collect();
    let fired = genomes
        .iter()
        .filter(|g| inj.should_fail(FaultStage::Compile, g, "unepic"))
        .count();
    assert!(fired > 50 && fired < 150, "~half should fire, got {fired}");
    let other_seed = FaultInjector::uniform(43, 0.5);
    assert!(
        genomes
            .iter()
            .any(|g| inj.should_fail(FaultStage::Compile, g, "unepic")
                != other_seed.should_fail(FaultStage::Compile, g, "unepic")),
        "different seeds must differ somewhere"
    );
    assert!(
        genomes
            .iter()
            .any(|g| inj.should_fail(FaultStage::Compile, g, "unepic")
                != inj.should_fail(FaultStage::Simulate, g, "unepic")),
        "different stages must differ somewhere"
    );
}

#[test]
fn observed_rate_tracks_configured_rate() {
    let inj = FaultInjector::uniform(1, 0.05);
    let n = 4000;
    let fired = (0..n)
        .filter(|i| inj.should_fail(FaultStage::Simulate, &format!("(rconst {i})"), "102.swim"))
        .count();
    let observed = fired as f64 / n as f64;
    assert!(
        (observed - 0.05).abs() < 0.02,
        "observed rate {observed} too far from 0.05"
    );
}

#[test]
fn timeout_is_attempt_sensitive_and_permanent_stages_are_not() {
    let inj = FaultInjector::uniform(11, 0.5);
    let genomes: Vec<String> = (0..200).map(|i| format!("(rconst {i}.25)")).collect();
    // Permanent stages: the attempt index must not change the decision.
    for stage in [
        FaultStage::Compile,
        FaultStage::CheckIr,
        FaultStage::Validate,
    ] {
        for g in &genomes {
            let base = inj.should_fail_at(stage, g, "unepic", 0);
            for attempt in 1..4 {
                assert_eq!(base, inj.should_fail_at(stage, g, "unepic", attempt));
            }
        }
    }
    // Timeout: some pair must clear on a retry, and some must persist,
    // or the retry path is untestable at this rate.
    let clears = genomes.iter().any(|g| {
        inj.should_fail_at(FaultStage::Timeout, g, "unepic", 0)
            && !inj.should_fail_at(FaultStage::Timeout, g, "unepic", 1)
    });
    let persists = genomes
        .iter()
        .any(|g| (0..3).all(|a| inj.should_fail_at(FaultStage::Timeout, g, "unepic", a)));
    assert!(clears, "no timeout cleared on retry");
    assert!(persists, "no timeout persisted through retries");
    // Transience contract: the timeout stage maps to the one transient
    // error kind, everything else permanent.
    for stage in FaultStage::ALL {
        assert_eq!(stage.kind().is_transient(), stage == FaultStage::Timeout);
    }
}

#[test]
fn check_produces_injected_errors_with_stage_kind() {
    let inj = FaultInjector::uniform(3, 1.0);
    for stage in FaultStage::ALL {
        let err = inj.check(stage, "(add r0 r1)", "unepic").unwrap_err();
        assert_eq!(err.kind, stage.kind());
        assert!(err.injected);
        assert!(err.message.contains("unepic"));
    }
    let off = FaultInjector::new(3);
    for stage in FaultStage::ALL {
        off.check(stage, "(add r0 r1)", "unepic").unwrap();
    }
}

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
    let evaluator = Faulty::new(cfg, &benches, injector);
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

#[test]
fn injected_faults_surface_as_classified_failures() {
    let cfg = study::hyperblock();
    let bench = metaopt_suite::by_name("unepic").unwrap();
    let benches = [PreparedBench::new(&cfg, &bench)];
    // Every pipeline stage surfaces through `eval_case`.
    for stage in FaultStage::ALL {
        let ev = Faulty::new(&cfg, &benches, FaultInjector::new(0).with_rate(stage, 1.0));
        match metaopt_gp::Evaluator::eval_case(&ev, &cfg.baseline_seed, 0) {
            EvalOutcome::Failed(e) => {
                assert_eq!(e.kind, stage.kind());
                assert!(e.injected);
            }
            EvalOutcome::Score(s) => panic!("expected injected failure, got score {s}"),
        }
    }
}

/// Injected validation-stage faults surface in the quarantine ledger as
/// [`EvalErrorKind::Validation`] records with the stage named.
#[test]
fn injected_validation_faults_land_in_the_ledger() {
    let cfg = study::regalloc();
    let bench_names = ["codrle4", "huff_enc"];
    let benches: Vec<PreparedBench> = bench_names
        .iter()
        .map(|n| PreparedBench::new(&cfg, &metaopt_suite::by_name(n).unwrap()))
        .collect();
    let injector = FaultInjector::new(7).with_rate(FaultStage::Validate, 0.3);
    let evaluator = Faulty::new(&cfg, &benches, injector);
    let mut params = GpParams {
        population: 12,
        generations: 3,
        seed: 7,
        threads: 1,
        ..GpParams::quick()
    };
    params.kind = cfg.genome_kind;
    let result = Evolution::new(params, &cfg.features, &evaluator)
        .with_seeds(vec![cfg.baseline_seed.clone()])
        .run();
    assert!(
        !result.quarantined.is_empty(),
        "a 30% validation-stage fault rate must quarantine someone"
    );
    for r in &result.quarantined {
        assert_eq!(
            r.error.kind,
            EvalErrorKind::Validation,
            "only the validation stage was armed: {r}"
        );
        assert!(
            r.error.message.contains("validate"),
            "ledger record must blame the validation stage: {r}"
        );
    }
}
