//! The scalar evolutionary search (paper §3–4, Table 2).
//!
//! [`Evolution`] evolves one priority expression inside a fixed
//! compilation pipeline. It shares with [`crate::coevo::CoEvolution`] the
//! crate-private `evaluate` module: the evaluation core (the `(genome,
//! case)` memo, the persistent [`crate::store::FitnessStore`], transient
//! retries, panic containment, the quarantine ledger, the counters, and the
//! run's trace events and metrics) and the run lifecycle (start, resume,
//! offspring count, checkpoint). This module keeps what is particular to
//! scalar GP: the genome lint gate, dynamic subset selection (its own
//! checkpoint field), tournament selection with parsimony, and elitism.
//!
//! Results are identical at every `threads` setting: each generation's
//! evaluations form one wave whose accounting the core folds serially,
//! and every RNG draw happens on the calling thread.

use crate::checkpoint::{bad, fingerprint, Checkpoint, CheckpointError, DssState};
use crate::dss::Dss;
use crate::eval::{EvalOutcome, QuarantineRecord};
use crate::evaluate::{offspring_count, unwrap_run, EvalCore, Lifecycle};
use crate::expr::{Expr, Kind};
use crate::features::FeatureSet;
use crate::ops::{crossover, mutate};
use metaopt_trace::Tracer;
use rand::rngs::StdRng;
use rand::RngExt;
use std::path::PathBuf;

/// Fitness assigned to a genome whose evaluation failed on any case in the
/// generation's subset (and to lint-rejected genomes): the worst possible
/// score, so quarantined genomes lose every tournament against any genome
/// with a real speedup, but the run itself keeps going.
pub const PENALTY_FITNESS: f64 = 0.0;

/// Supplies fitness: the **speedup over the baseline heuristic** of the
/// program compiled with `expr` as the priority function, per training case
/// (benchmark). Implementations compile and simulate, so calls are costly —
/// the engine memoizes per `(expr, case)`.
///
/// Failure contract: a genome that breaks the compiler, exhausts a budget,
/// or miscompiles must return [`EvalOutcome::Failed`], not panic — the run
/// quarantines it and continues. Panics that do escape are nevertheless
/// caught at the evaluation boundary and converted to
/// [`crate::eval::EvalErrorKind::Panic`] failures.
pub trait Evaluator: Sync {
    /// Number of training cases (benchmarks).
    fn num_cases(&self) -> usize;
    /// Outcome for `expr` on `case`: a speedup score (1.0 = parity) or a
    /// classified failure.
    fn eval_case(&self, expr: &Expr, case: usize) -> EvalOutcome;
    /// [`Evaluator::eval_case`] with a retry-attempt index (0 = first try).
    /// The engine calls this; the default ignores `attempt`, which is right
    /// for deterministic evaluators such as the compile-and-simulate study
    /// evaluator. Evaluators whose [`crate::eval::EvalErrorKind::Timeout`]
    /// failures can clear on a later attempt (the test suites' flaky
    /// evaluators and fault injector) override it.
    fn eval_case_attempt(&self, expr: &Expr, case: usize, attempt: u32) -> EvalOutcome {
        let _ = attempt;
        self.eval_case(expr, case)
    }
}

/// Search parameters (paper Table 2).
#[derive(Clone, Debug)]
pub struct GpParams {
    /// Population size; the population must be at least 2, because each
    /// generation replaces at least one genome and elitism keeps another.
    /// A run panics on a smaller one.
    pub population: usize,
    /// Number of generations.
    pub generations: usize,
    /// Fraction of the population replaced each generation.
    pub replace_frac: f64,
    /// Probability an offspring is mutated.
    pub mutation_rate: f64,
    /// Tournament size.
    pub tournament: usize,
    /// Maximum genome height.
    pub max_depth: usize,
    /// Initial ramped-grow height range.
    pub init_depth: (usize, usize),
    /// Genome sort to evolve.
    pub kind: Kind,
    /// RNG seed (the whole run is deterministic given the evaluator is).
    pub seed: u64,
    /// Worker threads for fitness evaluation.
    pub threads: usize,
    /// Fitness difference regarded as a tie (parsimony applies then).
    pub fitness_epsilon: f64,
    /// Dynamic-subset size (`None` evaluates every case every generation).
    pub subset_size: Option<usize>,
    /// Guarantee the best expression survives each generation (paper
    /// Table 2: "Best expression is guaranteed survival"). Disable only for
    /// ablation studies.
    pub elitism: bool,
    /// How many times a *transient* evaluation failure (see
    /// [`crate::eval::EvalErrorKind::is_transient`]) is retried before the
    /// pair is quarantined. Deterministic failures never retry. Part of the
    /// checkpoint fingerprint: a different retry budget can change which
    /// pairs quarantine, hence every fitness downstream.
    pub retries: u32,
}

impl GpParams {
    /// The paper's Table 2 settings: 400 expressions, 50 generations, 22 %
    /// replacement, 5 % mutation, tournament 7, elitism of one.
    pub fn paper() -> Self {
        GpParams {
            population: 400,
            generations: 50,
            replace_frac: 0.22,
            mutation_rate: 0.05,
            tournament: 7,
            max_depth: 12,
            init_depth: (2, 6),
            kind: Kind::Real,
            seed: 0x5EED,
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
            fitness_epsilon: 1e-6,
            subset_size: None,
            elitism: true,
            retries: 2,
        }
    }

    /// Laptop-scale settings used by the tests and the figure harness.
    pub fn quick() -> Self {
        GpParams {
            population: 40,
            generations: 10,
            ..GpParams::paper()
        }
    }
}

/// One generation's telemetry (drives the paper's Figs. 5/10/14).
#[derive(Clone, Debug, PartialEq)]
pub struct GenLog {
    /// Generation index (0-based).
    pub generation: usize,
    /// Best fitness this generation (mean speedup on this generation's
    /// subset).
    pub best_fitness: f64,
    /// Population mean fitness.
    pub mean_fitness: f64,
    /// Size (node count) of the best expression.
    pub best_size: usize,
    /// The training-case subset evaluated this generation.
    pub subset: Vec<usize>,
}

/// Result of an evolution run.
///
/// Accounting invariant: `evaluations == successes + failures` (every
/// uncached evaluation is exactly one of the two). In a fresh (non-resumed)
/// run `quarantined.len() == failures`, because memoization evaluates each
/// `(genome, case)` pair at most once. A resumed run re-evaluates pairs the
/// killed run had cached (the memo cache is deliberately not persisted), so
/// its counters can exceed the deduplicated ledger.
#[derive(Clone, Debug)]
pub struct EvolutionResult {
    /// Best expression, judged on the *full* training set at the end.
    pub best: Expr,
    /// Its mean speedup on the full training set.
    pub best_fitness: f64,
    /// Per-generation telemetry.
    pub log: Vec<GenLog>,
    /// Number of uncached `(expr, case)` fitness evaluations performed.
    pub evaluations: u64,
    /// Uncached evaluations that produced a score.
    pub successes: u64,
    /// Uncached evaluations that failed (and were quarantined).
    pub failures: u64,
    /// The quarantine ledger: one record per distinct failed
    /// `(genome, case)` pair, with the classified error and diagnostics,
    /// in `(genome, case)` order.
    pub quarantined: Vec<QuarantineRecord>,
    /// Memo-cache hits: `(expr, case)` lookups answered without an
    /// evaluation. Deterministic for a fixed configuration regardless of
    /// thread count — every lookup counts as exactly one of
    /// `evaluations`/`cache_hits`, and the set of pairs to evaluate is
    /// fixed by a serial pass before any worker runs. Not carried across a
    /// resume (the cache itself is not persisted).
    pub cache_hits: u64,
    /// Evaluations answered by the *persistent* fitness store (see
    /// [`Evolution::with_eval_cache`]) instead of a live compile-and-
    /// simulate. A warm hit still counts as one of `evaluations` (and one
    /// of `successes` — only scores are persisted), so a warm run's
    /// counters, ledger, and result are identical to the cold run that
    /// populated the store, with `warm_hits` recording how much work the
    /// store saved. Zero when no store is configured.
    pub warm_hits: u64,
    /// The Pareto front of non-dominated `(plan, expr)` genomes, populated
    /// only by co-evolution ([`crate::coevo::CoEvolution`]); always empty
    /// for scalar single-plan runs, which select on one fitness value.
    pub front: Vec<crate::pareto::ParetoPoint>,
}

/// An evolution run: wraps GP around an [`Evaluator`].
pub struct Evolution<'a, E: Evaluator> {
    params: GpParams,
    features: &'a FeatureSet,
    evaluator: &'a E,
    lifecycle: Lifecycle,
}

impl<'a, E: Evaluator> Evolution<'a, E> {
    /// Create a run over `features` with fitness from `evaluator`.
    pub fn new(params: GpParams, features: &'a FeatureSet, evaluator: &'a E) -> Self {
        Evolution {
            params,
            features,
            evaluator,
            lifecycle: Lifecycle::default(),
        }
    }

    /// Back the fitness memo with a crash-safe persistent store at `path`
    /// (see [`crate::store::FitnessStore`]). Scores persist across runs
    /// keyed on the exact genome and the full configuration fingerprint: a
    /// rerun under an identical configuration answers evaluations from the
    /// store ("warm hits") and produces a bit-identical
    /// [`EvolutionResult`]; a store written under any other configuration
    /// is ignored. An unreadable or corrupted store degrades to in-memory
    /// operation — it never fails the run.
    pub fn with_eval_cache(mut self, path: impl Into<PathBuf>) -> Self {
        self.lifecycle.eval_cache = Some(path.into());
        self
    }

    /// Emit `run-trace.v1` events (evolution/generation/eval/checkpoint
    /// spans) into `tracer`. The default is [`Tracer::disabled`], which
    /// costs one branch per would-be event and leaves results bit-identical
    /// to a build without tracing.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.lifecycle.tracer = tracer;
        self
    }

    /// Tag the run with an evaluator-configuration description (e.g. the
    /// compiler's pipeline plan) that becomes part of the checkpoint
    /// fingerprint: resuming under a different configuration — which would
    /// silently change every fitness value — is rejected like any other
    /// parameter mismatch.
    pub fn with_config_tag(mut self, tag: impl Into<String>) -> Self {
        self.lifecycle.config_tag = tag.into();
        self
    }

    /// Seed the initial population (paper §4: "we seed the initial
    /// population with the compiler writer's best guess").
    pub fn with_seeds(mut self, seeds: Vec<Expr>) -> Self {
        self.lifecycle.seeds = seeds;
        self
    }

    /// Write a resumable checkpoint to `path` after every generation's
    /// breeding step (atomically: temp file + rename).
    pub fn with_checkpoint_file(mut self, path: impl Into<PathBuf>) -> Self {
        self.lifecycle.checkpoint_path = Some(path.into());
        self
    }

    /// Resume from a previously saved checkpoint instead of initializing a
    /// fresh population. The checkpoint's parameter fingerprint must match
    /// this run's (all params except `generations` and `threads`); with the
    /// same deterministic evaluator, a resumed run reproduces the
    /// uninterrupted run exactly.
    pub fn resume_from(mut self, checkpoint: Checkpoint) -> Self {
        self.lifecycle.resume = Some(checkpoint);
        self
    }

    /// Score `items` — `(genome key, genome)` pairs — on `cases` through
    /// the core, with this run's evaluator.
    fn wave(
        &self,
        core: &mut EvalCore<f64>,
        items: &[(&str, &Expr)],
        cases: &[usize],
        gen: usize,
    ) -> Vec<Vec<Option<f64>>> {
        core.wave(items, cases, gen, |expr: &Expr, case, attempt| {
            match self.evaluator.eval_case_attempt(expr, case, attempt) {
                EvalOutcome::Score(s) => Ok(s),
                EvalOutcome::Failed(err) => Err(err),
            }
        })
    }

    /// Population fitness for one generation: each genome's mean speedup
    /// over `subset`, or [`PENALTY_FITNESS`] if it failed on any case.
    /// Every case is evaluated even after a failure, so the quarantine
    /// ledger carries the genome's complete per-case failure profile.
    /// Malformed genomes (wrong sort, out-of-range features, non-finite
    /// constants, certain zero divisions) score the penalty straight from
    /// the lint gate, without an evaluation.
    fn evaluate_all(
        &self,
        core: &mut EvalCore<f64>,
        pop: &[Expr],
        subset: &[usize],
        gen: usize,
    ) -> Vec<f64> {
        if subset.is_empty() {
            return vec![1.0; pop.len()];
        }
        let keys: Vec<Option<String>> = pop
            .iter()
            .map(|e| {
                crate::lint::reject(e, self.params.kind, self.features)
                    .ok()
                    .map(|()| e.key())
            })
            .collect();
        let items: Vec<(&str, &Expr)> = keys
            .iter()
            .zip(pop)
            .filter_map(|(key, e)| Some((key.as_deref()?, e)))
            .collect();
        let mut scores = self.wave(core, &items, subset, gen).into_iter();
        keys.iter()
            .map(|key| {
                if key.is_none() {
                    return PENALTY_FITNESS;
                }
                let cases = scores.next().expect("one score row per linted genome");
                cases
                    .into_iter()
                    .try_fold(0.0, |sum, s| Some(sum + s?))
                    .map_or(PENALTY_FITNESS, |sum| sum / subset.len() as f64)
            })
            .collect()
    }

    /// Tournament of `k` with parsimony: highest fitness wins; ties go to
    /// the smaller expression (paper §3).
    fn tournament(&self, rng: &mut StdRng, pop: &[Expr], fits: &[f64]) -> usize {
        let k = self.params.tournament.max(1);
        let mut best = rng.random_range(0..pop.len());
        for _ in 1..k {
            let c = rng.random_range(0..pop.len());
            if better(
                fits[c],
                pop[c].size(),
                fits[best],
                pop[best].size(),
                self.params.fitness_epsilon,
            ) {
                best = c;
            }
        }
        best
    }

    /// The run's DSS state: the resume checkpoint's, which must cover the
    /// evaluator's `ncases` cases, or on a fresh start a new one when the
    /// params ask for subsets smaller than the training set.
    fn dss(
        &self,
        resume: Option<&Checkpoint>,
        ncases: usize,
    ) -> Result<Option<Dss>, CheckpointError> {
        let Some(ck) = resume else {
            let subset_size = self.params.subset_size.filter(|&s| s < ncases);
            return Ok(subset_size.map(|s| Dss::new(ncases, s)));
        };
        let Some(st) = &ck.dss else {
            return Ok(None);
        };
        let covered = st.difficulty.len();
        Dss::restore(st.subset_size, st.difficulty.clone(), st.age.clone())
            .filter(|d| d.num_cases() == ncases)
            .map(Some)
            .ok_or_else(|| {
                bad(format!(
                    "DSS state covers {covered} cases, evaluator has {ncases}"
                ))
            })
    }

    /// Run the evolution, panicking on checkpoint/resume failures.
    ///
    /// Fitness-evaluation failures never panic — they are quarantined and
    /// the search continues (see [`Evolution::try_run`]). The only panics
    /// here are checkpoint I/O errors or a parameter-mismatched resume,
    /// which have no sensible in-run recovery; callers using
    /// checkpoint/resume should prefer [`Evolution::try_run`] and report
    /// the error.
    pub fn run(&self) -> EvolutionResult {
        unwrap_run(self.try_run(), "evolution")
    }

    /// Run the evolution, surfacing checkpoint/resume errors.
    pub fn try_run(&self) -> Result<EvolutionResult, CheckpointError> {
        let p = &self.params;
        let k = offspring_count(p);
        let ncases = self.evaluator.num_cases();
        let all_cases: Vec<usize> = (0..ncases).collect();
        let fp = fingerprint(p, &self.lifecycle.config_tag);
        let (mut run, (mut pop, mut dss)) =
            self.lifecycle
                .start(p, self.features, fp, p.population, |pop, resume| {
                    Ok((pop, self.dss(resume, ncases)?))
                })?;

        for generation in run.first_generation..p.generations {
            let mark = run.core.mark();
            let subset = match &mut dss {
                Some(d) => d.select(&mut run.rng),
                None => all_cases.clone(),
            };
            let fits = self.evaluate_all(&mut run.core, &pop, &subset, generation);

            let best_idx = argbest(&fits, &pop, p.fitness_epsilon);
            run.log.push(GenLog {
                generation,
                best_fitness: fits[best_idx],
                mean_fitness: fits.iter().sum::<f64>() / fits.len().max(1) as f64,
                best_size: pop[best_idx].size(),
                subset: subset.clone(),
            });

            // Feed DSS with the best expression's per-case speedups, read
            // through the core (so they count as cache hits); a quarantined
            // case reports the worst score, so DSS keeps re-selecting it
            // until the population stops failing there.
            if let Some(d) = &mut dss {
                let best = &pop[best_idx];
                let key = best.key();
                let scores = self.wave(&mut run.core, &[(key.as_str(), best)], &subset, generation);
                for (&c, s) in subset.iter().zip(&scores[0]) {
                    d.report(c, s.unwrap_or(PENALTY_FITNESS));
                }
            }
            run.core
                .end_generation(run.log.last().expect("just pushed"), mark);

            if generation + 1 == p.generations {
                break;
            }

            // Breed: replace `k` genomes (elitism: the best expression is
            // never displaced).
            let rng = &mut run.rng;
            let mut offspring = Vec::with_capacity(k);
            for _ in 0..k {
                let a = self.tournament(rng, &pop, &fits);
                let b = self.tournament(rng, &pop, &fits);
                let mut child = crossover(rng, &pop[a], &pop[b], p.max_depth);
                if rng.random_bool(p.mutation_rate) {
                    child = mutate(rng, &child, self.features, p.max_depth);
                }
                offspring.push(child);
            }
            for child in offspring {
                loop {
                    let slot = rng.random_range(0..pop.len());
                    if !p.elitism || slot != best_idx {
                        pop[slot] = child;
                        break;
                    }
                }
            }

            // Snapshot at the generation boundary: everything the next
            // generation's RNG draws and fitness comparisons depend on is
            // now settled.
            run.checkpoint(generation + 1, |ck| {
                // Serialize via `key()` (full-precision constants): `Display`
                // rounds to four decimals, which would corrupt genomes
                // across a resume.
                ck.population = pop.iter().map(Expr::key).collect();
                ck.dss = dss.as_ref().map(|d| {
                    let (difficulty, age) = d.state();
                    DssState {
                        subset_size: d.subset_size(),
                        difficulty,
                        age,
                    }
                });
            })?;
        }

        // Final judgement on the full training set (attributed to the
        // one-past-the-end generation index in the trace).
        let final_fits = self.evaluate_all(&mut run.core, &pop, &all_cases, p.generations);
        run.core.snapshot(p.generations);
        let best_idx = argbest(&final_fits, &pop, p.fitness_epsilon);
        let best = pop.swap_remove(best_idx);
        let best_key = best.key();
        let result = run
            .core
            .finish(best, &best_key, final_fits[best_idx], run.log, Vec::new());
        Ok(result)
    }
}

fn better(fa: f64, sa: usize, fb: f64, sb: usize, eps: f64) -> bool {
    if (fa - fb).abs() <= eps {
        sa < sb
    } else {
        fa > fb
    }
}

fn argbest(fits: &[f64], pop: &[Expr], eps: f64) -> usize {
    let mut best = 0;
    for i in 1..fits.len() {
        if better(fits[i], pop[i].size(), fits[best], pop[best].size(), eps) {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Env;
    use crate::parse::parse_expr;
    use metaopt_trace::metrics::MetricsRegistry;
    use std::collections::HashMap;

    /// Symbolic-regression-style evaluator: fitness is closeness of the
    /// expression to `2x + 1` over sample points; each "case" weights a
    /// different sample range. Fast and deterministic — exercises the whole
    /// engine without a compiler in the loop.
    struct Regress;

    impl Evaluator for Regress {
        fn num_cases(&self) -> usize {
            3
        }

        fn eval_case(&self, expr: &Expr, case: usize) -> EvalOutcome {
            let lo = case as f64;
            let mut err = 0.0;
            for i in 0..10 {
                let x = lo + i as f64 * 0.3;
                let want = 2.0 * x + 1.0;
                let got = expr.eval_real(&Env {
                    reals: &[x],
                    bools: &[],
                });
                err += (want - got).abs();
            }
            // Map error to a "speedup"-like score: 2.0 at perfect fit.
            EvalOutcome::Score(2.0 / (1.0 + err / 10.0))
        }
    }

    fn features() -> FeatureSet {
        let mut fs = FeatureSet::new();
        fs.add_real("x");
        fs
    }

    #[test]
    fn malformed_seed_is_rejected_without_an_evaluation() {
        // A kind-mismatched genome (Bool in a Real study) must score 0.0
        // straight from the lint gate — the evaluator must never see it.
        struct NoBools;
        impl Evaluator for NoBools {
            fn num_cases(&self) -> usize {
                1
            }
            fn eval_case(&self, expr: &Expr, _case: usize) -> EvalOutcome {
                assert!(
                    expr.kind() != Kind::Bool,
                    "lint-rejected genome reached the evaluator: {expr}"
                );
                EvalOutcome::Score(1.5)
            }
        }
        let fs = features();
        let bad = parse_expr("(bconst true)", &fs).unwrap();
        let good = parse_expr("(mul 2.0 x)", &fs).unwrap();
        let mut params = GpParams::quick();
        params.generations = 3;
        params.population = 10;
        params.seed = 11;
        params.threads = 1;
        let result = Evolution::new(params, &fs, &NoBools)
            .with_seeds(vec![bad, good])
            .run();
        assert_eq!(result.best.kind(), Kind::Real);
        assert!(result.best_fitness > 0.0);
    }

    #[test]
    fn evolution_improves_over_random_start() {
        let fs = features();
        let ev = Regress;
        let mut params = GpParams::quick();
        params.generations = 15;
        params.population = 60;
        params.seed = 3;
        params.threads = 2;
        let result = Evolution::new(params, &fs, &ev).run();
        let first = result.log.first().unwrap().best_fitness;
        let last = result.log.last().unwrap().best_fitness;
        assert!(last >= first, "{last} >= {first}");
        assert!(
            result.best_fitness > 1.0,
            "found something decent: {}",
            result.best_fitness
        );
        assert_eq!(result.log.len(), 15);
        assert!(result.evaluations > 0);
    }

    #[test]
    fn seed_guarantees_baseline_floor() {
        // Seeding with the exact solution: the engine can never return
        // anything worse (elitism + final full evaluation).
        let fs = features();
        let ev = Regress;
        let seed = parse_expr("(add (mul 2.0 x) 1.0)", &fs).unwrap();
        let perfect = (0..3)
            .map(|c| ev.eval_case(&seed, c).score().unwrap())
            .sum::<f64>()
            / 3.0;
        let mut params = GpParams::quick();
        params.generations = 5;
        params.population = 20;
        let result = Evolution::new(params, &fs, &ev)
            .with_seeds(vec![seed])
            .run();
        assert!(
            result.best_fitness >= perfect - 1e-9,
            "{} vs {perfect}",
            result.best_fitness
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let fs = features();
        let ev = Regress;
        let mut params = GpParams::quick();
        params.generations = 6;
        params.population = 24;
        params.threads = 1;
        let a = Evolution::new(params.clone(), &fs, &ev).run();
        let b = Evolution::new(params, &fs, &ev).run();
        assert_eq!(a.best.key(), b.best.key());
        assert_eq!(a.best_fitness, b.best_fitness);
    }

    #[test]
    fn dss_mode_selects_subsets() {
        let fs = features();
        let ev = Regress;
        let mut params = GpParams::quick();
        params.generations = 6;
        params.population = 20;
        params.subset_size = Some(2);
        let result = Evolution::new(params, &fs, &ev).run();
        assert!(result.log.iter().all(|g| g.subset.len() == 2));
    }

    #[test]
    fn elitism_off_still_produces_valid_results() {
        let fs = features();
        let ev = Regress;
        let mut params = GpParams::quick();
        params.generations = 6;
        params.population = 20;
        params.elitism = false;
        let r = Evolution::new(params, &fs, &ev).run();
        assert!(r.best_fitness.is_finite());
        assert_eq!(r.log.len(), 6);
    }

    #[test]
    fn parsimony_prefers_smaller_of_equal_fitness() {
        assert!(better(1.0, 3, 1.0, 9, 1e-6));
        assert!(!better(1.0, 9, 1.0, 3, 1e-6));
        assert!(better(1.5, 9, 1.0, 3, 1e-6));
    }

    use crate::eval::{EvalError, EvalErrorKind};

    /// Deterministic FNV-1a hash, stable across runs and platforms.
    fn fnv(s: &str) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in s.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1_0000_01b3);
        }
        h
    }

    /// `Regress`, except a deterministic slice of the genome space fails —
    /// some with structured errors, some by panicking. The genome whose key
    /// equals `safe` (the perfect seed in the tests below) never fails.
    struct Flaky {
        safe: String,
    }

    impl Flaky {
        fn new(fs: &FeatureSet) -> Self {
            Flaky {
                safe: parse_expr("(add (mul 2.0 x) 1.0)", fs).unwrap().key(),
            }
        }
    }

    impl Evaluator for Flaky {
        fn num_cases(&self) -> usize {
            3
        }

        fn eval_case(&self, expr: &Expr, case: usize) -> EvalOutcome {
            let key = expr.key();
            if key != self.safe {
                let h = fnv(&format!("{key}#{case}"));
                match h % 10 {
                    0 | 1 => {
                        return EvalOutcome::Failed(EvalError::new(
                            EvalErrorKind::Budget,
                            format!("synthetic budget blowout on case {case}"),
                        ))
                    }
                    2 => panic!("synthetic evaluator panic on case {case}"),
                    _ => {}
                }
            }
            Regress.eval_case(expr, case)
        }
    }

    #[test]
    fn failures_are_quarantined_and_accounted() {
        let fs = features();
        let mut params = GpParams::quick();
        params.generations = 6;
        params.population = 30;
        params.seed = 5;
        params.threads = 2;
        let ev = Flaky::new(&fs);
        let result = Evolution::new(params, &fs, &ev)
            .with_seeds(vec![parse_expr("(add (mul 2.0 x) 1.0)", &fs).unwrap()])
            .run();

        assert_eq!(result.log.len(), 6, "every generation completed");
        assert_eq!(result.evaluations, result.successes + result.failures);
        assert!(result.failures > 0, "the flaky slice must have been hit");
        // Fresh run: memoization evaluates each pair once, so the deduped
        // ledger covers every failure.
        assert_eq!(result.quarantined.len() as u64, result.failures);
        // Every record reproduces: the evaluator really fails that pair.
        for r in &result.quarantined {
            let h = fnv(&format!("{}#{}", r.genome, r.case));
            assert!(h % 10 <= 2, "ledger record not a synthetic failure: {r}");
            let expected_kind = if h % 10 == 2 {
                EvalErrorKind::Panic
            } else {
                EvalErrorKind::Budget
            };
            assert_eq!(r.error.kind, expected_kind, "{r}");
        }
        // Panic-class failures were caught, classified, and carry the
        // payload message.
        assert!(result
            .quarantined
            .iter()
            .any(|r| r.error.kind == EvalErrorKind::Panic
                && r.error.message.contains("synthetic evaluator panic")));
        // The winner is never a quarantined genome (the seed is clean and
        // scores ~2.0; penalty fitness is 0.0).
        assert!(!result
            .quarantined
            .iter()
            .any(|r| r.genome == result.best.key()));
        assert!(result.best_fitness > 1.0);
    }

    #[test]
    fn flaky_runs_are_deterministic() {
        let fs = features();
        let mut params = GpParams::quick();
        params.generations = 5;
        params.population = 24;
        params.seed = 8;
        params.threads = 2;
        let ev = Flaky::new(&fs);
        let a = Evolution::new(params.clone(), &fs, &ev).run();
        let b = Evolution::new(params, &fs, &ev).run();
        assert_eq!(a.best.key(), b.best.key());
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(a.quarantined, b.quarantined);
    }

    fn temp_checkpoint(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("metaopt-gp-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("checkpoint.txt")
    }

    /// Remove a [`temp_checkpoint`] or [`temp_store`] path with the
    /// directory it was made in.
    fn remove_temp(path: &std::path::Path) {
        if let Some(dir) = path.parent() {
            std::fs::remove_dir_all(dir).ok();
        }
    }

    #[test]
    fn resume_reproduces_uninterrupted_run() {
        let fs = features();
        let mut short = GpParams::quick();
        short.generations = 3;
        short.population = 16;
        short.seed = 99;
        short.threads = 1;
        short.subset_size = Some(2); // exercise DSS state round-tripping
        let mut full = short.clone();
        full.generations = 8;

        let ev = Flaky::new(&fs);
        // Phase 1: a "killed" run — only 3 of 8 generations happen.
        let path = temp_checkpoint("resume");
        Evolution::new(short, &fs, &ev)
            .with_checkpoint_file(&path)
            .try_run()
            .unwrap();

        // Phase 2: resume from its last checkpoint with the full horizon.
        let ck = Checkpoint::load(&path).unwrap();
        let resumed = Evolution::new(full.clone(), &fs, &ev)
            .resume_from(ck)
            .try_run()
            .unwrap();

        let straight = Evolution::new(full, &fs, &ev).run();
        assert_eq!(resumed.best.key(), straight.best.key());
        assert_eq!(resumed.best_fitness, straight.best_fitness);
        assert_eq!(resumed.log.len(), straight.log.len());
        for (a, b) in resumed.log.iter().zip(&straight.log) {
            assert_eq!(a, b, "per-generation telemetry must match");
        }
        // The deduped ledgers agree even though the resumed run re-evaluates
        // pairs the killed run had cached.
        assert_eq!(resumed.quarantined, straight.quarantined);
        remove_temp(&path);
    }

    #[test]
    fn sharded_cache_counters_match_serial_run() {
        // A threaded run must report exactly the counters (and ledger) of
        // the serial run, because both count the same set of distinct
        // evaluated (genome, case) pairs.
        let fs = features();
        let ev = Flaky::new(&fs);
        let mut params = GpParams::quick();
        params.generations = 6;
        params.population = 32;
        params.seed = 21;
        params.subset_size = Some(2);
        params.threads = 1;
        let serial = Evolution::new(params.clone(), &fs, &ev).run();
        for threads in [2, 4, 8] {
            params.threads = threads;
            let t = Evolution::new(params.clone(), &fs, &ev).run();
            assert_eq!(t.evaluations, serial.evaluations, "threads={threads}");
            assert_eq!(t.successes, serial.successes, "threads={threads}");
            assert_eq!(t.failures, serial.failures, "threads={threads}");
            assert_eq!(t.cache_hits, serial.cache_hits, "threads={threads}");
            assert_eq!(t.quarantined, serial.quarantined, "threads={threads}");
            assert_eq!(t.best.key(), serial.best.key(), "threads={threads}");
        }
    }

    #[test]
    fn trace_events_cover_the_run() {
        let fs = features();
        let ev = Flaky::new(&fs);
        let mut params = GpParams::quick();
        params.generations = 3;
        params.population = 16;
        params.seed = 7;
        params.threads = 1;
        let tracer = Tracer::in_memory();
        let path = temp_checkpoint("trace-events");
        let result = Evolution::new(params, &fs, &ev)
            .with_tracer(tracer.clone())
            .with_checkpoint_file(&path)
            .try_run()
            .unwrap();
        let lines = tracer.lines().unwrap();
        let text = lines.join("\n");
        let summary = metaopt_trace::schema::validate_trace(&text).unwrap();
        let count = |ty: &str| {
            summary
                .by_type
                .iter()
                .find(|(t, _)| t == ty)
                .map_or(0, |(_, n)| *n)
        };
        assert_eq!(count("evolution-start"), 1);
        assert_eq!(count("evolution-end"), 1);
        assert_eq!(count("generation"), 3);
        // Checkpoints happen at every generation boundary except the last.
        assert_eq!(count("checkpoint"), 2);
        // One eval event per uncached evaluation, no more, no less.
        assert_eq!(count("eval"), result.evaluations as usize);
        // Generation events account for every evaluation up to the final
        // full-set judgement, whose evals carry gen == params.generations.
        let evals_in_gens: u64 = lines
            .iter()
            .filter_map(|l| {
                let v = metaopt_trace::json::parse(l).ok()?;
                (v.get("type")?.as_str()? == "generation")
                    .then(|| v.get("evals").unwrap().as_u64().unwrap())
            })
            .sum();
        assert!(evals_in_gens <= result.evaluations);
        remove_temp(&path);
    }

    #[test]
    fn disabled_tracer_leaves_results_identical() {
        let fs = features();
        let ev = Flaky::new(&fs);
        let mut params = GpParams::quick();
        params.generations = 4;
        params.population = 20;
        params.seed = 13;
        params.threads = 2;
        let plain = Evolution::new(params.clone(), &fs, &ev).run();
        let traced = Evolution::new(params.clone(), &fs, &ev)
            .with_tracer(Tracer::in_memory())
            .run();
        // A live metrics registry is derived state only: attaching one (and
        // streaming per-generation snapshots) perturbs nothing either.
        let metered = Evolution::new(params, &fs, &ev)
            .with_tracer(Tracer::in_memory().with_metrics(MetricsRegistry::new()))
            .run();
        for (label, other) in [("traced", &traced), ("metered", &metered)] {
            assert_eq!(plain.best.key(), other.best.key(), "{label}");
            assert_eq!(plain.best_fitness, other.best_fitness, "{label}");
            assert_eq!(plain.log, other.log, "{label}");
            assert_eq!(plain.evaluations, other.evaluations, "{label}");
            assert_eq!(plain.quarantined, other.quarantined, "{label}");
        }
    }

    #[test]
    fn metrics_registry_mirrors_result_counters() {
        let fs = features();
        let ev = Flaky::new(&fs);
        let mut params = GpParams::quick();
        params.generations = 3;
        params.population = 16;
        params.seed = 7;
        params.threads = 2;
        let registry = MetricsRegistry::new();
        let tracer = Tracer::in_memory().with_metrics(registry.clone());
        let result = Evolution::new(params.clone(), &fs, &ev)
            .with_tracer(tracer.clone())
            .run();

        // The live digest and its exposition agree with the engine's own
        // accounting. Cache hits are those inside generations, as the
        // `generation` events count them.
        let digest = registry.report();
        let evaluations = digest.eval_ns.len() as u64;
        let failures: u64 = digest.quarantine.iter().map(|(_, n)| n).sum();
        assert_eq!(evaluations, result.evaluations);
        assert_eq!(evaluations - failures, result.successes);
        assert_eq!(failures, result.failures);
        let generation_hits: u64 = tracer
            .lines()
            .unwrap()
            .iter()
            .map(|l| metaopt_trace::json::parse(l).unwrap())
            .filter(|v| v.get("type").and_then(|t| t.as_str()) == Some("generation"))
            .map(|v| v.get("cache_hits").and_then(|h| h.as_u64()).unwrap())
            .sum();
        assert_eq!(digest.total_hits, generation_hits);
        let text = metaopt_trace::metrics::render(&digest);
        for (sample, value) in [
            ("metaopt_evaluations_total", result.evaluations),
            ("metaopt_eval_success_total", result.successes),
            ("metaopt_eval_failure_total", result.failures),
            ("metaopt_cache_hits_total", generation_hits),
            ("metaopt_eval_latency_ns_count", result.evaluations),
            ("metaopt_population", 16),
            ("metaopt_threads", 2),
        ] {
            let line = format!("\n{sample} {value}\n");
            assert!(text.contains(&line), "missing {line:?} in:\n{text}");
        }

        // One snapshot per generation plus the final full-set snapshot,
        // and every line passes strict validation (validate_trace above
        // covers them in other tests; here check the count and ordering).
        let snaps: Vec<String> = tracer
            .lines()
            .unwrap()
            .iter()
            .filter(|l| l.contains("\"metrics-snapshot\""))
            .cloned()
            .collect();
        assert_eq!(snaps.len(), params.generations + 1);
        for (seq, line) in snaps.iter().enumerate() {
            assert!(line.contains(&format!("\"seq\":{seq}")), "{line}");
        }
    }

    /// `Regress`, except a deterministic slice of `(genome, case)` pairs
    /// fails with a *transient* timeout on attempts below `clears_at`.
    /// With `retries >= clears_at` every pair eventually scores; with
    /// fewer retries the slice quarantines as `Timeout`.
    struct Transient {
        clears_at: u32,
    }

    impl Evaluator for Transient {
        fn num_cases(&self) -> usize {
            3
        }

        fn eval_case(&self, expr: &Expr, case: usize) -> EvalOutcome {
            self.eval_case_attempt(expr, case, 0)
        }

        fn eval_case_attempt(&self, expr: &Expr, case: usize, attempt: u32) -> EvalOutcome {
            let h = fnv(&format!("{}#{case}", expr.key()));
            if h.is_multiple_of(4) && attempt < self.clears_at {
                return EvalOutcome::Failed(EvalError::new(
                    EvalErrorKind::Timeout,
                    format!("synthetic transient timeout, attempt {attempt}"),
                ));
            }
            Regress.eval_case(expr, case)
        }
    }

    #[test]
    fn transient_timeouts_are_retried_to_success() {
        let fs = features();
        let mut params = GpParams::quick();
        params.generations = 4;
        params.population = 20;
        params.seed = 17;
        params.threads = 2;
        params.retries = 2;
        let tracer = Tracer::in_memory();
        let result = Evolution::new(params.clone(), &fs, &Transient { clears_at: 2 })
            .with_tracer(tracer.clone())
            .run();
        // Every transient pair cleared within the retry budget: nothing
        // quarantines, and the run matches a never-failing evaluator's.
        assert_eq!(result.failures, 0, "{:?}", result.quarantined);
        let clean = Evolution::new(params, &fs, &Regress).run();
        assert_eq!(result.best.key(), clean.best.key());
        assert_eq!(result.best_fitness, clean.best_fitness);
        // Retry events were traced, all timeout-kind, attempts 0 then 1
        // for each retried pair.
        let lines = tracer.lines().unwrap();
        let retries: Vec<_> = lines
            .iter()
            .filter_map(|l| {
                let v = metaopt_trace::json::parse(l).ok()?;
                (v.get("type")?.as_str()? == "retry").then_some(v)
            })
            .collect();
        assert!(!retries.is_empty(), "expected traced retries");
        let mut per_pair: HashMap<String, Vec<u64>> = HashMap::new();
        for r in &retries {
            assert_eq!(r.get("kind").unwrap().as_str().unwrap(), "timeout");
            assert!(r.get("backoff_ns").unwrap().as_u64().unwrap() > 0);
            let pair = format!(
                "{}#{}",
                r.get("genome").unwrap().as_str().unwrap(),
                r.get("case").unwrap().as_u64().unwrap()
            );
            per_pair
                .entry(pair)
                .or_default()
                .push(r.get("attempt").unwrap().as_u64().unwrap());
        }
        for (pair, attempts) in &per_pair {
            assert_eq!(attempts, &vec![0, 1], "attempts for {pair}");
        }
    }

    #[test]
    fn exhausted_retries_quarantine_as_timeout() {
        let fs = features();
        let mut params = GpParams::quick();
        params.generations = 3;
        params.population = 16;
        params.seed = 17;
        params.threads = 2;
        params.retries = 1; // clears_at = 2 ⇒ the slice never clears
        let result = Evolution::new(params, &fs, &Transient { clears_at: 2 }).run();
        assert!(result.failures > 0, "transient slice must have been hit");
        assert_eq!(result.evaluations, result.successes + result.failures);
        for r in &result.quarantined {
            assert_eq!(r.error.kind, EvalErrorKind::Timeout, "{r}");
        }
    }

    #[test]
    fn retried_runs_are_deterministic_across_threads() {
        let fs = features();
        let mut params = GpParams::quick();
        params.generations = 4;
        params.population = 24;
        params.seed = 23;
        params.retries = 2;
        params.threads = 1;
        let serial = Evolution::new(params.clone(), &fs, &Transient { clears_at: 3 }).run();
        for threads in [2, 4] {
            params.threads = threads;
            let t = Evolution::new(params.clone(), &fs, &Transient { clears_at: 3 }).run();
            assert_eq!(t.evaluations, serial.evaluations, "threads={threads}");
            assert_eq!(t.failures, serial.failures, "threads={threads}");
            assert_eq!(t.cache_hits, serial.cache_hits, "threads={threads}");
            assert_eq!(t.quarantined, serial.quarantined, "threads={threads}");
            assert_eq!(t.best.key(), serial.best.key(), "threads={threads}");
        }
    }

    fn temp_store(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("metaopt-gp-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("fitness.cache")
    }

    #[test]
    fn warm_cache_run_reproduces_cold_run() {
        let fs = features();
        let ev = Flaky::new(&fs);
        let mut params = GpParams::quick();
        params.generations = 5;
        params.population = 24;
        params.seed = 31;
        params.threads = 2;
        params.subset_size = Some(2);
        let path = temp_store("warm");
        std::fs::remove_file(&path).ok();

        let cold = Evolution::new(params.clone(), &fs, &ev)
            .with_eval_cache(&path)
            .run();
        assert_eq!(cold.warm_hits, 0, "first run has nothing to be warm from");

        let tracer = Tracer::in_memory();
        let warm = Evolution::new(params.clone(), &fs, &ev)
            .with_eval_cache(&path)
            .with_tracer(tracer.clone())
            .run();
        // Identical results and accounting — the store only substitutes
        // *where* scores come from, never what they are. Failures are not
        // persisted, so failed pairs re-evaluate (and re-fail identically).
        assert_eq!(warm.best.key(), cold.best.key());
        assert_eq!(warm.best_fitness, cold.best_fitness);
        assert_eq!(warm.log, cold.log);
        assert_eq!(warm.evaluations, cold.evaluations);
        assert_eq!(warm.successes, cold.successes);
        assert_eq!(warm.failures, cold.failures);
        assert_eq!(warm.cache_hits, cold.cache_hits);
        assert_eq!(warm.quarantined, cold.quarantined);
        assert_eq!(
            warm.warm_hits, cold.successes,
            "every scored pair should come from the store"
        );
        // Warm evals are marked in the trace.
        let warm_evals = tracer
            .lines()
            .unwrap()
            .iter()
            .filter(|l| l.contains("\"type\":\"eval\"") && l.contains("\"warm\":true"))
            .count() as u64;
        assert_eq!(warm_evals, warm.warm_hits);

        // Corrupt the tail: the next run recovers (dropping the damaged
        // record) and still reproduces the cold run bit-for-bit.
        {
            use std::io::{Seek, SeekFrom, Write};
            let mut f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            let len = f.metadata().unwrap().len();
            f.seek(SeekFrom::Start(len - 3)).unwrap();
            f.write_all(&[0xFF]).unwrap();
        }
        let recovered = Evolution::new(params, &fs, &ev)
            .with_eval_cache(&path)
            .run();
        assert_eq!(recovered.best.key(), cold.best.key());
        assert_eq!(recovered.best_fitness, cold.best_fitness);
        assert_eq!(recovered.evaluations, cold.evaluations);
        assert!(
            recovered.warm_hits >= cold.successes - 1,
            "at most the damaged record re-evaluates: {} vs {}",
            recovered.warm_hits,
            cold.successes
        );
        remove_temp(&path);
    }

    #[test]
    fn eval_cache_is_fingerprint_scoped() {
        // A store written under one configuration must not leak scores
        // into a run under another: the second run degrades to cold.
        let fs = features();
        let ev = Regress;
        let mut params = GpParams::quick();
        params.generations = 3;
        params.population = 16;
        params.seed = 41;
        params.threads = 1;
        let path = temp_store("fp-scope");
        std::fs::remove_file(&path).ok();
        Evolution::new(params.clone(), &fs, &ev)
            .with_eval_cache(&path)
            .run();
        let mut other = params;
        other.seed ^= 0x1000;
        let fresh = Evolution::new(other, &fs, &ev).with_eval_cache(&path).run();
        assert_eq!(fresh.warm_hits, 0, "foreign-fingerprint store was used");
        remove_temp(&path);
    }

    #[test]
    fn resume_refuses_a_population_of_the_wrong_size() {
        let fs = features();
        let mut params = GpParams::quick();
        params.generations = 2;
        params.population = 10;
        params.threads = 1;
        let path = temp_checkpoint("cut");
        Evolution::new(params.clone(), &fs, &Regress)
            .with_checkpoint_file(&path)
            .try_run()
            .unwrap();
        let mut ck = Checkpoint::load(&path).unwrap();
        ck.population.truncate(3);
        let err = Evolution::new(params, &fs, &Regress)
            .resume_from(ck)
            .try_run()
            .unwrap_err();
        assert!(
            matches!(&err, CheckpointError::Parse { message, .. }
                if message == "checkpoint has 3 genomes, params want 10"),
            "{err}"
        );
        remove_temp(&path);
    }

    #[test]
    fn resume_refuses_mismatched_params() {
        let fs = features();
        let mut params = GpParams::quick();
        params.generations = 2;
        params.population = 10;
        params.threads = 1;
        let path = temp_checkpoint("mismatch");
        Evolution::new(params.clone(), &fs, &Regress)
            .with_checkpoint_file(&path)
            .try_run()
            .unwrap();
        let ck = Checkpoint::load(&path).unwrap();
        let mut other = params;
        other.seed ^= 0xFF;
        let err = Evolution::new(other, &fs, &Regress)
            .resume_from(ck)
            .try_run()
            .unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch { .. }));
        remove_temp(&path);
    }
}
