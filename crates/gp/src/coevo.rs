//! Co-evolution of `(pipeline plan, priority function)` genomes under
//! multi-objective Pareto-rank selection.
//!
//! Where [`crate::engine::Evolution`] searches priority-function space
//! inside one fixed compilation pipeline, [`CoEvolution`] searches the
//! joint space: each genome is a [`PlanGenome`] pairing a pipeline plan
//! with an expression, and each evaluation produces an integer *objective
//! vector* (simulated cycles, code size, compile-cost proxy — all
//! minimized) instead of a single fitness. Selection is NSGA-II: crowded
//! tournament for parents, then (μ+λ) environmental selection by
//! non-dominated rank with crowding-distance truncation, everything
//! tie-broken by population index (see [`crate::pareto`]) so runs are
//! bit-identical across thread counts.
//!
//! Both loops run on one evaluation core (the crate-private `evaluate`
//! module), generic over what an evaluation yields: a score for the scalar
//! engine, an objective vector here. The core owns the `(genome, case)`
//! memo, the persistent fitness store, transient retries, panic
//! containment, the quarantine ledger, the counters, and the trace events
//! and metrics, so a co-evolved run meets the scalar run's contracts on all
//! of them; the same module's run lifecycle starts, resumes and
//! checkpoints both loops. This module keeps NSGA-II and the plan half of
//! the genome. The two search spaces meet through two small traits —
//! [`MultiEvaluator`] (objective vectors per `(plan, expr, case)`) and
//! [`PlanSpace`] (plan seeds and genetic operators over canonical plan
//! strings) — implemented by the `metaopt` core crate, keeping this crate
//! free of a compiler dependency.
//!
//! Determinism contract (shared with the scalar engine):
//! - every RNG draw happens on the coordinating thread, in a fixed order;
//! - each generation's evaluations form one wave of the core, which
//!   evaluates each unique pair exactly once and folds all accounting
//!   serially;
//! - selection uses only integer objectives and index-stable tie-breaks.
//!
//! Checkpoints use format v4 (the population's plans ride in the `plans`
//! field) under a fingerprint that embeds the objective mask and a
//! co-evolution marker, so scalar and co-evolved runs can never resume
//! each other's files; they hold the μ+λ population (survivors and
//! offspring) that a resume restores. In the persistent fitness store keys
//! extend to `plan|expr` and each objective lands in its own derived case
//! slot, so a warm rerun skips straight past paid-for evaluations.

use crate::checkpoint::{bad, fingerprint, Checkpoint, CheckpointError};
use crate::engine::{EvolutionResult, GenLog, GpParams};
use crate::eval::EvalError;
use crate::evaluate::{offspring_count, unwrap_run, EvalCore, Lifecycle};
use crate::expr::Expr;
use crate::features::FeatureSet;
use crate::ops::{crossover, mutate};
use crate::pareto::{
    crowding_distance, dominates, hypervolume_proxy, non_dominated_sort, ParetoPoint,
    NUM_OBJECTIVES, OBJECTIVE_NAMES,
};
use metaopt_trace::{json::Value, Tracer};
use rand::rngs::StdRng;
use rand::RngExt;
use std::collections::HashSet;
use std::path::PathBuf;

/// One co-evolved genome: a pipeline plan (canonical textual form) joined
/// with a priority-function expression.
#[derive(Clone, Debug)]
pub struct PlanGenome {
    /// The pipeline plan, e.g. `unroll(2),hyperblock,regalloc,schedule`.
    pub plan: String,
    /// The priority function evolved for that plan.
    pub expr: Expr,
}

impl PlanGenome {
    /// Cache/ledger key: `plan|expr-key`. The plan's canonical text is its
    /// fingerprint (printing is canonical — see the plan grammar round-trip
    /// property), and [`Expr::key`] is full-precision re-parseable form, so
    /// distinct genomes never collide.
    pub fn key(&self) -> String {
        format!("{}|{}", self.plan, self.expr.key())
    }
}

/// Objective-vector evaluation of one `(plan, expr)` genome on one case.
///
/// Implementations must be deterministic in `(plan, expr, case)` for a
/// given `attempt` (the attempt index exists so transient-failure
/// injection in tests can clear on retry, exactly like the scalar
/// engine's `eval_case_attempt`).
pub trait MultiEvaluator: Sync {
    /// Number of training cases (benchmarks).
    fn num_cases(&self) -> usize;

    /// Evaluate and return the objective vector (minimized): simulated
    /// cycles, code size, compile-cost proxy.
    ///
    /// # Errors
    /// A classified [`EvalError`]; only `Timeout` is considered transient
    /// and retried.
    fn eval_objectives(
        &self,
        plan: &str,
        expr: &Expr,
        case: usize,
        attempt: u32,
    ) -> Result<[u64; NUM_OBJECTIVES], EvalError>;
}

/// The plan half of the genetic search space, over canonical plan strings.
/// The core crate implements this on top of the compiler's structural
/// grammar and `plan_ops` operators; tests implement toy spaces.
pub trait PlanSpace: Sync {
    /// Seed plans for the initial population (cycled round-robin). Must be
    /// non-empty and canonical.
    fn seed_plans(&self) -> Vec<String>;
    /// Mutate one plan. Must return a canonical, structurally valid plan.
    fn mutate_plan(&self, rng: &mut StdRng, plan: &str) -> String;
    /// Cross two plans. Must return a canonical, structurally valid plan.
    fn crossover_plans(&self, rng: &mut StdRng, a: &str, b: &str) -> String;
    /// Whether `plan` is a canonical, structurally valid plan (resume-time
    /// validation of checkpointed plans).
    fn is_valid(&self, plan: &str) -> bool;
}

/// Render an objective mask as its enabled names, `cycles,size,compile`
/// style — used in fingerprints, CLI parsing, and the report digest.
pub fn mask_label(mask: &[bool; NUM_OBJECTIVES]) -> String {
    let names: Vec<&str> = (0..NUM_OBJECTIVES)
        .filter(|&k| mask[k])
        .map(|k| OBJECTIVE_NAMES[k])
        .collect();
    names.join(",")
}

/// Parse a `--objectives` list (`cycles,size,compile` in any order) into a
/// mask. Returns `None` on an unknown name or an empty selection.
pub fn parse_mask(text: &str) -> Option<[bool; NUM_OBJECTIVES]> {
    let mut mask = [false; NUM_OBJECTIVES];
    for word in text.split(',') {
        let k = OBJECTIVE_NAMES.iter().position(|n| *n == word.trim())?;
        mask[k] = true;
    }
    if mask.iter().any(|&m| m) {
        Some(mask)
    } else {
        None
    }
}

/// Objective sum marking a genome whose evaluation failed on some case:
/// dominated by every clean genome, never on a reported front.
const PENALTY_OBJECTIVES: [u64; NUM_OBJECTIVES] = [u64::MAX; NUM_OBJECTIVES];

/// A co-evolution run: NSGA-II over [`PlanGenome`]s.
pub struct CoEvolution<'a, E: MultiEvaluator, P: PlanSpace> {
    params: GpParams,
    features: &'a FeatureSet,
    evaluator: &'a E,
    plan_space: &'a P,
    objectives: [bool; NUM_OBJECTIVES],
    lifecycle: Lifecycle,
}

impl<'a, E: MultiEvaluator, P: PlanSpace> CoEvolution<'a, E, P> {
    /// Create a run with all objectives enabled and no checkpointing.
    pub fn new(
        params: GpParams,
        features: &'a FeatureSet,
        evaluator: &'a E,
        plan_space: &'a P,
    ) -> Self {
        CoEvolution {
            params,
            features,
            evaluator,
            plan_space,
            objectives: [true; NUM_OBJECTIVES],
            lifecycle: Lifecycle::default(),
        }
    }

    /// Seed expressions injected into the initial population (paired with
    /// the plan space's seed plans, round-robin).
    #[must_use]
    pub fn with_seeds(mut self, seeds: Vec<Expr>) -> Self {
        self.lifecycle.seeds = seeds;
        self
    }

    /// Restrict selection to a subset of the objectives. Objective vectors
    /// are always evaluated and reported in full; the mask only affects
    /// dominance and crowding comparisons. An all-false mask is rejected
    /// at parse time ([`parse_mask`]), so this trusts its input.
    #[must_use]
    pub fn with_objectives(mut self, mask: [bool; NUM_OBJECTIVES]) -> Self {
        self.objectives = mask;
        self
    }

    /// Evaluator-configuration tag folded into the checkpoint/store
    /// fingerprint (the experiment drivers pass the study identity).
    #[must_use]
    pub fn with_config_tag(mut self, tag: impl Into<String>) -> Self {
        self.lifecycle.config_tag = tag.into();
        self
    }

    /// Attach a structured-trace sink.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.lifecycle.tracer = tracer;
        self
    }

    /// Write a v4 checkpoint after every completed generation.
    #[must_use]
    pub fn with_checkpoint_file(mut self, path: impl Into<PathBuf>) -> Self {
        self.lifecycle.checkpoint_path = Some(path.into());
        self
    }

    /// Resume from a previously saved checkpoint.
    #[must_use]
    pub fn resume_from(mut self, ck: Checkpoint) -> Self {
        self.lifecycle.resume = Some(ck);
        self
    }

    /// Attach a crash-safe persistent fitness cache. Keys extend the
    /// scalar store's convention to `plan|expr`, and objective `k` of case
    /// `c` is stored under derived case index `c * NUM_OBJECTIVES + k`
    /// (integer objectives below 2^53 round-trip the store's f64 slots
    /// exactly).
    #[must_use]
    pub fn with_eval_cache(mut self, path: impl Into<PathBuf>) -> Self {
        self.lifecycle.eval_cache = Some(path.into());
        self
    }

    /// Run, panicking on checkpoint/resume failures (evaluation failures
    /// are quarantined, never fatal).
    pub fn run(&self) -> EvolutionResult {
        unwrap_run(self.try_run(), "co-evolution")
    }

    /// Run the co-evolution, surfacing checkpoint/resume errors.
    ///
    /// # Errors
    /// Checkpoint I/O, parse, or fingerprint-mismatch failures.
    pub fn try_run(&self) -> Result<EvolutionResult, CheckpointError> {
        let p = &self.params;
        let k = offspring_count(p);
        let all_cases: Vec<usize> = (0..self.evaluator.num_cases()).collect();
        // The fingerprint's co-evolution marker and objective mask keep
        // scalar and co-evolved checkpoints and stores apart. A checkpoint
        // holds the μ+λ population: the survivors and their offspring.
        let mask = mask_label(&self.objectives);
        let fp = fingerprint(
            p,
            &format!("coevo objectives={mask} {}", self.lifecycle.config_tag),
        );
        let (mut run, mut pop) =
            self.lifecycle
                .start(p, self.features, fp, p.population + k, |exprs, resume| {
                    let plans = self.plans(resume, exprs.len())?;
                    let pop = exprs.into_iter().zip(plans);
                    Ok(pop
                        .map(|(expr, plan)| PlanGenome { plan, expr })
                        .collect::<Vec<_>>())
                })?;

        let mut final_front: Vec<ParetoPoint> = Vec::new();
        let mut best_genome = 0usize;
        let mut objs: Vec<[u64; NUM_OBJECTIVES]> = Vec::new();

        for generation in run.first_generation..p.generations {
            let mark = run.core.mark();

            // Evaluate everyone (fresh offspring pay, survivors hit the
            // memo), then truncate back to the configured population size.
            let raw_objs = self.summed_objectives(&mut run.core, &pop, &all_cases, generation);
            let (selected_pop, selected_objs, ranks, crowding) =
                self.environmental_selection(pop, raw_objs, p.population);
            pop = selected_pop;
            objs = selected_objs;

            best_genome = argmin_cycles(&objs);
            let mean_cycles = mean_cycles(&objs);
            run.log.push(GenLog {
                generation,
                best_fitness: objs[best_genome][0] as f64,
                mean_fitness: mean_cycles,
                best_size: pop[best_genome].expr.size(),
                subset: all_cases.clone(),
            });

            final_front = self.front_points(&pop, &objs);
            run.core
                .end_generation(run.log.last().expect("just pushed"), mark);
            if self.lifecycle.tracer.enabled() {
                self.emit_front(generation, &final_front);
            }

            if generation + 1 == p.generations {
                break;
            }

            // Breed: crowded-tournament parents, joint crossover, then
            // independent expression/plan mutation. Offspring are appended
            // unevaluated; the next iteration's evaluation + truncation is
            // the (μ+λ) environmental selection.
            let rng = &mut run.rng;
            let mut offspring = Vec::with_capacity(k);
            for _ in 0..k {
                let a = self.crowded_tournament(rng, &ranks, &crowding);
                let b = self.crowded_tournament(rng, &ranks, &crowding);
                let mut expr = crossover(rng, &pop[a].expr, &pop[b].expr, p.max_depth);
                let mut plan = self
                    .plan_space
                    .crossover_plans(rng, &pop[a].plan, &pop[b].plan);
                if rng.random_bool(p.mutation_rate) {
                    expr = mutate(rng, &expr, self.features, p.max_depth);
                }
                if rng.random_bool(p.mutation_rate) {
                    plan = self.plan_space.mutate_plan(rng, &plan);
                }
                offspring.push(PlanGenome { plan, expr });
            }
            pop.extend(offspring);

            // Snapshot at the generation boundary: the μ+λ population and
            // the RNG state it was bred with.
            run.checkpoint(generation + 1, |ck| {
                ck.population = pop.iter().map(|g| g.expr.key()).collect();
                ck.plans = Some(pop.iter().map(|g| g.plan.clone()).collect());
            })?;
        }

        // `best_genome` indexes the survivors, which lead the population.
        let best = pop.swap_remove(best_genome);
        let best_fitness = objs.get(best_genome).map_or(f64::NAN, |o| o[0] as f64);
        let best_key = best.key();
        let result = run
            .core
            .finish(best.expr, &best_key, best_fitness, run.log, final_front);
        Ok(result)
    }

    /// The population's plans: the resume checkpoint's, each of which must
    /// be valid in the plan space, or on a fresh start the `n` seed plans
    /// taken round-robin.
    fn plans(&self, resume: Option<&Checkpoint>, n: usize) -> Result<Vec<String>, CheckpointError> {
        let Some(ck) = resume else {
            let seed_plans = self.plan_space.seed_plans();
            assert!(!seed_plans.is_empty(), "PlanSpace::seed_plans is empty");
            return Ok(seed_plans.iter().cycle().take(n).cloned().collect());
        };
        let plans = ck.plans.clone().ok_or_else(|| {
            bad("checkpoint carries no plan genomes (written by a scalar run?)".to_string())
        })?;
        match plans.iter().find(|plan| !self.plan_space.is_valid(plan)) {
            Some(plan) => Err(bad(format!("invalid pipeline plan {plan:?} in checkpoint"))),
            None => Ok(plans),
        }
    }

    /// Every genome's objective vector summed over `cases` (saturating),
    /// or [`PENALTY_OBJECTIVES`] for a genome that failed on any case.
    fn summed_objectives(
        &self,
        core: &mut EvalCore<[u64; NUM_OBJECTIVES]>,
        pop: &[PlanGenome],
        cases: &[usize],
        gen: usize,
    ) -> Vec<[u64; NUM_OBJECTIVES]> {
        let keys: Vec<String> = pop.iter().map(PlanGenome::key).collect();
        let items: Vec<(&str, &PlanGenome)> = keys.iter().map(String::as_str).zip(pop).collect();
        core.wave(&items, cases, gen, |g: &PlanGenome, case, attempt| {
            self.evaluator
                .eval_objectives(&g.plan, &g.expr, case, attempt)
        })
        .into_iter()
        .map(|outcomes| {
            outcomes
                .into_iter()
                .try_fold([0u64; NUM_OBJECTIVES], |mut sum, o| {
                    for (s, v) in sum.iter_mut().zip(o?) {
                        *s = s.saturating_add(v);
                    }
                    Some(sum)
                })
                .unwrap_or(PENALTY_OBJECTIVES)
        })
        .collect()
    }

    /// (μ+λ) environmental selection: non-dominated sort the combined
    /// population, keep whole fronts while they fit, truncate the boundary
    /// front by crowding distance (descending, ties by index). Returns the
    /// survivors (in original relative order) with their objective vectors,
    /// ranks, and crowding distances.
    #[allow(clippy::type_complexity)]
    fn environmental_selection(
        &self,
        pop: Vec<PlanGenome>,
        objs: Vec<[u64; NUM_OBJECTIVES]>,
        target: usize,
    ) -> (
        Vec<PlanGenome>,
        Vec<[u64; NUM_OBJECTIVES]>,
        Vec<usize>,
        Vec<f64>,
    ) {
        let fronts = non_dominated_sort(&objs, &self.objectives);
        let mut selected: Vec<usize> = Vec::with_capacity(target);
        for front in &fronts {
            if selected.len() >= target {
                break;
            }
            let room = target - selected.len();
            if front.len() <= room {
                selected.extend_from_slice(front);
            } else {
                let crowd = crowding_distance(front, &objs, &self.objectives);
                let mut order: Vec<usize> = (0..front.len()).collect();
                order.sort_by(|&x, &y| {
                    crowd[y]
                        .partial_cmp(&crowd[x])
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(front[x].cmp(&front[y]))
                });
                selected.extend(order[..room].iter().map(|&x| front[x]));
            }
        }
        selected.sort_unstable();

        let keep: HashSet<usize> = selected.iter().copied().collect();
        let mut new_pop = Vec::with_capacity(target);
        let mut new_objs = Vec::with_capacity(target);
        for (i, (g, o)) in pop.into_iter().zip(objs).enumerate() {
            if keep.contains(&i) {
                new_pop.push(g);
                new_objs.push(o);
            }
        }

        // Re-rank the survivors for tournament selection.
        let fronts = non_dominated_sort(&new_objs, &self.objectives);
        let mut ranks = vec![0usize; new_pop.len()];
        let mut crowding = vec![0.0f64; new_pop.len()];
        for (r, front) in fronts.iter().enumerate() {
            let crowd = crowding_distance(front, &new_objs, &self.objectives);
            for (pos, &i) in front.iter().enumerate() {
                ranks[i] = r;
                crowding[i] = crowd[pos];
            }
        }
        (new_pop, new_objs, ranks, crowding)
    }

    /// Crowded tournament: draw `params.tournament` contenders (with
    /// replacement); the winner has the lowest rank, then the highest
    /// crowding distance, then the lowest index.
    fn crowded_tournament(&self, rng: &mut StdRng, ranks: &[usize], crowding: &[f64]) -> usize {
        let mut best = rng.random_range(0..ranks.len());
        for _ in 1..self.params.tournament.max(1) {
            let c = rng.random_range(0..ranks.len());
            let better = match ranks[c].cmp(&ranks[best]) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Greater => false,
                std::cmp::Ordering::Equal => {
                    crowding[c] > crowding[best] || (crowding[c] == crowding[best] && c < best)
                }
            };
            if better {
                best = c;
            }
        }
        best
    }

    /// The rank-0 front of the current population as reportable points:
    /// penalized genomes excluded, deduplicated by genome key, sorted by
    /// objective vector then key for a canonical order.
    fn front_points(&self, pop: &[PlanGenome], objs: &[[u64; NUM_OBJECTIVES]]) -> Vec<ParetoPoint> {
        let fronts = non_dominated_sort(objs, &self.objectives);
        let mut points: Vec<ParetoPoint> = Vec::new();
        let mut seen = HashSet::new();
        for &i in fronts.first().map_or(&[][..], |f| &f[..]) {
            if objs[i] == PENALTY_OBJECTIVES {
                continue;
            }
            let key = pop[i].key();
            if seen.insert(key) {
                points.push(ParetoPoint {
                    plan: pop[i].plan.clone(),
                    expr: pop[i].expr.key(),
                    objectives: objs[i],
                });
            }
        }
        points.sort_by(|a, b| {
            a.objectives
                .cmp(&b.objectives)
                .then_with(|| a.plan.cmp(&b.plan))
                .then_with(|| a.expr.cmp(&b.expr))
        });
        points
    }

    /// Emit the `pareto-front` trace event for one generation.
    fn emit_front(&self, generation: usize, points: &[ParetoPoint]) {
        let vectors: Vec<[u64; NUM_OBJECTIVES]> = points.iter().map(|p| p.objectives).collect();
        let hv = hypervolume_proxy(&vectors, &self.objectives);
        let arr = points
            .iter()
            .map(|p| {
                Value::Obj(vec![
                    ("plan".to_string(), Value::str(&p.plan)),
                    ("expr".to_string(), Value::str(&p.expr)),
                    (
                        "objectives".to_string(),
                        Value::Arr(p.objectives.iter().map(|&x| Value::UInt(x)).collect()),
                    ),
                ])
            })
            .collect();
        self.lifecycle.tracer.emit(
            "pareto-front",
            [
                ("gen", Value::UInt(generation as u64)),
                ("size", Value::UInt(points.len() as u64)),
                ("hypervolume", Value::UInt(hv)),
                ("points", Value::Arr(arr)),
            ],
        );
    }
}

/// Index of the genome with the fewest summed cycles (objective 0), ties
/// to the lowest index; 0 on an empty slice.
fn argmin_cycles(objs: &[[u64; NUM_OBJECTIVES]]) -> usize {
    let mut best = 0;
    for (i, o) in objs.iter().enumerate() {
        if o[0] < objs[best][0] {
            best = i;
        }
    }
    best
}

/// Mean of the cycles objective over clean (non-penalized) genomes; NaN
/// when every genome is penalized.
fn mean_cycles(objs: &[[u64; NUM_OBJECTIVES]]) -> f64 {
    let clean: Vec<u64> = objs
        .iter()
        .filter(|o| **o != PENALTY_OBJECTIVES)
        .map(|o| o[0])
        .collect();
    if clean.is_empty() {
        return f64::NAN;
    }
    clean.iter().map(|&c| c as f64).sum::<f64>() / clean.len() as f64
}

/// Sanity check used by tests and the CLI: no point on `front` may be
/// dominated by another under `mask`.
pub fn front_is_mutually_non_dominated(
    front: &[ParetoPoint],
    mask: &[bool; NUM_OBJECTIVES],
) -> bool {
    front.iter().all(|a| {
        front
            .iter()
            .all(|b| !dominates(&b.objectives, &a.objectives, mask))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::EvalErrorKind;
    use crate::expr::Kind;
    use std::collections::HashMap;

    /// Deterministic synthetic objective landscape with genuine trade-offs:
    /// plan `pN` costs more "compile"/"size" the larger N is, but scales
    /// cycles down; the expression hash perturbs cycles.
    struct Landscape;

    fn fnv(s: &str) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in s.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1_0000_01b3);
        }
        h
    }

    impl MultiEvaluator for Landscape {
        fn num_cases(&self) -> usize {
            2
        }
        fn eval_objectives(
            &self,
            plan: &str,
            expr: &Expr,
            case: usize,
            _attempt: u32,
        ) -> Result<[u64; NUM_OBJECTIVES], EvalError> {
            let n: u64 = plan.trim_start_matches('p').parse().unwrap_or(0);
            let h = fnv(&expr.key()) % 64;
            let cycles = 1_000 / (n + 1) + h + case as u64;
            let size = 100 + 40 * n;
            let compile = 10 + 25 * n;
            Ok([cycles, size, compile])
        }
    }

    /// Toy plan space over `p0..p3`.
    struct Toy;

    impl PlanSpace for Toy {
        fn seed_plans(&self) -> Vec<String> {
            vec!["p0".to_string(), "p3".to_string()]
        }
        fn mutate_plan(&self, rng: &mut StdRng, _plan: &str) -> String {
            format!("p{}", rng.random_range(0u32..4))
        }
        fn crossover_plans(&self, rng: &mut StdRng, a: &str, b: &str) -> String {
            if rng.random_bool(0.5) {
                a.to_string()
            } else {
                b.to_string()
            }
        }
        fn is_valid(&self, plan: &str) -> bool {
            matches!(plan, "p0" | "p1" | "p2" | "p3")
        }
    }

    fn features() -> FeatureSet {
        let mut fs = FeatureSet::new();
        fs.add_real("x");
        fs.add_real("y");
        fs
    }

    fn params(threads: usize) -> GpParams {
        GpParams {
            population: 12,
            generations: 5,
            seed: 42,
            threads,
            kind: Kind::Real,
            ..GpParams::quick()
        }
    }

    fn snapshot(r: &EvolutionResult) -> (String, Vec<String>, u64, u64, u64, u64, u64) {
        (
            r.best.key(),
            r.front
                .iter()
                .map(|p| format!("{}|{}|{:?}", p.plan, p.expr, p.objectives))
                .collect(),
            r.evaluations,
            r.successes,
            r.failures,
            r.cache_hits,
            r.warm_hits,
        )
    }

    #[test]
    fn coevo_runs_are_deterministic_across_thread_counts() {
        let fs = features();
        let base = CoEvolution::new(params(1), &fs, &Landscape, &Toy).run();
        for threads in [2, 4, 8] {
            let r = CoEvolution::new(params(threads), &fs, &Landscape, &Toy).run();
            assert_eq!(snapshot(&r), snapshot(&base), "threads={threads}");
            assert_eq!(r.log, base.log, "threads={threads}");
        }
    }

    #[test]
    fn front_has_trade_offs_and_no_dominated_points() {
        let fs = features();
        let r = CoEvolution::new(params(2), &fs, &Landscape, &Toy).run();
        assert!(
            r.front.len() >= 2,
            "landscape has cycles-vs-cost trade-offs, front: {:?}",
            r.front
        );
        assert!(front_is_mutually_non_dominated(&r.front, &[true; 3]));
        // The trade-off is real: at least two distinct plans survive.
        let plans: HashSet<&str> = r.front.iter().map(|p| p.plan.as_str()).collect();
        assert!(plans.len() >= 2, "front collapsed to one plan: {plans:?}");
    }

    #[test]
    fn objective_mask_changes_selection() {
        let fs = features();
        // Cycles-only selection degenerates toward the single best plan.
        let masked = CoEvolution::new(params(1), &fs, &Landscape, &Toy)
            .with_objectives([true, false, false])
            .run();
        assert!(front_is_mutually_non_dominated(
            &masked.front,
            &[true, false, false]
        ));
        // Under a cycles-only mask the front is the set of cycle-minimal
        // genomes: every point shares the same cycles value.
        let cycles: HashSet<u64> = masked.front.iter().map(|p| p.objectives[0]).collect();
        assert_eq!(cycles.len(), 1, "{:?}", masked.front);
    }

    #[test]
    fn resume_reproduces_the_uninterrupted_run() {
        let fs = features();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("metaopt-coevo-ck-{}.txt", std::process::id()));
        let _ = std::fs::remove_file(&path);

        // Short run leaves a checkpoint behind.
        let mut short = params(2);
        short.generations = 2;
        CoEvolution::new(short, &fs, &Landscape, &Toy)
            .with_checkpoint_file(&path)
            .run();
        assert!(path.exists());

        let resumed = CoEvolution::new(params(2), &fs, &Landscape, &Toy)
            .resume_from(Checkpoint::load(&path).unwrap())
            .run();
        let straight = CoEvolution::new(params(2), &fs, &Landscape, &Toy).run();
        assert_eq!(resumed.best.key(), straight.best.key());
        assert_eq!(resumed.front, straight.front);
        assert_eq!(resumed.log, straight.log);
        let _ = std::fs::remove_file(&path);
    }

    /// Resume a `--pop 10` co-evolved run, which checkpoints its μ+λ
    /// population of 12 genomes, from one of its checkpoints cut to `keep`
    /// genomes and round-tripped through the file format.
    fn resume_from_cut_checkpoint(keep: usize) -> CheckpointError {
        let fs = features();
        let path = std::env::temp_dir().join(format!(
            "metaopt-coevo-cut-{keep}-{}.json",
            std::process::id()
        ));
        let p = GpParams {
            population: 10,
            ..params(1)
        };
        let short = GpParams {
            generations: 2,
            ..p.clone()
        };
        CoEvolution::new(short, &fs, &Landscape, &Toy)
            .with_checkpoint_file(&path)
            .run();
        let mut ck = Checkpoint::load(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(ck.population.len(), 12);
        ck.population.truncate(keep);
        ck.plans.as_mut().unwrap().truncate(keep);
        let ck = Checkpoint::parse(&ck.to_text()).unwrap();
        CoEvolution::new(p, &fs, &Landscape, &Toy)
            .resume_from(ck)
            .try_run()
            .unwrap_err()
    }

    #[test]
    fn resume_refuses_an_empty_population() {
        let err = resume_from_cut_checkpoint(0);
        assert!(
            matches!(&err, CheckpointError::Parse { message, .. }
                if message == "checkpoint has 0 genomes, params want 12"),
            "{err}"
        );
    }

    #[test]
    fn resume_refuses_a_population_of_the_wrong_size() {
        let err = resume_from_cut_checkpoint(3);
        assert!(
            matches!(&err, CheckpointError::Parse { message, .. }
                if message == "checkpoint has 3 genomes, params want 12"),
            "{err}"
        );
    }

    #[test]
    fn scalar_checkpoints_are_refused() {
        let fs = features();
        // A checkpoint without a plans section cannot resume a co-evolved
        // run even if someone forges a matching fingerprint; the mismatch
        // fires first because the config tags differ.
        let p = params(1);
        let ck = Checkpoint {
            fingerprint: fingerprint(&p, "plain-scalar-tag"),
            next_generation: 1,
            rng_state: [1, 2, 3, 4],
            population: vec!["(add x y)".to_string(); 12],
            plans: None,
            dss: None,
            log: Vec::new(),
            evaluations: 0,
            successes: 0,
            failures: 0,
            quarantined: Vec::new(),
            memo_entries: 0,
        };
        let err = CoEvolution::new(p, &fs, &Landscape, &Toy)
            .resume_from(ck)
            .try_run()
            .unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch { .. }), "{err}");
    }

    #[test]
    fn warm_cache_run_reproduces_the_cold_run() {
        let fs = features();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("metaopt-coevo-store-{}.bin", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let cold = CoEvolution::new(params(2), &fs, &Landscape, &Toy)
            .with_eval_cache(&path)
            .run();
        assert_eq!(cold.warm_hits, 0);
        let warm = CoEvolution::new(params(2), &fs, &Landscape, &Toy)
            .with_eval_cache(&path)
            .run();
        assert!(warm.warm_hits > 0, "second run must hit the store");
        assert_eq!(warm.best.key(), cold.best.key());
        assert_eq!(warm.front, cold.front);
        assert_eq!(warm.log, cold.log);
        assert_eq!(warm.evaluations, cold.evaluations);
        let _ = std::fs::remove_file(&path);
    }

    /// Transient timeouts clear on retry and stay deterministic across
    /// thread counts.
    struct Flaky;

    impl MultiEvaluator for Flaky {
        fn num_cases(&self) -> usize {
            2
        }
        fn eval_objectives(
            &self,
            plan: &str,
            expr: &Expr,
            case: usize,
            attempt: u32,
        ) -> Result<[u64; NUM_OBJECTIVES], EvalError> {
            let h = fnv(&format!("{plan}|{}|{case}", expr.key()));
            if h.is_multiple_of(5) && attempt == 0 {
                return Err(EvalError::new(EvalErrorKind::Timeout, "injected stall"));
            }
            if h.is_multiple_of(11) {
                return Err(EvalError::new(EvalErrorKind::Sim, "injected fault"));
            }
            Landscape.eval_objectives(plan, expr, case, attempt)
        }
    }

    #[test]
    fn flaky_runs_are_deterministic_and_quarantine_hard_failures() {
        let fs = features();
        let base = CoEvolution::new(params(1), &fs, &Flaky, &Toy).run();
        for threads in [2, 4] {
            let r = CoEvolution::new(params(threads), &fs, &Flaky, &Toy).run();
            assert_eq!(snapshot(&r), snapshot(&base), "threads={threads}");
            assert_eq!(
                r.quarantined.len(),
                base.quarantined.len(),
                "threads={threads}"
            );
        }
        assert_eq!(base.evaluations, base.successes + base.failures);
        assert!(front_is_mutually_non_dominated(&base.front, &[true; 3]));
    }

    #[test]
    fn mask_labels_round_trip() {
        assert_eq!(mask_label(&[true, true, true]), "cycles,size,compile");
        assert_eq!(parse_mask("cycles,size,compile"), Some([true, true, true]));
        assert_eq!(parse_mask("size"), Some([false, true, false]));
        assert_eq!(parse_mask("compile, cycles"), Some([true, false, true]));
        assert_eq!(parse_mask(""), None);
        assert_eq!(parse_mask("speed"), None);
    }

    /// `Landscape`, except the evaluator panics on a hash-selected slice
    /// of `(genome, case)` pairs.
    struct Panicky;

    impl MultiEvaluator for Panicky {
        fn num_cases(&self) -> usize {
            2
        }
        fn eval_objectives(
            &self,
            plan: &str,
            expr: &Expr,
            case: usize,
            attempt: u32,
        ) -> Result<[u64; NUM_OBJECTIVES], EvalError> {
            if fnv(&format!("{plan}|{}|{case}", expr.key())).is_multiple_of(7) {
                panic!("synthetic evaluator panic on case {case}");
            }
            Landscape.eval_objectives(plan, expr, case, attempt)
        }
    }

    #[test]
    fn panicking_evaluations_are_quarantined_at_any_thread_count() {
        let fs = features();
        let serial = CoEvolution::new(params(1), &fs, &Panicky, &Toy).run();
        let threaded = CoEvolution::new(params(4), &fs, &Panicky, &Toy).run();
        assert_eq!(snapshot(&threaded), snapshot(&serial));
        assert_eq!(threaded.log, serial.log);
        assert_eq!(threaded.quarantined, serial.quarantined);

        assert!(
            serial.failures > 0,
            "the panicking slice must have been hit"
        );
        assert_eq!(serial.evaluations, serial.successes + serial.failures);
        assert_eq!(serial.quarantined.len() as u64, serial.failures);
        for r in &serial.quarantined {
            assert_eq!(r.error.kind, EvalErrorKind::Panic, "{r}");
            assert!(
                r.error.message.contains("synthetic evaluator panic"),
                "panic message lost: {r}"
            );
        }
        assert!(front_is_mutually_non_dominated(&serial.front, &[true; 3]));
    }

    /// `Landscape`, except a hash-selected slice of pairs times out
    /// (transiently) on attempts 0 and 1 and scores on attempt 2.
    struct SlowToClear;

    impl MultiEvaluator for SlowToClear {
        fn num_cases(&self) -> usize {
            2
        }
        fn eval_objectives(
            &self,
            plan: &str,
            expr: &Expr,
            case: usize,
            attempt: u32,
        ) -> Result<[u64; NUM_OBJECTIVES], EvalError> {
            if fnv(&format!("{plan}|{}|{case}", expr.key())).is_multiple_of(4) && attempt < 2 {
                return Err(EvalError::new(EvalErrorKind::Timeout, "injected stall"));
            }
            Landscape.eval_objectives(plan, expr, case, attempt)
        }
    }

    fn events(tracer: &Tracer, ty: &str) -> Vec<Value> {
        tracer
            .lines()
            .unwrap()
            .iter()
            .map(|l| metaopt_trace::json::parse(l).unwrap())
            .filter(|v| v.get("type").and_then(Value::as_str) == Some(ty))
            .collect()
    }

    #[test]
    fn traces_metrics_and_checkpoints_meet_the_scalar_contract() {
        use metaopt_trace::metrics::MetricsRegistry;

        let fs = features();
        let dir = std::env::temp_dir();
        let store = dir.join(format!(
            "metaopt-coevo-trace-store-{}.bin",
            std::process::id()
        ));
        let ck_path = dir.join(format!("metaopt-coevo-trace-ck-{}.txt", std::process::id()));
        let _ = std::fs::remove_file(&store);
        let _ = std::fs::remove_file(&ck_path);
        let p = params(2);

        let cold_tracer = Tracer::in_memory().with_metrics(MetricsRegistry::new());
        let cold = CoEvolution::new(p.clone(), &fs, &SlowToClear, &Toy)
            .with_eval_cache(&store)
            .with_checkpoint_file(&ck_path)
            .with_tracer(cold_tracer.clone())
            .run();
        let registry = MetricsRegistry::new();
        let warm_tracer = Tracer::in_memory().with_metrics(registry.clone());
        let warm = CoEvolution::new(p.clone(), &fs, &SlowToClear, &Toy)
            .with_eval_cache(&store)
            .with_tracer(warm_tracer.clone())
            .run();
        assert_eq!(snapshot(&warm).0, snapshot(&cold).0);
        assert_eq!(warm.front, cold.front);
        assert_eq!(warm.log, cold.log);

        for tracer in [&cold_tracer, &warm_tracer] {
            let text = tracer.lines().unwrap().join("\n");
            metaopt_trace::schema::validate_trace(&text).unwrap();
            // One eval event per evaluation, warm hits included.
            assert_eq!(events(tracer, "eval").len() as u64, cold.evaluations);
        }

        // Every retried pair cleared on its third attempt: retry events
        // number the failed attempts 0 and 1.
        assert_eq!(cold.failures, 0, "{:?}", cold.quarantined);
        let retries = events(&cold_tracer, "retry");
        assert!(!retries.is_empty(), "expected traced retries");
        let mut per_pair: HashMap<String, Vec<u64>> = HashMap::new();
        for r in &retries {
            assert_eq!(r.get("kind").and_then(Value::as_str), Some("timeout"));
            assert!(r.get("backoff_ns").and_then(Value::as_u64).unwrap() > 0);
            let pair = format!(
                "{}#{}",
                r.get("genome").and_then(Value::as_str).unwrap(),
                r.get("case").and_then(Value::as_u64).unwrap()
            );
            let attempt = r.get("attempt").and_then(Value::as_u64).unwrap();
            per_pair.entry(pair).or_default().push(attempt);
        }
        for (pair, attempts) in &per_pair {
            assert_eq!(attempts, &vec![0, 1], "attempts for {pair}");
        }

        // The warm run answers every scored pair from the store, and says
        // so on the pair's eval event.
        assert_eq!(cold.warm_hits, 0);
        assert_eq!(warm.warm_hits, cold.successes);
        let warm_evals = events(&warm_tracer, "eval")
            .iter()
            .filter(|v| matches!(v.get("warm"), Some(Value::Bool(true))))
            .count() as u64;
        assert_eq!(warm_evals, warm.warm_hits);

        // One metrics snapshot per generation, in order.
        let snaps = events(&warm_tracer, "metrics-snapshot");
        assert_eq!(snaps.len(), p.generations);
        for (g, snap) in snaps.iter().enumerate() {
            assert_eq!(snap.get("seq").and_then(Value::as_u64), Some(g as u64));
            assert_eq!(snap.get("gen").and_then(Value::as_u64), Some(g as u64));
        }

        // The live digest and its exposition mirror the result's counters.
        // Cache hits are those inside generations, as the `generation`
        // events count them.
        let digest = registry.report();
        let failures: u64 = digest.quarantine.iter().map(|(_, n)| n).sum();
        assert_eq!(digest.eval_ns.len() as u64, warm.evaluations);
        assert_eq!(digest.eval_ns.len() as u64 - failures, warm.successes);
        assert_eq!(failures, warm.failures);
        assert_eq!(digest.reliability.warm_evals, warm.warm_hits);
        let generation_hits: u64 = events(&warm_tracer, "generation")
            .iter()
            .map(|g| g.get("cache_hits").and_then(Value::as_u64).unwrap())
            .sum();
        assert_eq!(digest.total_hits, generation_hits);
        let text = metaopt_trace::metrics::render(&digest);
        for (sample, value) in [
            ("metaopt_evaluations_total", warm.evaluations),
            ("metaopt_eval_success_total", warm.successes),
            ("metaopt_eval_failure_total", warm.failures),
            ("metaopt_cache_hits_total", generation_hits),
            ("metaopt_warm_hits_total", warm.warm_hits),
            ("metaopt_eval_latency_ns_count", warm.evaluations),
        ] {
            let line = format!("\n{sample} {value}\n");
            assert!(text.contains(&line), "missing {line:?} in:\n{text}");
        }

        // A fresh run memoizes one entry per evaluated (genome, case) pair.
        let ck = Checkpoint::load(&ck_path).unwrap();
        assert_eq!(ck.next_generation, p.generations - 1);
        assert_eq!(ck.memo_entries, ck.evaluations);
        assert_eq!(events(&cold_tracer, "checkpoint").len(), p.generations - 1);

        let _ = std::fs::remove_file(&store);
        let _ = std::fs::remove_file(&ck_path);
    }
}
