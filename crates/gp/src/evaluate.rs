//! The evaluation core and the run lifecycle under both evolution loops.
//!
//! Meta Optimization pays for one compile-and-simulate per `(genome,
//! case)` pair; everything else in a run is cheap. [`EvalCore`] is the one
//! place that pays it, for [`crate::engine::Evolution`] (a speedup score
//! per pair) and [`crate::coevo::CoEvolution`] (an objective vector per
//! pair) alike. It owns:
//!
//! - the memo, keyed by (genome key, case), so a run evaluates each pair
//!   at most once;
//! - the persistent [`FitnessStore`] ([`Outcome`] fixes the encoding:
//!   a score of case `c` persists at store case `c`, objective `k` of a
//!   vector at `c * NUM_OBJECTIVES + k`);
//! - the evaluator call under `catch_unwind`, with deterministic retries
//!   of transient failures;
//! - the quarantine ledger, the counters, and the run's trace events
//!   (`evolution-start`, `eval`, `retry`, `generation`,
//!   `metrics-snapshot`, `checkpoint`, `evolution-end`).
//!
//! [`Lifecycle`] is the rest of a run outside selection: the builders'
//! options, the store, the resume or fresh start, the offspring count and
//! the generation-boundary checkpoint. The loops on top only select and
//! breed, each with its own checkpoint field (DSS state, or plans).
//!
//! # Waves
//!
//! [`EvalCore::wave`] scores a list of genomes on a list of cases:
//!
//! 1. A serial pass builds the deduplicated list of pairs the memo cannot
//!    answer, in genome × case order. Memo answers and repeats of a listed
//!    pair count as cache hits.
//! 2. Each listed pair is resolved from the warm store or by calling the
//!    evaluator. With one thread the list runs inline, in order; otherwise
//!    scoped threads claim items through an atomic index and fill disjoint
//!    result slots.
//! 3. A serial pass folds the results into the memo, counters, ledger and
//!    store, in list order.
//!
//! Every pair is evaluated exactly once and all accounting happens on the
//! calling thread, so results, counters, ledger and store contents are the
//! same at every thread count. Only the order of `eval` events, emitted as
//! each pair resolves right after the evaluator's own events, follows the
//! thread schedule.
//!
//! # Containment
//!
//! A panicking evaluator is caught at the call and its pair quarantined as
//! [`crate::eval::EvalErrorKind::Panic`]. Hangs are bounded inside the
//! evaluator: the simulator's cooperative cycle deadline turns a runaway
//! genome into a deterministic `budget` failure. There is no wall-clock
//! watchdog: a scoped thread cannot be abandoned, and a deadline on the
//! wall clock would make results depend on the host's speed.

use crate::checkpoint::{bad, Checkpoint, CheckpointError};
use crate::engine::{EvolutionResult, GenLog, GpParams};
use crate::eval::{EvalError, QuarantineRecord};
use crate::expr::Expr;
use crate::features::FeatureSet;
use crate::gen::random_expr;
use crate::pareto::{ParetoPoint, NUM_OBJECTIVES};
use crate::parse::parse_expr;
use crate::store::{fnv1a, FitnessStore};
use metaopt_trace::schema::OUTCOME_SCORE;
use metaopt_trace::{Event, Span, Tracer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// What one evaluation of a `(genome, case)` pair yields, and how it
/// persists in the [`FitnessStore`]'s `f64` records.
pub(crate) trait Outcome: Copy + Send + Sync {
    /// Read case `case` of `key` back from the store; `None` when it is not
    /// (validly) persisted.
    fn load(store: &FitnessStore, key: &str, case: usize) -> Option<Self>;
    /// Persist as case `case` of `key`.
    fn save(&self, store: &FitnessStore, key: &str, case: usize);
    /// A scored `eval` event's `score` and `objectives`.
    fn trace_fields(&self) -> (f64, Option<Vec<u64>>);
}

/// Scalar GP: the speedup score, persisted at the case itself.
impl Outcome for f64 {
    fn load(store: &FitnessStore, key: &str, case: usize) -> Option<Self> {
        store.lookup(key, case)
    }

    fn save(&self, store: &FitnessStore, key: &str, case: usize) {
        store.append(key, case, *self);
    }

    fn trace_fields(&self) -> (f64, Option<Vec<u64>>) {
        (*self, None)
    }
}

/// Co-evolution: the objective vector, objective `k` of case `c` persisted
/// at store case `c * NUM_OBJECTIVES + k`. Integer objectives below 2^53
/// round-trip the store's `f64` records exactly.
impl Outcome for [u64; NUM_OBJECTIVES] {
    fn load(store: &FitnessStore, key: &str, case: usize) -> Option<Self> {
        let mut objectives = [0u64; NUM_OBJECTIVES];
        for (k, slot) in objectives.iter_mut().enumerate() {
            let v = store.lookup(key, case * NUM_OBJECTIVES + k)?;
            if !(v.is_finite() && v >= 0.0) {
                return None;
            }
            *slot = v as u64;
        }
        Some(objectives)
    }

    fn save(&self, store: &FitnessStore, key: &str, case: usize) {
        for (k, &v) in self.iter().enumerate() {
            store.append(key, case * NUM_OBJECTIVES + k, v as f64);
        }
    }

    fn trace_fields(&self) -> (f64, Option<Vec<u64>>) {
        (self[0] as f64, Some(self.to_vec()))
    }
}

/// Deterministic backoff before retrying a transient failure, derived from
/// the pair identity and attempt index so retried runs trace identical
/// `backoff_ns` values on every host and thread schedule. The real sleep
/// is capped well below the nominal value — the determinism contract is
/// about the *traced* schedule, not wall time.
fn backoff_ns(key: &str, case: usize, attempt: u32) -> u64 {
    let h = fnv1a(key.as_bytes())
        ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (u64::from(attempt) + 1).wrapping_mul(0xA076_1D64_78BD_642F);
    // Exponential ladder (64 µs, 128 µs, 256 µs, …) plus deterministic
    // jitter of up to one base step.
    let base = 1u64 << (16 + attempt.min(8));
    base + h % base
}

/// Hard cap on how long a retry actually sleeps (1 ms): backoff exists to
/// let a transient host condition clear, not to stall the search.
const MAX_BACKOFF_SLEEP_NS: u64 = 1_000_000;

/// One listed pair, resolved.
struct Resolved<O> {
    result: Result<O, EvalError>,
    /// Answered by the persistent store rather than the evaluator.
    warm: bool,
}

/// Counter readings at the start of a generation, for its `generation`
/// event.
pub(crate) struct Mark {
    evaluations: u64,
    cache_hits: u64,
    span: Span,
}

/// The evaluation core of one run (see the module docs).
pub(crate) struct EvalCore<O> {
    /// Genome key → the outcome of each case evaluated so far (`None`: the
    /// pair failed). Keyed by the genome alone so probes borrow the key.
    memo: HashMap<String, Vec<(usize, Option<O>)>>,
    /// One error per failed pair (the first), in canonical (genome, case)
    /// order.
    ledger: BTreeMap<(String, usize), EvalError>,
    evaluations: u64,
    successes: u64,
    failures: u64,
    cache_hits: u64,
    warm_hits: u64,
    store: Option<FitnessStore>,
    /// Transient-failure retry budget ([`GpParams::retries`]).
    retries: u32,
    threads: usize,
    tracer: Tracer,
    /// Sequence number of the next `metrics-snapshot` event (never wall
    /// time).
    seq: u64,
    /// Times the whole run for `evolution-end`.
    run: Span,
}

impl<O: Outcome> EvalCore<O> {
    /// Begin a run: restore the accounting of `resume`, then emit
    /// `evolution-start`. The memo itself is never checkpointed —
    /// deterministic evaluators recompute identical outcomes — so a
    /// resumed run's counters can exceed its deduplicated ledger.
    pub(crate) fn start(
        params: &GpParams,
        store: Option<FitnessStore>,
        tracer: &Tracer,
        resume: Option<&Checkpoint>,
    ) -> Self {
        let mut core = EvalCore {
            memo: HashMap::new(),
            ledger: BTreeMap::new(),
            evaluations: 0,
            successes: 0,
            failures: 0,
            cache_hits: 0,
            warm_hits: 0,
            store,
            retries: params.retries,
            threads: params.threads.max(1),
            tracer: tracer.clone(),
            seq: 0,
            run: tracer.begin(),
        };
        if let Some(ck) = resume {
            core.evaluations = ck.evaluations;
            core.successes = ck.successes;
            core.failures = ck.failures;
            core.ledger = ck
                .quarantined
                .iter()
                .map(|r| ((r.genome.clone(), r.case), r.error.clone()))
                .collect();
        }
        tracer.emit(Event::EvolutionStart {
            population: params.population as u64,
            generations: params.generations as u64,
            start_gen: resume.map_or(0, |ck| ck.next_generation) as u64,
            threads: params.threads as u64,
            resumed: resume.is_some(),
        });
        core
    }

    /// Score `items` — `(genome key, genome)` pairs — on `cases`, calling
    /// `eval(genome, case, attempt)` for each pair the memo and the store
    /// cannot answer. Returns one outcome per item and case, in order
    /// (`None`: the pair failed and is quarantined).
    pub(crate) fn wave<G, F>(
        &mut self,
        items: &[(&str, &G)],
        cases: &[usize],
        gen: usize,
        eval: F,
    ) -> Vec<Vec<Option<O>>>
    where
        G: Sync,
        F: Fn(&G, usize, u32) -> Result<O, EvalError> + Sync,
    {
        // 1. The deduplicated list of pairs the memo cannot answer.
        let mut work: Vec<(usize, usize)> = Vec::new();
        let mut listed = HashSet::new();
        for (i, &(key, _)) in items.iter().enumerate() {
            for &case in cases {
                if self.probe(key, case).is_some() || !listed.insert((key, case)) {
                    self.cache_hits += 1;
                } else {
                    work.push((i, case));
                }
            }
        }

        // 2. Resolve the list: inline on one thread, else scoped workers
        // claiming items through an atomic index.
        let resolve = |&(i, case): &(usize, usize)| {
            let (key, genome) = items[i];
            self.resolve(key, case, gen, |attempt| eval(genome, case, attempt))
        };
        let threads = self.threads.min(work.len());
        let resolved: Vec<Resolved<O>> = if threads <= 1 {
            work.iter().map(resolve).collect()
        } else {
            let slots: Vec<OnceLock<Resolved<O>>> = work.iter().map(|_| OnceLock::new()).collect();
            // Relaxed: the counter only hands out indices; the slots are
            // published by the scope's join.
            let next = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|| loop {
                        let n = next.fetch_add(1, Ordering::Relaxed);
                        let Some(pair) = work.get(n) else { break };
                        let _ = slots[n].set(resolve(pair));
                    });
                }
            });
            slots
                .into_iter()
                .map(|slot| slot.into_inner().expect("every listed pair is resolved"))
                .collect()
        };

        // 3. Fold into the memo, counters, ledger and store, in list order.
        for (&(i, case), r) in work.iter().zip(resolved) {
            let key = items[i].0;
            self.evaluations += 1;
            let outcome = match r.result {
                Ok(o) => {
                    self.successes += 1;
                    if r.warm {
                        self.warm_hits += 1;
                    } else if let Some(store) = &self.store {
                        o.save(store, key, case);
                    }
                    Some(o)
                }
                Err(error) => {
                    self.failures += 1;
                    self.ledger.entry((key.to_string(), case)).or_insert(error);
                    None
                }
            };
            match self.memo.get_mut(key) {
                Some(seen) => seen.push((case, outcome)),
                None => {
                    self.memo.insert(key.to_string(), vec![(case, outcome)]);
                }
            }
        }

        items
            .iter()
            .map(|&(key, _)| {
                cases
                    .iter()
                    .map(|&case| self.probe(key, case).expect("every pair is memoized"))
                    .collect()
            })
            .collect()
    }

    /// The memoized outcome of a pair, if it has been evaluated.
    fn probe(&self, key: &str, case: usize) -> Option<Option<O>> {
        self.memo
            .get(key)?
            .iter()
            .find(|&&(c, _)| c == case)
            .map(|&(_, o)| o)
    }

    /// Resolve one listed pair: the warm store, else `eval(attempt)` under
    /// `catch_unwind`, retrying transient failures after a deterministic
    /// backoff. Emits the pair's `retry` and `eval` events as soon as it
    /// resolves; the caller folds the result.
    fn resolve(
        &self,
        key: &str,
        case: usize,
        gen: usize,
        eval: impl Fn(u32) -> Result<O, EvalError>,
    ) -> Resolved<O> {
        let span = self.tracer.begin();
        let stored = self.store.as_ref().and_then(|s| O::load(s, key, case));
        let warm = stored.is_some();
        // (kind, backoff) of each failed attempt that was retried.
        let mut retried = Vec::new();
        let result = match stored {
            Some(o) => Ok(o),
            None => loop {
                let attempt = retried.len() as u32;
                let r = catch_unwind(AssertUnwindSafe(|| eval(attempt)))
                    .unwrap_or_else(|payload| Err(EvalError::from_panic(&*payload)));
                match r {
                    Err(e) if e.kind.is_transient() && attempt < self.retries => {
                        let ns = backoff_ns(key, case, attempt);
                        std::thread::sleep(Duration::from_nanos(ns.min(MAX_BACKOFF_SLEEP_NS)));
                        retried.push((e.kind, ns));
                    }
                    r => break r,
                }
            },
        };
        let dur_ns = span.dur_ns();
        if self.tracer.enabled() {
            for (attempt, (kind, ns)) in retried.iter().enumerate() {
                self.tracer.emit(Event::Retry {
                    gen: gen as u64,
                    genome: key.to_string(),
                    case: case as u64,
                    attempt: attempt as u64,
                    kind: kind.label().to_string(),
                    backoff_ns: *ns,
                });
            }
            let (outcome, score, objectives) = match &result {
                Ok(o) => {
                    let (score, objectives) = o.trace_fields();
                    (OUTCOME_SCORE, Some(score), objectives)
                }
                Err(e) => (e.kind.label(), None, None),
            };
            self.tracer.emit(Event::Eval {
                gen: gen as u64,
                genome: key.to_string(),
                case: case as u64,
                outcome: outcome.to_string(),
                score,
                objectives,
                warm: warm.then_some(true),
                dur_ns,
            });
        }
        Resolved { result, warm }
    }

    /// Start a generation's accounting.
    pub(crate) fn mark(&self) -> Mark {
        Mark {
            evaluations: self.evaluations,
            cache_hits: self.cache_hits,
            span: self.tracer.begin(),
        }
    }

    /// Close the generation `gl` logs: its `generation` event and a
    /// [`EvalCore::snapshot`].
    pub(crate) fn end_generation(&mut self, gl: &GenLog, mark: Mark) {
        let dur_ns = mark.span.dur_ns();
        if self.tracer.enabled() {
            self.tracer.emit(Event::Generation {
                gen: gl.generation as u64,
                subset: gl.subset.iter().map(|&c| c as u64).collect(),
                evals: self.evaluations - mark.evaluations,
                cache_hits: self.cache_hits - mark.cache_hits,
                best_fitness: gl.best_fitness,
                mean_fitness: gl.mean_fitness,
                best_size: gl.best_size as u64,
                dur_ns,
            });
        }
        self.snapshot(gl.generation);
    }

    /// Emit one `metrics-snapshot` event when a metrics registry is
    /// attached: the monotonic `seq` and the deterministic `counters`
    /// (identical at every thread count, since waves fold serially).
    pub(crate) fn snapshot(&mut self, gen: usize) {
        if self.tracer.metrics().is_none() {
            return;
        }
        let counters = [
            ("evaluations", self.evaluations),
            ("successes", self.successes),
            ("failures", self.failures),
            ("cache_hits", self.cache_hits),
            ("warm_hits", self.warm_hits),
            ("quarantined", self.ledger.len() as u64),
        ];
        self.tracer.emit(Event::MetricsSnapshot {
            seq: self.seq,
            gen: gen as u64,
            counters: counters.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
        });
        self.seq += 1;
    }

    /// The quarantine ledger in canonical (genome, case) order.
    fn ledger_records(&self) -> Vec<QuarantineRecord> {
        self.ledger
            .iter()
            .map(|((genome, case), error)| QuarantineRecord {
                genome: genome.clone(),
                case: *case,
                error: error.clone(),
            })
            .collect()
    }

    /// End the run: its result, and the `evolution-end` event naming the
    /// winner by `best_key`.
    pub(crate) fn finish(
        self,
        best: Expr,
        best_key: &str,
        best_fitness: f64,
        log: Vec<GenLog>,
        front: Vec<ParetoPoint>,
    ) -> EvolutionResult {
        let result = EvolutionResult {
            best,
            best_fitness,
            log,
            evaluations: self.evaluations,
            successes: self.successes,
            failures: self.failures,
            quarantined: self.ledger_records(),
            cache_hits: self.cache_hits,
            warm_hits: self.warm_hits,
            front,
        };
        if self.tracer.enabled() {
            self.tracer.emit(Event::EvolutionEnd {
                evaluations: result.evaluations,
                successes: result.successes,
                failures: result.failures,
                quarantined: result.quarantined.len() as u64,
                best_fitness: result.best_fitness,
                best: best_key.to_string(),
                dur_ns: self.run.dur_ns(),
            });
            self.tracer.flush();
        }
        result
    }
}

/// The run lifecycle both loops share: the options their builders set, and
/// everything a run does outside selection (see the module docs).
#[derive(Default)]
pub(crate) struct Lifecycle {
    pub(crate) seeds: Vec<Expr>,
    pub(crate) config_tag: String,
    pub(crate) tracer: Tracer,
    pub(crate) checkpoint_path: Option<PathBuf>,
    pub(crate) resume: Option<Checkpoint>,
    pub(crate) eval_cache: Option<PathBuf>,
}

/// A started run: its evaluation core, and the search state a checkpoint
/// carries beside the loop's population.
pub(crate) struct Run<O> {
    pub(crate) core: EvalCore<O>,
    pub(crate) rng: StdRng,
    pub(crate) log: Vec<GenLog>,
    /// The first generation to run: 0, or a resumed checkpoint's next one.
    pub(crate) first_generation: usize,
    fingerprint: String,
    checkpoint_path: Option<PathBuf>,
}

/// How many offspring a generation breeds: `replace_frac` of the
/// population, at least one, and never all of it, so that elitism always
/// has a genome to keep.
pub(crate) fn offspring_count(params: &GpParams) -> usize {
    assert!(params.population >= 2, "the population must be at least 2");
    ((params.replace_frac * params.population as f64).round() as usize)
        .clamp(1, params.population - 1)
}

/// The panicking form of a loop's `try_run`: a checkpoint I/O error or a
/// refused resume has no in-run recovery.
pub(crate) fn unwrap_run<T>(result: Result<T, CheckpointError>, search: &str) -> T {
    result.unwrap_or_else(|e| panic!("{search} run failed: {e}"))
}

impl Lifecycle {
    /// Start a run under `fingerprint`. The store opens first, so that one
    /// from any other configuration degrades to in-memory operation before
    /// anything evaluates. A resume
    /// restores exactly `genomes` genomes; a fresh start takes the seeds,
    /// then ramped-grow expressions. `population` turns those into the
    /// loop's population, reading its own field of the checkpoint, before
    /// the core starts: a refused resume emits no `evolution-start`.
    pub(crate) fn start<O: Outcome, P>(
        &self,
        params: &GpParams,
        features: &FeatureSet,
        fingerprint: String,
        genomes: usize,
        population: impl FnOnce(Vec<Expr>, Option<&Checkpoint>) -> Result<P, CheckpointError>,
    ) -> Result<(Run<O>, P), CheckpointError> {
        let store = self
            .eval_cache
            .as_ref()
            .map(|path| FitnessStore::open(path, &fingerprint, &self.tracer));
        let (rng, exprs, log, first_generation) = match &self.resume {
            Some(ck) => {
                ck.validate(&fingerprint)?;
                let exprs = restore(ck, features, genomes)?;
                let rng = StdRng::from_state(ck.rng_state);
                (rng, exprs, ck.log.clone(), ck.next_generation)
            }
            None => {
                let mut rng = StdRng::seed_from_u64(params.seed);
                let (lo, hi) = params.init_depth;
                let mut exprs: Vec<Expr> =
                    self.seeds.iter().take(params.population).cloned().collect();
                while exprs.len() < params.population {
                    exprs.push(random_expr(&mut rng, features, params.kind, lo, hi));
                }
                (rng, exprs, Vec::with_capacity(params.generations), 0)
            }
        };
        let pop = population(exprs, self.resume.as_ref())?;
        let run = Run {
            core: EvalCore::start(params, store, &self.tracer, self.resume.as_ref()),
            rng,
            log,
            first_generation,
            fingerprint,
            checkpoint_path: self.checkpoint_path.clone(),
        };
        Ok((run, pop))
    }
}

/// A resume checkpoint's genomes, which must number `genomes`.
fn restore(ck: &Checkpoint, fs: &FeatureSet, genomes: usize) -> Result<Vec<Expr>, CheckpointError> {
    let parse = |genome: &String| {
        parse_expr(genome, fs)
            .map_err(|e| bad(format!("unparseable population genome {genome:?}: {e}")))
    };
    let exprs = ck
        .population
        .iter()
        .map(parse)
        .collect::<Result<Vec<_>, _>>()?;
    match exprs.len() {
        n if n == genomes => Ok(exprs),
        n => Err(bad(format!(
            "checkpoint has {n} genomes, params want {genomes}"
        ))),
    }
}

impl<O: Outcome> Run<O> {
    /// Write the checkpoint of the generation boundary before
    /// `next_generation`, if the run has a checkpoint file: the core's
    /// accounting, the RNG state and the log, with the population and the
    /// loop's own field that `fill` sets. The write is atomic and traced.
    pub(crate) fn checkpoint(
        &self,
        next_generation: usize,
        fill: impl FnOnce(&mut Checkpoint),
    ) -> Result<(), CheckpointError> {
        let Some(path) = &self.checkpoint_path else {
            return Ok(());
        };
        let core = &self.core;
        let mut ck = Checkpoint {
            fingerprint: self.fingerprint.clone(),
            next_generation,
            rng_state: self.rng.state(),
            population: Vec::new(),
            plans: None,
            dss: None,
            log: self.log.clone(),
            evaluations: core.evaluations,
            successes: core.successes,
            failures: core.failures,
            quarantined: core.ledger_records(),
            memo_entries: core.memo.values().map(|cases| cases.len() as u64).sum(),
        };
        fill(&mut ck);
        let span = core.tracer.begin();
        ck.save(path)?;
        core.tracer.emit(Event::Checkpoint {
            gen: next_generation as u64,
            dur_ns: span.dur_ns(),
        });
        Ok(())
    }
}
