//! Property-based tests of the GP genome machinery.

use metaopt_gp::expr::{node_info, subtree, with_replaced, Env, Expr};
use metaopt_gp::gen::random_expr;
use metaopt_gp::ops::{crossover, mutate};
use metaopt_gp::parse::parse_expr;
use metaopt_gp::{FeatureSet, Kind};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn features() -> FeatureSet {
    let mut fs = FeatureSet::new();
    fs.add_real("alpha");
    fs.add_real("beta");
    fs.add_real("gamma");
    fs.add_bool("flag");
    fs.add_bool("other");
    fs
}

/// Random genomes via the library's own generator, driven by a proptest
/// seed — gives shrinkable coverage over the full primitive set.
fn arb_expr(kind: Kind) -> impl Strategy<Value = Expr> {
    (any::<u64>(), 1usize..8).prop_map(move |(seed, depth)| {
        let fs = features();
        let mut rng = StdRng::seed_from_u64(seed);
        random_expr(&mut rng, &fs, kind, 1, depth)
    })
}

proptest! {
    #[test]
    fn print_parse_round_trip_real(e in arb_expr(Kind::Real)) {
        let fs = features();
        let printed = e.to_string();
        let back = parse_expr(&printed, &fs).expect("printer output parses");
        prop_assert_eq!(back.to_string(), printed);
    }

    #[test]
    fn print_parse_round_trip_bool(e in arb_expr(Kind::Bool)) {
        let fs = features();
        let printed = e.to_string();
        let back = parse_expr(&printed, &fs).expect("printer output parses");
        prop_assert_eq!(back.to_string(), printed);
    }

    #[test]
    fn evaluation_is_total_and_finite(
        e in arb_expr(Kind::Real),
        reals in proptest::collection::vec(-1e12f64..1e12, 3),
        bools in proptest::collection::vec(any::<bool>(), 2),
        odd in (0usize..3, prop_oneof![
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
        ]),
    ) {
        let v = e.eval_real(&Env { reals: &reals, bools: &bools });
        prop_assert!(v.is_finite(), "{e} -> {v}");
        // A non-finite feature value is clamped like any other leaf.
        let mut reals = reals;
        reals[odd.0] = odd.1;
        let v = e.eval_real(&Env { reals: &reals, bools: &bools });
        prop_assert!(v.is_finite(), "{e} on {reals:?} -> {v}");
    }

    #[test]
    fn node_addressing_is_consistent(e in arb_expr(Kind::Real)) {
        let info = node_info(&e);
        prop_assert_eq!(info.len(), e.size());
        for (ix, (kind, _)) in info.iter().enumerate() {
            let sub = subtree(&e, ix).expect("index in range");
            prop_assert_eq!(sub.kind(), *kind);
            // Self-replacement is the identity.
            let back = with_replaced(&e, ix, &sub).expect("kind matches");
            prop_assert_eq!(&back, &e);
        }
        prop_assert!(subtree(&e, info.len()).is_none());
    }

    #[test]
    fn crossover_respects_sort_and_depth(
        a in arb_expr(Kind::Real),
        b in arb_expr(Kind::Real),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let child = crossover(&mut rng, &a, &b, 12);
        prop_assert_eq!(child.kind(), Kind::Real);
        prop_assert!(child.depth() <= 12);
    }

    #[test]
    fn mutation_respects_sort_and_depth(e in arb_expr(Kind::Bool), seed in any::<u64>()) {
        let fs = features();
        let mut rng = StdRng::seed_from_u64(seed);
        let m = mutate(&mut rng, &e, &fs, 12);
        prop_assert_eq!(m.kind(), Kind::Bool);
        prop_assert!(m.depth() <= 12);
    }

    #[test]
    fn key_is_injective_on_structure(a in arb_expr(Kind::Real), b in arb_expr(Kind::Real)) {
        // Equal keys imply equal trees (memoization soundness).
        if a.key() == b.key() {
            prop_assert_eq!(a, b);
        }
    }
}

mod quarantine {
    use super::*;
    use metaopt_gp::{
        EvalError, EvalErrorKind, EvalOutcome, Evaluator, Evolution, GpParams, PENALTY_FITNESS,
    };

    pub(crate) fn fnv(s: &str) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in s.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1_0000_01b3);
        }
        h
    }

    /// Deterministic evaluator whose genome space fails at a configurable
    /// percentage: a `(genome, case)` pair fails iff its hash lands under
    /// the threshold, and otherwise scores a hash-derived pseudo-fitness.
    pub(crate) struct SometimesFails {
        /// Failure percentage, 0–100.
        pub(crate) threshold: u64,
    }

    impl Evaluator for SometimesFails {
        fn num_cases(&self) -> usize {
            3
        }

        fn eval_case(&self, expr: &Expr, case: usize) -> EvalOutcome {
            let h = fnv(&format!("{}#{case}", expr.key()));
            if h % 100 < self.threshold {
                return EvalOutcome::Failed(EvalError::new(
                    EvalErrorKind::Sim,
                    format!("synthetic fault on case {case}"),
                ));
            }
            EvalOutcome::Score(1.0 + ((h / 100) % 1000) as f64 / 1000.0)
        }
    }

    proptest! {
        // Each case runs a whole (small, cheap) evolution; keep the count
        // modest so the suite stays fast.
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// At any failure rate, the engine's accounting identity holds, the
        /// quarantine ledger records exactly the distinct failed pairs, and
        /// no quarantined genome ever wins through elitism.
        #[test]
        fn quarantine_accounting_holds_at_any_failure_rate(
            threshold_pct in 0usize..=60,
            seed in any::<u64>(),
        ) {
            let fs = features();
            let params = GpParams {
                population: 16,
                generations: 3,
                seed,
                threads: 2,
                ..GpParams::quick()
            };
            let threshold = threshold_pct as u64;
            let eval = SometimesFails { threshold };
            let r = Evolution::new(params, &fs, &eval).run();

            prop_assert_eq!(r.evaluations, r.successes + r.failures);
            prop_assert_eq!(r.quarantined.len() as u64, r.failures);
            let mut seen = std::collections::HashSet::new();
            for rec in &r.quarantined {
                prop_assert!(
                    seen.insert((rec.genome.clone(), rec.case)),
                    "ledger must not repeat a (genome, case) pair: {}", rec
                );
                // Every record reproduces: the evaluator really does fail
                // that pair, with the recorded error class.
                let h = fnv(&format!("{}#{}", rec.genome, rec.case));
                prop_assert!(h % 100 < threshold, "ledger record not reproducible: {}", rec);
                prop_assert_eq!(rec.error.kind, EvalErrorKind::Sim);
            }
            // A genome with any quarantined case carries the penalty
            // fitness, so it can only "win" when the whole population is
            // quarantined.
            if r.best_fitness > PENALTY_FITNESS {
                let best = r.best.key();
                prop_assert!(
                    !r.quarantined.iter().any(|rec| rec.genome == best),
                    "quarantined genome won with fitness {}", r.best_fitness
                );
            }
        }
    }
}

mod determinism {
    use super::quarantine::{fnv, SometimesFails};
    use super::*;
    use metaopt_gp::{EvalError, EvalErrorKind, EvalOutcome, Evaluator, Evolution, GpParams};
    use metaopt_trace::metrics::MetricsRegistry;
    use metaopt_trace::{strip_timing, Tracer};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// The metrics-snapshot stream of a finished run with timing and the
    /// schedule-dependent `runtime` registry dump stripped — everything
    /// that is *supposed* to be deterministic.
    fn stripped_snapshots(tracer: &Tracer) -> Vec<String> {
        tracer
            .lines()
            .unwrap()
            .iter()
            .filter(|l| l.contains("\"metrics-snapshot\""))
            .map(|l| strip_timing(l).unwrap())
            .collect()
    }

    /// A metrics tracer for one run: in-memory sink plus a fresh registry.
    fn metrics_tracer() -> Tracer {
        Tracer::in_memory().with_metrics(MetricsRegistry::new())
    }

    /// [`SometimesFails`] plus a transient layer: a hash-selected slice of
    /// `(genome, case)` pairs times out on early attempts and clears after
    /// one or two retries — exercising the retry loop, while the permanent
    /// `Sim` failures underneath keep exercising quarantine.
    struct FlakyTimeouts {
        permanent: SometimesFails,
        /// Percentage of pairs that are transiently flaky, 0–100.
        transient: u64,
    }

    impl Evaluator for FlakyTimeouts {
        fn num_cases(&self) -> usize {
            self.permanent.num_cases()
        }

        fn eval_case(&self, expr: &Expr, case: usize) -> EvalOutcome {
            self.eval_case_attempt(expr, case, 0)
        }

        fn eval_case_attempt(&self, expr: &Expr, case: usize, attempt: u32) -> EvalOutcome {
            let h = fnv(&format!("{}#{case}#t", expr.key()));
            if h % 100 < self.transient {
                // Clears at attempt 1 or 2 — always within the default
                // retry budget, so no timeout ever reaches the ledger.
                let clears_at = 1 + (h / 100) % 2;
                if u64::from(attempt) < clears_at {
                    return EvalOutcome::Failed(EvalError::new(
                        EvalErrorKind::Timeout,
                        format!("transient timeout on case {case} attempt {attempt}"),
                    ));
                }
            }
            self.permanent.eval_case(expr, case)
        }
    }

    proptest! {
        // Full-run determinism is the expensive property here: each case is
        // 2 × (a small evolution), so keep the case count modest.
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// `Evolution::evaluate_all` (and everything downstream of it) is
        /// thread-schedule independent: a run at `threads = 1` and the same
        /// run at `threads = N` produce the identical per-generation fitness
        /// telemetry, the identical winner, the identical quarantine ledger,
        /// and the identical memo counters — across random seeds, population
        /// sizes, and failure rates.
        #[test]
        fn evaluation_is_identical_across_thread_counts(
            seed in any::<u64>(),
            population in 8usize..=32,
            threads in 2usize..=8,
            threshold_pct in 0usize..=40,
        ) {
            let fs = features();
            let eval = SometimesFails { threshold: threshold_pct as u64 };
            let params = |threads| GpParams {
                population,
                generations: 4,
                subset_size: Some(2),
                seed,
                threads,
                ..GpParams::quick()
            };
            let serial_tracer = metrics_tracer();
            let threaded_tracer = metrics_tracer();
            let serial = Evolution::new(params(1), &fs, &eval)
                .with_tracer(serial_tracer.clone())
                .run();
            let threaded = Evolution::new(params(threads), &fs, &eval)
                .with_tracer(threaded_tracer.clone())
                .run();

            // Per-generation fitness vectors (best/mean are reductions of
            // the full population fitness vector) and DSS subsets.
            prop_assert_eq!(&serial.log, &threaded.log);
            // Final full-set judgement.
            prop_assert_eq!(serial.best.key(), threaded.best.key());
            prop_assert_eq!(serial.best_fitness, threaded.best_fitness);
            // The final ledger: same records, same (sorted) order.
            prop_assert_eq!(serial.quarantined.len(), threaded.quarantined.len());
            for (a, b) in serial.quarantined.iter().zip(&threaded.quarantined) {
                prop_assert_eq!(&a.genome, &b.genome);
                prop_assert_eq!(a.case, b.case);
                prop_assert_eq!(a.error.kind, b.error.kind);
            }
            // Memo accounting, including cache hits (each wave's work list
            // is deduplicated serially, so the set of evaluated pairs is
            // schedule-independent).
            prop_assert_eq!(serial.evaluations, threaded.evaluations);
            prop_assert_eq!(serial.successes, threaded.successes);
            prop_assert_eq!(serial.failures, threaded.failures);
            prop_assert_eq!(serial.cache_hits, threaded.cache_hits);
            // The stripped metrics-snapshot stream (one per generation plus
            // the final full-set snapshot) is schedule-independent too.
            let serial_snaps = stripped_snapshots(&serial_tracer);
            prop_assert_eq!(serial_snaps.len(), 5, "4 generations + final");
            prop_assert_eq!(serial_snaps, stripped_snapshots(&threaded_tracer));
        }

        /// The same property with the whole reliability stack engaged:
        /// transient timeouts retried by the evaluation core, and a
        /// persistent fitness cache feeding a warm rerun. Serial, threaded
        /// cold-cache, and threaded warm-cache runs must all agree on every
        /// observable except the warm-hit counter.
        #[test]
        fn retried_and_cached_runs_are_identical_across_thread_counts(
            seed in any::<u64>(),
            population in 8usize..=24,
            threads in 2usize..=6,
            threshold_pct in 0usize..=30,
            transient_pct in 1usize..=40,
        ) {
            static UNIQ: AtomicU64 = AtomicU64::new(0);
            let cache = std::env::temp_dir().join(format!(
                "metaopt-prop-cache-{}-{}.bin",
                std::process::id(),
                UNIQ.fetch_add(1, Ordering::Relaxed),
            ));
            let _ = std::fs::remove_file(&cache);

            let fs = features();
            let eval = FlakyTimeouts {
                permanent: SometimesFails { threshold: threshold_pct as u64 },
                transient: transient_pct as u64,
            };
            let params = |threads| GpParams {
                population,
                generations: 3,
                subset_size: Some(2),
                seed,
                threads,
                retries: 2,
                ..GpParams::quick()
            };
            let serial_tracer = metrics_tracer();
            let cold_tracer = metrics_tracer();
            let warm_tracer = metrics_tracer();
            let serial = Evolution::new(params(1), &fs, &eval)
                .with_tracer(serial_tracer.clone())
                .run();
            let cold = Evolution::new(params(threads), &fs, &eval)
                .with_eval_cache(&cache)
                .with_tracer(cold_tracer.clone())
                .run();
            let warm = Evolution::new(params(threads), &fs, &eval)
                .with_eval_cache(&cache)
                .with_tracer(warm_tracer.clone())
                .run();
            let _ = std::fs::remove_file(&cache);

            // Transient timeouts always clear within the retry budget, so
            // the ledger holds only the permanent failures.
            for rec in &serial.quarantined {
                prop_assert_eq!(rec.error.kind, EvalErrorKind::Sim);
            }
            for (label, other) in [("cold", &cold), ("warm", &warm)] {
                prop_assert_eq!(&serial.log, &other.log, "{} log", label);
                prop_assert_eq!(serial.best.key(), other.best.key(), "{} best", label);
                prop_assert_eq!(serial.best_fitness, other.best_fitness, "{}", label);
                prop_assert_eq!(serial.evaluations, other.evaluations, "{}", label);
                prop_assert_eq!(serial.successes, other.successes, "{}", label);
                prop_assert_eq!(serial.failures, other.failures, "{}", label);
                prop_assert_eq!(serial.cache_hits, other.cache_hits, "{}", label);
                prop_assert_eq!(serial.quarantined.len(), other.quarantined.len(), "{}", label);
            }
            // The store answers every previously successful evaluation.
            prop_assert_eq!(cold.warm_hits, 0);
            prop_assert_eq!(warm.warm_hits, cold.successes);
            // Snapshot streams agree too; the warm run's snapshots differ
            // only in the warm_hits counter, which is the cache's job.
            let serial_snaps = stripped_snapshots(&serial_tracer);
            prop_assert_eq!(&serial_snaps, &stripped_snapshots(&cold_tracer));
            let neutral = |snaps: Vec<String>| -> Vec<String> {
                snaps.into_iter().map(|line| {
                    let key = "\"warm_hits\":";
                    let Some(ix) = line.find(key) else { return line };
                    let start = ix + key.len();
                    let end = line[start..]
                        .find(|c: char| !c.is_ascii_digit())
                        .map_or(line.len(), |d| start + d);
                    format!("{}0{}", &line[..start], &line[end..])
                }).collect()
            };
            prop_assert_eq!(
                neutral(serial_snaps),
                neutral(stripped_snapshots(&warm_tracer))
            );
        }
    }
}
