//! Checkpoint/trace interplay: a resumed run's trace continues the killed
//! run's generation numbering, and memoization guarantees a trace never
//! re-emits an `eval` span for a cached `(genome, case)` pair.

use metaopt_gp::{
    Checkpoint, EvalError, EvalErrorKind, EvalOutcome, Evaluator, Evolution, Expr, FeatureSet,
    GpParams,
};
use metaopt_trace::json::{self, Value};
use metaopt_trace::{schema, Tracer};

fn features() -> FeatureSet {
    let mut fs = FeatureSet::new();
    fs.add_real("alpha");
    fs.add_real("beta");
    fs.add_bool("flag");
    fs
}

fn fnv(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// Deterministic hash-driven evaluator with a ~10 % failure slice, so the
/// resumed trace carries both scored and quarantined eval events.
struct Hashed;

impl Evaluator for Hashed {
    fn num_cases(&self) -> usize {
        4
    }

    fn eval_case(&self, expr: &Expr, case: usize) -> EvalOutcome {
        let h = fnv(&format!("{}#{case}", expr.key()));
        if h % 100 < 10 {
            return EvalOutcome::Failed(EvalError::new(
                EvalErrorKind::Sim,
                format!("synthetic fault on case {case}"),
            ));
        }
        EvalOutcome::Score(1.0 + ((h / 100) % 1000) as f64 / 1000.0)
    }
}

fn parsed(lines: &[String]) -> Vec<Value> {
    lines.iter().map(|l| json::parse(l).unwrap()).collect()
}

fn events_of<'a>(events: &'a [Value], ty: &str) -> Vec<&'a Value> {
    events
        .iter()
        .filter(|v| v.get("type").and_then(Value::as_str) == Some(ty))
        .collect()
}

/// Every `eval` span in a single trace is for a distinct `(genome, case)`
/// pair: cached lookups must not re-emit.
fn assert_no_duplicate_eval_spans(events: &[Value]) {
    let mut seen = std::collections::HashSet::new();
    for e in events_of(events, "eval") {
        let genome = e.get("genome").unwrap().as_str().unwrap().to_string();
        let case = e.get("case").unwrap().as_u64().unwrap();
        assert!(
            seen.insert((genome.clone(), case)),
            "eval span re-emitted for cached pair ({genome}, {case})"
        );
    }
}

#[test]
fn resumed_trace_continues_numbering_and_never_replays_cached_evals() {
    let fs = features();
    let ev = Hashed;
    let mut short = GpParams::quick();
    short.generations = 3;
    short.population = 16;
    short.seed = 42;
    short.threads = 2;
    short.subset_size = Some(2);
    let mut full = short.clone();
    full.generations = 7;

    let dir = std::env::temp_dir().join(format!("metaopt-gp-trace-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("checkpoint.txt");

    // Phase 1: the "killed" run — 3 of 7 generations, its own trace.
    let killed_tracer = Tracer::in_memory();
    Evolution::new(short, &fs, &ev)
        .with_tracer(killed_tracer.clone())
        .with_checkpoint_file(&path)
        .try_run()
        .unwrap();
    let killed_lines = killed_tracer.lines().unwrap();
    schema::validate_trace(&killed_lines.join("\n")).unwrap();
    let killed = parsed(&killed_lines);
    let killed_gens: Vec<u64> = events_of(&killed, "generation")
        .iter()
        .map(|e| e.get("gen").unwrap().as_u64().unwrap())
        .collect();
    assert_eq!(killed_gens, vec![0, 1, 2]);
    assert_no_duplicate_eval_spans(&killed);

    // Phase 2: resume from the checkpoint with the full horizon and a fresh
    // trace sink.
    let ck = Checkpoint::load(&path).unwrap();
    let resume_point = ck.next_generation as u64;
    let prior_evaluations = ck.evaluations;
    // Checkpoints land at every generation boundary except the final one,
    // so a 3-generation run's last snapshot resumes at generation 2.
    assert_eq!(resume_point, 2);
    let resumed_tracer = Tracer::in_memory();
    let resumed = Evolution::new(full, &fs, &ev)
        .with_tracer(resumed_tracer.clone())
        .with_checkpoint_file(&path)
        .resume_from(ck)
        .try_run()
        .unwrap();
    let lines = resumed_tracer.lines().unwrap();
    schema::validate_trace(&lines.join("\n")).unwrap();
    let events = parsed(&lines);

    // The evolution-start event declares the resume and its starting point.
    let starts = events_of(&events, "evolution-start");
    assert_eq!(starts.len(), 1);
    assert_eq!(starts[0].get("resumed"), Some(&Value::Bool(true)));
    assert_eq!(
        starts[0].get("start_gen").unwrap().as_u64().unwrap(),
        resume_point
    );

    // Generation numbering continues where the killed run stopped — no
    // replayed generations 0..3, no gaps.
    let gens: Vec<u64> = events_of(&events, "generation")
        .iter()
        .map(|e| e.get("gen").unwrap().as_u64().unwrap())
        .collect();
    assert_eq!(gens, vec![2, 3, 4, 5, 6]);

    // Checkpoints keep landing at generation boundaries after the resume
    // (a checkpoint's `gen` names the generation the snapshot resumes at).
    let ck_gens: Vec<u64> = events_of(&events, "checkpoint")
        .iter()
        .map(|e| e.get("gen").unwrap().as_u64().unwrap())
        .collect();
    assert_eq!(ck_gens, vec![3, 4, 5, 6]);

    // Cached `(genome, case)` evals never re-emit a span: every eval event
    // is distinct, and the span count equals the resumed run's own uncached
    // evaluations (the counters carried over from the checkpoint produced
    // no spans in this trace).
    assert_no_duplicate_eval_spans(&events);
    let resumed_evals = events_of(&events, "eval").len() as u64;
    assert_eq!(resumed_evals, resumed.evaluations - prior_evaluations);
    assert_eq!(resumed.evaluations, resumed.successes + resumed.failures);

    std::fs::remove_dir_all(&dir).ok();
}
