//! Golden trace test: a fixed-seed two-generation specialization run must
//! (a) emit a trace in which every line validates against `run-trace.v1`,
//! (b) reproduce a checked-in golden of the timestamp-stripped event
//! sequence exactly, and (c) leave the run's *results* bit-identical to the
//! same run with tracing disabled.
//!
//! Regenerate the golden after an intentional schema/emission change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p metaopt --test trace_golden
//! ```

use metaopt::experiment::{self, RunControl, SpecializationResult};
use metaopt::study;
use metaopt_gp::GpParams;
use metaopt_sim::SimTier;
use metaopt_trace::metrics::MetricsRegistry;
use metaopt_trace::{report, schema, strip_timing, Tracer};
use std::path::Path;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/trace_smoke.golden"
);

fn smoke_run(tracer: Tracer) -> SpecializationResult {
    let cfg = study::hyperblock();
    let bench = metaopt_suite::by_name("unepic").unwrap();
    let params = GpParams {
        population: 6,
        generations: 2,
        seed: 4,
        threads: 1,
        ..GpParams::quick()
    };
    let control = RunControl {
        tracer,
        ..RunControl::default()
    };
    experiment::specialize_controlled(&cfg, &bench, &params, &control).unwrap()
}

#[test]
fn fixed_seed_trace_matches_golden_and_perturbs_nothing() {
    // Metrics enabled: the golden also pins the stripped metrics-snapshot
    // sequence, proving the snapshot counters are seed-deterministic.
    let tracer = Tracer::in_memory().with_metrics(MetricsRegistry::new());
    let traced = smoke_run(tracer.clone());
    let lines = tracer.lines().unwrap();
    let text = lines.join("\n");

    // (a) Every line validates against the schema.
    let summary = schema::validate_trace(&text).unwrap();
    assert_eq!(summary.events, lines.len());
    assert_eq!(summary.by_type[0].0, "trace-header");

    // The report layer digests the same trace without complaint.
    let rep = report::analyze(&text).unwrap();
    assert_eq!(rep.generations.len(), 2);
    assert!(rep.render().contains("generation"));

    // Snapshots appear once per generation plus a final one, carry a
    // strictly increasing seq, and no longer carry the schedule-dependent
    // "runtime" registry dump that older traces hold.
    let snapshots: Vec<&String> = lines
        .iter()
        .filter(|l| l.contains("\"metrics-snapshot\""))
        .collect();
    assert_eq!(snapshots.len(), 3, "2 generations + final snapshot");
    for (seq, line) in snapshots.iter().enumerate() {
        assert!(
            line.contains(&format!("\"seq\":{seq}")),
            "snapshot seq should count 0.. in emission order: {line}"
        );
        assert!(!line.contains("\"runtime\""), "{line}");
        let stripped = strip_timing(line).unwrap();
        assert!(
            !stripped.contains("runtime"),
            "strip_timing must remove the schedule-dependent runtime dump"
        );
    }

    // (b) The timestamp-stripped event sequence is pinned by the golden
    // file: everything but timing is deterministic for a fixed seed.
    let stripped: String = lines
        .iter()
        .map(|l| strip_timing(l).unwrap() + "\n")
        .collect();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &stripped).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            Path::new(GOLDEN).display()
        )
    });
    assert_eq!(
        stripped, golden,
        "trace event sequence drifted from the golden; if the change is \
         intentional, regenerate with UPDATE_GOLDEN=1 and review the diff"
    );

    // (c) Tracing observes, never perturbs: the identical run with the
    // tracer disabled produces a bit-identical result.
    let plain = smoke_run(Tracer::disabled());
    assert_eq!(plain.best.key(), traced.best.key());
    assert_eq!(
        plain.train_speedup.to_bits(),
        traced.train_speedup.to_bits()
    );
    assert_eq!(
        plain.novel_speedup.to_bits(),
        traced.novel_speedup.to_bits()
    );
    assert_eq!(plain.log, traced.log);
    assert_eq!(plain.evaluations, traced.evaluations);
    assert_eq!(plain.quarantined, traced.quarantined);
}

/// Cross-tier golden: the same fixed-seed evolution run under the fast
/// (bytecode) and reference simulator tiers emits bit-identical event
/// streams once timestamps are stripped and the `tier` attribute — the one
/// sanctioned difference — is normalized. Fitness, the quarantine ledger,
/// and the checkpoint files written along the way are tier-independent.
#[test]
fn cross_tier_run_traces_and_checkpoints_are_bit_identical() {
    let dir = std::env::temp_dir();
    let ck_for = |tier: &str| {
        let p = dir.join(format!("metaopt-xtier-{tier}-{}.ck", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    };
    let run = |tier: SimTier, ck: &Path| {
        let cfg = study::hyperblock().with_sim_tier(tier);
        let bench = metaopt_suite::by_name("unepic").unwrap();
        let params = GpParams {
            population: 6,
            generations: 2,
            seed: 4,
            threads: 1,
            ..GpParams::quick()
        };
        let tracer = Tracer::in_memory();
        let control = RunControl {
            tracer: tracer.clone(),
            checkpoint: Some(ck.to_path_buf()),
            ..RunControl::default()
        };
        let res = experiment::specialize_controlled(&cfg, &bench, &params, &control).unwrap();
        (res, tracer.lines().unwrap())
    };
    let fast_ck = ck_for("fast");
    let ref_ck = ck_for("ref");
    let (fast, fast_lines) = run(SimTier::Fast, &fast_ck);
    let (reference, ref_lines) = run(SimTier::Reference, &ref_ck);

    // Each stream stamps its own tier on sim events…
    assert!(
        fast_lines.iter().any(|l| l.contains("\"tier\":\"fast\"")),
        "fast run must stamp its tier on sim events"
    );
    assert!(
        ref_lines
            .iter()
            .any(|l| l.contains("\"tier\":\"reference\"")),
        "reference run must stamp its tier on sim events"
    );
    // …and that stamp is the *only* difference between them.
    let normalize = |lines: &[String]| -> String {
        lines
            .iter()
            .map(|l| {
                strip_timing(l)
                    .unwrap()
                    .replace("\"tier\":\"reference\"", "\"tier\":\"fast\"")
                    + "\n"
            })
            .collect()
    };
    assert_eq!(
        normalize(&fast_lines),
        normalize(&ref_lines),
        "cross-tier event streams diverged beyond the tier attribute"
    );

    // Results are bit-identical: same winner, same speedups, same
    // per-generation telemetry, same quarantine ledger.
    assert_eq!(fast.best.key(), reference.best.key());
    assert_eq!(
        fast.train_speedup.to_bits(),
        reference.train_speedup.to_bits()
    );
    assert_eq!(
        fast.novel_speedup.to_bits(),
        reference.novel_speedup.to_bits()
    );
    assert_eq!(fast.log, reference.log);
    assert_eq!(fast.evaluations, reference.evaluations);
    assert_eq!(fast.quarantined, reference.quarantined);

    // Checkpoint contents never encode the tier: byte-identical files.
    assert_eq!(
        std::fs::read(&fast_ck).unwrap(),
        std::fs::read(&ref_ck).unwrap(),
        "checkpoints must be tier-independent"
    );
    let _ = std::fs::remove_file(&fast_ck);
    let _ = std::fs::remove_file(&ref_ck);
}
