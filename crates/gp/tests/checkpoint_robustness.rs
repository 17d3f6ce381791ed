//! The checkpoint parser is an input boundary (`--resume <file>`): on any
//! text it returns `Ok` or a typed `CheckpointError` and never panics. In
//! particular no count read from the file sizes an allocation, so a file
//! that claims more records than it holds is a truncated checkpoint.

use metaopt_gp::checkpoint::{fingerprint, DssState, CHECKPOINT_VERSION};
use metaopt_gp::QuarantineRecord;
use metaopt_gp::{Checkpoint, CheckpointError, EvalError, EvalErrorKind, GenLog, GpParams};
use proptest::prelude::*;

/// A valid checkpoint whose shape follows the drawn sizes; genomes and
/// messages carry the characters the format escapes.
fn checkpoint(pop: usize, plans: bool, dss: usize, log: usize, quarantine: usize) -> Checkpoint {
    let genome = |i: usize| format!("(add r{i} 1.5)\t\\\n\r");
    Checkpoint {
        fingerprint: fingerprint(&GpParams::quick(), "regalloc,schedule"),
        next_generation: log,
        rng_state: [1, u64::MAX, 0xDEAD_BEEF, 42],
        population: (0..pop).map(genome).collect(),
        plans: plans.then(|| vec!["unroll(2),regalloc,schedule".to_string(); pop]),
        dss: (dss > 0).then(|| DssState {
            subset_size: dss / 2,
            difficulty: vec![f64::NAN; dss],
            age: vec![1.0; dss],
        }),
        log: (0..log)
            .map(|g| GenLog {
                generation: g,
                best_fitness: 1.25,
                mean_fitness: f64::INFINITY,
                best_size: 7,
                subset: (0..g).collect(),
            })
            .collect(),
        evaluations: 10,
        successes: 8,
        failures: 2,
        quarantined: (0..quarantine)
            .map(|case| QuarantineRecord {
                genome: genome(case),
                case,
                error: EvalError::new(EvalErrorKind::Budget, "limit\tof 9\n"),
            })
            .collect(),
        memo_entries: 9,
    }
}

fn arb_checkpoint_text() -> impl Strategy<Value = String> {
    (
        (0usize..4, any::<bool>()),
        (0usize..4, 0usize..4, 0usize..3),
    )
        .prop_map(|((pop, plans), (dss, log, q))| checkpoint(pop, plans, dss, log, q).to_text())
}

/// Line heads and values the format gives meaning to, counts at the edges
/// of `usize`, and anything else.
#[rustfmt::skip]
const FRAGMENTS: &[&str] = &[
    "\n", " ", "\t", "\\", "\\t", "\\q", "metaopt-checkpoint v", "fingerprint ", "next-generation ",
    "rng ", "counters ", "memo-entries ", "population ", "plans ", "plans none", "dss ",
    "dss none", "log ", "gen ", "quarantine ", "end", "-", ",", "0", "1", "3", "budget",
    "organic", "injected", "7ff8000000000000", "18446744073709551615", "18446744073709551616",
    "1000000000000", "-1", "é",
];

fn arb_text() -> impl Strategy<Value = String> {
    let fragment = prop_oneof![
        6 => (0..FRAGMENTS.len()).prop_map(|i| FRAGMENTS[i].to_string()),
        1 => any::<u32>().prop_map(|c| char::from_u32(c % 0x11_0000).unwrap_or('\u{fffd}').to_string()),
    ];
    proptest::collection::vec(fragment, 0..60).prop_map(|fs| fs.concat())
}

/// Parse `text`; a success must print back to text that parses again.
fn parse_is_total(text: &str) -> Result<Checkpoint, CheckpointError> {
    let parsed = Checkpoint::parse(text);
    match &parsed {
        Ok(ck) => assert!(
            Checkpoint::parse(&ck.to_text()).is_ok(),
            "{text:?} parsed but its printed form does not"
        ),
        Err(e) => assert!(!e.to_string().is_empty(), "empty error for {text:?}"),
    }
    parsed
}

/// Replace the count (the last word) on the lines starting with `head`.
fn with_count(text: &str, head: &str, count: &str) -> String {
    text.lines()
        .map(|l| match l.rsplit_once(' ') {
            Some((rest, n)) if l.starts_with(head) && n != "none" => format!("{rest} {count}"),
            _ => l.to_string(),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

const COUNTED: &[&str] = &["population ", "plans ", "dss ", "log ", "quarantine "];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_text_parses_or_errs(text in arb_text()) {
        parse_is_total(&text).ok();
        parse_is_total(&format!("metaopt-checkpoint v{CHECKPOINT_VERSION}\n{text}")).ok();
    }

    #[test]
    fn valid_checkpoints_round_trip(text in arb_checkpoint_text()) {
        let ck = parse_is_total(&text).expect("a printed checkpoint parses");
        prop_assert_eq!(ck.to_text(), text);
    }

    #[test]
    fn truncated_checkpoints_parse_or_err(text in arb_checkpoint_text(), cut in any::<usize>()) {
        let ends: Vec<usize> = text.char_indices().map(|(i, _)| i).collect();
        let end = ends.get(cut % (ends.len() + 1)).copied().unwrap_or(text.len());
        parse_is_total(&text[..end]).ok();
    }

    #[test]
    fn mutated_checkpoints_parse_or_err(
        text in arb_checkpoint_text(),
        line in any::<usize>(),
        pick in 0..FRAGMENTS.len(),
        replace in any::<bool>(),
    ) {
        // Swap one line for, or prefix it with, one fragment.
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        let i = line % lines.len();
        lines[i] = if replace {
            FRAGMENTS[pick].to_string()
        } else {
            format!("{}{}", FRAGMENTS[pick], lines[i])
        };
        parse_is_total(&lines.join("\n")).ok();
    }

    #[test]
    fn huge_counts_parse_or_err(
        text in arb_checkpoint_text(),
        head in 0..COUNTED.len(),
        count in prop_oneof![
            Just(u64::MAX),
            Just(1_000_000_000_000u64),
            any::<u64>(),
            (0u32..8).prop_map(u64::from),
        ],
    ) {
        parse_is_total(&with_count(&text, COUNTED[head], &count.to_string())).ok();
    }
}

/// `text` up to the line starting with `head`, whose count becomes
/// `count`: a file that claims `count` records and ends there.
fn ending_at(text: &str, head: &str, count: &str) -> String {
    let at = text.lines().position(|l| l.starts_with(head)).unwrap();
    let prefix: Vec<&str> = text.lines().take(at + 1).collect();
    with_count(&prefix.join("\n"), head, count)
}

/// Regression: a population count of `usize::MAX` used to reach
/// `Vec::with_capacity` and panic with "capacity overflow", and 10^12 asked
/// for a 24 TB allocation; the plan, log and quarantine counts sized their
/// vectors the same way.
#[test]
fn counts_past_the_file_are_a_truncated_checkpoint() {
    let text = checkpoint(2, true, 3, 2, 1).to_text();
    for count in ["18446744073709551615", "1000000000000"] {
        for head in ["population ", "log ", "quarantine "] {
            let err = Checkpoint::parse(&ending_at(&text, head, count)).unwrap_err();
            assert!(
                err.to_string().contains("truncated checkpoint"),
                "{head}{count}: {err}"
            );
        }
        for head in COUNTED {
            assert!(Checkpoint::parse(&with_count(&text, head, count)).is_err());
        }
    }
}
