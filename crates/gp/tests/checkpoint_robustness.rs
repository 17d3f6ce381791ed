//! The checkpoint parser is an input boundary (`--resume <file>`): on any
//! text it returns `Ok` or a typed `CheckpointError` and never panics, and
//! a checkpoint it prints reads back to the same text, bit for bit, NaN
//! payloads and control characters included.

use metaopt_gp::checkpoint::{fingerprint, DssState, CHECKPOINT_VERSION};
use metaopt_gp::QuarantineRecord;
use metaopt_gp::{Checkpoint, CheckpointError, EvalError, EvalErrorKind, GenLog, GpParams};
use proptest::prelude::*;

/// Floats a decimal round trip would not keep: NaNs with a sign and a
/// payload, ±0.0, ±∞, subnormals, and any bit pattern.
fn arb_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(f64::NAN),
        Just(-f64::NAN),
        Just(f64::from_bits(0x7ff0_0000_0000_0001)),
        Just(0.0),
        Just(-0.0),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::MIN_POSITIVE / 2.0),
        Just(-f64::from_bits(1)),
        any::<u64>().prop_map(f64::from_bits),
    ]
}

/// Words at the edges of `u64`, and any word.
fn arb_u64() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0), Just(u64::MAX), any::<u64>()]
}

/// Quotes, backslashes, tabs, newlines, other control characters and
/// non-ASCII text, among ordinary genome characters.
#[rustfmt::skip]
const CHARS: &[char] = &[
    '"', '\\', '\t', '\n', '\r', '\u{0}', '\u{1}', '\u{8}', '\u{c}', '\u{1f}', '\u{7f}', '/',
    'é', '✓', '😀', '\u{2028}', '(', ')', ' ', 'r', '0', '1', '.', 'x',
];

fn arb_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..CHARS.len(), 0..12)
        .prop_map(|ix| ix.into_iter().map(|i| CHARS[i]).collect())
}

fn arb_checkpoint() -> impl Strategy<Value = Checkpoint> {
    let genomes = proptest::collection::vec((arb_string(), arb_string()), 0..4);
    let dss = prop_oneof![
        Just(None),
        (
            0usize..4,
            proptest::collection::vec((arb_f64(), arb_f64()), 1..4)
        )
            .prop_map(|(subset_size, cases)| Some(DssState {
                subset_size,
                difficulty: cases.iter().map(|c| c.0).collect(),
                age: cases.iter().map(|c| c.1).collect(),
            })),
    ];
    let subset = proptest::collection::vec(0usize..40, 0..4);
    let log = proptest::collection::vec((arb_f64(), arb_f64(), arb_u64(), subset), 0..4);
    let kind = 0..EvalErrorKind::ALL.len();
    let quarantine =
        proptest::collection::vec((arb_string(), arb_string(), kind, any::<bool>()), 0..3);
    let counters = (arb_u64(), arb_u64(), arb_u64(), arb_u64());
    let rng = (arb_u64(), arb_u64(), arb_u64(), arb_u64());
    (
        (arb_string(), arb_u64(), genomes, any::<bool>()),
        (dss, log, quarantine),
        (counters, rng),
    )
        .prop_map(|(head, body, (counters, rng))| {
            let (tag, next_generation, genomes, plans) = head;
            let (dss, log, quarantine) = body;
            let (evaluations, successes, failures, memo_entries) = counters;
            Checkpoint {
                fingerprint: fingerprint(&GpParams::quick(), &tag),
                next_generation: next_generation as usize,
                rng_state: [rng.0, rng.1, rng.2, rng.3],
                population: genomes.iter().map(|g| g.0.clone()).collect(),
                plans: plans.then(|| genomes.iter().map(|g| g.1.clone()).collect()),
                dss,
                log: log
                    .into_iter()
                    .enumerate()
                    .map(|(generation, (best, mean, size, subset))| GenLog {
                        generation,
                        best_fitness: best,
                        mean_fitness: mean,
                        best_size: size as usize,
                        subset,
                    })
                    .collect(),
                evaluations,
                successes,
                failures,
                quarantined: quarantine
                    .into_iter()
                    .enumerate()
                    .map(
                        |(case, (genome, message, kind, injected))| QuarantineRecord {
                            genome,
                            case,
                            error: EvalError {
                                kind: EvalErrorKind::ALL[kind],
                                message,
                                injected,
                            },
                        },
                    )
                    .collect(),
                memo_entries,
            }
        })
}

fn arb_checkpoint_text() -> impl Strategy<Value = String> {
    arb_checkpoint().prop_map(|ck| ck.to_text())
}

/// JSON tokens, the document's keys and values, a v3 header, numbers at
/// and past the edges of `u64`, and anything else.
#[rustfmt::skip]
const FRAGMENTS: &[&str] = &[
    "{", "}", "[", "]", ":", ",", "\"", "\\", "\\u", "\\ud800", "\\u0000", "null", "true",
    "false", " ", "\n", "\"format\"", "\"metaopt-checkpoint v4\"", "\"metaopt-checkpoint v3\"",
    "metaopt-checkpoint v3\n", "\"fingerprint\"", "\"next_generation\"", "\"rng\"",
    "\"evaluations\"", "\"memo_entries\"", "\"population\"", "\"plans\"", "\"dss\"",
    "\"difficulty\"", "\"age\"", "\"log\"", "\"best_fitness\"", "\"subset\"", "\"quarantine\"",
    "\"case\"", "\"kind\"", "\"budget\"", "\"injected\"", "0", "1", "-1", "1.5", "1e999", "-0",
    "18446744073709551615", "18446744073709551616", "1000000000000", "é",
];

/// Numbers at and past the edges of what the document's fields hold.
const EDGE_NUMBERS: &[&str] = &[
    "18446744073709551615",
    "18446744073709551616",
    "1000000000000",
    "-1",
    "1.5",
    "1e999",
    "0",
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

/// The byte offset of every character of `text`, and its end.
fn boundaries(text: &str) -> Vec<usize> {
    text.char_indices()
        .map(|(i, _)| i)
        .chain([text.len()])
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_text_parses_or_errs(text in arb_text()) {
        parse_is_total(&text).ok();
        let open = format!("{{\"format\":\"metaopt-checkpoint v{CHECKPOINT_VERSION}\",");
        parse_is_total(&format!("{open}{text}")).ok();
    }

    #[test]
    fn valid_checkpoints_round_trip(text in arb_checkpoint_text()) {
        let ck = parse_is_total(&text).expect("a printed checkpoint parses");
        prop_assert_eq!(ck.to_text(), text.clone());
        prop_assert_eq!(text.lines().count(), 1);
    }

    #[test]
    fn truncated_checkpoints_parse_or_err(text in arb_checkpoint_text(), cut in any::<usize>()) {
        let ends = boundaries(&text);
        parse_is_total(&text[..ends[cut % ends.len()]]).ok();
    }

    #[test]
    fn mutated_checkpoints_parse_or_err(
        text in arb_checkpoint_text(),
        at in any::<usize>(),
        span in 0usize..8,
        pick in 0..FRAGMENTS.len(),
    ) {
        // Swap up to `span` characters at one point for one fragment.
        let ends = boundaries(&text);
        let i = at % ends.len();
        let j = (i + span).min(ends.len() - 1);
        let mutated = format!("{}{}{}", &text[..ends[i]], FRAGMENTS[pick], &text[ends[j]..]);
        parse_is_total(&mutated).ok();
    }

    #[test]
    fn huge_counts_parse_or_err(
        text in arb_checkpoint_text(),
        which in any::<usize>(),
        edge in 0..EDGE_NUMBERS.len(),
    ) {
        // Swap one run of digits (a count, counter, index, bit pattern or
        // part of a string) for a number at or past the edge of `u64`.
        let bytes = text.as_bytes();
        let starts: Vec<usize> = (0..bytes.len())
            .filter(|&i| bytes[i].is_ascii_digit() && (i == 0 || !bytes[i - 1].is_ascii_digit()))
            .collect();
        let start = starts[which % starts.len()];
        let end = (start..bytes.len()).find(|&i| !bytes[i].is_ascii_digit()).unwrap_or(bytes.len());
        let swapped = format!("{}{}{}", &text[..start], EDGE_NUMBERS[edge], &text[end..]);
        parse_is_total(&swapped).ok();
    }
}
