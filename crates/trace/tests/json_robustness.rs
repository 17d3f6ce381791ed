//! The trace JSON parser is an input boundary (trace files, bench digests,
//! live tails): on any text it returns `Ok` or a typed `ParseError` and
//! never panics or overflows the stack.

use metaopt_trace::json::{parse, Value, MAX_NESTING};
use proptest::prelude::*;

/// Fragments JSON gives meaning to, numbers at the edges of what `u64` and
/// `f64` parse, broken escapes, and anything else.
#[rustfmt::skip]
const FRAGMENTS: &[&str] = &[
    "[", "]", "{", "}", ",", ":", "\"", "\\", "\\u", "\\u00e9", "\\ud800", "\\uZZZZ", "\\x",
    "null", "nul", "true", "fals", "-", "0", "-0", "1e", "1.5e+3", ".5", "1e999", "-1e999",
    "18446744073709551615", "18446744073709551616", "1e-999", " ", "\n", "\t", "é", "\u{1}",
];

fn arb_fragment() -> impl Strategy<Value = String> {
    prop_oneof![
        6 => (0..FRAGMENTS.len()).prop_map(|i| FRAGMENTS[i].to_string()),
        1 => any::<u32>().prop_map(|c| char::from_u32(c % 0x11_0000).unwrap_or('\u{fffd}').to_string()),
    ]
}

fn arb_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(arb_fragment(), 0..40).prop_map(|fs| fs.concat())
}

/// A valid JSON value.
fn arb_value() -> BoxedStrategy<Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<u64>().prop_map(Value::UInt),
        any::<f64>().prop_map(Value::Num),
        (0..FRAGMENTS.len()).prop_map(|i| Value::str(FRAGMENTS[i])),
    ];
    leaf.prop_recursive(4, 32, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::Arr),
            proptest::collection::vec(
                (
                    (0..FRAGMENTS.len()).prop_map(|i| FRAGMENTS[i].to_string()),
                    inner
                ),
                0..4
            )
            .prop_map(Value::Obj),
        ]
    })
}

/// Parse `text`; a success must serialize to text that parses again.
fn parse_is_total(text: &str) {
    match parse(text) {
        Ok(v) => {
            let out = v.to_string();
            assert!(parse(&out).is_ok(), "{text:?} parsed but {out:?} does not");
        }
        Err(e) => assert!(e.offset <= text.len(), "offset past the input: {e}"),
    }
}

/// `depth` arrays or single-key objects around a leaf.
fn nested(object: bool, depth: usize) -> String {
    if object {
        format!("{}1{}", "{\"k\":".repeat(depth), "}".repeat(depth))
    } else {
        format!("{}1{}", "[".repeat(depth), "]".repeat(depth))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_text_parses_or_errs(text in arb_text()) {
        parse_is_total(&text);
    }

    #[test]
    fn valid_values_round_trip(v in arb_value()) {
        let text = v.to_string();
        let back = parse(&text).expect("serialized value parses");
        prop_assert_eq!(back.to_string(), text);
    }

    #[test]
    fn truncated_values_parse_or_err(v in arb_value(), cut in any::<usize>()) {
        let text = v.to_string();
        let ends: Vec<usize> = text.char_indices().map(|(i, _)| i).collect();
        let end = ends.get(cut % (ends.len() + 1)).copied().unwrap_or(text.len());
        parse_is_total(&text[..end]);
    }

    #[test]
    fn huge_numbers_parse_or_err(digits in 1usize..400, exp in any::<i32>(), neg in any::<bool>()) {
        let sign = if neg { "-" } else { "" };
        parse_is_total(&format!("{sign}{}", "9".repeat(digits)));
        parse_is_total(&format!("[{sign}1.5e{exp}]"));
    }

    #[test]
    fn deep_nesting_parses_or_errs(depth in 0usize..4 * MAX_NESTING, object in any::<bool>()) {
        parse_is_total(&nested(object, depth));
        parse_is_total(&"[".repeat(depth));
    }
}

/// Regression: 100,000 nested arrays used to overflow the parser's stack
/// and abort the process.
#[test]
fn nesting_past_the_limit_is_a_typed_error() {
    for object in [false, true] {
        assert!(parse(&nested(object, MAX_NESTING)).is_ok());
        for depth in [MAX_NESTING + 1, 100_000] {
            let e = parse(&nested(object, depth)).expect_err("too deep");
            assert!(e.message.contains("nested deeper"), "{e}");
        }
    }
}
