//! The genome expression parser is an input boundary (command lines,
//! checkpoints, fitness caches): on any text it returns `Ok` or a typed
//! `ParseError` and never panics or overflows the stack.

use metaopt_gp::gen::random_expr;
use metaopt_gp::parse::{parse_expr, MAX_NESTING};
use metaopt_gp::{FeatureSet, Kind};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn features() -> FeatureSet {
    let mut fs = FeatureSet::new();
    fs.add_real("alpha");
    fs.add_real("beta");
    fs.add_bool("flag");
    fs
}

/// Fragments the genome syntax gives meaning to, numbers at the edges of
/// what `f64` and `u16` parse, and anything else.
#[rustfmt::skip]
const FRAGMENTS: &[&str] = &[
    "(", ")", " ", "\n", "add", "sub", "mul", "div", "sqrt", "tern", "cmul", "rconst", "and",
    "or", "not", "lt", "gt", "eq", "bconst", "barg", "true", "false", "alpha", "beta", "flag",
    "r0", "r65535", "r65536", "b0", "b99999", "1.5", "-0", "1e999", "-1e999", "1e-999", "NaN",
    "inf", "340282366920938463463374607431768211456", "0x10", "é",
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

/// A printed genome from the library's own generator.
fn arb_printed() -> impl Strategy<Value = String> {
    (any::<u64>(), any::<bool>(), 1usize..7).prop_map(|(seed, real, depth)| {
        let kind = if real { Kind::Real } else { Kind::Bool };
        let mut rng = StdRng::seed_from_u64(seed);
        random_expr(&mut rng, &features(), kind, 1, depth).to_string()
    })
}

/// Parse `src`; a success must print back to text that parses again.
fn parse_is_total(src: &str) {
    let fs = features();
    match parse_expr(src, &fs) {
        Ok(e) => {
            let printed = e.to_string();
            assert!(
                parse_expr(&printed, &fs).is_ok(),
                "{src:?} parsed but its printed form {printed:?} does not"
            );
        }
        Err(e) => assert!(!e.message.is_empty(), "empty error for {src:?}"),
    }
}

/// `depth` nested unary forms around a leaf.
fn nested(op: &str, leaf: &str, depth: usize) -> String {
    format!(
        "{}{leaf}{}",
        format!("({op} ").repeat(depth),
        ")".repeat(depth)
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_text_parses_or_errs(src in arb_text()) {
        parse_is_total(&src);
    }

    #[test]
    fn truncated_genomes_parse_or_err(printed in arb_printed(), cut in any::<usize>()) {
        let ends: Vec<usize> = printed.char_indices().map(|(i, _)| i).collect();
        let end = ends.get(cut % (ends.len() + 1)).copied().unwrap_or(printed.len());
        parse_is_total(&printed[..end]);
    }

    #[test]
    fn huge_and_odd_numbers_parse_or_err(printed in arb_printed(), pick in 0..FRAGMENTS.len()) {
        // Swap every number in a valid genome for one fragment.
        let odd = FRAGMENTS[pick];
        let swapped: Vec<String> = printed
            .split(' ')
            .map(|tok| {
                let body = tok.trim_end_matches(')');
                if body.parse::<f64>().is_ok() {
                    format!("{odd}{}", &tok[body.len()..])
                } else {
                    tok.to_string()
                }
            })
            .collect();
        parse_is_total(&swapped.join(" "));
    }

    #[test]
    fn deep_nesting_parses_or_errs(depth in 0usize..4 * MAX_NESTING, pick in 0usize..4) {
        let src = match pick {
            0 => nested("sqrt", "alpha", depth),
            1 => nested("not", "flag", depth),
            2 => "(".repeat(depth),
            _ => nested("add 1", "beta", depth),
        };
        parse_is_total(&src);
    }
}

/// Regression: 100,000 nested `(sqrt` forms used to overflow the parser's
/// stack and abort the process.
#[test]
fn nesting_past_the_limit_is_a_typed_error() {
    let fs = features();
    assert!(parse_expr(&nested("sqrt", "alpha", MAX_NESTING), &fs).is_ok());
    for depth in [MAX_NESTING + 1, 100_000] {
        let e = parse_expr(&nested("sqrt", "alpha", depth), &fs).expect_err("too deep");
        assert!(e.message.contains("nested deeper"), "{e}");
        // A Boolean form fails the real parse first, whose error is the one
        // reported.
        assert!(parse_expr(&nested("not", "flag", depth), &fs).is_err());
    }
}
