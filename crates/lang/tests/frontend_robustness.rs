//! The MiniC frontend is an input boundary (suite kernels, hand-written
//! sources): on any text `compile` returns `Ok` or a typed `LangError` and
//! never panics or overflows the stack. Nesting past
//! `parser::MAX_NESTING` is an error that names its line.

use metaopt_lang::compile;
use metaopt_lang::parser::MAX_NESTING;
use proptest::prelude::*;

/// Tokens and keywords MiniC gives meaning to, literals at the edges of
/// what `i64` and `f64` lex, and anything else.
#[rustfmt::skip]
const FRAGMENTS: &[&str] = &[
    "fn ", "main", "(", ")", "{", "}", "->", "int", "float", "byte", "global ", "let ", "=",
    ";", "if", "else", "while", "for", "return ", "break", "continue", "[", "]", ",", "+",
    "-", "*", "/", "%", "<<", ">>", "&", "|", "^", "&&", "||", "!", "==", "!=", "<", ">=",
    "0", "1", "1.5", "9223372036854775807", "9223372036854775808", "1e999", "0x10", "x",
    "xs", "abs", "min", "sqrt", "i2f", "f2i", "ucall", " ", "\n", "//", "/*", "*/", "é",
];

fn arb_fragment() -> impl Strategy<Value = String> {
    prop_oneof![
        6 => (0..FRAGMENTS.len()).prop_map(|i| FRAGMENTS[i].to_string()),
        1 => any::<u32>().prop_map(|c| char::from_u32(c % 0x11_0000).unwrap_or('\u{fffd}').to_string()),
    ]
}

fn arb_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(arb_fragment(), 0..60).prop_map(|fs| fs.concat())
}

fn kernel(pick: usize) -> &'static str {
    let all = metaopt_suite::all_benchmarks();
    all[pick % all.len()].source
}

/// Compile `src`; an error must say what went wrong.
fn compile_is_total(src: &str) {
    if let Err(e) = compile(src) {
        assert!(!e.message.is_empty(), "empty error for {src:?}");
    }
}

/// `depth` levels of one kind of nesting inside `main`.
fn nested(kind: usize, depth: usize) -> String {
    let body = match kind {
        0 => format!("return {}1{};", "(".repeat(depth), ")".repeat(depth)),
        1 => format!(
            "{} return 1; {}",
            "if (1) {".repeat(depth),
            "}".repeat(depth)
        ),
        2 => format!("return {}1;", "-".repeat(depth)),
        3 => format!("return 1{};", "+1".repeat(depth)),
        4 => format!("return {}1{};", "abs(".repeat(depth), ")".repeat(depth)),
        5 => format!(
            "{} return 1; {}",
            "while (0) {".repeat(depth),
            "}".repeat(depth)
        ),
        _ => format!(
            "let x = 0; if (x == 0) {{ x = 1; }} {} return x;",
            "else if (x == 1) { x = 2; } ".repeat(depth)
        ),
    };
    format!("fn main() -> int {{ {body} return 0; }}")
}

/// Compile `src` on a thread with a 2 MiB stack, the size of a test thread.
fn compile_on_small_stack(src: String) -> Result<(), metaopt_lang::LangError> {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || compile(&src).map(|_| ()))
        .unwrap()
        .join()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_text_compiles_or_errs(src in arb_text()) {
        compile_is_total(&src);
        compile_is_total(&format!("fn main() -> int {{ {src} }}"));
    }

    #[test]
    fn truncated_kernels_compile_or_err(pick in any::<usize>(), cut in any::<usize>()) {
        let src = kernel(pick);
        let ends: Vec<usize> = src.char_indices().map(|(i, _)| i).collect();
        let end = ends.get(cut % (ends.len() + 1)).copied().unwrap_or(src.len());
        compile_is_total(&src[..end]);
    }

    #[test]
    fn mutated_kernels_compile_or_err(
        pick in any::<usize>(),
        at in any::<usize>(),
        fragment in arb_fragment(),
        replace in any::<bool>(),
    ) {
        // Swap one whitespace-separated word for, or prefix it with, a
        // fragment.
        let mut words: Vec<String> = kernel(pick).split(' ').map(str::to_string).collect();
        let i = at % words.len();
        words[i] = if replace { fragment } else { format!("{fragment}{}", words[i]) };
        compile_is_total(&words.join(" "));
    }

    #[test]
    fn deep_nesting_compiles_or_errs(kind in 0usize..7, depth in 0usize..4 * MAX_NESTING) {
        compile_is_total(&nested(kind, depth));
    }
}

/// Every suite kernel still compiles under the bound.
#[test]
fn suite_kernels_compile() {
    for b in metaopt_suite::all_benchmarks() {
        compile(b.source).unwrap_or_else(|e| panic!("{}: {e}", b.name));
    }
}

/// Regression: 5,000 nested parentheses, 5,000 nested `if` blocks and
/// 100,000 nested unary minuses used to overflow the stack and abort the
/// process; so did a 10,000-term sum, whose left operands nest, 5,000
/// `while` blocks and 5,000 `else if` arms.
#[test]
fn nesting_past_the_limit_is_a_typed_error() {
    for kind in 0..7 {
        compile_on_small_stack(nested(kind, MAX_NESTING / 2))
            .unwrap_or_else(|e| panic!("kind {kind} at depth {}: {e}", MAX_NESTING / 2));
    }
    for (kind, depth) in [
        (0, 5_000),
        (1, 5_000),
        (2, 100_000),
        (3, 10_000),
        (5, 5_000),
        (6, 5_000),
    ] {
        let e = compile_on_small_stack(nested(kind, depth)).expect_err("too deep");
        assert!(e.message.contains("nested deeper"), "kind {kind}: {e}");
        assert_eq!(e.line, 1, "kind {kind}: {e}");
    }
}
