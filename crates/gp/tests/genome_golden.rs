//! Golden genome layer: pins what every genome operation of `metaopt-gp`
//! returns on a fixed set of random genomes, so a change to how genomes
//! are stored cannot change what they mean, print or breed into.
//!
//! Inputs are 2,000 genomes of each sort from `gen::random_expr` at fixed
//! seeds, cycling through depth bounds 1–9, in blocks of 100, over one
//! fixed feature set. Each block contributes one line of FNV-1a digests,
//! one per facet:
//!
//! * `key`, `display`, `named`: `Expr::key`, `Display` and
//!   `expr::display_named`;
//! * `shape`: `size`, `depth` and `expr::node_info`;
//! * `sub`: the key of every `expr::subtree`, and `None` one past the end;
//! * `rep`: `expr::with_replaced` at every node by a donor of that node's
//!   sort;
//! * `eval`: `eval_real` bits and `eval_bool` on a few finite feature
//!   vectors (one shorter than the feature set);
//! * `lint`: `lint::lint` lines against both study sorts;
//! * `simp`: the key of `simplify::simplify`;
//! * `parse`: `parse::parse_expr` of the key, the display text and the
//!   named text, as a key or an error message.
//!
//! Then four rounds of crossover, mutation and depth-fair picks over a
//! population of each sort under one seed, with the generator's next word
//! afterwards; and `parse_expr`'s result or message on fixed-seed strings
//! built from the fragments `parse_robustness.rs` draws from, and at the
//! nesting bound.
//!
//! Regenerate the golden after an intentional change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p metaopt-gp --test genome_golden
//! ```

use metaopt_gp::expr::{display_named, node_info, subtree, with_replaced, Env, Expr};
use metaopt_gp::gen::random_expr;
use metaopt_gp::lint::lint;
use metaopt_gp::ops::{crossover, mutate, pick_node_depth_fair};
use metaopt_gp::parse::{parse_expr, MAX_NESTING};
use metaopt_gp::simplify::simplify;
use metaopt_gp::{FeatureSet, Kind};
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};
use std::fmt::Write as _;
use std::path::Path;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/genome.golden");

const BLOCKS: u64 = 20;
const PER_BLOCK: usize = 100;

/// 64-bit FNV-1a.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn features() -> FeatureSet {
    let mut fs = FeatureSet::new();
    fs.add_real("alpha");
    fs.add_real("beta");
    fs.add_real("gamma");
    fs.add_bool("flag");
    fs.add_bool("other");
    fs
}

/// Finite feature vectors, one of them shorter than the feature set.
const VECTORS: &[(&[f64], &[bool])] = &[
    (&[0.0, 0.0, 0.0], &[false, false]),
    (&[1.5, -2.25, 1e6], &[true, false]),
    (&[-3.0, 0.5, 1e-12], &[false, true]),
    (&[1e15, -1e15, 7.0], &[true, true]),
    (&[2.0], &[]),
];

fn label(kind: Kind) -> &'static str {
    match kind {
        Kind::Real => "real",
        Kind::Bool => "bool",
    }
}

fn parsed(src: &str, fs: &FeatureSet) -> String {
    match parse_expr(src, fs) {
        Ok(e) => format!("ok {}", e.key()),
        Err(e) => format!("err {}", e.message),
    }
}

/// One genome's text for each facet, appended to the block's streams.
fn facets(e: &Expr, donors: &[Expr; 2], fs: &FeatureSet, out: &mut [String; 10]) {
    let [key, display, named, shape, sub, rep, eval, lints, simp, parse] = out;
    let text = e.to_string();
    let name = display_named(e, fs);
    let info = node_info(e);
    writeln!(key, "{}", e.key()).unwrap();
    writeln!(display, "{text}").unwrap();
    writeln!(named, "{name}").unwrap();
    writeln!(shape, "{} {} {info:?}", e.size(), e.depth()).unwrap();
    for (ix, (kind, _)) in info.iter().enumerate() {
        let s = subtree(e, ix).map(|s| s.key());
        writeln!(sub, "{ix} {s:?}").unwrap();
        let donor = &donors[usize::from(*kind == Kind::Bool)];
        let r = with_replaced(e, ix, donor).map(|r| r.key());
        writeln!(rep, "{ix} {r:?}").unwrap();
    }
    writeln!(sub, "end {:?}", subtree(e, info.len()).map(|s| s.key())).unwrap();
    for (reals, bools) in VECTORS {
        let env = Env { reals, bools };
        let v = e.eval_real(&env);
        writeln!(eval, "{:016x} {}", v.to_bits(), e.eval_bool(&env)).unwrap();
    }
    for kind in [Kind::Real, Kind::Bool] {
        for l in lint(e, kind, fs) {
            writeln!(lints, "{} {l}", label(kind)).unwrap();
        }
    }
    writeln!(simp, "{}", simplify(e).key()).unwrap();
    for src in [e.key(), text, name] {
        writeln!(parse, "{}", parsed(&src, fs)).unwrap();
    }
}

fn genome_lines(fs: &FeatureSet, out: &mut String) {
    const NAMES: [&str; 10] = [
        "key", "display", "named", "shape", "sub", "rep", "eval", "lint", "simp", "parse",
    ];
    for kind in [Kind::Real, Kind::Bool] {
        for block in 0..BLOCKS {
            let base = if kind == Kind::Real { 1_000 } else { 2_000 };
            let mut rng = StdRng::seed_from_u64(base + block);
            let mut donor_rng = StdRng::seed_from_u64(base + 500 + block);
            let donors = [
                random_expr(&mut donor_rng, fs, Kind::Real, 1, 3),
                random_expr(&mut donor_rng, fs, Kind::Bool, 1, 3),
            ];
            let mut streams: [String; 10] = Default::default();
            for i in 0..PER_BLOCK {
                let e = random_expr(&mut rng, fs, kind, 1, 1 + i % 9);
                facets(&e, &donors, fs, &mut streams);
            }
            write!(out, "{} {block:02}", label(kind)).unwrap();
            for (name, stream) in NAMES.iter().zip(&streams) {
                write!(out, " {name}={:016x}", fnv1a(stream)).unwrap();
            }
            out.push('\n');
        }
    }
}

/// Four rounds of crossover, mutation and depth-fair picks over one
/// population per sort, all drawing on one generator.
fn breeding_lines(fs: &FeatureSet, out: &mut String) {
    let mut rng = StdRng::seed_from_u64(77);
    for kind in [Kind::Real, Kind::Bool] {
        let mut pop: Vec<Expr> = (0..40)
            .map(|i| random_expr(&mut rng, fs, kind, 1, 1 + i % 9))
            .collect();
        for round in 0..4 {
            let mut log = String::new();
            let n = pop.len();
            let mut next = Vec::with_capacity(n);
            for i in 0..n {
                let child = crossover(&mut rng, &pop[i], &pop[(i + 7) % n], 12);
                let child = mutate(&mut rng, &child, fs, 12);
                let picks = [None, Some(Kind::Real), Some(Kind::Bool)]
                    .map(|want| pick_node_depth_fair(&mut rng, &child, want));
                writeln!(log, "{} {picks:?}", child.key()).unwrap();
                next.push(child);
            }
            pop = next;
            writeln!(out, "{} breed {round} {:016x}", label(kind), fnv1a(&log)).unwrap();
        }
    }
    writeln!(out, "breed next word {:016x}", rng.next_u64()).unwrap();
}

/// The fragments `parse_robustness.rs` builds its hostile inputs from.
#[rustfmt::skip]
const FRAGMENTS: &[&str] = &[
    "(", ")", " ", "\n", "add", "sub", "mul", "div", "sqrt", "tern", "cmul", "rconst", "and",
    "or", "not", "lt", "gt", "eq", "bconst", "barg", "true", "false", "alpha", "beta", "flag",
    "r0", "r65535", "r65536", "b0", "b99999", "1.5", "-0", "1e999", "-1e999", "1e-999", "NaN",
    "inf", "340282366920938463463374607431768211456", "0x10", "é",
];

/// `depth` nested unary forms around a leaf.
fn nested(op: &str, leaf: &str, depth: usize) -> String {
    format!(
        "{}{leaf}{}",
        format!("({op} ").repeat(depth),
        ")".repeat(depth)
    )
}

fn malformed_lines(fs: &FeatureSet, out: &mut String) {
    let mut rng = StdRng::seed_from_u64(4242);
    for block in 0..4 {
        let mut log = String::new();
        for _ in 0..1_000 {
            let n = rng.random_range(0..40usize);
            let src: String = (0..n)
                .map(|_| FRAGMENTS[rng.random_range(0..FRAGMENTS.len())])
                .collect();
            writeln!(log, "{}", parsed(&src, fs)).unwrap();
        }
        writeln!(out, "malformed {block} {:016x}", fnv1a(&log)).unwrap();
    }
    for depth in [MAX_NESTING, MAX_NESTING + 1] {
        for src in [
            nested("sqrt", "alpha", depth),
            nested("not", "flag", depth),
            nested("add 1", "beta", depth),
            "(".repeat(depth),
        ] {
            let shown = parsed(&src, fs);
            let shown = match shown.strip_prefix("ok ") {
                Some(key) => format!("ok {:016x}", fnv1a(key)),
                None => shown,
            };
            writeln!(out, "nesting {depth} {}: {shown}", &src[..6.min(src.len())]).unwrap();
        }
    }
}

#[test]
fn genome_operations_match_the_golden() {
    let fs = features();
    let mut lines = String::new();
    genome_lines(&fs, &mut lines);
    breeding_lines(&fs, &mut lines);
    malformed_lines(&fs, &mut lines);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &lines).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            Path::new(GOLDEN).display()
        )
    });
    for (i, (got, want)) in lines.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "line {} differs from the golden", i + 1);
    }
    assert_eq!(
        lines.lines().count(),
        golden.lines().count(),
        "line count differs from the golden"
    );
}
