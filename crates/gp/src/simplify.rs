//! Expression simplification.
//!
//! The paper notes that reported winners were "hand simplified for ease of
//! discussion" and that evolved genomes carry *introns* — subexpressions
//! with no effect on the result (which are nonetheless useful during
//! evolution as crossover ballast, §5.4.3). This pass mechanizes the hand
//! simplification: constant folding, algebraic identities, and
//! branch-elimination on constant conditions. Folding goes through the
//! evaluator, as lint's does, so a folded constant is exactly the value
//! the subtree evaluated to. It never changes the function's value on any
//! input (checked by property tests).

use crate::expr::{fold, operands, Expr, Kind, Prim};

const EPS: f64 = 1e-12;

/// Is the subtree the real constant `k` (within [`EPS`])?
fn is_const(tree: &[Prim], k: f64) -> bool {
    matches!(tree, [Prim::RConst(c)] if (c - k).abs() < EPS)
}

/// Simplify the subtree `tree` bottom-up, in one pass.
fn simplify_tree(tree: &[Prim]) -> Vec<Prim> {
    use Prim::*;
    let simplified: Vec<Vec<Prim>> = operands(tree).map(simplify_tree).collect();
    let args: Vec<&[Prim]> = simplified.iter().map(Vec::as_slice).collect();
    let mut node = vec![tree[0]];
    node.extend(args.concat());
    // A node whose simplified operands are all constant reads no features.
    if let Some(v) = fold(&node) {
        return vec![match tree[0].kind() {
            Kind::Real => RConst(v),
            Kind::Bool => BConst(v > 0.0),
        }];
    }
    let out: &[Prim] = match (tree[0], &args[..]) {
        (Add, [a, b]) if is_const(a, 0.0) => b,
        (Add, [a, b]) if is_const(b, 0.0) => a,
        (Sub, [a, b]) if is_const(b, 0.0) => a,
        (Sub, [a, b]) if a == b => &[RConst(0.0)],
        (Mul, [a, b]) if is_const(a, 1.0) => b,
        (Mul, [a, b]) if is_const(b, 1.0) => a,
        // NOTE: x*0 cannot fold to 0 in general IEEE arithmetic, but the
        // evaluator reads every NaN as 0 and clamps infinities, so 0*x == 0
        // for every input.
        (Mul, [a, b]) if is_const(a, 0.0) || is_const(b, 0.0) => &[RConst(0.0)],
        // Protected division: /0 yields 1.
        (Div, [_, [RConst(y)]]) if y.abs() < 1e-9 => &[RConst(1.0)],
        (Div, [a, b]) if is_const(b, 1.0) => a,
        (Tern, [[BConst(c)], a, b]) => {
            if *c {
                a
            } else {
                b
            }
        }
        (Tern, [_, a, b]) if a == b => a, // intron: both arms identical
        (Cmul, [[BConst(true)], a, b]) => return simplify_tree(&[&[Mul], *a, *b].concat()),
        (Cmul, [[BConst(false)], _, b]) => b,
        (Cmul, [_, a, b]) if is_const(a, 1.0) => b, // 1*b == b on both arms
        (And, [[BConst(false)], _] | [_, [BConst(false)]]) => &[BConst(false)],
        (And, [[BConst(true)], b]) => b,
        (And, [a, [BConst(true)]]) => a,
        (Or, [[BConst(true)], _] | [_, [BConst(true)]]) => &[BConst(true)],
        (Or, [[BConst(false)], b]) => b,
        (Or, [a, [BConst(false)]]) => a,
        (And | Or, [a, b]) if a == b => a,
        (Not, [a]) if a[0] == Not => &a[1..],
        (Lt | Gt, [a, b]) if a == b => &[BConst(false)],
        (Eq, [a, b]) if a == b => &[BConst(true)],
        _ => &node,
    };
    out.to_vec()
}

/// Simplify a genome to a fixpoint (at most a few passes in practice).
pub fn simplify(e: &Expr) -> Expr {
    let mut cur = e.clone();
    for _ in 0..8 {
        let next = Expr {
            prims: simplify_tree(&cur.prims),
        };
        if next == cur {
            break;
        }
        cur = next;
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Env;
    use crate::parse::parse_expr;
    use crate::FeatureSet;

    fn fs() -> FeatureSet {
        let mut f = FeatureSet::new();
        f.add_real("x");
        f.add_real("y");
        f.add_bool("p");
        f
    }

    fn simp(src: &str) -> String {
        simplify(&parse_expr(src, &fs()).unwrap()).to_string()
    }

    #[test]
    fn folds_constants() {
        assert_eq!(simp("(add 2.0 3.0)"), "(rconst 5.0000)");
        assert_eq!(simp("(mul (add 1.0 1.0) (sub 5.0 2.0))"), "(rconst 6.0000)");
        assert_eq!(simp("(sqrt 9.0)"), "(rconst 3.0000)");
    }

    #[test]
    fn applies_identities() {
        assert_eq!(simp("(add x 0.0)"), "r0");
        assert_eq!(simp("(mul x 1.0)"), "r0");
        assert_eq!(simp("(mul x 0.0)"), "(rconst 0.0000)");
        assert_eq!(simp("(div x 1.0)"), "r0");
        assert_eq!(simp("(sub x x)"), "(rconst 0.0000)");
    }

    #[test]
    fn removes_constant_branches() {
        assert_eq!(simp("(tern (bconst true) x y)"), "r0");
        assert_eq!(simp("(tern (lt 1.0 2.0) x y)"), "r0");
        assert_eq!(simp("(cmul (bconst false) x y)"), "r1");
        assert_eq!(simp("(tern (barg p) x x)"), "r0");
    }

    #[test]
    fn simplifies_boolean_structure() {
        assert_eq!(
            simp("(tern (and (barg p) (bconst true)) x y)"),
            "(tern b0 r0 r1)"
        );
        assert_eq!(simp("(tern (not (not (barg p))) x y)"), "(tern b0 r0 r1)");
        assert_eq!(simp("(tern (or (barg p) (bconst true)) x y)"), "r0");
    }

    #[test]
    fn protected_division_folds_correctly() {
        assert_eq!(simp("(div x 0.0)"), "(rconst 1.0000)");
    }

    #[test]
    fn folds_agree_with_the_evaluator_beyond_the_clamp() {
        // Each fold leaves the evaluator's clamp range; the folded constant
        // must still be the value the genome evaluates to.
        let env = Env {
            reals: &[],
            bools: &[],
        };
        for src in ["(mul 1e10 1e10)", "(add 9e17 9e17)", "(sqrt 1e300)"] {
            let e = parse_expr(src, &fs()).unwrap();
            let s = simplify(&e);
            assert_eq!(
                s.eval_real(&env).to_bits(),
                e.eval_real(&env).to_bits(),
                "{src} -> {}",
                s.key()
            );
        }
    }

    #[test]
    fn semantics_preserved_on_random_expressions() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let f = fs();
        let mut rng = StdRng::seed_from_u64(1234);
        for _ in 0..500 {
            let e = crate::gen::random_expr(&mut rng, &f, crate::Kind::Real, 1, 7);
            let s = simplify(&e);
            assert!(s.size() <= e.size(), "simplify must not grow: {e} -> {s}");
            for trial in 0..8 {
                let reals = [trial as f64 * 1.7 - 3.0, 0.5 * trial as f64];
                let bools = [trial % 2 == 0];
                let env = Env {
                    reals: &reals,
                    bools: &bools,
                };
                let a = e.eval_real(&env);
                let b = s.eval_real(&env);
                assert!(
                    (a - b).abs() <= 1e-9 * (1.0 + a.abs()),
                    "{e} -> {s}: {a} vs {b}"
                );
            }
        }
    }
}
