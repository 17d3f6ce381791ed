//! Random genome generation (ramped grow, paper §4: "randomly grows
//! expressions of varying heights using the primitives in Table 1 and
//! features extracted by the compiler writer").

use crate::expr::{Expr, Kind, Prim};
use crate::features::FeatureSet;
use rand::{Rng, RngExt};

/// Draw a random real constant: a mix of small integers and unit-interval
/// values, which covers the constants that appear in hand-written priority
/// functions (0.25, 2.1, …).
pub fn random_const<R: Rng>(rng: &mut R) -> f64 {
    match rng.random_range(0..4u8) {
        0 => rng.random_range(0..11) as f64,
        1 => rng.random_range(-10..11) as f64 * 0.1,
        2 => rng.random::<f64>() * 2.0,
        _ => rng.random::<f64>(),
    }
}

/// Grow a random subtree of sort `kind` and height at most `depth`,
/// appending it to `out` in preorder.
fn grow<R: Rng>(rng: &mut R, fs: &FeatureSet, kind: Kind, depth: usize, out: &mut Vec<Prim>) {
    // Per sort: the chance of a leaf above the depth bound, the chance
    // that a leaf reads a feature, and how many features there are.
    let (leaf, feature, features) = match kind {
        Kind::Real => (0.25, 0.6, fs.num_reals()),
        Kind::Bool => (0.2, 0.7, fs.num_bools()),
    };
    if depth <= 1 || rng.random_bool(leaf) {
        let node = if features > 0 && rng.random_bool(feature) {
            let i = rng.random_range(0..features) as u16;
            match kind {
                Kind::Real => Prim::RArg(i),
                Kind::Bool => Prim::BArg(i),
            }
        } else {
            match kind {
                Kind::Real => Prim::RConst(random_const(rng)),
                Kind::Bool => Prim::BConst(rng.random_bool(0.5)),
            }
        };
        out.push(node);
    } else {
        let ops = Prim::operators(kind);
        let op = ops[usize::from(rng.random_range(0..ops.len() as u8))];
        out.push(op);
        for &arg in op.args() {
            grow(rng, fs, arg, depth - 1, out);
        }
    }
}

/// Grow a random genome of the requested sort with height in
/// `[min_depth, max_depth]` (ramped).
pub fn random_expr<R: Rng>(
    rng: &mut R,
    fs: &FeatureSet,
    kind: Kind,
    min_depth: usize,
    max_depth: usize,
) -> Expr {
    let depth = rng.random_range(min_depth..=max_depth.max(min_depth));
    let mut prims = Vec::new();
    grow(rng, fs, kind, depth, &mut prims);
    Expr { prims }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fs() -> FeatureSet {
        let mut f = FeatureSet::new();
        f.add_real("x");
        f.add_real("y");
        f.add_bool("p");
        f
    }

    #[test]
    fn respects_depth_bound() {
        let fs = fs();
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..200 {
            let e = random_expr(&mut rng, &fs, Kind::Real, 2, 5);
            assert!(e.depth() <= 5, "depth {} > 5", e.depth());
            assert!(e.size() >= 1);
        }
    }

    #[test]
    fn generates_requested_kind() {
        let fs = fs();
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(
            random_expr(&mut rng, &fs, Kind::Real, 1, 4).kind(),
            Kind::Real
        );
        assert_eq!(
            random_expr(&mut rng, &fs, Kind::Bool, 1, 4).kind(),
            Kind::Bool
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let fs = fs();
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            assert_eq!(
                random_expr(&mut a, &fs, Kind::Real, 2, 6),
                random_expr(&mut b, &fs, Kind::Real, 2, 6)
            );
        }
    }

    #[test]
    fn produces_varied_expressions() {
        let fs = fs();
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..50 {
            seen.insert(random_expr(&mut rng, &fs, Kind::Real, 2, 6).key());
        }
        assert!(seen.len() > 30, "only {} distinct expressions", seen.len());
    }

    #[test]
    fn all_evals_total() {
        let fs = fs();
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..300 {
            let e = random_expr(&mut rng, &fs, Kind::Real, 1, 8);
            let v = e.eval_real(&crate::expr::Env {
                reals: &[1e15, -3.5],
                bools: &[true],
            });
            assert!(v.is_finite());
        }
    }
}
