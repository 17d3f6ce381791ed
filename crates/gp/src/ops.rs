//! Genetic operators: depth-fair crossover and Banzhaf-style mutation.

use crate::expr::{node_info, Expr, Kind, Prim};
use crate::features::FeatureSet;
use crate::gen::{random_const, random_expr};
use rand::{Rng, RngExt};

/// Choose a node index **depth-fairly** (Kessler–Haynes): first pick a tree
/// level uniformly among the levels that contain a node of the wanted kind
/// (if any), then pick uniformly within that level. This avoids the >50 %
/// leaf bias of naive uniform node selection (paper §3, footnote 1).
pub fn pick_node_depth_fair<R: Rng>(rng: &mut R, e: &Expr, want: Option<Kind>) -> Option<usize> {
    let info = node_info(e);
    let mut levels: Vec<u16> = Vec::new();
    for (k, d) in &info {
        if want.is_none_or(|w| w == *k) && !levels.contains(d) {
            levels.push(*d);
        }
    }
    if levels.is_empty() {
        return None;
    }
    let level = levels[rng.random_range(0..levels.len())];
    let candidates: Vec<usize> = info
        .iter()
        .enumerate()
        .filter(|(_, (k, d))| *d == level && want.is_none_or(|w| w == *k))
        .map(|(i, _)| i)
        .collect();
    Some(candidates[rng.random_range(0..candidates.len())])
}

/// Depth-fair subtree crossover. Picks a crossover point in `a`, then a
/// same-sort donor subtree in `b`, and grafts the donor into `a`. Returns a
/// clone of `a` when no compatible point exists or the child would exceed
/// `max_depth`.
pub fn crossover<R: Rng>(rng: &mut R, a: &Expr, b: &Expr, max_depth: usize) -> Expr {
    for _ in 0..8 {
        let Some(ix) = pick_node_depth_fair(rng, a, None) else {
            break;
        };
        let kind = a.prims[ix].kind();
        let Some(donor_ix) = pick_node_depth_fair(rng, b, Some(kind)) else {
            continue;
        };
        let child = a.splice(ix, b.node(donor_ix));
        if child.depth() <= max_depth {
            return child;
        }
    }
    a.clone()
}

/// Mutation operators from Banzhaf et al. (paper §3 cites \[2\] for these):
/// subtree replacement, operator point-mutation, and constant perturbation.
pub fn mutate<R: Rng>(rng: &mut R, e: &Expr, fs: &FeatureSet, max_depth: usize) -> Expr {
    match rng.random_range(0..3u8) {
        0 => mutate_subtree(rng, e, fs, max_depth),
        1 => mutate_point(rng, e),
        _ => mutate_constants(rng, e),
    }
}

/// Replace a depth-fairly chosen node with a freshly grown subtree.
fn mutate_subtree<R: Rng>(rng: &mut R, e: &Expr, fs: &FeatureSet, max_depth: usize) -> Expr {
    let Some(ix) = pick_node_depth_fair(rng, e, None) else {
        return e.clone();
    };
    let kind = e.prims[ix].kind();
    for _ in 0..8 {
        let fresh = random_expr(rng, fs, kind, 1, 4);
        let child = e.splice(ix, &fresh.prims);
        if child.depth() <= max_depth {
            return child;
        }
    }
    e.clone()
}

/// Replace one depth-fairly chosen node: an operator by one with the same
/// sort and operand sorts (the other one of a pair, a uniform draw from a
/// larger group), a real constant by a perturbed one, and a Boolean
/// constant by its negation. Feature terminals and operators without a
/// partner stay as they are.
fn mutate_point<R: Rng>(rng: &mut R, e: &Expr) -> Expr {
    let Some(ix) = pick_node_depth_fair(rng, e, None) else {
        return e.clone();
    };
    let node = e.prims[ix];
    let swapped = match node {
        Prim::RConst(k) => Prim::RConst(perturb(rng, k)),
        Prim::BConst(k) => Prim::BConst(!k),
        op => {
            let group: Vec<Prim> = Prim::operators(op.kind())
                .iter()
                .copied()
                .filter(|other| other.args() == op.args())
                .collect();
            match group.len() {
                2 => group[usize::from(group[0] == op)],
                n if n > 2 => group[usize::from(rng.random_range(0..n as u8))],
                _ => op,
            }
        }
    };
    let mut prims = e.prims.clone();
    prims[ix] = swapped;
    Expr { prims }
}

fn perturb<R: Rng>(rng: &mut R, k: f64) -> f64 {
    let scale = 1.0 + (rng.random::<f64>() - 0.5) * 0.4;
    let shifted = k * scale + (rng.random::<f64>() - 0.5) * 0.2;
    if shifted.is_finite() {
        shifted
    } else {
        random_const(rng)
    }
}

/// Jitter every real constant in the tree (Gaussian-ish scale + shift),
/// in preorder.
fn mutate_constants<R: Rng>(rng: &mut R, e: &Expr) -> Expr {
    let prims = e
        .prims
        .iter()
        .map(|&p| match p {
            Prim::RConst(k) => Prim::RConst(perturb(rng, k)),
            other => other,
        })
        .collect();
    Expr { prims }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::subtree;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fs() -> FeatureSet {
        let mut f = FeatureSet::new();
        f.add_real("x");
        f.add_bool("p");
        f
    }

    fn sample(rng: &mut StdRng, fs: &FeatureSet) -> Expr {
        random_expr(rng, fs, Kind::Real, 3, 6)
    }

    #[test]
    fn crossover_preserves_sort_and_depth_bound() {
        let fs = fs();
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..100 {
            let a = sample(&mut rng, &fs);
            let b = sample(&mut rng, &fs);
            let c = crossover(&mut rng, &a, &b, 10);
            assert_eq!(c.kind(), Kind::Real);
            assert!(c.depth() <= 10);
        }
    }

    #[test]
    fn crossover_usually_changes_the_tree() {
        let fs = fs();
        let mut rng = StdRng::seed_from_u64(5);
        let mut changed = 0;
        for _ in 0..100 {
            let a = sample(&mut rng, &fs);
            let b = sample(&mut rng, &fs);
            if crossover(&mut rng, &a, &b, 12) != a {
                changed += 1;
            }
        }
        assert!(changed > 60, "changed {changed}/100");
    }

    #[test]
    fn depth_fair_picks_internal_nodes_often() {
        // A comb-shaped tree where leaves vastly outnumber levels: naive
        // uniform picking hits leaves >50% of the time; depth-fair must not.
        let fs = fs();
        let mut rng = StdRng::seed_from_u64(2);
        let e = random_expr(&mut rng, &fs, Kind::Real, 6, 6);
        let info = node_info(&e);
        let mut internal_hits = 0;
        let trials = 500;
        for _ in 0..trials {
            let ix = pick_node_depth_fair(&mut rng, &e, None).unwrap();
            let is_leaf = subtree(&e, ix).unwrap().size() == 1;
            if !is_leaf {
                internal_hits += 1;
            }
        }
        let leaf_frac = info
            .iter()
            .enumerate()
            .filter(|(i, _)| subtree(&e, *i).unwrap().size() == 1)
            .count() as f64
            / info.len() as f64;
        // Depth-fair should select internal nodes more often than their
        // population share would suggest.
        assert!(
            internal_hits as f64 / trials as f64 > (1.0 - leaf_frac),
            "internal {internal_hits}/{trials}, leaf fraction {leaf_frac}"
        );
    }

    #[test]
    fn mutation_preserves_sort_and_totality() {
        let fs = fs();
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..200 {
            let a = sample(&mut rng, &fs);
            let m = mutate(&mut rng, &a, &fs, 12);
            assert_eq!(m.kind(), Kind::Real);
            assert!(m.depth() <= 12);
            let v = m.eval_real(&crate::expr::Env {
                reals: &[2.0],
                bools: &[true],
            });
            assert!(v.is_finite());
        }
    }

    #[test]
    fn constant_mutation_only_touches_constants() {
        let fs = fs();
        let mut rng = StdRng::seed_from_u64(1);
        let e = crate::parse::parse_expr("(add x (mul 2.0 x))", &fs).unwrap();
        let m = mutate_constants(&mut rng, &e);
        // Structure identical; the constant may differ.
        assert_eq!(m.size(), e.size());
        assert_eq!(m.depth(), e.depth());
        let stripped = |x: &Expr| {
            x.to_string()
                .replace(|c: char| c.is_ascii_digit() || c == '.' || c == '-', "")
        };
        assert_eq!(stripped(&m), stripped(&e));
    }

    #[test]
    fn bool_genomes_supported() {
        let fs = fs();
        let mut rng = StdRng::seed_from_u64(77);
        let a = random_expr(&mut rng, &fs, Kind::Bool, 3, 5);
        let b = random_expr(&mut rng, &fs, Kind::Bool, 3, 5);
        let c = crossover(&mut rng, &a, &b, 10);
        assert_eq!(c.kind(), Kind::Bool);
        let m = mutate(&mut rng, &c, &fs, 10);
        assert_eq!(m.kind(), Kind::Bool);
    }
}
