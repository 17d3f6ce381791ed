//! Static analysis over GP genomes.
//!
//! The evaluator in [`expr`](crate::expr) is *total* — protected division,
//! NaN-to-zero clamping — so a malformed genome never crashes; it silently
//! computes something other than what its tree says. These lints surface
//! that class of genome before it costs a compile-and-simulate fitness
//! evaluation ([`reject`]) and annotate evolved winners for the compiler
//! writer ([`lint`]).
//!
//! The rules run in one pass over the genome's preorder array, so findings
//! come in node order. A feature-free subtree is folded by evaluating it,
//! the same fold [`simplify`](crate::simplify) applies.
//!
//! Error-level rules (a genome with any of these is rejected):
//!
//! * `kind-mismatch` — the genome's sort differs from the study's;
//! * `unknown-feature` — a feature terminal indexes past the feature set,
//!   so it silently evaluates to `0.0`/`false`;
//! * `non-finite-constant` — a NaN/∞ constant, which the evaluator
//!   clamps into unrelated values (NaN to 0, ±∞ to ±1e18);
//! * `certain-zero-division` — a denominator that is provably zero, so the
//!   protected division *always* takes its fallback of `1`.
//!
//! Warning-level rules (suspicious but evaluable): `possibly-zero-denominator`,
//! `dead-branch`, `constant-subtree`. Info-level: `unused-feature`.

use crate::expr::{end, fold, operands, Expr, Kind, Prim};
use crate::features::FeatureSet;
use std::fmt;

/// Lint severity.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum LintLevel {
    /// Observation for the compiler writer; never affects fitness.
    Info,
    /// Suspicious construction that still evaluates meaningfully.
    Warning,
    /// Malformed genome: [`reject`] refuses it.
    Error,
}

impl LintLevel {
    /// Lowercase label (`info` / `warning` / `error`).
    pub fn label(self) -> &'static str {
        match self {
            LintLevel::Info => "info",
            LintLevel::Warning => "warning",
            LintLevel::Error => "error",
        }
    }
}

/// One finding.
#[derive(Clone, Debug)]
pub struct Lint {
    /// Severity.
    pub level: LintLevel,
    /// Stable rule identifier (e.g. `kind-mismatch`).
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.level.label(), self.rule, self.message)
    }
}

/// Run every lint over `genome` as a candidate for a study expecting
/// `expected`-sorted genomes over `features`. Findings come in discovery
/// order (errors are not guaranteed first).
pub fn lint(genome: &Expr, expected: Kind, features: &FeatureSet) -> Vec<Lint> {
    let mut lints = Vec::new();
    let mut push = |level, rule, message| {
        lints.push(Lint {
            level,
            rule,
            message,
        })
    };
    if genome.kind() != expected {
        push(
            LintLevel::Error,
            "kind-mismatch",
            format!(
                "genome is {:?}-sorted but the study evolves {:?}-sorted priority functions \
                 (evaluation would coerce the result)",
                genome.kind(),
                expected
            ),
        );
    }
    let mut used_reals = vec![false; features.num_reals()];
    let mut used_bools = vec![false; features.num_bools()];
    let prims = &genome.prims;
    // Nodes before this index lie inside a subtree already reported as
    // constant, so only the maximal foldable subtree is flagged.
    let mut in_const_until = 0;
    for (i, &node) in prims.iter().enumerate() {
        let tree = &prims[i..end(prims, i)];
        if i >= in_const_until && tree.len() > 1 {
            if let Some(v) = fold(tree) {
                let kind = node.kind();
                push(
                    LintLevel::Warning,
                    "constant-subtree",
                    format!(
                        "{}-node {} subtree reads no features and always evaluates to {}",
                        tree.len(),
                        kind.name(),
                        shown(kind, v)
                    ),
                );
                in_const_until = i + tree.len();
            }
        }
        let args: Vec<&[Prim]> = operands(tree).collect();
        match (node, &args[..]) {
            (Prim::Div, [_, den]) => {
                if cancels(den) {
                    push(
                        LintLevel::Error,
                        "certain-zero-division",
                        "denominator subtracts a subtree from itself: always zero, so the \
                         protected division always yields its fallback of 1"
                            .to_string(),
                    );
                } else if let Some(v) = fold(den) {
                    if v.abs() < 1e-9 {
                        push(
                            LintLevel::Error,
                            "certain-zero-division",
                            format!(
                                "denominator is the constant {v}: the protected division \
                                 always yields its fallback of 1"
                            ),
                        );
                    }
                } else if possibly_zero(den) {
                    push(
                        LintLevel::Warning,
                        "possibly-zero-denominator",
                        "denominator can plausibly reach zero; the protected division \
                         silently yields 1 there"
                            .to_string(),
                    );
                }
            }
            (Prim::Tern | Prim::Cmul, [cond, ..]) => {
                if let Some(v) = fold(cond) {
                    let cv = v > 0.0;
                    let dead = if cv { "else" } else { "then" };
                    push(
                        LintLevel::Warning,
                        "dead-branch",
                        format!("condition is constantly {cv}: the {dead} branch is dead code"),
                    );
                }
            }
            (Prim::RConst(k), _) if !k.is_finite() => push(
                LintLevel::Error,
                "non-finite-constant",
                format!(
                    "real constant {k} is not finite; the evaluator clamps it into \
                     unrelated values"
                ),
            ),
            (Prim::RArg(i) | Prim::BArg(i), _) => {
                let (used, fallback) = match node.kind() {
                    Kind::Real => (&mut used_reals, "0.0"),
                    Kind::Bool => (&mut used_bools, "false"),
                };
                let count = used.len();
                match used.get_mut(usize::from(i)) {
                    Some(u) => *u = true,
                    None => push(
                        LintLevel::Error,
                        "unknown-feature",
                        format!(
                            "{} feature index {i} is out of range (feature set has {count}); \
                             it silently evaluates to {fallback}",
                            node.kind().name()
                        ),
                    ),
                }
            }
            _ => {}
        }
    }
    for (kind, used, names) in [
        (Kind::Real, &used_reals, features.real_names()),
        (Kind::Bool, &used_bools, features.bool_names()),
    ] {
        for (name, _) in names.iter().zip(used).filter(|(_, used)| !**used) {
            push(
                LintLevel::Info,
                "unused-feature",
                format!("{} feature '{name}' is never read", kind.name()),
            );
        }
    }
    lints
}

/// [`lint`], failing when any error-level finding exists. The GP engine
/// calls this before spending a fitness evaluation on a genome.
///
/// # Errors
/// Returns every finding (all severities) when at least one is an error.
pub fn reject(genome: &Expr, expected: Kind, features: &FeatureSet) -> Result<(), Vec<Lint>> {
    let lints = lint(genome, expected, features);
    if lints.iter().any(|l| l.level == LintLevel::Error) {
        Err(lints)
    } else {
        Ok(())
    }
}

/// A folded value as the lint messages print it.
fn shown(kind: Kind, v: f64) -> String {
    match kind {
        Kind::Real => v.to_string(),
        Kind::Bool => (v > 0.0).to_string(),
    }
}

/// Does the subtree subtract a subtree from itself?
fn cancels(tree: &[Prim]) -> bool {
    let mut sides = operands(tree);
    tree[0] == Prim::Sub && sides.next() == sides.next()
}

/// Can the real subtree evaluate to (near) zero? Syntactic witnesses only:
/// a near-zero constant or a subtraction (which can cancel). Used to flag
/// denominators where the protected-division fallback is plausibly live.
fn possibly_zero(tree: &[Prim]) -> bool {
    match tree[0] {
        Prim::RConst(k) => k.abs() < 1e-9,
        Prim::Sub => true,
        Prim::Div => false, // protected: yields 1 when the denominator dies
        Prim::Tern | Prim::Cmul => operands(tree).skip(1).any(possibly_zero),
        // add, mul and sqrt; a feature terminal has no operands.
        _ => operands(tree).any(possibly_zero),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_expr;

    fn fs() -> FeatureSet {
        let mut fs = FeatureSet::new();
        fs.add_real("x");
        fs.add_real("y");
        fs.add_bool("p");
        fs
    }

    fn errors(lints: &[Lint]) -> Vec<&'static str> {
        lints
            .iter()
            .filter(|l| l.level == LintLevel::Error)
            .map(|l| l.rule)
            .collect()
    }

    #[test]
    fn clean_genome_has_no_errors_or_warnings() {
        let f = fs();
        let e = parse_expr("(mul x (div y 2.0))", &f).unwrap();
        let lints = lint(&e, Kind::Real, &f);
        assert!(
            lints.iter().all(|l| l.level == LintLevel::Info),
            "{lints:?}"
        );
        assert!(reject(&e, Kind::Real, &f).is_ok());
    }

    #[test]
    fn kind_mismatch_is_rejected() {
        let f = fs();
        let e = parse_expr("(barg p)", &f).unwrap(); // Bool genome
        let lints = reject(&e, Kind::Real, &f).unwrap_err();
        assert_eq!(errors(&lints), ["kind-mismatch"]);
        assert!(reject(&e, Kind::Bool, &f).is_ok());
    }

    #[test]
    fn non_finite_constant_is_rejected() {
        let f = fs();
        let e = parse_expr("(add x NaN)", &f).unwrap();
        let lints = reject(&e, Kind::Real, &f).unwrap_err();
        assert_eq!(errors(&lints), ["non-finite-constant"]);
    }

    #[test]
    fn out_of_range_feature_is_rejected() {
        let f = fs();
        let e = parse_expr("r7", &f).unwrap();
        let lints = reject(&e, Kind::Real, &f).unwrap_err();
        assert_eq!(errors(&lints), ["unknown-feature"]);
        let b = parse_expr("b9", &f).unwrap();
        assert!(reject(&b, Kind::Bool, &f).is_err());
    }

    #[test]
    fn certain_zero_division_is_rejected() {
        let f = fs();
        let by_const = parse_expr("(div x 0.0)", &f).unwrap();
        assert_eq!(
            errors(&reject(&by_const, Kind::Real, &f).unwrap_err()),
            ["certain-zero-division"]
        );
        let by_cancel = parse_expr("(div x (sub y y))", &f).unwrap();
        assert_eq!(
            errors(&reject(&by_cancel, Kind::Real, &f).unwrap_err()),
            ["certain-zero-division"]
        );
    }

    #[test]
    fn possibly_zero_denominator_warns() {
        let f = fs();
        let e = parse_expr("(div x (sub x y))", &f).unwrap();
        let lints = lint(&e, Kind::Real, &f);
        assert!(
            lints
                .iter()
                .any(|l| l.rule == "possibly-zero-denominator" && l.level == LintLevel::Warning),
            "{lints:?}"
        );
        assert!(reject(&e, Kind::Real, &f).is_ok(), "warnings never reject");
    }

    #[test]
    fn dead_branch_under_constant_condition_warns() {
        let f = fs();
        let e = parse_expr("(tern (bconst true) x y)", &f).unwrap();
        let lints = lint(&e, Kind::Real, &f);
        assert!(lints.iter().any(|l| l.rule == "dead-branch"), "{lints:?}");
    }

    #[test]
    fn maximal_constant_subtree_warns_once() {
        let f = fs();
        let e = parse_expr("(add x (mul 2.0 (add 1.0 3.0)))", &f).unwrap();
        let hits: Vec<_> = lint(&e, Kind::Real, &f)
            .into_iter()
            .filter(|l| l.rule == "constant-subtree")
            .collect();
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].message.contains("8"), "{}", hits[0].message);
    }

    #[test]
    fn unused_features_are_reported_as_info() {
        let f = fs();
        let e = parse_expr("(mul x x)", &f).unwrap();
        let infos: Vec<_> = lint(&e, Kind::Real, &f)
            .into_iter()
            .filter(|l| l.rule == "unused-feature")
            .collect();
        assert_eq!(infos.len(), 2, "{infos:?}"); // y and p
        assert!(infos.iter().all(|l| l.level == LintLevel::Info));
    }

    #[test]
    fn renders_like_a_compiler_diagnostic() {
        let l = Lint {
            level: LintLevel::Error,
            rule: "kind-mismatch",
            message: "boom".into(),
        };
        assert_eq!(l.to_string(), "error[kind-mismatch]: boom");
    }
}
