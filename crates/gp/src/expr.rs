//! Strongly-typed GP genomes (paper Table 1).
//!
//! [`Prim`] is the one table of primitives. Each variant is one node form,
//! and the table states each form once: its sort ([`Prim::kind`]), its
//! operand sorts in order ([`Prim::args`]), its name ([`Prim::name`]) and
//! its meaning (the one evaluator, below). The real half is Table 1's
//! `add sub mul sqrt tern cmul rconst` and feature terminal plus a protected
//! `div` (needed to express the paper's own Fig. 8 winner, and standard GP
//! practice); the Boolean half is `and or not lt gt eq bconst barg`.
//!
//! A genome ([`Expr`]) is one array of primitives in preorder: every node
//! is followed by its operands, so node `i` is element `i` and a subtree is
//! the contiguous run its root starts. The generator, the parser, the
//! genetic operators, the lints and the simplifier find a node's operands
//! through the table's operand sorts instead of restating each primitive's
//! shape.
//!
//! Evaluation is **total**: division by ~zero yields 1, square roots take
//! `|x|`, and every leaf value and arithmetic result is clamped to a large
//! finite range, with NaN read as zero, so no NaN or infinity can propagate
//! into the compiler.

use crate::features::FeatureSet;
use std::fmt;

/// Node sort.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Kind {
    /// Real-valued node.
    Real,
    /// Boolean-valued node.
    Bool,
}

impl Kind {
    /// Lowercase name (`real` / `bool`), as messages print the sort.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Real => "real",
            Kind::Bool => "bool",
        }
    }
}

/// Feature bindings for one evaluation: values indexed by the
/// [`FeatureSet`] that the expression was built against.
#[derive(Clone, Copy, Debug)]
pub struct Env<'a> {
    /// Real-valued feature values.
    pub reals: &'a [f64],
    /// Boolean feature values.
    pub bools: &'a [bool],
}

/// One primitive of the paper's Table 1: a genome node.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Prim {
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a * b`
    Mul,
    /// Protected division: `a / b`, or `1` when `|b|` is tiny.
    Div,
    /// `sqrt(|a|)`
    Sqrt,
    /// `if c { a } else { b }`
    Tern,
    /// Conditional multiply: `if c { a * b } else { b }`
    Cmul,
    /// Real constant (`rconst`).
    RConst(f64),
    /// Real feature terminal (index into the feature set).
    RArg(u16),
    /// `a && b`
    And,
    /// `a || b`
    Or,
    /// `!a`
    Not,
    /// `a < b`
    Lt,
    /// `a > b`
    Gt,
    /// `a == b` (exact)
    Eq,
    /// Boolean constant (`bconst`).
    BConst(bool),
    /// Boolean feature terminal (`barg`).
    BArg(u16),
}

use Kind::{Bool as B, Real as R};
use Prim::*;

impl Prim {
    /// The operators (non-leaf primitives) of one sort, in the order the
    /// generator draws them.
    pub fn operators(kind: Kind) -> &'static [Prim] {
        match kind {
            Kind::Real => &[Add, Sub, Mul, Div, Sqrt, Tern, Cmul],
            Kind::Bool => &[And, Or, Not, Lt, Gt, Eq],
        }
    }

    /// The sort of the value this node produces.
    pub fn kind(self) -> Kind {
        match self {
            Add | Sub | Mul | Div | Sqrt | Tern | Cmul | RConst(_) | RArg(_) => Kind::Real,
            And | Or | Not | Lt | Gt | Eq | BConst(_) | BArg(_) => Kind::Bool,
        }
    }

    /// The sorts of this node's operands, in order; empty for a leaf.
    pub fn args(self) -> &'static [Kind] {
        match self {
            Add | Sub | Mul | Div | Lt | Gt | Eq => &[R, R],
            Sqrt => &[R],
            Tern | Cmul => &[B, R, R],
            And | Or => &[B, B],
            Not => &[B],
            RConst(_) | RArg(_) | BConst(_) | BArg(_) => &[],
        }
    }

    /// The primitive's Table 1 name, the head of its S-expression form.
    /// Feature terminals print as their feature's name, or positionally as
    /// `rN` / `bN`.
    pub fn name(self) -> &'static str {
        match self {
            Add => "add",
            Sub => "sub",
            Mul => "mul",
            Div => "div",
            Sqrt => "sqrt",
            Tern => "tern",
            Cmul => "cmul",
            RConst(_) => "rconst",
            RArg(_) => "rarg",
            And => "and",
            Or => "or",
            Not => "not",
            Lt => "lt",
            Gt => "gt",
            Eq => "eq",
            BConst(_) => "bconst",
            BArg(_) => "barg",
        }
    }
}

/// Clamp range keeping all arithmetic finite.
const LIMIT: f64 = 1e18;

#[inline]
fn sane(x: f64) -> f64 {
    if x.is_nan() {
        0.0
    } else {
        x.clamp(-LIMIT, LIMIT)
    }
}

/// A Boolean as the evaluator carries it.
#[inline]
fn truth(b: bool) -> f64 {
    if b {
        1.0
    } else {
        0.0
    }
}

/// Evaluate the subtree that starts at `at`: its value, and the index just
/// past it. Boolean nodes yield 1.0 (true) or 0.0 (false), and a value is
/// true iff it is positive. Only the taken arm of `tern`/`cmul` is
/// evaluated, and `and`/`or` short-circuit: evaluation jumps over the
/// skipped operand.
fn eval(p: &[Prim], at: usize, env: &Env<'_>) -> (f64, usize) {
    /// Evaluate two operands in order and combine them.
    fn two(p: &[Prim], at: usize, env: &Env<'_>, f: impl Fn(f64, f64) -> f64) -> (f64, usize) {
        let (a, at) = eval(p, at, env);
        let (b, at) = eval(p, at, env);
        (f(a, b), at)
    }
    let node = p[at];
    let at = at + 1;
    match node {
        Add => two(p, at, env, |a, b| sane(a + b)),
        Sub => two(p, at, env, |a, b| sane(a - b)),
        Mul => two(p, at, env, |a, b| sane(a * b)),
        Div => two(
            p,
            at,
            env,
            |a, d| if d.abs() < 1e-9 { 1.0 } else { sane(a / d) },
        ),
        Sqrt => {
            let (a, at) = eval(p, at, env);
            (sane(a.abs().sqrt()), at)
        }
        Tern => {
            let (c, at) = eval(p, at, env);
            if c > 0.0 {
                let (a, at) = eval(p, at, env);
                (a, end(p, at))
            } else {
                eval(p, end(p, at), env)
            }
        }
        Cmul => {
            let (c, at) = eval(p, at, env);
            if c > 0.0 {
                two(p, at, env, |a, b| sane(a * b))
            } else {
                eval(p, end(p, at), env)
            }
        }
        RConst(k) => (sane(k), at),
        RArg(i) => (
            sane(env.reals.get(usize::from(i)).copied().unwrap_or(0.0)),
            at,
        ),
        And => {
            let (a, at) = eval(p, at, env);
            if a > 0.0 {
                eval(p, at, env)
            } else {
                (0.0, end(p, at))
            }
        }
        Or => {
            let (a, at) = eval(p, at, env);
            if a > 0.0 {
                (1.0, end(p, at))
            } else {
                eval(p, at, env)
            }
        }
        Not => {
            let (a, at) = eval(p, at, env);
            (truth(a <= 0.0), at)
        }
        Lt => two(p, at, env, |a, b| truth(a < b)),
        Gt => two(p, at, env, |a, b| truth(a > b)),
        Eq => two(p, at, env, |a, b| truth(a == b)),
        BConst(k) => (truth(k), at),
        BArg(i) => (
            truth(env.bools.get(usize::from(i)).copied().unwrap_or(false)),
            at,
        ),
    }
}

/// One past the end of the subtree that starts at `at`.
pub(crate) fn end(p: &[Prim], mut at: usize) -> usize {
    let mut open = 1;
    while open > 0 {
        open = open - 1 + p[at].args().len();
        at += 1;
    }
    at
}

/// The operand subtrees of the node that starts `tree`, in order.
pub(crate) fn operands(tree: &[Prim]) -> impl Iterator<Item = &[Prim]> {
    let mut at = 1;
    tree[0].args().iter().map(move |_| {
        let start = at;
        at = end(tree, start);
        &tree[start..at]
    })
}

/// The value a feature-free subtree always evaluates to (a Boolean as 1.0
/// or 0.0), or `None` when the subtree reads a feature. Lint's and the
/// simplifier's constant folds both go through the evaluator here.
pub(crate) fn fold(tree: &[Prim]) -> Option<f64> {
    let reads = tree.iter().any(|p| matches!(p, RArg(_) | BArg(_)));
    let none = Env {
        reals: &[],
        bools: &[],
    };
    (!reads).then(|| eval(tree, 0, &none).0)
}

/// A genome: a typed expression tree of either sort. Hyperblock formation
/// and register allocation evolve `Real` genomes; data prefetching evolves
/// `Bool` genomes (paper §7.1).
#[derive(Clone, PartialEq, Debug)]
pub struct Expr {
    /// The nodes in preorder. Always exactly one tree, and every operand
    /// has the sort its parent's [`Prim::args`] names: the parser, the
    /// generator and the genetic operators only ever build such arrays.
    pub(crate) prims: Vec<Prim>,
}

impl Expr {
    /// The genome's sort.
    pub fn kind(&self) -> Kind {
        self.prims[0].kind()
    }

    /// Evaluate a real genome (a Boolean genome yields 1.0/0.0).
    pub fn eval_real(&self, env: &Env<'_>) -> f64 {
        eval(&self.prims, 0, env).0
    }

    /// Evaluate a Boolean genome (a real genome is true iff positive).
    pub fn eval_bool(&self, env: &Env<'_>) -> bool {
        self.eval_real(env) > 0.0
    }

    /// Number of nodes.
    pub fn size(&self) -> usize {
        self.prims.len()
    }

    /// Tree height (a leaf has depth 1).
    pub fn depth(&self) -> usize {
        fn depth(p: &[Prim], at: &mut usize) -> usize {
            let node = p[*at];
            *at += 1;
            1 + node.args().iter().map(|_| depth(p, at)).max().unwrap_or(0)
        }
        depth(&self.prims, &mut 0)
    }

    /// Canonical string key (stable across runs) used for fitness
    /// memoization, quarantine ledgers, and checkpoint serialization.
    ///
    /// Unlike [`Display`](fmt::Display) (which rounds real constants to four
    /// decimals for readability), the key prints constants with full
    /// round-trip precision, so two genomes share a key **iff** they are the
    /// same tree, and `crate::parse::parse_expr` reconstructs the exact
    /// genome from it.
    pub fn key(&self) -> String {
        let mut out = String::with_capacity(self.size() * 8);
        let _ = print(&self.prims, &mut 0, true, None, &mut out);
        out
    }

    /// The subtree rooted at node `ix`.
    pub(crate) fn node(&self, ix: usize) -> &[Prim] {
        &self.prims[ix..end(&self.prims, ix)]
    }

    /// This genome with the subtree at node `ix` replaced by `tree`, which
    /// has that node's sort.
    pub(crate) fn splice(&self, ix: usize, tree: &[Prim]) -> Expr {
        let rest = end(&self.prims, ix);
        let mut prims = Vec::with_capacity(self.size() - (rest - ix) + tree.len());
        prims.extend_from_slice(&self.prims[..ix]);
        prims.extend_from_slice(tree);
        prims.extend_from_slice(&self.prims[rest..]);
        Expr { prims }
    }
}

// ---- preorder node addressing (for crossover/mutation) ----

/// Kind and depth of every node in preorder; used by depth-fair crossover.
pub fn node_info(e: &Expr) -> Vec<(Kind, u16)> {
    fn walk(p: &[Prim], at: &mut usize, d: u16, out: &mut Vec<(Kind, u16)>) {
        let node = p[*at];
        *at += 1;
        out.push((node.kind(), d));
        for _ in node.args() {
            walk(p, at, d + 1, out);
        }
    }
    let mut out = Vec::with_capacity(e.size());
    walk(&e.prims, &mut 0, 0, &mut out);
    out
}

/// Clone the subtree rooted at preorder index `ix`.
pub fn subtree(e: &Expr, ix: usize) -> Option<Expr> {
    (ix < e.size()).then(|| Expr {
        prims: e.node(ix).to_vec(),
    })
}

/// Rebuild `e` with the subtree at preorder index `ix` replaced by `new`.
/// Returns `None` if `ix` is out of range or the sorts do not match.
pub fn with_replaced(e: &Expr, ix: usize, new: &Expr) -> Option<Expr> {
    (e.prims.get(ix)?.kind() == new.kind()).then(|| e.splice(ix, &new.prims))
}

// ---- printing (Table 1 S-expression syntax) ----

/// Print the subtree that starts at `*at`, leaving `*at` just past it.
/// `exact` prints real constants with full round-trip precision (the key,
/// lossless through `crate::parse::parse_expr`, as checkpoint/resume
/// requires) instead of four decimals (the human-facing display); `names`
/// prints feature names instead of the positional `rN` / `bN`.
fn print(
    p: &[Prim],
    at: &mut usize,
    exact: bool,
    names: Option<&FeatureSet>,
    out: &mut impl fmt::Write,
) -> fmt::Result {
    let node = p[*at];
    *at += 1;
    match node {
        RConst(k) if exact => write!(out, "(rconst {k})"),
        RConst(k) => write!(out, "(rconst {k:.4})"),
        BConst(k) => write!(out, "(bconst {k})"),
        RArg(i) => match names.and_then(|fs| fs.real_name(usize::from(i))) {
            Some(name) => out.write_str(name),
            None => write!(out, "r{i}"),
        },
        BArg(i) => match names.and_then(|fs| fs.bool_name(usize::from(i))) {
            Some(name) => out.write_str(name),
            None => write!(out, "b{i}"),
        },
        op => {
            write!(out, "({}", op.name())?;
            for _ in op.args() {
                out.write_char(' ')?;
                print(p, at, exact, names, out)?;
            }
            out.write_char(')')
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        print(&self.prims, &mut 0, false, None, f)
    }
}

/// Pretty-print an expression with feature *names* substituted for indices
/// (used to report evolved priority functions, as in the paper's Fig. 8).
pub fn display_named(e: &Expr, fs: &FeatureSet) -> String {
    let mut out = String::new();
    let _ = print(&e.prims, &mut 0, false, Some(fs), &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_expr;

    fn env<'a>(reals: &'a [f64], bools: &'a [bool]) -> Env<'a> {
        Env { reals, bools }
    }

    fn fs() -> FeatureSet {
        let mut fs = FeatureSet::new();
        fs.add_real("x");
        fs.add_real("y");
        fs.add_bool("p");
        fs
    }

    fn expr(src: &str) -> Expr {
        parse_expr(src, &fs()).unwrap()
    }

    #[test]
    fn arithmetic_eval() {
        let e = expr("(add (mul x 2.0) 1.0)");
        assert_eq!(e.eval_real(&env(&[3.0], &[])), 7.0);
    }

    #[test]
    fn protected_division() {
        let e = expr("(div 5.0 0.0)");
        assert_eq!(e.eval_real(&env(&[], &[])), 1.0);
    }

    #[test]
    fn sqrt_of_negative_is_total() {
        let e = expr("(sqrt -4.0)");
        assert_eq!(e.eval_real(&env(&[], &[])), 2.0);
    }

    #[test]
    fn overflow_is_clamped() {
        let mut src = "(rconst 1e300)".to_string();
        for _ in 0..4 {
            src = format!("(mul {src} {src})");
        }
        let v = expr(&src).eval_real(&env(&[], &[]));
        assert!(v.is_finite());
    }

    #[test]
    fn cmul_semantics() {
        // (cmul c a b): c ? a*b : b  — the paper's conditional multiply.
        let mk = |c| expr(&format!("(cmul (bconst {c}) 3.0 4.0)"));
        assert_eq!(mk(true).eval_real(&env(&[], &[])), 12.0);
        assert_eq!(mk(false).eval_real(&env(&[], &[])), 4.0);
    }

    #[test]
    fn bool_ops() {
        let e = expr("(and (not (barg p)) (lt x 1.0))");
        assert!(e.eval_bool(&env(&[0.5], &[false])));
        assert!(!e.eval_bool(&env(&[0.5], &[true])));
        assert!(!e.eval_bool(&env(&[2.0], &[false])));
    }

    #[test]
    fn missing_feature_defaults() {
        assert_eq!(expr("r9").eval_real(&env(&[], &[])), 0.0);
        assert!(!expr("b9").eval_bool(&env(&[], &[])));
    }

    #[test]
    fn size_and_depth() {
        let e = expr("(tern (bconst true) 1.0 (add 2.0 3.0))");
        assert_eq!(e.size(), 6);
        assert_eq!(e.depth(), 3);
    }

    #[test]
    fn node_addressing_round_trips() {
        let e = expr("(cmul (not (barg p)) y 0.25)");
        let info = node_info(&e);
        assert_eq!(info.len(), e.size());
        assert_eq!(info[0], (Kind::Real, 0));
        assert_eq!(info[1], (Kind::Bool, 1));
        assert_eq!(info[2], (Kind::Bool, 2));
        // Every node is extractable and self-replacement is identity.
        for (ix, ni) in info.iter().enumerate() {
            let sub = subtree(&e, ix).expect("in range");
            assert_eq!(sub.kind(), ni.0);
            let back = with_replaced(&e, ix, &sub).expect("kinds match");
            assert_eq!(back, e);
        }
        assert!(subtree(&e, info.len()).is_none());
    }

    #[test]
    fn replacement_changes_subtree() {
        let e = expr("(add 1.0 2.0)");
        let r = with_replaced(&e, 2, &expr("9.0")).unwrap();
        assert_eq!(r.eval_real(&env(&[], &[])), 10.0);
        // Kind mismatch rejected.
        assert!(with_replaced(&e, 1, &expr("(bconst true)")).is_none());
    }

    #[test]
    fn replacement_of_the_other_sort_is_refused() {
        let mut fs = FeatureSet::new();
        fs.add_real("alpha");
        fs.add_real("beta");
        let e = parse_expr("(or (lt 1.0 alpha) (gt beta beta))", &fs).unwrap();
        let donor = expr("(bconst true)");
        for ix in [2, 3, 5, 6] {
            assert_eq!(with_replaced(&e, ix, &donor), None, "node {ix}");
        }
        assert!(with_replaced(&e, 4, &donor).is_some());
    }

    #[test]
    fn display_round_trip_syntax() {
        let e = expr("(cmul (bconst true) x (rconst 0.5))");
        assert_eq!(e.to_string(), "(cmul (bconst true) r0 (rconst 0.5000))");
        assert_eq!(e.key(), "(cmul (bconst true) r0 (rconst 0.5))");
    }

    #[test]
    fn key_preserves_full_constant_precision() {
        // Display rounds constants for readability; key() must not — a
        // checkpointed population parses back to the exact same genomes.
        let k = 0.123456789012345_f64;
        let e = expr(&format!("(add (rconst {k}) x)"));
        let parsed = parse_expr(&e.key(), &fs()).unwrap();
        match parsed.prims[..] {
            [Add, RConst(v), RArg(0)] => assert_eq!(v.to_bits(), k.to_bits()),
            ref other => panic!("unexpected parse {other:?}"),
        }
        assert_eq!(parsed.key(), e.key());
        // The pretty form really is rounded (distinct trees may share it).
        assert_eq!(e.to_string(), "(add (rconst 0.1235) r0)");
    }

    #[test]
    fn display_named_substitutes() {
        let mut fs = FeatureSet::new();
        fs.add_real("exec_ratio");
        fs.add_bool("mem_hazard");
        let e = parse_expr("(cmul (barg mem_hazard) exec_ratio (rconst 1.0))", &fs).unwrap();
        let s = display_named(&e, &fs);
        assert!(s.contains("exec_ratio"), "{s}");
        assert!(s.contains("mem_hazard"), "{s}");
    }
}
