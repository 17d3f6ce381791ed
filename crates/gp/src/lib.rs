#![warn(missing_docs)]
//! # metaopt-gp
//!
//! A strongly-typed genetic-programming engine specialized for evolving
//! compiler **priority functions**, reproducing §3 of *Meta Optimization:
//! Improving Compiler Heuristics with Machine Learning* (PLDI 2003).
//!
//! Genomes are parse trees over exactly the primitives of the paper's
//! Table 1 — real-valued (`add sub mul div sqrt tern cmul rconst`) and
//! Boolean-valued (`and or not lt gt eq bconst barg`) functions plus named
//! feature terminals supplied by the compiler writer. One table, [`Prim`],
//! states each primitive's sort, operand sorts, name and meaning, and a
//! genome is one flat array of them in preorder ([`expr`]). The engine implements
//! the paper's Table 2 search: tournament selection of size 7 with parsimony
//! tie-breaking, depth-fair crossover (Kessler–Haynes), Banzhaf-style
//! mutation of ~5 % of offspring, 22 % generational replacement, elitism of
//! one, and memoized fitness evaluation, with Gathercole's **dynamic subset
//! selection** for multi-benchmark training.
//!
//! ```
//! use metaopt_gp::expr::Env;
//! use metaopt_gp::features::FeatureSet;
//! use metaopt_gp::parse::parse_expr;
//!
//! let mut fs = FeatureSet::new();
//! fs.add_real("exec_ratio");
//! fs.add_bool("mem_hazard");
//! let e = parse_expr("(cmul (not mem_hazard) (mul exec_ratio 2.0) 0.25)", &fs)?;
//! let v = e.eval_real(&Env { reals: &[0.5], bools: &[false] });
//! assert!((v - 0.25).abs() < 1e-12);
//! # Ok::<(), metaopt_gp::parse::ParseError>(())
//! ```

pub mod checkpoint;
pub mod coevo;
pub mod dss;
pub mod engine;
pub mod eval;
mod evaluate;
pub mod expr;
pub mod features;
pub mod gen;
pub mod lint;
pub mod ops;
pub mod pareto;
pub mod parse;
pub mod simplify;
pub mod store;

pub use checkpoint::{Checkpoint, CheckpointError};
pub use coevo::{CoEvolution, MultiEvaluator, PlanGenome, PlanSpace};
pub use engine::{Evaluator, Evolution, EvolutionResult, GenLog, GpParams, PENALTY_FITNESS};
pub use eval::{EvalError, EvalErrorKind, EvalOutcome, QuarantineRecord};
pub use expr::{Env, Expr, Kind, Prim};
pub use features::FeatureSet;
pub use lint::{Lint, LintLevel};
pub use store::{FitnessStore, StoreHealth};
