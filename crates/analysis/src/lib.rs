#![warn(missing_docs)]
//! # metaopt-analysis
//!
//! Static analysis layer for the Meta Optimization reproduction: dataflow
//! analyses, structured [`diagnostics`], and the inter-pass invariant
//! [`checker`] the compiler driver runs between passes when IR checking is
//! enabled.
//!
//! The generic worklist solver itself lives in [`metaopt_ir::dataflow`]
//! (liveness in `metaopt-ir` is an instance of it and the IR crate cannot
//! depend on this one); this crate re-exports it and adds the
//! def-before-use instance ([`instances`]) the checker runs, plus
//! everything built on top of it.
//!
//! On top of the structural checker sit two semantic tiers (DESIGN.md §13):
//! [`absint`], an abstract interpreter over intervals and initialization
//! state that flags statically-provable faults in post-pass IR, and
//! [`validate`], per-pass translation validators that prove an optimization
//! pass preserved the meaning of its input where that is decidable.

pub mod absint;
pub mod checker;
pub mod diagnostics;
pub mod instances;
pub mod validate;

pub use absint::{analyze_function, AbsForm};
pub use checker::{
    check_function, check_machine_function, check_program, enforce, enforce_function,
    enforce_machine_function, CheckFailure,
};
pub use diagnostics::{first_error, render_json, render_lines, Diagnostic, Severity};
pub use instances::DefBeforeUse;
/// The generic worklist dataflow solver these analyses are instances of.
pub use metaopt_ir::dataflow;
pub use validate::{
    validate_hyperblock, validate_prefetch, validate_regalloc, validate_schedule, validate_unroll,
};
