#![warn(missing_docs)]
//! # metaopt
//!
//! **Meta Optimization** (Stephenson, Amarasinghe, Martin, O'Reilly —
//! PLDI 2003): automatically improving compiler heuristics with genetic
//! programming.
//!
//! Many compiler heuristics hinge on a single **priority function** — an
//! arithmetic scoring function over program features. This crate wraps the
//! GP engine from `metaopt-gp` around the compile-and-simulate loop
//! (`metaopt-compiler` + `metaopt-sim` over the `metaopt-suite` benchmarks)
//! to *search the space of priority functions directly*, using end-to-end
//! execution time as fitness, exactly as the paper describes (Fig. 2).
//!
//! Three case studies are provided, matching the paper's:
//!
//! * [`StudyKind::Hyperblock`] — if-conversion path selection (paper §5),
//! * [`StudyKind::Regalloc`] — priority-based coloring spill choice (§6),
//! * [`StudyKind::Prefetch`] — Boolean prefetch confidence (§7).
//!
//! Two modes of operation:
//!
//! * [`experiment::specialize`] — evolve an application-specific priority
//!   function (an advanced form of feedback-directed optimization),
//! * [`experiment::train_general`] — evolve one general-purpose function
//!   over a training suite with dynamic subset selection, then
//!   [`experiment::cross_validate`] it on unrelated benchmarks.
//!
//! Every fitness evaluation differentially checks the compiled program's
//! result against the reference interpreter, so arbitrary evolved priority
//! functions can only change *performance*, never correctness.
//!
//! ```no_run
//! use metaopt::{study, experiment};
//! use metaopt_gp::GpParams;
//!
//! let cfg = study::hyperblock();
//! let bench = metaopt_suite::by_name("rawcaudio").unwrap();
//! let result = experiment::specialize(&cfg, &bench, &GpParams::quick());
//! println!("train speedup: {:.2}", result.train_speedup);
//! ```

pub mod experiment;
pub mod fault;
pub mod pipeline;
pub mod study;

pub use experiment::{CrossValidation, GeneralResult, RunControl, SpecializationResult};
pub use fault::{FaultInjector, FaultStage};
pub use pipeline::{EvalRequest, PrepareError, PreparedBench, StudyEvaluator};
pub use study::{StudyConfig, StudyKind};
