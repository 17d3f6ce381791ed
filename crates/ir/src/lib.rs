#![warn(missing_docs)]
//! # metaopt-ir
//!
//! A small, executable compiler intermediate representation (IR) used as the
//! substrate for the *Meta Optimization* (PLDI 2003) reproduction.
//!
//! The IR is a load/store virtual-register machine with three register
//! classes (integer, floating point, predicate), explicit control transfer
//! instructions, and full support for **predicated execution**: every
//! instruction carries an optional guard predicate, which is what the
//! hyperblock-formation case study manipulates.
//!
//! The crate provides:
//!
//! * the IR data structures ([`Program`], [`Function`], [`Block`], [`Inst`],
//!   [`Opcode`]) and a [`builder`] for constructing them,
//! * structural verification ([`verify`]),
//! * classic CFG analyses over one flat [`cfg::Cfg`] (successors,
//!   predecessors, reverse postorder): [`dom`]inators, natural [`loops`] and
//!   [`liveness`] — the latter an instance of the generic worklist
//!   [`dataflow`] solver, whose per-block facts are rows of one
//!   [`util::BitMatrix`],
//! * a reference [`interp`]reter that both executes programs and collects the
//!   execution [`profile`]s (block counts, edge counts, branch-predictability
//!   statistics) that the paper's priority functions consume.
//!
//! The interpreter is the semantic ground truth: the optimizing compiler in
//! `metaopt-compiler` and the cycle simulator in `metaopt-sim` are
//! differentially tested against it on every benchmark and every priority
//! function the genetic search explores.
//!
//! ```
//! use metaopt_ir::builder::FunctionBuilder;
//! use metaopt_ir::Program;
//!
//! // Build `fn main() -> i64 { return 2 + 40; }` and run it.
//! let mut fb = FunctionBuilder::new("main");
//! let a = fb.movi(2);
//! let b = fb.movi(40);
//! let c = fb.add(a, b);
//! fb.ret(Some(c));
//! let func = fb.finish();
//! let mut prog = Program::new();
//! prog.add_function(func);
//!
//! let outcome = metaopt_ir::interp::run(&prog, &Default::default()).unwrap();
//! assert_eq!(outcome.ret, 42);
//! ```

pub mod budget;
pub mod builder;
pub mod cfg;
pub mod dataflow;
pub mod dom;
pub mod inst;
pub mod interp;
pub mod liveness;
pub mod loops;
pub mod profile;
pub mod program;
pub mod types;
pub mod util;
pub mod verify;

pub use inst::{Inst, Opcode, Width};
pub use program::{Block, Function, GlobalData, GlobalInit, Program};
pub use types::{BlockId, FuncId, RegClass, VReg};
