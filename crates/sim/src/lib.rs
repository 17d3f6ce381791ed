#![warn(missing_docs)]
//! # metaopt-sim
//!
//! A cycle-level simulator for a parameterized EPIC/VLIW architecture,
//! standing in for Trimaran's simulator in the *Meta Optimization*
//! (PLDI 2003) reproduction.
//!
//! The default [`MachineConfig::table3`] model matches the paper's Table 3:
//! 64 general-purpose, 64 floating-point, and 256 predicate registers; four
//! fully-pipelined integer units (multiply 3 cycles, divide 8); two
//! floating-point units (3 cycles, divide 8); two memory units (L1 hits take
//! 2 cycles, L2 hits 7 cycles, anything beyond 35 cycles; stores are
//! buffered, 1 cycle); one branch unit; and a 2-bit dynamic branch predictor
//! with a 5-cycle misprediction penalty.
//!
//! The simulator executes [`MachineProgram`]s — register-allocated,
//! scheduled machine code produced by `metaopt-compiler` — and is also a
//! functional executor: it computes the same program results as the
//! `metaopt-ir` reference interpreter, which the test suite exploits for
//! differential testing of every compiled configuration.
//!
//! Simulation is **tiered** ([`SimTier`]): the default fast tier pre-decodes
//! a program into compact linear bytecode ([`bytecode`]) and executes it
//! several times faster than the original cycle-level interpreter, which is
//! kept as the reference tier ([`SimTier::Reference`]). Both tiers are
//! bit-identical in every observable (cycles, memory traffic, statistics,
//! outputs), a contract enforced by a cross-tier differential test harness.
//!
//! The memory system models a two-level data cache with in-flight line fills,
//! so software prefetching has both its benefit (hiding miss latency) and its
//! costs (memory-unit issue slots, cache pollution) — the trade-off the
//! paper's third case study explores. An optional multiplicative noise model
//! (the `noise` argument of [`exec::simulate_traced`]) reproduces the "real
//! machine" measurement jitter of the paper's Itanium experiments.
//!
//! Three functions run a simulation: [`simulate`] on the default tier,
//! [`simulate_tier`] on an explicit one, and [`exec::simulate_traced`],
//! which adds noise and `sim` trace events.

pub mod bytecode;
pub mod cache;
pub mod code;
pub mod exec;
pub mod machine;
pub mod predictor;

pub use bytecode::BytecodeProgram;
pub use code::{Bundle, MachineProgram};
pub use exec::{simulate, simulate_tier, simulate_traced, SimError, SimResult, SimTier};
pub use machine::{CacheConfig, MachineConfig};
