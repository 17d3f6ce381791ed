//! Centralized execution-budget constants.
//!
//! Every bound on dynamic work — interpreter steps, simulator instructions —
//! lives here so the budgets the GP evaluation loop relies on cannot drift
//! apart (the seed repository carried a 500 M interpreter default, a 100 M
//! limit in the fitness pipeline, and a 20 M limit in the suite tests, with
//! no recorded relationship between them).
//!
//! # Rationale
//!
//! The ladder is anchored by [`KERNEL_STEP_CEILING`]: the benchmark suite's
//! own tests assert that every bundled kernel finishes in fewer interpreter
//! steps than this on both data sets, so the suite is the load-bearing proof
//! for every budget above it.
//!
//! * [`KERNEL_STEP_CEILING`] — 10 M: contract ceiling for bundled kernels
//!   (asserted by `metaopt-suite` tests; a kernel near it should be shrunk).
//! * [`KERNEL_VERIFY_MAX_STEPS`] — 20 M: 2× headroom over the ceiling, used
//!   wherever a *trusted* kernel is interpreted (suite self-tests, benchmark
//!   preparation, ground-truth runs). Exceeding it means the kernel or the
//!   interpreter regressed, not that the input was unlucky.
//! * [`EVAL_MAX_SIM_INSTS`] — 60 M: per-evaluation dynamic-instruction
//!   budget for simulating code compiled with a *genome-supplied* priority
//!   function. Evolved heuristics cannot change semantics (every pass is
//!   verified), but aggressive if-conversion can multiply nullified issue
//!   slots, so the budget is 6× the kernel ceiling; a genome that still
//!   exceeds it is quarantined with a budget fault instead of aborting the
//!   search.
//! * [`DEFAULT_MAX_STEPS`] — 500 M: generic backstop for *arbitrary*
//!   programs (REPL-style use, tests that build their own IR). Large enough
//!   to never interfere, small enough that an accidental infinite loop
//!   terminates. The interpreter's `RunConfig::default()` and the
//!   simulator's `MachineConfig` defaults both point here.
//!
//! Callers that want tighter bounds (unit tests of the step limiter itself)
//! still set explicit values; everything benchmark-shaped goes through these
//! constants.

/// Contract ceiling for bundled suite kernels: every benchmark must finish
/// under this many interpreter steps on both data sets (asserted by the
/// suite's tests).
pub const KERNEL_STEP_CEILING: u64 = 10_000_000;

/// Interpreter budget for trusted kernel runs: 2× [`KERNEL_STEP_CEILING`].
pub const KERNEL_VERIFY_MAX_STEPS: u64 = 2 * KERNEL_STEP_CEILING;

/// Per-evaluation simulator instruction budget for genome-compiled code:
/// 6× [`KERNEL_STEP_CEILING`] (predication can only multiply issue slots so
/// far; beyond this the genome is pathological and gets quarantined).
pub const EVAL_MAX_SIM_INSTS: u64 = 6 * KERNEL_STEP_CEILING;

/// Per-evaluation simulated-*cycle* budget for genome-compiled code: the
/// cooperative deadline the GP evaluation core relies on as its only hang
/// bound. The instruction budget caps how much *work* a simulation
/// retires, but a low-IPC schedule (serialized stalls, saturated memory
/// queues) can burn many cycles per instruction; 4× the instruction budget
/// covers every legitimate kernel with an order of magnitude to spare
/// (suite kernels finish in well under 100 M cycles) while still bounding
/// the pathological case deterministically — the simulator checks it every
/// bundle and returns a budget fault instead of relying on a wall clock.
pub const EVAL_MAX_SIM_CYCLES: u64 = 4 * EVAL_MAX_SIM_INSTS;

/// Generic backstop for arbitrary (non-suite) programs; the interpreter and
/// simulator defaults.
pub const DEFAULT_MAX_STEPS: u64 = 500_000_000;

// The ladder ordering is part of the contract; break the build, not a test
// run, if an edit reorders it.
const _: () = {
    assert!(KERNEL_STEP_CEILING < KERNEL_VERIFY_MAX_STEPS);
    assert!(KERNEL_VERIFY_MAX_STEPS < EVAL_MAX_SIM_INSTS);
    assert!(EVAL_MAX_SIM_INSTS < EVAL_MAX_SIM_CYCLES);
    assert!(EVAL_MAX_SIM_CYCLES < DEFAULT_MAX_STEPS);
};
