//! Structured fitness-evaluation outcomes and the quarantine ledger.
//!
//! A GP search spends days evaluating thousands of `(genome, case)` pairs;
//! a single failed compile or runaway simulation must degrade to a penalty
//! fitness, never abort the run. This module defines the failure taxonomy
//! threaded from the compiler, interpreter, and simulator up into the
//! engine ([`EvalError`]), the evaluator's return channel ([`EvalOutcome`]),
//! and the per-failure diagnostics record the engine accumulates
//! ([`QuarantineRecord`]).

use std::fmt;

/// Classification of a failed fitness evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EvalErrorKind {
    /// The compiler rejected the program compiled under this genome
    /// (inlining, register allocation, or final machine-code verification).
    Compile,
    /// The inter-pass IR invariant checker flagged a broken invariant.
    IrCheck,
    /// Semantic validation (translation validators or abstract
    /// interpretation) proved a pass miscompiled under this genome.
    Validation,
    /// An interpreter step budget or simulator instruction/cycle budget was
    /// exhausted (probable pathological genome).
    Budget,
    /// The compiled program's result diverged from the interpreter's ground
    /// truth — a compiler bug exposed by this genome.
    WrongAnswer,
    /// The simulator faulted (out-of-bounds access, malformed machine code).
    Sim,
    /// The evaluator panicked; the panic was caught at the evaluation
    /// boundary and converted into this error.
    Panic,
    /// The evaluation exceeded an operational wall-clock deadline (an
    /// evaluator talking to a real host, or an injected timeout fault).
    /// Unlike [`EvalErrorKind::Budget`] — the *deterministic* cooperative
    /// deadline — a timeout reflects host-side conditions and is the one
    /// transient class: the engine retries it before quarantining.
    Timeout,
}

impl EvalErrorKind {
    /// Stable lowercase label (used in ledgers, checkpoints, and the CLI).
    pub fn label(self) -> &'static str {
        match self {
            EvalErrorKind::Compile => "compile",
            EvalErrorKind::IrCheck => "ir-check",
            EvalErrorKind::Validation => "validation",
            EvalErrorKind::Budget => "budget",
            EvalErrorKind::WrongAnswer => "wrong-answer",
            EvalErrorKind::Sim => "sim",
            EvalErrorKind::Panic => "panic",
            EvalErrorKind::Timeout => "timeout",
        }
    }

    /// Parse a [`EvalErrorKind::label`] back (checkpoint deserialization).
    pub fn from_label(s: &str) -> Option<Self> {
        Some(match s {
            "compile" => EvalErrorKind::Compile,
            "ir-check" => EvalErrorKind::IrCheck,
            "validation" => EvalErrorKind::Validation,
            "budget" => EvalErrorKind::Budget,
            "wrong-answer" => EvalErrorKind::WrongAnswer,
            "sim" => EvalErrorKind::Sim,
            "panic" => EvalErrorKind::Panic,
            "timeout" => EvalErrorKind::Timeout,
            _ => return None,
        })
    }

    /// All kinds, for summary tables.
    pub const ALL: [EvalErrorKind; 8] = [
        EvalErrorKind::Compile,
        EvalErrorKind::IrCheck,
        EvalErrorKind::Validation,
        EvalErrorKind::Budget,
        EvalErrorKind::WrongAnswer,
        EvalErrorKind::Sim,
        EvalErrorKind::Panic,
        EvalErrorKind::Timeout,
    ];

    /// True for failure classes worth retrying: the failure reflects
    /// transient host-side conditions rather than a deterministic property
    /// of the `(genome, case)` pair. Everything deterministic — compiles,
    /// validation, budgets, wrong answers, panics — quarantines immediately,
    /// because an identical retry would fail identically.
    pub fn is_transient(self) -> bool {
        matches!(self, EvalErrorKind::Timeout)
    }
}

/// A classified fitness-evaluation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EvalError {
    /// Failure class.
    pub kind: EvalErrorKind,
    /// Human-readable diagnostics (benchmark name, pass, addresses, …).
    pub message: String,
    /// True when the failure was forced by a deterministic fault injector
    /// rather than arising organically.
    pub injected: bool,
}

impl EvalError {
    /// A new (organic) evaluation error.
    pub fn new(kind: EvalErrorKind, message: impl Into<String>) -> Self {
        EvalError {
            kind,
            message: message.into(),
            injected: false,
        }
    }

    /// An error forced by a fault injector.
    pub fn injected(kind: EvalErrorKind, message: impl Into<String>) -> Self {
        EvalError {
            kind,
            message: message.into(),
            injected: true,
        }
    }

    /// Convert a caught panic payload into an [`EvalErrorKind::Panic`]
    /// error, extracting the panic message when it is a string.
    pub fn from_panic(payload: &(dyn std::any::Any + Send)) -> Self {
        let msg = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        EvalError::new(EvalErrorKind::Panic, msg)
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.injected {
            write!(
                f,
                "{} fault (injected): {}",
                self.kind.label(),
                self.message
            )
        } else {
            write!(f, "{} fault: {}", self.kind.label(), self.message)
        }
    }
}

impl std::error::Error for EvalError {}

/// Result of one `(genome, case)` fitness evaluation: a speedup score, or a
/// classified failure that quarantines the genome for this case.
#[derive(Clone, Debug, PartialEq)]
pub enum EvalOutcome {
    /// Successful evaluation (speedup over the baseline; 1.0 = parity).
    Score(f64),
    /// Classified failure; the engine assigns a penalty fitness.
    Failed(EvalError),
}

impl EvalOutcome {
    /// The score, if the evaluation succeeded.
    pub fn score(&self) -> Option<f64> {
        match self {
            EvalOutcome::Score(s) => Some(*s),
            EvalOutcome::Failed(_) => None,
        }
    }
}

impl From<Result<f64, EvalError>> for EvalOutcome {
    fn from(r: Result<f64, EvalError>) -> Self {
        match r {
            Ok(s) => EvalOutcome::Score(s),
            Err(e) => EvalOutcome::Failed(e),
        }
    }
}

/// One quarantined `(genome, case)` evaluation: full diagnostics for the
/// post-mortem ledger surfaced in `EvolutionResult` and the CLI.
#[derive(Clone, Debug, PartialEq)]
pub struct QuarantineRecord {
    /// The genome, printed in its canonical re-parseable form.
    pub genome: String,
    /// Training-case index the failure occurred on.
    pub case: usize,
    /// The classified failure.
    pub error: EvalError,
}

impl fmt::Display for QuarantineRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "case {}: {} [{}]", self.case, self.error, self.genome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_labels_round_trip() {
        for k in EvalErrorKind::ALL {
            assert_eq!(EvalErrorKind::from_label(k.label()), Some(k));
        }
        assert_eq!(EvalErrorKind::from_label("nonsense"), None);
    }

    #[test]
    fn only_timeouts_are_transient() {
        for k in EvalErrorKind::ALL {
            assert_eq!(k.is_transient(), k == EvalErrorKind::Timeout, "{k:?}");
        }
    }

    #[test]
    fn panic_payload_extraction() {
        let payload = std::panic::catch_unwind(|| panic!("boom {}", 42)).unwrap_err();
        let e = EvalError::from_panic(&*payload);
        assert_eq!(e.kind, EvalErrorKind::Panic);
        assert_eq!(e.message, "boom 42");
        assert!(!e.injected);

        let payload = std::panic::catch_unwind(|| panic!("static message")).unwrap_err();
        assert_eq!(EvalError::from_panic(&*payload).message, "static message");
    }
}
