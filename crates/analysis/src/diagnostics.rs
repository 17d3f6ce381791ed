//! Structured diagnostics with human-readable and JSON rendering.
//!
//! Every check in this crate reports through [`Diagnostic`] rather than
//! bare strings, so callers can attribute a finding to the pass that
//! produced the broken IR, filter by severity, and emit machine-readable
//! output for tooling.

use metaopt_ir::BlockId;
use metaopt_trace::json::Value;
use std::fmt;

/// How bad a finding is.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Severity {
    /// Informational note; never fails a check.
    Info,
    /// Suspicious but not invariant-breaking.
    Warning,
    /// An IR invariant is violated; the producing pass is buggy.
    Error,
}

impl Severity {
    /// Lowercase label used in both output formats.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One finding, attributed to the pass whose output was being checked.
#[derive(Clone, Debug, PartialEq)]
pub struct Diagnostic {
    /// Finding severity.
    pub severity: Severity,
    /// The pass after which the check ran (e.g. `"hyperblock"`), or a
    /// checker-chosen tag such as `"input"` for pre-pipeline IR.
    pub pass: String,
    /// Function the finding is in.
    pub function: String,
    /// Block the finding is in, when attributable to one.
    pub block: Option<BlockId>,
    /// Instruction index within the block, when attributable to one.
    pub inst: Option<usize>,
    /// The pipeline plan under which the finding was produced, when known.
    /// Lets ablation sweeps and plan genomes attribute bad IR to the plan
    /// that ordered the passes, not just the pass that ran last.
    pub plan: Option<String>,
    /// What is wrong.
    pub message: String,
}

impl Diagnostic {
    /// Build a diagnostic with no location.
    pub fn new(
        severity: Severity,
        pass: impl Into<String>,
        function: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            severity,
            pass: pass.into(),
            function: function.into(),
            block: None,
            inst: None,
            plan: None,
            message: message.into(),
        }
    }

    /// Attach a block location.
    pub fn at_block(mut self, b: BlockId) -> Self {
        self.block = Some(b);
        self
    }

    /// Attach an instruction location (implies a block).
    pub fn at_inst(mut self, b: BlockId, i: usize) -> Self {
        self.block = Some(b);
        self.inst = Some(i);
        self
    }

    /// Attach the pipeline plan that produced the IR being checked.
    pub fn with_plan(mut self, plan: impl Into<String>) -> Self {
        self.plan = Some(plan.into());
        self
    }

    /// One-line human-readable rendering:
    /// `error[hyperblock] main b2[3]: use of v7 before definition`.
    pub fn render(&self) -> String {
        let mut loc = self.function.clone();
        if let Some(b) = self.block {
            loc.push_str(&format!(" {b}"));
            if let Some(i) = self.inst {
                loc.push_str(&format!("[{i}]"));
            }
        }
        let origin = match &self.plan {
            Some(plan) => format!("{}@{plan}", self.pass),
            None => self.pass.clone(),
        };
        format!("{}[{}] {}: {}", self.severity, origin, loc, self.message)
    }

    /// Machine-readable form: one JSON object, with `block`, `inst` and
    /// `plan` present only when known.
    pub fn to_value(&self) -> Value {
        let mut fields = vec![
            ("severity", Value::str(self.severity.label())),
            ("pass", Value::str(&self.pass)),
            ("function", Value::str(&self.function)),
        ];
        if let Some(b) = self.block {
            fields.push(("block", Value::UInt(b.index() as u64)));
        }
        if let Some(i) = self.inst {
            fields.push(("inst", Value::UInt(i as u64)));
        }
        if let Some(plan) = &self.plan {
            fields.push(("plan", Value::str(plan)));
        }
        fields.push(("message", Value::str(&self.message)));
        Value::obj(fields)
    }

    /// [`Diagnostic::to_value`] printed as one line of JSON.
    pub fn to_json(&self) -> String {
        self.to_value().to_string()
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Render a batch of diagnostics as a JSON array (one object per finding).
pub fn render_json(diags: &[Diagnostic]) -> String {
    Value::Arr(diags.iter().map(Diagnostic::to_value).collect()).to_string()
}

/// Render a batch of diagnostics as human-readable lines.
pub fn render_lines(diags: &[Diagnostic]) -> String {
    diags
        .iter()
        .map(Diagnostic::render)
        .collect::<Vec<_>>()
        .join("\n")
}

/// The first error-severity diagnostic, if any — the checker's pass/fail bit.
pub fn first_error(diags: &[Diagnostic]) -> Option<&Diagnostic> {
    diags.iter().find(|d| d.severity == Severity::Error)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_human_readable_with_location() {
        let d = Diagnostic::new(Severity::Error, "regalloc", "main", "spill slot clobbered")
            .at_inst(BlockId(2), 5);
        assert_eq!(
            d.render(),
            "error[regalloc] main b2[5]: spill slot clobbered"
        );
        let d2 = Diagnostic::new(Severity::Info, "lint", "f", "note");
        assert_eq!(d2.render(), "info[lint] f: note");
    }

    #[test]
    fn renders_json_with_escaping() {
        let d = Diagnostic::new(Severity::Warning, "p", "f", "uses \"quotes\"\nand newline")
            .at_block(BlockId(1));
        let j = d.to_json();
        assert_eq!(
            j,
            "{\"severity\":\"warning\",\"pass\":\"p\",\"function\":\"f\",\"block\":1,\
             \"message\":\"uses \\\"quotes\\\"\\nand newline\"}"
        );
        let arr = render_json(&[d.clone(), d]);
        assert!(arr.starts_with('[') && arr.ends_with(']'));
        assert_eq!(arr.matches("\"pass\"").count(), 2);
    }

    #[test]
    fn plan_attribution_shows_in_both_renderings() {
        let d = Diagnostic::new(Severity::Error, "schedule", "main", "broken bundle")
            .with_plan("regalloc,schedule");
        assert_eq!(
            d.render(),
            "error[schedule@regalloc,schedule] main: broken bundle"
        );
        assert!(d.to_json().contains("\"plan\":\"regalloc,schedule\""));
        // Without a plan the JSON shape is unchanged (no "plan" key).
        let bare = Diagnostic::new(Severity::Error, "schedule", "main", "broken bundle");
        assert!(!bare.to_json().contains("\"plan\""));
    }

    #[test]
    fn json_round_trips_through_the_trace_parser() {
        // Dogfood the hand-rolled metaopt-trace JSON parser: everything
        // render_json emits must parse, and every field must come back with
        // its value intact (including escapes and optional fields).
        let diags = vec![
            Diagnostic::new(Severity::Warning, "p", "f", "uses \"quotes\"\nand newline")
                .at_block(BlockId(1)),
            Diagnostic::new(Severity::Error, "regalloc", "main", "tab\there")
                .at_inst(BlockId(2), 5)
                .with_plan("prefetch,regalloc,schedule"),
            Diagnostic::new(Severity::Info, "absint", "f", "control \u{1} char"),
        ];
        let v = metaopt_trace::json::parse(&render_json(&diags)).expect("parses");
        let arr = v.as_arr().expect("is an array");
        assert_eq!(arr.len(), diags.len());
        for (obj, d) in arr.iter().zip(&diags) {
            assert_eq!(
                obj.get("severity").and_then(|s| s.as_str()),
                Some(d.severity.label())
            );
            assert_eq!(obj.get("pass").and_then(|s| s.as_str()), Some(&d.pass[..]));
            assert_eq!(
                obj.get("function").and_then(|s| s.as_str()),
                Some(&d.function[..])
            );
            assert_eq!(
                obj.get("message").and_then(|s| s.as_str()),
                Some(&d.message[..])
            );
            assert_eq!(
                obj.get("block").and_then(|b| b.as_u64()),
                d.block.map(|b| b.index() as u64)
            );
            assert_eq!(
                obj.get("inst").and_then(|i| i.as_u64()),
                d.inst.map(|i| i as u64)
            );
            assert_eq!(obj.get("plan").and_then(|p| p.as_str()), d.plan.as_deref());
        }
        // The empty batch is the empty array.
        assert_eq!(render_json(&[]), "[]");
        assert!(metaopt_trace::json::parse("[]").is_ok());
    }

    #[test]
    fn first_error_skips_lower_severities() {
        let diags = vec![
            Diagnostic::new(Severity::Info, "a", "f", "i"),
            Diagnostic::new(Severity::Warning, "b", "f", "w"),
            Diagnostic::new(Severity::Error, "c", "f", "e"),
        ];
        assert_eq!(first_error(&diags).unwrap().pass, "c");
        assert!(first_error(&diags[..2]).is_none());
    }

    #[test]
    fn severity_orders_by_badness() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
    }
}
