//! Structured diagnostics: lint identifiers, severities, and a [`Report`]
//! that renders both human-readable text and machine-readable JSON.
//!
//! Every finding carries an exact IR location (function, block,
//! instruction), so tooling can map a diagnostic back to the offending
//! `Store` or atomic without re-running the analysis.

use crate::AccessSummary;
use concord_ir::{BlockId, FuncId, ValueId};
use std::fmt;

/// How serious a finding is.
///
/// Ordering is semantic: `Note < Warning < Error`, so
/// [`Report::max_severity`] can be compared against a gate threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational; almost certainly intentional code.
    Note,
    /// Suspicious; correct under some conventions (e.g. convergent flags).
    Warning,
    /// Proven or near-certain defect; a `Deny` gate refuses to launch.
    Error,
}

impl Severity {
    /// Lowercase name, stable for JSON output.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The lint catalog. Ids (`CA1xx`) are stable protocol surface; short
/// names and descriptions are documentation and may be reworded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lint {
    /// CA101: two work items provably store to overlapping bytes (affine
    /// address whose id-stride is smaller than the store width).
    OverlappingStores,
    /// CA102: a store address that cannot be proven disjoint across work
    /// items (unknown affinity).
    UnprovableStoreIndex,
    /// CA103: a plain (non-atomic) store to an address that is the same
    /// for every work item.
    UniformStore,
    /// CA104: a non-atomic read-modify-write of a uniform address — a
    /// lost-update race on any real device.
    UniformRmw,
    /// CA105: a reduce kernel leaks a pointer to its per-worker
    /// accumulator state into shared memory, defeating the staged-copy
    /// isolation of `parallel_reduce`.
    AccumulatorEscape,
    /// CA106: memory access through a pointer forged from a non-pointer
    /// integer, which defeats SVM pointer translation (PTROPT).
    ForeignPointer,
    /// CA107: a pointer-derived value pushed to the frontier queue of
    /// `parallel_worklist`; the queue holds plain item indices, so the
    /// pointer is laundered past SVM translation and the per-round
    /// commit discipline.
    PointerPush,
    /// CA108: a work item may load bytes that a *different* work item
    /// stores (same operand base, overlapping per-item byte ranges):
    /// intermediate values depend on the execution schedule, so parallel
    /// backends must run the kernel's chunks in a deterministic order.
    CrossItemReadHazard,
    /// CA109: an atomic read-modify-write whose address is provably
    /// injective in the work-item id — no other item can touch the cell,
    /// so the atomic buys nothing over a plain load/store pair.
    RedundantAtomic,
}

impl Lint {
    /// Every lint, in catalog order.
    pub const ALL: [Lint; 9] = [
        Lint::OverlappingStores,
        Lint::UnprovableStoreIndex,
        Lint::UniformStore,
        Lint::UniformRmw,
        Lint::AccumulatorEscape,
        Lint::ForeignPointer,
        Lint::PointerPush,
        Lint::CrossItemReadHazard,
        Lint::RedundantAtomic,
    ];

    /// Stable lint id (`CA101` …).
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            Lint::OverlappingStores => "CA101",
            Lint::UnprovableStoreIndex => "CA102",
            Lint::UniformStore => "CA103",
            Lint::UniformRmw => "CA104",
            Lint::AccumulatorEscape => "CA105",
            Lint::ForeignPointer => "CA106",
            Lint::PointerPush => "CA107",
            Lint::CrossItemReadHazard => "CA108",
            Lint::RedundantAtomic => "CA109",
        }
    }

    /// Short kebab-case name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Lint::OverlappingStores => "overlapping-stores",
            Lint::UnprovableStoreIndex => "unprovable-store-index",
            Lint::UniformStore => "uniform-store",
            Lint::UniformRmw => "uniform-rmw",
            Lint::AccumulatorEscape => "accumulator-escape",
            Lint::ForeignPointer => "foreign-pointer",
            Lint::PointerPush => "pointer-push",
            Lint::CrossItemReadHazard => "cross-item-read-hazard",
            Lint::RedundantAtomic => "redundant-atomic",
        }
    }

    /// One-line description for catalogs and `--help` output.
    #[must_use]
    pub fn description(self) -> &'static str {
        match self {
            Lint::OverlappingStores => {
                "store stride across work items is smaller than the store width"
            }
            Lint::UnprovableStoreIndex => {
                "store address cannot be proven disjoint across work items"
            }
            Lint::UniformStore => "non-atomic store to a work-item-uniform address",
            Lint::UniformRmw => "non-atomic read-modify-write of a work-item-uniform address",
            Lint::AccumulatorEscape => "reduce accumulator pointer escapes to shared memory",
            Lint::ForeignPointer => "memory access through a pointer forged from a plain integer",
            Lint::PointerPush => "pointer-derived value pushed to the frontier worklist queue",
            Lint::CrossItemReadHazard => {
                "work items may load bytes that other work items store (schedule-dependent reads)"
            }
            Lint::RedundantAtomic => {
                "atomic read-modify-write of a provably per-item-private address"
            }
        }
    }
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One finding, anchored to an exact IR instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which lint fired.
    pub lint: Lint,
    /// Severity of this particular finding (a lint can fire at different
    /// severities depending on what the analysis proved).
    pub severity: Severity,
    /// Human-readable detail with the analysis facts substituted in.
    pub message: String,
    /// Name of the function containing the instruction.
    pub function: String,
    /// Id of that function in the analyzed module.
    pub func: FuncId,
    /// Block containing the instruction.
    pub block: BlockId,
    /// The offending instruction (a `Store`, `Load`, or atomic call).
    pub inst: ValueId,
}

impl Diagnostic {
    /// Canonical one-line rendering:
    /// `error[CA104] fn_name bb2 %17: message`.
    #[must_use]
    pub fn to_line(&self) -> String {
        format!(
            "{}[{}] {} bb{} %{}: {}",
            self.severity,
            self.lint.id(),
            self.function,
            self.block.0,
            self.inst.0,
            self.message
        )
    }

    /// JSON object rendering (one element of the report's array).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"lint\":\"{}\",\"name\":\"{}\",\"severity\":\"{}\",\"function\":\"{}\",\"block\":{},\"inst\":{},\"message\":\"{}\"}}",
            self.lint.id(),
            self.lint.name(),
            self.severity.name(),
            escape(&self.function),
            self.block.0,
            self.inst.0,
            escape(&self.message)
        )
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_line())
    }
}

/// The result of analyzing one kernel entry point: every finding in the
/// kernel body and everything it (transitively, virtually) calls, and
/// what the kernel touches.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Report {
    /// Name of the analyzed kernel entry function.
    pub kernel: String,
    /// `"for"` or `"reduce"` — which launch convention was assumed.
    pub mode: &'static str,
    /// All findings, ordered by (function, instruction).
    pub diagnostics: Vec<Diagnostic>,
    /// The kernel's access summary, from the same walk; its `hazard` is
    /// "`diagnostics` holds a CA108 finding".
    pub access: AccessSummary,
}

impl Report {
    /// The most severe finding, or `None` for a clean report.
    #[must_use]
    pub fn max_severity(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    /// Whether any finding is an [`Severity::Error`].
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.max_severity() == Some(Severity::Error)
    }

    /// Findings at exactly `sev`.
    #[must_use]
    pub fn count_at(&self, sev: Severity) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == sev).count()
    }

    /// Human-readable multi-line rendering (one line per finding plus a
    /// summary line); empty string for a clean report.
    #[must_use]
    pub fn to_text(&self) -> String {
        if self.diagnostics.is_empty() {
            return String::new();
        }
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_line());
            out.push('\n');
        }
        out.push_str(&format!(
            "{}: {} error(s), {} warning(s), {} note(s)\n",
            self.kernel,
            self.count_at(Severity::Error),
            self.count_at(Severity::Warning),
            self.count_at(Severity::Note),
        ));
        out
    }

    /// Machine-readable JSON rendering:
    /// `{"kernel":..,"mode":..,"diagnostics":[..]}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let diags: Vec<String> = self.diagnostics.iter().map(Diagnostic::to_json).collect();
        format!(
            "{{\"kernel\":\"{}\",\"mode\":\"{}\",\"diagnostics\":[{}]}}",
            escape(&self.kernel),
            self.mode,
            diags.join(",")
        )
    }
}

/// Minimal JSON string escaping (quotes, backslash, control characters).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Diagnostic {
        Diagnostic {
            lint: Lint::UniformRmw,
            severity: Severity::Error,
            message: "say \"hi\"".to_string(),
            function: "Body::operator()".to_string(),
            func: FuncId(0),
            block: BlockId(2),
            inst: ValueId(17),
        }
    }

    #[test]
    fn severity_orders() {
        assert!(Severity::Note < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn lint_ids_unique() {
        for (i, a) in Lint::ALL.iter().enumerate() {
            for b in &Lint::ALL[i + 1..] {
                assert_ne!(a.id(), b.id());
                assert_ne!(a.name(), b.name());
            }
        }
    }

    #[test]
    fn line_and_json_render() {
        let d = sample();
        assert_eq!(d.to_line(), "error[CA104] Body::operator() bb2 %17: say \"hi\"");
        let json = d.to_json();
        assert!(json.contains("\"lint\":\"CA104\""), "{json}");
        assert!(json.contains("say \\\"hi\\\""), "escapes quotes: {json}");
    }

    #[test]
    fn report_severity_and_text() {
        let mut r = Report { kernel: "K".to_string(), mode: "for", ..Report::default() };
        assert_eq!(r.max_severity(), None);
        assert!(!r.has_errors());
        assert_eq!(r.to_text(), "");
        r.diagnostics.push(sample());
        assert!(r.has_errors());
        assert!(r.to_text().contains("1 error(s)"));
        assert!(r.to_json().starts_with("{\"kernel\":\"K\",\"mode\":\"for\""));
    }
}
