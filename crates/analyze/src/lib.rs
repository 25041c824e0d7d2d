//! Static kernel race/safety analysis for Concord IR.
//!
//! Concord (CGO 2014) assumes programmer-correct `parallel_for_hetero`
//! bodies: a cross-work-item write conflict on the shared SVM region is
//! silently nondeterministic on real hardware, and the determinism-
//! preserving host-parallel merge actively *masks* such races in
//! simulation. This crate closes that gap statically, before any device
//! time is burned: an **index-affinity abstract interpretation** (see
//! [`affinity`]) gives every value one abstract value — a root (data, the
//! body object, a body field's pointee, private, shared, forged) and one
//! **id-linear element** (see [`range`]) saying how it moves with the
//! work-item id and within which byte interval. Every address reaching a
//! load, `Store` or atomic is classified by projections of that value:
//! its stride in the id, and its per-item byte interval
//! ([`RangeFootprint`], consumed by the launch graph for range-granular
//! conflict detection, and by the CA108 cross-item read-hazard finding,
//! which gates native chunk order). A small lint catalog (CA101–CA109,
//! see [`Lint`]) turns the classification into structured, located
//! [`Diagnostic`]s.
//!
//! The entry point is [`analyze_kernel`]: give it a module (typically the
//! CPU-optimized one — run CSE first so duplicate address computations
//! are canonical), the kernel entry function, and the launch [`Mode`],
//! and get back a [`Report`]: the findings plus the kernel's
//! [`AccessSummary`], both from one walk. The runtime's pre-launch gate
//! maps [`Gate`] onto the findings: `Warn` surfaces them, `Deny` refuses
//! to launch kernels with [`Severity::Error`] findings; its scheduler acts
//! on the summary.
//!
//! ```
//! use concord_ir::{FuncId, Module};
//! use concord_analyze::{analyze_kernel, Mode};
//!
//! let module = Module::new();
//! // ... build or compile a kernel into `module` ...
//! # let _ = |module: &Module, f: FuncId| {
//! let report = analyze_kernel(module, f, Mode::For);
//! for d in &report.diagnostics {
//!     eprintln!("{}", d.to_line());
//! }
//! # };
//! ```

#![warn(missing_docs)]

pub mod access;
pub mod affinity;
mod diag;
pub mod range;

pub use access::{AccessBase, AccessMode, AccessPattern, AccessRecord, AccessSummary};
pub use affinity::{AbsVal, Root};
pub use diag::{Diagnostic, Lint, Report, Severity};
pub use range::{RangeFootprint, Rng};

use concord_ir::{FuncId, Module};

/// Which launch convention the analyzed kernel runs under. The convention
/// decides what the body-object parameter means: `parallel_for` shares
/// one object across all work items, `parallel_reduce` stages a private
/// copy per worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// `parallel_for_hetero`: one shared body object.
    For,
    /// `parallel_reduce_hetero`: per-worker staged body copies + `join`.
    Reduce,
}

impl Mode {
    /// Lowercase name, stable for JSON/trace output.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Mode::For => "for",
            Mode::Reduce => "reduce",
        }
    }
}

/// What the pre-launch gate does with analysis findings. Two levels: the
/// runtime walks every ungated kernel for its scheduler's facts whatever
/// the level, so the gate only decides what the findings do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Gate {
    /// Analyze and surface findings (trace + report), always launch.
    #[default]
    Warn,
    /// Refuse to launch kernels with [`Severity::Error`] findings.
    Deny,
}

impl Gate {
    /// Lowercase name, stable for options parsing.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Gate::Warn => "warn",
            Gate::Deny => "deny",
        }
    }

    /// Parse an options string (`"warn"` / `"deny"`).
    #[must_use]
    pub fn parse(s: &str) -> Option<Gate> {
        match s {
            "warn" => Some(Gate::Warn),
            "deny" => Some(Gate::Deny),
            _ => None,
        }
    }
}

/// Analyze one kernel entry point under launch convention `mode`,
/// following calls (including virtual calls, widened over the class
/// hierarchy) transitively. Findings are deduplicated per instruction and
/// ordered by (function, instruction); the same walk's access set becomes
/// [`Report::access`].
#[must_use]
pub fn analyze_kernel(module: &Module, func: FuncId, mode: Mode) -> Report {
    let mut an = affinity::Analyzer::new(module, mode);
    an.run_kernel(func);
    // CA108/CA109 classify the collected access set after the walk.
    an.check_hazards();
    let mut diags = an.diags;
    // The interprocedural walk can visit one function under several
    // abstract contexts; keep the most severe finding per instruction.
    diags.sort_by(|a, b| {
        (a.func, a.inst, a.lint.id(), std::cmp::Reverse(a.severity)).cmp(&(
            b.func,
            b.inst,
            b.lint.id(),
            std::cmp::Reverse(b.severity),
        ))
    });
    diags.dedup_by_key(|d| (d.func, d.inst, d.lint));
    let hazard = diags.iter().any(|d| d.lint == Lint::CrossItemReadHazard);
    let access = AccessSummary::from_walk(&an.accesses, an.access_opaque, hazard);
    Report {
        kernel: module.function(func).name.clone(),
        mode: mode.name(),
        diagnostics: diags,
        access,
    }
}
