//! Per-kernel access summaries.
//!
//! Where the lint findings of [`crate::analyze_kernel`] answer "is this
//! kernel *internally* race-free?", its [`crate::Report::access`] answers
//! "what does this kernel *touch*?" — the question a launch scheduler
//! needs to prove two launches independent. Both come from the one
//! interprocedural walk. Following the access-mode-declaration line of work
//! (Henrio/Kessler/Li; StarPU's task-operand modes), every shared-memory
//! access whose abstract address is rooted at a kernel operand is
//! summarized as a *mode* (read / accumulate / write) on a *base* (the
//! body object itself, or the pointee of a body field at a known byte
//! offset). The rest of the record is read off the address's one id-linear
//! element ([`crate::range::Rng`]): its *pattern* (constant, affine in the
//! work-item id with a known stride, or unknown) and, when the element is
//! bounded, its per-item [`RangeFootprint`]. Accesses that cannot be
//! rooted — double indirection, data-dependent bases, `inttoptr`
//! forgeries, compare-and-swap, `device_malloc` — make the whole summary
//! **opaque**: an opaque launch conservatively conflicts with everything.
//!
//! The summary is deliberately *symbolic*: bases name operand slots, not
//! addresses. The runtime resolves them against live pointer values and
//! its allocator's block table at submit time, instantiating a footprint
//! with the launch's grid size for a range-granular span; records without
//! one fall back to the whole backing allocation, which keeps the
//! conflict test sound.
//!
//! Each summary also carries the **cross-item read-hazard verdict**: the
//! walk attached a CA108 finding, i.e. some rooted read may observe bytes
//! a *different* work item writes on the same base, which makes the
//! kernel's intermediate dynamics schedule-dependent. The runtime uses the
//! verdict to run the kernel's native chunks in order, so replays are
//! deterministic at any host fan-out.

use crate::affinity::RawAccess;
use crate::range::RangeFootprint;

/// How a launch uses a summarized base, ordered weakest → strongest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AccessMode {
    /// The base is only read.
    Read,
    /// The base is updated through commutative atomics (`atomic_add` /
    /// `atomic_min`): two accumulate launches on the same base may share a
    /// fence pair, but must still be ordered by submission.
    Accumulate,
    /// The base is written through plain stores.
    Write,
}

impl AccessMode {
    /// Lowercase name, stable for JSON/trace output.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AccessMode::Read => "read",
            AccessMode::Accumulate => "accumulate",
            AccessMode::Write => "write",
        }
    }
}

/// How accessed addresses within a base relate to the work-item id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AccessPattern {
    /// Every work item touches the same address (known constant or
    /// work-item-uniform).
    Constant,
    /// `base + stride * id` — provably disjoint across items when
    /// `|stride| >=` the access width.
    Affine {
        /// Byte stride per work-item id.
        stride: i64,
    },
    /// No provable relation to the work-item id: the whole backing
    /// allocation must be assumed touched.
    Unknown,
}

/// Which kernel operand an access is rooted at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AccessBase {
    /// The body object itself (field reads/writes through `this`).
    Body,
    /// The allocation pointed to by the body field at byte offset
    /// `offset` (e.g. `this->out` for a field laid out at +0).
    Field {
        /// Byte offset of the pointer field within the body object.
        offset: u64,
    },
}

impl std::fmt::Display for AccessBase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AccessBase::Body => write!(f, "body"),
            AccessBase::Field { offset } => write!(f, "field+{offset}"),
        }
    }
}

/// One summarized access: mode + pattern + width on an operand base.
/// Records order by their fields, in declaration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AccessRecord {
    /// Operand root of the access.
    pub base: AccessBase,
    /// Read / accumulate / write.
    pub mode: AccessMode,
    /// Address pattern within the base.
    pub pattern: AccessPattern,
    /// Access width in bytes.
    pub width: u64,
    /// Per-item byte footprint relative to the base, when the range pass
    /// bounded it; `None` falls back to the whole backing allocation.
    pub footprint: Option<RangeFootprint>,
}

/// The inferred access summary of one kernel under one launch convention
/// ([`crate::Report::access`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AccessSummary {
    /// Deduplicated records, ordered by (base, mode).
    pub records: Vec<AccessRecord>,
    /// True when some access could not be rooted at a kernel operand (or
    /// the interprocedural walk degraded): the launch must be assumed to
    /// touch anything.
    pub opaque: bool,
    /// True when the walk produced a CA108 finding: some rooted read may
    /// observe bytes a *different* work item writes on the same base, so
    /// intermediate values are schedule-dependent and parallel backends
    /// must run this kernel's chunks in a deterministic order. Independent
    /// of `opaque` — an opaque summary (unrooted accesses) is *not* assumed
    /// hazardous; unrooted reads are assumed non-aliasing with rooted
    /// written bases.
    pub hazard: bool,
}

impl AccessSummary {
    /// The strongest mode inferred for `base`, if the base is accessed.
    #[must_use]
    pub fn mode_of(&self, base: AccessBase) -> Option<AccessMode> {
        self.records.iter().filter(|r| r.base == base).map(|r| r.mode).max()
    }

    /// Summarize the raw access set one analyzer walk collected; `opaque`
    /// and `hazard` are that walk's verdicts.
    pub(crate) fn from_walk(accesses: &[RawAccess], opaque: bool, hazard: bool) -> Self {
        let mut records: Vec<AccessRecord> = accesses
            .iter()
            .map(|raw| AccessRecord {
                base: raw.base,
                mode: raw.mode,
                pattern: match raw.lin.id_stride() {
                    Some(0) => AccessPattern::Constant,
                    Some(stride) => AccessPattern::Affine { stride },
                    None => AccessPattern::Unknown,
                },
                width: raw.width,
                footprint: raw.footprint(),
            })
            .collect();
        records.sort_unstable();
        records.dedup();
        AccessSummary { records, opaque, hazard }
    }
}
