//! The work descriptor every executor launches from.
//!
//! The heterogeneous constructs are one offload with a different per-item
//! argument and a different tail, so the runtime describes a launch once —
//! [`Work`] over a [`Span`] — and each executor (`CpuSim`, `GpuSim`, the
//! native `Executor`) has a single entry that takes it.

use crate::{CpuAddr, SharedRegion};
use concord_ir::eval::Trap;
use concord_ir::types::AddrSpace;
use concord_ir::FuncId;

/// A contiguous sub-range `[lo, hi)` of a construct's `[0, grid)`
/// iteration space. A full (unsplit) launch is `Span::full(n)`. Work-item
/// ids stay global, so a split construct computes exactly what the
/// unsplit one would.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// First work-item id (inclusive).
    pub lo: u32,
    /// Last work-item id (exclusive).
    pub hi: u32,
    /// Total size of the construct's iteration space.
    pub grid: u32,
}

impl Span {
    /// The whole iteration space `[0, n)`.
    #[must_use]
    pub fn full(n: u32) -> Self {
        Span { lo: 0, hi: n, grid: n }
    }

    /// Work items in this sub-range.
    #[must_use]
    pub fn items(&self) -> u32 {
        self.hi - self.lo
    }
}

/// What a construct passes each work item and what it leaves behind.
#[derive(Debug, Clone, Copy)]
pub enum WorkKind<'a> {
    /// `parallel_for_hetero`: item `i` runs `func(body, i)`.
    For,
    /// `parallel_reduce_hetero`: item `i` runs `func(copy, i)` on a
    /// per-worker copy of the `body_size`-byte body, leaving one partial
    /// per used slot of `slots` for the caller to `join` (per core on the
    /// CPU, per warp — tree-reduced through local memory, §3.3 — on the
    /// GPU).
    Reduce {
        /// The class's `join` method.
        join: FuncId,
        /// Byte size of the body object.
        body_size: u64,
        /// Body-sized scratch slots in the shared region.
        slots: &'a [CpuAddr],
    },
    /// One `parallel_worklist_hetero` round: item `i` runs
    /// `func(body, items[i])` — the kernel receives the frontier
    /// *element* — and `push`ed items are collected in the executor's
    /// fixed commit order. `items` is the whole frontier (`grid` long).
    Worklist {
        /// The round's frontier.
        items: &'a [i32],
    },
}

impl WorkKind<'_> {
    /// The construct's name on traces.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            WorkKind::For => "parallel_for",
            WorkKind::Reduce { .. } => "parallel_reduce",
            WorkKind::Worklist { .. } => "parallel_worklist",
        }
    }
}

/// One launch's borrowed description: which kernel, over which body, as
/// which construct.
#[derive(Debug, Clone, Copy)]
pub struct Work<'a> {
    /// The kernel's `operator()`.
    pub func: FuncId,
    /// The body object.
    pub body: CpuAddr,
    /// The construct.
    pub kind: WorkKind<'a>,
    /// Run the launch's chunks one after another, in chunk order, against
    /// the live region. The caller decides it: the runtime sets it on every
    /// executor for kernels with order-dependent operations (`device_malloc`,
    /// compare-and-swap; `concord_ir::analysis::uses_gated_ops`), and on
    /// the native executor also for CA108 cross-item read hazards outside
    /// worklist rounds. `CpuSim` and `GpuSim` then take their serial live
    /// path instead of snapshot-and-log (a worklist round on `GpuSim` also
    /// runs each warp's lanes one at a time); the native `Executor` runs its
    /// chunks on the calling thread instead of fanning them out.
    pub in_order: bool,
    /// No write of this launch can land in the body's block, so the body
    /// is invariant while the launch runs. The runtime decides it for
    /// native `for` launches and worklist rounds from the kernel's access
    /// summary; the native `Executor` then loads the body fields once per
    /// chunk. The simulators ignore it.
    pub body_invariant: bool,
}

/// Copy a reduction's body into each of `slots` — the serial staging step
/// before CPU-side chunks accumulate into them.
///
/// # Errors
///
/// Region access faults on the body or a slot.
pub fn stage_reduce(
    region: &mut SharedRegion,
    body: CpuAddr,
    body_size: u64,
    slots: &[CpuAddr],
) -> Result<(), Trap> {
    for &slot in slots {
        let bytes = region.read_bytes(body.0, AddrSpace::Cpu, body_size)?.to_vec();
        region.write_bytes(slot.0, AddrSpace::Cpu, &bytes)?;
    }
    Ok(())
}
