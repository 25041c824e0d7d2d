//! Session journaling: record a session's host-visible operations so the
//! same workload can be replayed with launches completed at once or left
//! to wave together.
//!
//! [`Concord::record_session`](crate::Concord::record_session) turns on a
//! journal of everything a driver does to the runtime — allocations,
//! frees, host writes into the shared region (captured by the region's
//! own write journal), and construct launches. A launch is journaled
//! where it enters the runtime, at submission, so `submit_for` /
//! `submit_reduce` launches are recorded exactly as blocking
//! `parallel_*_hetero` calls are (those are submissions too). One walker
//! replays the recorded op stream two ways:
//!
//! * [`Concord::replay_serial`](crate::Concord::replay_serial) completes
//!   every launch as it is submitted — the reference execution.
//! * [`Concord::replay_graph`](crate::Concord::replay_graph) defers
//!   completion so independent launches can wave together; host writes
//!   and frees first drain every pending launch whose footprint touches
//!   the affected bytes, preserving the recorded happens-before edges,
//!   and the rest drains at the end.
//!
//! Replay preserves the *exact* recorded global order of host ops (the
//! journal stores absolute addresses, so the allocator must reproduce
//! them), which is what makes the two replays byte-comparable: the
//! differential battery asserts whole-region bytes, per-launch reports,
//! and trap choices are identical between the two paths.

use crate::scheduler::Target;
use concord_svm::CpuAddr;

/// One recorded session operation.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionOp {
    /// `malloc(bytes)` returned `addr` (replay asserts the same address).
    Malloc {
        /// Requested size.
        bytes: u64,
        /// The address the recording session's allocator returned.
        addr: CpuAddr,
    },
    /// `free(addr)`.
    Free {
        /// The freed allocation.
        addr: CpuAddr,
    },
    /// A host write of `bytes` at absolute CPU address `addr` (captured
    /// through the shared region's write journal).
    Write {
        /// Absolute CPU-space address.
        addr: u64,
        /// The written bytes.
        bytes: Vec<u8>,
    },
    /// A `parallel_worklist_hetero` call. The construct is internally
    /// iterative (and already deterministic per target), so the journal
    /// records only the seed; frontier staging writes are not recorded.
    Worklist {
        /// Kernel class name.
        class: String,
        /// Body object address.
        body: CpuAddr,
        /// Seed frontier items, as passed by the caller.
        seed: Vec<i32>,
        /// Requested target.
        target: Target,
    },
    /// A `parallel_for_hetero` / `parallel_reduce_hetero` call, or a
    /// `submit_for` / `submit_reduce`.
    Launch {
        /// Kernel class name.
        class: String,
        /// Body object address.
        body: CpuAddr,
        /// Iteration count.
        n: u32,
        /// Requested target.
        target: Target,
        /// True for `parallel_reduce_hetero`.
        reduce: bool,
    },
}
