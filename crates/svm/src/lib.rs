//! # concord-svm
//!
//! Software shared virtual memory (SVM) for the Concord reproduction.
//!
//! The paper's central systems contribution (§3.1) is that pointer-sharing
//! between CPU and integrated GPU can be implemented *purely in software*:
//! one shared region, two base addresses, and a single-add translation
//! (`gpu_ptr = cpu_ptr + svm_const`). This crate provides that region:
//!
//! * [`region::SharedRegion`] — the backing store with address-space-checked
//!   typed access. Reading/writing through the wrong space faults, so
//!   compiler translation bugs surface as test failures.
//! * [`alloc::SharedAllocator`] — the `malloc`/`free` redirection target: a
//!   coalescing free-list allocator over the region.
//! * [`vtable::VtableArea`] — vtables and RTTI placed in shared memory so
//!   virtual dispatch works from both devices (§3.2).
//! * [`work::Work`] — the launch descriptor the runtime hands every
//!   executor, with the [`work::Span`] it covers.
//!
//! ## Example
//!
//! ```
//! use concord_svm::{SharedAllocator, SharedRegion};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut region = SharedRegion::new(1 << 16, 0);
//! let mut heap = SharedAllocator::new(&region);
//! let node = heap.malloc(16)?;
//! region.write_i32(node, 42)?;
//! // The GPU sees the same bytes through its own base address:
//! let gpu_view = node.to_gpu();
//! assert_eq!(gpu_view.to_cpu(), node);
//! # Ok(())
//! # }
//! ```

pub mod alloc;
pub mod region;
pub mod shadow;
pub mod vtable;
pub mod work;

pub use alloc::{AllocError, SharedAllocator};
pub use region::{
    device_heap_bump, Consistency, CpuAddr, GpuAddr, SharedRegion, CPU_BASE,
    DEVICE_HEAP_DESC_BYTES, GPU_BASE, SVM_CONST,
};
pub use shadow::{apply_log, apply_rmw, AtomicKind, MemOp, RegionMem, ShadowRegion};
pub use vtable::{VtableArea, MAX_VTABLE_SLOTS, VTABLE_MAGIC, VTABLE_STRIDE};
pub use work::{stage_reduce, Span, Work, WorkKind};
