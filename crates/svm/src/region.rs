//! The shared virtual memory region.
//!
//! Following §3.1 of the paper: at program startup Concord creates one
//! virtual memory region shared between CPU and GPU. All data the GPU may
//! touch lives here (`malloc`/`free` are redirected to this region's
//! allocator). The CPU addresses the region at `cpu_base + offset`; the GPU
//! addresses the same bytes at `gpu_base + offset` (a surface offset behind
//! a constant binding-table entry). Translation between the two views is a
//! single add of the runtime constant `svm_const = gpu_base - cpu_base`.
//!
//! In this reproduction the two bases are deliberately different so that a
//! missing translation is a *fault*, exactly as on the real hardware.

use concord_ir::eval::{Trap, Value};
use concord_ir::types::{AddrSpace, Type};
use concord_trace::{ArgValue, Tracer, Track};
use std::fmt;

/// Base of the CPU view of the shared region.
pub const CPU_BASE: u64 = 0x4000_0000_0000;

/// Base of the GPU view of the shared region.
pub const GPU_BASE: u64 = 0x7000_0000_0000;

/// The runtime translation constant: `gpu_base - cpu_base` (§3.1).
pub const SVM_CONST: u64 = GPU_BASE.wrapping_sub(CPU_BASE);

/// Bytes reserved at the *top* of the region for the device-heap
/// descriptor: `[cursor: u64][limit: u64]` (see `device_malloc`).
pub const DEVICE_HEAP_DESC_BYTES: u64 = 16;

/// The device-heap bump rule over the descriptor `[cursor, limit]`: the
/// 16-byte-aligned address serving `size` bytes (at least one) and the next
/// cursor, or `None` (null) with no heap (a zero cursor) or past `limit`.
pub fn device_heap_bump(cursor: u64, limit: u64, size: u64) -> Option<(u64, u64)> {
    if cursor == 0 {
        return None;
    }
    let base = cursor.checked_next_multiple_of(16)?;
    let next = base.checked_add(size.max(1)).filter(|&next| next <= limit)?;
    Some((base, next))
}

/// A CPU-space address into the shared region.
///
/// Newtype so host code cannot confuse the two pointer representations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CpuAddr(pub u64);

/// A GPU-space address into the shared region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GpuAddr(pub u64);

impl CpuAddr {
    /// The null CPU pointer.
    pub const NULL: CpuAddr = CpuAddr(0);

    /// Translate to the GPU representation (adds `SVM_CONST`).
    pub fn to_gpu(self) -> GpuAddr {
        GpuAddr(self.0.wrapping_add(SVM_CONST))
    }

    /// Whether this is the null pointer.
    pub fn is_null(self) -> bool {
        self.0 == 0
    }

    /// Offset this address by `bytes`.
    pub fn offset(self, bytes: u64) -> CpuAddr {
        CpuAddr(self.0 + bytes)
    }
}

impl GpuAddr {
    /// Translate back to the CPU representation.
    pub fn to_cpu(self) -> CpuAddr {
        CpuAddr(self.0.wrapping_sub(SVM_CONST))
    }
}

impl fmt::Display for CpuAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cpu:{:#x}", self.0)
    }
}

impl fmt::Display for GpuAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gpu:{:#x}", self.0)
    }
}

/// Consistency / pinning bookkeeping for offload boundaries (§2.3).
///
/// Concord guarantees CPU writes are visible to the GPU at the start of an
/// offload, and GPU writes are visible to the CPU at the end. The region
/// tracks fence counts and whether the region is currently pinned for GPU
/// kernel execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Consistency {
    /// Number of CPU→GPU fences performed (offload starts).
    pub fences_to_gpu: u64,
    /// Number of GPU→CPU fences performed (offload ends).
    pub fences_to_cpu: u64,
    /// Fence *pairs* the launch graph proved redundant and skipped:
    /// consecutive GPU launches with no intervening conflicting host access
    /// share one pair instead of fencing per launch.
    pub fences_elided: u64,
    /// Whether the region is pinned for an in-flight GPU kernel.
    pub pinned: bool,
}

/// The shared memory region: backing store plus address-space resolution.
#[derive(Debug, Clone)]
pub struct SharedRegion {
    data: Vec<u8>,
    consistency: Consistency,
    /// Bytes reserved at the start of the region (vtables & global symbols,
    /// §3.2); the allocator hands out memory above this watermark.
    reserved: u64,
    tracer: Tracer,
    /// When set, every successful [`SharedRegion::write_bytes`] appends a
    /// `(cpu_addr, bytes)` record — the session-journal hook the runtime
    /// uses to capture host writes for record/replay. Suspended (taken out)
    /// while a launch executes so device-side writes are not journaled.
    journal: Option<Vec<(u64, Vec<u8>)>>,
}

impl SharedRegion {
    /// Create a region of `capacity` bytes with `reserved` bytes set aside
    /// at the bottom for vtables and shared global symbols.
    ///
    /// # Panics
    ///
    /// Panics if `reserved > capacity`.
    pub fn new(capacity: u64, reserved: u64) -> Self {
        assert!(reserved <= capacity, "reserved exceeds capacity");
        SharedRegion {
            data: vec![0u8; capacity as usize],
            consistency: Consistency::default(),
            reserved,
            tracer: Tracer::disabled(),
            journal: None,
        }
    }

    /// Attach a tracer; consistency fences then record SVM-track events.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.data.len() as u64
    }

    /// Bytes reserved at the bottom of the region.
    pub fn reserved(&self) -> u64 {
        self.reserved
    }

    /// Consistency bookkeeping.
    pub fn consistency(&self) -> Consistency {
        self.consistency
    }

    /// CPU address of the device-heap cursor cell (the limit cell is 8
    /// bytes above it). Devices bump the cursor atomically to serve
    /// `device_malloc`.
    pub fn device_heap_cursor(&self) -> CpuAddr {
        CpuAddr(CPU_BASE + self.capacity() - DEVICE_HEAP_DESC_BYTES)
    }

    /// Initialize the device heap to serve allocations from
    /// `[arena, arena + bytes)`.
    ///
    /// # Errors
    ///
    /// Region faults (the region is too small for the descriptor).
    pub fn init_device_heap(&mut self, arena: CpuAddr, bytes: u64) -> Result<(), Trap> {
        let cell = self.device_heap_cursor();
        self.write_i64(cell, arena.0 as i64)?;
        self.write_i64(cell.offset(8), (arena.0 + bytes) as i64)?;
        Ok(())
    }

    /// Serve one `device_malloc(size)`: bump the cursor (16-byte aligned),
    /// returning null on exhaustion or when no heap was initialized.
    ///
    /// # Errors
    ///
    /// Region faults reading/writing the descriptor.
    pub fn device_malloc(&mut self, size: u64) -> Result<CpuAddr, Trap> {
        let cell = self.device_heap_cursor();
        let cursor = self.read_i64(cell)? as u64;
        let limit = self.read_i64(cell.offset(8))? as u64;
        let Some((base, next)) = device_heap_bump(cursor, limit, size) else {
            return Ok(CpuAddr::NULL);
        };
        self.write_i64(cell, next as i64)?;
        Ok(CpuAddr(base))
    }

    /// CPU→GPU fence: make CPU writes visible and pin the region for kernel
    /// execution. Called by the runtime at offload start.
    pub fn fence_to_gpu(&mut self) {
        self.consistency.fences_to_gpu += 1;
        self.consistency.pinned = true;
        if self.tracer.enabled() {
            self.tracer.instant(
                Track::Svm,
                "fence_to_gpu",
                vec![("fence_no", ArgValue::UInt(self.consistency.fences_to_gpu))],
            );
        }
    }

    /// GPU→CPU fence: make GPU writes visible and unpin. Called by the
    /// runtime at offload end.
    pub fn fence_to_cpu(&mut self) {
        self.consistency.fences_to_cpu += 1;
        self.consistency.pinned = false;
        if self.tracer.enabled() {
            self.tracer.instant(
                Track::Svm,
                "fence_to_cpu",
                vec![("fence_no", ArgValue::UInt(self.consistency.fences_to_cpu))],
            );
        }
    }

    /// Count `pairs` fence pairs the launch graph proved redundant and
    /// skipped (see [`Consistency::fences_elided`]).
    pub fn note_fences_elided(&mut self, pairs: u64) {
        self.consistency.fences_elided += pairs;
        if pairs > 0 && self.tracer.enabled() {
            self.tracer.instant(
                Track::Svm,
                "fences_elided",
                vec![
                    ("pairs", ArgValue::UInt(pairs)),
                    ("total", ArgValue::UInt(self.consistency.fences_elided)),
                ],
            );
        }
    }

    /// Start (`true`) or stop (`false`) journaling host writes. Starting
    /// discards any previously journaled writes.
    pub fn journal_writes(&mut self, on: bool) {
        self.journal = on.then(Vec::new);
    }

    /// Take the journal out entirely (records *and* the journaling state) so
    /// a launch can execute without its device-side writes being recorded.
    /// Pass the return value to [`SharedRegion::restore_journal`] afterwards.
    pub fn suspend_journal(&mut self) -> Option<Vec<(u64, Vec<u8>)>> {
        self.journal.take()
    }

    /// Re-install a journal taken by [`SharedRegion::suspend_journal`].
    pub fn restore_journal(&mut self, journal: Option<Vec<(u64, Vec<u8>)>>) {
        self.journal = journal;
    }

    /// Drain the journaled `(cpu_addr, bytes)` write records accumulated so
    /// far; journaling stays active. Empty when journaling is off.
    pub fn take_journaled_writes(&mut self) -> Vec<(u64, Vec<u8>)> {
        self.journal.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Resolve an address in a space to a byte offset in the backing store.
    ///
    /// # Errors
    ///
    /// * [`Trap::WrongAddressSpace`] when given a private/local pointer
    ///   (those are device-internal and never resolve into shared memory);
    /// * [`Trap::BadAddress`] when the address is null or out of bounds.
    pub fn resolve(&self, addr: u64, space: AddrSpace, len: u64) -> Result<u64, Trap> {
        let base = match space {
            AddrSpace::Cpu => CPU_BASE,
            AddrSpace::Gpu => GPU_BASE,
            other => {
                return Err(Trap::WrongAddressSpace { found: other, expected: AddrSpace::Cpu })
            }
        };
        let off = addr.wrapping_sub(base);
        if addr == 0 || off.checked_add(len).is_none_or(|end| end > self.capacity()) {
            return Err(Trap::BadAddress { addr, space });
        }
        Ok(off)
    }

    /// Read raw bytes.
    ///
    /// # Errors
    ///
    /// See [`SharedRegion::resolve`].
    pub fn read_bytes(&self, addr: u64, space: AddrSpace, len: u64) -> Result<&[u8], Trap> {
        let off = self.resolve(addr, space, len)? as usize;
        Ok(&self.data[off..off + len as usize])
    }

    /// Write raw bytes.
    ///
    /// # Errors
    ///
    /// See [`SharedRegion::resolve`].
    pub fn write_bytes(&mut self, addr: u64, space: AddrSpace, bytes: &[u8]) -> Result<(), Trap> {
        let off = self.resolve(addr, space, bytes.len() as u64)? as usize;
        self.data[off..off + bytes.len()].copy_from_slice(bytes);
        if let Some(journal) = &mut self.journal {
            journal.push((CPU_BASE + off as u64, bytes.to_vec()));
        }
        Ok(())
    }

    /// Read a typed value.
    ///
    /// Pointer loads yield **CPU-space** pointers — the SVM invariant:
    /// pointers stored in shared memory are always in the CPU
    /// representation, regardless of which device reads them.
    ///
    /// # Errors
    ///
    /// See [`SharedRegion::resolve`].
    pub fn read_value(&self, addr: u64, space: AddrSpace, ty: Type) -> Result<Value, Trap> {
        let size = ty.size();
        let bytes = self.read_bytes(addr, space, size)?;
        Ok(decode_value(bytes, ty))
    }

    /// Write a typed value.
    ///
    /// # Errors
    ///
    /// In addition to [`SharedRegion::resolve`] errors, storing a pointer
    /// value that is *not* in CPU representation returns
    /// [`Trap::WrongAddressSpace`]: letting a GPU-space pointer escape into
    /// shared memory would corrupt the data structure for the CPU, which is
    /// exactly the class of bug the SVM lowering pass must prevent (§4.1).
    pub fn write_value(
        &mut self,
        addr: u64,
        space: AddrSpace,
        v: Value,
        ty: Type,
    ) -> Result<(), Trap> {
        let (bytes, len) = encode_value(v, ty)?;
        self.write_bytes(addr, space, &bytes[..len as usize])
    }

    /// Raw view of the backing store at a pre-resolved offset. Only for the
    /// shadow-overlay machinery, which revalidates through [`Self::resolve`]
    /// before recording offsets.
    pub(crate) fn raw(&self, off: u64, len: u64) -> &[u8] {
        &self.data[off as usize..(off + len) as usize]
    }

    /// Raw mutable view at a pre-resolved offset (shadow-log replay).
    pub(crate) fn raw_mut(&mut self, off: u64, len: u64) -> &mut [u8] {
        &mut self.data[off as usize..(off + len) as usize]
    }

    /// Base pointer and capacity of the backing store, for execution
    /// engines that compile their own bounds checks (the native JIT
    /// backend). The caller promises the same discipline the region
    /// itself enforces: every access is bounds-checked against the
    /// returned length before it is performed.
    pub fn raw_parts_mut(&mut self) -> (*mut u8, usize) {
        (self.data.as_mut_ptr(), self.data.len())
    }

    /// Convenience: read an `i32` through a CPU address.
    ///
    /// # Errors
    ///
    /// See [`SharedRegion::resolve`].
    pub fn read_i32(&self, addr: CpuAddr) -> Result<i32, Trap> {
        Ok(self.read_value(addr.0, AddrSpace::Cpu, Type::I32)?.as_i() as i32)
    }

    /// Convenience: write an `i32` through a CPU address.
    ///
    /// # Errors
    ///
    /// See [`SharedRegion::resolve`].
    pub fn write_i32(&mut self, addr: CpuAddr, v: i32) -> Result<(), Trap> {
        self.write_value(addr.0, AddrSpace::Cpu, Value::I(v as i64), Type::I32)
    }

    /// Convenience: read an `f32` through a CPU address.
    ///
    /// # Errors
    ///
    /// See [`SharedRegion::resolve`].
    pub fn read_f32(&self, addr: CpuAddr) -> Result<f32, Trap> {
        Ok(self.read_value(addr.0, AddrSpace::Cpu, Type::F32)?.as_f() as f32)
    }

    /// Convenience: write an `f32` through a CPU address.
    ///
    /// # Errors
    ///
    /// See [`SharedRegion::resolve`].
    pub fn write_f32(&mut self, addr: CpuAddr, v: f32) -> Result<(), Trap> {
        self.write_value(addr.0, AddrSpace::Cpu, Value::F(v as f64), Type::F32)
    }

    /// Convenience: read an `i64` through a CPU address.
    ///
    /// # Errors
    ///
    /// See [`SharedRegion::resolve`].
    pub fn read_i64(&self, addr: CpuAddr) -> Result<i64, Trap> {
        Ok(self.read_value(addr.0, AddrSpace::Cpu, Type::I64)?.as_i())
    }

    /// Convenience: write an `i64` through a CPU address.
    ///
    /// # Errors
    ///
    /// See [`SharedRegion::resolve`].
    pub fn write_i64(&mut self, addr: CpuAddr, v: i64) -> Result<(), Trap> {
        self.write_value(addr.0, AddrSpace::Cpu, Value::I(v), Type::I64)
    }

    /// Convenience: read a shared pointer (CPU representation) from memory.
    ///
    /// # Errors
    ///
    /// See [`SharedRegion::resolve`].
    pub fn read_ptr(&self, addr: CpuAddr) -> Result<CpuAddr, Trap> {
        let v = self.read_value(addr.0, AddrSpace::Cpu, Type::Ptr(AddrSpace::Cpu))?;
        Ok(CpuAddr(v.as_ptr().0))
    }

    /// Convenience: write a shared pointer.
    ///
    /// # Errors
    ///
    /// See [`SharedRegion::resolve`].
    pub fn write_ptr(&mut self, addr: CpuAddr, target: CpuAddr) -> Result<(), Trap> {
        self.write_value(
            addr.0,
            AddrSpace::Cpu,
            Value::Ptr(target.0, AddrSpace::Cpu),
            Type::Ptr(AddrSpace::Cpu),
        )
    }
}

/// Decode `ty.size()` little-endian bytes into a [`Value`]. Pointer loads
/// yield CPU-space pointers (the SVM invariant — see
/// [`SharedRegion::read_value`]). Inlined into both simulators' loads.
#[inline(always)]
pub(crate) fn decode_value(bytes: &[u8], ty: Type) -> Value {
    match ty {
        Type::I1 | Type::I8 => Value::I(bytes[0] as i8 as i64),
        Type::I16 => Value::I(i16::from_le_bytes([bytes[0], bytes[1]]) as i64),
        Type::I32 => Value::I(i32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as i64),
        Type::I64 => Value::I(i64::from_le_bytes(bytes.try_into().unwrap())),
        Type::F32 => Value::F(f32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as f64),
        Type::F64 => Value::F(f64::from_le_bytes(bytes.try_into().unwrap())),
        Type::Ptr(_) => Value::Ptr(u64::from_le_bytes(bytes.try_into().unwrap()), AddrSpace::Cpu),
        Type::Void => unreachable!("load of void rejected by the verifier"),
    }
}

/// Encode a [`Value`] as `(little-endian bytes, length)`, enforcing the
/// store validation of [`SharedRegion::write_value`] (non-CPU pointers may
/// not escape into shared memory).
pub(crate) fn encode_value(v: Value, ty: Type) -> Result<([u8; 8], u8), Trap> {
    let mut out = [0u8; 8];
    let len = ty.size() as u8;
    match ty {
        Type::I1 | Type::I8 => out[0] = v.as_i() as u8,
        Type::I16 => out[..2].copy_from_slice(&(v.as_i() as i16).to_le_bytes()),
        Type::I32 => out[..4].copy_from_slice(&(v.as_i() as i32).to_le_bytes()),
        Type::I64 => out.copy_from_slice(&v.as_i().to_le_bytes()),
        Type::F32 => out[..4].copy_from_slice(&(v.as_f() as f32).to_le_bytes()),
        Type::F64 => out.copy_from_slice(&v.as_f().to_le_bytes()),
        Type::Ptr(_) => {
            let (a, sp) = v.as_ptr();
            if sp != AddrSpace::Cpu && a != 0 {
                return Err(Trap::WrongAddressSpace { found: sp, expected: AddrSpace::Cpu });
            }
            out.copy_from_slice(&a.to_le_bytes());
        }
        Type::Void => unreachable!("store of void rejected by the verifier"),
    }
    Ok((out, len))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn translation_round_trips() {
        let c = CpuAddr(CPU_BASE + 0x1234);
        assert_eq!(c.to_gpu().to_cpu(), c);
        assert_eq!(c.to_gpu().0, GPU_BASE + 0x1234);
    }

    #[test]
    fn device_heap_bump_aligns_and_refuses_what_does_not_fit() {
        assert_eq!(device_heap_bump(0, 4096, 8), None, "no heap");
        assert_eq!(device_heap_bump(1000, 1200, 100), Some((1008, 1108)));
        assert_eq!(device_heap_bump(1008, 1200, 0), Some((1008, 1009)), "at least one byte");
        assert_eq!(device_heap_bump(1008, 1100, 100), None, "exhausted");
        // A descriptor a kernel overwrote must not wrap into a small address.
        assert_eq!(device_heap_bump(u64::MAX - 3, u64::MAX, 1), None);
        assert_eq!(device_heap_bump(u64::MAX - 15, u64::MAX, 32), None);
    }

    #[test]
    fn same_bytes_visible_from_both_spaces() {
        let mut r = SharedRegion::new(4096, 0);
        let cpu = CPU_BASE + 64;
        let gpu = GPU_BASE + 64;
        r.write_value(cpu, AddrSpace::Cpu, Value::I(0x5a5a), Type::I32).unwrap();
        let v = r.read_value(gpu, AddrSpace::Gpu, Type::I32).unwrap();
        assert_eq!(v, Value::I(0x5a5a));
    }

    #[test]
    fn cpu_pointer_does_not_resolve_as_gpu() {
        let r = SharedRegion::new(4096, 0);
        // A CPU address presented as a GPU-space pointer is out of the GPU
        // surface's bounds: the fault the SVM pass prevents.
        let err = r.read_value(CPU_BASE + 8, AddrSpace::Gpu, Type::I32).unwrap_err();
        assert!(matches!(err, Trap::BadAddress { .. }));
    }

    #[test]
    fn null_and_out_of_bounds_fault() {
        let r = SharedRegion::new(128, 0);
        assert!(matches!(r.read_value(0, AddrSpace::Cpu, Type::I32), Err(Trap::BadAddress { .. })));
        assert!(matches!(
            r.read_value(CPU_BASE + 126, AddrSpace::Cpu, Type::I32),
            Err(Trap::BadAddress { .. })
        ));
        // Last valid word is fine.
        assert!(r.read_value(CPU_BASE + 124, AddrSpace::Cpu, Type::I32).is_ok());
    }

    #[test]
    fn private_pointer_never_resolves() {
        let r = SharedRegion::new(128, 0);
        let err = r.read_value(0x10, AddrSpace::Private, Type::I32).unwrap_err();
        assert!(matches!(err, Trap::WrongAddressSpace { .. }));
    }

    #[test]
    fn stored_pointers_are_cpu_representation() {
        let mut r = SharedRegion::new(4096, 0);
        let slot = CPU_BASE + 16;
        // Storing a GPU-space pointer into shared memory is a compiler bug.
        let err = r
            .write_value(
                slot,
                AddrSpace::Cpu,
                Value::Ptr(GPU_BASE + 32, AddrSpace::Gpu),
                Type::Ptr(AddrSpace::Gpu),
            )
            .unwrap_err();
        assert!(matches!(err, Trap::WrongAddressSpace { .. }));
        // CPU-space pointers store fine and read back tagged Cpu, even when
        // read through the GPU view.
        r.write_value(
            slot,
            AddrSpace::Cpu,
            Value::Ptr(CPU_BASE + 32, AddrSpace::Cpu),
            Type::Ptr(AddrSpace::Cpu),
        )
        .unwrap();
        let v = r.read_value(slot + SVM_CONST, AddrSpace::Gpu, Type::Ptr(AddrSpace::Cpu)).unwrap();
        assert_eq!(v, Value::Ptr(CPU_BASE + 32, AddrSpace::Cpu));
    }

    #[test]
    fn null_pointer_value_can_be_stored() {
        let mut r = SharedRegion::new(4096, 0);
        r.write_value(
            CPU_BASE + 8,
            AddrSpace::Cpu,
            Value::Ptr(0, AddrSpace::Gpu),
            Type::Ptr(AddrSpace::Gpu),
        )
        .unwrap();
        assert_eq!(r.read_ptr(CpuAddr(CPU_BASE + 8)).unwrap(), CpuAddr::NULL);
    }

    #[test]
    fn typed_round_trips() {
        let mut r = SharedRegion::new(4096, 0);
        let a = CpuAddr(CPU_BASE + 8);
        r.write_f32(a, 3.5).unwrap();
        assert_eq!(r.read_f32(a).unwrap(), 3.5);
        r.write_i64(a, -12345).unwrap();
        assert_eq!(r.read_i64(a).unwrap(), -12345);
        r.write_i32(a, -7).unwrap();
        assert_eq!(r.read_i32(a).unwrap(), -7);
    }

    #[test]
    fn narrow_types_round_trip() {
        let mut r = SharedRegion::new(4096, 0);
        r.write_value(CPU_BASE + 3, AddrSpace::Cpu, Value::I(-2), Type::I8).unwrap();
        assert_eq!(r.read_value(CPU_BASE + 3, AddrSpace::Cpu, Type::I8).unwrap(), Value::I(-2));
        r.write_value(CPU_BASE + 10, AddrSpace::Cpu, Value::I(-300), Type::I16).unwrap();
        assert_eq!(r.read_value(CPU_BASE + 10, AddrSpace::Cpu, Type::I16).unwrap(), Value::I(-300));
    }

    #[test]
    fn fences_toggle_pinning() {
        let mut r = SharedRegion::new(128, 0);
        assert!(!r.consistency().pinned);
        r.fence_to_gpu();
        assert!(r.consistency().pinned);
        assert_eq!(r.consistency().fences_to_gpu, 1);
        r.fence_to_cpu();
        assert!(!r.consistency().pinned);
        assert_eq!(r.consistency().fences_to_cpu, 1);
    }

    #[test]
    #[should_panic(expected = "reserved exceeds capacity")]
    fn reserved_bounds_checked() {
        let _ = SharedRegion::new(16, 32);
    }

    #[test]
    fn journal_records_host_writes_and_suspends() {
        let mut r = SharedRegion::new(4096, 0);
        r.write_i32(CpuAddr(CPU_BASE + 4), 1).unwrap(); // before: not recorded
        r.journal_writes(true);
        r.write_i32(CpuAddr(CPU_BASE + 8), 7).unwrap();
        // GPU-space writes journal under their CPU address.
        r.write_value(GPU_BASE + 16, AddrSpace::Gpu, Value::I(9), Type::I32).unwrap();
        let saved = r.suspend_journal();
        r.write_i32(CpuAddr(CPU_BASE + 24), 3).unwrap(); // suspended: not recorded
        r.restore_journal(saved);
        r.write_i32(CpuAddr(CPU_BASE + 32), 5).unwrap();
        // Failed writes are not recorded.
        assert!(r.write_i32(CpuAddr(0), 1).is_err());
        let writes = r.take_journaled_writes();
        let addrs: Vec<u64> = writes.iter().map(|(a, _)| *a).collect();
        assert_eq!(addrs, vec![CPU_BASE + 8, CPU_BASE + 16, CPU_BASE + 32]);
        assert!(r.take_journaled_writes().is_empty(), "drained");
        r.journal_writes(false);
        r.write_i32(CpuAddr(CPU_BASE + 8), 2).unwrap();
        assert!(r.take_journaled_writes().is_empty());
    }

    #[test]
    fn fence_elision_is_counted() {
        let mut r = SharedRegion::new(128, 0);
        r.note_fences_elided(2);
        r.note_fences_elided(0);
        assert_eq!(r.consistency().fences_elided, 2);
    }
}
