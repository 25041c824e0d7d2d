//! Shadowed access to the shared region for host-parallel simulation.
//!
//! When the simulators fan their chunks/warps out across host threads,
//! every chunk executes against an immutable snapshot of the shared region
//! plus a private write overlay ([`ShadowRegion`]), recording its stores
//! and atomics in an ordered [`MemOp`] log. After all chunks finish, the
//! launch commits the logs back into the real [`SharedRegion`] in fixed
//! chunk order — so the final bytes are a pure function of the launch
//! inputs and chunking, never of the host thread schedule.
//!
//! Atomics log the *operation*, not the resulting value: replaying
//! `atomic_min(p, 5)` then `atomic_min(p, 7)` against the real region
//! yields the correct global minimum even though each chunk computed its
//! local view against the snapshot.
//!
//! The [`RegionMem`] trait abstracts over direct access (serial execution,
//! or kernels using order-dependent features like `device_malloc`) and
//! shadowed access, so both interpreters run one code path for both modes.

use crate::region::{decode_value, encode_value, CpuAddr, SharedRegion};
use concord_ir::eval::{Trap, Value};
use concord_ir::types::{AddrSpace, Type};

/// Which read-modify-write an atomic performs (i32 semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomicKind {
    /// `*p += a1`, returns old.
    Add,
    /// `*p = min(*p, a1)`, returns old.
    Min,
    /// `if *p == a1 { *p = a2 }`, returns old.
    Cas,
}

/// The single shared definition of atomic semantics, used by both
/// simulators and by log replay (i64 domain, i32 values sign-extended).
#[inline]
pub fn apply_rmw(kind: AtomicKind, old: i64, a1: i64, a2: i64) -> i64 {
    match kind {
        AtomicKind::Add => old.wrapping_add(a1),
        AtomicKind::Min => old.min(a1),
        AtomicKind::Cas => {
            if old == a1 {
                a2
            } else {
                old
            }
        }
    }
}

/// One logged shared-memory mutation, keyed by *resolved region offset*
/// (so the CPU and GPU views of the same bytes unify).
#[derive(Debug, Clone, Copy)]
pub enum MemOp {
    /// A plain store of `len` bytes (all IR values are ≤ 8 bytes).
    Write {
        /// Resolved byte offset into the region.
        off: u64,
        /// Store width in bytes.
        len: u8,
        /// Little-endian value bytes (first `len` are meaningful).
        bytes: [u8; 8],
    },
    /// An atomic i32 read-modify-write, replayed against the live value.
    Atomic {
        /// Resolved byte offset into the region.
        off: u64,
        /// Operation kind.
        kind: AtomicKind,
        /// First operand.
        a1: i64,
        /// Second operand (CAS new value; unused otherwise).
        a2: i64,
    },
}

/// Uniform region access for the interpreters: either direct (serial) or
/// through a snapshot + write overlay (host-parallel).
pub trait RegionMem {
    /// The underlying region snapshot (for vtable dispatch and metadata).
    fn snapshot(&self) -> &SharedRegion;

    /// Typed read (see [`SharedRegion::read_value`]).
    ///
    /// # Errors
    ///
    /// Resolution faults ([`SharedRegion::resolve`]).
    fn read_val(&self, addr: u64, space: AddrSpace, ty: Type) -> Result<Value, Trap>;

    /// Typed write (see [`SharedRegion::write_value`]).
    ///
    /// # Errors
    ///
    /// Resolution faults and non-CPU pointer stores.
    fn write_val(&mut self, addr: u64, space: AddrSpace, v: Value, ty: Type) -> Result<(), Trap>;

    /// Atomic i32 read-modify-write; returns the old value.
    ///
    /// # Errors
    ///
    /// Resolution faults.
    fn atomic_i32(
        &mut self,
        addr: u64,
        space: AddrSpace,
        kind: AtomicKind,
        a1: i64,
        a2: i64,
    ) -> Result<i64, Trap>;

    /// Serve a `device_malloc(size)` from the region's device heap.
    ///
    /// # Errors
    ///
    /// Region faults reading the heap descriptor.
    fn device_alloc(&mut self, size: u64) -> Result<CpuAddr, Trap>;
}

impl RegionMem for SharedRegion {
    fn snapshot(&self) -> &SharedRegion {
        self
    }

    #[inline]
    fn read_val(&self, addr: u64, space: AddrSpace, ty: Type) -> Result<Value, Trap> {
        self.read_value(addr, space, ty)
    }

    #[inline]
    fn write_val(&mut self, addr: u64, space: AddrSpace, v: Value, ty: Type) -> Result<(), Trap> {
        self.write_value(addr, space, v, ty)
    }

    fn atomic_i32(
        &mut self,
        addr: u64,
        space: AddrSpace,
        kind: AtomicKind,
        a1: i64,
        a2: i64,
    ) -> Result<i64, Trap> {
        let old = self.read_value(addr, space, Type::I32)?.as_i();
        let new = apply_rmw(kind, old, a1, a2);
        self.write_value(addr, space, Value::I(new), Type::I32)?;
        Ok(old)
    }

    fn device_alloc(&mut self, size: u64) -> Result<CpuAddr, Trap> {
        self.device_malloc(size)
    }
}

/// Words per overlay page: a page covers 4 KiB of the region.
const PAGE_WORDS: usize = 512;

/// One 4 KiB page of the overlay: each 8-byte word's value bytes and its
/// per-byte valid mask.
#[derive(Debug)]
struct Page {
    words: [u64; PAGE_WORDS],
    masks: [u8; PAGE_WORDS],
}

/// Word-granularity write overlay: 8-byte-aligned words with a per-byte
/// valid mask, in 4 KiB pages found through a directory indexed by
/// `offset / 4096`. A page exists once a byte in it was written, and the
/// directory reaches only the highest page written, which
/// [`SharedRegion::resolve`] bounds by the region's capacity. No key is
/// hashed, so no choice of addresses makes a lookup slow. An access of at
/// most 8 bytes covers at most two words, each found by two indexings.
#[derive(Debug, Default)]
struct Overlay {
    /// page index (offset / 4096) → the page, once written.
    pages: Vec<Option<Box<Page>>>,
}

/// The words `[off, off + len)` covers: `(word index, first byte in the
/// word, byte count, first byte of the access)` for each.
fn word_pieces(off: u64, len: u64) -> impl Iterator<Item = (u64, u32, u32, usize)> {
    let end = off + len;
    (off / 8..end.div_ceil(8)).map(move |w| {
        let lo = off.max(w * 8);
        let hi = end.min(w * 8 + 8);
        (w, (lo - w * 8) as u32, (hi - lo) as u32, (lo - off) as usize)
    })
}

/// A word index's page and its position in the page.
fn page_of(w: u64) -> (usize, usize) {
    ((w / PAGE_WORDS as u64) as usize, (w % PAGE_WORDS as u64) as usize)
}

impl Overlay {
    /// Overwrite `buf[..len]`, which holds the base bytes at `off`, with
    /// whatever bytes of that range the overlay holds.
    fn merge_into(&self, off: u64, len: u64, buf: &mut [u8; 8]) {
        for (w, first, n, at) in word_pieces(off, len) {
            let (page, slot) = page_of(w);
            let Some(Some(page)) = self.pages.get(page) else { continue };
            let (bytes, mask) = (page.words[slot], page.masks[slot]);
            for i in 0..n {
                let b = first + i;
                if mask & (1 << b) != 0 {
                    buf[at + i as usize] = (bytes >> (8 * b)) as u8;
                }
            }
        }
    }

    /// Record `bytes` at `off` (at most 8 bytes).
    fn write(&mut self, off: u64, bytes: &[u8]) {
        for (w, first, n, at) in word_pieces(off, bytes.len() as u64) {
            let (page, slot) = page_of(w);
            if self.pages.len() <= page {
                self.pages.resize_with(page + 1, || None);
            }
            let page = self.pages[page].get_or_insert_with(|| {
                Box::new(Page { words: [0; PAGE_WORDS], masks: [0; PAGE_WORDS] })
            });
            let (word, mask) = (&mut page.words[slot], &mut page.masks[slot]);
            for i in 0..n {
                let b = first + i;
                let v = u64::from(bytes[at + i as usize]);
                *word = (*word & !(0xffu64 << (8 * b))) | (v << (8 * b));
                *mask |= 1 << b;
            }
        }
    }
}

/// A snapshot view of the shared region with a private write overlay and
/// an ordered mutation log. See the module docs for the commit protocol.
#[derive(Debug)]
pub struct ShadowRegion<'r> {
    base: &'r SharedRegion,
    overlay: Overlay,
    log: Vec<MemOp>,
}

impl<'r> ShadowRegion<'r> {
    /// A fresh shadow over `base` with an empty overlay and log.
    pub fn new(base: &'r SharedRegion) -> Self {
        ShadowRegion { base, overlay: Overlay::default(), log: Vec::new() }
    }

    /// Consume the shadow, yielding its mutation log in execution order.
    pub fn into_log(self) -> Vec<MemOp> {
        self.log
    }

    /// Read `len` (≤ 8) bytes at resolved offset `off`, overlay over base.
    fn read_merged(&self, off: u64, len: u64) -> [u8; 8] {
        let mut buf = [0u8; 8];
        buf[..len as usize].copy_from_slice(self.base.raw(off, len));
        if !self.overlay.pages.is_empty() {
            self.overlay.merge_into(off, len, &mut buf);
        }
        buf
    }
}

impl RegionMem for ShadowRegion<'_> {
    fn snapshot(&self) -> &SharedRegion {
        self.base
    }

    #[inline]
    fn read_val(&self, addr: u64, space: AddrSpace, ty: Type) -> Result<Value, Trap> {
        let len = ty.size();
        let off = self.base.resolve(addr, space, len)?;
        let buf = self.read_merged(off, len);
        Ok(decode_value(&buf[..len as usize], ty))
    }

    #[inline]
    fn write_val(&mut self, addr: u64, space: AddrSpace, v: Value, ty: Type) -> Result<(), Trap> {
        // Same fault order as the direct path: encode (pointer-space
        // validation) before resolution.
        let (bytes, len) = encode_value(v, ty)?;
        let off = self.base.resolve(addr, space, len as u64)?;
        self.overlay.write(off, &bytes[..len as usize]);
        self.log.push(MemOp::Write { off, len, bytes });
        Ok(())
    }

    fn atomic_i32(
        &mut self,
        addr: u64,
        space: AddrSpace,
        kind: AtomicKind,
        a1: i64,
        a2: i64,
    ) -> Result<i64, Trap> {
        let off = self.base.resolve(addr, space, 4)?;
        let buf = self.read_merged(off, 4);
        let old = i32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as i64;
        let new = apply_rmw(kind, old, a1, a2) as i32;
        self.overlay.write(off, &new.to_le_bytes());
        self.log.push(MemOp::Atomic { off, kind, a1, a2 });
        Ok(old)
    }

    fn device_alloc(&mut self, _size: u64) -> Result<CpuAddr, Trap> {
        unreachable!("device_malloc kernels are gated to the serial direct path")
    }
}

/// Replay one chunk's mutation log into the real region. Offsets were
/// validated at record time, so this writes the backing store directly.
pub fn apply_log(region: &mut SharedRegion, log: &[MemOp]) {
    for op in log {
        match *op {
            MemOp::Write { off, len, bytes } => {
                region.raw_mut(off, len as u64).copy_from_slice(&bytes[..len as usize]);
            }
            MemOp::Atomic { off, kind, a1, a2 } => {
                let cur = region.raw(off, 4);
                let old = i32::from_le_bytes([cur[0], cur[1], cur[2], cur[3]]) as i64;
                let new = apply_rmw(kind, old, a1, a2) as i32;
                region.raw_mut(off, 4).copy_from_slice(&new.to_le_bytes());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::CPU_BASE;

    /// Three 4 KiB overlay pages.
    fn region() -> SharedRegion {
        SharedRegion::new(3 * 4096, 0)
    }

    #[test]
    fn reads_see_own_writes_but_base_is_untouched() {
        let mut r = region();
        r.write_i32(CpuAddr(CPU_BASE + 8), 7).unwrap();
        let mut s = ShadowRegion::new(&r);
        assert_eq!(s.read_val(CPU_BASE + 8, AddrSpace::Cpu, Type::I32).unwrap(), Value::I(7));
        s.write_val(CPU_BASE + 8, AddrSpace::Cpu, Value::I(42), Type::I32).unwrap();
        assert_eq!(s.read_val(CPU_BASE + 8, AddrSpace::Cpu, Type::I32).unwrap(), Value::I(42));
        // The middle page was never written: a read of it, at the offset
        // written in the pages on either side, sees the base.
        r.write_i64(CpuAddr(CPU_BASE + 4096 + 8), 0x1234).unwrap();
        let mut s = ShadowRegion::new(&r);
        s.write_val(CPU_BASE + 8, AddrSpace::Cpu, Value::I(42), Type::I32).unwrap();
        s.write_val(CPU_BASE + 2 * 4096 + 8, AddrSpace::Cpu, Value::I(5), Type::I64).unwrap();
        let middle = s.read_val(CPU_BASE + 4096 + 8, AddrSpace::Cpu, Type::I64).unwrap();
        assert_eq!(middle, Value::I(0x1234));
        let log = s.into_log();
        assert_eq!(r.read_i32(CpuAddr(CPU_BASE + 8)).unwrap(), 7, "base untouched before commit");
        apply_log(&mut r, &log);
        assert_eq!(r.read_i32(CpuAddr(CPU_BASE + 8)).unwrap(), 42);
    }

    #[test]
    fn unaligned_and_partial_writes_merge_with_base() {
        let mut r = region();
        r.write_i64(CpuAddr(CPU_BASE), 0x0102_0304_0506_0708).unwrap();
        let mut s = ShadowRegion::new(&r);
        // Overwrite byte 3 only; the i64 read must merge overlay + base.
        s.write_val(CPU_BASE + 3, AddrSpace::Cpu, Value::I(-1), Type::I8).unwrap();
        let v = s.read_val(CPU_BASE, AddrSpace::Cpu, Type::I64).unwrap().as_i();
        assert_eq!(v, 0x0102_0304_ff06_0708u64 as i64);
        // A write spanning a word boundary round-trips.
        s.write_val(CPU_BASE + 6, AddrSpace::Cpu, Value::I(-2), Type::I32).unwrap();
        assert_eq!(s.read_val(CPU_BASE + 6, AddrSpace::Cpu, Type::I32).unwrap(), Value::I(-2));
        // So do an 8-byte write and an atomic that straddle the boundary of
        // two overlay pages, and a write to the region's last word; the
        // committed log leaves the same bytes in the region.
        let straddle = CPU_BASE + 4096 - 3;
        s.write_val(straddle, AddrSpace::Cpu, Value::I(0x1122_3344_5566_7788), Type::I64).unwrap();
        let v = s.read_val(straddle, AddrSpace::Cpu, Type::I64).unwrap();
        assert_eq!(v, Value::I(0x1122_3344_5566_7788));
        let old = s.atomic_i32(CPU_BASE + 4096 - 2, AddrSpace::Cpu, AtomicKind::Add, 1, 0);
        assert_eq!(old.unwrap(), 0x4455_6677);
        let last = CPU_BASE + r.capacity() - 8;
        s.write_val(last, AddrSpace::Cpu, Value::I(-9), Type::I64).unwrap();
        assert_eq!(s.read_val(last, AddrSpace::Cpu, Type::I64).unwrap(), Value::I(-9));
        let log = s.into_log();
        apply_log(&mut r, &log);
        assert_eq!(r.read_i64(CpuAddr(straddle)).unwrap(), 0x1122_3344_5566_7888);
        assert_eq!(r.read_i64(CpuAddr(last)).unwrap(), -9);
    }

    #[test]
    fn gpu_and_cpu_views_alias_in_the_overlay() {
        let r = region();
        let mut s = ShadowRegion::new(&r);
        s.write_val(CPU_BASE + 16, AddrSpace::Cpu, Value::I(9), Type::I32).unwrap();
        let via_gpu = s.read_val(crate::region::GPU_BASE + 16, AddrSpace::Gpu, Type::I32).unwrap();
        assert_eq!(via_gpu, Value::I(9));
    }

    #[test]
    fn atomic_replay_merges_across_shadows() {
        let mut r = region();
        r.write_i32(CpuAddr(CPU_BASE + 4), 10).unwrap();
        // Two independent shadows (as two parallel chunks would be).
        let mut s1 = ShadowRegion::new(&r);
        let mut s2 = ShadowRegion::new(&r);
        assert_eq!(s1.atomic_i32(CPU_BASE + 4, AddrSpace::Cpu, AtomicKind::Min, 5, 0).unwrap(), 10);
        assert_eq!(s2.atomic_i32(CPU_BASE + 4, AddrSpace::Cpu, AtomicKind::Min, 7, 0).unwrap(), 10);
        let (l1, l2) = (s1.into_log(), s2.into_log());
        apply_log(&mut r, &l1);
        apply_log(&mut r, &l2);
        assert_eq!(r.read_i32(CpuAddr(CPU_BASE + 4)).unwrap(), 5, "global min survives replay");
    }

    #[test]
    fn atomic_add_and_cas_semantics() {
        assert_eq!(apply_rmw(AtomicKind::Add, 3, 4, 0), 7);
        assert_eq!(apply_rmw(AtomicKind::Min, 3, 4, 0), 3);
        assert_eq!(apply_rmw(AtomicKind::Cas, 3, 3, 9), 9);
        assert_eq!(apply_rmw(AtomicKind::Cas, 3, 4, 9), 3);
    }

    #[test]
    fn shadow_faults_match_direct_faults() {
        let r = region();
        let mut s = ShadowRegion::new(&r);
        assert!(matches!(s.read_val(0, AddrSpace::Cpu, Type::I32), Err(Trap::BadAddress { .. })));
        // The first byte past the region, alone and as the tail of an
        // access.
        for (back, ty) in [(0, Type::I8), (4, Type::I64), (3, Type::I32)] {
            let addr = CPU_BASE + r.capacity() - back;
            let direct = r.read_value(addr, AddrSpace::Cpu, ty).unwrap_err();
            assert!(matches!(direct, Trap::BadAddress { .. }), "{direct:?}");
            assert_eq!(s.read_val(addr, AddrSpace::Cpu, ty).unwrap_err(), direct);
            let v = Value::zero(ty);
            assert_eq!(s.write_val(addr, AddrSpace::Cpu, v, ty).unwrap_err(), direct);
            if ty == Type::I32 {
                let atomic = s.atomic_i32(addr, AddrSpace::Cpu, AtomicKind::Add, 1, 0);
                assert_eq!(atomic.unwrap_err(), direct);
            }
        }
        assert!(s.into_log().is_empty(), "a faulting access logs nothing");
        let mut s = ShadowRegion::new(&r);
        assert!(matches!(
            s.write_val(
                CPU_BASE + 8,
                AddrSpace::Cpu,
                Value::Ptr(crate::region::GPU_BASE + 8, AddrSpace::Gpu),
                Type::Ptr(AddrSpace::Gpu)
            ),
            Err(Trap::WrongAddressSpace { .. })
        ));
    }
}
