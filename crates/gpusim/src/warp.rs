//! SIMT warp execution.
//!
//! A warp is one GPU hardware thread: `simd_width` lanes executing the same
//! instruction under an active mask. Divergence is modeled by *pending
//! masks*: every basic block accumulates the lanes waiting to execute it,
//! and blocks run in forward-topological priority order (innermost loops
//! first), which reconverges lanes at post-dominators exactly like an
//! ipdom reconvergence stack — but handles loops iteratively.
//!
//! Each executed block charges one issue cycle per instruction for the
//! *whole warp*, so divergent regions pay for both paths — the
//! fundamental SIMT penalty that makes FaceDetect's 22-stage early-exit
//! cascade perform poorly on the GPU (§5.2.3).
//!
//! The interpreter runs the decoded functions of a [`Program`], never IR:
//! blocks are already in priority order, so the next block to run is the
//! lowest set bit of a bitset, and a block's phis are one parallel copy
//! list per incoming edge. A call's registers are one slab, `[slot][lane]`,
//! with a mask per slot of the lanes that defined it. An instruction checks
//! its operands' masks once (an undefined operand traps
//! [`Trap::Unreachable`]) and then runs one loop over the active lanes,
//! evaluating arithmetic, compares and casts through `concord_ir::eval`,
//! as the CPU simulator does.
//!
//! A warp's lane stacks, local memory and register slabs live in a
//! `WarpState` the simulator recycles across warps and launches. Taking
//! one zeroes the bytes its previous warp wrote and rewinds every stack,
//! so each warp starts from exactly the bytes and stack pointers a fresh
//! allocation would have.

use crate::program::{Block, Func, Inst, Kind, Program, Slot, NO_EDGE, NO_SRC};
use concord_cpusim::interp::{WorkIds, PRIVATE_BASE};
use concord_energy::GpuConfig;
use concord_ir::eval::{eval_bin, eval_cast, eval_fcmp, eval_icmp, Trap, Value};
use concord_ir::inst::{BlockId, FuncId, Intrinsic};
use concord_ir::types::{AddrSpace, Type};
use concord_svm::{apply_rmw, AtomicKind, RegionMem, CPU_BASE, GPU_BASE, SVM_CONST};
use concord_trace::Args;

/// Base address of work-group local memory.
pub const LOCAL_BASE: u64 = 0x2000_0000;

/// Lane activity mask (bit per lane).
pub type Mask = u32;

/// The widest warp a [`Mask`] describes.
pub(crate) const MAX_WIDTH: usize = Mask::BITS as usize;

/// Where an address lives, from the GPU's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpuSpace {
    /// Per-lane private memory.
    Private,
    /// Work-group local memory.
    Local,
    /// The shared region via the GPU surface.
    Shared,
}

/// Classify a raw address for the GPU memory router.
///
/// # Errors
///
/// CPU-space addresses fault ([`Trap::WrongAddressSpace`]): the GPU cannot
/// dereference an untranslated shared pointer — this is the check that
/// makes the SVM lowering pass load-bearing.
pub fn gpu_classify(addr: u64) -> Result<GpuSpace, Trap> {
    if addr >= GPU_BASE {
        Ok(GpuSpace::Shared)
    } else if addr >= CPU_BASE {
        Err(Trap::WrongAddressSpace { found: AddrSpace::Cpu, expected: AddrSpace::Gpu })
    } else if addr >= LOCAL_BASE {
        Ok(GpuSpace::Local)
    } else if addr >= PRIVATE_BASE {
        Ok(GpuSpace::Private)
    } else {
        Err(Trap::BadAddress { addr, space: AddrSpace::Gpu })
    }
}

fn classify_value(raw: u64) -> AddrSpace {
    if raw >= GPU_BASE {
        AddrSpace::Gpu
    } else if raw >= CPU_BASE {
        AddrSpace::Cpu
    } else if raw >= LOCAL_BASE {
        AddrSpace::Local
    } else {
        AddrSpace::Private
    }
}

/// The lanes of `m`, lowest first.
pub(crate) fn lanes(mut m: Mask) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let l = m.trailing_zeros();
        m &= m.wrapping_sub(1);
        (l < Mask::BITS).then_some(l as usize)
    })
}

/// Accumulated warp timing.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct WarpTiming {
    /// Cycles the EU spent issuing this warp's instructions.
    pub(crate) issue: f64,
    /// Cycles stalled on memory (after latency hiding).
    pub(crate) stall: f64,
    /// Executed warp-instructions.
    pub(crate) insts: u64,
    /// Executed pointer translations (warp-wide).
    pub(crate) translations: u64,
    /// Shared-memory transactions (unique lines).
    pub(crate) transactions: u64,
    /// Contended transactions.
    pub(crate) contended: u64,
}

/// Sampling period for warp trace events (1 in N occurrences recorded).
///
/// Emitting an event per divergence or memory transaction would swamp the
/// ring buffer (and the wall clock), so each event class keeps a running
/// count and only every [`TRACE_SAMPLE_EVERY`]-th occurrence is recorded.
/// The counts themselves are carried on each sampled event, so nothing is
/// lost statistically.
pub const TRACE_SAMPLE_EVERY: u64 = 64;

pub(crate) fn sampled(count: &mut u64) -> bool {
    *count += 1;
    *count % TRACE_SAMPLE_EVERY == 1
}

/// One entry of a warp's deferred shared-memory/trace log.
///
/// Warps may execute concurrently on host threads, but the shared L3 and
/// the tracer are global: both are replayed from these logs at commit
/// time, warp by warp in launch order, so cache state, contention, and
/// trace output are identical for every host-thread count.
#[derive(Debug)]
pub(crate) enum LogItem {
    /// One coalesced shared-memory access: its unique line keys are the
    /// next `lines` entries of the warp's line log (`addr >> 6`,
    /// ascending).
    Access {
        /// How many line keys the access has.
        lines: u32,
        /// Number of lanes that touched shared memory.
        shared_lanes: u32,
        /// Warp-relative cycles (issue + local stall) at the access.
        ts_snap: f64,
    },
    /// A sampled trace event recorded during execution (divergence or
    /// reconvergence), emitted through the tracer at commit.
    Event {
        /// Event name.
        name: &'static str,
        /// Warp-relative cycles when the event fired.
        ts_snap: f64,
        /// Event arguments.
        args: Args,
    },
}

/// One call's register file: `vals[slot * width + lane]`, and per slot the
/// lanes that have defined it.
#[derive(Debug, Default)]
struct Regs {
    width: usize,
    vals: Vec<Value>,
    defined: Vec<Mask>,
}

impl Regs {
    fn reset(&mut self, width: usize, slots: usize) {
        self.width = width;
        if self.vals.len() < slots * width {
            self.vals.resize(slots * width, Value::I(0));
        }
        self.defined.clear();
        self.defined.resize(slots, 0);
    }

    /// [`Trap::Unreachable`] unless every lane of `m` has defined `s`.
    #[inline]
    fn need(&self, m: Mask, s: Slot) -> Result<(), Trap> {
        if self.defined[s as usize] & m == m {
            Ok(())
        } else {
            Err(Trap::Unreachable)
        }
    }

    #[inline]
    fn get(&self, s: Slot, l: usize) -> Value {
        self.vals[s as usize * self.width + l]
    }

    #[inline]
    fn set(&mut self, s: Slot, l: usize, v: Value) {
        self.vals[s as usize * self.width + l] = v;
    }

    /// The addresses pointer `p` holds on the lanes of `m`, in lane order.
    fn addresses(&self, m: Mask, p: Slot) -> ([u64; MAX_WIDTH], usize) {
        let mut addrs = [0u64; MAX_WIDTH];
        let mut n = 0;
        for l in lanes(m) {
            addrs[n] = self.get(p, l).as_ptr().0;
            n += 1;
        }
        (addrs, n)
    }

    /// Define `d` on the lanes of `m`: a lane's value is `f(lane)`, and the
    /// first lane to fail stops the op.
    #[inline(always)]
    fn define(
        &mut self,
        m: Mask,
        d: Slot,
        mut f: impl FnMut(&Self, usize) -> Result<Value, Trap>,
    ) -> Result<(), Trap> {
        for l in lanes(m) {
            let v = f(self, l)?;
            self.set(d, l, v);
        }
        self.defined[d as usize] |= m;
        Ok(())
    }

    #[inline(always)]
    fn map1(
        &mut self,
        m: Mask,
        d: Slot,
        a: Slot,
        f: impl Fn(Value) -> Result<Value, Trap>,
    ) -> Result<(), Trap> {
        self.need(m, a)?;
        self.define(m, d, |r, l| f(r.get(a, l)))
    }

    #[inline(always)]
    fn map2(
        &mut self,
        m: Mask,
        d: Slot,
        a: Slot,
        b: Slot,
        f: impl Fn(Value, Value) -> Result<Value, Trap>,
    ) -> Result<(), Trap> {
        self.need(m, a)?;
        self.need(m, b)?;
        self.define(m, d, |r, l| f(r.get(a, l), r.get(b, l)))
    }

    /// Run a register-only instruction — constant, arithmetic, compare,
    /// cast, select or `Gep` — over the lanes of `m`.
    fn alu(&mut self, inst: &Inst, m: Mask) -> Result<(), Trap> {
        let d = inst.dst;
        match inst.kind {
            Kind::Const(v) => self.define(m, d, |_, _| Ok(v)),
            Kind::Bin(op, ty, a, b) => self.map2(m, d, a, b, |x, y| eval_bin(op, x, y, ty)),
            Kind::Icmp(p, a, b) => self.map2(m, d, a, b, |x, y| Ok(eval_icmp(p, x, y))),
            Kind::Fcmp(p, a, b) => self.map2(m, d, a, b, |x, y| Ok(eval_fcmp(p, x, y))),
            Kind::Cast(op, from, to, a) => self.map1(m, d, a, |v| Ok(eval_cast(op, v, from, to))),
            Kind::Select(c, a, b) => {
                self.need(m, c)?;
                self.need(m, a)?;
                self.need(m, b)?;
                self.define(m, d, |r, l| Ok(r.get(if r.get(c, l).as_bool() { a } else { b }, l)))
            }
            Kind::Gep(base, off) => self.map2(m, d, base, off, |p, o| {
                let (x, sp) = p.as_ptr();
                Ok(Value::Ptr(x.wrapping_add(o.as_i() as u64), sp))
            }),
            _ => unreachable!("{:?} is not a register-only instruction", inst.kind),
        }
    }
}

/// One call's state: its registers, the lanes waiting at each block, and
/// each lane's stack frame.
#[derive(Debug, Default)]
struct Frame {
    regs: Regs,
    /// Lanes waiting at each block.
    pending: Vec<Mask>,
    /// One bit per block with waiting lanes.
    ready: Vec<u64>,
    /// Lanes that took each phi edge since its block last ran.
    arrived: Vec<Mask>,
    /// Phi sources read before any phi is written: `[phi][lane]`.
    staged: Vec<Value>,
    /// Argument slab of a call this frame makes: `[argument][lane]`.
    args: Vec<Value>,
    /// Each lane's return value, and the lanes that returned.
    rets: Vec<Value>,
    returned: Mask,
    /// Per lane: its frame's base address, and the stack pointer to restore.
    frame_base: Vec<u64>,
    saved_sp: Vec<u64>,
}

impl Frame {
    /// Start `func` for the lanes of `mask`, with the argument slab `args`.
    fn enter(&mut self, func: &Func, width: usize, mask: Mask, args: &[Value]) {
        self.regs.reset(width, func.slots);
        for i in 0..func.params.min(args.len() / width) {
            for l in lanes(mask) {
                self.regs.set(i as Slot, l, args[i * width + l]);
            }
            self.regs.defined[i] = mask;
        }
        let blocks = func.blocks.len();
        self.pending.clear();
        self.pending.resize(blocks, 0);
        self.ready.clear();
        self.ready.resize(blocks.div_ceil(64), 0);
        self.arrived.clear();
        self.arrived.resize(func.edges.len(), 0);
        self.staged.resize(func.max_phis * width, Value::I(0));
        self.rets.resize(width, Value::I(0));
        self.returned = 0;
        self.frame_base.resize(width, 0);
        self.saved_sp.resize(width, 0);
        self.wake(func.entry, func.entry_edge, mask);
    }

    /// The argument slab of a call passing `slots`, for the lanes of `m`.
    fn gather(&mut self, slots: &[Slot], m: Mask) -> Result<&[Value], Trap> {
        let width = self.regs.width;
        for &a in slots {
            self.regs.need(m, a)?;
        }
        self.args.resize(slots.len() * width, Value::I(0));
        for (i, &a) in slots.iter().enumerate() {
            for l in lanes(m) {
                self.args[i * width + l] = self.regs.get(a, l);
            }
        }
        Ok(&self.args)
    }

    /// Queue the lanes of `m` at block `b`, arriving over phi edge `edge`.
    #[inline]
    fn wake(&mut self, b: u32, edge: u32, m: Mask) {
        if m == 0 {
            return;
        }
        self.pending[b as usize] |= m;
        self.ready[b as usize / 64] |= 1 << (b % 64);
        if edge != NO_EDGE {
            self.arrived[edge as usize] |= m;
        }
    }

    /// Take the first block with waiting lanes, and those lanes.
    #[inline]
    fn next_block(&mut self) -> Option<(usize, Mask)> {
        let w = self.ready.iter().position(|&bits| bits != 0)?;
        let b = w * 64 + self.ready[w].trailing_zeros() as usize;
        self.ready[w] &= self.ready[w] - 1;
        Some((b, std::mem::take(&mut self.pending[b])))
    }
}

/// A warp's recyclable memory: lane stacks, work-group local memory,
/// work-item ids, and one register frame per call depth.
#[derive(Debug)]
pub(crate) struct WarpState {
    width: usize,
    stack_bytes: usize,
    /// Lane `l`'s private memory is `stacks[l * stack_bytes..][..stack_bytes]`.
    stacks: Vec<u8>,
    sp: Vec<u64>,
    /// Per lane: every byte written since the last reset lies below this.
    stack_dirty: Vec<usize>,
    local: Vec<u8>,
    local_dirty: usize,
    pub(crate) ids: Vec<WorkIds>,
    frames: Vec<Frame>,
}

impl WarpState {
    pub(crate) fn new(cfg: &GpuConfig) -> WarpState {
        let width = cfg.simd_width as usize;
        assert!(width <= MAX_WIDTH, "a warp has at most {MAX_WIDTH} lanes");
        let stack_bytes = cfg.private_bytes as usize;
        WarpState {
            width,
            stack_bytes,
            stacks: vec![0; width * stack_bytes],
            sp: vec![0; width],
            stack_dirty: vec![0; width],
            local: vec![0; cfg.local_bytes as usize],
            local_dirty: 0,
            ids: vec![WorkIds::default(); width],
            frames: Vec::new(),
        }
    }

    /// Zero what the last warp wrote and rewind every stack.
    pub(crate) fn reset(&mut self) {
        for l in 0..self.width {
            let base = l * self.stack_bytes;
            self.stacks[base..base + self.stack_dirty[l]].fill(0);
            self.stack_dirty[l] = 0;
            self.sp[l] = 0;
        }
        self.local[..self.local_dirty].fill(0);
        self.local_dirty = 0;
    }

    /// Reserve a `size`-byte frame on lane `l`'s stack, 16-byte aligned;
    /// returns its offset.
    pub(crate) fn push_frame(&mut self, l: usize, size: u64) -> Result<u64, Trap> {
        let base = self.sp[l].div_ceil(16) * 16;
        if base + size > self.stack_bytes as u64 {
            return Err(Trap::StackOverflow);
        }
        self.sp[l] = base + size;
        Ok(base)
    }

    /// The byte range of `[addr, addr + len)` on lane `l`'s stack.
    fn private(&self, l: usize, addr: u64, len: usize) -> Result<std::ops::Range<usize>, Trap> {
        let off = addr.wrapping_sub(PRIVATE_BASE);
        if off.checked_add(len as u64).is_none_or(|end| end > self.stack_bytes as u64) {
            return Err(Trap::BadAddress { addr, space: AddrSpace::Private });
        }
        let start = l * self.stack_bytes + off as usize;
        Ok(start..start + len)
    }

    /// The byte range of `[addr, addr + len)` in local memory.
    fn local(&self, addr: u64, len: usize) -> Result<std::ops::Range<usize>, Trap> {
        let off = (addr - LOCAL_BASE) as usize;
        if off + len > self.local.len() {
            return Err(Trap::BadAddress { addr, space: AddrSpace::Local });
        }
        Ok(off..off + len)
    }
}

/// Decode a `ty` value stored in private or local memory; a pointer takes
/// the space its address range names.
fn load_value(b: &[u8], ty: Type) -> Value {
    match ty {
        Type::I1 | Type::I8 => Value::I(b[0] as i8 as i64),
        Type::I16 => Value::I(i16::from_le_bytes([b[0], b[1]]) as i64),
        Type::I32 => Value::I(i32::from_le_bytes(b.try_into().unwrap()) as i64),
        Type::I64 => Value::I(i64::from_le_bytes(b.try_into().unwrap())),
        Type::F32 => Value::F(f32::from_le_bytes(b.try_into().unwrap()) as f64),
        Type::F64 => Value::F(f64::from_le_bytes(b.try_into().unwrap())),
        Type::Ptr(_) => {
            let raw = u64::from_le_bytes(b.try_into().unwrap());
            Value::Ptr(raw, classify_value(raw))
        }
        Type::Void => unreachable!(),
    }
}

/// Encode `v` as a stored `ty` into `out` (`ty.size()` bytes).
fn store_value(v: Value, ty: Type, out: &mut [u8]) {
    match ty {
        Type::I1 | Type::I8 => out[0] = v.as_i() as u8,
        Type::I16 => out.copy_from_slice(&(v.as_i() as i16).to_le_bytes()),
        Type::I32 => out.copy_from_slice(&(v.as_i() as i32).to_le_bytes()),
        Type::I64 => out.copy_from_slice(&v.as_i().to_le_bytes()),
        Type::F32 => out.copy_from_slice(&(v.as_f() as f32).to_le_bytes()),
        Type::F64 => out.copy_from_slice(&v.as_f().to_le_bytes()),
        Type::Ptr(_) => out.copy_from_slice(&v.as_ptr().0.to_le_bytes()),
        Type::Void => unreachable!(),
    }
}

/// One warp's execution context.
///
/// Generic over the memory view `M`: a live `SharedRegion` for the serial
/// (in-order) path, or a `ShadowRegion` snapshot + write-log when warps fan
/// out over host threads. L3 traffic and trace events always go to
/// [`Warp::log`] and are replayed in warp order at commit.
pub(crate) struct Warp<'a, M: RegionMem> {
    /// The decoded GPU module.
    pub(crate) program: &'a Program,
    /// Shared memory (live or shadowed).
    pub(crate) region: &'a mut M,
    /// Lane stacks, local memory, work-item ids and register slabs.
    pub(crate) st: &'a mut WarpState,
    /// Accumulated timing (issue + private/local stall; L3 stall is added
    /// at commit from the log).
    pub(crate) timing: WarpTiming,
    /// Remaining warp-instruction budget.
    pub(crate) step_budget: u64,
    /// Effective latency-hiding factor: how many warps are resident per EU
    /// (1 ≤ hiding ≤ threads_per_eu). Under-occupied launches hide little
    /// latency, which is what sinks small irregular kernels on real GPUs.
    pub(crate) hiding: f64,
    /// Whether to record sampled trace events into the log.
    pub(crate) trace_enabled: bool,
    /// Deferred L3 accesses and trace events, replayed at commit.
    pub(crate) log: Vec<LogItem>,
    /// The line keys of the logged accesses, access after access.
    pub(crate) lines: Vec<u64>,
    /// Running divergence count (sampling state).
    pub(crate) divergences: u64,
    /// Running reconvergence count (sampling state).
    pub(crate) reconvergences: u64,
    /// Next-frontier push segment of the enclosing worklist round, if any.
    /// `push(item)` appends here per active lane in lane order; `None`
    /// outside `parallel_worklist_hetero` (where the intrinsic traps).
    pub(crate) wl: Option<Vec<i32>>,
}

impl<'a, M: RegionMem> Warp<'a, M> {
    /// Warp-relative cycle snapshot for log timestamps.
    fn ts_snap(&self) -> f64 {
        self.timing.issue + self.timing.stall
    }

    fn note_divergence(&mut self, fname: &str, block: BlockId, mt: Mask, me: Mask) {
        if !self.trace_enabled {
            return;
        }
        if !sampled(&mut self.divergences) {
            return;
        }
        self.log.push(LogItem::Event {
            name: "divergence",
            ts_snap: self.ts_snap(),
            args: vec![
                ("fn", fname.into()),
                ("block", i64::from(block.0).into()),
                ("taken_lanes", i64::from(mt.count_ones()).into()),
                ("not_taken_lanes", i64::from(me.count_ones()).into()),
                ("count", self.divergences.into()),
            ],
        });
    }

    fn note_reconverge(&mut self, fname: &str, block: BlockId, before: u32, after: u32) {
        if !self.trace_enabled {
            return;
        }
        if !sampled(&mut self.reconvergences) {
            return;
        }
        self.log.push(LogItem::Event {
            name: "reconverge",
            ts_snap: self.ts_snap(),
            args: vec![
                ("fn", fname.into()),
                ("block", i64::from(block.0).into()),
                ("lanes_before", i64::from(before).into()),
                ("lanes_after", i64::from(after).into()),
                ("count", self.reconvergences.into()),
            ],
        });
    }

    /// A SIMD16 instruction occupies Gen's 8-wide FPUs for two cycles, so
    /// every warp instruction is charged `cycles × ISSUE_FACTOR`.
    fn issue(&mut self, cycles: f64) {
        const ISSUE_FACTOR: f64 = 2.0;
        self.timing.issue += cycles * ISSUE_FACTOR;
        self.timing.insts += 1;
    }

    // ---- memory routing ----

    fn lane_read(&mut self, lane: usize, addr: u64, ty: Type) -> Result<Value, Trap> {
        let len = ty.size() as usize;
        match gpu_classify(addr)? {
            GpuSpace::Private => {
                Ok(load_value(&self.st.stacks[self.st.private(lane, addr, len)?], ty))
            }
            GpuSpace::Local => Ok(load_value(&self.st.local[self.st.local(addr, len)?], ty)),
            GpuSpace::Shared => match self.region.read_val(addr, AddrSpace::Gpu, ty)? {
                Value::Ptr(raw, _) if ty.is_ptr() => Ok(Value::Ptr(raw, classify_value(raw))),
                v => Ok(v),
            },
        }
    }

    fn lane_write(&mut self, lane: usize, addr: u64, v: Value, ty: Type) -> Result<(), Trap> {
        let len = ty.size() as usize;
        match gpu_classify(addr)? {
            GpuSpace::Private => {
                let bytes = self.st.private(lane, addr, len)?;
                let dirty = bytes.end - lane * self.st.stack_bytes;
                store_value(v, ty, &mut self.st.stacks[bytes]);
                self.st.stack_dirty[lane] = self.st.stack_dirty[lane].max(dirty);
                Ok(())
            }
            GpuSpace::Local => {
                let bytes = self.st.local(addr, len)?;
                self.st.local_dirty = self.st.local_dirty.max(bytes.end);
                store_value(v, ty, &mut self.st.local[bytes]);
                Ok(())
            }
            GpuSpace::Shared => self.region.write_val(addr, AddrSpace::Gpu, v, ty),
        }
    }

    /// Charge the memory system for a warp-wide access to per-lane
    /// addresses; shared accesses coalesce to unique lines. Private/local
    /// cost is charged live; the coalesced line set is logged and charged
    /// against the shared L3 at commit, in warp order.
    fn charge_access(&mut self, addrs: &[u64]) {
        let mut lines = [0u64; MAX_WIDTH];
        let mut shared = 0;
        for &addr in addrs {
            if addr >= GPU_BASE {
                lines[shared] = addr >> 6;
                shared += 1;
            }
        }
        if shared < addrs.len() {
            // Private/local: on-chip, fast, no coalescing concerns.
            self.timing.stall += 1.0;
        }
        if shared > 0 {
            let lines = &mut lines[..shared];
            lines.sort_unstable();
            let mut unique = 1;
            for i in 1..shared {
                if lines[i] != lines[unique - 1] {
                    lines[unique] = lines[i];
                    unique += 1;
                }
            }
            self.lines.extend_from_slice(&lines[..unique]);
            let ts_snap = self.ts_snap();
            self.log.push(LogItem::Access {
                lines: unique as u32,
                shared_lanes: shared as u32,
                ts_snap,
            });
        }
    }

    // ---- execution ----

    /// Execute `fid` in lockstep for the lanes in `mask`. `args` is the
    /// call's argument slab, `[argument][lane]`; afterwards the frame at
    /// `depth` holds each lane's return value.
    ///
    /// # Errors
    ///
    /// Any [`Trap`], including CPU-space dereferences (missing SVM
    /// translations) and un-devirtualized virtual calls.
    pub(crate) fn exec(
        &mut self,
        mask: Mask,
        fid: FuncId,
        args: &[Value],
        depth: u32,
    ) -> Result<(), Trap> {
        if depth > 48 {
            return Err(Trap::StackOverflow);
        }
        let program = self.program;
        let func = program.func(fid);
        let d = depth as usize;
        if self.st.frames.len() <= d {
            self.st.frames.resize_with(d + 1, Frame::default);
        }
        let mut fr = std::mem::take(&mut self.st.frames[d]);
        fr.enter(func, self.st.width, mask, args);
        // Per-lane stack frames (active lanes only), popped on every exit.
        for l in lanes(mask) {
            fr.saved_sp[l] = self.st.sp[l];
        }
        let mut result = Ok(());
        for l in lanes(mask) {
            match self.st.push_frame(l, func.frame_size) {
                Ok(base) => fr.frame_base[l] = PRIVATE_BASE + base,
                Err(t) => {
                    result = Err(t);
                    break;
                }
            }
        }
        if result.is_ok() {
            result = self.run(&mut fr, func, args, depth);
        }
        for l in lanes(mask) {
            self.st.sp[l] = fr.saved_sp[l];
        }
        self.st.frames[d] = fr;
        result
    }

    /// Run `func`'s blocks until no lane waits at any of them.
    fn run(&mut self, fr: &mut Frame, func: &Func, args: &[Value], depth: u32) -> Result<(), Trap> {
        let width = self.st.width;
        // Active-lane count of the previously executed block; a jump back up
        // (more lanes than last time) means divergent paths rejoined here.
        let mut last_active: u32 = 0;
        'blocks: while let Some((b, m)) = fr.next_block() {
            let block = &func.blocks[b];
            let act = m.count_ones();
            if act > last_active && last_active > 0 {
                self.note_reconverge(&func.name, block.id, last_active, act);
            }
            last_active = act;
            if block.phis > 0 {
                self.phis(fr, func, block)?;
            }
            for inst in &func.ops[block.ops.0 as usize..block.ops.1 as usize] {
                if self.step_budget == 0 {
                    return Err(Trap::StepLimitExceeded {
                        kernel: func.name.clone(),
                        global_id: self.st.ids[m.trailing_zeros() as usize].global,
                    });
                }
                self.step_budget -= 1;
                if let Some(cycles) = inst.issue {
                    self.issue(cycles);
                }
                let d = inst.dst;
                match inst.kind {
                    Kind::Param(i) => {
                        let i = i as usize * width;
                        fr.regs.define(m, d, |_, l| Ok(args[i + l]))?;
                    }
                    Kind::Alloca(off) => {
                        let base = &fr.frame_base;
                        let ptr = |l: usize| Value::Ptr(base[l] + off, AddrSpace::Private);
                        fr.regs.define(m, d, |_, l| Ok(ptr(l)))?;
                    }
                    Kind::Load(ty, p) => self.load(fr, m, d, ty, p)?,
                    Kind::Store(ty, p, v) => self.store(fr, m, ty, p, v)?,
                    Kind::CpuToGpu(p) => {
                        self.timing.translations += 1;
                        fr.regs.map1(m, d, p, |v| {
                            Ok(match v.as_ptr() {
                                (addr, AddrSpace::Cpu) if addr != 0 => {
                                    Value::Ptr(addr.wrapping_add(SVM_CONST), AddrSpace::Gpu)
                                }
                                (addr, sp) => Value::Ptr(addr, sp),
                            })
                        })?;
                    }
                    Kind::GpuToCpu(p) => {
                        self.timing.translations += 1;
                        fr.regs.map1(m, d, p, |v| {
                            Ok(match v.as_ptr() {
                                (addr, AddrSpace::Gpu) if addr != 0 => {
                                    Value::Ptr(addr.wrapping_sub(SVM_CONST), AddrSpace::Cpu)
                                }
                                (addr, sp) => Value::Ptr(addr, sp),
                            })
                        })?;
                    }
                    Kind::Call { callee, args, returns } => {
                        let args =
                            fr.gather(&func.operands[args.0 as usize..args.1 as usize], m)?;
                        self.exec(m, callee, args, depth + 1)?;
                        if returns {
                            let callee = &self.st.frames[depth as usize + 1];
                            if callee.returned & m != m {
                                return Err(Trap::Unreachable);
                            }
                            fr.regs.define(m, d, |_, l| Ok(callee.rets[l]))?;
                        }
                    }
                    Kind::CallVirtual(obj) => {
                        // The GPU has no function pointers; reaching an
                        // un-devirtualized call is a pipeline bug.
                        let l = m.trailing_zeros() as usize;
                        fr.regs.need(1 << l, obj)?;
                        let (vptr, _) = fr.regs.get(obj, l).as_ptr();
                        return Err(Trap::BadVirtualDispatch { vptr });
                    }
                    Kind::Intrinsic(intr, range, ty) => {
                        let iargs = &func.operands[range.0 as usize..range.1 as usize];
                        self.intrinsic(fr, intr, iargs, d, ty, m)?;
                    }
                    Kind::Br(t, edge) => {
                        fr.wake(t, edge, m);
                        continue 'blocks;
                    }
                    Kind::CondBr { cond, then, els } => {
                        fr.regs.need(m, cond)?;
                        let mut mt: Mask = 0;
                        for l in lanes(m) {
                            if fr.regs.get(cond, l).as_bool() {
                                mt |= 1 << l;
                            }
                        }
                        let me = m & !mt;
                        fr.wake(then.0, then.1, mt);
                        fr.wake(els.0, els.1, me);
                        if mt != 0 && me != 0 {
                            self.note_divergence(&func.name, block.id, mt, me);
                        }
                        continue 'blocks;
                    }
                    Kind::Ret(v) => {
                        if let Some(v) = v {
                            fr.regs.need(m, v)?;
                        }
                        for l in lanes(m) {
                            fr.rets[l] = v.map_or(Value::I(0), |v| fr.regs.get(v, l));
                        }
                        fr.returned |= m;
                        continue 'blocks;
                    }
                    Kind::Unreachable => return Err(Trap::Unreachable),
                    Kind::StrayPhi => unreachable!("phi group handled at block entry"),
                    _ => fr.regs.alu(inst, m)?,
                }
            }
            // The block fell off its end without a terminator.
            return Err(Trap::Unreachable);
        }
        Ok(())
    }

    /// The block's phi group: per incoming edge, read every source for the
    /// lanes that took it, then write every destination.
    fn phis(&mut self, fr: &mut Frame, func: &Func, block: &Block) -> Result<(), Trap> {
        let width = self.st.width;
        for e in block.edges.0..block.edges.1 {
            let m = std::mem::take(&mut fr.arrived[e as usize]);
            if m == 0 {
                continue;
            }
            let (start, end) = func.edges[e as usize];
            let copies = &func.copies[start as usize..end as usize];
            for (k, &(_, src)) in copies.iter().enumerate() {
                assert!(src != NO_SRC, "phi covers predecessor (verified IR)");
                fr.regs.need(m, src)?;
                for l in lanes(m) {
                    fr.staged[k * width + l] = fr.regs.get(src, l);
                }
            }
            for (k, &(dst, _)) in copies.iter().enumerate() {
                let staged = &fr.staged[k * width..];
                fr.regs.define(m, dst, |_, l| Ok(staged[l]))?;
            }
        }
        // Phis are register renames, not executed instructions.
        for _ in 0..block.phis {
            self.issue(0.25);
        }
        Ok(())
    }

    fn load(&mut self, fr: &mut Frame, m: Mask, d: Slot, ty: Type, p: Slot) -> Result<(), Trap> {
        fr.regs.need(m, p)?;
        let (addrs, n) = fr.regs.addresses(m, p);
        self.charge_access(&addrs[..n]);
        for (l, &addr) in lanes(m).zip(&addrs[..n]) {
            let v = self.lane_read(l, addr, ty)?;
            fr.regs.set(d, l, v);
        }
        fr.regs.defined[d as usize] |= m;
        Ok(())
    }

    fn store(&mut self, fr: &Frame, m: Mask, ty: Type, p: Slot, v: Slot) -> Result<(), Trap> {
        fr.regs.need(m, p)?;
        fr.regs.need(m, v)?;
        let (addrs, n) = fr.regs.addresses(m, p);
        self.charge_access(&addrs[..n]);
        for (l, &addr) in lanes(m).zip(&addrs[..n]) {
            self.lane_write(l, addr, fr.regs.get(v, l), ty)?;
        }
        Ok(())
    }

    fn intrinsic(
        &mut self,
        fr: &mut Frame,
        intr: Intrinsic,
        iargs: &[Slot],
        d: Slot,
        ty: Type,
        m: Mask,
    ) -> Result<(), Trap> {
        for &a in iargs {
            fr.regs.need(m, a)?;
        }
        let arg = |regs: &Regs, k: usize, l: usize| regs.get(iargs[k], l);
        let hiding = self.hiding;
        match intr {
            Intrinsic::WlPush => {
                // Per-lane append into the warp's next-frontier segment, in
                // lane order. The ordered commit sorts and dedups the merged
                // segments, so frontier contents don't depend on the warp
                // schedule — shadowed execution is safe here.
                for l in lanes(m) {
                    let item = arg(&fr.regs, 0, l).as_i() as i32;
                    match &mut self.wl {
                        Some(seg) => seg.push(item),
                        None => {
                            return Err(Trap::BadIntrinsic("push outside parallel_worklist_hetero"))
                        }
                    }
                }
                Ok(())
            }
            Intrinsic::DeviceMalloc => {
                // Serialized atomic bump per requesting lane. (Gated to the
                // serial path, so `M` is always the live region here.)
                for l in lanes(m) {
                    let size = arg(&fr.regs, 0, l).as_i().max(0) as u64;
                    self.timing.stall += 20.0 / hiding;
                    let addr = self.region.device_alloc(size)?;
                    fr.regs.set(d, l, Value::Ptr(addr.0, AddrSpace::Cpu));
                }
                fr.regs.defined[d as usize] |= m;
                Ok(())
            }
            Intrinsic::AtomicAddI32 | Intrinsic::AtomicMinI32 | Intrinsic::AtomicCasI32 => {
                let kind = match intr {
                    Intrinsic::AtomicAddI32 => AtomicKind::Add,
                    Intrinsic::AtomicMinI32 => AtomicKind::Min,
                    _ => AtomicKind::Cas,
                };
                // Atomics serialize across lanes.
                for l in lanes(m) {
                    let (addr, _) = arg(&fr.regs, 0, l).as_ptr();
                    let a1 = arg(&fr.regs, 1, l).as_i();
                    let a2 = if iargs.len() > 2 { arg(&fr.regs, 2, l).as_i() } else { 0 };
                    self.timing.stall += 20.0 / hiding;
                    let old = match gpu_classify(addr)? {
                        // Shared memory goes through the region view so
                        // shadowed execution logs the *operation* and
                        // replays it against committed state (global
                        // min/add stay correct across warps).
                        GpuSpace::Shared => {
                            self.region.atomic_i32(addr, AddrSpace::Gpu, kind, a1, a2)?
                        }
                        _ => {
                            let old = self.lane_read(l, addr, Type::I32)?.as_i();
                            let new = apply_rmw(kind, old, a1, a2);
                            self.lane_write(l, addr, Value::I(new), Type::I32)?;
                            old
                        }
                    };
                    fr.regs.set(d, l, Value::I(old));
                }
                fr.regs.defined[d as usize] |= m;
                Ok(())
            }
            _ => {
                let f32r = |x: f64| Value::F(x as f32 as f64);
                let ids = &self.st.ids;
                let value = |regs: &Regs, l: usize| {
                    let a = |k| arg(regs, k, l);
                    match intr {
                        Intrinsic::GlobalId => Value::I(ids[l].global),
                        Intrinsic::GlobalSize => Value::I(ids[l].size),
                        Intrinsic::LocalId => Value::I(ids[l].local),
                        Intrinsic::GroupId => Value::I(ids[l].group),
                        Intrinsic::Barrier => Value::I(0), // warp-synchronous
                        Intrinsic::Sqrt => f32r(a(0).as_f().sqrt()),
                        Intrinsic::FAbs => f32r(a(0).as_f().abs()),
                        Intrinsic::Floor => f32r(a(0).as_f().floor()),
                        Intrinsic::Exp => f32r(a(0).as_f().exp()),
                        Intrinsic::Pow => f32r(a(0).as_f().powf(a(1).as_f())),
                        Intrinsic::FMin => f32r(a(0).as_f().min(a(1).as_f())),
                        Intrinsic::FMax => f32r(a(0).as_f().max(a(1).as_f())),
                        Intrinsic::SMin => Value::I(a(0).as_i().min(a(1).as_i())),
                        Intrinsic::SMax => Value::I(a(0).as_i().max(a(1).as_i())),
                        Intrinsic::AtomicAddI32
                        | Intrinsic::AtomicMinI32
                        | Intrinsic::AtomicCasI32
                        | Intrinsic::DeviceMalloc
                        | Intrinsic::WlPush => unreachable!("handled above"),
                    }
                };
                if ty == Type::Void {
                    return Ok(());
                }
                fr.regs.define(m, d, |regs, l| Ok(value(regs, l)))
            }
        }
    }

    /// Copy bytes between memory spaces on behalf of `lane`, charging the
    /// memory system (used for reduction body copies).
    ///
    /// # Errors
    ///
    /// Memory faults.
    pub(crate) fn lane_memcpy(
        &mut self,
        lane: usize,
        dst: u64,
        src: u64,
        size: u64,
    ) -> Result<(), Trap> {
        debug_assert!(size.is_multiple_of(8));
        for off in (0..size).step_by(8) {
            self.charge_access(&[src + off]);
            let v = self.lane_read(lane, src + off, Type::I64)?;
            self.charge_access(&[dst + off]);
            self.lane_write(lane, dst + off, v, Type::I64)?;
            self.issue(0.5);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use concord_ir::inst::BinOp;

    #[test]
    fn undefined_operands_trap_unreachable() {
        let mut regs = Regs::default();
        regs.reset(16, 3);
        regs.defined[0] = 0b0111;
        regs.defined[1] = Mask::MAX;
        let add = Inst { dst: 2, issue: None, kind: Kind::Bin(BinOp::Add, Type::I32, 0, 1) };
        assert_eq!(regs.alu(&add, 0b0011), Ok(()));
        assert_eq!(regs.alu(&add, 0b1001), Err(Trap::Unreachable));
    }
}
