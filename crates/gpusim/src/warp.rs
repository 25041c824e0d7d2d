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

use concord_cpusim::interp::{frame_layout, FrameLayout, PrivateMem, WorkIds, PRIVATE_BASE};
use concord_energy::GpuConfig;
use concord_ir::analysis::{find_loops, DomTree};
use concord_ir::eval::{eval_bin, eval_cast, eval_fcmp, eval_icmp, Trap, Value};
use concord_ir::inst::{BlockId, FuncId, Intrinsic, Op, ValueId};
use concord_ir::types::{AddrSpace, Type};
use concord_ir::Module;
use concord_svm::{apply_rmw, AtomicKind, RegionMem, CPU_BASE, GPU_BASE};
use concord_trace::Args;
use std::collections::{BTreeSet, HashMap};
use std::sync::Mutex;

/// Base address of work-group local memory.
pub const LOCAL_BASE: u64 = 0x2000_0000;

/// Lane activity mask (bit per lane).
pub type Mask = u32;

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

/// Per-lane state.
#[derive(Debug)]
pub struct Lane {
    /// Private memory (registers spill, allocas, reduction body copies).
    pub private: PrivateMem,
    /// Work-item ids for intrinsics.
    pub ids: WorkIds,
}

/// Accumulated warp timing.
#[derive(Debug, Clone, Copy, Default)]
pub struct WarpTiming {
    /// Cycles the EU spent issuing this warp's instructions.
    pub issue: f64,
    /// Cycles stalled on memory (after latency hiding).
    pub stall: f64,
    /// Executed warp-instructions.
    pub insts: u64,
    /// Executed pointer translations (warp-wide).
    pub translations: u64,
    /// Shared-memory transactions (unique lines).
    pub transactions: u64,
    /// Contended transactions.
    pub contended: u64,
}

/// Per-function execution metadata: frame layout + block scheduling
/// priorities.
#[derive(Debug, Clone)]
pub struct FuncMeta {
    layout: FrameLayout,
    /// Lower = execute earlier among pending blocks.
    priority: Vec<u32>,
}

/// Shared cache of function metadata for one module.
#[derive(Debug, Default)]
pub struct MetaCache {
    map: HashMap<FuncId, FuncMeta>,
}

impl MetaCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    fn get(&mut self, module: &Module, fid: FuncId) -> &FuncMeta {
        self.map.entry(fid).or_insert_with(|| {
            let f = module.function(fid);
            FuncMeta { layout: frame_layout(f), priority: block_priorities(f) }
        })
    }
}

/// Forward-topological block priorities with deeper loops first.
fn block_priorities(f: &concord_ir::Function) -> Vec<u32> {
    let n = f.blocks.len();
    let dom = DomTree::compute(f);
    let loops = find_loops(f);
    let depth_of =
        |b: BlockId| -> u32 { loops.iter().filter(|l| l.blocks.contains(&b)).count() as u32 };
    let rpo_index = |b: BlockId| dom.rpo_index(b).unwrap_or(usize::MAX);
    // Forward edges only (drop back edges: target dominates source).
    let mut indeg = vec![0u32; n];
    let mut fwd: Vec<Vec<usize>> = vec![Vec::new(); n];
    for b in f.block_ids() {
        for s in f.successors(b) {
            if !dom.dominates(s, b) {
                fwd[b.0 as usize].push(s.0 as usize);
                indeg[s.0 as usize] += 1;
            }
        }
    }
    let mut order = vec![u32::MAX; n];
    let mut avail: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut next = 0u32;
    while !avail.is_empty() {
        // Deeper loop first; tie-break on RPO for determinism.
        avail.sort_by_key(|&i| {
            (std::cmp::Reverse(depth_of(BlockId(i as u32))), rpo_index(BlockId(i as u32)))
        });
        let i = avail.remove(0);
        order[i] = next;
        next += 1;
        for &s in &fwd[i] {
            indeg[s] -= 1;
            if indeg[s] == 0 {
                avail.push(s);
            }
        }
    }
    // Unreachable blocks keep MAX (never scheduled).
    order
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
pub enum LogItem {
    /// One coalesced shared-memory access: the unique line keys
    /// (`addr >> 6`, ascending), how many lanes touched shared memory,
    /// and the warp-relative cycle time when it was issued.
    Access {
        /// Unique cache-line keys (address >> 6) in ascending order.
        lines: Vec<u64>,
        /// Number of lanes that touched shared memory.
        shared_lanes: usize,
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

/// One warp's execution context.
///
/// Generic over the memory view `M`: a live `SharedRegion` for the serial
/// (in-order) path, or a `ShadowRegion` snapshot + write-log when warps fan
/// out over host threads. L3 traffic and trace events always go to
/// [`Warp::log`] and are replayed in warp order at commit.
pub struct Warp<'a, M: RegionMem> {
    /// Module to execute (GPU-lowered).
    pub module: &'a Module,
    /// Shared memory (live or shadowed).
    pub region: &'a mut M,
    /// Timing parameters.
    pub cfg: &'a GpuConfig,
    /// Function metadata cache (shared across warps of a launch).
    pub meta: &'a Mutex<MetaCache>,
    /// Lane states (length = simd width).
    pub lanes: Vec<Lane>,
    /// Work-group local memory.
    pub local: Vec<u8>,
    /// EU this warp runs on.
    pub eu: u32,
    /// Scheduling wave (concurrent warps across EUs share a wave).
    pub wave: u32,
    /// Accumulated timing (issue + private/local stall; L3 stall is added
    /// at commit from the log).
    pub timing: WarpTiming,
    /// Remaining warp-instruction budget.
    pub step_budget: u64,
    /// Effective latency-hiding factor: how many warps are resident per EU
    /// (1 ≤ hiding ≤ threads_per_eu). Under-occupied launches hide little
    /// latency, which is what sinks small irregular kernels on real GPUs.
    pub hiding: f64,
    /// Whether to record sampled trace events into the log.
    pub trace_enabled: bool,
    /// Deferred L3 accesses and trace events, replayed at commit.
    pub log: Vec<LogItem>,
    /// Running divergence count (sampling state).
    pub divergences: u64,
    /// Running reconvergence count (sampling state).
    pub reconvergences: u64,
    /// Next-frontier push segment of the enclosing worklist round, if any.
    /// `push(item)` appends here per active lane in lane order; `None`
    /// outside `parallel_worklist_hetero` (where the intrinsic traps).
    pub wl: Option<Vec<i32>>,
}

impl<'a, M: RegionMem> Warp<'a, M> {
    fn width(&self) -> usize {
        self.lanes.len()
    }

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

    fn local_read(&self, addr: u64, ty: Type) -> Result<Value, Trap> {
        let off = (addr - LOCAL_BASE) as usize;
        let size = ty.size() as usize;
        if off + size > self.local.len() {
            return Err(Trap::BadAddress { addr, space: AddrSpace::Local });
        }
        let b = &self.local[off..off + size];
        Ok(match ty {
            Type::I1 | Type::I8 => Value::I(b[0] as i8 as i64),
            Type::I16 => Value::I(i16::from_le_bytes(b.try_into().unwrap()) as i64),
            Type::I32 => Value::I(i32::from_le_bytes(b.try_into().unwrap()) as i64),
            Type::I64 => Value::I(i64::from_le_bytes(b.try_into().unwrap())),
            Type::F32 => Value::F(f32::from_le_bytes(b.try_into().unwrap()) as f64),
            Type::F64 => Value::F(f64::from_le_bytes(b.try_into().unwrap())),
            Type::Ptr(_) => {
                let raw = u64::from_le_bytes(b.try_into().unwrap());
                Value::Ptr(raw, classify_value(raw))
            }
            Type::Void => unreachable!(),
        })
    }

    fn local_write(&mut self, addr: u64, v: Value, ty: Type) -> Result<(), Trap> {
        let off = (addr - LOCAL_BASE) as usize;
        let size = ty.size() as usize;
        if off + size > self.local.len() {
            return Err(Trap::BadAddress { addr, space: AddrSpace::Local });
        }
        let bytes: Vec<u8> = match ty {
            Type::I1 | Type::I8 => vec![v.as_i() as u8],
            Type::I16 => (v.as_i() as i16).to_le_bytes().to_vec(),
            Type::I32 => (v.as_i() as i32).to_le_bytes().to_vec(),
            Type::I64 => v.as_i().to_le_bytes().to_vec(),
            Type::F32 => (v.as_f() as f32).to_le_bytes().to_vec(),
            Type::F64 => v.as_f().to_le_bytes().to_vec(),
            Type::Ptr(_) => v.as_ptr().0.to_le_bytes().to_vec(),
            Type::Void => unreachable!(),
        };
        self.local[off..off + bytes.len()].copy_from_slice(&bytes);
        Ok(())
    }

    fn lane_read(&mut self, lane: usize, addr: u64, ty: Type) -> Result<Value, Trap> {
        match gpu_classify(addr)? {
            GpuSpace::Private => {
                let v = self.lanes[lane].private.read(addr, ty)?;
                Ok(retag(v, ty))
            }
            GpuSpace::Local => self.local_read(addr, ty),
            GpuSpace::Shared => {
                let v = self.region.read_val(addr, AddrSpace::Gpu, ty)?;
                Ok(retag(v, ty))
            }
        }
    }

    fn lane_write(&mut self, lane: usize, addr: u64, v: Value, ty: Type) -> Result<(), Trap> {
        match gpu_classify(addr)? {
            GpuSpace::Private => self.lanes[lane].private.write(addr, v, ty),
            GpuSpace::Local => self.local_write(addr, v, ty),
            GpuSpace::Shared => self.region.write_val(addr, AddrSpace::Gpu, v, ty),
        }
    }

    /// Charge the memory system for a warp-wide access to per-lane
    /// addresses; shared accesses coalesce to unique lines. Private/local
    /// cost is charged live; the coalesced line set is logged and charged
    /// against the shared L3 at commit, in warp order.
    fn charge_access(&mut self, addrs: &[(usize, u64)]) {
        let mut lines: BTreeSet<u64> = BTreeSet::new();
        let mut cheap = 0usize;
        for &(_, addr) in addrs {
            match gpu_classify(addr) {
                Ok(GpuSpace::Shared) => {
                    lines.insert(addr >> 6);
                }
                _ => cheap += 1,
            }
        }
        if cheap > 0 {
            // Private/local: on-chip, fast, no coalescing concerns.
            self.timing.stall += 1.0;
        }
        if !lines.is_empty() {
            let shared_lanes = addrs.len() - cheap;
            let ts_snap = self.ts_snap();
            self.log.push(LogItem::Access {
                lines: lines.into_iter().collect(),
                shared_lanes,
                ts_snap,
            });
        }
    }

    // ---- execution ----

    /// Execute `fid` in lockstep for the lanes in `mask`. `args[lane]` are
    /// that lane's arguments. Returns per-lane return values.
    ///
    /// # Errors
    ///
    /// Any [`Trap`], including CPU-space dereferences (missing SVM
    /// translations) and un-devirtualized virtual calls.
    pub fn exec_function(
        &mut self,
        mask: Mask,
        fid: FuncId,
        args: &[Vec<Value>],
        depth: u32,
    ) -> Result<Vec<Option<Value>>, Trap> {
        if depth > 48 {
            return Err(Trap::StackOverflow);
        }
        let meta = self.meta.lock().expect("meta cache poisoned").get(self.module, fid).clone();
        let f = self.module.function(fid);
        let width = self.width();
        let mut regs: Vec<Vec<Option<Value>>> = (0..width)
            .map(|l| {
                let mut r = vec![None; f.insts.len()];
                if mask & (1 << l) != 0 {
                    for (i, &a) in args[l].iter().enumerate() {
                        if i < f.params.len() {
                            r[i] = Some(a);
                        }
                    }
                }
                r
            })
            .collect();
        // Per-lane stack frames (active lanes only).
        let mut frame_base = vec![0u64; width];
        let mut saved_sp = vec![0u64; width];
        for l in 0..width {
            if mask & (1 << l) != 0 {
                let sp = self.lanes[l].private.sp();
                saved_sp[l] = sp;
                let base = self.lanes[l].private.push_frame_public(meta.layout.size)?;
                frame_base[l] = PRIVATE_BASE + (base.div_ceil(16) * 16);
            }
        }
        let nblocks = f.blocks.len();
        let mut pending: Vec<Mask> = vec![0; nblocks];
        pending[f.entry().0 as usize] = mask;
        let mut prev: Vec<BlockId> = vec![f.entry(); width];
        let mut rets: Vec<Option<Value>> = vec![None; width];
        // Active-lane count of the previously executed block; a jump back up
        // (more lanes than last time) means divergent paths rejoined here.
        let mut last_active: u32 = 0;

        let result = 'run: loop {
            // Pick the pending block with the lowest priority index.
            let mut best: Option<usize> = None;
            for (b, &waiting) in pending.iter().enumerate() {
                if waiting != 0 {
                    best = match best {
                        None => Some(b),
                        Some(cur) if meta.priority[b] < meta.priority[cur] => Some(b),
                        keep => keep,
                    };
                }
            }
            let Some(bi) = best else { break 'run Ok(()) };
            let block = BlockId(bi as u32);
            let m = std::mem::take(&mut pending[bi]);
            let act = m.count_ones();
            if act > last_active && last_active > 0 {
                self.note_reconverge(&f.name, block, last_active, act);
            }
            last_active = act;

            // Phi group: parallel per-lane reads.
            let insts = f.block(block).insts.clone();
            let mut phi_end = 0;
            let mut phi_updates: Vec<(ValueId, usize, Value)> = Vec::new();
            for &id in &insts {
                let Op::Phi(incoming) = &f.inst(id).op else { break };
                for l in 0..width {
                    if m & (1 << l) == 0 {
                        continue;
                    }
                    let (_, v) = incoming
                        .iter()
                        .find(|(pb, _)| *pb == prev[l])
                        .expect("phi covers predecessor (verified IR)");
                    let val = regs[l][v.0 as usize].ok_or(Trap::Unreachable)?;
                    phi_updates.push((id, l, val));
                }
                phi_end += 1;
                // Phis are register renames, not executed instructions.
                self.issue(0.25);
            }
            for (id, l, v) in phi_updates {
                regs[l][id.0 as usize] = Some(v);
            }

            let mut terminated = false;
            for &id in insts.iter().skip(phi_end) {
                if self.step_budget == 0 {
                    let lane = active(m, width).next().unwrap_or(0);
                    break 'run Err(Trap::StepLimitExceeded {
                        kernel: f.name.clone(),
                        global_id: self.lanes[lane].ids.global,
                    });
                }
                self.step_budget -= 1;
                let inst = f.inst(id);
                match &inst.op {
                    Op::Param(i) => {
                        self.issue(0.25);
                        for l in active(m, width) {
                            regs[l][id.0 as usize] = Some(args[l][*i as usize]);
                        }
                    }
                    Op::ConstInt(v) => {
                        self.issue(0.25);
                        let val = match inst.ty {
                            Type::Ptr(sp) => Value::Ptr(*v as u64, sp),
                            _ => Value::I(*v),
                        };
                        for l in active(m, width) {
                            regs[l][id.0 as usize] = Some(val);
                        }
                    }
                    Op::ConstFloat(v) => {
                        self.issue(0.25);
                        let v = if inst.ty == Type::F32 { *v as f32 as f64 } else { *v };
                        for l in active(m, width) {
                            regs[l][id.0 as usize] = Some(Value::F(v));
                        }
                    }
                    Op::ConstNull => {
                        self.issue(0.25);
                        let sp = inst.ty.addr_space().unwrap_or(AddrSpace::Cpu);
                        for l in active(m, width) {
                            regs[l][id.0 as usize] = Some(Value::Ptr(0, sp));
                        }
                    }
                    Op::Bin(op, a, b) => {
                        self.issue(bin_issue(*op));
                        for l in active(m, width) {
                            let av = regs[l][a.0 as usize].ok_or(Trap::Unreachable)?;
                            let bv = regs[l][b.0 as usize].ok_or(Trap::Unreachable)?;
                            regs[l][id.0 as usize] = Some(eval_bin(*op, av, bv, inst.ty)?);
                        }
                    }
                    Op::Icmp(p, a, b) => {
                        self.issue(1.0);
                        for l in active(m, width) {
                            let av = regs[l][a.0 as usize].ok_or(Trap::Unreachable)?;
                            let bv = regs[l][b.0 as usize].ok_or(Trap::Unreachable)?;
                            regs[l][id.0 as usize] = Some(eval_icmp(*p, av, bv));
                        }
                    }
                    Op::Fcmp(p, a, b) => {
                        self.issue(1.0);
                        for l in active(m, width) {
                            let av = regs[l][a.0 as usize].ok_or(Trap::Unreachable)?;
                            let bv = regs[l][b.0 as usize].ok_or(Trap::Unreachable)?;
                            regs[l][id.0 as usize] = Some(eval_fcmp(*p, av, bv));
                        }
                    }
                    Op::Cast(op, a) => {
                        self.issue(1.0);
                        let from = f.inst(*a).ty;
                        for l in active(m, width) {
                            let av = regs[l][a.0 as usize].ok_or(Trap::Unreachable)?;
                            regs[l][id.0 as usize] = Some(eval_cast(*op, av, from, inst.ty));
                        }
                    }
                    Op::Select(c, a, b) => {
                        self.issue(1.0);
                        for l in active(m, width) {
                            let cv = regs[l][c.0 as usize].ok_or(Trap::Unreachable)?;
                            let pick = if cv.as_bool() { a } else { b };
                            regs[l][id.0 as usize] =
                                Some(regs[l][pick.0 as usize].ok_or(Trap::Unreachable)?);
                        }
                    }
                    Op::Alloca { .. } => {
                        self.issue(1.0);
                        let off = meta.layout.offsets[&id];
                        for l in active(m, width) {
                            regs[l][id.0 as usize] =
                                Some(Value::Ptr(frame_base[l] + off, AddrSpace::Private));
                        }
                    }
                    Op::Load(p) => {
                        self.issue(1.0);
                        let mut addrs = Vec::new();
                        for l in active(m, width) {
                            let (addr, _) =
                                regs[l][p.0 as usize].ok_or(Trap::Unreachable)?.as_ptr();
                            addrs.push((l, addr));
                        }
                        self.charge_access(&addrs);
                        for (l, addr) in addrs {
                            let v = self.lane_read(l, addr, inst.ty)?;
                            regs[l][id.0 as usize] = Some(v);
                        }
                    }
                    Op::Store { ptr, val } => {
                        self.issue(1.0);
                        let ty = f.inst(*val).ty;
                        let mut ops = Vec::new();
                        for l in active(m, width) {
                            let (addr, _) =
                                regs[l][ptr.0 as usize].ok_or(Trap::Unreachable)?.as_ptr();
                            let v = regs[l][val.0 as usize].ok_or(Trap::Unreachable)?;
                            ops.push((l, addr, v));
                        }
                        let addrs: Vec<(usize, u64)> =
                            ops.iter().map(|&(l, a, _)| (l, a)).collect();
                        self.charge_access(&addrs);
                        for (l, addr, v) in ops {
                            self.lane_write(l, addr, v, ty)?;
                        }
                    }
                    Op::Gep { base, offset } => {
                        self.issue(1.0);
                        for l in active(m, width) {
                            let (addr, sp) =
                                regs[l][base.0 as usize].ok_or(Trap::Unreachable)?.as_ptr();
                            let off = regs[l][offset.0 as usize].ok_or(Trap::Unreachable)?.as_i();
                            regs[l][id.0 as usize] =
                                Some(Value::Ptr(addr.wrapping_add(off as u64), sp));
                        }
                    }
                    Op::CpuToGpu(p) => {
                        // §3.1: a software translation is a short arithmetic
                        // sequence (binding-table base + offset add), not a
                        // single op.
                        self.issue(3.0);
                        self.timing.translations += 1;
                        for l in active(m, width) {
                            let (addr, sp) =
                                regs[l][p.0 as usize].ok_or(Trap::Unreachable)?.as_ptr();
                            let v = match sp {
                                AddrSpace::Cpu if addr != 0 => Value::Ptr(
                                    addr.wrapping_add(concord_svm::SVM_CONST),
                                    AddrSpace::Gpu,
                                ),
                                _ => Value::Ptr(addr, sp),
                            };
                            regs[l][id.0 as usize] = Some(v);
                        }
                    }
                    Op::GpuToCpu(p) => {
                        self.issue(3.0);
                        self.timing.translations += 1;
                        for l in active(m, width) {
                            let (addr, sp) =
                                regs[l][p.0 as usize].ok_or(Trap::Unreachable)?.as_ptr();
                            let v = match sp {
                                AddrSpace::Gpu if addr != 0 => Value::Ptr(
                                    addr.wrapping_sub(concord_svm::SVM_CONST),
                                    AddrSpace::Cpu,
                                ),
                                _ => Value::Ptr(addr, sp),
                            };
                            regs[l][id.0 as usize] = Some(v);
                        }
                    }
                    Op::Phi(_) => unreachable!("phi group handled at block entry"),
                    Op::Call { callee, args: cargs } => {
                        self.issue(2.0);
                        let mut call_args: Vec<Vec<Value>> = vec![Vec::new(); width];
                        for l in active(m, width) {
                            for a in cargs {
                                call_args[l].push(regs[l][a.0 as usize].ok_or(Trap::Unreachable)?);
                            }
                        }
                        let res = self.exec_function(m, *callee, &call_args, depth + 1)?;
                        if inst.ty != Type::Void {
                            for l in active(m, width) {
                                regs[l][id.0 as usize] = Some(res[l].ok_or(Trap::Unreachable)?);
                            }
                        }
                    }
                    Op::CallVirtual { obj, .. } => {
                        // The GPU has no function pointers; reaching an
                        // un-devirtualized call is a pipeline bug.
                        let l = active(m, width).next().ok_or(Trap::Unreachable)?;
                        let (vaddr, _) = regs[l][obj.0 as usize].ok_or(Trap::Unreachable)?.as_ptr();
                        break 'run Err(Trap::BadVirtualDispatch { vptr: vaddr });
                    }
                    Op::IntrinsicCall(intr, iargs) => {
                        self.exec_intrinsic(*intr, iargs, id, inst.ty, m, &mut regs, width)?;
                    }
                    Op::Br(t) => {
                        self.issue(1.0);
                        for l in active(m, width) {
                            prev[l] = block;
                        }
                        pending[t.0 as usize] |= m;
                        terminated = true;
                        break;
                    }
                    Op::CondBr(c, t, e) => {
                        self.issue(1.0);
                        let mut mt: Mask = 0;
                        let mut me: Mask = 0;
                        for l in active(m, width) {
                            let cv = regs[l][c.0 as usize].ok_or(Trap::Unreachable)?;
                            if cv.as_bool() {
                                mt |= 1 << l;
                            } else {
                                me |= 1 << l;
                            }
                            prev[l] = block;
                        }
                        if mt != 0 {
                            pending[t.0 as usize] |= mt;
                        }
                        if me != 0 {
                            pending[e.0 as usize] |= me;
                        }
                        if mt != 0 && me != 0 {
                            self.note_divergence(&f.name, block, mt, me);
                        }
                        terminated = true;
                        break;
                    }
                    Op::Ret(v) => {
                        self.issue(1.0);
                        for l in active(m, width) {
                            rets[l] = match v {
                                Some(v) => Some(regs[l][v.0 as usize].ok_or(Trap::Unreachable)?),
                                None => Some(Value::I(0)),
                            };
                        }
                        terminated = true;
                        break;
                    }
                    Op::Unreachable => break 'run Err(Trap::Unreachable),
                }
            }
            if !terminated {
                break 'run Err(Trap::Unreachable);
            }
        };
        // Pop frames.
        for (l, &sp) in saved_sp.iter().enumerate() {
            if mask & (1 << l) != 0 {
                self.lanes[l].private.set_sp(sp);
            }
        }
        result?;
        Ok(rets)
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_intrinsic(
        &mut self,
        intr: Intrinsic,
        iargs: &[ValueId],
        id: ValueId,
        ty: Type,
        m: Mask,
        regs: &mut [Vec<Option<Value>>],
        width: usize,
    ) -> Result<(), Trap> {
        let f32r = |x: f64| Value::F(x as f32 as f64);
        let issue = match intr {
            Intrinsic::Sqrt => 4.0,
            Intrinsic::Exp => 8.0,
            Intrinsic::Pow => 12.0,
            Intrinsic::Barrier => 2.0,
            Intrinsic::AtomicAddI32 | Intrinsic::AtomicMinI32 | Intrinsic::AtomicCasI32 => 2.0,
            Intrinsic::WlPush => 2.0,
            _ => 1.0,
        };
        self.issue(issue);
        if intr == Intrinsic::WlPush {
            // Per-lane append into the warp's next-frontier segment, in
            // lane order. The ordered commit sorts and dedups the merged
            // segments, so frontier contents don't depend on the warp
            // schedule — shadowed execution is safe here.
            for l in active(m, width) {
                let item = regs[l][iargs[0].0 as usize].ok_or(Trap::Unreachable)?.as_i() as i32;
                match &mut self.wl {
                    Some(seg) => seg.push(item),
                    None => {
                        return Err(Trap::BadIntrinsic("push outside parallel_worklist_hetero"))
                    }
                }
            }
            return Ok(());
        }
        if intr == Intrinsic::DeviceMalloc {
            // Serialized atomic bump per requesting lane. (Gated to the
            // serial path, so `M` is always the live region here.)
            let hiding = self.hiding;
            for l in active(m, width) {
                let size =
                    regs[l][iargs[0].0 as usize].ok_or(Trap::Unreachable)?.as_i().max(0) as u64;
                self.timing.stall += 20.0 / hiding;
                let addr = self.region.device_alloc(size)?;
                regs[l][id.0 as usize] = Some(Value::Ptr(addr.0, AddrSpace::Cpu));
            }
            return Ok(());
        }
        if matches!(
            intr,
            Intrinsic::AtomicAddI32 | Intrinsic::AtomicMinI32 | Intrinsic::AtomicCasI32
        ) {
            let kind = match intr {
                Intrinsic::AtomicAddI32 => AtomicKind::Add,
                Intrinsic::AtomicMinI32 => AtomicKind::Min,
                Intrinsic::AtomicCasI32 => AtomicKind::Cas,
                _ => unreachable!(),
            };
            // Atomics serialize across lanes.
            let hiding = self.hiding;
            for l in active(m, width) {
                let (addr, _) = regs[l][iargs[0].0 as usize].ok_or(Trap::Unreachable)?.as_ptr();
                let a1 = regs[l][iargs[1].0 as usize].ok_or(Trap::Unreachable)?.as_i();
                let a2 = iargs
                    .get(2)
                    .map(|v| regs[l][v.0 as usize].ok_or(Trap::Unreachable).map(|x| x.as_i()))
                    .transpose()?
                    .unwrap_or(0);
                self.timing.stall += 20.0 / hiding;
                let old = match gpu_classify(addr)? {
                    // Shared memory goes through the region view so
                    // shadowed execution logs the *operation* and replays
                    // it against committed state (global min/add stay
                    // correct across warps).
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
                regs[l][id.0 as usize] = Some(Value::I(old));
            }
            return Ok(());
        }
        for l in active(m, width) {
            let arg = |k: usize| -> Result<Value, Trap> {
                regs[l][iargs[k].0 as usize].ok_or(Trap::Unreachable)
            };
            let v = match intr {
                Intrinsic::GlobalId => Value::I(self.lanes[l].ids.global),
                Intrinsic::GlobalSize => Value::I(self.lanes[l].ids.size),
                Intrinsic::LocalId => Value::I(self.lanes[l].ids.local),
                Intrinsic::GroupId => Value::I(self.lanes[l].ids.group),
                Intrinsic::Barrier => Value::I(0), // warp-synchronous
                Intrinsic::Sqrt => f32r(arg(0)?.as_f().sqrt()),
                Intrinsic::FAbs => f32r(arg(0)?.as_f().abs()),
                Intrinsic::Floor => f32r(arg(0)?.as_f().floor()),
                Intrinsic::Exp => f32r(arg(0)?.as_f().exp()),
                Intrinsic::Pow => f32r(arg(0)?.as_f().powf(arg(1)?.as_f())),
                Intrinsic::FMin => f32r(arg(0)?.as_f().min(arg(1)?.as_f())),
                Intrinsic::FMax => f32r(arg(0)?.as_f().max(arg(1)?.as_f())),
                Intrinsic::SMin => Value::I(arg(0)?.as_i().min(arg(1)?.as_i())),
                Intrinsic::SMax => Value::I(arg(0)?.as_i().max(arg(1)?.as_i())),
                Intrinsic::AtomicAddI32
                | Intrinsic::AtomicMinI32
                | Intrinsic::AtomicCasI32
                | Intrinsic::DeviceMalloc
                | Intrinsic::WlPush => unreachable!("handled above"),
            };
            if ty != Type::Void {
                regs[l][id.0 as usize] = Some(v);
            }
        }
        Ok(())
    }

    /// Copy bytes between memory spaces on behalf of `lane`, charging the
    /// memory system (used for reduction body copies).
    ///
    /// # Errors
    ///
    /// Memory faults.
    pub fn lane_memcpy(&mut self, lane: usize, dst: u64, src: u64, size: u64) -> Result<(), Trap> {
        debug_assert!(size.is_multiple_of(8));
        for off in (0..size).step_by(8) {
            self.charge_access(&[(lane, src + off)]);
            let v = self.lane_read(lane, src + off, Type::I64)?;
            self.charge_access(&[(lane, dst + off)]);
            self.lane_write(lane, dst + off, v, Type::I64)?;
            self.issue(0.5);
        }
        Ok(())
    }
}

fn retag(v: Value, ty: Type) -> Value {
    match (v, ty) {
        (Value::Ptr(raw, _), Type::Ptr(_)) => Value::Ptr(raw, classify_value(raw)),
        _ => v,
    }
}

fn bin_issue(op: concord_ir::BinOp) -> f64 {
    use concord_ir::BinOp::*;
    match op {
        SDiv | UDiv | SRem | URem => 8.0,
        FDiv => 4.0,
        _ => 1.0,
    }
}

/// Iterate the active lane indices of a mask.
pub fn active(mask: Mask, width: usize) -> impl Iterator<Item = usize> {
    (0..width).filter(move |l| mask & (1 << l) != 0)
}
