//! Scalar interpreter with CPU timing hooks.
//!
//! Executes one work-item (or host-side call) at a time against the shared
//! region, running the decoded functions of a [`Program`] — the same ones
//! gpusim runs in SIMT fashion — and charging cycles to a [`CoreCtx`]
//! according to the CPU timing model: superscalar issue, a gshare branch
//! predictor, and an L1 + shared LLC cache hierarchy. Each instruction's
//! charges sit in its match arm, in the order they are made: `cycles` is
//! an `f64` sum, so moving a charge changes its bits.

use crate::cache::Cache;
use crate::predictor::Gshare;
use crate::program::{Func, Kind, Program, Slot, NO_SRC};
use concord_energy::CpuConfig;
use concord_ir::eval::{self, eval_bin, eval_cast, eval_fcmp, eval_icmp, Trap, Value};
use concord_ir::inst::{FuncId, Intrinsic};
use concord_ir::types::{AddrSpace, Type};
use concord_svm::{AtomicKind, CpuAddr, RegionMem, VtableArea, SVM_CONST};

/// Base address of per-core private (stack) memory.
pub const PRIVATE_BASE: u64 = 0x1000_0000;

/// Execution counters for one core.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Instructions executed.
    pub insts: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// Conditional branches executed.
    pub branches: u64,
    /// Calls executed (direct + virtual).
    pub calls: u64,
    /// Pointer translations executed (zero on the CPU path by
    /// construction; non-zero when differentially executing GPU code).
    pub translations: u64,
}

/// Per-core microarchitectural state.
#[derive(Debug, Clone)]
pub(crate) struct CoreCtx {
    /// Accumulated cycles.
    pub(crate) cycles: f64,
    /// L1 data cache.
    pub(crate) l1: Cache,
    /// Branch predictor.
    pub(crate) predictor: Gshare,
    /// Event counters.
    pub(crate) counters: Counters,
}

impl CoreCtx {
    /// Fresh core state for a CPU configuration.
    pub(crate) fn new(cfg: &CpuConfig) -> Self {
        CoreCtx {
            cycles: 0.0,
            l1: Cache::new(cfg.l1_bytes, 8),
            predictor: Gshare::new(12),
            counters: Counters::default(),
        }
    }
}

/// Private (stack) memory for one core. Aligned to its own cache lines:
/// the cores' memories sit side by side in `CpuSim` and each chunk's host
/// thread writes its `sp` at every simulated call and return.
#[derive(Debug, Clone)]
#[repr(align(128))]
pub(crate) struct PrivateMem {
    data: Vec<u8>,
    sp: u64,
}

impl PrivateMem {
    /// A private memory of `bytes` capacity.
    pub(crate) fn new(bytes: u64) -> Self {
        PrivateMem { data: vec![0; bytes as usize], sp: 0 }
    }

    fn push_frame(&mut self, size: u64) -> Result<u64, Trap> {
        let base = self.sp.div_ceil(16) * 16;
        if base + size > self.data.len() as u64 {
            return Err(Trap::StackOverflow);
        }
        let old = self.sp;
        self.sp = base + size;
        Ok(old)
    }

    fn pop_frame(&mut self, old_sp: u64) {
        self.sp = old_sp;
    }

    /// The bytes of `[addr, addr + len)`.
    fn bytes(&self, addr: u64, len: u64) -> Result<std::ops::Range<usize>, Trap> {
        let off = addr.wrapping_sub(PRIVATE_BASE);
        if off.checked_add(len).is_none_or(|e| e > self.data.len() as u64) {
            return Err(Trap::BadAddress { addr, space: AddrSpace::Private });
        }
        Ok(off as usize..(off + len) as usize)
    }

    fn read(&self, addr: u64, ty: Type) -> Result<Value, Trap> {
        // Pointers in private memory resolve by address range: it can hold
        // pointers to shared and to private data.
        Ok(load_value(&self.data[self.bytes(addr, ty.size())?], ty, classify_raw))
    }

    fn write(&mut self, addr: u64, v: Value, ty: Type) -> Result<(), Trap> {
        let bytes = self.bytes(addr, ty.size())?;
        store_value(v, ty, &mut self.data[bytes]);
        Ok(())
    }
}

/// Decode a `ty` value stored in simulated private or local memory; a
/// pointer takes the space `classify` names for its address.
#[inline]
pub fn load_value(b: &[u8], ty: Type, classify: fn(u64) -> AddrSpace) -> Value {
    match ty {
        Type::I1 | Type::I8 => Value::I(b[0] as i8 as i64),
        Type::I16 => Value::I(i16::from_le_bytes([b[0], b[1]]) as i64),
        Type::I32 => Value::I(i32::from_le_bytes(b.try_into().unwrap()) as i64),
        Type::I64 => Value::I(i64::from_le_bytes(b.try_into().unwrap())),
        Type::F32 => Value::F(f32::from_le_bytes(b.try_into().unwrap()) as f64),
        Type::F64 => Value::F(f64::from_le_bytes(b.try_into().unwrap())),
        Type::Ptr(_) => {
            let raw = u64::from_le_bytes(b.try_into().unwrap());
            Value::Ptr(raw, classify(raw))
        }
        Type::Void => unreachable!(),
    }
}

/// Encode `v` as a stored `ty` into `out` (`ty.size()` bytes).
#[inline]
pub fn store_value(v: Value, ty: Type, out: &mut [u8]) {
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

/// Classify a raw pointer bit pattern by address range. Needed because
/// private memory can hold pointers to both shared and private data.
pub(crate) fn classify_raw(raw: u64) -> AddrSpace {
    if raw >= concord_svm::GPU_BASE {
        AddrSpace::Gpu
    } else if raw >= concord_svm::CPU_BASE {
        AddrSpace::Cpu
    } else {
        AddrSpace::Private
    }
}

/// IDs identifying the current work item (for `global_id()` etc.).
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkIds {
    /// Global work-item index.
    pub global: i64,
    /// Index within the work-group.
    pub local: i64,
    /// Work-group index.
    pub group: i64,
    /// Total work-items.
    pub size: i64,
}

/// Where LLC traffic goes during execution.
///
/// The live variant models the shared LLC in place (serial execution).
/// The log variant records the addresses of L1 misses so a host-parallel
/// chunk can be replayed through the shared LLC at commit time, in fixed
/// chunk order, keeping cache state — and therefore timing — independent
/// of how many OS threads executed the chunks.
pub(crate) enum LlcSink<'a> {
    /// Charge LLC/memory cycles immediately against this shared cache.
    Live(&'a mut Cache),
    /// Defer: record L1-miss addresses; cycles are charged at commit.
    Log(&'a mut Vec<u64>),
}

/// The scalar interpreter: runs the decoded functions of a [`Program`]
/// one work-item at a time.
///
/// Generic over the memory view `M`: a live [`concord_svm::SharedRegion`] for serial
/// execution, or a [`concord_svm::ShadowRegion`] snapshot + write-log when
/// chunks execute concurrently on host threads.
pub(crate) struct Interp<'a, M: RegionMem> {
    /// The decoded module being executed.
    pub(crate) program: &'a Program,
    /// Shared virtual memory (live or shadowed).
    pub(crate) region: &'a mut M,
    /// Installed vtables (for CPU-side dynamic dispatch).
    pub(crate) vtables: &'a VtableArea,
    /// Private memory of the executing core.
    pub(crate) private: &'a mut PrivateMem,
    /// Timing state of the executing core.
    pub(crate) core: &'a mut CoreCtx,
    /// Timing parameters.
    pub(crate) cfg: &'a CpuConfig,
    /// Shared last-level cache (live or deferred to commit).
    pub(crate) llc: LlcSink<'a>,
    /// Current work-item ids.
    pub(crate) ids: WorkIds,
    /// Remaining instruction budget (runaway-loop guard).
    pub(crate) step_budget: u64,
    /// Next-frontier push segment of the enclosing worklist round, if any.
    /// `push(item)` appends here; `None` outside `parallel_worklist_hetero`
    /// (where the intrinsic traps).
    pub(crate) wl: Option<&'a mut Vec<i32>>,
    /// Buffers reused from one simulated call to the next: register
    /// files, argument lists and the phi group being copied. Without them
    /// every simulated call is a handful of `malloc`/`free` pairs, and that
    /// is not only slow: a chunk runs on the launching thread beside a
    /// pool helper, the allocator hands each of the two threads small
    /// blocks the other one freed, and two threads recycling neighbouring
    /// blocks share cache lines (`cpu.BarnesHut` ran 1.5× slower that way
    /// — EXPERIMENTS.md, "Launch fan-out").
    pub(crate) bufs: Buffers,
}

/// See [`Interp::bufs`].
#[derive(Debug, Default)]
pub(crate) struct Buffers {
    regs: Vec<Vec<Option<Value>>>,
    args: Vec<Vec<Value>>,
    staged: Vec<Value>,
}

/// Deepest simulated call.
const MAX_DEPTH: u32 = 64;

/// An empty buffer from `pool`, keeping the capacity of its last use.
fn recycled<T>(pool: &mut Vec<Vec<T>>) -> Vec<T> {
    let mut buf = pool.pop().unwrap_or_default();
    buf.clear();
    buf
}

/// The value in slot `s`; reading a slot no executed instruction defined
/// traps.
fn get(regs: &[Option<Value>], s: Slot) -> Result<Value, Trap> {
    regs[s as usize].ok_or(Trap::Unreachable)
}

impl<'a, M: RegionMem> Interp<'a, M> {
    fn charge_mem(&mut self, addr: u64, space: AddrSpace) {
        match space {
            AddrSpace::Private | AddrSpace::Local => {
                self.core.cycles += self.cfg.l1_hit_cycles;
            }
            AddrSpace::Cpu | AddrSpace::Gpu => {
                if self.core.l1.access(addr) {
                    self.core.cycles += self.cfg.l1_hit_cycles;
                } else {
                    match &mut self.llc {
                        LlcSink::Live(llc) => {
                            if llc.access(addr) {
                                self.core.cycles += self.cfg.llc_hit_cycles;
                            } else {
                                self.core.cycles += self.cfg.mem_cycles;
                            }
                        }
                        LlcSink::Log(log) => log.push(addr),
                    }
                }
            }
        }
    }

    fn mem_read(&mut self, addr: u64, space: AddrSpace, ty: Type) -> Result<Value, Trap> {
        self.charge_mem(addr, space);
        match space {
            AddrSpace::Private => self.private.read(addr, ty),
            AddrSpace::Local => {
                Err(Trap::WrongAddressSpace { found: AddrSpace::Local, expected: AddrSpace::Cpu })
            }
            sp => {
                let v = self.region.read_val(addr, sp, ty)?;
                // Pointer loads from shared memory come back CPU-tagged;
                // private-range pointers stored in shared structures (the
                // runtime never does this, but reductions may) re-classify.
                if let (Value::Ptr(raw, _), Type::Ptr(_)) = (v, ty) {
                    Ok(Value::Ptr(raw, classify_raw(raw)))
                } else {
                    Ok(v)
                }
            }
        }
    }

    fn mem_write(&mut self, addr: u64, space: AddrSpace, v: Value, ty: Type) -> Result<(), Trap> {
        self.charge_mem(addr, space);
        match space {
            AddrSpace::Private => self.private.write(addr, v, ty),
            AddrSpace::Local => {
                Err(Trap::WrongAddressSpace { found: AddrSpace::Local, expected: AddrSpace::Cpu })
            }
            sp => {
                // Private-range pointer values must never escape to shared
                // memory; the region traps on non-CPU pointer stores, which
                // mirrors the §2.1 restriction on taking local addresses.
                self.region.write_val(addr, sp, v, ty)?;
                Ok(())
            }
        }
    }

    /// Execute `fid` with `args`; returns its return value.
    ///
    /// # Errors
    ///
    /// Any [`Trap`] raised during execution.
    pub(crate) fn call(&mut self, fid: FuncId, args: &[Value]) -> Result<Option<Value>, Trap> {
        self.call_depth(fid, args, 0)
    }

    fn call_depth(
        &mut self,
        fid: FuncId,
        args: &[Value],
        depth: u32,
    ) -> Result<Option<Value>, Trap> {
        if depth > MAX_DEPTH {
            return Err(Trap::StackOverflow);
        }
        let program = self.program;
        let func = program.func(fid);
        let old_sp = self.private.push_frame(func.frame_size)?;
        let frame_base = PRIVATE_BASE + (old_sp.div_ceil(16) * 16);
        let mut regs = recycled(&mut self.bufs.regs);
        regs.resize(func.slots, None);
        for (r, &a) in regs.iter_mut().zip(args).take(func.params) {
            *r = Some(a);
        }
        let result = self.run(fid, func, &mut regs, args, frame_base, depth);
        self.private.pop_frame(old_sp);
        self.bufs.regs.push(regs);
        result
    }

    fn step_limit(&self, func: &Func) -> Trap {
        Trap::StepLimitExceeded { kernel: func.name.clone(), global_id: self.ids.global }
    }

    /// Run `func`'s blocks from its entry until it returns.
    fn run(
        &mut self,
        fid: FuncId,
        func: &Func,
        regs: &mut [Option<Value>],
        args: &[Value],
        frame_base: u64,
        depth: u32,
    ) -> Result<Option<Value>, Trap> {
        let (mut b, mut edge) = (func.entry, func.entry_edge);
        'blocks: loop {
            let block = &func.blocks[b as usize];
            if block.phis > 0 {
                self.phis(func, regs, edge)?;
            }
            for inst in &func.ops[block.ops.0 as usize..block.ops.1 as usize] {
                if self.step_budget == 0 {
                    return Err(self.step_limit(func));
                }
                self.step_budget -= 1;
                self.core.counters.insts += 1;
                let d = inst.dst as usize;
                match inst.kind {
                    Kind::Param(i) => regs[d] = Some(args[i as usize]),
                    Kind::Const(v) => regs[d] = Some(v),
                    Kind::Bin(op, ty, a, b) => {
                        self.core.cycles += bin_cost(op, self.cfg);
                        regs[d] = Some(eval_bin(op, get(regs, a)?, get(regs, b)?, ty)?);
                    }
                    Kind::Icmp(p, a, b) => {
                        self.core.cycles += 1.0 / self.cfg.ipc;
                        regs[d] = Some(eval_icmp(p, get(regs, a)?, get(regs, b)?));
                    }
                    Kind::Fcmp(p, a, b) => {
                        self.core.cycles += 1.0 / self.cfg.ipc;
                        regs[d] = Some(eval_fcmp(p, get(regs, a)?, get(regs, b)?));
                    }
                    Kind::Cast(op, from, to, a) => {
                        self.core.cycles += 1.0 / self.cfg.ipc;
                        regs[d] = Some(eval_cast(op, get(regs, a)?, from, to));
                    }
                    Kind::Select(c, a, b) => {
                        self.core.cycles += 1.0 / self.cfg.ipc;
                        let pick = if get(regs, c)?.as_bool() { a } else { b };
                        regs[d] = Some(get(regs, pick)?);
                    }
                    Kind::Alloca(off) => {
                        self.core.cycles += 1.0 / self.cfg.ipc;
                        regs[d] = Some(Value::Ptr(frame_base + off, AddrSpace::Private));
                    }
                    Kind::Load(ty, p) => {
                        self.core.counters.loads += 1;
                        let (addr, sp) = get(regs, p)?.as_ptr();
                        regs[d] = Some(self.mem_read(addr, reclassify(addr, sp), ty)?);
                    }
                    Kind::Store(ty, p, v) => {
                        self.core.counters.stores += 1;
                        let (addr, sp) = get(regs, p)?.as_ptr();
                        let v = get(regs, v)?;
                        self.mem_write(addr, reclassify(addr, sp), v, ty)?;
                    }
                    Kind::Gep(base, off) => {
                        self.core.cycles += 1.0 / self.cfg.ipc;
                        let (addr, sp) = get(regs, base)?.as_ptr();
                        let off = get(regs, off)?.as_i();
                        regs[d] = Some(Value::Ptr(addr.wrapping_add(off as u64), sp));
                    }
                    Kind::CpuToGpu(p) => {
                        self.core.cycles += 1.0 / self.cfg.ipc;
                        self.core.counters.translations += 1;
                        regs[d] = Some(match get(regs, p)?.as_ptr() {
                            (addr, AddrSpace::Cpu) if addr != 0 => {
                                Value::Ptr(addr.wrapping_add(SVM_CONST), AddrSpace::Gpu)
                            }
                            // Generic-pointer pass-through (private/local/null).
                            (addr, sp) => Value::Ptr(addr, sp),
                        });
                    }
                    Kind::GpuToCpu(p) => {
                        self.core.cycles += 1.0 / self.cfg.ipc;
                        self.core.counters.translations += 1;
                        regs[d] = Some(match get(regs, p)?.as_ptr() {
                            (addr, AddrSpace::Gpu) if addr != 0 => {
                                Value::Ptr(addr.wrapping_sub(SVM_CONST), AddrSpace::Cpu)
                            }
                            (addr, sp) => Value::Ptr(addr, sp),
                        });
                    }
                    Kind::Call { callee, args: range, returns } => {
                        self.core.counters.calls += 1;
                        self.core.cycles += 2.0;
                        let mut vals = recycled(&mut self.bufs.args);
                        for &a in &func.operands[range.0 as usize..range.1 as usize] {
                            vals.push(get(regs, a)?);
                        }
                        let r = self.call_depth(callee, &vals, depth + 1)?;
                        self.bufs.args.push(vals);
                        if returns {
                            regs[d] = Some(r.ok_or(Trap::Unreachable)?);
                        }
                    }
                    Kind::CallVirtual { obj, slot, args: range, returns } => {
                        self.core.counters.calls += 1;
                        // vtable load + indirect call overhead.
                        let (obj_addr, obj_sp) = get(regs, obj)?.as_ptr();
                        let obj_sp = reclassify(obj_addr, obj_sp);
                        let vptr = self.mem_read(obj_addr, obj_sp, Type::Ptr(AddrSpace::Cpu))?;
                        let (vaddr, _) = vptr.as_ptr();
                        let target =
                            self.vtables.dispatch(self.region.snapshot(), CpuAddr(vaddr), slot)?;
                        self.core.cycles += 3.0;
                        let mut vals = recycled(&mut self.bufs.args);
                        vals.push(get(regs, obj)?);
                        for &a in &func.operands[range.0 as usize..range.1 as usize] {
                            vals.push(get(regs, a)?);
                        }
                        let r = self.call_depth(target, &vals, depth + 1)?;
                        self.bufs.args.push(vals);
                        if returns {
                            regs[d] = Some(r.ok_or(Trap::Unreachable)?);
                        }
                    }
                    Kind::Intrinsic(intr, range, ty) => {
                        let mut vals = recycled(&mut self.bufs.args);
                        for &a in &func.operands[range.0 as usize..range.1 as usize] {
                            vals.push(get(regs, a)?);
                        }
                        let v = self.intrinsic(intr, &vals)?;
                        self.bufs.args.push(vals);
                        if ty != Type::Void {
                            regs[d] = Some(v);
                        }
                    }
                    Kind::Br(t, e) => {
                        self.core.cycles += 1.0 / self.cfg.ipc;
                        (b, edge) = (t, e);
                        continue 'blocks;
                    }
                    Kind::CondBr { cond, then, els } => {
                        self.core.counters.branches += 1;
                        let taken = get(regs, cond)?.as_bool();
                        let key = u64::from(inst.dst) ^ (u64::from(fid.0) << 32);
                        let correct = self.core.predictor.predict_and_update(key, taken);
                        self.core.cycles += 1.0 / self.cfg.ipc;
                        if !correct {
                            self.core.cycles += self.cfg.branch_miss_penalty;
                        }
                        (b, edge) = if taken { then } else { els };
                        continue 'blocks;
                    }
                    Kind::Ret(v) => {
                        self.core.cycles += 1.0 / self.cfg.ipc;
                        return v.map(|v| get(regs, v)).transpose();
                    }
                    Kind::Unreachable => return Err(Trap::Unreachable),
                    Kind::StrayPhi => unreachable!("phi group handled at block entry"),
                }
            }
            // Fell off a block without a terminator: verifier prevents this.
            return Err(Trap::Unreachable);
        }
    }

    /// Enter a block over phi `edge`: read every source of its phi group,
    /// then write every destination, each a counted instruction.
    fn phis(&mut self, func: &Func, regs: &mut [Option<Value>], edge: u32) -> Result<(), Trap> {
        let (start, end) = func.edges[edge as usize];
        let copies = &func.copies[start as usize..end as usize];
        self.bufs.staged.clear();
        for &(_, src) in copies {
            assert!(src != NO_SRC, "phi covers predecessor (verified IR)");
            self.bufs.staged.push(get(regs, src)?);
        }
        for (&(dst, _), &v) in copies.iter().zip(&self.bufs.staged) {
            regs[dst as usize] = Some(v);
            self.core.counters.insts += 1;
            self.core.cycles += 1.0 / self.cfg.ipc;
            if self.step_budget == 0 {
                return Err(self.step_limit(func));
            }
            self.step_budget -= 1;
        }
        Ok(())
    }

    fn intrinsic(&mut self, intr: Intrinsic, vals: &[Value]) -> Result<Value, Trap> {
        let (f, i) = (|k: usize| vals[k].as_f(), |k: usize| vals[k].as_i());
        Ok(match intr {
            Intrinsic::GlobalId => Value::I(self.ids.global),
            Intrinsic::GlobalSize => Value::I(self.ids.size),
            Intrinsic::LocalId => Value::I(self.ids.local),
            Intrinsic::GroupId => Value::I(self.ids.group),
            Intrinsic::Barrier => Value::I(0), // sequential CPU: no-op
            Intrinsic::Sqrt => {
                self.core.cycles += 7.0;
                Value::F(eval::sqrtf(f(0)))
            }
            Intrinsic::FAbs => {
                self.core.cycles += 1.0 / self.cfg.ipc;
                Value::F(eval::fabsf(f(0)))
            }
            Intrinsic::Floor => {
                self.core.cycles += 1.0 / self.cfg.ipc;
                Value::F(eval::floorf(f(0)))
            }
            Intrinsic::Exp => {
                self.core.cycles += 20.0;
                Value::F(eval::expf(f(0)))
            }
            Intrinsic::Pow => {
                self.core.cycles += 25.0;
                Value::F(eval::powf(f(0), f(1)))
            }
            Intrinsic::FMin => {
                self.core.cycles += 1.0 / self.cfg.ipc;
                Value::F(eval::fminf(f(0), f(1)))
            }
            Intrinsic::FMax => {
                self.core.cycles += 1.0 / self.cfg.ipc;
                Value::F(eval::fmaxf(f(0), f(1)))
            }
            Intrinsic::SMin => {
                self.core.cycles += 1.0 / self.cfg.ipc;
                Value::I(eval::smin(i(0), i(1)))
            }
            Intrinsic::SMax => {
                self.core.cycles += 1.0 / self.cfg.ipc;
                Value::I(eval::smax(i(0), i(1)))
            }
            Intrinsic::DeviceMalloc => {
                self.core.cycles += 10.0;
                let size = vals[0].as_i().max(0) as u64;
                let addr = self.region.device_alloc(size)?;
                Value::Ptr(addr.0, AddrSpace::Cpu)
            }
            Intrinsic::WlPush => {
                self.core.cycles += 4.0;
                let item = vals[0].as_i() as i32;
                match &mut self.wl {
                    Some(seg) => {
                        seg.push(item);
                        Value::I(0)
                    }
                    None => {
                        return Err(Trap::BadIntrinsic("push outside parallel_worklist_hetero"))
                    }
                }
            }
            Intrinsic::AtomicAddI32 | Intrinsic::AtomicMinI32 | Intrinsic::AtomicCasI32 => {
                let (addr, sp) = vals[0].as_ptr();
                let sp = reclassify(addr, sp);
                self.core.cycles += 10.0;
                let kind = match intr {
                    Intrinsic::AtomicAddI32 => AtomicKind::Add,
                    Intrinsic::AtomicMinI32 => AtomicKind::Min,
                    Intrinsic::AtomicCasI32 => AtomicKind::Cas,
                    _ => unreachable!(),
                };
                let a1 = vals[1].as_i();
                let a2 = vals.get(2).map(|v| v.as_i()).unwrap_or(0);
                match sp {
                    // Private (and Local, which faults in mem_read exactly
                    // as a plain load would) stay on the scalar path.
                    AddrSpace::Private | AddrSpace::Local => {
                        let old = self.mem_read(addr, sp, Type::I32)?.as_i();
                        let new = concord_svm::apply_rmw(kind, old, a1, a2);
                        self.mem_write(addr, sp, Value::I(new), Type::I32)?;
                        Value::I(old)
                    }
                    // Shared memory goes through the region view so shadowed
                    // execution logs the *operation* and replays it against
                    // the committed state (global min/add stay correct).
                    sp => {
                        self.charge_mem(addr, sp);
                        self.charge_mem(addr, sp);
                        let old = self.region.atomic_i32(addr, sp, kind, a1, a2)?;
                        Value::I(old)
                    }
                }
            }
        })
    }
}

/// Pointers may carry a stale static tag after pass-through translations;
/// the address range is authoritative.
fn reclassify(addr: u64, tagged: AddrSpace) -> AddrSpace {
    match tagged {
        AddrSpace::Local => AddrSpace::Local,
        _ => classify_raw(addr),
    }
}

fn bin_cost(op: concord_ir::BinOp, cfg: &CpuConfig) -> f64 {
    use concord_ir::BinOp::*;
    match op {
        SDiv | UDiv | SRem | URem => 12.0,
        FDiv => 8.0,
        _ => 1.0 / cfg.ipc,
    }
}
