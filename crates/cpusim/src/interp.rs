//! Scalar IR interpreter with CPU timing hooks.
//!
//! Executes one work-item (or host-side call) at a time against the shared
//! region, charging cycles to a [`CoreCtx`] according to the CPU timing
//! model: superscalar issue, a gshare branch predictor, and an L1 + shared
//! LLC cache hierarchy.

use crate::cache::Cache;
use crate::predictor::Gshare;
use concord_energy::CpuConfig;
use concord_ir::eval::{eval_bin, eval_cast, eval_fcmp, eval_icmp, Trap, Value};
use concord_ir::inst::{BlockId, FuncId, Intrinsic, Op, ValueId};
use concord_ir::types::{AddrSpace, Type};
use concord_ir::{Function, Module};
use concord_svm::{AtomicKind, RegionMem, VtableArea, SVM_CONST};
use std::collections::HashMap;

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
pub struct CoreCtx {
    /// Accumulated cycles.
    pub cycles: f64,
    /// L1 data cache.
    pub l1: Cache,
    /// Branch predictor.
    pub predictor: Gshare,
    /// Event counters.
    pub counters: Counters,
}

impl CoreCtx {
    /// Fresh core state for a CPU configuration.
    pub fn new(cfg: &CpuConfig) -> Self {
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
pub struct PrivateMem {
    data: Vec<u8>,
    sp: u64,
}

impl PrivateMem {
    /// A private memory of `bytes` capacity.
    pub fn new(bytes: u64) -> Self {
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

    /// Current stack pointer (bytes used).
    pub fn sp(&self) -> u64 {
        self.sp
    }

    /// Restore the stack pointer (frame pop for external drivers).
    pub fn set_sp(&mut self, sp: u64) {
        self.sp = sp;
    }

    /// Reserve a frame of `size` bytes; returns the aligned frame base
    /// offset (add [`PRIVATE_BASE`] for the address).
    ///
    /// # Errors
    ///
    /// [`Trap::StackOverflow`] when private memory is exhausted.
    pub fn push_frame_public(&mut self, size: u64) -> Result<u64, Trap> {
        let base = self.sp.div_ceil(16) * 16;
        self.push_frame(size)?;
        Ok(base)
    }

    fn check(&self, addr: u64, len: u64) -> Result<u64, Trap> {
        let off = addr.wrapping_sub(PRIVATE_BASE);
        if off.checked_add(len).is_none_or(|e| e > self.data.len() as u64) {
            return Err(Trap::BadAddress { addr, space: AddrSpace::Private });
        }
        Ok(off)
    }

    /// Read a typed value from private memory.
    ///
    /// # Errors
    ///
    /// Out-of-range addresses.
    pub fn read(&self, addr: u64, ty: Type) -> Result<Value, Trap> {
        let off = self.check(addr, ty.size())? as usize;
        let b = &self.data[off..off + ty.size() as usize];
        Ok(match ty {
            Type::I1 | Type::I8 => Value::I(b[0] as i8 as i64),
            Type::I16 => Value::I(i16::from_le_bytes([b[0], b[1]]) as i64),
            Type::I32 => Value::I(i32::from_le_bytes(b.try_into().unwrap()) as i64),
            Type::I64 => Value::I(i64::from_le_bytes(b.try_into().unwrap())),
            Type::F32 => Value::F(f32::from_le_bytes(b.try_into().unwrap()) as f64),
            Type::F64 => Value::F(f64::from_le_bytes(b.try_into().unwrap())),
            // Pointers in memory are CPU-representation (or private/local
            // addresses, which resolve by range); tag as Cpu and let the
            // memory router re-classify by address range.
            Type::Ptr(_) => {
                let raw = u64::from_le_bytes(b.try_into().unwrap());
                Value::Ptr(raw, classify_raw(raw))
            }
            Type::Void => unreachable!(),
        })
    }

    /// Write a typed value to private memory.
    ///
    /// # Errors
    ///
    /// Out-of-range addresses.
    pub fn write(&mut self, addr: u64, v: Value, ty: Type) -> Result<(), Trap> {
        let off = self.check(addr, ty.size())? as usize;
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
        self.data[off..off + bytes.len()].copy_from_slice(&bytes);
        Ok(())
    }
}

/// Classify a raw pointer bit pattern by address range. Needed because
/// private memory can hold pointers to both shared and private data.
pub fn classify_raw(raw: u64) -> AddrSpace {
    if raw >= concord_svm::GPU_BASE {
        AddrSpace::Gpu
    } else if raw >= concord_svm::CPU_BASE {
        AddrSpace::Cpu
    } else {
        AddrSpace::Private
    }
}

/// Static per-function frame layout: fixed offsets for each alloca.
#[derive(Debug, Clone, Default)]
pub struct FrameLayout {
    /// Alloca instruction → byte offset within the frame.
    pub offsets: HashMap<ValueId, u64>,
    /// Total frame size in bytes.
    pub size: u64,
}

/// Compute the frame layout of a function.
pub fn frame_layout(f: &Function) -> FrameLayout {
    let mut offsets = HashMap::new();
    let mut size = 0u64;
    for b in f.block_ids() {
        for &id in &f.block(b).insts {
            if let Op::Alloca { size: s, align } = f.inst(id).op {
                size = size.div_ceil(align) * align;
                offsets.insert(id, size);
                size += s;
            }
        }
    }
    FrameLayout { offsets, size: size.div_ceil(16) * 16 }
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
pub enum LlcSink<'a> {
    /// Charge LLC/memory cycles immediately against this shared cache.
    Live(&'a mut Cache),
    /// Defer: record L1-miss addresses; cycles are charged at commit.
    Log(&'a mut Vec<u64>),
}

/// The scalar interpreter.
///
/// Generic over the memory view `M`: a live [`concord_svm::SharedRegion`] for serial
/// execution, or a [`concord_svm::ShadowRegion`] snapshot + write-log when
/// chunks execute concurrently on host threads.
pub struct Interp<'a, M: RegionMem> {
    /// Module being executed.
    pub module: &'a Module,
    /// Shared virtual memory (live or shadowed).
    pub region: &'a mut M,
    /// Installed vtables (for CPU-side dynamic dispatch).
    pub vtables: &'a VtableArea,
    /// Private memory of the executing core.
    pub private: &'a mut PrivateMem,
    /// Timing state of the executing core.
    pub core: &'a mut CoreCtx,
    /// Timing parameters.
    pub cfg: &'a CpuConfig,
    /// Shared last-level cache (live or deferred to commit).
    pub llc: LlcSink<'a>,
    /// Current work-item ids.
    pub ids: WorkIds,
    /// Remaining instruction budget (runaway-loop guard).
    pub step_budget: u64,
    /// Maximum call depth.
    pub max_depth: u32,
    /// Next-frontier push segment of the enclosing worklist round, if any.
    /// `push(item)` appends here; `None` outside `parallel_worklist_hetero`
    /// (where the intrinsic traps).
    pub wl: Option<&'a mut Vec<i32>>,
}

/// Cached frame layouts for a module, and the buffers [`Interp::call`]
/// reuses from one simulated call to the next: register files, argument
/// lists and phi groups. Without them every simulated call is a handful
/// of `malloc`/`free` pairs, and that is not only slow: a chunk now runs on
/// the launching thread beside a pool helper, the allocator hands each of
/// the two threads small blocks the other one freed, and two threads
/// recycling neighbouring blocks share cache lines (`cpu.BarnesHut` ran
/// 1.5× slower that way — EXPERIMENTS.md, "Launch fan-out").
#[derive(Debug, Default, Clone)]
pub struct LayoutCache {
    layouts: HashMap<FuncId, FrameLayout>,
    regs: Vec<Vec<Option<Value>>>,
    args: Vec<Vec<Value>>,
    phis: Vec<Vec<(ValueId, Value)>>,
}

impl LayoutCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Layout for `fid`, computing it on first use.
    pub fn get(&mut self, module: &Module, fid: FuncId) -> &FrameLayout {
        self.layouts.entry(fid).or_insert_with(|| frame_layout(module.function(fid)))
    }
}

/// An empty buffer from `pool`, keeping the capacity of its last use.
fn recycled<T>(pool: &mut Vec<Vec<T>>) -> Vec<T> {
    let mut buf = pool.pop().unwrap_or_default();
    buf.clear();
    buf
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
    pub fn call(
        &mut self,
        layouts: &mut LayoutCache,
        fid: FuncId,
        args: &[Value],
    ) -> Result<Option<Value>, Trap> {
        self.call_depth(layouts, fid, args, 0)
    }

    fn call_depth(
        &mut self,
        layouts: &mut LayoutCache,
        fid: FuncId,
        args: &[Value],
        depth: u32,
    ) -> Result<Option<Value>, Trap> {
        if depth > self.max_depth {
            return Err(Trap::StackOverflow);
        }
        let f = self.module.function(fid);
        let frame_size = layouts.get(self.module, fid).size;
        let old_sp = self.private.push_frame(frame_size)?;
        let frame_base = PRIVATE_BASE + (old_sp.div_ceil(16) * 16);
        // A trap leaves through `?` and drops its buffers instead of
        // returning them: the pools only have to be warm on the hot path.
        let mut regs = recycled(&mut layouts.regs);
        regs.resize(f.insts.len(), None);
        for (i, &a) in args.iter().enumerate() {
            if i < f.params.len() {
                regs[i] = Some(a);
            }
        }
        let mut block = f.entry();
        let mut prev: Option<BlockId> = None;
        let result = 'outer: loop {
            // Phi group resolution (parallel reads).
            let insts = &f.block(block).insts;
            let mut phi_vals = recycled(&mut layouts.phis);
            for &id in insts {
                if let Op::Phi(incoming) = &f.inst(id).op {
                    let p = prev.expect("phi in entry block");
                    let (_, v) = incoming
                        .iter()
                        .find(|(pb, _)| *pb == p)
                        .expect("phi covers predecessor (verified IR)");
                    let val = regs[v.0 as usize].ok_or(Trap::Unreachable)?;
                    phi_vals.push((id, val));
                } else {
                    break;
                }
            }
            let phi_count = phi_vals.len();
            for (id, v) in phi_vals.drain(..) {
                regs[id.0 as usize] = Some(v);
                self.core.counters.insts += 1;
                self.core.cycles += 1.0 / self.cfg.ipc;
                if self.step_budget == 0 {
                    break 'outer Err(Trap::StepLimitExceeded {
                        kernel: f.name.clone(),
                        global_id: self.ids.global,
                    });
                }
                self.step_budget -= 1;
            }
            layouts.phis.push(phi_vals);
            for idx in phi_count..f.block(block).insts.len() {
                let id = f.block(block).insts[idx];
                if self.step_budget == 0 {
                    break 'outer Err(Trap::StepLimitExceeded {
                        kernel: f.name.clone(),
                        global_id: self.ids.global,
                    });
                }
                self.step_budget -= 1;
                self.core.counters.insts += 1;
                let inst = f.inst(id);
                let get = |regs: &Vec<Option<Value>>, v: ValueId| -> Result<Value, Trap> {
                    regs[v.0 as usize].ok_or(Trap::Unreachable)
                };
                match &inst.op {
                    Op::Param(i) => {
                        regs[id.0 as usize] = Some(args[*i as usize]);
                    }
                    Op::ConstInt(v) => {
                        let val = match inst.ty {
                            Type::Ptr(sp) => Value::Ptr(*v as u64, sp),
                            _ => Value::I(*v),
                        };
                        regs[id.0 as usize] = Some(val);
                    }
                    Op::ConstFloat(v) => {
                        let v = if inst.ty == Type::F32 { *v as f32 as f64 } else { *v };
                        regs[id.0 as usize] = Some(Value::F(v));
                    }
                    Op::ConstNull => {
                        let sp = inst.ty.addr_space().unwrap_or(AddrSpace::Cpu);
                        regs[id.0 as usize] = Some(Value::Ptr(0, sp));
                    }
                    Op::Bin(op, a, b) => {
                        self.core.cycles += bin_cost(*op, self.cfg);
                        let r = eval_bin(*op, get(&regs, *a)?, get(&regs, *b)?, inst.ty)?;
                        regs[id.0 as usize] = Some(r);
                    }
                    Op::Icmp(p, a, b) => {
                        self.core.cycles += 1.0 / self.cfg.ipc;
                        regs[id.0 as usize] = Some(eval_icmp(*p, get(&regs, *a)?, get(&regs, *b)?));
                    }
                    Op::Fcmp(p, a, b) => {
                        self.core.cycles += 1.0 / self.cfg.ipc;
                        regs[id.0 as usize] = Some(eval_fcmp(*p, get(&regs, *a)?, get(&regs, *b)?));
                    }
                    Op::Cast(op, a) => {
                        self.core.cycles += 1.0 / self.cfg.ipc;
                        let from = f.inst(*a).ty;
                        regs[id.0 as usize] = Some(eval_cast(*op, get(&regs, *a)?, from, inst.ty));
                    }
                    Op::Select(c, a, b) => {
                        self.core.cycles += 1.0 / self.cfg.ipc;
                        let v = if get(&regs, *c)?.as_bool() {
                            get(&regs, *a)?
                        } else {
                            get(&regs, *b)?
                        };
                        regs[id.0 as usize] = Some(v);
                    }
                    Op::Alloca { .. } => {
                        self.core.cycles += 1.0 / self.cfg.ipc;
                        let off = layouts.get(self.module, fid).offsets[&id];
                        regs[id.0 as usize] =
                            Some(Value::Ptr(frame_base + off, AddrSpace::Private));
                    }
                    Op::Load(p) => {
                        self.core.counters.loads += 1;
                        let (addr, sp) = get(&regs, *p)?.as_ptr();
                        let sp = reclassify(addr, sp);
                        let v = self.mem_read(addr, sp, inst.ty)?;
                        regs[id.0 as usize] = Some(v);
                    }
                    Op::Store { ptr, val } => {
                        self.core.counters.stores += 1;
                        let (addr, sp) = get(&regs, *ptr)?.as_ptr();
                        let sp = reclassify(addr, sp);
                        let v = get(&regs, *val)?;
                        let ty = f.inst(*val).ty;
                        self.mem_write(addr, sp, v, ty)?;
                    }
                    Op::Gep { base, offset } => {
                        self.core.cycles += 1.0 / self.cfg.ipc;
                        let (addr, sp) = get(&regs, *base)?.as_ptr();
                        let off = get(&regs, *offset)?.as_i();
                        regs[id.0 as usize] = Some(Value::Ptr(addr.wrapping_add(off as u64), sp));
                    }
                    Op::CpuToGpu(p) => {
                        self.core.cycles += 1.0 / self.cfg.ipc;
                        self.core.counters.translations += 1;
                        let (addr, sp) = get(&regs, *p)?.as_ptr();
                        let v = match sp {
                            AddrSpace::Cpu if addr != 0 => {
                                Value::Ptr(addr.wrapping_add(SVM_CONST), AddrSpace::Gpu)
                            }
                            // Generic-pointer pass-through (private/local/null).
                            _ => Value::Ptr(addr, sp),
                        };
                        regs[id.0 as usize] = Some(v);
                    }
                    Op::GpuToCpu(p) => {
                        self.core.cycles += 1.0 / self.cfg.ipc;
                        self.core.counters.translations += 1;
                        let (addr, sp) = get(&regs, *p)?.as_ptr();
                        let v = match sp {
                            AddrSpace::Gpu if addr != 0 => {
                                Value::Ptr(addr.wrapping_sub(SVM_CONST), AddrSpace::Cpu)
                            }
                            _ => Value::Ptr(addr, sp),
                        };
                        regs[id.0 as usize] = Some(v);
                    }
                    Op::Phi(_) => unreachable!("phi group handled at block entry"),
                    Op::Call { callee, args: call_args } => {
                        self.core.counters.calls += 1;
                        self.core.cycles += 2.0;
                        let mut vals = recycled(&mut layouts.args);
                        for a in call_args {
                            vals.push(get(&regs, *a)?);
                        }
                        let r = self.call_depth(layouts, *callee, &vals, depth + 1)?;
                        layouts.args.push(vals);
                        if inst.ty != Type::Void {
                            regs[id.0 as usize] = Some(r.ok_or(Trap::Unreachable)?);
                        }
                    }
                    Op::CallVirtual { obj, args: call_args, slot, .. } => {
                        self.core.counters.calls += 1;
                        // vtable load + indirect call overhead.
                        let (obj_addr, obj_sp) = get(&regs, *obj)?.as_ptr();
                        let obj_sp = reclassify(obj_addr, obj_sp);
                        let vptr = self.mem_read(obj_addr, obj_sp, Type::Ptr(AddrSpace::Cpu))?;
                        let (vaddr, _) = vptr.as_ptr();
                        let target = self.vtables.dispatch(
                            self.region.snapshot(),
                            concord_svm::CpuAddr(vaddr),
                            *slot,
                        )?;
                        self.core.cycles += 3.0;
                        let mut vals = recycled(&mut layouts.args);
                        vals.push(get(&regs, *obj)?);
                        for a in call_args {
                            vals.push(get(&regs, *a)?);
                        }
                        let r = self.call_depth(layouts, target, &vals, depth + 1)?;
                        layouts.args.push(vals);
                        if inst.ty != Type::Void {
                            regs[id.0 as usize] = Some(r.ok_or(Trap::Unreachable)?);
                        }
                    }
                    Op::IntrinsicCall(intr, iargs) => {
                        let mut vals = recycled(&mut layouts.args);
                        for a in iargs {
                            vals.push(get(&regs, *a)?);
                        }
                        let v = self.intrinsic(*intr, &vals)?;
                        layouts.args.push(vals);
                        if inst.ty != Type::Void {
                            regs[id.0 as usize] = Some(v);
                        }
                    }
                    Op::Br(t) => {
                        self.core.cycles += 1.0 / self.cfg.ipc;
                        prev = Some(block);
                        block = *t;
                        continue 'outer;
                    }
                    Op::CondBr(c, t, e) => {
                        self.core.counters.branches += 1;
                        let taken = get(&regs, *c)?.as_bool();
                        let correct = self
                            .core
                            .predictor
                            .predict_and_update(id.0 as u64 ^ ((fid.0 as u64) << 32), taken);
                        self.core.cycles += 1.0 / self.cfg.ipc;
                        if !correct {
                            self.core.cycles += self.cfg.branch_miss_penalty;
                        }
                        prev = Some(block);
                        block = if taken { *t } else { *e };
                        continue 'outer;
                    }
                    Op::Ret(v) => {
                        self.core.cycles += 1.0 / self.cfg.ipc;
                        let out = match v {
                            Some(v) => Some(get(&regs, *v)?),
                            None => None,
                        };
                        break 'outer Ok(out);
                    }
                    Op::Unreachable => break 'outer Err(Trap::Unreachable),
                }
            }
            // Fell off a block without a terminator: verifier prevents this.
            break 'outer Err(Trap::Unreachable);
        };
        self.private.pop_frame(old_sp);
        layouts.regs.push(regs);
        result
    }

    fn intrinsic(&mut self, intr: Intrinsic, vals: &[Value]) -> Result<Value, Trap> {
        let f32r = |x: f64| Value::F(x as f32 as f64);
        Ok(match intr {
            Intrinsic::GlobalId => Value::I(self.ids.global),
            Intrinsic::GlobalSize => Value::I(self.ids.size),
            Intrinsic::LocalId => Value::I(self.ids.local),
            Intrinsic::GroupId => Value::I(self.ids.group),
            Intrinsic::Barrier => Value::I(0), // sequential CPU: no-op
            Intrinsic::Sqrt => {
                self.core.cycles += 7.0;
                f32r(vals[0].as_f().sqrt())
            }
            Intrinsic::FAbs => {
                self.core.cycles += 1.0 / self.cfg.ipc;
                f32r(vals[0].as_f().abs())
            }
            Intrinsic::Floor => {
                self.core.cycles += 1.0 / self.cfg.ipc;
                f32r(vals[0].as_f().floor())
            }
            Intrinsic::Exp => {
                self.core.cycles += 20.0;
                f32r(vals[0].as_f().exp())
            }
            Intrinsic::Pow => {
                self.core.cycles += 25.0;
                f32r(vals[0].as_f().powf(vals[1].as_f()))
            }
            Intrinsic::FMin => {
                self.core.cycles += 1.0 / self.cfg.ipc;
                f32r(vals[0].as_f().min(vals[1].as_f()))
            }
            Intrinsic::FMax => {
                self.core.cycles += 1.0 / self.cfg.ipc;
                f32r(vals[0].as_f().max(vals[1].as_f()))
            }
            Intrinsic::SMin => {
                self.core.cycles += 1.0 / self.cfg.ipc;
                Value::I(vals[0].as_i().min(vals[1].as_i()))
            }
            Intrinsic::SMax => {
                self.core.cycles += 1.0 / self.cfg.ipc;
                Value::I(vals[0].as_i().max(vals[1].as_i()))
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
