//! The execution-device abstraction behind the runtime's offload
//! pipeline.
//!
//! [`DeviceBackend`] is what a device must provide for the runtime to run
//! a heterogeneous construct on it: consistency fences, one-time kernel
//! preparation (JIT), a scratch-slot count for reductions, and one
//! [`DeviceBackend::launch`] that takes the construct as a
//! [`Work`] descriptor over a [`Span`]. [`CpuBackend`] and [`GpuBackend`]
//! wrap the two simulators and additionally split `launch` into
//! `execute` (against a snapshot, safe to run beside the other device)
//! and `commit` (ordered merge); [`NativeBackend`] runs JIT-compiled
//! machine code. The runtime drives any of them — or two at once, for a
//! hybrid split or an overlap pair — through one wave routine, so
//! fence/JIT/metering logic exists exactly once.

use concord_cpusim::{CpuPending, CpuReport, CpuSim, Program};
use concord_energy::SystemConfig;
use concord_gpusim::{GpuPending, GpuReport, GpuSim};
use concord_ir::eval::{Trap, Value};
use concord_ir::types::AddrSpace;
use concord_ir::{FuncId, Module};
use concord_svm::{AllocError, CpuAddr, SharedAllocator, SharedRegion, VtableArea, Work};
use concord_trace::{Tracer, Track};
use std::sync::Arc;

pub use concord_svm::Span;

/// Borrowed execution state a backend needs for one launch: the shared
/// region, vtables, both compiled modules, the platform description, and
/// the tracer.
pub struct ExecCtx<'a> {
    /// Shared virtual memory region.
    pub region: &'a mut SharedRegion,
    /// Installed vtables (CPU dispatch).
    pub vtables: &'a VtableArea,
    /// The CPU-optimized module.
    pub cpu_module: &'a Module,
    /// The GPU-lowered module. Function ids are stable across the lowering
    /// clone, so the same [`FuncId`] names the kernel in both modules.
    pub gpu_module: &'a Module,
    /// Platform parameters (clocks, power, JIT cost).
    pub system: &'a SystemConfig,
    /// Trace sink.
    pub tracer: &'a Tracer,
}

/// Device-independent counters from one launch, the common denominator of
/// [`concord_cpusim::CpuReport`] and [`concord_gpusim::GpuReport`].
#[derive(Debug, Clone, Copy, Default)]
pub struct LaunchStats {
    /// Wall-clock seconds of the launch (no JIT, no host-side joins).
    pub seconds: f64,
    /// Device busy fraction: EU issue occupancy on the GPU, 1.0 on the CPU.
    pub busy_fraction: f64,
    /// Instructions executed.
    pub insts: u64,
    /// Executed pointer translations.
    pub translations: u64,
    /// Shared-memory transactions (GPU only).
    pub transactions: u64,
    /// Contended transactions (GPU only).
    pub contended: u64,
    /// L3 hit rate (GPU only).
    pub l3_hit_rate: f64,
}

impl From<CpuReport> for LaunchStats {
    fn from(r: CpuReport) -> Self {
        LaunchStats {
            seconds: r.seconds,
            busy_fraction: 1.0,
            insts: r.counters.insts,
            translations: r.counters.translations,
            ..Default::default()
        }
    }
}

impl From<GpuReport> for LaunchStats {
    fn from(r: GpuReport) -> Self {
        LaunchStats {
            seconds: r.seconds,
            busy_fraction: r.busy_fraction,
            insts: r.insts,
            translations: r.translations,
            transactions: r.transactions,
            contended: r.contended,
            l3_hit_rate: r.l3_hit_rate,
        }
    }
}

/// An execution device the runtime can offload heterogeneous constructs
/// to. Implementations wrap a simulator or the native executor; the
/// runtime supplies everything else through [`ExecCtx`].
pub trait DeviceBackend {
    /// Memory-consistency fence before this device touches the shared
    /// region (§2.3). No-op on the CPU; pins the region on the GPU.
    fn fence_in(&mut self, ctx: &mut ExecCtx<'_>);

    /// Memory-consistency fence after the device is done (unpin).
    fn fence_out(&mut self, ctx: &mut ExecCtx<'_>);

    /// One-time per-kernel preparation for `work`, run before it launches
    /// or executes; returns the seconds charged. The GPU JIT-compiles the
    /// kernel on its first launch (§3.4) and caches it afterwards; the CPU
    /// runs pre-compiled code for free.
    fn prepare(&mut self, ctx: &mut ExecCtx<'_>, class: &str, work: &Work<'_>) -> f64;

    /// How many body-sized partial-accumulator slots a reduction over
    /// `span` needs (per-warp on the GPU, per-core on the CPU).
    fn reduce_slots(&self, ctx: &ExecCtx<'_>, span: Span) -> u64;

    /// Run `work` over `span`, appending a worklist round's `push`ed items
    /// to `pushes` in the backend's fixed commit order (the runtime merges
    /// the per-span segments into the next frontier by sorting and
    /// deduplicating, so the frontier is identical on every backend at
    /// any host-thread count).
    ///
    /// A reduction performs device-level joins only and leaves one partial
    /// per slot (the GPU tree-reduces through local memory per warp,
    /// §3.3); the runtime joins the partials into the body afterwards —
    /// which is what lets a hybrid split join partials from both devices
    /// with the same kernel `join`. The exception is [`NativeBackend`],
    /// which performs that final join itself.
    ///
    /// # Errors
    ///
    /// Any [`Trap`] raised by the kernel or device-level joins; a trap
    /// discards the round's pushes.
    fn launch(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        work: &Work<'_>,
        span: Span,
        pushes: &mut Vec<i32>,
    ) -> Result<LaunchStats, Trap>;
}

/// Trace one launch (or the commit half of one) as a `name` span on
/// `track` that closes with the launch's span bounds and counters.
fn traced<R: Into<LaunchStats>>(
    tracer: &Tracer,
    track: Track,
    name: &'static str,
    span: Span,
    run: impl FnOnce() -> Result<R, Trap>,
) -> Result<LaunchStats, Trap> {
    let mut sp = tracer.span(track, name);
    let s: LaunchStats = run()?.into();
    sp.arg("lo", i64::from(span.lo));
    sp.arg("hi", i64::from(span.hi));
    sp.arg("seconds", s.seconds);
    sp.arg("insts", s.insts);
    sp.arg("translations", s.translations);
    sp.arg("transactions", s.transactions);
    sp.arg("contended", s.contended);
    sp.arg("l3_hit_rate", s.l3_hit_rate);
    sp.arg("busy_fraction", s.busy_fraction);
    Ok(s)
}

/// The multicore-CPU backend: wraps [`CpuSim`] and the [`Program`]
/// decoded from the session's CPU module, which grows kernel by kernel
/// exactly as [`GpuBackend`]'s does.
pub struct CpuBackend {
    sim: CpuSim,
    program: Program,
}

impl CpuBackend {
    pub(crate) fn new(sim: CpuSim) -> Self {
        CpuBackend { sim, program: Program::new() }
    }

    /// Host OS threads the simulators fan chunks and warps across.
    pub(crate) fn host_threads(&self) -> usize {
        self.sim.host_threads
    }

    /// The execute half of [`DeviceBackend::launch`]: run `work` against a
    /// snapshot of the region, so it may overlap another device's execute
    /// phase. A reduction's slots must already be staged
    /// ([`concord_svm::stage_reduce`]), and `work` must have been prepared.
    pub(crate) fn execute(&mut self, ctx: &ExecCtx<'_>, work: &Work<'_>, span: Span) -> CpuPending {
        self.sim.execute(ctx.region, ctx.vtables, &self.program, work, span)
    }

    /// The commit half: merge a pending launch into the live region in
    /// plan order and build its stats.
    ///
    /// # Errors
    ///
    /// The trap of the lowest trapped chunk, if any.
    pub(crate) fn commit(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        span: Span,
        pending: CpuPending,
        pushes: &mut Vec<i32>,
    ) -> Result<LaunchStats, Trap> {
        let (sim, region) = (&mut self.sim, &mut *ctx.region);
        traced(ctx.tracer, Track::Runtime, "cpu_launch", span, || {
            sim.commit(region, pending, pushes)
        })
    }

    /// Sequentially join `slots` into `body` on core 0 with the
    /// CPU-compiled `join` — the host-side final join of a reduction.
    /// Returns the host seconds spent.
    ///
    /// # Errors
    ///
    /// Any [`Trap`] raised by `join`.
    pub fn join_partials(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        join: FuncId,
        body: CpuAddr,
        slots: &[CpuAddr],
    ) -> Result<f64, Trap> {
        let mut sp = ctx.tracer.span(Track::Runtime, "reduce_join");
        sp.arg("partials", slots.len() as i64);
        // A GPU-only construct reaches the CPU `join` without a CPU launch.
        self.program.decode_from(ctx.cpu_module, join);
        let before = self.sim.core0_cycles();
        for &slot in slots {
            self.sim.call(
                ctx.region,
                ctx.vtables,
                &self.program,
                join,
                &[Value::Ptr(body.0, AddrSpace::Cpu), Value::Ptr(slot.0, AddrSpace::Cpu)],
            )?;
        }
        let seconds = (self.sim.core0_cycles() - before) / (ctx.system.cpu.freq_ghz * 1e9);
        sp.arg("seconds", seconds);
        Ok(seconds)
    }
}

impl DeviceBackend for CpuBackend {
    fn fence_in(&mut self, _ctx: &mut ExecCtx<'_>) {}

    fn fence_out(&mut self, _ctx: &mut ExecCtx<'_>) {}

    /// Decodes the kernel; the CPU runs pre-compiled code, so it is free.
    fn prepare(&mut self, ctx: &mut ExecCtx<'_>, _class: &str, work: &Work<'_>) -> f64 {
        self.program.decode(ctx.cpu_module, work);
        0.0
    }

    fn reduce_slots(&self, ctx: &ExecCtx<'_>, _span: Span) -> u64 {
        u64::from(ctx.system.cpu.cores.max(1))
    }

    fn launch(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        work: &Work<'_>,
        span: Span,
        pushes: &mut Vec<i32>,
    ) -> Result<LaunchStats, Trap> {
        let (sim, region) = (&mut self.sim, &mut *ctx.region);
        traced(ctx.tracer, Track::Runtime, "cpu_launch", span, || {
            sim.launch(region, ctx.vtables, &self.program, work, span, pushes)
        })
    }
}

/// The integrated-GPU backend: wraps [`GpuSim`], the [`Program`] decoded
/// from the session's GPU module, and the per-kernel JIT cache (§3.4).
/// `prepare` decodes what a launch will run from [`ExecCtx::gpu_module`],
/// which is the same module for the whole session, so the program grows
/// kernel by kernel and lasts as long as the session. The JIT-charge set
/// is behind an `Arc` so sessions built through [`crate::ArtifactCache`]
/// share one set process-wide — a kernel JITted by any such session is
/// free for all of them.
pub struct GpuBackend {
    sim: GpuSim,
    program: Program,
    jitted: crate::SharedJitSet,
}

impl GpuBackend {
    pub(crate) fn new(sim: GpuSim, jitted: crate::SharedJitSet) -> Self {
        GpuBackend { sim, program: Program::new(), jitted }
    }

    /// The execute half of [`DeviceBackend::launch`] (see
    /// [`CpuBackend::execute`]); takes `&self`, so it can run on a helper
    /// thread beside the CPU's. `work` must have been prepared.
    pub(crate) fn execute(&self, ctx: &ExecCtx<'_>, work: &Work<'_>, span: Span) -> GpuPending {
        self.sim.execute(ctx.region, &self.program, work, span)
    }

    /// The commit half (see [`CpuBackend::commit`]).
    ///
    /// # Errors
    ///
    /// The trap of the lowest trapped warp, if any.
    pub(crate) fn commit(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        span: Span,
        pending: GpuPending,
        pushes: &mut Vec<i32>,
    ) -> Result<LaunchStats, Trap> {
        let (sim, region) = (&mut self.sim, &mut *ctx.region);
        traced(ctx.tracer, Track::Runtime, "gpu_launch", span, || {
            sim.commit(region, pending, pushes)
        })
    }
}

impl DeviceBackend for GpuBackend {
    fn fence_in(&mut self, ctx: &mut ExecCtx<'_>) {
        let _f = ctx.tracer.span(Track::Runtime, "fence_to_gpu");
        ctx.region.fence_to_gpu();
    }

    fn fence_out(&mut self, ctx: &mut ExecCtx<'_>) {
        let _f = ctx.tracer.span(Track::Runtime, "fence_to_cpu");
        ctx.region.fence_to_cpu();
    }

    fn prepare(&mut self, ctx: &mut ExecCtx<'_>, class: &str, work: &Work<'_>) -> f64 {
        self.program.decode(ctx.gpu_module, work);
        if !self.jitted.lock().unwrap().insert(work.func) {
            return 0.0;
        }
        let jit_seconds = ctx.system.gpu.jit_ms * 1e-3;
        let mut j = ctx.tracer.span(Track::Runtime, "jit");
        j.arg("kernel", class);
        j.arg("seconds", jit_seconds);
        jit_seconds
    }

    fn reduce_slots(&self, ctx: &ExecCtx<'_>, span: Span) -> u64 {
        u64::from(span.items()).div_ceil(u64::from(ctx.system.gpu.simd_width))
    }

    fn launch(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        work: &Work<'_>,
        span: Span,
        pushes: &mut Vec<i32>,
    ) -> Result<LaunchStats, Trap> {
        let (sim, region) = (&mut self.sim, &mut *ctx.region);
        traced(ctx.tracer, Track::Runtime, "gpu_launch", span, || {
            sim.launch(region, &self.program, work, span, pushes)
        })
    }
}

/// The native-JIT backend: runs `concord-native` machine code on the host
/// CPU instead of the cycle-level interpreter. It shares the CPU
/// simulator's chunking (per simulated core) and reduction schedule, so
/// shared-region bytes and reduce totals are bit-identical to
/// [`CpuBackend`]; what changes is wall-clock time — `seconds` here is
/// measured host time, not simulated cycles. The compiled module lives in
/// a [`crate::SharedNativeModule`] slot so sessions built through
/// [`crate::ArtifactCache`] compile the machine code once process-wide.
pub struct NativeBackend {
    exec: concord_native::Executor,
    shared: crate::SharedNativeModule,
    module: Option<Arc<concord_native::NativeModule>>,
    /// Wall-clock seconds the last [`NativeBackend::ensure_prepared`]
    /// spent compiling, handed to the next `prepare` call (zero on reuse).
    pending_jit: f64,
}

impl NativeBackend {
    pub(crate) fn new(cores: u32, host_threads: usize, shared: crate::SharedNativeModule) -> Self {
        NativeBackend {
            exec: concord_native::Executor::new(cores as usize, host_threads),
            shared,
            module: None,
            pending_jit: 0.0,
        }
    }

    /// Compile the session's CPU module to machine code. Runs the codegen
    /// at most once per shared slot — later calls, and other sessions that
    /// hit the same artifact-cache entry, reuse the executable buffer —
    /// and stashes the wall-clock compile seconds for the next
    /// [`DeviceBackend::prepare`] call.
    ///
    /// # Errors
    ///
    /// [`concord_native::CompileError`] when the host is not x86-64 Linux
    /// or the module cannot be lowered.
    pub(crate) fn ensure_prepared(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        class: &str,
    ) -> Result<(), concord_native::CompileError> {
        if self.module.is_some() {
            return Ok(());
        }
        let mut slot = self.shared.lock().unwrap();
        if let Some(m) = slot.as_ref() {
            self.module = Some(Arc::clone(m));
            return Ok(());
        }
        let start = std::time::Instant::now();
        let mut sp = ctx.tracer.span(Track::Native, "codegen");
        sp.arg("kernel", class);
        let compiled = Arc::new(concord_native::compile(ctx.cpu_module)?);
        let seconds = start.elapsed().as_secs_f64();
        sp.arg("code_bytes", compiled.code_len() as i64);
        sp.arg("seconds", seconds);
        *slot = Some(Arc::clone(&compiled));
        self.module = Some(compiled);
        self.pending_jit = seconds;
        Ok(())
    }

    fn module(&self) -> Arc<concord_native::NativeModule> {
        Arc::clone(self.module.as_ref().expect("ensure_prepared runs before native launches"))
    }
}

impl DeviceBackend for NativeBackend {
    fn fence_in(&mut self, _ctx: &mut ExecCtx<'_>) {}

    fn fence_out(&mut self, _ctx: &mut ExecCtx<'_>) {}

    fn prepare(&mut self, _ctx: &mut ExecCtx<'_>, _class: &str, _work: &Work<'_>) -> f64 {
        std::mem::take(&mut self.pending_jit)
    }

    fn reduce_slots(&self, _ctx: &ExecCtx<'_>, _span: Span) -> u64 {
        // One chunk lane per simulated core, matching CpuBackend, so the
        // reduction schedule (and hence float accumulation order) is the
        // same.
        self.exec.cores() as u64
    }

    /// Native plans are never split, so a reduction's span is the full
    /// range — and unlike the simulator backends, the executor performs
    /// the final sequential join into the body itself (same schedule the
    /// runtime would use); the caller must skip its interpreter join.
    fn launch(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        work: &Work<'_>,
        span: Span,
        pushes: &mut Vec<i32>,
    ) -> Result<LaunchStats, Trap> {
        debug_assert_eq!(span.lo, 0, "native plans are single full spans");
        let nm = self.module();
        let (exec, region) = (&mut self.exec, &mut *ctx.region);
        traced(ctx.tracer, Track::Native, "native_launch", span, || {
            let start = std::time::Instant::now();
            let r = exec.launch(region, &nm, ctx.cpu_module, work, span, pushes)?;
            Ok(LaunchStats {
                seconds: start.elapsed().as_secs_f64(),
                busy_fraction: 1.0,
                insts: r.insts,
                ..Default::default()
            })
        })
    }
}

/// RAII guard for per-wave scratch allocations in the shared region.
///
/// `parallel_reduce_hetero` needs per-warp / per-core partial slots that
/// must not outlive the wave; freeing them through `Drop` guarantees
/// they are released on *every* exit path, a kernel [`Trap`] included.
pub struct ScratchGuard<'a> {
    heap: &'a mut SharedAllocator,
    slots: Vec<CpuAddr>,
}

impl<'a> ScratchGuard<'a> {
    /// A guard that holds no slots yet.
    pub fn new(heap: &'a mut SharedAllocator) -> Self {
        ScratchGuard { heap, slots: Vec::new() }
    }

    /// Allocate `count` more slots of `size` bytes, appended to
    /// [`ScratchGuard::slots`]. On a mid-way allocation failure the slots
    /// this call allocated are freed before returning.
    ///
    /// # Errors
    ///
    /// [`AllocError`] when the region is exhausted.
    pub fn alloc(&mut self, count: u64, size: u64) -> Result<(), AllocError> {
        let mut more = ScratchGuard::new(&mut *self.heap);
        for _ in 0..count {
            let slot = more.heap.malloc(size)?;
            more.slots.push(slot);
        }
        self.slots.append(&mut more.slots);
        Ok(())
    }

    /// The allocator the slots come from.
    #[must_use]
    pub fn heap(&self) -> &SharedAllocator {
        self.heap
    }

    /// The allocated slots, in allocation order.
    #[must_use]
    pub fn slots(&self) -> &[CpuAddr] {
        &self.slots
    }
}

impl Drop for ScratchGuard<'_> {
    fn drop(&mut self) {
        for &slot in &self.slots {
            // The slots were handed out by this allocator and freed nowhere
            // else, so a free can only fail on allocator corruption — not
            // something to surface from a destructor.
            let _ = self.heap.free(slot);
        }
    }
}
