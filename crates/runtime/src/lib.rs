//! # concord-runtime
//!
//! The Concord runtime (§3): compiles a kernel-language program once,
//! holds the shared virtual memory region, and dispatches
//! `parallel_for_hetero` / `parallel_reduce_hetero` calls to the CPU
//! and/or GPU simulator — with JIT caching of GPU binaries (§3.4), memory
//! consistency fences at offload boundaries (§2.3), CPU fallback for
//! kernels that violate GPU restrictions (§2.1), and package-energy
//! accounting (§5.1).
//!
//! Execution devices sit behind the [`DeviceBackend`] trait
//! ([`backend`]); which device runs which sub-range is decided by the
//! [`scheduler`]. Besides the paper's `Cpu`/`Gpu` flags, [`Target`]
//! offers `Hybrid { gpu_fraction }` (static split across both devices
//! under one fence pair), `Auto` (deterministic adaptive split from
//! per-kernel profile history), and `Native` (JIT-compiled x86-64 machine
//! code on the host CPU via `concord-native`, bit-identical results to
//! `Cpu` at wall-clock speed).
//!
//! ## Example
//!
//! ```
//! use concord_runtime::{Concord, Options, Target};
//!
//! # fn main() -> Result<(), concord_runtime::RuntimeError> {
//! let src = r#"
//!     struct Node { Node* next; };
//!     class LoopBody {
//!     public:
//!         Node* nodes;
//!         void operator()(int i) { nodes[i].next = &(nodes[i+1]); }
//!     };
//! "#;
//! let mut cc = Concord::new(concord_energy::SystemConfig::ultrabook(), src, Options::default())?;
//! let nodes = cc.malloc(101 * 8)?;
//! let body = cc.malloc(8)?;
//! cc.region_mut().write_ptr(body, nodes)?;
//! let report = cc.parallel_for_hetero("LoopBody", body, 100, Target::Auto)?;
//! assert!(report.total_seconds() > 0.0);
//! # Ok(())
//! # }
//! ```

pub mod backend;
pub mod cache;
pub mod graph;
pub mod scheduler;
pub mod session;

pub use backend::{
    CpuBackend, DeviceBackend, ExecCtx, GpuBackend, LaunchStats, NativeBackend, ScratchGuard, Span,
};
pub use cache::{source_hash, ArtifactCache, SharedJitSet, SharedNativeModule};
pub use concord_analyze::{
    AccessBase, AccessMode, AccessPattern, AccessSummary, Gate as AnalysisGate,
    Mode as AnalysisMode, Report as AnalysisReport,
};
pub use graph::{Conflict, FootRange, Footprint, GraphStats, LaunchId};
pub use scheduler::{DeviceClass, Plan, ProfileHistory, Target};
pub use session::SessionOp;

use concord_compiler::{lower_for_gpu_traced, GpuArtifact, GpuConfig};
use concord_cpusim::CpuSim;
use concord_energy::{Device, EnergyMeter, PhaseReport, SystemConfig};
use concord_frontend::{CompileError, LoweredProgram};
use concord_gpusim::GpuSim;
use concord_ir::analysis::uses_gated_ops;
use concord_ir::eval::Trap;
use concord_ir::FuncId;
use concord_svm::{
    stage_reduce, AllocError, CpuAddr, SharedAllocator, SharedRegion, VtableArea, Work, WorkKind,
};
use concord_trace::{TraceConfig, Tracer, Track};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, Mutex};

// Sessions migrate across `concord-pool` workers in the serving layer, so
// the context, its reports, and everything they own must be `Send`. These
// are compile-time assertions: a non-`Send` field anywhere in the graph
// fails the build here, not at a distant spawn site.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Concord>();
    assert_send::<OffloadReport>();
    assert_send::<RuntimeError>();
};

/// Any error the runtime can produce.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// Kernel-language compilation failed.
    Compile(CompileError),
    /// Shared-region allocation failed.
    Alloc(AllocError),
    /// A kernel trapped at runtime.
    Trap(Trap),
    /// The named kernel class does not exist.
    NoSuchKernel(String),
    /// `parallel_reduce_hetero` on a class without a `join` method.
    NoJoin(String),
    /// `Target::Native` on a host where the native backend cannot run
    /// (not x86-64 Linux) or cannot lower the module.
    NativeUnsupported(String),
    /// The pre-launch static analysis gate ([`Options::analysis`] =
    /// [`AnalysisGate::Deny`]) found error-severity defects.
    AnalysisDenied {
        /// The kernel class that was refused.
        kernel: String,
        /// The full analysis report (render with
        /// [`AnalysisReport::to_text`] or [`AnalysisReport::to_json`]).
        report: AnalysisReport,
    },
    /// [`Concord::complete`] on a launch id that was never submitted (or
    /// whose result was already taken).
    UnknownLaunch(LaunchId),
    /// A [`Concord::replay_serial`] / [`Concord::replay_graph`] op stream
    /// diverged from the recording session (different allocator layout or
    /// region size).
    ReplayDiverged(String),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Compile(e) => write!(f, "{e}"),
            RuntimeError::Alloc(e) => write!(f, "{e}"),
            RuntimeError::Trap(t) => write!(f, "kernel trapped: {t}"),
            RuntimeError::NoSuchKernel(n) => write!(f, "no kernel class named `{n}`"),
            RuntimeError::NoJoin(n) => {
                write!(f, "class `{n}` has no join method for parallel_reduce")
            }
            RuntimeError::NativeUnsupported(why) => {
                write!(f, "native backend unavailable: {why}")
            }
            RuntimeError::AnalysisDenied { kernel, report } => {
                write!(
                    f,
                    "kernel `{kernel}` denied by static analysis ({} error(s)):\n{}",
                    report.count_at(concord_analyze::Severity::Error),
                    report.to_text()
                )
            }
            RuntimeError::UnknownLaunch(id) => {
                write!(f, "no pending or completed {id}")
            }
            RuntimeError::ReplayDiverged(why) => {
                write!(f, "session replay diverged from the recording: {why}")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<CompileError> for RuntimeError {
    fn from(e: CompileError) -> Self {
        RuntimeError::Compile(e)
    }
}

impl From<AllocError> for RuntimeError {
    fn from(e: AllocError) -> Self {
        RuntimeError::Alloc(e)
    }
}

impl From<Trap> for RuntimeError {
    fn from(t: Trap) -> Self {
        RuntimeError::Trap(t)
    }
}

/// Runtime construction options.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Shared-region capacity in bytes.
    pub region_bytes: u64,
    /// GPU compilation configuration (which of the paper's four evaluated
    /// configurations to use).
    pub gpu_config: Option<GpuConfig>,
    /// Tracing configuration (disabled by default; see [`concord_trace`]).
    pub trace: TraceConfig,
    /// Host OS threads the simulators may fan simulated cores and warps
    /// across. `None` reads `CONCORD_HOST_THREADS` (default 1). Every
    /// report, trace, and byte of workload output is identical for any
    /// value — execution uses snapshot-and-log isolation with a fixed
    /// chunk-order merge.
    pub host_threads: Option<usize>,
    /// Pre-launch static analysis gate (see `concord-analyze`): `Off`
    /// skips the analyzer, `Warn` (the default) traces findings but
    /// always launches, `Deny` refuses kernels with error-severity
    /// findings with [`RuntimeError::AnalysisDenied`].
    pub analysis: AnalysisGate,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            region_bytes: 64 << 20,
            gpu_config: None,
            trace: TraceConfig::default(),
            host_threads: None,
            analysis: AnalysisGate::default(),
        }
    }
}

/// Result of one heterogeneous construct invocation. A hybrid construct
/// merges its per-device sub-reports with [`OffloadReport::merge_parallel`].
#[derive(Debug, Clone, Copy, Default)]
pub struct OffloadReport {
    /// Seconds spent JIT-compiling the GPU binary for this construct
    /// (non-zero only on the first GPU launch of a kernel, §3.4).
    pub jit_seconds: f64,
    /// Seconds spent executing the construct (fences, launches, kernel,
    /// and for reductions the host-side final join). Concurrent
    /// sub-launches of a hybrid split contribute their maximum.
    pub exec_seconds: f64,
    /// Package energy in joules for the construct (sum over devices).
    pub joules: f64,
    /// True when any part of the construct ran on the GPU.
    pub on_gpu: bool,
    /// True when a GPU request fell back to the CPU (restriction).
    pub fell_back: bool,
    /// Executed pointer translations (summed over devices).
    pub translations: u64,
    /// Shared-memory transactions (GPU only).
    pub transactions: u64,
    /// Contended transactions (GPU only).
    pub contended: u64,
    /// Device busy fraction: GPU EU issue occupancy when the construct
    /// touched the GPU, 1.0 for pure-CPU launches.
    pub busy_fraction: f64,
    /// GPU L3 hit rate (GPU only).
    pub l3_hit_rate: f64,
    /// Instructions executed (summed over devices).
    pub insts: u64,
}

impl OffloadReport {
    /// Total wall-clock seconds for the construct: JIT plus execution.
    #[must_use]
    pub fn total_seconds(&self) -> f64 {
        self.jit_seconds + self.exec_seconds
    }

    /// Merge per-device sub-reports of one construct executed
    /// concurrently under a single fence pair.
    ///
    /// Invariants (tested): `joules`, `insts`, `translations`,
    /// `transactions`, and `contended` are sums; `exec_seconds` is the
    /// maximum (the devices run side by side); `jit_seconds` is the sum
    /// (only a GPU part ever charges it, at most once per kernel);
    /// `busy_fraction` and `l3_hit_rate` come from the GPU part when
    /// present; `on_gpu` / `fell_back` are ORs.
    #[must_use]
    pub fn merge_parallel(parts: &[OffloadReport]) -> OffloadReport {
        let mut merged = OffloadReport::default();
        for p in parts {
            merged.jit_seconds += p.jit_seconds;
            merged.exec_seconds = merged.exec_seconds.max(p.exec_seconds);
            merged.joules += p.joules;
            merged.translations += p.translations;
            merged.transactions += p.transactions;
            merged.contended += p.contended;
            merged.insts += p.insts;
            merged.on_gpu |= p.on_gpu;
            merged.fell_back |= p.fell_back;
        }
        // The GPU's occupancy and cache behaviour are the interesting ones
        // for a mixed construct; fall back to the first part (a pure-CPU
        // merge) otherwise.
        let rates = parts.iter().find(|p| p.on_gpu).or_else(|| parts.first());
        if let Some(p) = rates {
            merged.busy_fraction = p.busy_fraction;
            merged.l3_hit_rate = p.l3_hit_rate;
        }
        merged
    }
}

/// Result of one `parallel_worklist_hetero` invocation: the per-round
/// frontier sizes (the workload's convergence shape) plus the merged
/// offload report over all rounds.
#[derive(Debug, Clone, Default)]
pub struct WorklistReport {
    /// Frontier size of each executed round, in round order. Deterministic
    /// for every target and host-thread count: the frontier merge is
    /// a sorted, deduplicated union of the rounds' pushes.
    pub frontier_sizes: Vec<u32>,
    /// Construct-level counters summed over all rounds (`exec_seconds`
    /// adds — rounds run one after another).
    pub offload: OffloadReport,
}

impl WorklistReport {
    /// Number of executed rounds (empty-seed invocations run zero).
    #[must_use]
    pub fn rounds(&self) -> usize {
        self.frontier_sizes.len()
    }

    /// Total work items drained across all rounds.
    #[must_use]
    pub fn total_items(&self) -> u64 {
        self.frontier_sizes.iter().map(|&n| u64::from(n)).sum()
    }

    /// Fold one round's report into the running totals (sequential
    /// composition: seconds add, rates come from the latest round that
    /// has them).
    fn absorb(&mut self, round: &OffloadReport) {
        let acc = &mut self.offload;
        acc.jit_seconds += round.jit_seconds;
        acc.exec_seconds += round.exec_seconds;
        acc.joules += round.joules;
        acc.translations += round.translations;
        acc.transactions += round.transactions;
        acc.contended += round.contended;
        acc.insts += round.insts;
        acc.on_gpu |= round.on_gpu;
        acc.fell_back |= round.fell_back;
        acc.busy_fraction = round.busy_fraction;
        acc.l3_hit_rate = round.l3_hit_rate;
    }
}

/// SVM-backed double-buffered frontier queues for
/// `parallel_worklist_hetero`. Each round stages the current frontier
/// into one buffer (the canonical shared-memory image the fences cover);
/// the merged pushes become the next round's frontier in the other
/// buffer, and the buffers swap roles. Capacity grows in powers of two,
/// so the allocation sequence — and with it the allocator layout every
/// later `malloc` sees — is a deterministic function of the frontier
/// sizes alone.
struct FrontierQueues {
    bufs: [CpuAddr; 2],
    capacity: u32,
    cur: usize,
}

/// The analyzer launch convention a construct runs under.
fn analysis_mode(kind: WorkKind<'_>) -> AnalysisMode {
    match kind {
        WorkKind::Reduce { .. } => AnalysisMode::Reduce,
        WorkKind::For | WorkKind::Worklist { .. } => AnalysisMode::For,
    }
}

/// Order-dependence verdicts (`uses_gated_ops`: `device_malloc`,
/// compare-and-swap) for one (kernel, construct), one per backend — each
/// over the module and the functions that backend itself executes.
/// Decided once at plan time and carried to the executors in
/// [`Work::gated`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Gated {
    /// CPU module, `operator()` only: `CpuBackend` leaves a reduction's
    /// joins to the host.
    cpu: bool,
    /// CPU module, `operator()` plus a reduction's `join`.
    native: bool,
    /// GPU module, `operator()` plus a reduction's `join` (the per-warp
    /// tree reduce runs it on the device).
    gpu: bool,
}

impl Gated {
    /// Gated on some device: the launch's parts run one after another,
    /// and it never joins a wave.
    fn any(self) -> bool {
        self.native || self.gpu
    }

    fn on(self, device: DeviceClass) -> bool {
        match device {
            DeviceClass::Cpu => self.cpu,
            DeviceClass::Gpu => self.gpu,
            DeviceClass::Native => self.native,
        }
    }
}

/// What the drain loop decided to do with the front of the launch queue.
enum WavePlan {
    /// One launch through the full serial offload path.
    Solo,
    /// A CPU-targeted and a GPU-targeted `parallel_for` executing
    /// concurrently (disjoint footprints, commit in submission order).
    Pair,
    /// `size` consecutive GPU `parallel_for`s under one fence pair, of
    /// which `coalesced` joined through accumulate-mode overlap.
    Batch { size: usize, coalesced: u64 },
}

/// One device's share of a wave: which backend runs which work over
/// which span.
type Part<'a> = (DeviceClass, Work<'a>, Span);

/// The launch-path state of a [`Concord`], split-borrowed once per wave:
/// the execution context, the backends, and the meters every part
/// reports into.
struct Pipeline<'a> {
    ctx: ExecCtx<'a>,
    cpu: &'a mut CpuBackend,
    gpu: &'a mut GpuBackend,
    native: &'a mut NativeBackend,
    meter: &'a mut EnergyMeter,
    profile: &'a mut ProfileHistory,
}

impl<'a> Pipeline<'a> {
    /// The backend that executes `device` parts, with the context it
    /// runs in.
    fn on(&mut self, device: DeviceClass) -> (&mut dyn DeviceBackend, &mut ExecCtx<'a>) {
        let backend: &mut dyn DeviceBackend = match device {
            DeviceClass::Cpu => self.cpu,
            DeviceClass::Gpu => self.gpu,
            DeviceClass::Native => self.native,
        };
        (backend, &mut self.ctx)
    }

    /// Execute `parts` — at most one per simulator — against one snapshot
    /// of the region, as the two indices of one pool fan-out, then commit their write-logs in list order, so the result
    /// is byte-identical at any `host_threads` value. With `stop_at_trap`
    /// the parts are one construct and nothing after its first trapped
    /// part commits; otherwise they are independent launches and every
    /// one commits, as for a serial caller that continues past a failure.
    fn execute_then_commit(
        &mut self,
        parts: &[Part<'_>],
        stop_at_trap: bool,
    ) -> Vec<Result<LaunchStats, Trap>> {
        let part_on = |device| parts.iter().find(|p| p.0 == device);
        let (gpu_part, cpu_part) = (part_on(DeviceClass::Gpu), part_on(DeviceClass::Cpu));
        let host_threads = self.cpu.host_threads();
        let (mut gpu_pending, mut cpu_pending) = {
            let (ctx, gpu) = (&self.ctx, &*self.gpu);
            // Index 0 is the caller's first claim, so the CPU half (whose
            // `execute` needs `&mut`) runs here and the GPU half on a pool
            // helper when one is free; each half's own chunk or warp
            // fan-out nests inside this one.
            let cpu = Mutex::new(&mut *self.cpu);
            let mut halves = concord_pool::map(host_threads, 2, |half| {
                if half == 0 {
                    let mut cpu = cpu.lock().expect("the CPU half runs once");
                    (None, cpu_part.map(|(_, work, span)| cpu.execute(ctx, work, *span)))
                } else {
                    (gpu_part.map(|(_, work, span)| gpu.execute(ctx, work, *span)), None)
                }
            });
            let (gpu_half, cpu_half) = (halves.pop(), halves.pop());
            (gpu_half.and_then(|half| half.0), cpu_half.and_then(|half| half.1))
        };
        let mut committed = Vec::with_capacity(parts.len());
        for &(device, _, span) in parts {
            let no_pushes = &mut Vec::new();
            let r = if device == DeviceClass::Gpu {
                let pending = gpu_pending.take().expect("one GPU part");
                self.gpu.commit(&mut self.ctx, span, pending, no_pushes)
            } else {
                let pending = cpu_pending.take().expect("one CPU part");
                self.cpu.commit(&mut self.ctx, span, pending, no_pushes)
            };
            let trapped = r.is_err();
            committed.push(r);
            if trapped && stop_at_trap {
                break;
            }
        }
        committed
    }

    /// The single place a part is metered, profiled, and turned into an
    /// [`OffloadReport`]. Native parts meter as the energy model's CPU
    /// but profile under their own device class: their wall-clock rates
    /// must not contaminate the simulated-CPU history `Target::Auto`
    /// splits by.
    fn part_report(
        &mut self,
        class: &str,
        device: DeviceClass,
        span: Span,
        jit_seconds: f64,
        stats: LaunchStats,
    ) -> OffloadReport {
        let on_gpu = device == DeviceClass::Gpu;
        let (meter_as, phase) = if on_gpu {
            let seconds = stats.seconds + jit_seconds;
            (Device::Gpu, PhaseReport { seconds, busy_fraction: stats.busy_fraction })
        } else {
            (Device::Cpu, PhaseReport { seconds: stats.seconds, busy_fraction: 1.0 })
        };
        let before = self.meter.joules();
        self.meter.record(self.ctx.system, meter_as, phase);
        self.profile.record(class, device, u64::from(span.items()), stats.seconds);
        OffloadReport {
            jit_seconds,
            exec_seconds: stats.seconds,
            joules: self.meter.joules() - before,
            on_gpu,
            fell_back: false,
            translations: stats.translations,
            transactions: stats.transactions,
            contended: stats.contended,
            busy_fraction: stats.busy_fraction,
            l3_hit_rate: stats.l3_hit_rate,
            insts: stats.insts,
        }
    }
}

/// The Concord runtime context.
pub struct Concord {
    system: SystemConfig,
    /// Immutable after build, and shared with the artifact cache (and so
    /// with every other session on the same cache entry) rather than cloned.
    program: Arc<LoweredProgram>,
    gpu_artifact: Arc<GpuArtifact>,
    region: SharedRegion,
    heap: SharedAllocator,
    vtables: VtableArea,
    cpu: CpuBackend,
    gpu: GpuBackend,
    native: NativeBackend,
    meter: EnergyMeter,
    profile: ProfileHistory,
    /// Kernels that cannot run on the GPU (restriction warnings).
    cpu_only: HashSet<String>,
    tracer: Tracer,
    /// The pre-launch gate level ([`Options::analysis`]).
    analysis: AnalysisGate,
    /// Memoized analysis reports: the module is immutable after build, so
    /// one (kernel, mode) pair always produces the same report.
    analysis_cache: HashMap<(FuncId, AnalysisMode), AnalysisReport>,
    /// Memoized order-dependence verdicts, decided once per (kernel,
    /// construct) so no launch re-walks the call graph.
    gated_cache: HashMap<(FuncId, AnalysisMode), Gated>,
    /// Memoized per-kernel access summaries (footprint inference).
    access_cache: HashMap<(FuncId, AnalysisMode), AccessSummary>,
    /// Pending launches submitted through [`Concord::submit_for`] /
    /// [`Concord::submit_reduce`], in submission order.
    launch_graph: graph::LaunchGraph,
    /// Results of drained launches, keyed by launch id, awaiting
    /// [`Concord::complete`].
    finished: HashMap<u64, Result<OffloadReport, RuntimeError>>,
    /// Session-op journal (see [`Concord::record_session`]).
    session_log: Option<Vec<SessionOp>>,
}

impl std::fmt::Debug for Concord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Concord")
            .field("system", &self.system.name)
            .field("kernels", &self.program.kernels.len())
            .field("region_bytes", &self.region.capacity())
            .field("energy_joules", &self.meter.joules())
            .finish_non_exhaustive()
    }
}

impl Concord {
    /// Compile `source` and set up the shared region, vtables, and both
    /// device backends for `system`.
    ///
    /// # Errors
    ///
    /// Compilation errors and vtable installation faults.
    pub fn new(system: SystemConfig, source: &str, opts: Options) -> Result<Self, RuntimeError> {
        Self::build(system, source, opts, None)
    }

    /// Like [`Concord::new`], but sharing compile and JIT artifacts through
    /// a process-wide [`ArtifactCache`]. When another session already
    /// compiled identical source under the same `GpuConfig`, this session
    /// reuses the compiled modules (no frontend/pipeline work) *and* the
    /// per-kernel JIT charge set — its first GPU launch of an
    /// already-JITted kernel reports `jit_seconds == 0`, exactly like a
    /// repeat launch within one session (§3.4, lifted process-wide).
    ///
    /// # Errors
    ///
    /// Compilation errors and vtable installation faults.
    pub fn new_with_cache(
        system: SystemConfig,
        source: &str,
        opts: Options,
        cache: &ArtifactCache,
    ) -> Result<Self, RuntimeError> {
        Self::build(system, source, opts, Some(cache))
    }

    fn build(
        system: SystemConfig,
        source: &str,
        opts: Options,
        cache: Option<&ArtifactCache>,
    ) -> Result<Self, RuntimeError> {
        let tracer = Tracer::new(opts.trace);
        let gpu_cfg = opts.gpu_config.unwrap_or(GpuConfig::all(system.gpu.eus));
        let compile = || -> Result<(LoweredProgram, GpuArtifact), RuntimeError> {
            let sp = tracer.span(Track::Compiler, "frontend");
            let mut program = concord_frontend::compile(source)?;
            sp.end();
            let gpu_artifact = lower_for_gpu_traced(&program.module, gpu_cfg, &tracer);
            concord_compiler::optimize_for_cpu_traced(&mut program.module, &tracer);
            // Function ids must stay stable across the GPU lowering clone:
            // the backends address a kernel in either module with the same
            // FuncId.
            for k in &program.kernels {
                debug_assert_eq!(
                    program.module.function(k.operator_fn).name,
                    gpu_artifact.module.function(k.operator_fn).name,
                    "function ids diverged between CPU and GPU modules"
                );
            }
            Ok((program, gpu_artifact))
        };
        let (program, gpu_artifact, jitted, native_slot) = match cache {
            Some(cache) => {
                let (entry, hit) = cache.lookup_or_compile(source, gpu_cfg, compile)?;
                tracer.instant(
                    Track::Runtime,
                    "artifact_cache",
                    vec![("hit", hit.into()), ("source_hash", cache::source_hash(source).into())],
                );
                (
                    Arc::clone(&entry.program),
                    Arc::clone(&entry.gpu_artifact),
                    Arc::clone(&entry.jitted),
                    Arc::clone(&entry.native),
                )
            }
            None => {
                let (program, gpu_artifact) = compile()?;
                (
                    Arc::new(program),
                    Arc::new(gpu_artifact),
                    Arc::new(Mutex::new(HashSet::new())),
                    Arc::new(Mutex::new(None)),
                )
            }
        };
        let reserved = VtableArea::reserve_for(program.module.classes.len());
        let mut region = SharedRegion::new(opts.region_bytes, reserved);
        region.set_tracer(tracer.clone());
        let mut heap = SharedAllocator::new(&region);
        heap.set_tracer(tracer.clone());
        let vtables = VtableArea::install(&mut region, &program.module)?;
        // The frontend emits one warning per affected kernel root; map each
        // back to its kernel class conservatively (a warning anywhere marks
        // every kernel that can reach the offending function — the frontend
        // already scoped the check to kernel closures).
        let cpu_only: HashSet<String> = if program.warnings.is_empty() {
            HashSet::new()
        } else {
            program.kernels.iter().map(|k| k.class_name.clone()).collect()
        };
        let host_threads = opts.host_threads.unwrap_or_else(concord_pool::host_threads).max(1);
        let mut cpu = CpuSim::new(system.cpu);
        cpu.set_tracer(tracer.clone());
        cpu.host_threads = host_threads;
        let mut gpu = GpuSim::new(system.gpu);
        gpu.set_tracer(tracer.clone());
        gpu.host_threads = host_threads;
        Ok(Concord {
            cpu: CpuBackend::new(cpu),
            gpu: GpuBackend::new(gpu, jitted),
            native: NativeBackend::new(system.cpu.cores, host_threads, native_slot),
            system,
            program,
            gpu_artifact,
            region,
            heap,
            vtables,
            meter: EnergyMeter::new(),
            profile: ProfileHistory::default(),
            cpu_only,
            tracer,
            analysis: opts.analysis,
            analysis_cache: HashMap::new(),
            gated_cache: HashMap::new(),
            access_cache: HashMap::new(),
            launch_graph: graph::LaunchGraph::default(),
            finished: HashMap::new(),
            session_log: None,
        })
    }

    /// The tracer shared by the runtime, compiler pipelines, and both
    /// simulators. Disabled (and free) unless [`Options::trace`] enabled it;
    /// use it to pull the collected events, Chrome JSON, or summary table.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The compiled program (kernels, signatures, source statistics).
    pub fn program(&self) -> &LoweredProgram {
        &self.program
    }

    /// The GPU-lowered artifact (module + pipeline statistics).
    pub fn gpu_artifact(&self) -> &GpuArtifact {
        &self.gpu_artifact
    }

    /// The system configuration.
    pub fn system(&self) -> &SystemConfig {
        &self.system
    }

    /// Shared-region access.
    pub fn region(&self) -> &SharedRegion {
        &self.region
    }

    /// Mutable shared-region access (host-side data structure building).
    pub fn region_mut(&mut self) -> &mut SharedRegion {
        &mut self.region
    }

    /// Allocate in the shared region (the `malloc` redirection of §3.1).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Alloc`] when the region is exhausted.
    pub fn malloc(&mut self, bytes: u64) -> Result<CpuAddr, RuntimeError> {
        let addr = self.heap.malloc(bytes)?;
        self.record_op(|| SessionOp::Malloc { bytes, addr });
        Ok(addr)
    }

    /// Free a shared allocation.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Alloc`] on invalid frees.
    pub fn free(&mut self, addr: CpuAddr) -> Result<(), RuntimeError> {
        self.heap.free(addr)?;
        self.record_op(|| SessionOp::Free { addr });
        Ok(())
    }

    /// Bytes currently free in the shared heap. Runtime-internal scratch
    /// (reduction partials) is released on every exit path, including
    /// kernel traps, so this returns to its pre-construct value after
    /// each construct.
    pub fn heap_free_bytes(&self) -> u64 {
        self.heap.free_bytes()
    }

    /// Total package energy accumulated so far (the
    /// `MSR_PKG_ENERGY_STATUS` reading).
    pub fn energy_joules(&self) -> f64 {
        self.meter.joules()
    }

    /// The per-kernel device-throughput history `Target::Auto` splits by.
    pub fn profile(&self) -> &ProfileHistory {
        &self.profile
    }

    /// Enable device-side allocation (`device_malloc` in kernel code) by
    /// carving a `bytes`-sized arena out of the shared region. Lifts the
    /// §2.1 "no memory allocation on GPU" restriction the paper plans as
    /// future work. Without this call, `device_malloc` returns null.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Alloc`] when the region cannot fit the arena.
    pub fn enable_device_heap(&mut self, bytes: u64) -> Result<(), RuntimeError> {
        let arena = self.heap.malloc(bytes)?;
        self.region.init_device_heap(arena, bytes)?;
        Ok(())
    }

    fn kernel(&self, class: &str) -> Result<concord_frontend::KernelInfo, RuntimeError> {
        self.program
            .kernel(class)
            .cloned()
            .ok_or_else(|| RuntimeError::NoSuchKernel(class.to_string()))
    }

    /// Run the static analyzer (see `concord-analyze`) for the operator
    /// of `class` under launch convention `mode`, independent of the
    /// configured gate level. Reports are memoized per (kernel, mode) —
    /// the module never changes after construction — so repeat calls and
    /// repeat launches are free.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::NoSuchKernel`].
    pub fn analyze_kernel(
        &mut self,
        class: &str,
        mode: AnalysisMode,
    ) -> Result<AnalysisReport, RuntimeError> {
        let k = self.kernel(class)?;
        Ok(self.analysis_report(class, k.operator_fn, mode))
    }

    fn analysis_report(&mut self, class: &str, func: FuncId, mode: AnalysisMode) -> AnalysisReport {
        if let Some(r) = self.analysis_cache.get(&(func, mode)) {
            self.tracer.instant(
                Track::Analysis,
                "cache_hit",
                vec![("kernel", class.into()), ("mode", mode.name().into())],
            );
            return r.clone();
        }
        let mut sp = self.tracer.span_with(
            Track::Analysis,
            "analyze",
            vec![("kernel", class.into()), ("mode", mode.name().into())],
        );
        let report = concord_analyze::analyze_kernel(&self.program.module, func, mode);
        sp.arg("findings", report.diagnostics.len() as i64);
        sp.arg("errors", report.count_at(concord_analyze::Severity::Error) as i64);
        sp.end();
        for d in &report.diagnostics {
            self.tracer.instant(
                Track::Analysis,
                d.lint.id(),
                vec![
                    ("severity", d.severity.name().into()),
                    ("function", d.function.as_str().into()),
                    ("message", d.message.as_str().into()),
                ],
            );
        }
        self.analysis_cache.insert((func, mode), report.clone());
        report
    }

    /// The pre-launch gate: no-op at `Off`, analyze-and-trace at `Warn`,
    /// refuse error-severity kernels at `Deny`.
    fn gate_launch(
        &mut self,
        class: &str,
        func: FuncId,
        mode: AnalysisMode,
    ) -> Result<(), RuntimeError> {
        if self.analysis == AnalysisGate::Off {
            return Ok(());
        }
        let report = self.analysis_report(class, func, mode);
        if self.analysis == AnalysisGate::Deny && report.has_errors() {
            self.tracer.instant(
                Track::Analysis,
                "denied",
                vec![("kernel", class.into()), ("mode", mode.name().into())],
            );
            return Err(RuntimeError::AnalysisDenied { kernel: class.to_string(), report });
        }
        Ok(())
    }

    /// The memoized order-dependence verdicts for `func` run as `kind`:
    /// per module, and with the roots each backend itself executes.
    fn gated(&mut self, func: FuncId, kind: WorkKind<'_>) -> Gated {
        *self.gated_cache.entry((func, analysis_mode(kind))).or_insert_with(|| {
            let cpu = uses_gated_ops(&self.program.module, &[func]);
            match kind {
                WorkKind::Reduce { join, .. } => Gated {
                    cpu,
                    native: uses_gated_ops(&self.program.module, &[func, join]),
                    gpu: uses_gated_ops(&self.gpu_artifact.module, &[func, join]),
                },
                _ => Gated {
                    cpu,
                    native: cpu,
                    gpu: uses_gated_ops(&self.gpu_artifact.module, &[func]),
                },
            }
        })
    }

    /// Turn one construct invocation into a [`graph::Launch`] — the one
    /// place every entry point resolves the kernel, requires a
    /// reduction's `join`, takes the pre-launch gate, and decides GPU
    /// eligibility and the order-dependence verdicts.
    fn admit(
        &mut self,
        class: &str,
        body: CpuAddr,
        n: u32,
        target: Target,
        reduce: bool,
    ) -> Result<graph::Launch<'static>, RuntimeError> {
        let k = self.kernel(class)?;
        let mut gpu_allowed = !self.cpu_only.contains(class);
        let kind = if reduce {
            let join = k.join_fn.ok_or_else(|| RuntimeError::NoJoin(class.to_string()))?;
            // Local memory must fit one body copy per lane; otherwise the
            // runtime performs the reduction on the CPU (§3.3: "if local
            // memory is insufficient").
            gpu_allowed &=
                k.body_size * u64::from(self.system.gpu.simd_width) <= self.system.gpu.local_bytes;
            WorkKind::Reduce { join, body_size: k.body_size, slots: &[] }
        } else {
            WorkKind::For
        };
        self.gate_launch(class, k.operator_fn, analysis_mode(kind))?;
        let gated = self.gated(k.operator_fn, kind);
        let class = class.to_string();
        Ok(graph::Launch { class, func: k.operator_fn, kind, body, n, target, gpu_allowed, gated })
    }

    /// The blocking path is submit, then complete: drain everything
    /// already pending (submission order is commit order), then run the
    /// launch as a solo wave — which needs no footprint, having nothing
    /// to wave with.
    fn blocking(
        &mut self,
        class: &str,
        body: CpuAddr,
        n: u32,
        target: Target,
        reduce: bool,
    ) -> Result<OffloadReport, RuntimeError> {
        let launch = self.admit(class, body, n, target, reduce)?;
        self.complete_all();
        self.record_op(|| SessionOp::Launch { class: class.to_string(), body, n, target, reduce });
        self.offload(&launch, &mut Vec::new())
    }

    /// `parallel_for_hetero(n, body, device)`: run the `operator()` of
    /// `class` over `[0, n)`.
    ///
    /// # Errors
    ///
    /// Unknown kernel class, or a runtime trap.
    pub fn parallel_for_hetero(
        &mut self,
        class: &str,
        body: CpuAddr,
        n: u32,
        target: Target,
    ) -> Result<OffloadReport, RuntimeError> {
        self.blocking(class, body, n, target, false)
    }

    /// `parallel_reduce_hetero(n, body, device)`: run `operator()` over
    /// `[0, n)` accumulating into per-worker copies, then combine with
    /// `join` (hierarchically through GPU local memory when on the GPU,
    /// §3.3). Hybrid targets join the partials of both devices with the
    /// same `join`.
    ///
    /// # Errors
    ///
    /// Unknown kernel class, missing `join`, or a runtime trap.
    pub fn parallel_reduce_hetero(
        &mut self,
        class: &str,
        body: CpuAddr,
        n: u32,
        target: Target,
    ) -> Result<OffloadReport, RuntimeError> {
        self.blocking(class, body, n, target, true)
    }

    /// `parallel_worklist_hetero(body, seed, device)`: drain a frontier
    /// worklist to empty. Round `r` runs the `operator()` of `class` once
    /// per item of the current frontier (the item value is the kernel's
    /// `int` argument); bodies call the `push(item)` intrinsic to feed
    /// the next frontier. Pushes are collected in per-chunk segments and
    /// merged into a sorted, deduplicated frontier between rounds, so
    /// frontier contents, drain order, and every output byte are
    /// identical on every target at any host-thread count. The construct
    /// ends when a round pushes nothing.
    ///
    /// The seed is canonicalized the same way (sorted, deduplicated);
    /// an empty seed runs zero rounds.
    ///
    /// # Errors
    ///
    /// Unknown kernel class, a gate refusal, or a runtime trap (the
    /// trapped round's pushes are discarded).
    pub fn parallel_worklist_hetero(
        &mut self,
        class: &str,
        body: CpuAddr,
        seed: &[i32],
        target: Target,
    ) -> Result<WorklistReport, RuntimeError> {
        let launch = self.admit(class, body, 0, target, false)?;
        // Rounds are serially dependent (each consumes the previous
        // round's pushes), so they drain as solo waves; order them after
        // any launches already submitted to the graph.
        self.complete_all();
        self.record_op(|| SessionOp::Worklist {
            class: class.to_string(),
            body,
            seed: seed.to_vec(),
            target,
        });
        let mut frontier: Vec<i32> = seed.to_vec();
        frontier.sort_unstable();
        frontier.dedup();
        let mut queues: Option<FrontierQueues> = None;
        // Suspend session journaling across the whole construct: frontier
        // staging and device-side writes replay through the recorded
        // `Worklist` op, not as raw `Write` records.
        let saved = self.region.suspend_journal();
        let res = self.run_worklist(&launch, frontier, &mut queues);
        self.region.restore_journal(saved);
        if let Some(q) = queues {
            // Free on every exit path, trap included.
            let _ = self.heap.free(q.bufs[0]);
            let _ = self.heap.free(q.bufs[1]);
        }
        res
    }

    /// The iterate-until-empty loop behind
    /// [`Concord::parallel_worklist_hetero`]: each round is `launch` with
    /// the frontier as its [`WorkKind::Worklist`] items.
    fn run_worklist(
        &mut self,
        launch: &graph::Launch<'static>,
        mut frontier: Vec<i32>,
        queues: &mut Option<FrontierQueues>,
    ) -> Result<WorklistReport, RuntimeError> {
        let mut report = WorklistReport::default();
        while !frontier.is_empty() {
            report.frontier_sizes.push(frontier.len() as u32);
            self.stage_frontier(queues, &frontier)?;
            let mut pushes: Vec<i32> = Vec::new();
            let round = graph::Launch {
                class: launch.class.clone(),
                kind: WorkKind::Worklist { items: &frontier },
                n: frontier.len() as u32,
                ..*launch
            };
            report.absorb(&self.offload(&round, &mut pushes)?);
            // Ordered commit: the union of all chunk segments, sorted by
            // item and deduplicated — canonical ascending drain order.
            pushes.sort_unstable();
            pushes.dedup();
            frontier = pushes;
            if let Some(q) = queues.as_mut() {
                q.cur ^= 1;
            }
        }
        Ok(report)
    }

    /// Ensure queue capacity and write `items` into the current frontier
    /// buffer (the shared-region image of the round's worklist).
    fn stage_frontier(
        &mut self,
        queues: &mut Option<FrontierQueues>,
        items: &[i32],
    ) -> Result<(), RuntimeError> {
        let needed = items.len() as u32;
        if queues.as_ref().is_none_or(|q| q.capacity < needed) {
            if let Some(q) = queues.take() {
                self.heap.free(q.bufs[0])?;
                self.heap.free(q.bufs[1])?;
            }
            let capacity = needed.next_power_of_two().max(16);
            let a = self.heap.malloc(u64::from(capacity) * 4)?;
            let b = self.heap.malloc(u64::from(capacity) * 4)?;
            *queues = Some(FrontierQueues { bufs: [a, b], capacity, cur: 0 });
        }
        let q = queues.as_ref().expect("capacity just ensured");
        let base = q.bufs[q.cur];
        for (i, &item) in items.iter().enumerate() {
            self.region.write_i32(CpuAddr(base.0 + i as u64 * 4), item)?;
        }
        Ok(())
    }

    /// Submit a `parallel_for_hetero` launch to the dependency-aware
    /// launch graph without waiting for it. The launch's shared-region
    /// footprint is resolved now (static access summary + live pointer
    /// values + the allocator's block table); execution is deferred until
    /// a [`Concord::complete`]-family call drains it. Provably disjoint
    /// launches execute concurrently; conflicting ones retain submission
    /// order; everything observable (region bytes, reports, traps) is
    /// byte-identical to issuing the same launches serially.
    ///
    /// # Errors
    ///
    /// Unknown kernel class, or an [`AnalysisGate::Deny`] refusal — both
    /// surface at submit time, like the blocking entry point. Traps
    /// surface at completion.
    pub fn submit_for(
        &mut self,
        class: &str,
        body: CpuAddr,
        n: u32,
        target: Target,
    ) -> Result<LaunchId, RuntimeError> {
        self.submit(class, body, n, target, false)
    }

    /// Submit a `parallel_reduce_hetero` launch to the launch graph (see
    /// [`Concord::submit_for`]). Reductions always drain as solo waves —
    /// the staged-accumulator dance keeps their own path — but they
    /// participate in footprint ordering like any other launch.
    ///
    /// # Errors
    ///
    /// Unknown kernel class, missing `join`, or a gate refusal.
    pub fn submit_reduce(
        &mut self,
        class: &str,
        body: CpuAddr,
        n: u32,
        target: Target,
    ) -> Result<LaunchId, RuntimeError> {
        self.submit(class, body, n, target, true)
    }

    fn submit(
        &mut self,
        class: &str,
        body: CpuAddr,
        n: u32,
        target: Target,
        reduce: bool,
    ) -> Result<LaunchId, RuntimeError> {
        let launch = self.admit(class, body, n, target, reduce)?;
        let footprint = if launch.gated.any() {
            Footprint::opaque()
        } else {
            self.resolve_footprint(launch.func, launch.kind, body, n)
        };
        let id = self.launch_graph.submit(launch, footprint);
        self.tracer.instant(
            Track::Sched,
            "submit",
            vec![
                ("launch", (id.0 as i64).into()),
                ("kernel", class.into()),
                ("n", i64::from(n).into()),
            ],
        );
        Ok(id)
    }

    /// Resolve a launch's static access summary against live pointer
    /// values and the allocator's block table. Records the symbolic
    /// range pass bounded get **range-granular** spans: the per-item
    /// footprint `[stride*id + lo, stride*id + hi)` instantiated over
    /// the launch's `[0, n)` iteration space, anchored at the live base
    /// pointer and clamped to the backing allocation — so two launches
    /// over disjoint halves of one block prove `Independent`. Unbounded
    /// records widen to the whole backing block as before. Anything
    /// unresolvable (opaque summary, null or dangling field pointer)
    /// degrades to an opaque footprint.
    fn resolve_footprint(
        &mut self,
        func: FuncId,
        kind: WorkKind<'_>,
        body: CpuAddr,
        n: u32,
    ) -> Footprint {
        let mode = analysis_mode(kind);
        let summary = self
            .access_cache
            .entry((func, mode))
            .or_insert_with(|| concord_analyze::infer_access(&self.program.module, func, mode));
        if summary.opaque {
            return Footprint::opaque();
        }
        let Some((body_lo, body_hi)) = self.heap.block_range(body) else {
            return Footprint::opaque();
        };
        let mut ranges = Vec::new();
        // Every launch reads its body block (the runtime passes it to the
        // kernel); a reduction also stages copies from it and joins the
        // partials back into it.
        ranges.push(FootRange { lo: body_lo, hi: body_hi, mode: AccessMode::Read });
        if mode == AnalysisMode::Reduce {
            ranges.push(FootRange { lo: body_lo, hi: body_hi, mode: AccessMode::Write });
        }
        for r in &summary.records {
            let (base_ptr, block_lo, block_hi) = match r.base {
                AccessBase::Body => (body.0, body_lo, body_hi),
                AccessBase::Field { offset } => {
                    let Ok(ptr) = self.region.read_ptr(body.offset(offset)) else {
                        return Footprint::opaque();
                    };
                    let Some((lo, hi)) = self.heap.block_range(ptr) else {
                        return Footprint::opaque();
                    };
                    (ptr.0, lo, hi)
                }
            };
            // A bounded record's span is the per-item footprint swept
            // over the launch's [0, n) iteration space, anchored at the
            // live base pointer. The base may point *into* its backing
            // block (e.g. two kernels sharing one allocation at disjoint
            // halves), so the span is clamped to the block; a span the
            // clamp empties means the static bound disagrees with the
            // live layout — fall back to the whole block.
            let (lo, hi) = match r.footprint {
                Some(f) => {
                    let (span_lo, span_hi) = f.launch_span(u64::from(n));
                    let lo = base_ptr.saturating_add_signed(span_lo).clamp(block_lo, block_hi);
                    let hi = base_ptr.saturating_add_signed(span_hi).clamp(block_lo, block_hi);
                    if lo < hi {
                        (lo, hi)
                    } else {
                        (block_lo, block_hi)
                    }
                }
                None => (block_lo, block_hi),
            };
            ranges.push(FootRange { lo, hi, mode: r.mode });
        }
        Footprint { opaque: false, ranges }
    }

    /// Drain the graph until `id`'s launch has executed and return its
    /// result. Earlier submissions drain first (submission order is the
    /// commit order), waving with `id`'s launch where footprints allow.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnknownLaunch`] for an id never submitted (or
    /// already taken); otherwise the launch's own result.
    pub fn complete(&mut self, id: LaunchId) -> Result<OffloadReport, RuntimeError> {
        while !self.finished.contains_key(&id.0) {
            if !self.launch_graph.has(id.0) {
                return Err(RuntimeError::UnknownLaunch(id));
            }
            self.drain_one_wave();
        }
        self.finished.remove(&id.0).expect("checked above")
    }

    /// Drain every pending launch. Per-launch results stay retrievable
    /// through [`Concord::complete`].
    pub fn complete_all(&mut self) {
        while !self.launch_graph.is_empty() {
            self.drain_one_wave();
        }
    }

    /// Drain pending launches (in submission order) until none touches
    /// any byte of `[addr, addr + len)` — the barrier a host write or
    /// free must take before mutating memory a deferred launch may read
    /// or write.
    pub fn complete_touching(&mut self, addr: u64, len: u64) {
        while self.launch_graph.touches(addr, addr.saturating_add(len)) {
            self.drain_one_wave();
        }
    }

    /// Scheduling counters of the launch graph (submitted, completed,
    /// overlapped, conflict stalls, coalesced, fence pairs elided).
    #[must_use]
    pub fn graph_stats(&self) -> GraphStats {
        self.launch_graph.stats()
    }

    /// Launches the native backend ran with serial chunk order because
    /// the kernel carries a cross-item read hazard (CA108). Zero when
    /// the session never executed through [`Target::Native`].
    #[must_use]
    pub fn native_hazard_serialized(&self) -> u64 {
        self.native.hazard_serialized()
    }

    /// The access summary footprint inference uses for `class` under
    /// `mode`, memoized per kernel like the analysis reports.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::NoSuchKernel`].
    pub fn access_summary(
        &mut self,
        class: &str,
        mode: AnalysisMode,
    ) -> Result<AccessSummary, RuntimeError> {
        let k = self.kernel(class)?;
        Ok(self
            .access_cache
            .entry((k.operator_fn, mode))
            .or_insert_with(|| {
                concord_analyze::infer_access(&self.program.module, k.operator_fn, mode)
            })
            .clone())
    }

    /// Start (or stop) journaling session operations: allocations,
    /// frees, host writes into the shared region, and construct
    /// launches. Collect the journal with [`Concord::take_session`];
    /// replay it on a fresh identically-configured context with
    /// [`Concord::replay_serial`] or [`Concord::replay_graph`].
    pub fn record_session(&mut self, on: bool) {
        self.session_log = on.then(Vec::new);
        self.region.journal_writes(on);
    }

    /// Take the recorded session ops and stop journaling.
    pub fn take_session(&mut self) -> Vec<SessionOp> {
        self.drain_region_journal();
        self.region.journal_writes(false);
        self.session_log.take().unwrap_or_default()
    }

    /// Replay a recorded op stream through the blocking serial entry
    /// points — the reference execution the graph path must match byte
    /// for byte. Returns one result per recorded launch, in order
    /// (launch traps are per-launch results, not replay failures, because
    /// the recording caller continued past them too).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::ReplayDiverged`] when the allocator hands out a
    /// different address than recorded (wrong region size or op stream);
    /// allocation or host-write faults.
    pub fn replay_serial(
        &mut self,
        ops: &[SessionOp],
    ) -> Result<Vec<Result<OffloadReport, RuntimeError>>, RuntimeError> {
        let mut out = Vec::new();
        for op in ops {
            match op {
                SessionOp::Malloc { bytes, addr } => self.replay_malloc(*bytes, *addr)?,
                SessionOp::Free { addr } => self.free(*addr)?,
                SessionOp::Write { addr, bytes } => {
                    self.region
                        .write_bytes(*addr, concord_ir::types::AddrSpace::Cpu, bytes)
                        .map_err(RuntimeError::Trap)?;
                }
                SessionOp::Launch { class, body, n, target, reduce } => {
                    out.push(if *reduce {
                        self.parallel_reduce_hetero(class, *body, *n, *target)
                    } else {
                        self.parallel_for_hetero(class, *body, *n, *target)
                    });
                }
                SessionOp::Worklist { class, body, seed, target } => {
                    out.push(
                        self.parallel_worklist_hetero(class, *body, seed, *target)
                            .map(|w| w.offload),
                    );
                }
            }
        }
        Ok(out)
    }

    /// Replay a recorded op stream through the launch graph: launches
    /// are submitted and left pending so independent ones can wave
    /// together; a host write or free first drains every pending launch
    /// touching the affected bytes (the recorded happens-before edge);
    /// everything left drains at the end. Returns one result per
    /// recorded launch, in submission order — byte-comparable against
    /// [`Concord::replay_serial`] on a fresh context.
    ///
    /// # Errors
    ///
    /// Same as [`Concord::replay_serial`].
    pub fn replay_graph(
        &mut self,
        ops: &[SessionOp],
    ) -> Result<Vec<Result<OffloadReport, RuntimeError>>, RuntimeError> {
        // A worklist construct is internally iterative and blocking, so
        // its result is ready at submission time; `Pending` slots resolve
        // after the final drain.
        enum Slot {
            Pending(Result<LaunchId, RuntimeError>),
            Done(Result<OffloadReport, RuntimeError>),
        }
        let mut submitted: Vec<Slot> = Vec::new();
        for op in ops {
            match op {
                SessionOp::Malloc { bytes, addr } => self.replay_malloc(*bytes, *addr)?,
                SessionOp::Free { addr } => {
                    if let Some((lo, hi)) = self.heap.block_range(*addr) {
                        self.complete_touching(lo, hi - lo);
                    }
                    self.free(*addr)?;
                }
                SessionOp::Write { addr, bytes } => {
                    self.complete_touching(*addr, bytes.len() as u64);
                    self.region
                        .write_bytes(*addr, concord_ir::types::AddrSpace::Cpu, bytes)
                        .map_err(RuntimeError::Trap)?;
                }
                SessionOp::Launch { class, body, n, target, reduce } => {
                    submitted.push(Slot::Pending(if *reduce {
                        self.submit_reduce(class, *body, *n, *target)
                    } else {
                        self.submit_for(class, *body, *n, *target)
                    }));
                }
                SessionOp::Worklist { class, body, seed, target } => {
                    // Drains every pending launch first (rounds are
                    // serially dependent), preserving recorded order.
                    submitted.push(Slot::Done(
                        self.parallel_worklist_hetero(class, *body, seed, *target)
                            .map(|w| w.offload),
                    ));
                }
            }
        }
        self.complete_all();
        let mut out = Vec::new();
        for s in submitted {
            out.push(match s {
                Slot::Pending(Ok(id)) => self.complete(id),
                Slot::Pending(Err(e)) => Err(e),
                Slot::Done(r) => r,
            });
        }
        Ok(out)
    }

    fn replay_malloc(&mut self, bytes: u64, recorded: CpuAddr) -> Result<(), RuntimeError> {
        let got = self.malloc(bytes)?;
        if got.0 != recorded.0 {
            return Err(RuntimeError::ReplayDiverged(format!(
                "malloc({bytes}) returned {:#x}, recording had {:#x}",
                got.0, recorded.0
            )));
        }
        Ok(())
    }

    /// Append a session op, first flushing any region writes journaled
    /// since the previous op so the global order is preserved.
    fn record_op(&mut self, op: impl FnOnce() -> SessionOp) {
        if self.session_log.is_some() {
            self.drain_region_journal();
            self.session_log.as_mut().expect("checked above").push(op());
        }
    }

    fn drain_region_journal(&mut self) {
        if let Some(log) = self.session_log.as_mut() {
            for (addr, bytes) in self.region.take_journaled_writes() {
                log.push(SessionOp::Write { addr, bytes });
            }
        }
    }

    /// Decide what the front of the queue may do, and how many conflict
    /// stalls the decision observed.
    fn plan_wave(&self) -> (WavePlan, u64) {
        /// An ungated `parallel_for` explicitly targeted at `target`.
        fn plain_for(p: &graph::PendingLaunch, target: Target) -> bool {
            let l = &p.launch;
            l.target == target && matches!(l.kind, WorkKind::For) && !l.gated.any()
        }
        fn batch_ok(p: &graph::PendingLaunch) -> bool {
            plain_for(p, Target::Gpu) && p.launch.gpu_allowed
        }
        fn pair_ok(a: &graph::PendingLaunch, b: &graph::PendingLaunch) -> bool {
            (plain_for(a, Target::Cpu) && batch_ok(b)) || (batch_ok(a) && plain_for(b, Target::Cpu))
        }
        let q = self.launch_graph.pending();
        let mut stalls = 0u64;
        let Some(p0) = q.front() else {
            return (WavePlan::Solo, 0);
        };
        // A CPU-targeted and a GPU-targeted `parallel_for` with provably
        // disjoint footprints execute concurrently. Only explicit
        // `Cpu`/`Gpu` targets qualify: `Auto`/`Hybrid` plans read profile
        // history mutated by earlier launches, so their plans must be
        // computed in submission order (solo waves).
        if let Some(p1) = q.get(1) {
            if pair_ok(p0, p1) {
                match p0.footprint.conflict(&p1.footprint) {
                    Conflict::Independent => return (WavePlan::Pair, stalls),
                    Conflict::Coalesce | Conflict::Order => stalls += 1,
                }
            }
        }
        // Consecutive GPU-targeted `parallel_for`s whose pairwise
        // conflicts are at worst Coalesce run back to back under ONE
        // fence pair — execution order is still submission order, so the
        // batch is trivially byte-identical; only fence accounting
        // changes (counted as elisions).
        if batch_ok(p0) {
            let mut coalesced = 0u64;
            let mut size = 1usize;
            'grow: while let Some(pk) = q.get(size) {
                if !batch_ok(pk) {
                    break;
                }
                let mut saw_coalesce = false;
                for member in q.iter().take(size) {
                    match member.footprint.conflict(&pk.footprint) {
                        Conflict::Order => {
                            stalls += 1;
                            break 'grow;
                        }
                        Conflict::Coalesce => saw_coalesce = true,
                        Conflict::Independent => {}
                    }
                }
                if saw_coalesce {
                    coalesced += 1;
                }
                size += 1;
            }
            if size >= 2 {
                return (WavePlan::Batch { size, coalesced }, stalls);
            }
        }
        (WavePlan::Solo, stalls)
    }

    /// Execute the next wave from the queue front and store its results.
    fn drain_one_wave(&mut self) {
        let (plan, stalls) = self.plan_wave();
        self.launch_graph.stats_mut().conflict_stalls += stalls;
        let size = match plan {
            WavePlan::Solo => 1,
            WavePlan::Pair => 2,
            WavePlan::Batch { size, .. } => size,
        };
        let wave: Vec<graph::PendingLaunch> =
            (0..size).map_while(|_| self.launch_graph.pop()).collect();
        let results = match plan {
            WavePlan::Solo => {
                wave.iter().map(|p| self.offload(&p.launch, &mut Vec::new())).collect()
            }
            WavePlan::Pair => self.run_pair(&wave[0].launch, &wave[1].launch),
            WavePlan::Batch { coalesced, .. } => self.run_batch(&wave, coalesced),
        };
        for (p, r) in wave.iter().zip(results) {
            self.finished.insert(p.id, r);
        }
    }

    /// Run `f` over the split-borrowed launch state (plus the heap, for
    /// scratch) with the region's write journal suspended: simulator
    /// writes are launch effects, not host writes, and must not be
    /// recorded as session ops.
    fn pipeline<R>(&mut self, f: impl FnOnce(&mut Pipeline<'_>, &mut SharedAllocator) -> R) -> R {
        let saved = self.region.suspend_journal();
        let Concord {
            system,
            program,
            gpu_artifact,
            region,
            heap,
            vtables,
            cpu,
            gpu,
            native,
            meter,
            profile,
            tracer,
            ..
        } = self;
        let ctx = ExecCtx {
            region,
            vtables,
            cpu_module: &program.module,
            gpu_module: &gpu_artifact.module,
            system,
            tracer,
        };
        let r = f(&mut Pipeline { ctx, cpu, gpu, native, meter, profile }, heap);
        self.region.restore_journal(saved);
        r
    }

    /// Overlap wave: one CPU-targeted and one GPU-targeted
    /// `parallel_for` with disjoint footprints, in submission order. Both
    /// execute against a snapshot of the region and the write-logs commit
    /// in submission order under one fence pair — the same
    /// [`Pipeline::execute_then_commit`] the hybrid split uses, so every
    /// byte, report, and trap matches serial execution.
    fn run_pair(
        &mut self,
        first: &graph::Launch<'_>,
        second: &graph::Launch<'_>,
    ) -> Vec<Result<OffloadReport, RuntimeError>> {
        let (gpu_l, cpu_l) =
            if first.target == Target::Gpu { (first, second) } else { (second, first) };
        let results = self.pipeline(|p, _| {
            let mut sp = p.ctx.tracer.span_with(
                Track::Sched,
                "overlap",
                vec![
                    ("gpu_kernel", gpu_l.class.as_str().into()),
                    ("cpu_kernel", cpu_l.class.as_str().into()),
                    ("gpu_n", i64::from(gpu_l.n).into()),
                    ("cpu_n", i64::from(cpu_l.n).into()),
                ],
            );
            let jit = p.gpu.prepare(&mut p.ctx, &gpu_l.class, gpu_l.func);
            p.gpu.fence_in(&mut p.ctx);
            let parts = [first, second].map(|l| {
                let device =
                    if l.target == Target::Gpu { DeviceClass::Gpu } else { DeviceClass::Cpu };
                let work = Work { func: l.func, body: l.body, kind: l.kind, gated: false };
                (device, work, Span::full(l.n))
            });
            // Metered in submission order too: the meter and profile
            // history sequences — and any partial-commit trap state —
            // match the serial path exactly.
            let committed = p.execute_then_commit(&parts, false);
            let mut reports = Vec::with_capacity(2);
            for ((l, &(device, _, span)), stats) in
                [first, second].into_iter().zip(&parts).zip(committed)
            {
                let jit = if device == DeviceClass::Gpu { jit } else { 0.0 };
                let report = stats.map(|s| p.part_report(&l.class, device, span, jit, s));
                reports.push(report.map_err(RuntimeError::Trap));
            }
            p.gpu.fence_out(&mut p.ctx);
            sp.arg("overlapped", true);
            reports
        });
        self.launch_graph.stats_mut().overlapped += 1;
        results
    }

    /// Batch wave: consecutive GPU `parallel_for`s run back to back
    /// (submission order) under a single fence pair. Later launches than
    /// the batch still wait; a trapped member stores its trap and the
    /// batch continues, matching a serial caller that continues past a
    /// failed construct.
    fn run_batch(
        &mut self,
        wave: &[graph::PendingLaunch],
        coalesced: u64,
    ) -> Vec<Result<OffloadReport, RuntimeError>> {
        let elided = wave.len() as u64 - 1;
        let results = self.pipeline(|p, _| {
            let mut sp = p.ctx.tracer.span_with(
                Track::Sched,
                "gpu_batch",
                vec![
                    ("launches", (wave.len() as i64).into()),
                    ("coalesced", (coalesced as i64).into()),
                ],
            );
            p.gpu.fence_in(&mut p.ctx);
            let mut results = Vec::with_capacity(wave.len());
            for graph::PendingLaunch { launch: l, .. } in wave {
                let jit = p.gpu.prepare(&mut p.ctx, &l.class, l.func);
                let span = Span::full(l.n);
                let work = Work { func: l.func, body: l.body, kind: l.kind, gated: false };
                let stats = p.gpu.launch(&mut p.ctx, &work, span, &mut Vec::new());
                let report = stats.map(|s| p.part_report(&l.class, DeviceClass::Gpu, span, jit, s));
                results.push(report.map_err(RuntimeError::Trap));
            }
            p.gpu.fence_out(&mut p.ctx);
            p.ctx.region.note_fences_elided(elided);
            sp.arg("fences_elided", elided as i64);
            results
        });
        let st = self.launch_graph.stats_mut();
        st.fences_elided += elided;
        st.coalesced += coalesced;
        results
    }

    /// The offload pipeline every construct and every target runs
    /// through as a solo wave: plan the device split, fence in,
    /// JIT-prepare and launch each part, fence out, join reduction
    /// partials, meter energy, record profile history, and merge the
    /// per-device reports. A worklist round's pushes land in `pushes`,
    /// every part's segment in plan order.
    #[allow(clippy::too_many_lines)]
    fn offload(
        &mut self,
        l: &graph::Launch<'_>,
        pushes: &mut Vec<i32>,
    ) -> Result<OffloadReport, RuntimeError> {
        let plan = scheduler::plan(l.target, l.n, l.gpu_allowed, &self.profile, &l.class);
        let native = l.target == Target::Native;
        let label = match plan.parts.as_slice() {
            [(Device::Gpu, _)] => "gpu",
            [(Device::Cpu, _)] if native => "native",
            [(Device::Cpu, _)] => "cpu",
            _ => "hybrid",
        };
        self.pipeline(|p, heap| {
            let tracer = p.ctx.tracer;
            let mut sp = tracer.span_with(
                Track::Runtime,
                l.kind.name(),
                vec![
                    ("kernel", l.class.as_str().into()),
                    ("n", i64::from(l.n).into()),
                    ("device", label.into()),
                ],
            );
            tracer.instant(
                Track::Sched,
                "decision",
                vec![
                    ("kernel", l.class.as_str().into()),
                    ("policy", plan.policy.into()),
                    ("gpu_fraction", plan.gpu_fraction.into()),
                    ("parts", (plan.parts.len() as i64).into()),
                    ("n", i64::from(l.n).into()),
                ],
            );
            // The native module must exist before the launch loop (the
            // trait's `prepare` cannot fail; this can — unsupported host,
            // unlowerable module).
            if native {
                p.native
                    .ensure_prepared(&mut p.ctx, &l.class)
                    .map_err(|e| RuntimeError::NativeUnsupported(e.to_string()))?;
            }
            let class_of = |device: Device| {
                if native {
                    DeviceClass::Native
                } else {
                    DeviceClass::from(device)
                }
            };

            // One scratch guard covers every part's partial-accumulator
            // slots; Drop releases them on all exit paths, trap included.
            let mut slot_counts = vec![0usize; plan.parts.len()];
            let guard = match l.kind {
                WorkKind::Reduce { body_size, .. } => {
                    for (count, &(device, span)) in slot_counts.iter_mut().zip(&plan.parts) {
                        let (backend, ctx) = p.on(class_of(device));
                        *count = backend.reduce_slots(ctx, span) as usize;
                    }
                    let total = slot_counts.iter().sum::<usize>() as u64;
                    Some(ScratchGuard::alloc(heap, total, body_size)?)
                }
                _ => None,
            };
            let all_slots = guard.as_ref().map_or(&[][..], ScratchGuard::slots);
            let mut free_slots = all_slots;
            let parts = plan.parts.iter().zip(&slot_counts).map(|(&(device, span), &count)| {
                let device = class_of(device);
                let (slots, rest) = free_slots.split_at(count);
                free_slots = rest;
                let kind = match l.kind {
                    WorkKind::Reduce { join, body_size, .. } => {
                        WorkKind::Reduce { join, body_size, slots }
                    }
                    kind => kind,
                };
                (device, Work { func: l.func, body: l.body, kind, gated: l.gated.on(device) }, span)
            });
            let parts: Vec<Part<'_>> = parts.collect();

            for &(device, ..) in &parts {
                let (backend, ctx) = p.on(device);
                backend.fence_in(ctx);
            }
            let prepare = |p: &mut Pipeline<'_>, device| {
                let (backend, ctx) = p.on(device);
                backend.prepare(ctx, &l.class, l.func)
            };
            let mut jits = Vec::with_capacity(parts.len());
            let snapshot =
                parts.len() > 1 && !l.gated.any() && !matches!(l.kind, WorkKind::Worklist { .. });
            let launched = if snapshot {
                // Multi-device plan: every part executes against a
                // snapshot of the region and the write-logs commit in
                // fixed plan order. The CPU accumulates into pre-staged
                // body copies; stage them serially before the concurrent
                // phase reads the region.
                jits.extend(parts.iter().map(|&(device, ..)| prepare(p, device)));
                let staged = parts.iter().try_for_each(|(device, work, _)| match work.kind {
                    WorkKind::Reduce { body_size, slots, .. } if *device == DeviceClass::Cpu => {
                        stage_reduce(p.ctx.region, l.body, body_size, slots)
                    }
                    _ => Ok(()),
                });
                match staged {
                    Ok(()) => p.execute_then_commit(&parts, true),
                    Err(trap) => vec![Err(trap)],
                }
            } else {
                // Single-part plans, kernels that need order-dependent
                // operations, and worklist rounds launch their parts one
                // after another. (For a round that is enough: a later
                // part observing an earlier part's committed writes can
                // only suppress duplicate pushes of a guarded monotone
                // body, and the caller's sort+dedup merge makes the next
                // frontier independent of that visibility.)
                let mut launched = Vec::with_capacity(parts.len());
                for (device, work, span) in &parts {
                    jits.push(prepare(p, *device));
                    let (backend, ctx) = p.on(*device);
                    launched.push(backend.launch(ctx, work, *span, pushes));
                    if launched.last().is_some_and(Result::is_err) {
                        break;
                    }
                }
                launched
            };
            // Unpin before propagating any trap so the region is never
            // left fenced-for-GPU by a failed construct.
            for &(device, ..) in &parts {
                let (backend, ctx) = p.on(device);
                backend.fence_out(ctx);
            }
            let launched: Vec<LaunchStats> = launched.into_iter().collect::<Result<_, Trap>>()?;

            // Host-side final join of every part's partials (sequential,
            // on core 0, using the CPU-compiled join) — this is what lets
            // one construct combine per-warp GPU partials with per-core
            // CPU ones. The native executor already joined its partials
            // into the body inside `launch` (same sequential schedule);
            // joining again here would double-count them.
            let mut join_seconds = 0.0;
            if let (WorkKind::Reduce { join, .. }, false) = (l.kind, native) {
                join_seconds = p.cpu.join_partials(&mut p.ctx, join, l.body, all_slots)?;
            }

            let reports = parts.iter().zip(jits).zip(launched);
            let reports = reports.map(|((&(device, _, span), jit), stats)| {
                p.part_report(&l.class, device, span, jit, stats)
            });
            let reports: Vec<OffloadReport> = reports.collect();
            let mut report = OffloadReport::merge_parallel(&reports);
            if matches!(l.kind, WorkKind::Reduce { .. }) {
                // The final join is a serial tail on one core after the
                // concurrent parts finish.
                let before = p.meter.joules();
                let host_phase = PhaseReport {
                    seconds: join_seconds,
                    busy_fraction: 1.0 / f64::from(p.ctx.system.cpu.cores),
                };
                p.meter.record(p.ctx.system, Device::Cpu, host_phase);
                report.joules += p.meter.joules() - before;
                report.exec_seconds += join_seconds;
            }
            report.fell_back = plan.fell_back;
            sp.arg("seconds", report.total_seconds());
            Ok(report)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG1: &str = r#"
        struct Node { Node* next; };
        class LoopBody {
        public:
            Node* nodes;
            void operator()(int i) { nodes[i].next = &(nodes[i+1]); }
        };
    "#;

    const SUM: &str = r#"
        class Sum {
        public:
            float* data; float acc;
            void operator()(int i) { acc += data[i]; }
            void join(Sum* other) { acc += other->acc; }
        };
    "#;

    const ALL_TARGETS: [Target; 4] =
        [Target::Cpu, Target::Gpu, Target::Hybrid { gpu_fraction: 0.5 }, Target::Auto];

    #[test]
    fn same_source_runs_on_all_targets() {
        for target in ALL_TARGETS {
            let mut cc = Concord::new(SystemConfig::ultrabook(), FIG1, Options::default()).unwrap();
            let nodes = cc.malloc(101 * 8).unwrap();
            let body = cc.malloc(8).unwrap();
            cc.region_mut().write_ptr(body, nodes).unwrap();
            let r = cc.parallel_for_hetero("LoopBody", body, 100, target).unwrap();
            assert_eq!(r.on_gpu, target != Target::Cpu);
            for i in 0..100u64 {
                let next = cc.region().read_ptr(CpuAddr(nodes.0 + i * 8)).unwrap();
                assert_eq!(next.0, nodes.0 + (i + 1) * 8);
            }
            assert!(r.joules > 0.0, "target {target} must meter energy");
        }
    }

    #[test]
    fn jit_cost_charged_once() {
        let mut cc = Concord::new(SystemConfig::ultrabook(), FIG1, Options::default()).unwrap();
        let nodes = cc.malloc(101 * 8).unwrap();
        let body = cc.malloc(8).unwrap();
        cc.region_mut().write_ptr(body, nodes).unwrap();
        let first = cc.parallel_for_hetero("LoopBody", body, 100, Target::Gpu).unwrap();
        let second = cc.parallel_for_hetero("LoopBody", body, 100, Target::Gpu).unwrap();
        let jit = SystemConfig::ultrabook().gpu.jit_ms * 1e-3;
        assert!(
            (first.jit_seconds - jit).abs() < jit * 1e-9,
            "first launch must report the JIT cost, got {}",
            first.jit_seconds
        );
        assert_eq!(second.jit_seconds, 0.0, "JIT must be cached after the first launch");
        assert!(
            first.total_seconds() > second.total_seconds() + jit * 0.9,
            "first launch must include the JIT cost: {} vs {}",
            first.total_seconds(),
            second.total_seconds()
        );
    }

    #[test]
    fn jit_cost_charged_once_across_mixed_targets() {
        // Hybrid probes, pure-GPU calls, and Auto calls all share one JIT
        // cache: the kernel is compiled for the GPU exactly once.
        let mut cc = Concord::new(SystemConfig::ultrabook(), FIG1, Options::default()).unwrap();
        let nodes = cc.malloc(101 * 8).unwrap();
        let body = cc.malloc(8).unwrap();
        cc.region_mut().write_ptr(body, nodes).unwrap();
        let seq = [Target::Hybrid { gpu_fraction: 0.5 }, Target::Gpu, Target::Auto, Target::Cpu];
        let mut jit_total = 0.0;
        for t in seq {
            jit_total += cc.parallel_for_hetero("LoopBody", body, 100, t).unwrap().jit_seconds;
        }
        let jit = SystemConfig::ultrabook().gpu.jit_ms * 1e-3;
        assert!(
            (jit_total - jit).abs() < jit * 1e-9,
            "mixed-target sequence must charge JIT exactly once, got {jit_total}"
        );
    }

    #[test]
    fn fences_wrap_offloads() {
        let mut cc = Concord::new(SystemConfig::desktop(), FIG1, Options::default()).unwrap();
        let nodes = cc.malloc(101 * 8).unwrap();
        let body = cc.malloc(8).unwrap();
        cc.region_mut().write_ptr(body, nodes).unwrap();
        cc.parallel_for_hetero("LoopBody", body, 100, Target::Gpu).unwrap();
        let c = cc.region().consistency();
        assert_eq!(c.fences_to_gpu, 1);
        assert_eq!(c.fences_to_cpu, 1);
        assert!(!c.pinned);
        // CPU execution does not fence.
        cc.parallel_for_hetero("LoopBody", body, 100, Target::Cpu).unwrap();
        assert_eq!(cc.region().consistency().fences_to_gpu, 1);
        // A hybrid construct runs both devices under ONE fence pair.
        cc.parallel_for_hetero("LoopBody", body, 100, Target::Hybrid { gpu_fraction: 0.5 })
            .unwrap();
        let c = cc.region().consistency();
        assert_eq!(c.fences_to_gpu, 2);
        assert_eq!(c.fences_to_cpu, 2);
        assert!(!c.pinned);
    }

    #[test]
    fn recursive_kernel_falls_back_to_cpu() {
        let src = r#"
            int f(int n) { if (n < 2) return 1; return n * f(n - 1) + f(n - 2); }
            class K {
            public:
                int out;
                void operator()(int i) { out = f(i); }
            };
        "#;
        let mut cc = Concord::new(SystemConfig::ultrabook(), src, Options::default()).unwrap();
        assert!(!cc.program().warnings.is_empty());
        let body = cc.malloc(8).unwrap();
        for target in [Target::Gpu, Target::Hybrid { gpu_fraction: 0.5 }, Target::Auto] {
            let r = cc.parallel_for_hetero("K", body, 4, target).unwrap();
            assert!(r.fell_back, "target {target} must fall back");
            assert!(!r.on_gpu);
        }
    }

    #[test]
    fn reduce_on_all_targets_agrees() {
        let mut results = Vec::new();
        for target in ALL_TARGETS {
            let mut cc = Concord::new(SystemConfig::desktop(), SUM, Options::default()).unwrap();
            let n = 200u32;
            let data = cc.malloc(n as u64 * 4).unwrap();
            for i in 0..n {
                cc.region_mut().write_f32(CpuAddr(data.0 + i as u64 * 4), (i % 7) as f32).unwrap();
            }
            let body = cc.malloc(16).unwrap();
            cc.region_mut().write_ptr(body, data).unwrap();
            cc.region_mut().write_f32(body.offset(8), 0.0).unwrap();
            cc.parallel_reduce_hetero("Sum", body, n, target).unwrap();
            results.push(cc.region().read_f32(body.offset(8)).unwrap());
        }
        for (i, r) in results.iter().enumerate() {
            assert_eq!(*r, results[0], "target {} must agree with CPU reduction", ALL_TARGETS[i]);
        }
    }

    #[test]
    fn native_target_matches_cpu_interpreter_bytes() {
        if !concord_native::supported() {
            return;
        }
        let run = |target: Target| {
            let mut cc = Concord::new(SystemConfig::ultrabook(), FIG1, Options::default()).unwrap();
            let nodes = cc.malloc(101 * 8).unwrap();
            let body = cc.malloc(8).unwrap();
            cc.region_mut().write_ptr(body, nodes).unwrap();
            let r = cc.parallel_for_hetero("LoopBody", body, 100, target).unwrap();
            let bytes = cc
                .region()
                .read_bytes(nodes.0, concord_ir::types::AddrSpace::Cpu, 101 * 8)
                .unwrap()
                .to_vec();
            let native_rate = cc.profile().rate("LoopBody", DeviceClass::Native);
            (r, bytes, native_rate)
        };
        let (rn, native_bytes, native_rate) = run(Target::Native);
        let (_, cpu_bytes, _) = run(Target::Cpu);
        assert_eq!(native_bytes, cpu_bytes, "native must write the same region bytes");
        assert!(!rn.on_gpu);
        assert!(!rn.fell_back, "native never counts as a fallback");
        assert!(rn.insts > 0);
        assert!(rn.joules > 0.0, "native launches meter CPU energy");
        assert!(native_rate.is_some(), "native launches profile under their own class");
    }

    #[test]
    fn native_reduce_total_is_bit_exact_with_cpu() {
        if !concord_native::supported() {
            return;
        }
        let run = |target: Target| {
            let mut cc = Concord::new(SystemConfig::ultrabook(), SUM, Options::default()).unwrap();
            let n = 333u32;
            let data = cc.malloc(u64::from(n) * 4).unwrap();
            for i in 0..n {
                let v = (i % 13) as f32 * 0.37;
                cc.region_mut().write_f32(CpuAddr(data.0 + u64::from(i) * 4), v).unwrap();
            }
            let body = cc.malloc(16).unwrap();
            cc.region_mut().write_ptr(body, data).unwrap();
            cc.region_mut().write_f32(body.offset(8), 0.0).unwrap();
            cc.parallel_reduce_hetero("Sum", body, n, target).unwrap();
            cc.region().read_f32(body.offset(8)).unwrap().to_bits()
        };
        assert_eq!(run(Target::Native), run(Target::Cpu), "reduce totals must be bit-exact");
    }

    #[test]
    fn native_codegen_charged_once_and_shared_through_cache() {
        if !concord_native::supported() {
            return;
        }
        let cache = ArtifactCache::new();
        let run = |cc: &mut Concord| {
            let nodes = cc.malloc(101 * 8).unwrap();
            let body = cc.malloc(8).unwrap();
            cc.region_mut().write_ptr(body, nodes).unwrap();
            let first = cc.parallel_for_hetero("LoopBody", body, 100, Target::Native).unwrap();
            let second = cc.parallel_for_hetero("LoopBody", body, 100, Target::Native).unwrap();
            (first.jit_seconds, second.jit_seconds)
        };
        let mut a =
            Concord::new_with_cache(SystemConfig::ultrabook(), FIG1, Options::default(), &cache)
                .unwrap();
        let (a1, a2) = run(&mut a);
        assert!(a1 > 0.0, "first native launch reports wall-clock codegen time");
        assert_eq!(a2, 0.0, "codegen is cached within the session");
        let mut b =
            Concord::new_with_cache(SystemConfig::ultrabook(), FIG1, Options::default(), &cache)
                .unwrap();
        let (b1, b2) = run(&mut b);
        assert_eq!(b1, 0.0, "second session reuses machine code through the cache");
        assert_eq!(b2, 0.0);
    }

    #[test]
    fn native_trap_matches_cpu_and_does_not_leak_scratch() {
        if !concord_native::supported() {
            return;
        }
        let src = r#"
            class Crash {
            public:
                float* data; float acc;
                void operator()(int i) { acc += data[i]; }
                void join(Crash* other) { acc += other->acc; }
            };
        "#;
        let run = |target: Target| {
            let mut cc = Concord::new(SystemConfig::ultrabook(), src, Options::default()).unwrap();
            let body = cc.malloc(16).unwrap();
            let free_before = cc.heap_free_bytes();
            let err = cc.parallel_reduce_hetero("Crash", body, 64, target).unwrap_err();
            assert_eq!(cc.heap_free_bytes(), free_before, "target {target} leaked scratch");
            err
        };
        assert_eq!(
            run(Target::Native),
            run(Target::Cpu),
            "native traps must carry the same kernel name and work-item id"
        );
    }

    #[test]
    fn unknown_kernel_is_an_error() {
        let mut cc = Concord::new(SystemConfig::ultrabook(), FIG1, Options::default()).unwrap();
        let body = cc.malloc(8).unwrap();
        let err = cc.parallel_for_hetero("Nope", body, 1, Target::Cpu).unwrap_err();
        assert!(matches!(err, RuntimeError::NoSuchKernel(_)));
    }

    #[test]
    fn reduce_without_join_is_an_error() {
        let mut cc = Concord::new(SystemConfig::ultrabook(), FIG1, Options::default()).unwrap();
        let body = cc.malloc(8).unwrap();
        let err = cc.parallel_reduce_hetero("LoopBody", body, 1, Target::Cpu).unwrap_err();
        assert!(matches!(err, RuntimeError::NoJoin(_)));
    }

    #[test]
    fn reduce_falls_back_when_body_exceeds_local_memory() {
        // 16 lanes × body_size must fit in 64 KiB of local memory; a body
        // with a giant inline array cannot, so the runtime must run the
        // reduction on the CPU instead (§3.3 "if local memory is
        // insufficient").
        let src = r#"
            class Big {
            public:
                float* data;
                float pad[1200];
                float acc;
                void operator()(int i) { acc += data[i]; }
                void join(Big* other) { acc += other->acc; }
            };
        "#;
        let mut cc = Concord::new(SystemConfig::ultrabook(), src, Options::default()).unwrap();
        let k = cc.program().kernel("Big").unwrap().body_size;
        assert!(k * 16 > SystemConfig::ultrabook().gpu.local_bytes);
        let n = 32u32;
        let data = cc.malloc(n as u64 * 4).unwrap();
        for i in 0..n {
            cc.region_mut().write_f32(CpuAddr(data.0 + i as u64 * 4), 2.0).unwrap();
        }
        let body = cc.malloc(k).unwrap();
        cc.region_mut().write_ptr(body, data).unwrap();
        let r = cc.parallel_reduce_hetero("Big", body, n, Target::Gpu).unwrap();
        assert!(r.fell_back, "oversized reduce body must fall back to CPU");
        assert!(!r.on_gpu);
        let acc = cc.region().read_f32(body.offset(8 + 1200 * 4)).unwrap();
        assert_eq!(acc, 64.0);
    }

    #[test]
    fn energy_meter_accumulates_across_offloads() {
        let mut cc = Concord::new(SystemConfig::ultrabook(), FIG1, Options::default()).unwrap();
        let nodes = cc.malloc(101 * 8).unwrap();
        let body = cc.malloc(8).unwrap();
        cc.region_mut().write_ptr(body, nodes).unwrap();
        cc.parallel_for_hetero("LoopBody", body, 100, Target::Cpu).unwrap();
        let e1 = cc.energy_joules();
        cc.parallel_for_hetero("LoopBody", body, 100, Target::Gpu).unwrap();
        assert!(cc.energy_joules() > e1);
    }

    #[test]
    fn hybrid_joules_match_meter_delta() {
        // The merged report's joules must account for exactly the energy
        // the construct added to the package meter.
        let mut cc = Concord::new(SystemConfig::ultrabook(), FIG1, Options::default()).unwrap();
        let nodes = cc.malloc(101 * 8).unwrap();
        let body = cc.malloc(8).unwrap();
        cc.region_mut().write_ptr(body, nodes).unwrap();
        let before = cc.energy_joules();
        let r = cc
            .parallel_for_hetero("LoopBody", body, 100, Target::Hybrid { gpu_fraction: 0.5 })
            .unwrap();
        let delta = cc.energy_joules() - before;
        assert!((r.joules - delta).abs() < 1e-12, "{} vs {delta}", r.joules);
        assert!(r.on_gpu);
        assert!(!r.fell_back);
    }

    #[test]
    fn merge_parallel_invariants() {
        let cpu = OffloadReport {
            jit_seconds: 0.0,
            exec_seconds: 3e-4,
            joules: 0.02,
            on_gpu: false,
            fell_back: false,
            translations: 7,
            transactions: 0,
            contended: 0,
            busy_fraction: 1.0,
            l3_hit_rate: 0.0,
            insts: 1000,
        };
        let gpu = OffloadReport {
            jit_seconds: 5e-6,
            exec_seconds: 2e-4,
            joules: 0.01,
            on_gpu: true,
            fell_back: false,
            translations: 11,
            transactions: 40,
            contended: 3,
            busy_fraction: 0.8,
            l3_hit_rate: 0.9,
            insts: 600,
        };
        let m = OffloadReport::merge_parallel(&[gpu, cpu]);
        assert_eq!(m.joules, cpu.joules + gpu.joules);
        assert_eq!(m.insts, cpu.insts + gpu.insts);
        assert_eq!(m.translations, cpu.translations + gpu.translations);
        assert_eq!(m.transactions, 40);
        assert_eq!(m.contended, 3);
        assert_eq!(m.exec_seconds, cpu.exec_seconds.max(gpu.exec_seconds));
        assert_eq!(m.jit_seconds, gpu.jit_seconds);
        assert_eq!(m.total_seconds(), gpu.jit_seconds + 3e-4);
        assert_eq!(m.busy_fraction, gpu.busy_fraction);
        assert_eq!(m.l3_hit_rate, gpu.l3_hit_rate);
        assert!(m.on_gpu);
        assert!(!m.fell_back);
        // A single-part merge is the identity.
        let one = OffloadReport::merge_parallel(&[cpu]);
        assert_eq!(one.busy_fraction, 1.0);
        assert_eq!(one.joules, cpu.joules);
    }

    #[test]
    fn cpu_report_is_fully_populated() {
        let mut cc = Concord::new(SystemConfig::ultrabook(), FIG1, Options::default()).unwrap();
        let nodes = cc.malloc(101 * 8).unwrap();
        let body = cc.malloc(8).unwrap();
        cc.region_mut().write_ptr(body, nodes).unwrap();
        let r = cc.parallel_for_hetero("LoopBody", body, 100, Target::Cpu).unwrap();
        assert_eq!(r.busy_fraction, 1.0, "CPU launches run all cores busy");
        assert!(r.insts > 0);
        // The CPU-optimized module contains no address-space translation
        // ops, so the counter is rightly zero here — it exists for CPU
        // execution of GPU-lowered code.
        assert_eq!(r.translations, 0);
    }

    #[test]
    fn trapping_kernel_does_not_leak_scratch() {
        // The reduction kernel traps (null deref) after the per-part
        // scratch has been allocated; the guard must free it anyway.
        let src = r#"
            class Crash {
            public:
                float* data; float acc;
                void operator()(int i) { acc += data[i]; }
                void join(Crash* other) { acc += other->acc; }
            };
        "#;
        for target in ALL_TARGETS {
            let mut cc = Concord::new(SystemConfig::ultrabook(), src, Options::default()).unwrap();
            let body = cc.malloc(16).unwrap();
            // data stays null -> operator() traps on the first load.
            let free_before = cc.heap_free_bytes();
            let err = cc.parallel_reduce_hetero("Crash", body, 64, target).unwrap_err();
            assert!(matches!(err, RuntimeError::Trap(_)), "target {target}");
            assert_eq!(
                cc.heap_free_bytes(),
                free_before,
                "target {target} leaked reduction scratch"
            );
            assert!(!cc.region().consistency().pinned, "trap must not leave the region pinned");
        }
    }

    #[test]
    fn artifact_cache_shares_compile_and_jit_across_sessions() {
        let cache = ArtifactCache::new();
        let run = |cc: &mut Concord| {
            let nodes = cc.malloc(101 * 8).unwrap();
            let body = cc.malloc(8).unwrap();
            cc.region_mut().write_ptr(body, nodes).unwrap();
            let r = cc.parallel_for_hetero("LoopBody", body, 100, Target::Gpu).unwrap();
            let bytes: Vec<u8> = (0..101 * 8)
                .map(|i| {
                    cc.region()
                        .read_bytes(nodes.0 + i, concord_ir::types::AddrSpace::Cpu, 1)
                        .unwrap()[0]
                })
                .collect();
            (r, bytes)
        };
        let mut a =
            Concord::new_with_cache(SystemConfig::ultrabook(), FIG1, Options::default(), &cache)
                .unwrap();
        let (ra, bytes_a) = run(&mut a);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 0);
        assert!(ra.jit_seconds > 0.0, "first session pays the JIT charge");

        let mut b =
            Concord::new_with_cache(SystemConfig::ultrabook(), FIG1, Options::default(), &cache)
                .unwrap();
        let (rb, bytes_b) = run(&mut b);
        assert_eq!(cache.hits(), 1, "second session must hit the cache");
        assert_eq!(cache.entries(), 1);
        assert_eq!(rb.jit_seconds, 0.0, "JIT charge is shared process-wide through the cache");
        assert_eq!(bytes_a, bytes_b, "cached sessions produce identical results");
        assert!(
            std::ptr::eq(a.program(), b.program())
                && std::ptr::eq(a.gpu_artifact(), b.gpu_artifact()),
            "a warm open shares the compiled program and artifact instead of cloning them"
        );
        assert_eq!(ra.exec_seconds, rb.exec_seconds);
        assert_eq!(ra.insts, rb.insts);

        // A different GpuConfig is a different entry — no false sharing.
        let opts = Options {
            gpu_config: Some(GpuConfig::baseline(SystemConfig::ultrabook().gpu.eus)),
            ..Options::default()
        };
        let mut c = Concord::new_with_cache(SystemConfig::ultrabook(), FIG1, opts, &cache).unwrap();
        let (rc, _) = run(&mut c);
        assert_eq!(cache.entries(), 2);
        assert!(rc.jit_seconds > 0.0, "new config pays its own JIT charge");
    }

    #[test]
    fn auto_target_is_deterministic_and_adapts() {
        let run = || {
            let mut cc = Concord::new(SystemConfig::ultrabook(), FIG1, Options::default()).unwrap();
            let nodes = cc.malloc(1025 * 8).unwrap();
            let body = cc.malloc(8).unwrap();
            cc.region_mut().write_ptr(body, nodes).unwrap();
            let mut reports = Vec::new();
            for _ in 0..4 {
                reports.push(cc.parallel_for_hetero("LoopBody", body, 1024, Target::Auto).unwrap());
            }
            let share = cc.profile().gpu_share("LoopBody");
            (reports, share)
        };
        let (a, share_a) = run();
        let (b, share_b) = run();
        assert_eq!(share_a, share_b, "identical call sequences must produce identical splits");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.exec_seconds, y.exec_seconds);
            assert_eq!(x.joules, y.joules);
            assert_eq!(x.insts, y.insts);
        }
        let share = share_a.expect("both devices observed after the probe");
        assert!(share > 0.0 && share < 1.0);
        // Every auto call after the probe still runs both devices (the
        // split is proportional, not winner-takes-all).
        assert!(a.iter().all(|r| r.on_gpu));
    }

    /// Deliberately racy source: a non-atomic read-modify-write of one
    /// shared slot from every work item (lint CA104, error severity).
    const RACY: &str = r#"
        class RacyHistogram {
        public:
            int* bins;
            void operator()(int i) { bins[0] = bins[0] + 1; }
        };
    "#;

    fn racy_context(gate: AnalysisGate) -> (Concord, CpuAddr) {
        let opts = Options { analysis: gate, ..Options::default() };
        let mut cc = Concord::new(SystemConfig::ultrabook(), RACY, opts).unwrap();
        let bins = cc.malloc(64).unwrap();
        let body = cc.malloc(8).unwrap();
        cc.region_mut().write_ptr(body, bins).unwrap();
        (cc, body)
    }

    #[test]
    fn deny_gate_blocks_racy_kernel() {
        let (mut cc, body) = racy_context(AnalysisGate::Deny);
        let err = cc.parallel_for_hetero("RacyHistogram", body, 16, Target::Cpu).unwrap_err();
        match err {
            RuntimeError::AnalysisDenied { kernel, report } => {
                assert_eq!(kernel, "RacyHistogram");
                assert!(report.has_errors());
                assert!(report.to_text().contains("CA104"), "{}", report.to_text());
            }
            other => panic!("expected AnalysisDenied, got {other:?}"),
        }
    }

    #[test]
    fn warn_and_off_gates_still_launch_racy_kernel() {
        for gate in [AnalysisGate::Warn, AnalysisGate::Off] {
            let (mut cc, body) = racy_context(gate);
            cc.parallel_for_hetero("RacyHistogram", body, 16, Target::Cpu)
                .unwrap_or_else(|e| panic!("{gate:?} gate must not block: {e}"));
        }
    }

    #[test]
    fn deny_gate_passes_clean_kernels() {
        // FIG1 (affine stores) under For, SUM (staged accumulator) under
        // Reduce: both are correct code and must not be denied.
        let opts = Options { analysis: AnalysisGate::Deny, ..Options::default() };
        let mut cc = Concord::new(SystemConfig::ultrabook(), FIG1, opts).unwrap();
        let nodes = cc.malloc(101 * 8).unwrap();
        let body = cc.malloc(8).unwrap();
        cc.region_mut().write_ptr(body, nodes).unwrap();
        cc.parallel_for_hetero("LoopBody", body, 100, Target::Auto).unwrap();

        let opts = Options { analysis: AnalysisGate::Deny, ..Options::default() };
        let mut cc = Concord::new(SystemConfig::ultrabook(), SUM, opts).unwrap();
        let data = cc.malloc(64 * 4).unwrap();
        for i in 0..64 {
            cc.region_mut().write_f32(CpuAddr(data.0 + i * 4), 1.0).unwrap();
        }
        let body = cc.malloc(16).unwrap();
        cc.region_mut().write_ptr(body, data).unwrap();
        cc.region_mut().write_f32(CpuAddr(body.0 + 8), 0.0).unwrap();
        cc.parallel_reduce_hetero("Sum", body, 64, Target::Cpu).unwrap();
    }

    #[test]
    fn analyze_kernel_is_cached_and_mode_sensitive() {
        let (mut cc, _) = racy_context(AnalysisGate::Warn);
        let first = cc.analyze_kernel("RacyHistogram", AnalysisMode::For).unwrap();
        let second = cc.analyze_kernel("RacyHistogram", AnalysisMode::For).unwrap();
        assert_eq!(first, second, "memoized report must be identical");
        assert!(first.has_errors());
        assert!(cc.analyze_kernel("Missing", AnalysisMode::For).is_err());
    }

    // ---- launch-graph (submit/complete) tests ----

    fn assert_reports_eq(a: &OffloadReport, b: &OffloadReport, what: &str) {
        assert_eq!(a.jit_seconds, b.jit_seconds, "{what}: jit_seconds");
        assert_eq!(a.exec_seconds, b.exec_seconds, "{what}: exec_seconds");
        assert_eq!(a.joules, b.joules, "{what}: joules");
        assert_eq!(a.on_gpu, b.on_gpu, "{what}: on_gpu");
        assert_eq!(a.fell_back, b.fell_back, "{what}: fell_back");
        assert_eq!(a.translations, b.translations, "{what}: translations");
        assert_eq!(a.transactions, b.transactions, "{what}: transactions");
        assert_eq!(a.contended, b.contended, "{what}: contended");
        assert_eq!(a.busy_fraction, b.busy_fraction, "{what}: busy_fraction");
        assert_eq!(a.l3_hit_rate, b.l3_hit_rate, "{what}: l3_hit_rate");
        assert_eq!(a.insts, b.insts, "{what}: insts");
    }

    fn fig1_context(host_threads: usize) -> (Concord, CpuAddr, CpuAddr, CpuAddr, CpuAddr) {
        let opts = Options { host_threads: Some(host_threads), ..Options::default() };
        let mut cc = Concord::new(SystemConfig::ultrabook(), FIG1, opts).unwrap();
        let a_nodes = cc.malloc(101 * 8).unwrap();
        let a_body = cc.malloc(8).unwrap();
        cc.region_mut().write_ptr(a_body, a_nodes).unwrap();
        let b_nodes = cc.malloc(101 * 8).unwrap();
        let b_body = cc.malloc(8).unwrap();
        cc.region_mut().write_ptr(b_body, b_nodes).unwrap();
        (cc, a_nodes, a_body, b_nodes, b_body)
    }

    fn nodes_bytes(cc: &Concord, nodes: CpuAddr) -> Vec<u8> {
        cc.region()
            .read_bytes(nodes.0, concord_ir::types::AddrSpace::Cpu, 101 * 8)
            .unwrap()
            .to_vec()
    }

    #[test]
    fn submit_complete_matches_blocking_path() {
        for target in ALL_TARGETS {
            let (mut serial, s_nodes, s_body, ..) = fig1_context(1);
            let want = serial.parallel_for_hetero("LoopBody", s_body, 100, target).unwrap();
            let want_bytes = nodes_bytes(&serial, s_nodes);

            let (mut cc, nodes, body, ..) = fig1_context(1);
            let id = cc.submit_for("LoopBody", body, 100, target).unwrap();
            let got = cc.complete(id).unwrap();
            assert_reports_eq(&got, &want, &format!("target {target}"));
            assert_eq!(nodes_bytes(&cc, nodes), want_bytes, "target {target}");
            let st = cc.graph_stats();
            assert_eq!(st.submitted, 1);
            assert_eq!(st.completed, 1);
        }
    }

    #[test]
    fn blocking_launch_orders_after_pending_submissions() {
        // `Walk` reads the links `Link` writes, so a blocking `Walk` must
        // not run ahead of a `Link` that is still pending in the graph.
        const SRC: &str = r#"
            struct Node { Node* next; int linked; };
            class Link {
            public:
                Node* nodes;
                void operator()(int i) { nodes[i].next = &(nodes[i+1]); }
            };
            class Walk {
            public:
                Node* nodes;
                void operator()(int i) {
                    if (nodes[i].next != nullptr) { nodes[i].linked = 1; }
                }
            };
        "#;
        let run = |submit_link: bool| {
            let mut cc = Concord::new(SystemConfig::ultrabook(), SRC, Options::default()).unwrap();
            let nodes = cc.malloc(101 * 16).unwrap();
            let body = cc.malloc(8).unwrap();
            cc.region_mut().write_ptr(body, nodes).unwrap();
            if submit_link {
                cc.submit_for("Link", body, 100, Target::Cpu).unwrap();
            } else {
                cc.parallel_for_hetero("Link", body, 100, Target::Cpu).unwrap();
            }
            cc.parallel_for_hetero("Walk", body, 100, Target::Cpu).unwrap();
            cc.complete_all();
            cc.region()
                .read_bytes(nodes.0, concord_ir::types::AddrSpace::Cpu, 101 * 16)
                .unwrap()
                .to_vec()
        };
        assert_eq!(run(true), run(false), "blocking Walk ran ahead of the pending Link");
    }

    #[test]
    fn disjoint_cpu_gpu_launches_overlap_and_stay_byte_identical() {
        // Serial reference at host_threads=1.
        let (mut serial, sa, sab, sb, sbb) = fig1_context(1);
        let ra = serial.parallel_for_hetero("LoopBody", sab, 100, Target::Cpu).unwrap();
        let rb = serial.parallel_for_hetero("LoopBody", sbb, 100, Target::Gpu).unwrap();
        let (bytes_a, bytes_b) = (nodes_bytes(&serial, sa), nodes_bytes(&serial, sb));

        for ht in [1usize, 8] {
            let (mut cc, a, ab, b, bb) = fig1_context(ht);
            let ia = cc.submit_for("LoopBody", ab, 100, Target::Cpu).unwrap();
            let ib = cc.submit_for("LoopBody", bb, 100, Target::Gpu).unwrap();
            cc.complete_all();
            let ga = cc.complete(ia).unwrap();
            let gb = cc.complete(ib).unwrap();
            assert_reports_eq(&ga, &ra, &format!("cpu launch, ht={ht}"));
            assert_reports_eq(&gb, &rb, &format!("gpu launch, ht={ht}"));
            assert_eq!(nodes_bytes(&cc, a), bytes_a, "ht={ht}");
            assert_eq!(nodes_bytes(&cc, b), bytes_b, "ht={ht}");
            let st = cc.graph_stats();
            assert_eq!(st.overlapped, 1, "disjoint cpu+gpu pair must overlap (ht={ht})");
            assert_eq!(st.conflict_stalls, 0, "ht={ht}");
            // One fence pair covers the overlapped wave — same count as
            // the serial pair (cpu launch does not fence).
            let c = cc.region().consistency();
            assert_eq!(c.fences_to_gpu, 1, "ht={ht}");
            assert_eq!(c.fences_to_cpu, 1, "ht={ht}");
            assert!(!c.pinned);
        }
    }

    #[test]
    fn conflicting_launches_serialize_with_a_stall() {
        // Both launches write the SAME nodes array: the graph must keep
        // submission order (no overlap) and still match serial bytes.
        let (mut serial, s_nodes, s_body, ..) = fig1_context(1);
        serial.parallel_for_hetero("LoopBody", s_body, 100, Target::Cpu).unwrap();
        serial.parallel_for_hetero("LoopBody", s_body, 100, Target::Gpu).unwrap();
        let want = nodes_bytes(&serial, s_nodes);

        let (mut cc, nodes, body, ..) = fig1_context(8);
        cc.submit_for("LoopBody", body, 100, Target::Cpu).unwrap();
        cc.submit_for("LoopBody", body, 100, Target::Gpu).unwrap();
        cc.complete_all();
        assert_eq!(nodes_bytes(&cc, nodes), want);
        let st = cc.graph_stats();
        assert_eq!(st.overlapped, 0, "write-conflicting launches must not overlap");
        assert!(st.conflict_stalls >= 1, "the conflict must be counted: {st:?}");
        assert_eq!(cc.region().consistency().fences_to_gpu, 1, "gpu launch keeps its fence");
    }

    #[test]
    fn consecutive_gpu_launches_share_one_fence_pair() {
        let (mut serial, sa, sab, sb, sbb) = fig1_context(1);
        let ra = serial.parallel_for_hetero("LoopBody", sab, 100, Target::Gpu).unwrap();
        let rb = serial.parallel_for_hetero("LoopBody", sbb, 100, Target::Gpu).unwrap();
        assert_eq!(serial.region().consistency().fences_to_gpu, 2);
        let (bytes_a, bytes_b) = (nodes_bytes(&serial, sa), nodes_bytes(&serial, sb));

        let (mut cc, a, ab, b, bb) = fig1_context(1);
        let ia = cc.submit_for("LoopBody", ab, 100, Target::Gpu).unwrap();
        let ib = cc.submit_for("LoopBody", bb, 100, Target::Gpu).unwrap();
        cc.complete_all();
        assert_reports_eq(&cc.complete(ia).unwrap(), &ra, "first gpu launch");
        assert_reports_eq(&cc.complete(ib).unwrap(), &rb, "second gpu launch");
        assert_eq!(nodes_bytes(&cc, a), bytes_a);
        assert_eq!(nodes_bytes(&cc, b), bytes_b);
        let c = cc.region().consistency();
        assert_eq!(c.fences_to_gpu, 1, "batched launches share one fence-in");
        assert_eq!(c.fences_to_cpu, 1, "batched launches share one fence-out");
        assert_eq!(c.fences_elided, 1, "the elided pair must be counted on the region");
        assert_eq!(cc.graph_stats().fences_elided, 1);
    }

    #[test]
    fn accumulate_launches_coalesce_under_one_fence_pair() {
        let src = r#"
            class Histogram {
            public:
                int* bins; int* data;
                void operator()(int i) { atomic_add(&bins[data[i] & 7], 1); }
            };
        "#;
        let build = |_| {
            let mut cc = Concord::new(SystemConfig::ultrabook(), src, Options::default()).unwrap();
            let bins = cc.malloc(8 * 4).unwrap();
            let d1 = cc.malloc(64 * 4).unwrap();
            let d2 = cc.malloc(64 * 4).unwrap();
            for i in 0..64u64 {
                cc.region_mut().write_i32(CpuAddr(d1.0 + i * 4), i as i32).unwrap();
                cc.region_mut().write_i32(CpuAddr(d2.0 + i * 4), (3 * i) as i32).unwrap();
            }
            let b1 = cc.malloc(16).unwrap();
            cc.region_mut().write_ptr(b1, bins).unwrap();
            cc.region_mut().write_ptr(b1.offset(8), d1).unwrap();
            let b2 = cc.malloc(16).unwrap();
            cc.region_mut().write_ptr(b2, bins).unwrap();
            cc.region_mut().write_ptr(b2.offset(8), d2).unwrap();
            (cc, bins, b1, b2)
        };
        let (mut serial, s_bins, sb1, sb2) = build(());
        serial.parallel_for_hetero("Histogram", sb1, 64, Target::Gpu).unwrap();
        serial.parallel_for_hetero("Histogram", sb2, 64, Target::Gpu).unwrap();
        let want: Vec<i32> =
            (0..8).map(|i| serial.region().read_i32(CpuAddr(s_bins.0 + i * 4)).unwrap()).collect();

        let (mut cc, bins, b1, b2) = build(());
        cc.submit_for("Histogram", b1, 64, Target::Gpu).unwrap();
        cc.submit_for("Histogram", b2, 64, Target::Gpu).unwrap();
        cc.complete_all();
        let got: Vec<i32> =
            (0..8).map(|i| cc.region().read_i32(CpuAddr(bins.0 + i * 4)).unwrap()).collect();
        assert_eq!(got, want);
        let st = cc.graph_stats();
        assert_eq!(st.coalesced, 1, "accumulate overlap must coalesce: {st:?}");
        assert_eq!(st.fences_elided, 1);
        assert_eq!(cc.region().consistency().fences_to_gpu, 1);
    }

    #[test]
    fn trap_choice_matches_serial_submission_order() {
        // First launch traps (null nodes pointer -> opaque footprint,
        // solo wave); second is healthy. The graph must surface the trap
        // on the first id, the success on the second, and still apply the
        // second launch's writes — exactly like a serial caller that
        // continues past the failure.
        let (mut serial, _sa, _sab, sb, sbb) = fig1_context(1);
        let null_body = serial.malloc(8).unwrap();
        let want_err =
            serial.parallel_for_hetero("LoopBody", null_body, 4, Target::Cpu).unwrap_err();
        let want_ok = serial.parallel_for_hetero("LoopBody", sbb, 100, Target::Gpu).unwrap();
        let want_bytes = nodes_bytes(&serial, sb);

        let (mut cc, _a, _ab, b, bb) = fig1_context(1);
        let nb = cc.malloc(8).unwrap();
        let bad = cc.submit_for("LoopBody", nb, 4, Target::Cpu).unwrap();
        let good = cc.submit_for("LoopBody", bb, 100, Target::Gpu).unwrap();
        cc.complete_all();
        let got_err = cc.complete(bad).unwrap_err();
        assert_eq!(got_err, want_err, "trap identity must match serial");
        assert_reports_eq(&cc.complete(good).unwrap(), &want_ok, "launch after trap");
        assert_eq!(nodes_bytes(&cc, b), want_bytes);
    }

    #[test]
    fn complete_touching_drains_only_what_overlaps() {
        let (mut cc, a, ab, _b, bb) = fig1_context(1);
        cc.submit_for("LoopBody", ab, 100, Target::Gpu).unwrap();
        let ib = cc.submit_for("LoopBody", bb, 100, Target::Gpu).unwrap();
        // A range nothing touches: nothing drains.
        cc.complete_touching(1, 1);
        assert_eq!(cc.graph_stats().completed, 0);
        // Touching the first launch's output drains in submission order.
        // The two launches batch into one wave, so both drain together.
        cc.complete_touching(a.0, 8);
        assert_eq!(cc.graph_stats().completed, 2);
        assert!(cc.complete(ib).is_ok());
    }

    #[test]
    fn record_and_replay_graph_matches_serial_bytes_and_reports() {
        let record = || {
            let (mut cc, a, ab, b, bb) = fig1_context(1);
            // Recording starts after setup ops here; exercise the full
            // path by re-writing a body pointer inside the recording.
            cc.record_session(true);
            let extra = cc.malloc(16).unwrap();
            cc.region_mut().write_ptr(ab, a).unwrap();
            cc.parallel_for_hetero("LoopBody", ab, 100, Target::Cpu).unwrap();
            cc.parallel_for_hetero("LoopBody", bb, 100, Target::Gpu).unwrap();
            cc.region_mut().write_i64(extra, 7).unwrap();
            cc.free(extra).unwrap();
            let ops = cc.take_session();
            (ops, nodes_bytes(&cc, a), nodes_bytes(&cc, b))
        };
        let (ops, bytes_a, bytes_b) = record();
        assert!(ops.iter().any(|o| matches!(o, SessionOp::Launch { .. })));
        assert!(ops.iter().any(|o| matches!(o, SessionOp::Write { .. })));

        let (mut serial, sa, _sab, sb, _sbb) = fig1_context(1);
        let serial_reports = serial.replay_serial(&ops).unwrap();
        assert_eq!(nodes_bytes(&serial, sa), bytes_a);
        assert_eq!(nodes_bytes(&serial, sb), bytes_b);

        for ht in [1usize, 8] {
            let (mut cc, a, _ab, b, _bb) = fig1_context(ht);
            let graph_reports = cc.replay_graph(&ops).unwrap();
            assert_eq!(nodes_bytes(&cc, a), bytes_a, "ht={ht}");
            assert_eq!(nodes_bytes(&cc, b), bytes_b, "ht={ht}");
            assert_eq!(graph_reports.len(), serial_reports.len());
            for (i, (g, s)) in graph_reports.iter().zip(&serial_reports).enumerate() {
                assert_reports_eq(
                    g.as_ref().unwrap(),
                    s.as_ref().unwrap(),
                    &format!("replayed launch {i}, ht={ht}"),
                );
            }
            assert_eq!(cc.graph_stats().overlapped, 1, "disjoint replayed launches overlap");
        }
    }

    #[test]
    fn unknown_launch_id_is_an_error() {
        let (mut cc, _, body, ..) = fig1_context(1);
        let id = cc.submit_for("LoopBody", body, 100, Target::Cpu).unwrap();
        cc.complete(id).unwrap();
        // Taken once: gone.
        assert!(matches!(cc.complete(id), Err(RuntimeError::UnknownLaunch(_))));
        assert!(matches!(cc.complete(LaunchId(999)), Err(RuntimeError::UnknownLaunch(_))));
    }

    #[test]
    fn submit_respects_the_deny_gate() {
        let opts = Options { analysis: AnalysisGate::Deny, ..Options::default() };
        let mut cc = Concord::new(SystemConfig::ultrabook(), RACY, opts).unwrap();
        let bins = cc.malloc(64).unwrap();
        let body = cc.malloc(8).unwrap();
        cc.region_mut().write_ptr(body, bins).unwrap();
        let err = cc.submit_for("RacyHistogram", body, 16, Target::Cpu).unwrap_err();
        assert!(matches!(err, RuntimeError::AnalysisDenied { .. }));
        assert_eq!(cc.graph_stats().submitted, 0, "denied launches never enter the graph");
    }

    const CHAIN: &str = r#"
        class Chain {
        public:
            int* dist;
            void operator()(int v) {
                if (v < 9) {
                    if (dist[v + 1] < 0) {
                        dist[v + 1] = dist[v] + 1;
                        push(v + 1);
                    }
                }
            }
        };
    "#;

    fn chain_context(host_threads: usize) -> (Concord, CpuAddr, CpuAddr) {
        let opts = Options { host_threads: Some(host_threads), ..Options::default() };
        let mut cc = Concord::new(SystemConfig::ultrabook(), CHAIN, opts).unwrap();
        let dist = cc.malloc(10 * 4).unwrap();
        cc.region_mut().write_i32(dist, 0).unwrap();
        for i in 1..10u64 {
            cc.region_mut().write_i32(CpuAddr(dist.0 + i * 4), -1).unwrap();
        }
        let body = cc.malloc(8).unwrap();
        cc.region_mut().write_ptr(body, dist).unwrap();
        (cc, dist, body)
    }

    fn dist_values(cc: &Concord, dist: CpuAddr) -> Vec<i32> {
        (0..10u64).map(|i| cc.region().read_i32(CpuAddr(dist.0 + i * 4)).unwrap()).collect()
    }

    #[test]
    fn worklist_chain_agrees_on_every_target_and_thread_count() {
        let targets = [
            Target::Cpu,
            Target::Gpu,
            Target::Hybrid { gpu_fraction: 0.5 },
            Target::Auto,
            Target::Native,
        ];
        for target in targets {
            for ht in [1usize, 8] {
                let (mut cc, dist, body) = chain_context(ht);
                let r = cc.parallel_worklist_hetero("Chain", body, &[0], target).unwrap();
                assert_eq!(r.frontier_sizes, vec![1; 10], "{target} ht={ht}");
                assert_eq!(r.rounds(), 10);
                assert_eq!(r.total_items(), 10);
                assert_eq!(
                    dist_values(&cc, dist),
                    (0..10).collect::<Vec<i32>>(),
                    "{target} ht={ht}"
                );
                assert!(r.offload.exec_seconds > 0.0);
                assert!(r.offload.joules > 0.0);
            }
        }
    }

    #[test]
    fn worklist_empty_seed_runs_zero_rounds() {
        let (mut cc, dist, body) = chain_context(1);
        let before = cc.heap_free_bytes();
        let r = cc.parallel_worklist_hetero("Chain", body, &[], Target::Gpu).unwrap();
        assert_eq!(r.rounds(), 0);
        assert_eq!(r.total_items(), 0);
        assert_eq!(r.offload.exec_seconds, 0.0);
        assert_eq!(dist_values(&cc, dist)[1], -1, "no round ran");
        assert_eq!(cc.heap_free_bytes(), before, "no queue scratch leaked");
    }

    #[test]
    fn worklist_queue_scratch_is_released() {
        let (mut cc, _, body) = chain_context(8);
        let before = cc.heap_free_bytes();
        cc.parallel_worklist_hetero("Chain", body, &[0], Target::Hybrid { gpu_fraction: 0.5 })
            .unwrap();
        assert_eq!(cc.heap_free_bytes(), before);
    }

    #[test]
    fn worklist_merge_dedups_pushes_and_seed() {
        // Every item below 9 pushes 9 — without dedup the second round
        // would run the body once per pusher and `count[9]` would exceed 1.
        let src = r#"
            class Fan {
            public:
                int* count;
                void operator()(int v) {
                    count[v] = count[v] + 1;
                    if (v < 9) { push(9); }
                }
            };
        "#;
        for target in [Target::Cpu, Target::Gpu, Target::Native] {
            let mut cc = Concord::new(SystemConfig::ultrabook(), src, Options::default()).unwrap();
            let count = cc.malloc(10 * 4).unwrap();
            let body = cc.malloc(8).unwrap();
            cc.region_mut().write_ptr(body, count).unwrap();
            let r = cc.parallel_worklist_hetero("Fan", body, &[2, 0, 2, 1, 0], target).unwrap();
            assert_eq!(r.frontier_sizes, vec![3, 1], "{target}");
            for i in [0u64, 1, 2, 9] {
                assert_eq!(
                    cc.region().read_i32(CpuAddr(count.0 + i * 4)).unwrap(),
                    1,
                    "{target}: item {i} ran exactly once"
                );
            }
        }
    }

    #[test]
    fn push_outside_worklist_traps_everywhere() {
        for target in [Target::Cpu, Target::Gpu, Target::Native] {
            let (mut cc, _, body) = chain_context(1);
            let err = cc.parallel_for_hetero("Chain", body, 4, target).unwrap_err();
            match err {
                RuntimeError::Trap(Trap::BadIntrinsic(_)) => {}
                other => panic!("{target}: expected BadIntrinsic trap, got {other:?}"),
            }
        }
    }

    #[test]
    fn worklist_records_and_replays_through_both_paths() {
        let record = || {
            let (mut cc, dist, body) = chain_context(1);
            cc.record_session(true);
            cc.region_mut().write_i32(CpuAddr(dist.0 + 9 * 4), -1).unwrap();
            cc.parallel_worklist_hetero("Chain", body, &[0], Target::Gpu).unwrap();
            (cc.take_session(), dist_values(&cc, dist))
        };
        let (ops, expect) = record();
        assert!(ops.iter().any(|o| matches!(o, SessionOp::Worklist { .. })));
        // Frontier staging must not leak into the journal as raw writes:
        // the one recorded write is the host's own.
        assert_eq!(
            ops.iter().filter(|o| matches!(o, SessionOp::Write { .. })).count(),
            1,
            "exactly the pre-launch host write is journaled"
        );

        let (mut serial, sd, _) = chain_context(1);
        let serial_reports = serial.replay_serial(&ops).unwrap();
        assert_eq!(dist_values(&serial, sd), expect);
        assert_eq!(serial_reports.len(), 1);

        let (mut graph, gd, _) = chain_context(8);
        let graph_reports = graph.replay_graph(&ops).unwrap();
        assert_eq!(dist_values(&graph, gd), expect);
        assert_reports_eq(
            graph_reports[0].as_ref().unwrap(),
            serial_reports[0].as_ref().unwrap(),
            "replayed worklist",
        );
    }

    #[test]
    fn access_summary_is_exposed_and_cached() {
        let mut cc = Concord::new(SystemConfig::ultrabook(), FIG1, Options::default()).unwrap();
        let s = cc.access_summary("LoopBody", AnalysisMode::For).unwrap();
        assert!(!s.opaque);
        assert_eq!(
            s.mode_of(concord_analyze::AccessBase::Field { offset: 0 }),
            Some(AccessMode::Write)
        );
        assert_eq!(s, cc.access_summary("LoopBody", AnalysisMode::For).unwrap());
        assert!(cc.access_summary("Missing", AnalysisMode::For).is_err());
    }
}
