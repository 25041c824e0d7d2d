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
    AccessBase, AccessMode, AccessSummary, Gate as AnalysisGate, Mode as AnalysisMode,
    Report as AnalysisReport,
};
pub use graph::{Conflict, FootRange, Footprint, GraphStats, LaunchId};
pub use scheduler::{DeviceClass, Plan, ProfileHistory, Target};
pub use session::SessionOp;

use concord_compiler::{lower_for_gpu_traced, GpuArtifact, GpuConfig};
use concord_cpusim::{CpuPending, CpuSim};
use concord_energy::{Device, EnergyMeter, PhaseReport, SystemConfig};
use concord_frontend::{CompileError, LoweredProgram};
use concord_gpusim::{GpuPending, GpuSim};
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
    /// across. `None` reads `CONCORD_HOST_THREADS`, falling back to the
    /// host's available parallelism (`concord_pool::host_threads`). Every
    /// report, trace, and byte of workload output is identical for any
    /// value — execution uses snapshot-and-log isolation with a fixed
    /// chunk-order merge.
    pub host_threads: Option<usize>,
    /// Pre-launch static analysis gate (see `concord-analyze`), one of two
    /// levels: `Warn` (the default) traces findings but always launches,
    /// `Deny` refuses kernels with error-severity findings with
    /// [`RuntimeError::AnalysisDenied`]. At both levels the scheduler's
    /// facts (access summary, CA108 verdict) are computed on first need:
    /// by a submit's footprint or a native launch.
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

/// The construct a launch is admitted for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Construct {
    For,
    Reduce,
    Worklist,
}

/// The analyzer launch convention a construct runs under, and a
/// reduction's `join`.
type Convention = (AnalysisMode, Option<FuncId>);

fn convention(kind: WorkKind<'_>) -> Convention {
    match kind {
        WorkKind::Reduce { join, .. } => (AnalysisMode::Reduce, Some(join)),
        WorkKind::For | WorkKind::Worklist { .. } => (AnalysisMode::For, None),
    }
}

/// Order-dependence verdicts (`uses_gated_ops`: `device_malloc`,
/// compare-and-swap) for one (kernel, construct), one per module — each
/// over the functions that module's executors run in parallel. Decided
/// once at plan time and carried to the executors in [`Work::in_order`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Gated {
    /// CPU module, `operator()` only: `CpuBackend` and `NativeBackend`
    /// leave a reduction's joins to the runtime's serial final join.
    cpu: bool,
    /// GPU module, `operator()` plus a reduction's `join` (the per-warp
    /// tree reduce runs it on the device).
    gpu: bool,
}

impl Gated {
    /// Gated on some device: the launch's parts run one after another,
    /// and it never joins a wave.
    fn any(self) -> bool {
        self.cpu || self.gpu
    }

    fn on(self, device: DeviceClass) -> bool {
        match device {
            DeviceClass::Cpu | DeviceClass::Native => self.cpu,
            DeviceClass::Gpu => self.gpu,
        }
    }
}

/// What the runtime knows statically about one kernel under one launch
/// convention. The modules never change after build, so each fact is
/// decided at most once per session.
struct KernelFacts {
    /// Computed (cheaply) with the entry.
    gated: Gated,
    /// Findings and access summary from one analyzer walk, run on first
    /// need: the pre-launch gate, a submit's footprint, a native launch,
    /// or [`Concord::analyze_kernel`].
    report: Option<AnalysisReport>,
}

/// The one table of [`KernelFacts`], keyed by (kernel, convention). It
/// holds the session's modules so a lookup borrows only the table.
struct FactTable {
    program: Arc<LoweredProgram>,
    gpu_artifact: Arc<GpuArtifact>,
    entries: HashMap<(FuncId, AnalysisMode), KernelFacts>,
}

impl FactTable {
    /// The facts of `func` under `(mode, join)`, walking the analyzer
    /// first when `walk` asks for the report and no earlier need ran it.
    fn get(&mut self, func: FuncId, (mode, join): Convention, walk: bool) -> &KernelFacts {
        let (cpu, gpu) = (&self.program.module, &self.gpu_artifact.module);
        let facts = self.entries.entry((func, mode)).or_insert_with(|| {
            let roots: Vec<FuncId> = std::iter::once(func).chain(join).collect();
            let gated =
                Gated { cpu: uses_gated_ops(cpu, &[func]), gpu: uses_gated_ops(gpu, &roots) };
            KernelFacts { gated, report: None }
        });
        if walk && facts.report.is_none() {
            facts.report = Some(concord_analyze::analyze_kernel(cpu, func, mode));
        }
        facts
    }

    /// The analyzer report of `func` under `conv` (see [`FactTable::get`]).
    fn report(&mut self, func: FuncId, conv: Convention) -> &AnalysisReport {
        self.get(func, conv, true).report.as_ref().expect("walked on request")
    }
}

/// The live pointer an access record's base names and the allocation
/// block `[lo, hi)` it points into; `None` for a null, dangling or
/// unreadable field pointer. `body_block` is the body's own block.
fn resolve_base(
    heap: &SharedAllocator,
    region: &SharedRegion,
    base: AccessBase,
    body: CpuAddr,
    body_block: (u64, u64),
) -> Option<(u64, u64, u64)> {
    match base {
        AccessBase::Body => Some((body.0, body_block.0, body_block.1)),
        AccessBase::Field { offset } => {
            let ptr = region.read_ptr(body.offset(offset)).ok()?;
            let (lo, hi) = heap.block_range(ptr)?;
            Some((ptr.0, lo, hi))
        }
    }
}

/// What the drain loop decided for the front of the launch queue.
struct WavePlan {
    /// Launches the wave takes from the front.
    len: usize,
    /// Conflict stalls the decision observed.
    stalls: u64,
    /// Members that joined through accumulate-mode overlap.
    coalesced: u64,
}

/// One launch of a wave between setup and finish.
struct Member<'a> {
    plan: Plan,
    /// One part per plan part, once setup succeeded.
    parts: Vec<Part<'a>>,
    /// Every part's reduction slots together, for the final join.
    slots: &'a [CpuAddr],
    /// The launch's setup error or first trap.
    failed: Option<RuntimeError>,
}

/// One device's share of one launch of a wave: which backend runs which
/// work over which span, the seconds preparing it charged, and what
/// running it reported.
struct Part<'a> {
    device: DeviceClass,
    work: Work<'a>,
    span: Span,
    jit: f64,
    stats: LaunchStats,
}

/// The backend class a plan's `device` part of `l` runs on.
fn device_class(l: &graph::Launch<'_>, device: Device) -> DeviceClass {
    if l.target == Target::Native {
        DeviceClass::Native
    } else {
        DeviceClass::from(device)
    }
}

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

    /// Per-launch setup after planning: a reduction's partial-accumulator
    /// slots, allocated in the wave's scratch guard. Returns each plan
    /// part's slot count.
    fn setup(
        &mut self,
        scratch: &mut ScratchGuard<'_>,
        l: &graph::Launch<'_>,
        plan: &Plan,
    ) -> Result<Vec<usize>, RuntimeError> {
        let WorkKind::Reduce { body_size, .. } = l.kind else {
            return Ok(vec![0; plan.parts.len()]);
        };
        let counts = plan.parts.iter().map(|&(device, span)| {
            let (backend, ctx) = self.on(device_class(l, device));
            backend.reduce_slots(ctx, span) as usize
        });
        let counts: Vec<usize> = counts.collect();
        scratch.alloc(counts.iter().sum::<usize>() as u64, body_size)?;
        Ok(counts)
    }

    /// Execute a snapshot wave's CPU and GPU part against one snapshot of
    /// the region, as the two indices of one pool fan-out. Index 0 is the
    /// caller's first claim, so the CPU part (whose `execute` needs
    /// `&mut`) runs here and the GPU part on a pool helper when one is
    /// free; each part's own chunk or warp fan-out nests inside this one.
    fn execute(&mut self, parts: &[&Part<'_>]) -> (Option<CpuPending>, Option<GpuPending>) {
        let part_on = |device| parts.iter().find(|q| q.device == device);
        let (cpu_part, gpu_part) = (part_on(DeviceClass::Cpu), part_on(DeviceClass::Gpu));
        let host_threads = self.cpu.host_threads();
        let (ctx, gpu) = (&self.ctx, &*self.gpu);
        let cpu = Mutex::new(&mut *self.cpu);
        let mut halves = concord_pool::map(host_threads, 2, |half| {
            if half == 0 {
                let mut cpu = cpu.lock().expect("the CPU half runs once");
                (cpu_part.map(|q| cpu.execute(ctx, &q.work, q.span)), None)
            } else {
                (None, gpu_part.map(|q| gpu.execute(ctx, &q.work, q.span)))
            }
        });
        let gpu_half = halves.pop().and_then(|half| half.1);
        (halves.pop().and_then(|half| half.0), gpu_half)
    }

    /// Per-launch finish: the final join of a reduction's partials, then
    /// every part metered and profiled, then the merged report — the
    /// single place a reduction is joined and a part is metered, profiled
    /// and turned into an [`OffloadReport`]. The join runs serially on the
    /// CPU-side backend the launch ran on, for every target, which is what
    /// lets one construct combine per-warp GPU partials with per-core CPU
    /// ones; a step-limit trap in it names `join`. Native parts meter as
    /// the energy model's CPU but are not profiled: their wall-clock rates
    /// must not contaminate the simulated-CPU history `Target::Auto`
    /// splits by.
    fn finish(
        &mut self,
        l: &graph::Launch<'_>,
        m: &Member<'_>,
    ) -> Result<OffloadReport, RuntimeError> {
        let mut joined = LaunchStats::default();
        if let WorkKind::Reduce { join, .. } = l.kind {
            let mut sp = self.ctx.tracer.span(Track::Runtime, "reduce_join");
            sp.arg("partials", m.slots.len() as i64);
            let ctx = &mut self.ctx;
            joined = match device_class(l, Device::Cpu) {
                DeviceClass::Native => self.native.join(ctx, join, l.body, m.slots),
                _ => self.cpu.join_partials(ctx, join, l.body, m.slots),
            }
            .map_err(|t| t.with_kernel(&ctx.cpu_module.function(join).name))?;
            sp.arg("seconds", joined.seconds);
        }
        let mut reports = Vec::with_capacity(m.parts.len());
        for q in &m.parts {
            let stats = q.stats;
            let on_gpu = q.device == DeviceClass::Gpu;
            let (meter_as, phase) = if on_gpu {
                let seconds = stats.seconds + q.jit;
                (Device::Gpu, PhaseReport { seconds, busy_fraction: stats.busy_fraction })
            } else {
                (Device::Cpu, PhaseReport { seconds: stats.seconds, busy_fraction: 1.0 })
            };
            let before = self.meter.joules();
            self.meter.record(self.ctx.system, meter_as, phase);
            if q.device != DeviceClass::Native {
                self.profile.record(&l.class, meter_as, u64::from(q.span.items()), stats.seconds);
            }
            reports.push(OffloadReport {
                jit_seconds: q.jit,
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
            });
        }
        let mut report = OffloadReport::merge_parallel(&reports);
        if matches!(l.kind, WorkKind::Reduce { .. }) {
            // The final join is a serial tail on one core after the
            // concurrent parts finish.
            let before = self.meter.joules();
            let host_phase = PhaseReport {
                seconds: joined.seconds,
                busy_fraction: 1.0 / f64::from(self.ctx.system.cpu.cores),
            };
            self.meter.record(self.ctx.system, Device::Cpu, host_phase);
            report.joules += self.meter.joules() - before;
            report.exec_seconds += joined.seconds;
            report.insts += joined.insts;
        }
        report.fell_back = m.plan.fell_back;
        Ok(report)
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
    /// Every per-(kernel, convention) fact the gate and the scheduler act on.
    facts: FactTable,
    /// Native launches whose chunks ran in order because of a CA108
    /// verdict (see [`Concord::native_hazard_serialized`]).
    hazard_serialized: u64,
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
    /// Compile `source` through a fresh in-memory [`ArtifactCache`] and set
    /// up the shared region, vtables, and both device backends for `system`.
    ///
    /// # Errors
    ///
    /// Compilation errors and vtable installation faults.
    pub fn new(system: SystemConfig, source: &str, opts: Options) -> Result<Self, RuntimeError> {
        Self::build(system, source, opts, &ArtifactCache::new())
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
        Self::build(system, source, opts, cache)
    }

    /// The one way a session gets its compiled artifact: through `cache`,
    /// which compiles on a miss. [`Concord::new`] passes a fresh in-memory
    /// cache, so its session owns its modules, JIT set and native slot.
    fn build(
        system: SystemConfig,
        source: &str,
        opts: Options,
        cache: &ArtifactCache,
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
        let (entry, hit) = cache.lookup_or_compile(source, gpu_cfg, compile)?;
        if tracer.enabled() {
            let args =
                vec![("hit", hit.into()), ("source_hash", cache::source_hash(source).into())];
            tracer.instant(Track::Runtime, "artifact_cache", args);
        }
        let program = Arc::clone(&entry.program);
        let gpu_artifact = Arc::clone(&entry.gpu_artifact);
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
        let facts = FactTable {
            program: Arc::clone(&program),
            gpu_artifact: Arc::clone(&gpu_artifact),
            entries: HashMap::new(),
        };
        Ok(Concord {
            cpu: CpuBackend::new(cpu),
            gpu: GpuBackend::new(gpu, Arc::clone(&entry.jitted)),
            native: NativeBackend::new(system.cpu.cores, host_threads, Arc::clone(&entry.native)),
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
            facts,
            hazard_serialized: 0,
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

    /// Free a shared allocation, after every pending launch that touches
    /// its block has run.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Alloc`] on invalid frees.
    pub fn free(&mut self, addr: CpuAddr) -> Result<(), RuntimeError> {
        if let Some((lo, hi)) = self.heap.block_range(addr) {
            self.complete_touching(lo, hi - lo);
        }
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
    /// configured gate level: the findings, and in
    /// [`AnalysisReport::access`] the access summary the scheduler acts
    /// on. Reports are memoized per (kernel, mode) — the module never
    /// changes after construction — so repeat calls and repeat launches
    /// are free.
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
        let join = k.join_fn.filter(|_| mode == AnalysisMode::Reduce);
        Ok(self.traced_report(class, k.operator_fn, (mode, join)).clone())
    }

    /// The analyzer report as the gate and [`Concord::analyze_kernel`]
    /// see it: traced as an `analyze` span plus one instant per finding
    /// when this call runs the walk, as a `cache_hit` instant when an
    /// earlier need already ran it. (The scheduler's lookups trace
    /// nothing.)
    fn traced_report(&mut self, class: &str, func: FuncId, conv: Convention) -> &AnalysisReport {
        let args = vec![("kernel", class.into()), ("mode", conv.0.name().into())];
        if self.facts.get(func, conv, false).report.is_some() {
            self.tracer.instant(Track::Analysis, "cache_hit", args);
            return self.facts.report(func, conv);
        }
        let mut sp = self.tracer.span_with(Track::Analysis, "analyze", args);
        let report = self.facts.report(func, conv);
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
        report
    }

    /// The pre-launch gate: analyze-and-trace at `Warn`, and also refuse
    /// error-severity kernels at `Deny`.
    fn gate_launch(
        &mut self,
        class: &str,
        func: FuncId,
        conv: Convention,
    ) -> Result<(), RuntimeError> {
        let deny = self.analysis == AnalysisGate::Deny;
        let report = self.traced_report(class, func, conv);
        if deny && report.has_errors() {
            let report = report.clone();
            self.tracer.instant(
                Track::Analysis,
                "denied",
                vec![("kernel", class.into()), ("mode", conv.0.name().into())],
            );
            return Err(RuntimeError::AnalysisDenied { kernel: class.to_string(), report });
        }
        Ok(())
    }

    /// Turn one construct invocation into a [`graph::Launch`] — the one
    /// place every entry point resolves the kernel, requires a
    /// reduction's `join`, takes the pre-launch gate, and decides every
    /// fact the launch runs under: GPU eligibility, the order-dependence
    /// verdicts, the footprint, the CA108 verdict and body invariance.
    fn admit(
        &mut self,
        class: &str,
        body: CpuAddr,
        n: u32,
        target: Target,
        construct: Construct,
    ) -> Result<graph::Launch<'static>, RuntimeError> {
        let k = self.kernel(class)?;
        let func = k.operator_fn;
        let mut gpu_allowed = !self.cpu_only.contains(class);
        let kind = match construct {
            Construct::For => WorkKind::For,
            Construct::Worklist => WorkKind::Worklist { items: &[] },
            Construct::Reduce => {
                let join = k.join_fn.ok_or_else(|| RuntimeError::NoJoin(class.to_string()))?;
                // Local memory must fit one body copy per lane; otherwise
                // the runtime performs the reduction on the CPU (§3.3: "if
                // local memory is insufficient").
                gpu_allowed &= k.body_size * u64::from(self.system.gpu.simd_width)
                    <= self.system.gpu.local_bytes;
                WorkKind::Reduce { join, body_size: k.body_size, slots: &[] }
            }
        };
        let conv = convention(kind);
        self.gate_launch(class, func, conv)?;
        let gated = self.facts.get(func, conv, false).gated;
        let footprint = if gated.any() {
            Footprint::opaque()
        } else {
            self.resolve_footprint(func, kind, body, n)
        };
        let native = target == Target::Native;
        // A CA108 kernel runs its native chunks in order, pinning its
        // intermediate dynamics to the one-thread schedule. Worklist rounds
        // are exempt: per-chunk push segments merge through a sort+dedup
        // commit and guarded-monotone updates keep every drain
        // deterministic (DESIGN.md). Gated kernels run in order anyway.
        let hazard = native
            && !gated.cpu
            && construct != Construct::Worklist
            && self.facts.report(func, conv).access.hazard;
        // A native chunk loads the body's fields once when no write of the
        // launch can land in the body's block. The footprint is opaque for
        // a gated kernel, and a reduction writes its body (its slots).
        let body_invariant =
            native && self.heap.block_range(body).is_some_and(|(lo, hi)| !footprint.writes(lo, hi));
        Ok(graph::Launch {
            class: class.to_string(),
            func,
            kind,
            body,
            n,
            target,
            gpu_allowed,
            gated,
            footprint,
            hazard,
            body_invariant,
        })
    }

    /// `parallel_for_hetero(n, body, device)`: run the `operator()` of
    /// `class` over `[0, n)`. The blocking construct is
    /// [`Concord::submit_for`], then [`Concord::complete`]: the launch
    /// runs after everything already pending, and may share their last
    /// wave.
    ///
    /// # Errors
    ///
    /// Unknown kernel class, a gate refusal, or a runtime trap.
    pub fn parallel_for_hetero(
        &mut self,
        class: &str,
        body: CpuAddr,
        n: u32,
        target: Target,
    ) -> Result<OffloadReport, RuntimeError> {
        let id = self.submit(class, body, n, target, false)?;
        self.complete(id)
    }

    /// `parallel_reduce_hetero(n, body, device)`: run `operator()` over
    /// `[0, n)` accumulating into per-worker copies, then combine with
    /// `join` (hierarchically through GPU local memory when on the GPU,
    /// §3.3). Hybrid targets join the partials of both devices with the
    /// same `join`. Like [`Concord::parallel_for_hetero`], this is
    /// [`Concord::submit_reduce`], then [`Concord::complete`].
    ///
    /// # Errors
    ///
    /// Unknown kernel class, missing `join`, a gate refusal, or a runtime
    /// trap.
    pub fn parallel_reduce_hetero(
        &mut self,
        class: &str,
        body: CpuAddr,
        n: u32,
        target: Target,
    ) -> Result<OffloadReport, RuntimeError> {
        let id = self.submit(class, body, n, target, true)?;
        self.complete(id)
    }

    /// `parallel_worklist_hetero(body, seed, device)`: drain a frontier
    /// worklist to empty. Round `r` runs the `operator()` of `class` once
    /// per item of the current frontier (the item value is the kernel's
    /// `int` argument); bodies call the `push(item)` intrinsic to feed
    /// the next frontier. Pushes are collected in per-chunk segments and
    /// merged into a sorted, deduplicated frontier between rounds, so
    /// frontier contents, drain order, and every output byte are
    /// identical on every target at any host-thread count. The construct
    /// ends when a round pushes nothing. The frontier stays on the host
    /// (each round's [`WorkKind::Worklist`] items): a drain allocates
    /// nothing in the shared region.
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
        let launch = self.admit(class, body, 0, target, Construct::Worklist)?;
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
        let mut report = WorklistReport::default();
        let mut frontier: Vec<i32> = seed.to_vec();
        loop {
            // Ordered merge: sorted by item and deduplicated — the
            // canonical ascending drain order, for the seed and for the
            // union of every round's chunk segments alike.
            frontier.sort_unstable();
            frontier.dedup();
            if frontier.is_empty() {
                return Ok(report);
            }
            report.frontier_sizes.push(frontier.len() as u32);
            let mut pushes: Vec<i32> = Vec::new();
            let round = graph::Launch {
                class: launch.class.clone(),
                footprint: launch.footprint.clone(),
                kind: WorkKind::Worklist { items: &frontier },
                n: frontier.len() as u32,
                ..launch
            };
            let round = self.run_wave(&[&round], 0, &mut pushes).pop();
            report.absorb(&round.expect("one launch, one result")?);
            frontier = pushes;
        }
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

    /// The one door every `for` and reduce launch enters by: admit it,
    /// journal it, queue it.
    fn submit(
        &mut self,
        class: &str,
        body: CpuAddr,
        n: u32,
        target: Target,
        reduce: bool,
    ) -> Result<LaunchId, RuntimeError> {
        let construct = if reduce { Construct::Reduce } else { Construct::For };
        let launch = self.admit(class, body, n, target, construct)?;
        self.record_op(|| SessionOp::Launch { class: class.to_string(), body, n, target, reduce });
        let id = self.launch_graph.submit(launch);
        if self.tracer.enabled() {
            let args = vec![
                ("launch", (id.0 as i64).into()),
                ("kernel", class.into()),
                ("n", i64::from(n).into()),
            ];
            self.tracer.instant(Track::Sched, "submit", args);
        }
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
        let conv = convention(kind);
        let summary = &self.facts.report(func, conv).access;
        if summary.opaque {
            return Footprint::opaque();
        }
        let Some((body_lo, body_hi)) = self.heap.block_range(body) else {
            return Footprint::opaque();
        };
        let mut ranges = Vec::with_capacity(summary.records.len() + 2);
        // Every launch reads its body block (the runtime passes it to the
        // kernel); a reduction also stages copies from it and joins the
        // partials back into it.
        ranges.push(FootRange { lo: body_lo, hi: body_hi, mode: AccessMode::Read });
        if conv.0 == AnalysisMode::Reduce {
            ranges.push(FootRange { lo: body_lo, hi: body_hi, mode: AccessMode::Write });
        }
        for r in &summary.records {
            let Some((base_ptr, block_lo, block_hi)) =
                resolve_base(&self.heap, &self.region, r.base, body, (body_lo, body_hi))
            else {
                return Footprint::opaque();
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
        loop {
            if let Some(result) = self.finished.remove(&id.0) {
                return result;
            }
            if !self.launch_graph.has(id.0) {
                return Err(RuntimeError::UnknownLaunch(id));
            }
            self.drain_one_wave();
        }
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
    /// the kernel carries a cross-item read hazard (CA108). Gated kernels
    /// (which run in order anyway) and worklist rounds (exempt) never
    /// count. Zero when the session never executed through
    /// [`Target::Native`].
    #[must_use]
    pub fn native_hazard_serialized(&self) -> u64 {
        self.hazard_serialized
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

    /// Replay a recorded op stream, completing each launch as it is
    /// submitted — the reference execution the graph replay must match
    /// byte for byte. Returns one result per recorded launch, in order
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
        self.replay(ops, false)
    }

    /// Replay a recorded op stream through the launch graph: launches
    /// are left pending so independent ones can wave together; a host
    /// write or free first drains every pending launch touching the
    /// affected bytes (the recorded happens-before edge); everything left
    /// drains at the end. Returns one result per recorded launch, in
    /// submission order — byte-comparable against
    /// [`Concord::replay_serial`] on a fresh context.
    ///
    /// # Errors
    ///
    /// Same as [`Concord::replay_serial`].
    pub fn replay_graph(
        &mut self,
        ops: &[SessionOp],
    ) -> Result<Vec<Result<OffloadReport, RuntimeError>>, RuntimeError> {
        self.replay(ops, true)
    }

    /// The one session walker: every launch is submitted, and completed
    /// at once unless `defer` leaves it to the host ops that touch it and
    /// the final drain.
    fn replay(
        &mut self,
        ops: &[SessionOp],
        defer: bool,
    ) -> Result<Vec<Result<OffloadReport, RuntimeError>>, RuntimeError> {
        // A worklist construct is internally iterative and blocking, so
        // its result is ready at once; `Pending` slots resolve after the
        // final drain.
        enum Slot {
            Pending(LaunchId),
            Done(Result<OffloadReport, RuntimeError>),
        }
        let mut slots: Vec<Slot> = Vec::new();
        for op in ops {
            match op {
                SessionOp::Malloc { bytes, addr } => self.replay_malloc(*bytes, *addr)?,
                SessionOp::Free { addr } => self.free(*addr)?,
                SessionOp::Write { addr, bytes } => {
                    self.complete_touching(*addr, bytes.len() as u64);
                    self.region
                        .write_bytes(*addr, concord_ir::types::AddrSpace::Cpu, bytes)
                        .map_err(RuntimeError::Trap)?;
                }
                SessionOp::Launch { class, body, n, target, reduce } => {
                    slots.push(match self.submit(class, *body, *n, *target, *reduce) {
                        Ok(id) if defer => Slot::Pending(id),
                        submitted => Slot::Done(submitted.and_then(|id| self.complete(id))),
                    });
                }
                SessionOp::Worklist { class, body, seed, target } => {
                    // Drains every pending launch first (rounds are
                    // serially dependent), preserving recorded order.
                    slots.push(Slot::Done(
                        self.parallel_worklist_hetero(class, *body, seed, *target)
                            .map(|w| w.offload),
                    ));
                }
            }
        }
        self.complete_all();
        let results = slots.into_iter().map(|slot| match slot {
            Slot::Pending(id) => self.complete(id),
            Slot::Done(r) => r,
        });
        Ok(results.collect())
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

    /// Decide how many launches from the front of the queue wave
    /// together, and count the conflict stalls and coalesced members the
    /// decision observed.
    fn plan_wave(&self) -> WavePlan {
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
        let mut wave = WavePlan { len: 1, stalls: 0, coalesced: 0 };
        let Some(p0) = q.front() else {
            return wave;
        };
        // A CPU-targeted and a GPU-targeted `parallel_for` with provably
        // disjoint footprints execute concurrently. Only explicit
        // `Cpu`/`Gpu` targets qualify: `Auto`/`Hybrid` plans read profile
        // history mutated by earlier launches, so their plans must be
        // computed in submission order (solo waves).
        if let Some(p1) = q.get(1) {
            if pair_ok(p0, p1) {
                match p0.launch.footprint.conflict(&p1.launch.footprint) {
                    Conflict::Independent => {
                        wave.len = 2;
                        return wave;
                    }
                    Conflict::Coalesce | Conflict::Order => wave.stalls += 1,
                }
            }
        }
        // Consecutive GPU-targeted `parallel_for`s whose pairwise
        // conflicts are at worst Coalesce run back to back under ONE
        // fence pair — execution order is still submission order, so the
        // batch is trivially byte-identical; only fence accounting
        // changes (counted as elisions).
        if batch_ok(p0) {
            'grow: while let Some(pk) = q.get(wave.len) {
                if !batch_ok(pk) {
                    break;
                }
                let mut saw_coalesce = false;
                for member in q.iter().take(wave.len) {
                    match member.launch.footprint.conflict(&pk.launch.footprint) {
                        Conflict::Order => {
                            wave.stalls += 1;
                            break 'grow;
                        }
                        Conflict::Coalesce => saw_coalesce = true,
                        Conflict::Independent => {}
                    }
                }
                wave.coalesced += u64::from(saw_coalesce);
                wave.len += 1;
            }
        }
        wave
    }

    /// Execute the next wave from the queue front and store its results.
    fn drain_one_wave(&mut self) {
        let plan = self.plan_wave();
        self.launch_graph.stats_mut().conflict_stalls += plan.stalls;
        let wave: Vec<graph::PendingLaunch> =
            (0..plan.len).map_while(|_| self.launch_graph.pop()).collect();
        let launches: Vec<&graph::Launch<'_>> = wave.iter().map(|p| &p.launch).collect();
        let results = self.run_wave(&launches, plan.coalesced, &mut Vec::new());
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

    /// The one routine that runs a wave — a solo construct on any
    /// target, a hybrid split, a worklist round, an overlap pair, or a GPU
    /// batch — returning one result per launch, in wave order.
    ///
    /// * Per launch, setup: plan the device split, then
    ///   [`Pipeline::setup`] (a reduction's partial slots in the wave's
    ///   one [`ScratchGuard`]). Every other fact a part runs under was
    ///   decided at admission and is read off the [`graph::Launch`].
    /// * Per wave: fence each device in once, prepare every part, stage
    ///   reduction slots, execute the parts, fence each device out once.
    /// * Per launch, finish: [`Pipeline::finish`] (final join, report).
    ///
    /// Four rules live here and nowhere else. *Fences:* a wave takes one
    /// fence pair per device, and every GPU-touching launch after the
    /// first counts one elided pair. *Staging:* every CPU-side reduction
    /// slot gets its body copy before any part executes. *Snapshot:* the
    /// parts execute against one snapshot of the region and commit in list
    /// order exactly when they span two devices and no member is gated or
    /// a worklist round; otherwise they run one after another. *Traps:* a
    /// trapped part stops the later parts of its own launch only — a
    /// serial caller continues past a failed construct too. A worklist
    /// round's pushes land in `pushes`, every part's segment in list
    /// order.
    #[allow(clippy::too_many_lines)]
    fn run_wave(
        &mut self,
        wave: &[&graph::Launch<'_>],
        coalesced: u64,
        pushes: &mut Vec<i32>,
    ) -> Vec<Result<OffloadReport, RuntimeError>> {
        let (results, serialized, overlapped, elided) = self.pipeline(|p, heap| {
            let mut members: Vec<Member<'_>> = wave
                .iter()
                .map(|l| {
                    let plan = scheduler::plan(l.target, l.n, l.gpu_allowed, p.profile, &l.class);
                    Member { plan, parts: Vec::new(), slots: &[], failed: None }
                })
                .collect();
            let tracer = p.ctx.tracer;
            let mut sp = if let ([l], [Member { plan, .. }]) = (wave, members.as_slice()) {
                let label = match plan.parts.as_slice() {
                    [(Device::Gpu, _)] => "gpu",
                    [(Device::Cpu, _)] if l.target == Target::Native => "native",
                    [(Device::Cpu, _)] => "cpu",
                    _ => "hybrid",
                };
                let sp = tracer.span_with(
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
                sp
            } else {
                tracer.span_with(
                    Track::Sched,
                    "wave",
                    vec![
                        ("launches", (wave.len() as i64).into()),
                        ("coalesced", (coalesced as i64).into()),
                    ],
                )
            };

            // Per launch, setup; then each part takes its share of the
            // wave's scratch.
            let mut scratch = ScratchGuard::new(heap);
            let setups: Vec<_> =
                wave.iter().zip(&members).map(|(l, m)| p.setup(&mut scratch, l, &m.plan)).collect();
            let mut free = scratch.slots();
            for ((l, m), setup) in wave.iter().zip(&mut members).zip(setups) {
                let counts = match setup {
                    Ok(counts) => counts,
                    Err(e) => {
                        m.failed = Some(e);
                        continue;
                    }
                };
                (m.slots, free) = free.split_at(counts.iter().sum());
                let mut own = m.slots;
                for (&(device, span), count) in m.plan.parts.iter().zip(counts) {
                    let device = device_class(l, device);
                    let kind = match l.kind {
                        WorkKind::Reduce { join, body_size, .. } => {
                            let (slots, rest) = own.split_at(count);
                            own = rest;
                            WorkKind::Reduce { join, body_size, slots }
                        }
                        kind => kind,
                    };
                    let in_order = l.gated.on(device) || l.hazard;
                    let body_invariant = l.body_invariant;
                    let work = Work { func: l.func, body: l.body, kind, in_order, body_invariant };
                    let stats = LaunchStats::default();
                    m.parts.push(Part { device, work, span, jit: 0.0, stats });
                }
            }

            // Per wave: fence each device in once, prepare every part.
            let devices = [DeviceClass::Gpu, DeviceClass::Cpu, DeviceClass::Native]
                .map(|d| members.iter().flat_map(|m| &m.parts).any(|q| q.device == d).then_some(d));
            for &device in devices.iter().flatten() {
                let (backend, ctx) = p.on(device);
                backend.fence_in(ctx);
            }
            for (l, m) in wave.iter().zip(&mut members) {
                let prepared = m.parts.iter_mut().try_for_each(|q| {
                    let (backend, ctx) = p.on(q.device);
                    q.jit = backend.prepare(ctx, &l.class, &q.work)?;
                    Ok(())
                });
                m.failed = m.failed.take().or(prepared.err());
            }
            // A reduction is a solo wave, so every slot copies the body as
            // it was before the launch.
            for m in members.iter_mut().filter(|m| m.failed.is_none()) {
                for q in m.parts.iter().filter(|q| q.device != DeviceClass::Gpu) {
                    if let WorkKind::Reduce { body_size, slots, .. } = q.work.kind {
                        if let Err(trap) = stage_reduce(p.ctx.region, q.work.body, body_size, slots)
                        {
                            m.failed = Some(trap.into());
                        }
                    }
                }
            }
            let ran = wave.iter().zip(&members).filter(|(l, m)| l.hazard && m.failed.is_none());
            let serialized = ran.count() as u64;
            let snapshot = devices.iter().flatten().count() == 2
                && wave
                    .iter()
                    .all(|l| !l.gated.any() && !matches!(l.kind, WorkKind::Worklist { .. }));
            let (mut cpu_pending, mut gpu_pending) = (None, None);
            if snapshot {
                let live = members.iter().filter(|m| m.failed.is_none());
                let live: Vec<&Part<'_>> = live.flat_map(|m| &m.parts).collect();
                (cpu_pending, gpu_pending) = p.execute(&live);
            }
            // Commit each part in list order (or, without a snapshot,
            // launch it). A trap ends its own launch's parts, and only
            // those.
            for m in &mut members {
                for q in &mut m.parts {
                    if m.failed.is_some() {
                        break;
                    }
                    let r = match (snapshot, q.device) {
                        (true, DeviceClass::Gpu) => {
                            let pending = gpu_pending.take().expect("one GPU part");
                            p.gpu.commit(&mut p.ctx, &q.work, q.span, pending, pushes)
                        }
                        (true, _) => {
                            let pending = cpu_pending.take().expect("one CPU part");
                            p.cpu.commit(&mut p.ctx, &q.work, q.span, pending, pushes)
                        }
                        (false, device) => {
                            let (backend, ctx) = p.on(device);
                            backend.launch(ctx, &q.work, q.span, pushes)
                        }
                    };
                    match r {
                        Ok(stats) => q.stats = stats,
                        Err(trap) => m.failed = Some(trap.into()),
                    }
                }
            }
            // Unpin before reporting any trap, so the region is never left
            // fenced-for-GPU by a failed construct.
            for &device in devices.iter().flatten() {
                let (backend, ctx) = p.on(device);
                backend.fence_out(ctx);
            }
            let parts = members.iter().flat_map(|m| &m.parts);
            let gpu_launches = parts.filter(|q| q.device == DeviceClass::Gpu).count();
            let elided = (gpu_launches as u64).saturating_sub(1);
            p.ctx.region.note_fences_elided(elided);

            // Per launch, finish.
            let results: Vec<_> = wave
                .iter()
                .zip(&mut members)
                .map(|(l, m)| match m.failed.take() {
                    Some(e) => Err(e),
                    None => p.finish(l, m),
                })
                .collect();
            let overlapped = u64::from(snapshot && wave.len() > 1);
            match results.as_slice() {
                [Ok(report)] => sp.arg("seconds", report.total_seconds()),
                [_] => {}
                _ => {
                    sp.arg("overlapped", overlapped as i64);
                    sp.arg("fences_elided", elided as i64);
                }
            }
            (results, serialized, overlapped, elided)
        });
        self.hazard_serialized += serialized;
        let st = self.launch_graph.stats_mut();
        st.overlapped += overlapped;
        st.coalesced += coalesced;
        st.fences_elided += elided;
        results
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
            (r, bytes, cc.profile().is_empty())
        };
        let (rn, native_bytes, unprofiled) = run(Target::Native);
        let (_, cpu_bytes, _) = run(Target::Cpu);
        assert_eq!(native_bytes, cpu_bytes, "native must write the same region bytes");
        assert!(!rn.on_gpu);
        assert!(!rn.fell_back, "native never counts as a fallback");
        assert!(rn.insts > 0);
        assert!(rn.joules > 0.0, "native launches meter CPU energy");
        assert!(unprofiled, "native launches leave the profile history empty");
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
    fn scratch_that_does_not_fit_fails_the_launch_and_frees_what_it_took() {
        let opts = Options { region_bytes: 1 << 16, ..Options::default() };
        let mut cc = Concord::new(SystemConfig::ultrabook(), SUM, opts).unwrap();
        let data = cc.malloc(64 * 4).unwrap();
        let body = cc.malloc(16).unwrap();
        cc.region_mut().write_ptr(body, data).unwrap();
        // Fill the heap with body-sized blocks, then give one back: the
        // first per-core partial slot fits, the second does not.
        let mut fill = Vec::new();
        while let Ok(block) = cc.malloc(16) {
            fill.push(block);
        }
        cc.free(fill.pop().unwrap()).unwrap();
        let free_before = cc.heap_free_bytes();
        let err = cc.parallel_reduce_hetero("Sum", body, 64, Target::Cpu).unwrap_err();
        assert!(matches!(err, RuntimeError::Alloc(_)), "{err:?}");
        assert_eq!(cc.heap_free_bytes(), free_before, "the slot that fitted leaked");
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
    fn warn_gate_still_launches_racy_kernel() {
        let (mut cc, body) = racy_context(AnalysisGate::Warn);
        cc.parallel_for_hetero("RacyHistogram", body, 16, Target::Cpu)
            .unwrap_or_else(|e| panic!("Warn gate must not block: {e}"));
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
    fn a_blocking_launch_may_join_the_last_pending_wave() {
        let (mut serial, sa, sab, sb, sbb) = fig1_context(1);
        serial.parallel_for_hetero("LoopBody", sab, 100, Target::Gpu).unwrap();
        let want = serial.parallel_for_hetero("LoopBody", sbb, 100, Target::Gpu).unwrap();

        let (mut cc, a, ab, b, bb) = fig1_context(1);
        let pending = cc.submit_for("LoopBody", ab, 100, Target::Gpu).unwrap();
        let got = cc.parallel_for_hetero("LoopBody", bb, 100, Target::Gpu).unwrap();
        assert_reports_eq(&got, &want, "blocking launch behind a pending one");
        assert!(cc.complete(pending).is_ok());
        assert_eq!(nodes_bytes(&cc, a), nodes_bytes(&serial, sa));
        assert_eq!(nodes_bytes(&cc, b), nodes_bytes(&serial, sb));
        assert_eq!(cc.graph_stats().fences_elided, 1, "the two launches share one fence pair");
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

    /// Traps with `DivideByZero` at exactly the items whose `data` is 0.
    const DIV: &str = r#"
        class Div {
        public:
            int* data; int* out;
            void operator()(int i) { out[i] = 100 / data[i]; }
        };
    "#;

    /// A `Div` body over 64 items whose `data` is 0 only at `zero`, with
    /// every `out` byte preset to -1. Returns the body and `out`.
    fn div_body(cc: &mut Concord, zero: Option<u64>) -> (CpuAddr, CpuAddr) {
        let data = cc.malloc(64 * 4).unwrap();
        let out = cc.malloc(64 * 4).unwrap();
        for i in 0..64u64 {
            let d = if Some(i) == zero { 0 } else { (i % 5 + 1) as i32 };
            cc.region_mut().write_i32(CpuAddr(data.0 + i * 4), d).unwrap();
            cc.region_mut().write_i32(CpuAddr(out.0 + i * 4), -1).unwrap();
        }
        let body = cc.malloc(16).unwrap();
        cc.region_mut().write_ptr(body, data).unwrap();
        cc.region_mut().write_ptr(body.offset(8), out).unwrap();
        (body, out)
    }

    fn div_out(cc: &Concord, out: CpuAddr) -> Vec<i32> {
        (0..64u64).map(|i| cc.region().read_i32(CpuAddr(out.0 + i * 4)).unwrap()).collect()
    }

    #[test]
    fn a_trapped_part_stops_only_its_own_launch() {
        let hybrid = Target::Hybrid { gpu_fraction: 0.5 };
        let healthy: Vec<i32> = (0..64).map(|i| 100 / (i % 5 + 1)).collect();
        let divide_by_zero = |r: Result<OffloadReport, RuntimeError>| {
            matches!(r, Err(RuntimeError::Trap(Trap::DivideByZero)))
        };
        for ht in [1usize, 8] {
            let opts = Options { host_threads: Some(ht), ..Options::default() };
            let mut cc = Concord::new(SystemConfig::ultrabook(), DIV, opts).unwrap();
            // (a) The GPU half [0, 32) commits first and traps: the CPU
            // half of the same launch commits nothing.
            let (body, out) = div_body(&mut cc, Some(5));
            assert!(divide_by_zero(cc.parallel_for_hetero("Div", body, 64, hybrid)), "ht={ht}");
            assert_eq!(div_out(&cc, out)[32..], [-1; 32], "(a) CPU half written, ht={ht}");
            // (b) The CPU half [32, 64) traps: the GPU half keeps its bytes.
            let (body, out) = div_body(&mut cc, Some(40));
            assert!(divide_by_zero(cc.parallel_for_hetero("Div", body, 64, hybrid)), "ht={ht}");
            assert_eq!(div_out(&cc, out)[..32], healthy[..32], "(b) GPU half lost, ht={ht}");
            // (c) An overlap pair whose first launch traps: the second
            // launch is another construct, so it still commits.
            let (bad, _) = div_body(&mut cc, Some(3));
            let (good, out) = div_body(&mut cc, None);
            let bad = cc.submit_for("Div", bad, 64, Target::Cpu).unwrap();
            let good = cc.submit_for("Div", good, 64, Target::Gpu).unwrap();
            cc.complete_all();
            assert_eq!(cc.graph_stats().overlapped, 1, "(c) the launches must pair, ht={ht}");
            assert!(divide_by_zero(cc.complete(bad)), "ht={ht}");
            assert!(cc.complete(good).is_ok(), "ht={ht}");
            assert_eq!(div_out(&cc, out), healthy, "(c) second launch lost, ht={ht}");
            assert!(!cc.region().consistency().pinned, "ht={ht}");
        }
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

    fn whole_region(cc: &Concord) -> Vec<u8> {
        let cap = cc.region().capacity();
        let bytes =
            cc.region().read_bytes(concord_svm::CPU_BASE, concord_ir::types::AddrSpace::Cpu, cap);
        bytes.unwrap().to_vec()
    }

    #[test]
    fn a_recorded_session_replays_its_submitted_launches() {
        let (mut cc, a, ab, ..) = fig1_context(1);
        cc.record_session(true);
        let id = cc.submit_for("LoopBody", ab, 100, Target::Cpu).unwrap();
        cc.complete_all();
        cc.complete(id).unwrap();
        cc.region_mut().write_i64(a.offset(8), 7).unwrap();
        let ops = cc.take_session();
        let (mut replayed, ..) = fig1_context(1);
        replayed.replay_serial(&ops).unwrap();
        assert!(whole_region(&replayed) == whole_region(&cc), "the submitted launch was lost");
    }

    #[test]
    fn free_orders_after_pending_launches_that_touch_the_block() {
        let (mut cc, a, ab, ..) = fig1_context(1);
        cc.submit_for("LoopBody", ab, 100, Target::Cpu).unwrap();
        cc.free(a).unwrap();
        let again = cc.malloc(101 * 8).unwrap();
        assert_eq!(again, a, "the allocator reuses the freed block");
        let host = vec![0xab; 101 * 8];
        cc.region_mut().write_bytes(again.0, concord_ir::types::AddrSpace::Cpu, &host).unwrap();
        cc.complete_all();
        assert_eq!(nodes_bytes(&cc, again), host, "the pending launch wrote over the host data");
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
        // The frontier lives on the host: a drain allocates nothing in the
        // region and writes nothing there but the kernel's own stores.
        let region = |cc: &Concord| {
            let len = cc.region().capacity();
            cc.region()
                .read_bytes(concord_svm::CPU_BASE, concord_ir::types::AddrSpace::Cpu, len)
                .unwrap()
                .to_vec()
        };
        for target in [Target::Hybrid { gpu_fraction: 0.5 }, Target::Native] {
            let (mut cc, dist, body) = chain_context(8);
            let (before, free) = (region(&cc), cc.heap_free_bytes());
            cc.parallel_worklist_hetero("Chain", body, &[0], target).unwrap();
            let after = region(&cc);
            let lo = (dist.0 - concord_svm::CPU_BASE) as usize;
            let hi = lo + 10 * 4;
            assert!(before[..lo] == after[..lo], "{target}: a region byte below `dist` changed");
            assert!(before[hi..] == after[hi..], "{target}: a region byte above `dist` changed");
            assert_ne!(before[lo..hi], after[lo..hi], "{target}: the kernel wrote `dist`");
            assert_eq!(cc.heap_free_bytes(), free, "{target}: the drain allocated");
        }
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
        // Round writes must not leak into the journal as raw writes: the
        // one recorded write is the host's own.
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
    fn analyze_kernel_reports_the_access_summary() {
        let mut cc = Concord::new(SystemConfig::ultrabook(), FIG1, Options::default()).unwrap();
        let s = cc.analyze_kernel("LoopBody", AnalysisMode::For).unwrap().access;
        assert!(!s.opaque);
        assert_eq!(
            s.mode_of(concord_analyze::AccessBase::Field { offset: 0 }),
            Some(AccessMode::Write)
        );
        assert_eq!(s, cc.analyze_kernel("LoopBody", AnalysisMode::For).unwrap().access);
    }
}
