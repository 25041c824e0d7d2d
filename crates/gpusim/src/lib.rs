//! # concord-gpusim
//!
//! SIMT integrated-GPU simulator for the Concord reproduction: execution
//! units with multiple hardware-thread slots, 16-wide SIMD warps with
//! divergence handling, a memory system with coalescing, latency hiding,
//! and a shared non-banked L3 that exhibits the cross-EU same-line
//! contention §4.2 optimizes against.
//!
//! The simulator executes the *GPU-lowered* IR (after devirtualization and
//! SVM pointer-translation lowering); dereferencing an untranslated
//! CPU-space pointer faults, so compiler bugs surface as traps, exactly
//! like on the real hardware.

pub mod l3;
pub mod warp;

pub use l3::{GpuL3, L3Access};
pub use warp::{
    active, gpu_classify, GpuSpace, Lane, LogItem, Mask, MetaCache, Warp, WarpTiming, LOCAL_BASE,
    TRACE_SAMPLE_EVERY,
};

use concord_cpusim::interp::{PrivateMem, WorkIds};
use concord_energy::GpuConfig;
use concord_ir::analysis::uses_gated_ops;
use concord_ir::eval::{Trap, Value};
use concord_ir::types::AddrSpace;
use concord_ir::{FuncId, Module};
use concord_svm::{
    apply_log, CpuAddr, MemOp, RegionMem, ShadowRegion, SharedRegion, Span, Work, WorkKind,
};
use concord_trace::{Tracer, Track};
use std::sync::Mutex;
use warp::sampled;

/// Result of one GPU kernel launch.
#[derive(Debug, Clone, Copy, Default)]
pub struct GpuReport {
    /// Kernel wall-clock seconds (critical EU path + launch overhead).
    pub seconds: f64,
    /// Cycles of the busiest EU.
    pub critical_cycles: f64,
    /// Fraction of occupied-EU time spent issuing (0–1); drives the
    /// GPU active-power estimate.
    pub busy_fraction: f64,
    /// Total warp-instructions issued.
    pub insts: u64,
    /// Pointer translations executed.
    pub translations: u64,
    /// Shared-memory transactions.
    pub transactions: u64,
    /// Contended transactions (same line, different EU, same wave).
    pub contended: u64,
    /// L3 hit rate for the launch.
    pub l3_hit_rate: f64,
    /// Number of warps executed.
    pub warps: u64,
}

/// Outcome of one executed-but-uncommitted warp.
struct WarpOut {
    /// Issue + private/local stall; L3 stall is added at commit.
    timing: WarpTiming,
    /// Deferred L3 accesses and sampled trace events.
    log: Vec<LogItem>,
    /// Shared-memory write log (empty on the serial path).
    mem_log: Vec<MemOp>,
    /// First trap hit by this warp, if any.
    trap: Option<Trap>,
    /// Next-frontier push segment in (lane-step, lane) order; empty
    /// outside worklist launches.
    pushes: Vec<i32>,
}

/// An executed-but-uncommitted GPU launch: per-warp timing, L3/trace
/// logs, and shared-memory write logs, produced by [`GpuSim::execute`]
/// (possibly on many host threads) and merged in fixed warp order by
/// [`GpuSim::commit`], so results are byte-identical for every
/// host-thread count.
pub struct GpuPending {
    warps: Vec<WarpOut>,
    hiding: f64,
}

/// The GPU simulator: owns the L3 and drives warps over the grid.
pub struct GpuSim {
    cfg: GpuConfig,
    l3: GpuL3,
    /// Per-warp-item instruction budget (runaway-loop guard).
    pub step_budget_per_warp: u64,
    /// OS threads used to execute warps. Purely a wall-clock knob:
    /// simulated timing and results are identical for every value.
    pub host_threads: usize,
    tracer: Tracer,
    /// Monotonic device clock: accumulates critical cycles across launches
    /// so trace timestamps from successive launches never overlap.
    device_clock: u64,
}

impl GpuSim {
    /// Build a simulator for a GPU configuration.
    pub fn new(cfg: GpuConfig) -> Self {
        GpuSim {
            l3: GpuL3::new(cfg.l3_bytes, 64),
            cfg,
            step_budget_per_warp: 400_000_000,
            host_threads: 1,
            tracer: Tracer::disabled(),
            device_clock: 0,
        }
    }

    /// The configuration this simulator models.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Attach a tracer; warps emit sampled divergence/memory events and each
    /// launch records summary counters on [`Track::GpuSim`].
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Lanes for warp `w` covering global ids `base + lane` within the
    /// active range `[.., hi)` of a `[0, grid)` iteration space.
    fn make_lanes(&self, w: u64, base: u64, hi: u32, grid: u32, width: u32) -> (Vec<Lane>, Mask) {
        let mut lanes = Vec::with_capacity(width as usize);
        let mut mask: Mask = 0;
        for l in 0..width {
            let gid = base + l as u64;
            if gid < hi as u64 {
                mask |= 1 << l;
            }
            lanes.push(Lane {
                private: PrivateMem::new(self.cfg.private_bytes),
                ids: WorkIds {
                    global: gid as i64,
                    local: l as i64,
                    group: w as i64,
                    size: grid as i64,
                },
            });
        }
        (lanes, mask)
    }

    fn finish_report(
        &mut self,
        eu_cycles: &[f64],
        eu_issue: &[f64],
        totals: WarpTiming,
        warps: u64,
    ) -> GpuReport {
        let critical = eu_cycles.iter().copied().fold(0.0, f64::max);
        let total_busy: f64 = eu_issue.iter().sum();
        let total_time: f64 = eu_cycles.iter().sum();
        let busy_fraction = if total_time > 0.0 { (total_busy / total_time).min(1.0) } else { 0.0 };
        let report = GpuReport {
            seconds: critical / (self.cfg.freq_ghz * 1e9) + self.cfg.launch_us * 1e-6,
            critical_cycles: critical,
            busy_fraction,
            insts: totals.insts,
            translations: totals.translations,
            transactions: totals.transactions,
            contended: totals.contended,
            l3_hit_rate: self.l3.hit_rate(),
            warps,
        };
        self.device_clock += report.critical_cycles as u64 + 1;
        if self.tracer.enabled() {
            let ts = self.device_clock;
            self.tracer.instant_at(
                Track::GpuSim,
                "launch_done",
                ts,
                vec![
                    ("warps", report.warps.into()),
                    ("insts", report.insts.into()),
                    ("transactions", report.transactions.into()),
                    ("contended", report.contended.into()),
                    ("translations", report.translations.into()),
                ],
            );
            self.tracer.counter_at(Track::GpuSim, "l3_hit_rate", ts, report.l3_hit_rate);
            self.tracer.counter_at(Track::GpuSim, "busy_fraction", ts, report.busy_fraction);
            self.tracer.counter_at(Track::GpuSim, "insts", ts, report.insts as f64);
        }
        report
    }

    /// Launch `parallel_for_hetero(n, body)` on the GPU: work-item `i`
    /// executes `func(body, i)` in a SIMD lane. A convenience over
    /// [`GpuSim::launch`].
    ///
    /// # Errors
    ///
    /// Any [`Trap`]: missing translations, faults, runaway loops.
    pub fn parallel_for(
        &mut self,
        region: &mut SharedRegion,
        module: &Module,
        func: FuncId,
        body: CpuAddr,
        n: u32,
    ) -> Result<GpuReport, Trap> {
        let gated = uses_gated_ops(module, &[func]);
        let work = Work { func, body, kind: WorkKind::For, gated };
        self.launch(region, module, &work, Span::full(n), &mut Vec::new())
    }

    /// Launch `parallel_reduce_hetero(n, body)` on the GPU, leaving one
    /// partial per warp in `scratch` for the caller to join on the host.
    /// A convenience over [`GpuSim::launch`].
    ///
    /// # Errors
    ///
    /// Any [`Trap`].
    #[allow(clippy::too_many_arguments)]
    pub fn parallel_reduce(
        &mut self,
        region: &mut SharedRegion,
        module: &Module,
        func: FuncId,
        join: FuncId,
        body: CpuAddr,
        body_size: u64,
        n: u32,
        scratch: &[CpuAddr],
    ) -> Result<GpuReport, Trap> {
        let gated = uses_gated_ops(module, &[func, join]);
        let kind = WorkKind::Reduce { join, body_size, slots: scratch };
        let work = Work { func, body, kind, gated };
        self.launch(region, module, &work, Span::full(n), &mut Vec::new())
    }

    /// Warp count and latency-hiding factor for `work` over `span`.
    ///
    /// # Panics
    ///
    /// On a reduction with fewer slots than warps or body copies that
    /// exceed local memory, and on a worklist round whose frontier is not
    /// `span.grid` long.
    fn geometry(&self, work: &Work<'_>, span: Span) -> (u64, f64) {
        let warps = u64::from(span.items()).div_ceil(self.cfg.simd_width as u64);
        let eus = self.cfg.eus as usize;
        let hiding = (warps as f64 / eus as f64).clamp(1.0, self.cfg.threads_per_eu as f64);
        match work.kind {
            WorkKind::Reduce { body_size, slots, .. } => {
                assert!(
                    slots.len() as u64 >= warps,
                    "need one scratch slot per warp ({warps}), got {}",
                    slots.len()
                );
                assert!(
                    body_size * self.cfg.simd_width as u64 <= self.cfg.local_bytes,
                    "body copies exceed local memory; the runtime should have fallen back"
                );
            }
            WorkKind::Worklist { items } => {
                assert_eq!(items.len() as u32, span.grid, "one frontier item per work-item");
            }
            WorkKind::For => {}
        }
        (warps, hiding)
    }

    /// Run `work` over `span`: work-item `i` executes in a SIMD lane of
    /// warp `(i - span.lo) / simd_width`, and a worklist round's pushes
    /// are appended to `pushes` in fixed (warp, lane) order. A reduction
    /// (§3.3) has each lane copy the body into private memory, run
    /// `operator()` on the copy, move it to work-group local memory, and
    /// tree-reduce the warp's copies with `join`; lane 0's result lands in
    /// the warp's slot for the caller to join on the host.
    ///
    /// Gated kernels (order-dependent operations) run their warps in
    /// order against the live region, each committing immediately;
    /// everything else is [`GpuSim::execute`] followed by
    /// [`GpuSim::commit`].
    ///
    /// # Errors
    ///
    /// Any [`Trap`]: missing translations, faults, runaway loops. A trap
    /// discards the round's pushes.
    pub fn launch(
        &mut self,
        region: &mut SharedRegion,
        module: &Module,
        work: &Work<'_>,
        span: Span,
        pushes: &mut Vec<i32>,
    ) -> Result<GpuReport, Trap> {
        if !work.gated {
            let pending = self.execute(region, module, work, span);
            return self.commit(region, pending, pushes);
        }
        let (warps, hiding) = self.geometry(work, span);
        let meta = Mutex::new(MetaCache::new());
        let mut merge = Merge::new(self, hiding);
        for w in 0..warps {
            let out = self.run_warp(region, module, &meta, work, span, w, hiding);
            merge.warp(self, region, w, out)?;
        }
        Ok(merge.finish(self, warps, pushes))
    }

    /// Execute the warps of `work` over `span` without committing: each
    /// warp runs against a snapshot of `region` with a private write-log,
    /// possibly on its own host thread. [`GpuSim::commit`] merges the logs
    /// back in warp order.
    pub fn execute(
        &self,
        region: &SharedRegion,
        module: &Module,
        work: &Work<'_>,
        span: Span,
    ) -> GpuPending {
        let (warps, hiding) = self.geometry(work, span);
        let meta = Mutex::new(MetaCache::new());
        let outs = concord_pool::map(self.host_threads, warps as usize, |w| {
            let mut shadow = ShadowRegion::new(region);
            let mut out = self.run_warp(&mut shadow, module, &meta, work, span, w as u64, hiding);
            out.mem_log = shadow.into_log();
            out
        });
        GpuPending { warps: outs, hiding }
    }

    /// Run warp `w` of `work` against `region` — live on the gated path, a
    /// snapshot under host parallelism (the caller collects its write
    /// log). L3 traffic and trace events are deferred to the returned log.
    #[allow(clippy::too_many_arguments)]
    fn run_warp<M: RegionMem>(
        &self,
        region: &mut M,
        module: &Module,
        meta: &Mutex<MetaCache>,
        work: &Work<'_>,
        span: Span,
        w: u64,
        hiding: f64,
    ) -> WarpOut {
        let width = self.cfg.simd_width;
        let eus = self.cfg.eus as u64;
        let base = span.lo as u64 + w * width as u64;
        let (lanes, mask) = self.make_lanes(w, base, span.hi, span.grid, width);
        let items = match work.kind {
            WorkKind::Worklist { items } => Some(items),
            _ => None,
        };
        let mut warp = Warp {
            module,
            region,
            cfg: &self.cfg,
            meta,
            lanes,
            local: vec![0; self.cfg.local_bytes as usize],
            eu: (w % eus) as u32,
            wave: (w / eus) as u32,
            timing: WarpTiming::default(),
            step_budget: self.step_budget_per_warp,
            hiding,
            trace_enabled: self.tracer.enabled(),
            log: Vec::new(),
            divergences: 0,
            reconvergences: 0,
            wl: items.map(|_| Vec::new()),
        };
        let res = if let WorkKind::Reduce { join, body_size, slots } = work.kind {
            let slot = slots[w as usize];
            reduce_warp_steps(&mut warp, work, join, body_size, base, span.hi, mask, width, slot)
        } else {
            // Lane `l` receives its work-item id, or its frontier item in
            // a worklist round; lanes beyond `hi` are masked off and get a
            // zero argument.
            let args: Vec<Vec<Value>> = (base..base + width as u64)
                .map(|i| {
                    let arg = items.map_or(i as i64, |items| {
                        i64::from(items.get(i as usize).copied().unwrap_or(0))
                    });
                    vec![Value::Ptr(work.body.0, AddrSpace::Cpu), Value::I(arg)]
                })
                .collect();
            // A gated worklist body reads values its own round already
            // wrote (cas-guarded pushes), so lanes run one at a time,
            // ascending, and see each other's effects exactly as the
            // cpusim/native serial paths do — lockstep lane loads would
            // observe stale values and drop relaxations.
            let mut run = |m: Mask| warp.exec_function(m, work.func, &args, 0).map(|_| ());
            let res = if work.gated && items.is_some() {
                active(mask, width as usize).try_for_each(|l| run(1 << l))
            } else {
                run(mask)
            };
            res.map_err(|t| t.with_kernel(&module.function(work.func).name))
        };
        WarpOut {
            timing: warp.timing,
            pushes: warp.wl.take().unwrap_or_default(),
            log: warp.log,
            mem_log: Vec::new(),
            trap: res.err(),
        }
    }

    /// Replay one warp's deferred L3 accesses and trace events against the
    /// shared L3 and the tracer, charging L3 stall into `timing`. Always
    /// called in warp order, so cache state and trace output are
    /// independent of how the warps were executed.
    fn replay_warp_log(
        &mut self,
        log: Vec<LogItem>,
        timing: &mut WarpTiming,
        eu: u32,
        wave: u32,
        hiding: f64,
    ) {
        let mut seq = 0u64;
        let mut l3_stall = 0.0f64;
        let mut accesses = 0u64;
        let mut contentions = 0u64;
        let clock_base = self.device_clock;
        let trace_on = self.tracer.enabled();
        for item in log {
            match item {
                LogItem::Access { lines, shared_lanes, ts_snap } => {
                    let n_lines = lines.len();
                    for line in lines {
                        let a = self.l3.access(line << 6, eu, wave, seq);
                        seq += 1;
                        timing.transactions += 1;
                        let base = if a.hit { self.cfg.l3_hit_cycles } else { self.cfg.mem_cycles };
                        l3_stall += base / hiding;
                        if a.contended {
                            l3_stall += self.cfg.contention_penalty;
                            timing.contended += 1;
                            if trace_on && sampled(&mut contentions) {
                                self.tracer.instant_at(
                                    Track::GpuSim,
                                    "l3_contention",
                                    clock_base + (ts_snap + l3_stall) as u64,
                                    vec![
                                        ("line", (line << 6).into()),
                                        ("eu", i64::from(eu).into()),
                                        ("wave", i64::from(wave).into()),
                                        ("count", contentions.into()),
                                    ],
                                );
                            }
                        }
                    }
                    if n_lines > 0 && trace_on && sampled(&mut accesses) {
                        self.tracer.instant_at(
                            Track::GpuSim,
                            "mem_access",
                            clock_base + (ts_snap + l3_stall) as u64,
                            vec![
                                ("lanes", (shared_lanes as i64).into()),
                                ("lines", (n_lines as i64).into()),
                                ("coalesced", (n_lines * 2 <= shared_lanes.max(1)).into()),
                                ("count", accesses.into()),
                            ],
                        );
                    }
                }
                LogItem::Event { name, ts_snap, args } => {
                    if trace_on {
                        self.tracer.instant_at(
                            Track::GpuSim,
                            name,
                            clock_base + (ts_snap + l3_stall) as u64,
                            args,
                        );
                    }
                }
            }
        }
        timing.stall += l3_stall;
    }

    /// Merge an executed launch back into the live region and the shared
    /// L3, in fixed warp order, appending each warp's push segment to
    /// `pushes`. On a trap, warps up to and including the lowest trapped
    /// warp are committed (their writes and L3 traffic — matching what
    /// the serial path would have left behind), that warp's trap — always
    /// the trap of the lowest trapping global work-item id — is returned,
    /// and nothing is appended to `pushes`: the runtime aborts the
    /// worklist round, so partial frontiers must not escape.
    ///
    /// # Errors
    ///
    /// The trap of the lowest trapped warp, if any.
    pub fn commit(
        &mut self,
        region: &mut SharedRegion,
        pending: GpuPending,
        pushes: &mut Vec<i32>,
    ) -> Result<GpuReport, Trap> {
        let warps = pending.warps.len() as u64;
        let mut merge = Merge::new(self, pending.hiding);
        for (w, out) in pending.warps.into_iter().enumerate() {
            merge.warp(self, region, w as u64, out)?;
        }
        Ok(merge.finish(self, warps, pushes))
    }
}

/// The in-warp-order merge of a launch's warps into the live region, the
/// shared L3, and the launch totals — the commit half of both execution
/// styles.
struct Merge {
    eu_cycles: Vec<f64>,
    eu_issue: Vec<f64>,
    totals: WarpTiming,
    pushes: Vec<i32>,
    hiding: f64,
}

impl Merge {
    fn new(sim: &mut GpuSim, hiding: f64) -> Merge {
        sim.l3.flush();
        let eus = sim.cfg.eus as usize;
        Merge {
            eu_cycles: vec![0.0; eus],
            eu_issue: vec![0.0; eus],
            totals: WarpTiming::default(),
            pushes: Vec::new(),
            hiding,
        }
    }

    /// Commit warp `w`: apply its write log, replay its L3 traffic and
    /// trace events, then surface its trap or fold in its timing.
    fn warp(
        &mut self,
        sim: &mut GpuSim,
        region: &mut SharedRegion,
        w: u64,
        out: WarpOut,
    ) -> Result<(), Trap> {
        let eus = sim.cfg.eus as u64;
        let (eu, wave) = ((w % eus) as u32, (w / eus) as u32);
        apply_log(region, &out.mem_log);
        let mut timing = out.timing;
        sim.replay_warp_log(out.log, &mut timing, eu, wave, self.hiding);
        if let Some(t) = out.trap {
            return Err(t);
        }
        self.pushes.extend(out.pushes);
        self.eu_cycles[eu as usize] += timing.issue + timing.stall;
        self.eu_issue[eu as usize] += timing.issue;
        self.totals.insts += timing.insts;
        self.totals.translations += timing.translations;
        self.totals.transactions += timing.transactions;
        self.totals.contended += timing.contended;
        Ok(())
    }

    fn finish(mut self, sim: &mut GpuSim, warps: u64, pushes: &mut Vec<i32>) -> GpuReport {
        pushes.append(&mut self.pushes);
        sim.finish_report(&self.eu_cycles, &self.eu_issue, self.totals, warps)
    }
}

/// The per-warp reduction sequence (§3.3): private body copies, the
/// operator, private → local copies, a tree reduction with `join`, and
/// lane 0's result into the warp's scratch slot.
#[allow(clippy::too_many_arguments)]
fn reduce_warp_steps<M: RegionMem>(
    warp: &mut Warp<'_, M>,
    work: &Work<'_>,
    join: FuncId,
    body_size: u64,
    base: u64,
    hi: u32,
    mask: Mask,
    width: u32,
    scratch_slot: CpuAddr,
) -> Result<(), Trap> {
    // 1. Private body copies. Reserve a pseudo-frame per lane.
    let mut priv_copy = vec![0u64; width as usize];
    for l in active(mask, width as usize) {
        let frame = warp.lanes[l].private.push_frame_public(body_size)?;
        let addr = concord_cpusim::PRIVATE_BASE + frame;
        priv_copy[l] = addr;
        warp.lane_memcpy(l, addr, work.body.to_gpu().0, body_size)?;
    }
    // 2. operator() on private copies.
    let args: Vec<Vec<Value>> = (0..width as usize)
        .map(|l| {
            vec![Value::Ptr(priv_copy[l], AddrSpace::Private), Value::I((base + l as u64) as i64)]
        })
        .collect();
    warp.exec_function(mask, work.func, &args, 0)
        .map_err(|t| t.with_kernel(&warp.module.function(work.func).name))?;
    // 3. Private → local.
    for l in active(mask, width as usize) {
        let local_slot = LOCAL_BASE + l as u64 * body_size;
        warp.lane_memcpy(l, local_slot, priv_copy[l], body_size)?;
    }
    // 4. Tree reduction in local memory.
    let lane_count = (hi as u64 - base).min(width as u64) as usize;
    let mut stride = (width / 2) as usize;
    while stride >= 1 {
        let mut jmask: Mask = 0;
        for l in 0..width as usize {
            if l < stride && l + stride < lane_count {
                jmask |= 1 << l;
            }
        }
        if jmask != 0 {
            let jargs: Vec<Vec<Value>> = (0..width as usize)
                .map(|l| {
                    vec![
                        Value::Ptr(LOCAL_BASE + l as u64 * body_size, AddrSpace::Local),
                        Value::Ptr(LOCAL_BASE + (l + stride) as u64 * body_size, AddrSpace::Local),
                    ]
                })
                .collect();
            warp.exec_function(jmask, join, &jargs, 0)
                .map_err(|t| t.with_kernel(&warp.module.function(join).name))?;
        }
        stride /= 2;
    }
    // 5. Lane 0's local copy → the warp's shared scratch slot.
    if lane_count > 0 {
        warp.lane_memcpy(0, scratch_slot.to_gpu().0, LOCAL_BASE, body_size)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use concord_compiler::{lower_for_gpu, GpuConfig as PipelineConfig};
    use concord_frontend::compile;
    use concord_svm::{SharedAllocator, VtableArea};

    fn gpu_module(src: &str, cfg: PipelineConfig) -> (Module, FuncId, Option<FuncId>) {
        let lp = compile(src).unwrap();
        assert!(lp.warnings.is_empty(), "{:?}", lp.warnings);
        let art = lower_for_gpu(&lp.module, cfg);
        let kf = art
            .module
            .functions
            .iter()
            .position(|f| f.kernel == Some(concord_ir::KernelKind::ForBody))
            .map(|i| FuncId(i as u32))
            .unwrap();
        let jf = art
            .module
            .functions
            .iter()
            .position(|f| f.kernel == Some(concord_ir::KernelKind::ReduceJoin))
            .map(|i| FuncId(i as u32));
        (art.module, kf, jf)
    }

    fn setup(module: &Module, capacity: u64) -> (SharedRegion, SharedAllocator) {
        let reserved = VtableArea::reserve_for(module.classes.len());
        let mut region = SharedRegion::new(capacity, reserved);
        let heap = SharedAllocator::new(&region);
        VtableArea::install(&mut region, module).unwrap();
        (region, heap)
    }

    const FIG1: &str = r#"
        struct Node { Node* next; };
        class LoopBody {
        public:
            Node* nodes;
            void operator()(int i) { nodes[i].next = &(nodes[i+1]); }
        };
    "#;

    #[test]
    fn figure1_runs_on_gpu_with_all_strategies() {
        for cfg in [
            PipelineConfig::baseline(7),
            PipelineConfig::ptropt(7),
            PipelineConfig::l3opt(7),
            PipelineConfig::all(7),
        ] {
            let (module, kf, _) = gpu_module(FIG1, cfg);
            let (mut region, mut heap) = setup(&module, 1 << 20);
            let n = 100u32;
            let nodes = heap.malloc((n as u64 + 1) * 8).unwrap();
            let body = heap.malloc(8).unwrap();
            region.write_ptr(body, nodes).unwrap();
            let mut sim = GpuSim::new(concord_energy::SystemConfig::ultrabook().gpu);
            let r = sim.parallel_for(&mut region, &module, kf, body, n).unwrap();
            for i in 0..n as u64 {
                let next = region.read_ptr(CpuAddr(nodes.0 + i * 8)).unwrap();
                assert_eq!(next.0, nodes.0 + (i + 1) * 8, "under {cfg:?}");
            }
            assert!(r.seconds > 0.0);
            assert!(r.translations > 0, "GPU code must translate pointers");
        }
    }

    #[test]
    fn eager_strategy_stores_cpu_representation() {
        // Figure 1 stores pointer *values*; eager translation converts them
        // back to CPU representation before the store (the §4.1 wasted
        // work). The stored bytes must still be CPU-space pointers.
        use concord_compiler::Strategy;
        let cfg = PipelineConfig { strategy: Strategy::Eager, l3opt: false, gpu_cores: 7 };
        let (module, kf, _) = gpu_module(FIG1, cfg);
        let (mut region, mut heap) = setup(&module, 1 << 20);
        let n = 48u32;
        let nodes = heap.malloc((n as u64 + 1) * 8).unwrap();
        let body = heap.malloc(8).unwrap();
        region.write_ptr(body, nodes).unwrap();
        let mut sim = GpuSim::new(concord_energy::SystemConfig::ultrabook().gpu);
        let r = sim.parallel_for(&mut region, &module, kf, body, n).unwrap();
        for i in 0..n as u64 {
            let next = region.read_ptr(CpuAddr(nodes.0 + i * 8)).unwrap();
            assert_eq!(next.0, nodes.0 + (i + 1) * 8, "stored pointer must be CPU-space");
        }
        // Eager executes both directions of translation.
        assert!(r.translations > 0);
    }

    #[test]
    fn untranslated_code_faults_on_gpu() {
        // Running the CPU module (no SVM lowering) on the GPU must trap
        // with a wrong-address-space fault — the SVM invariant check.
        let lp = compile(FIG1).unwrap();
        let k = lp.kernel("LoopBody").unwrap();
        let (mut region, mut heap) = setup(&lp.module, 1 << 20);
        let nodes = heap.malloc(101 * 8).unwrap();
        let body = heap.malloc(8).unwrap();
        region.write_ptr(body, nodes).unwrap();
        let mut sim = GpuSim::new(concord_energy::SystemConfig::ultrabook().gpu);
        let err = sim.parallel_for(&mut region, &lp.module, k.operator_fn, body, 4).unwrap_err();
        assert!(matches!(err, Trap::WrongAddressSpace { found: AddrSpace::Cpu, .. }), "{err:?}");
    }

    #[test]
    fn divergence_costs_cycles() {
        // Same instruction count per item, but one version diverges per
        // lane: divergent version must take more warp cycles.
        let uniform = r#"
            class K {
            public:
                float* a;
                void operator()(int i) {
                    float x = 1.0f;
                    for (int j = 0; j < 32; j++) { x = x * 1.5f + 0.25f; }
                    a[i] = x;
                }
            };
        "#;
        let divergent = r#"
            class K {
            public:
                float* a;
                void operator()(int i) {
                    float x = 1.0f;
                    if (i % 2 == 0) {
                        for (int j = 0; j < 32; j++) { x = x * 1.5f + 0.25f; }
                    } else {
                        for (int j = 0; j < 32; j++) { x = x * 0.5f + 0.75f; }
                    }
                    a[i] = x;
                }
            };
        "#;
        let mut cycles = Vec::new();
        for src in [uniform, divergent] {
            let (module, kf, _) = gpu_module(src, PipelineConfig::all(7));
            let (mut region, mut heap) = setup(&module, 1 << 20);
            let n = 64u32;
            let a = heap.malloc(n as u64 * 4).unwrap();
            let body = heap.malloc(8).unwrap();
            region.write_ptr(body, a).unwrap();
            let mut sim = GpuSim::new(concord_energy::SystemConfig::ultrabook().gpu);
            let r = sim.parallel_for(&mut region, &module, kf, body, n).unwrap();
            cycles.push(r.critical_cycles);
        }
        assert!(
            cycles[1] > cycles[0] * 1.5,
            "divergent warps must serialize both paths: uniform={} divergent={}",
            cycles[0],
            cycles[1]
        );
    }

    #[test]
    fn coalesced_access_beats_strided() {
        let coalesced = r#"
            class K {
            public:
                float* a; float* b;
                void operator()(int i) { b[i] = a[i] * 2.0f; }
            };
        "#;
        let strided = r#"
            class K {
            public:
                float* a; float* b;
                void operator()(int i) { b[i] = a[i * 16] * 2.0f; }
            };
        "#;
        let mut tx = Vec::new();
        for src in [coalesced, strided] {
            let (module, kf, _) = gpu_module(src, PipelineConfig::all(7));
            let (mut region, mut heap) = setup(&module, 1 << 22);
            let n = 256u32;
            let a = heap.malloc(n as u64 * 16 * 4).unwrap();
            let b = heap.malloc(n as u64 * 4).unwrap();
            let body = heap.malloc(16).unwrap();
            region.write_ptr(body, a).unwrap();
            region.write_ptr(body.offset(8), b).unwrap();
            let mut sim = GpuSim::new(concord_energy::SystemConfig::ultrabook().gpu);
            let r = sim.parallel_for(&mut region, &module, kf, body, n).unwrap();
            tx.push(r.transactions);
        }
        assert!(tx[1] > tx[0] * 4, "strided access must generate more transactions: {tx:?}");
    }

    #[test]
    fn ptropt_reduces_executed_translations() {
        let src = r#"
            class K {
            public:
                float* a; int n; float* out;
                void operator()(int i) {
                    float s = 0.0f;
                    for (int j = 0; j < n; j++) { s += a[j]; }
                    out[i] = s;
                }
            };
        "#;
        let mut trans = Vec::new();
        for cfg in [PipelineConfig::baseline(7), PipelineConfig::ptropt(7)] {
            let (module, kf, _) = gpu_module(src, cfg);
            let (mut region, mut heap) = setup(&module, 1 << 20);
            let n = 32u32;
            let inner = 64i32;
            let a = heap.malloc(inner as u64 * 4).unwrap();
            let out = heap.malloc(n as u64 * 4).unwrap();
            let body = heap.malloc(24).unwrap();
            region.write_ptr(body, a).unwrap();
            region.write_i32(body.offset(8), inner).unwrap();
            region.write_ptr(body.offset(16), out).unwrap();
            let mut sim = GpuSim::new(concord_energy::SystemConfig::ultrabook().gpu);
            let r = sim.parallel_for(&mut region, &module, kf, body, n).unwrap();
            trans.push(r.translations);
        }
        assert!(
            trans[1] * 2 < trans[0],
            "PTROPT must cut executed translations: lazy={} hybrid={}",
            trans[0],
            trans[1]
        );
    }

    #[test]
    fn l3opt_reduces_contention() {
        let src = r#"
            class K {
            public:
                float* a; int n; float* out;
                void operator()(int i) {
                    float s = 0.0f;
                    for (int j = 0; j < n; j++) { s += a[j]; }
                    out[i] = s;
                }
            };
        "#;
        let mut contended = Vec::new();
        for cfg in [PipelineConfig::ptropt(40), PipelineConfig::all(40)] {
            let (module, kf, _) = gpu_module(src, cfg);
            let (mut region, mut heap) = setup(&module, 1 << 22);
            let n = 40 * 16u32; // one warp per EU, all in wave 0
            let inner = 512i32;
            let a = heap.malloc(inner as u64 * 4).unwrap();
            let out = heap.malloc(n as u64 * 4).unwrap();
            let body = heap.malloc(24).unwrap();
            region.write_ptr(body, a).unwrap();
            region.write_i32(body.offset(8), inner).unwrap();
            region.write_ptr(body.offset(16), out).unwrap();
            let mut sim = GpuSim::new(concord_energy::SystemConfig::ultrabook().gpu);
            let r = sim.parallel_for(&mut region, &module, kf, body, n).unwrap();
            contended.push(r.contended);
        }
        assert!(
            contended[1] * 2 < contended[0],
            "L3OPT must reduce same-line contention: off={} on={}",
            contended[0],
            contended[1]
        );
    }

    #[test]
    fn gpu_reduce_sums() {
        let src = r#"
            class Sum {
            public:
                float* data; float acc;
                void operator()(int i) { acc += data[i]; }
                void join(Sum* other) { acc += other->acc; }
            };
        "#;
        let (module, kf, jf) = gpu_module(src, PipelineConfig::all(7));
        let (mut region, mut heap) = setup(&module, 1 << 20);
        let n = 100u32;
        let data = heap.malloc(n as u64 * 4).unwrap();
        for i in 0..n {
            region.write_f32(CpuAddr(data.0 + i as u64 * 4), (i + 1) as f32).unwrap();
        }
        let body = heap.malloc(16).unwrap();
        region.write_ptr(body, data).unwrap();
        region.write_f32(body.offset(8), 0.0).unwrap();
        let warps = (n as u64).div_ceil(16);
        let scratch: Vec<CpuAddr> = (0..warps).map(|_| heap.malloc(16).unwrap()).collect();
        let mut sim = GpuSim::new(concord_energy::SystemConfig::ultrabook().gpu);
        sim.parallel_reduce(&mut region, &module, kf, jf.unwrap(), body, 16, n, &scratch).unwrap();
        // Sum the per-warp partials: 1 + 2 + ... + 100 = 5050.
        let mut total = 0.0f32;
        for s in &scratch {
            total += region.read_f32(s.offset(8)).unwrap();
        }
        assert_eq!(total, 5050.0);
    }

    #[test]
    fn occupancy_reflects_memory_boundness() {
        let compute = r#"
            class K {
            public:
                float* a;
                void operator()(int i) {
                    float x = (float)i;
                    for (int j = 0; j < 64; j++) { x = x * 1.01f + 0.5f; }
                    a[i] = x;
                }
            };
        "#;
        let membound = r#"
            class K {
            public:
                float* a; int* idx; int n;
                void operator()(int i) {
                    int k = idx[i];
                    float s = 0.0f;
                    for (int j = 0; j < 16; j++) {
                        k = idx[k];
                        s += a[k];
                    }
                    a[i] = s;
                }
            };
        "#;
        let (m1, k1, _) = gpu_module(compute, PipelineConfig::all(7));
        let (mut r1, mut h1) = setup(&m1, 1 << 22);
        let n = 512u32;
        let a1 = h1.malloc(n as u64 * 4).unwrap();
        let b1 = h1.malloc(8).unwrap();
        r1.write_ptr(b1, a1).unwrap();
        let mut sim = GpuSim::new(concord_energy::SystemConfig::desktop().gpu);
        let rep1 = sim.parallel_for(&mut r1, &m1, k1, b1, n).unwrap();

        let (m2, k2, _) = gpu_module(membound, PipelineConfig::all(7));
        let (mut r2, mut h2) = setup(&m2, 1 << 24);
        let big = 1 << 16u64;
        let a2 = h2.malloc(big * 4).unwrap();
        let idx = h2.malloc(big * 4).unwrap();
        // Scatter the index chain widely (deterministic LCG).
        let mut x = 12345u64;
        for i in 0..big {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            r2.write_i32(CpuAddr(idx.0 + i * 4), (x % big) as i32).unwrap();
        }
        let b2 = h2.malloc(24).unwrap();
        r2.write_ptr(b2, a2).unwrap();
        r2.write_ptr(b2.offset(8), idx).unwrap();
        r2.write_i32(b2.offset(16), big as i32).unwrap();
        let mut sim2 = GpuSim::new(concord_energy::SystemConfig::desktop().gpu);
        let rep2 = sim2.parallel_for(&mut r2, &m2, k2, b2, n).unwrap();

        assert!(
            rep1.busy_fraction > rep2.busy_fraction + 0.15,
            "pointer chasing must lower occupancy: compute={} membound={}",
            rep1.busy_fraction,
            rep2.busy_fraction
        );
    }
}
