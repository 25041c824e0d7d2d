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
//!
//! A launch runs a [`Program`]: the module's functions decoded once, the
//! first time a launch reaches them, by the decoder the CPU simulator
//! runs too.

pub mod l3;
pub mod warp;

pub use l3::{GpuL3, L3Access};
pub use warp::{gpu_classify, GpuSpace, Mask, LOCAL_BASE, TRACE_SAMPLE_EVERY};

use concord_cpusim::{Program, WorkIds, PRIVATE_BASE};
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
use warp::{lanes, sampled, LogItem, Warp, WarpState, WarpTiming, MAX_WIDTH};

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
    /// The logged accesses' line keys, access after access.
    lines: Vec<u64>,
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
    /// Warp states no warp is running on, recycled across warps and
    /// launches (as many as warps ever ran at once).
    idle: Mutex<Vec<WarpState>>,
    /// Deferred-L3 logs (`WarpOut::log` and `lines`) that a commit has
    /// replayed, emptied for the next warps to fill. A warp's log lives
    /// until its launch commits, so a launch holds one per warp; without
    /// the pool each warp grew its own from empty by doubling.
    spare_logs: Mutex<Vec<(Vec<LogItem>, Vec<u64>)>>,
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
            idle: Mutex::new(Vec::new()),
            spare_logs: Mutex::new(Vec::new()),
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
    /// [`GpuSim::launch`] that decodes `module` on the spot.
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
        let in_order = uses_gated_ops(module, &[func]);
        let work = Work { func, body, kind: WorkKind::For, in_order, body_invariant: false };
        let mut program = Program::new();
        program.decode(module, &work);
        self.launch(region, &program, &work, Span::full(n), &mut Vec::new())
    }

    /// Launch `parallel_reduce_hetero(n, body)` on the GPU, leaving one
    /// partial per warp in `scratch` for the caller to join on the host.
    /// A convenience over [`GpuSim::launch`] that decodes `module` on the
    /// spot.
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
        let in_order = uses_gated_ops(module, &[func, join]);
        let kind = WorkKind::Reduce { join, body_size, slots: scratch };
        let work = Work { func, body, kind, in_order, body_invariant: false };
        let mut program = Program::new();
        program.decode(module, &work);
        self.launch(region, &program, &work, Span::full(n), &mut Vec::new())
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
    ///
    /// # Panics
    ///
    /// If `program` was not decoded for `work` ([`Program::decode`]).
    pub fn launch(
        &mut self,
        region: &mut SharedRegion,
        program: &Program,
        work: &Work<'_>,
        span: Span,
        pushes: &mut Vec<i32>,
    ) -> Result<GpuReport, Trap> {
        if !work.in_order {
            let pending = self.execute(region, program, work, span);
            return self.commit(region, pending, pushes);
        }
        let (warps, hiding) = self.geometry(work, span);
        let mut merge = Merge::new(self, region, hiding);
        for w in 0..warps {
            let out = self.run_warp(region, program, work, span, w, hiding);
            merge.warp(self, region, w, out)?;
        }
        Ok(merge.finish(self, warps, pushes))
    }

    /// Execute the warps of `work` over `span` without committing: each
    /// warp runs against a snapshot of `region` with a private write-log,
    /// possibly on its own host thread. [`GpuSim::commit`] merges the logs
    /// back in warp order.
    ///
    /// # Panics
    ///
    /// If `program` was not decoded for `work` ([`Program::decode`]).
    pub fn execute(
        &self,
        region: &SharedRegion,
        program: &Program,
        work: &Work<'_>,
        span: Span,
    ) -> GpuPending {
        let (warps, hiding) = self.geometry(work, span);
        let outs = concord_pool::map(self.host_threads, warps as usize, |w| {
            let mut shadow = ShadowRegion::new(region);
            let mut out = self.run_warp(&mut shadow, program, work, span, w as u64, hiding);
            out.mem_log = shadow.into_log();
            out
        });
        GpuPending { warps: outs, hiding }
    }

    /// Run warp `w` of `work` against `region` — live on the in-order path, a
    /// snapshot under host parallelism (the caller collects its write
    /// log). L3 traffic and trace events are deferred to the returned log.
    fn run_warp<M: RegionMem>(
        &self,
        region: &mut M,
        program: &Program,
        work: &Work<'_>,
        span: Span,
        w: u64,
        hiding: f64,
    ) -> WarpOut {
        let width = self.cfg.simd_width as usize;
        let base = span.lo as u64 + w * width as u64;
        let idle =
            self.idle.lock().expect("nothing panics while holding the warp-state pool").pop();
        let mut st = idle.unwrap_or_else(|| WarpState::new(&self.cfg));
        st.reset();
        // Lanes cover global ids `base + lane`; those at or beyond `hi` are
        // masked off.
        let mut mask: Mask = 0;
        for (l, ids) in st.ids.iter_mut().enumerate() {
            let gid = base + l as u64;
            if gid < span.hi as u64 {
                mask |= 1 << l;
            }
            let (global, local, group) = (gid as i64, l as i64, w as i64);
            *ids = WorkIds { global, local, group, size: span.grid as i64 };
        }
        let items = match work.kind {
            WorkKind::Worklist { items } => Some(items),
            _ => None,
        };
        let (log, lines) = self
            .spare_logs
            .lock()
            .expect("nothing panics while holding the log pool")
            .pop()
            .unwrap_or_default();
        let mut warp = Warp {
            program,
            region,
            st: &mut st,
            timing: WarpTiming::default(),
            step_budget: self.step_budget_per_warp,
            hiding,
            trace_enabled: self.tracer.enabled(),
            log,
            lines,
            divergences: 0,
            reconvergences: 0,
            wl: items.map(|_| Vec::new()),
        };
        let res = if let WorkKind::Reduce { join, body_size, slots } = work.kind {
            let slot = slots[w as usize];
            reduce_warp_steps(&mut warp, work, join, body_size, base, span.hi, mask, slot)
        } else {
            // Lane `l` receives the body and its work-item id, or its
            // frontier item in a worklist round; masked-off lanes get a
            // zero item.
            let mut args = [Value::I(0); 2 * MAX_WIDTH];
            for l in 0..width {
                let i = base + l as u64;
                let arg = items.map_or(i as i64, |items| {
                    i64::from(items.get(i as usize).copied().unwrap_or(0))
                });
                args[l] = Value::Ptr(work.body.0, AddrSpace::Cpu);
                args[width + l] = Value::I(arg);
            }
            let args = &args[..2 * width];
            // A gated worklist body reads values its own round already
            // wrote (cas-guarded pushes), so lanes run one at a time,
            // ascending, and see each other's effects exactly as the
            // cpusim/native serial paths do — lockstep lane loads would
            // observe stale values and drop relaxations.
            let mut run = |m: Mask| warp.exec(m, work.func, args, 0);
            let res = if work.in_order && items.is_some() {
                lanes(mask).try_for_each(|l| run(1 << l))
            } else {
                run(mask)
            };
            res.map_err(|t| t.with_kernel(&program.func(work.func).name))
        };
        let out = WarpOut {
            timing: warp.timing,
            pushes: warp.wl.take().unwrap_or_default(),
            log: warp.log,
            lines: warp.lines,
            mem_log: Vec::new(),
            trap: res.err(),
        };
        self.idle.lock().expect("nothing panics while holding the warp-state pool").push(st);
        out
    }

    /// Replay one warp's deferred L3 accesses and trace events against the
    /// shared L3 and the tracer, charging L3 stall into `timing`. Always
    /// called in warp order, so cache state and trace output are
    /// independent of how the warps were executed.
    fn replay_warp_log(
        &mut self,
        log: &mut Vec<LogItem>,
        lines: &[u64],
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
        let mut lines = lines.iter().copied();
        for item in log.drain(..) {
            match item {
                LogItem::Access { lines: n_lines, shared_lanes, ts_snap } => {
                    let (n_lines, shared_lanes) = (n_lines as usize, shared_lanes as usize);
                    for line in lines.by_ref().take(n_lines) {
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
        let mut merge = Merge::new(self, region, pending.hiding);
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
    fn new(sim: &mut GpuSim, region: &SharedRegion, hiding: f64) -> Merge {
        sim.l3.flush(region.capacity());
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
        let (mut log, mut lines) = (out.log, out.lines);
        sim.replay_warp_log(&mut log, &lines, &mut timing, eu, wave, self.hiding);
        lines.clear();
        sim.spare_logs
            .get_mut()
            .expect("nothing panics while holding the log pool")
            .push((log, lines));
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
    scratch_slot: CpuAddr,
) -> Result<(), Trap> {
    let width = warp.st.ids.len();
    let program = warp.program;
    let name = |f: FuncId| program.func(f).name.as_str();
    // 1. Private body copies. Reserve a pseudo-frame per lane.
    let mut priv_copy = [0u64; MAX_WIDTH];
    for l in lanes(mask) {
        priv_copy[l] = PRIVATE_BASE + warp.st.push_frame(l, body_size)?;
        warp.lane_memcpy(l, priv_copy[l], work.body.to_gpu().0, body_size)?;
    }
    // 2. operator() on private copies.
    let mut args = [Value::I(0); 2 * MAX_WIDTH];
    for l in 0..width {
        args[l] = Value::Ptr(priv_copy[l], AddrSpace::Private);
        args[width + l] = Value::I((base + l as u64) as i64);
    }
    warp.exec(mask, work.func, &args[..2 * width], 0)
        .map_err(|t| t.with_kernel(name(work.func)))?;
    // 3. Private → local.
    for l in lanes(mask) {
        let local_slot = LOCAL_BASE + l as u64 * body_size;
        warp.lane_memcpy(l, local_slot, priv_copy[l], body_size)?;
    }
    // 4. Tree reduction in local memory.
    let lane_count = (hi as u64 - base).min(width as u64) as usize;
    let local = |l: usize| Value::Ptr(LOCAL_BASE + l as u64 * body_size, AddrSpace::Local);
    let mut stride = width / 2;
    while stride >= 1 {
        let mut jmask: Mask = 0;
        for l in 0..width {
            if l < stride && l + stride < lane_count {
                jmask |= 1 << l;
            }
            args[l] = local(l);
            args[width + l] = local(l + stride);
        }
        if jmask != 0 {
            warp.exec(jmask, join, &args[..2 * width], 0).map_err(|t| t.with_kernel(name(join)))?;
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

    const SUM: &str = r#"
        class Sum {
        public:
            float* data; float acc;
            void operator()(int i) { acc += data[i]; }
            void join(Sum* other) { acc += other->acc; }
        };
    "#;

    #[test]
    fn gpu_reduce_sums() {
        let (module, kf, jf) = gpu_module(SUM, PipelineConfig::all(7));
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

    /// Kernels `probe(body, i)` and `dirty(body, i)` over the same 8-byte
    /// private alloca and local-memory slot `i`: `dirty` first writes
    /// both, `probe` only reads them. Each stores what it read to
    /// `out[2i]` and `out[2i + 1]`, where `out` is the body's first field.
    fn alloca_and_local_readers() -> Module {
        use concord_ir::builder::FunctionBuilder;
        use concord_ir::types::Type;
        use concord_ir::{BinOp, CastOp};
        let kernel = |name: &str, write: bool| {
            let params = vec![Type::Ptr(AddrSpace::Cpu), Type::I32];
            let mut b = FunctionBuilder::new(name, params, Type::Void);
            let (body, i) = (b.param(0), b.param(1));
            let slot = b.alloca(8, 8);
            let i = b.cast(CastOp::Sext, i, Type::I64);
            let eight = b.i64(8);
            let off = b.bin(BinOp::Mul, i, eight);
            let base = b.i64(LOCAL_BASE as i64);
            let local = b.bin(BinOp::Add, base, off);
            let local = b.cast(CastOp::IntToPtr, local, Type::Ptr(AddrSpace::Local));
            if write {
                let junk = b.i64(0x5a5a_5a5a_5a5a_5a5a);
                b.store(slot, junk);
                b.store(local, junk);
            }
            let private_word = b.load(slot, Type::I64);
            let local_word = b.load(local, Type::I64);
            let body = b.cpu_to_gpu(body);
            let out = b.load(body, Type::Ptr(AddrSpace::Cpu));
            let out = b.cpu_to_gpu(out);
            let sixteen = b.i64(16);
            let off = b.bin(BinOp::Mul, i, sixteen);
            let at = b.gep(out, off);
            b.store(at, private_word);
            let at = b.gep_const(at, 8);
            b.store(at, local_word);
            b.ret(None);
            let mut f = b.build();
            f.kernel = Some(concord_ir::KernelKind::ForBody);
            f
        };
        let mut module = Module::new();
        module.add_function(kernel("probe", false));
        module.add_function(kernel("dirty", true));
        module
    }

    #[test]
    fn recycled_warp_state_reads_as_fresh() {
        let module = alloca_and_local_readers();
        let (probe, dirty) = (FuncId(0), FuncId(1));
        let n = 16u32;
        // The probe's stored words and report, on `sim`. (The L3 hit rate
        // counts every launch the simulator ever ran, so it is left out.)
        let run_probe = |sim: &mut GpuSim| {
            let (mut region, mut heap) = setup(&module, 1 << 20);
            let out = heap.malloc(u64::from(n) * 16).unwrap();
            let body = heap.malloc(8).unwrap();
            region.write_ptr(body, out).unwrap();
            let report = GpuReport {
                l3_hit_rate: 0.0,
                ..sim.parallel_for(&mut region, &module, probe, body, n).unwrap()
            };
            let words = region.read_bytes(out.0, AddrSpace::Cpu, u64::from(n) * 16).unwrap();
            (words.to_vec(), format!("{report:?}"))
        };
        let fresh = run_probe(&mut GpuSim::new(concord_energy::SystemConfig::ultrabook().gpu));
        assert!(fresh.0.iter().all(|&b| b == 0), "fresh private and local memory read as zero");

        let mut sim = GpuSim::new(concord_energy::SystemConfig::ultrabook().gpu);
        // A warp that wrote the same alloca and local slots.
        let (mut region, mut heap) = setup(&module, 1 << 20);
        let out = heap.malloc(u64::from(n) * 16).unwrap();
        let body = heap.malloc(8).unwrap();
        region.write_ptr(body, out).unwrap();
        sim.parallel_for(&mut region, &module, dirty, body, n).unwrap();
        assert_eq!(run_probe(&mut sim), fresh, "after a warp that wrote them");

        // A whole reduction: body copies on every lane stack, and in local
        // memory.
        let (sum, kf, jf) = gpu_module(SUM, PipelineConfig::all(7));
        let (mut region, mut heap) = setup(&sum, 1 << 20);
        let data = heap.malloc(u64::from(n) * 4).unwrap();
        for i in 0..n {
            region.write_f32(CpuAddr(data.0 + u64::from(i) * 4), 1.5).unwrap();
        }
        let body = heap.malloc(16).unwrap();
        region.write_ptr(body, data).unwrap();
        let scratch = [heap.malloc(16).unwrap()];
        sim.parallel_reduce(&mut region, &sum, kf, jf.unwrap(), body, 16, n, &scratch).unwrap();
        assert_eq!(region.read_f32(scratch[0].offset(8)).unwrap(), 24.0);
        assert_eq!(run_probe(&mut sim), fresh, "after a reduction");
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

    /// A launch that traps on a line past the region's end returns the
    /// trap it always did, and the next launch on the same simulator sees
    /// no contention history from it: its report equals a fresh
    /// simulator's bit for bit, except the L3 hit rate, which counts every
    /// launch a simulator ever ran.
    #[test]
    fn a_trap_past_the_region_leaves_no_l3_history() {
        const PAST_END: &str = r#"
            class K {
            public:
                float* a;
                void operator()(int i) { a[i * 1024] = a[(i * 1024 + 512) % 4096] + 1.0f; }
            };
        "#;
        const SHARED_ROW: &str = r#"
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
        let cfg = concord_energy::SystemConfig::ultrabook().gpu;
        let row = |sim: &mut GpuSim| {
            let (module, kf, _) = gpu_module(SHARED_ROW, PipelineConfig::ptropt(40));
            let (mut region, mut heap) = setup(&module, 1 << 20);
            let (n, inner) = (40 * 16u32, 256i32);
            let a = heap.malloc(inner as u64 * 4).unwrap();
            let out = heap.malloc(u64::from(n) * 4).unwrap();
            let body = heap.malloc(24).unwrap();
            region.write_ptr(body, a).unwrap();
            region.write_i32(body.offset(8), inner).unwrap();
            region.write_ptr(body.offset(16), out).unwrap();
            let r = sim.parallel_for(&mut region, &module, kf, body, n).unwrap();
            assert!(r.contended > 0, "the follow-up launch contends");
            format!("{:?}", GpuReport { l3_hit_rate: 0.0, ..r })
        };
        for ht in [1, 8] {
            let mut sim = GpuSim::new(cfg);
            sim.host_threads = ht;
            let (module, kf, _) = gpu_module(PAST_END, PipelineConfig::all(7));
            let (mut region, mut heap) = setup(&module, 1 << 20);
            let a = heap.malloc(4096 * 4).unwrap();
            let body = heap.malloc(8).unwrap();
            region.write_ptr(body, a).unwrap();
            let trap = sim.parallel_for(&mut region, &module, kf, body, 512).unwrap_err();
            // The first byte past the region.
            let past = concord_svm::GPU_BASE + (1 << 20);
            let want = Trap::BadAddress { addr: past, space: AddrSpace::Gpu };
            assert_eq!(trap, want, "at {ht} host threads");
            let mut fresh = GpuSim::new(cfg);
            fresh.host_threads = ht;
            assert_eq!(row(&mut sim), row(&mut fresh), "at {ht} host threads");
        }
    }

    /// One line per report: the exact bits of every quantity a
    /// `GpuReport` carries.
    fn pin(name: &str, r: &GpuReport) -> String {
        format!(
            "{name}: seconds={:#x} cycles={:#x} busy={:#x} insts={} translations={} \
             transactions={} contended={} l3={:#x} warps={}",
            r.seconds.to_bits(),
            r.critical_cycles.to_bits(),
            r.busy_fraction.to_bits(),
            r.insts,
            r.translations,
            r.transactions,
            r.contended,
            r.l3_hit_rate.to_bits(),
            r.warps,
        )
    }

    /// Every simulated quantity of coalesced, strided, same-line-contended
    /// and §4.2-rotated streams, atomics on the shadowed and the in-order
    /// path, a reduction and the rounds of two worklist drains, at one and
    /// at eight host threads. Each fixture runs on a fresh simulator, so
    /// the L3 hit rate (which counts every launch a simulator ran) is the
    /// fixture's own. The L3 contention history and the shadow overlay are
    /// on every one of these paths; their storage may change, these bits
    /// may not.
    #[test]
    fn gpusim_reports_are_pinned() {
        const STREAMS: &str = r#"
            class K {
            public:
                float* a; float* b;
                void operator()(int i) { b[i] = a[i] * 2.0f; }
            };
        "#;
        const STRIDED: &str = r#"
            class K {
            public:
                float* a; float* b;
                void operator()(int i) { b[i] = a[i * 16] * 2.0f; }
            };
        "#;
        const SHARED_ROW: &str = r#"
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
        const ATOMICS: &str = r#"
            class K {
            public:
                int* cells;
                void operator()(int i) {
                    for (int j = 0; j < i % 5 + 1; j++) {
                        atomic_add(&cells[j % 4], i);
                        atomic_min(&cells[4 + i % 8], i - j);
                    }
                    cells[12 + i] = i * 3;
                }
            };
        "#;
        const CAS: &str = r#"
            class K {
            public:
                int* cells;
                void operator()(int i) {
                    atomic_cas(&cells[i % 8], 0, i);
                    atomic_add(&cells[8 + i % 4], i);
                }
            };
        "#;
        const BFS: &str = r#"
            class K {
            public:
                int* row_off; int* cols; int* level;
                void operator()(int v) {
                    int next = level[v] + 1;
                    for (int e = row_off[v]; e < row_off[v + 1]; e++) {
                        int w = cols[e];
                        if (level[w] < 0) { level[w] = next; push(w); }
                    }
                }
            };
        "#;
        const CAS_BFS: &str = r#"
            class K {
            public:
                int* row_off; int* cols; int* level;
                void operator()(int v) {
                    int next = level[v] + 1;
                    for (int e = row_off[v]; e < row_off[v + 1]; e++) {
                        int w = cols[e];
                        if (atomic_cas(&level[w], -1, next) == -1) { push(w); }
                    }
                }
            };
        "#;
        // The shipped systems charge whole cycles; the skewed one's odd
        // latencies make the order of every stall charge show in the bits.
        let skewed = GpuConfig {
            freq_ghz: 1.13,
            l3_hit_cycles: 47.3,
            mem_cycles: 311.7,
            contention_penalty: 9.3,
            ..concord_energy::SystemConfig::ultrabook().gpu
        };
        let systems = [
            ("ultrabook", concord_energy::SystemConfig::ultrabook().gpu),
            ("desktop", concord_energy::SystemConfig::desktop().gpu),
            ("skewed", skewed),
        ];
        let mut got = Vec::new();
        for (ht, (system, cfg)) in [1, 8].into_iter().flat_map(|ht| systems.map(|s| (ht, s))) {
            let sim = || {
                let mut s = GpuSim::new(cfg);
                s.host_threads = ht;
                s
            };
            let pin = |name: &str, r: &GpuReport| pin(&format!("{system} {name}"), r);

            for (name, src) in [("coalesced", STREAMS), ("strided", STRIDED)] {
                let (module, kf, _) = gpu_module(src, PipelineConfig::all(7));
                let (mut region, mut heap) = setup(&module, 1 << 22);
                let n = 256u32;
                let a = heap.malloc(u64::from(n) * 16 * 4).unwrap();
                for i in 0..u64::from(n) * 16 {
                    region.write_f32(CpuAddr(a.0 + i * 4), i as f32 * 0.25).unwrap();
                }
                let b = heap.malloc(u64::from(n) * 4).unwrap();
                let body = heap.malloc(16).unwrap();
                region.write_ptr(body, a).unwrap();
                region.write_ptr(body.offset(8), b).unwrap();
                let r = sim().parallel_for(&mut region, &module, kf, body, n);
                got.push(pin(name, &r.unwrap()));
            }

            // Every EU streams the same row in the same order (contended);
            // under L3OPT each starts at its own rotation (§4.2).
            for (name, strategy) in
                [("contended", PipelineConfig::ptropt(40)), ("rotated", PipelineConfig::all(40))]
            {
                let (module, kf, _) = gpu_module(SHARED_ROW, strategy);
                let (mut region, mut heap) = setup(&module, 1 << 22);
                let n = 40 * 16u32;
                let inner = 512i32;
                let a = heap.malloc(inner as u64 * 4).unwrap();
                let out = heap.malloc(u64::from(n) * 4).unwrap();
                let body = heap.malloc(24).unwrap();
                region.write_ptr(body, a).unwrap();
                region.write_i32(body.offset(8), inner).unwrap();
                region.write_ptr(body.offset(16), out).unwrap();
                let r = sim().parallel_for(&mut region, &module, kf, body, n);
                got.push(pin(name, &r.unwrap()));
            }

            for (name, src, n) in [("atomics", ATOMICS, 200u32), ("cas", CAS, 40)] {
                let (module, kf, _) = gpu_module(src, PipelineConfig::all(7));
                assert_eq!(uses_gated_ops(&module, &[kf]), name == "cas", "{name}'s path");
                let (mut region, mut heap) = setup(&module, 1 << 20);
                let cells = heap.malloc((12 + u64::from(n)) * 4).unwrap();
                let body = heap.malloc(8).unwrap();
                region.write_ptr(body, cells).unwrap();
                let r = sim().parallel_for(&mut region, &module, kf, body, n);
                got.push(pin(name, &r.unwrap()));
            }

            let (module, kf, jf) = gpu_module(SUM, PipelineConfig::all(7));
            let (mut region, mut heap) = setup(&module, 1 << 20);
            let n = 1000u32;
            let data = heap.malloc(u64::from(n) * 4).unwrap();
            for i in 0..u64::from(n) {
                region.write_f32(CpuAddr(data.0 + i * 4), i as f32 * 0.5).unwrap();
            }
            let body = heap.malloc(16).unwrap();
            region.write_ptr(body, data).unwrap();
            let scratch: Vec<CpuAddr> =
                (0..u64::from(n).div_ceil(16)).map(|_| heap.malloc(16).unwrap()).collect();
            let r =
                sim().parallel_reduce(&mut region, &module, kf, jf.unwrap(), body, 16, n, &scratch);
            got.push(pin("reduce", &r.unwrap()));

            // A 300-node graph of out-degree 3 (deterministic LCG), drained
            // from 24 seeds one round at a time as the runtime drains it.
            for (name, src) in [("bfs", BFS), ("cas_bfs", CAS_BFS)] {
                let (module, kf, _) = gpu_module(src, PipelineConfig::all(7));
                let (mut region, mut heap) = setup(&module, 1 << 20);
                let nodes = 300u64;
                let row_off = heap.malloc((nodes + 1) * 4).unwrap();
                let cols = heap.malloc(nodes * 3 * 4).unwrap();
                let level = heap.malloc(nodes * 4).unwrap();
                let mut x = 7u64;
                for v in 0..nodes {
                    region.write_i32(CpuAddr(row_off.0 + v * 4), (v * 3) as i32).unwrap();
                    for e in 0..3 {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                        let w = ((x >> 33) % nodes) as i32;
                        region.write_i32(CpuAddr(cols.0 + (v * 3 + e) * 4), w).unwrap();
                    }
                    let seed = v % 12 == 0;
                    region.write_i32(CpuAddr(level.0 + v * 4), if seed { 0 } else { -1 }).unwrap();
                }
                region.write_i32(CpuAddr(row_off.0 + nodes * 4), (nodes * 3) as i32).unwrap();
                let body = heap.malloc(24).unwrap();
                region.write_ptr(body, row_off).unwrap();
                region.write_ptr(body.offset(8), cols).unwrap();
                region.write_ptr(body.offset(16), level).unwrap();
                let mut sim = sim();
                let mut frontier: Vec<i32> = (0..nodes as i32).step_by(12).collect();
                for round in 0.. {
                    frontier.sort_unstable();
                    frontier.dedup();
                    if frontier.is_empty() {
                        break;
                    }
                    let kind = WorkKind::Worklist { items: &frontier };
                    let in_order = uses_gated_ops(&module, &[kf]);
                    let work = Work { func: kf, body, kind, in_order, body_invariant: false };
                    let mut program = Program::new();
                    program.decode(&module, &work);
                    let span = Span::full(frontier.len() as u32);
                    let mut pushes = Vec::new();
                    let r = sim.launch(&mut region, &program, &work, span, &mut pushes);
                    let pushed = pushes.iter().map(|&p| i64::from(p)).sum::<i64>();
                    let line = pin(&format!("{name} round {round}"), &r.unwrap());
                    got.push(format!("{line} pushes={}/{pushed}", pushes.len()));
                    frontier = pushes;
                }
            }
        }
        let want = [
            "ultrabook coalesced: seconds=0x3ec56ed21abf73f4 cycles=0x40907c0000000000 busy=0x3fac137f514dcb5b insts=336 translations=48 transactions=64 contended=30 l3=0x3fdf000000000000 warps=16",
            "ultrabook strided: seconds=0x3edee059b6438d37 cycles=0x40b6e58000000000 busy=0x3f82be55d01b3493 insts=400 translations=48 transactions=304 contended=30 l3=0x3fba1af286bca1af warps=16",
            "ultrabook contended: seconds=0x3f08857f52bddf6c cycles=0x40e61ae000000000 busy=0x3fd0d739e5cdbdc5 insts=267320 translations=120 transactions=20640 contended=10101 l3=0x3fefe306bf4e306c warps=40",
            "ultrabook rotated: seconds=0x3f0d5d4439fce225 cycles=0x40ea9d8000000000 busy=0x3fdaba351b6b2625 insts=308480 translations=120 transactions=20640 contended=3760 l3=0x3fefe306bf4e306c warps=40",
            "ultrabook atomics: seconds=0x3ed487f75abfea10 cycles=0x40aa860000000000 busy=0x3fca406a6e928c2b insts=2093 translations=26 transactions=39 contended=25 l3=0x3fe4834834834835 warps=13",
            "ultrabook cas: seconds=0x3ec544f1ddb99549 cycles=0x40902e0000000000 busy=0x3fb9954342ec2d68 insts=69 translations=6 transactions=3 contended=2 l3=0x3fe5555555555555 warps=3",
            "ultrabook reduce: seconds=0x3ed5e3ca5801a70f cycles=0x40ad0ddf7df7df82 busy=0x3fbf3df3f669b404 insts=8272 translations=628 transactions=2189 contended=578 l3=0x3feed85ac07f3d66 warps=63",
            "ultrabook bfs round 0: seconds=0x3ef967a77b7beeb0 cycles=0x40d6320000000000 busy=0x3f8a6a95246a0841 insts=212 translations=8 transactions=306 contended=48 l3=0x3fe94ea3f94ea3f9 warps=2 pushes=68/11095",
            "ultrabook bfs round 1: seconds=0x3ef2362fdf382bb8 cycles=0x40cefe0000000000 busy=0x3f91f55a46a8e542 insts=428 translations=16 transactions=493 contended=206 l3=0x3fea2716bf9978ca warps=4 pushes=135/21331",
            "ultrabook bfs round 2: seconds=0x3eec9f36d644b47e cycles=0x40c7ba0000000000 busy=0x3f998abd3e1d0663 insts=746 translations=28 transactions=629 contended=332 l3=0x3feab06742b06743 warps=7 pushes=104/14702",
            "ultrabook bfs round 3: seconds=0x3ef07df3ee1b487d cycles=0x40cbca0000000000 busy=0x3f984a6ea53e7437 insts=535 translations=20 transactions=440 contended=180 l3=0x3fea9a9633876682 warps=5 pushes=33/4141",
            "ultrabook bfs round 4: seconds=0x3ef561662172159c cycles=0x40d2728000000000 busy=0x3f908cc0f95f3de7 insts=205 translations=8 transactions=204 contended=30 l3=0x3fea4d18b5de64d2 warps=2 pushes=5/619",
            "ultrabook bfs round 5: seconds=0x3ee3acec42effae0 cycles=0x40beca0000000000 busy=0x3f9a3e3ada2120ef insts=101 translations=4 transactions=51 contended=0 l3=0x3fea26d3fc9fa740 warps=1 pushes=1/199",
            "ultrabook bfs round 6: seconds=0x3ed22d98d944184c cycles=0x40a6240000000000 busy=0x3fb1863b9e711864 insts=98 translations=4 transactions=15 contended=0 l3=0x3fea1682c1048cd0 warps=1 pushes=0/0",
            "ultrabook cas_bfs round 0: seconds=0x3efbcc3954099783 cycles=0x40d86c8000000000 busy=0x3fc13040ba5dd908 insts=2563 translations=100 transactions=300 contended=24 l3=0x3fe92c5f92c5f92c warps=2 pushes=63/10189",
            "ultrabook cas_bfs round 1: seconds=0x3ef6ae4248240619 cycles=0x40d3a88000000000 busy=0x3fc59465b0c6a6ba insts=6401 translations=252 transactions=756 contended=72 l3=0x3feb9364d9364d93 warps=4 pushes=101/15746",
            "ultrabook cas_bfs round 2: seconds=0x3ef56860d6486563 cycles=0x40d2790000000000 busy=0x3fc742afb3e5efa6 insts=10167 translations=404 transactions=1212 contended=139 l3=0x3feca7f529fd4a7f warps=7 pushes=67/9160",
            "ultrabook cas_bfs round 3: seconds=0x3ef6cd65bdb8cc7e cycles=0x40d3c58000000000 busy=0x3fc5c8e0193327ae insts=6722 translations=268 transactions=804 contended=81 l3=0x3fecb80000000000 warps=5 pushes=22/3049",
            "ultrabook cas_bfs round 4: seconds=0x3ef9f08e6a5de42e cycles=0x40d6b18000000000 busy=0x3fc1d9121d051d91 insts=2204 translations=88 transactions=264 contended=18 l3=0x3fec870f59044c20 warps=2 pushes=4/467",
            "ultrabook cas_bfs round 5: seconds=0x3ee1bcdaab20996c cycles=0x40bb2e0000000000 busy=0x3fbdba63a21b39e9 insts=401 translations=16 transactions=48 contended=0 l3=0x3fec7432d63dbb02 warps=1 pushes=1/199",
            "ultrabook cas_bfs round 6: seconds=0x3eccdd7dc16e4149 cycles=0x409e540000000000 busy=0x3fba829266155dc6 insts=100 translations=4 transactions=12 contended=0 l3=0x3fec6dc1e2732f57 warps=1 pushes=0/0",
            "desktop coalesced: seconds=0x3ec15305448f56b0 cycles=0x408f180000000000 busy=0x3fad8fe901d8fe90 insts=336 translations=48 transactions=64 contended=30 l3=0x3fdf000000000000 warps=16",
            "desktop strided: seconds=0x3ed9192d7e234dfa cycles=0x40b57d8000000000 busy=0x3f83f41c36065515 insts=400 translations=48 transactions=304 contended=30 l3=0x3fba1af286bca1af warps=16",
            "desktop contended: seconds=0x3f08401859c5849d cycles=0x40e94c8000000000 busy=0x3fd97313a8134c98 insts=267320 translations=120 transactions=20640 contended=9842 l3=0x3fefe306bf4e306c warps=40",
            "desktop rotated: seconds=0x3f10188ae82b88cc cycles=0x40f0e6f000000000 busy=0x3fe29d2c07e570b3 insts=308480 translations=120 transactions=20640 contended=3661 l3=0x3fefe306bf4e306c warps=40",
            "desktop atomics: seconds=0x3ed132576b20e04a cycles=0x40aa0e0000000000 busy=0x3fca72ae966109e2 insts=2093 translations=26 transactions=39 contended=25 l3=0x3fe4834834834835 warps=13",
            "desktop cas: seconds=0x3ec1794d4343f003 cycles=0x408fbc0000000000 busy=0x3fb9cf91b10776cc insts=69 translations=6 transactions=3 contended=2 l3=0x3fe5555555555555 warps=3",
            "desktop reduce: seconds=0x3ed55e9d537db380 cycles=0x40b17f2492492495 busy=0x3fc9772d698cb101 insts=8272 translations=628 transactions=2189 contended=558 l3=0x3feed85ac07f3d66 warps=63",
            "desktop bfs round 0: seconds=0x3ef51b416ebe95a5 cycles=0x40d5420000000000 busy=0x3f8b774e3bd3e056 insts=212 translations=8 transactions=306 contended=48 l3=0x3fe94ea3f94ea3f9 warps=2 pushes=68/11095",
            "desktop bfs round 1: seconds=0x3eee2d56c8ce2245 cycles=0x40cda00000000000 busy=0x3f92922935a85cf1 insts=428 translations=16 transactions=493 contended=206 l3=0x3fea2716bf9978ca warps=4 pushes=135/21331",
            "desktop bfs round 2: seconds=0x3ee79cb31a9d349e cycles=0x40c6980000000000 busy=0x3f9a5450191d7ea9 insts=746 translations=28 transactions=629 contended=332 l3=0x3feab06742b06743 warps=7 pushes=104/14702",
            "desktop bfs round 3: seconds=0x3eeb42635ef146de cycles=0x40ca800000000000 busy=0x3f9924f785bcfc99 insts=535 translations=20 transactions=440 contended=180 l3=0x3fea9a9633876682 warps=5 pushes=33/4141",
            "desktop bfs round 4: seconds=0x3ef1ae0e22430e3a cycles=0x40d1968000000000 busy=0x3f914830a8751d68 insts=205 translations=8 transactions=204 contended=30 l3=0x3fea4d18b5de64d2 warps=2 pushes=5/619",
            "desktop bfs round 5: seconds=0x3ee03282c4f35007 cycles=0x40bd4e0000000000 busy=0x3f9b92878a9cd5c1 insts=101 translations=4 transactions=51 contended=0 l3=0x3fea26d3fc9fa740 warps=1 pushes=1/199",
            "desktop bfs round 6: seconds=0x3ecdb7b1ba0d44d5 cycles=0x40a50c0000000000 busy=0x3fb26f5ed5ff9eb2 insts=98 translations=4 transactions=15 contended=0 l3=0x3fea1682c1048cd0 warps=1 pushes=0/0",
            "desktop cas_bfs round 0: seconds=0x3ef7509aa04f2f8b cycles=0x40d79f8000000000 busy=0x3fc1c467d5ed5203 insts=2563 translations=100 transactions=300 contended=24 l3=0x3fe92c5f92c5f92c warps=2 pushes=63/10189",
            "desktop cas_bfs round 1: seconds=0x3ef331893460d33e cycles=0x40d3358000000000 busy=0x3fc60bd11fb5630c insts=6401 translations=252 transactions=756 contended=72 l3=0x3feb9364d9364d93 warps=4 pushes=101/15746",
            "desktop cas_bfs round 2: seconds=0x3ef22d80f23ea8c8 cycles=0x40d21f0000000000 busy=0x3fc7a3ff8ca9859d insts=10167 translations=404 transactions=1212 contended=139 l3=0x3feca7f529fd4a7f warps=7 pushes=67/9160",
            "desktop cas_bfs round 3: seconds=0x3ef34c9ce88926b7 cycles=0x40d3528000000000 busy=0x3fc6384a9e408da1 insts=6722 translations=268 transactions=804 contended=81 l3=0x3fecb80000000000 warps=5 pushes=22/3049",
            "desktop cas_bfs round 4: seconds=0x3ef5cefd9a9e20d7 cycles=0x40d6028000000000 busy=0x3fc2641e7ff78359 insts=2204 translations=88 transactions=264 contended=18 l3=0x3fec870f59044c20 warps=2 pushes=4/467",
            "desktop cas_bfs round 5: seconds=0x3edd765607305808 cycles=0x40ba2a0000000000 busy=0x3fbee1ce50434491 insts=401 translations=16 transactions=48 contended=0 l3=0x3fec7432d63dbb02 warps=1 pushes=1/199",
            "desktop cas_bfs round 6: seconds=0x3ec7a42b4c500dda cycles=0x409d140000000000 busy=0x3fbba64f828b7c7e insts=100 translations=4 transactions=12 contended=0 l3=0x3fec6dc1e2732f57 warps=1 pushes=0/0",
            "skewed coalesced: seconds=0x3ec435b9a721a715 cycles=0x40900d999999999a busy=0x3face8e6799f2d25 insts=336 translations=48 transactions=64 contended=30 l3=0x3fdf000000000000 warps=16",
            "skewed strided: seconds=0x3edb7bc3bab74ca9 cycles=0x40b64d6666666665 busy=0x3f834017961be7a4 insts=400 translations=48 transactions=304 contended=30 l3=0x3fba1af286bca1af warps=16",
            "skewed contended: seconds=0x3f050e5fbe6ab742 cycles=0x40e554ecccccccaf busy=0x3fd18cc12bbbc2c6 insts=267320 translations=120 transactions=20640 contended=10101 l3=0x3fefe306bf4e306c warps=40",
            "skewed rotated: seconds=0x3f095783ccc231bd cycles=0x40e9d78cccccccaf busy=0x3fdb9829bca04d19 insts=308480 translations=120 transactions=20640 contended=3760 l3=0x3fefe306bf4e306c warps=40",
            "skewed atomics: seconds=0x3ed2ccedcf9f8e17 cycles=0x40aa543333333333 busy=0x3fca6475b2941ea0 insts=2093 translations=26 transactions=39 contended=25 l3=0x3fe4834834834835 warps=13",
            "skewed cas: seconds=0x3ec4355859d76b52 cycles=0x40900ccccccccccd busy=0x3fb9c1303064ca37 insts=69 translations=6 transactions=3 contended=2 l3=0x3fe5555555555555 warps=3",
            "skewed reduce: seconds=0x3ed38e374f315770 cycles=0x40abeb0750750750 busy=0x3fc0485e5e657a3f insts=8272 translations=628 transactions=2189 contended=578 l3=0x3feed85ac07f3d66 warps=63",
            "skewed bfs round 0: seconds=0x3ef5ef688ee98e11 cycles=0x40d56ddfffffffe9 busy=0x3f8b69d772a16195 insts=212 translations=8 transactions=306 contended=48 l3=0x3fe94ea3f94ea3f9 warps=2 pushes=68/11095",
            "skewed bfs round 1: seconds=0x3eef9c1e12e099d6 cycles=0x40cdf4999999997d busy=0x3f92af759ddffb2e insts=428 translations=16 transactions=493 contended=206 l3=0x3fea2716bf9978ca warps=4 pushes=135/21331",
            "skewed bfs round 2: seconds=0x3ee8fa8f66877a46 cycles=0x40c6fa199999998c busy=0x3f9a9be249657250 insts=746 translations=28 transactions=629 contended=332 l3=0x3feab06742b06743 warps=7 pushes=104/14702",
            "skewed bfs round 3: seconds=0x3eecb27c0b4523f2 cycles=0x40cae3e666666651 busy=0x3f9940c10d8ffcfb insts=535 translations=20 transactions=440 contended=180 l3=0x3fea9a9633876682 warps=5 pushes=33/4141",
            "skewed bfs round 4: seconds=0x3ef28846a71f238c cycles=0x40d1d9199999998d busy=0x3f91233467950834 insts=205 translations=8 transactions=204 contended=30 l3=0x3fea4d18b5de64d2 warps=2 pushes=5/619",
            "skewed bfs round 5: seconds=0x3ee152204a80a5e3 cycles=0x40bdd5e66666666a busy=0x3f9b14f0280f41c5 insts=101 translations=4 transactions=51 contended=0 l3=0x3fea26d3fc9fa740 warps=1 pushes=1/199",
            "skewed bfs round 6: seconds=0x3ed083c983b52aa2 cycles=0x40a584999999999a busy=0x3fb2080c90f53a44 insts=98 translations=4 transactions=15 contended=0 l3=0x3fea1682c1048cd0 warps=1 pushes=0/0",
            "skewed cas_bfs round 0: seconds=0x3ef8162d1cea74d9 cycles=0x40d7b17ffffffff5 busy=0x3fc1b9178178c226 insts=2563 translations=100 transactions=300 contended=24 l3=0x3fe92c5f92c5f92c warps=2 pushes=63/10189",
            "skewed cas_bfs round 1: seconds=0x3ef3a6dc4bc32806 cycles=0x40d306b333333326 busy=0x3fc650653c5c46e3 insts=6401 translations=252 transactions=756 contended=72 l3=0x3feb9364d9364d93 warps=4 pushes=101/15746",
            "skewed cas_bfs round 2: seconds=0x3ef2892195062a06 cycles=0x40d1d9fffffffff6 busy=0x3fc816033c734189 insts=10167 translations=404 transactions=1212 contended=139 l3=0x3feca7f529fd4a7f warps=7 pushes=67/9160",
            "skewed cas_bfs round 3: seconds=0x3ef3be6d03bda14a cycles=0x40d31f7ffffffffa busy=0x3fc689e411ad54d3 insts=6722 translations=268 transactions=804 contended=81 l3=0x3fecb80000000000 warps=5 pushes=22/3049",
            "skewed cas_bfs round 4: seconds=0x3ef67936955bd18b cycles=0x40d5fee66666665d busy=0x3fc26b89e7d9bc47 insts=2204 translations=88 transactions=264 contended=18 l3=0x3fec870f59044c20 warps=2 pushes=4/467",
            "skewed cas_bfs round 5: seconds=0x3edf5de0e2a4dff2 cycles=0x40ba63999999999d busy=0x3fbe9e66221ae3ce insts=401 translations=16 transactions=48 contended=0 l3=0x3fec7432d63dbb02 warps=1 pushes=1/199",
            "skewed cas_bfs round 6: seconds=0x3eca95d0124810b6 cycles=0x409d78cccccccccc busy=0x3fbb47be33a0fe83 insts=100 translations=4 transactions=12 contended=0 l3=0x3fec6dc1e2732f57 warps=1 pushes=0/0",
        ];
        let (serial, parallel) = got.split_at(got.len() / 2);
        assert_eq!(serial, parallel, "host threads 1 and 8 must report the same bits");
        assert_eq!(serial, want);
    }
}
