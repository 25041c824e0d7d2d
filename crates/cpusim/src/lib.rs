//! # concord-cpusim
//!
//! Multicore-CPU execution substrate: a scalar IR interpreter with a
//! timing model (superscalar issue, gshare branch prediction, L1 + shared
//! LLC caches) and `parallel_for` / `parallel_reduce` drivers that split
//! the iteration space across cores, as TBB would (§2.2).
//!
//! The same IR that the GPU simulator runs in SIMT fashion runs here
//! scalar, one work-item at a time per core — the "same C++ code on either
//! device" property of Concord.

pub mod cache;
pub mod interp;
pub mod predictor;

pub use cache::Cache;
pub use interp::{
    classify_raw, CoreCtx, Counters, Interp, LayoutCache, LlcSink, PrivateMem, WorkIds,
    PRIVATE_BASE,
};
pub use predictor::Gshare;

use concord_energy::CpuConfig;
use concord_ir::analysis::uses_gated_ops;
use concord_ir::eval::{Trap, Value};
use concord_ir::types::AddrSpace;
use concord_ir::{FuncId, Module};
use concord_svm::{
    apply_log, stage_reduce, CpuAddr, MemOp, RegionMem, ShadowRegion, SharedRegion, Span,
    VtableArea, Work, WorkKind,
};
use concord_trace::{Tracer, Track};
use std::sync::Mutex;

/// Split `[lo, hi)` into exactly `chunks.max(1)` contiguous ranges.
///
/// The tiling is a pure function of the span and the chunk count: chunk
/// `k` always covers the same indices regardless of how many host threads
/// later execute the chunks, so simulated cores map to iteration ranges
/// deterministically. Trailing ranges may be empty; an empty or inverted
/// input span yields all-empty ranges. Never panics.
pub fn span_chunks(lo: u32, hi: u32, chunks: usize) -> Vec<(u32, u32)> {
    let n = chunks.max(1).min(u32::MAX as usize) as u32;
    let chunk = hi.saturating_sub(lo).div_ceil(n).max(1);
    (0..n)
        .map(|k| {
            let base = k.saturating_mul(chunk);
            let c_lo = lo.saturating_add(base).min(hi);
            let c_hi = lo.saturating_add(base.saturating_add(chunk)).min(hi);
            (c_lo, c_hi)
        })
        .collect()
}

/// Result of a multicore execution phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuReport {
    /// Wall-clock seconds (max over cores, plus fork/join overhead).
    pub seconds: f64,
    /// Cycles of the slowest core.
    pub critical_cycles: f64,
    /// Summed counters over all cores.
    pub counters: Counters,
    /// Branch misprediction rate over all cores.
    pub branch_miss_rate: f64,
    /// L1 hit rate over all cores.
    pub l1_hit_rate: f64,
}

/// Per-chunk outcome of host-parallel execution, merged at commit time.
struct ChunkOut {
    core: CoreCtx,
    llc_log: Vec<u64>,
    mem_log: Vec<MemOp>,
    /// Worklist push segment: items this chunk pushed for the next
    /// frontier, in (work-item, program) order. Empty outside
    /// `parallel_worklist_hetero`.
    pushes: Vec<i32>,
    trap: Option<Trap>,
}

/// An executed-but-uncommitted CPU launch: per-chunk core state, deferred
/// LLC traffic, and shared-memory write logs. Produced by
/// [`CpuSim::execute`] (which may fan chunks out over host threads) and
/// merged back in fixed chunk order by [`CpuSim::commit`], so results are
/// byte-identical for every host-thread count.
pub struct CpuPending {
    chunks: Vec<ChunkOut>,
    /// The construct's trace name.
    what: &'static str,
}

/// Multicore CPU simulator.
///
/// Owns per-core microarchitectural state and the shared LLC; drives
/// parallel constructs by statically chunking the iteration space.
pub struct CpuSim {
    cfg: CpuConfig,
    cores: Vec<CoreCtx>,
    privates: Vec<PrivateMem>,
    llc: Cache,
    layouts: LayoutCache,
    /// Per-work-item instruction budget (runaway-loop guard).
    pub step_budget_per_item: u64,
    /// OS threads used to execute simulated-core chunks. Purely a
    /// wall-clock knob: simulated timing and results are identical for
    /// every value.
    pub host_threads: usize,
    tracer: Tracer,
    /// Monotonic simulated clock across launches (cycles): event
    /// timestamps from successive launches never overlap.
    device_clock: f64,
}

impl CpuSim {
    /// Build a simulator for a CPU configuration.
    pub fn new(cfg: CpuConfig) -> Self {
        let cores = (0..cfg.cores).map(|_| CoreCtx::new(&cfg)).collect();
        CpuSim {
            llc: Cache::new(cfg.llc_bytes, 16),
            cfg,
            cores,
            privates: Vec::new(),
            layouts: LayoutCache::new(),
            step_budget_per_item: 200_000_000,
            host_threads: 1,
            tracer: Tracer::disabled(),
            device_clock: 0.0,
        }
    }

    /// Attach a tracer; each parallel construct then records cache and
    /// branch-predictor counters on the cpusim track, timestamped in
    /// simulated cycles on a clock that is monotonic across launches.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The configuration this simulator models.
    pub fn config(&self) -> &CpuConfig {
        &self.cfg
    }

    /// Accumulated cycles on core 0 (used to time host-side helper calls
    /// such as the sequential join chain after a GPU reduction).
    pub fn core0_cycles(&self) -> f64 {
        self.cores[0].cycles
    }

    /// Allocate the per-core private memories on the first launch or
    /// call: a session that never targets the CPU never pays for them.
    fn ensure_privates(&mut self) {
        if self.privates.is_empty() {
            self.privates = (0..self.cfg.cores).map(|_| PrivateMem::new(1 << 20)).collect();
        }
    }

    fn reset_timing(&mut self) {
        for c in &mut self.cores {
            c.cycles = 0.0;
            c.counters = Counters::default();
        }
    }

    fn report(&self, fork_join_overhead_s: f64) -> CpuReport {
        let critical = self.cores.iter().map(|c| c.cycles).fold(0.0, f64::max);
        let mut counters = Counters::default();
        let mut preds = 0u64;
        let mut miss = 0u64;
        let mut l1h = 0u64;
        let mut l1m = 0u64;
        for c in &self.cores {
            counters.insts += c.counters.insts;
            counters.loads += c.counters.loads;
            counters.stores += c.counters.stores;
            counters.branches += c.counters.branches;
            counters.calls += c.counters.calls;
            counters.translations += c.counters.translations;
            preds += c.predictor.predictions();
            miss += c.predictor.mispredictions();
            l1h += c.l1.hits();
            l1m += c.l1.misses();
        }
        CpuReport {
            seconds: critical / (self.cfg.freq_ghz * 1e9) + fork_join_overhead_s,
            critical_cycles: critical,
            counters,
            branch_miss_rate: if preds == 0 { 0.0 } else { miss as f64 / preds as f64 },
            l1_hit_rate: if l1h + l1m == 0 { 1.0 } else { l1h as f64 / (l1h + l1m) as f64 },
        }
    }

    /// Record a finished construct's counters on the cpusim track and
    /// advance the monotonic device clock past it.
    fn trace_report(&mut self, what: &'static str, r: &CpuReport) {
        self.device_clock += r.critical_cycles;
        if !self.tracer.enabled() {
            return;
        }
        let ts = self.device_clock as u64;
        self.tracer.instant_at(
            Track::CpuSim,
            what,
            ts,
            vec![
                ("insts", r.counters.insts.into()),
                ("loads", r.counters.loads.into()),
                ("stores", r.counters.stores.into()),
                ("branches", r.counters.branches.into()),
                ("translations", r.counters.translations.into()),
            ],
        );
        self.tracer.counter_at(Track::CpuSim, "l1_hit_rate", ts, r.l1_hit_rate);
        self.tracer.counter_at(Track::CpuSim, "branch_miss_rate", ts, r.branch_miss_rate);
        self.tracer.counter_at(Track::CpuSim, "insts", ts, r.counters.insts as f64);
    }

    /// Run a single function call on core 0 (host-side helper, e.g. the
    /// sequential `join` chain of a reduction).
    ///
    /// # Errors
    ///
    /// Any [`Trap`] raised by the callee.
    pub fn call(
        &mut self,
        region: &mut SharedRegion,
        vtables: &VtableArea,
        module: &Module,
        func: FuncId,
        args: &[Value],
    ) -> Result<Option<Value>, Trap> {
        self.ensure_privates();
        let mut interp = Interp {
            module,
            region,
            vtables,
            private: &mut self.privates[0],
            core: &mut self.cores[0],
            cfg: &self.cfg,
            llc: LlcSink::Live(&mut self.llc),
            ids: WorkIds::default(),
            step_budget: self.step_budget_per_item,
            max_depth: 64,
            wl: None,
        };
        interp.call(&mut self.layouts, func, args)
    }

    /// Execute `parallel_for_hetero(n, body)` across all cores: iteration
    /// `i` calls `func(body, i)`. A convenience over [`CpuSim::launch`].
    ///
    /// # Errors
    ///
    /// Any [`Trap`] raised by the kernel.
    pub fn parallel_for(
        &mut self,
        region: &mut SharedRegion,
        vtables: &VtableArea,
        module: &Module,
        func: FuncId,
        body: CpuAddr,
        n: u32,
    ) -> Result<CpuReport, Trap> {
        let gated = uses_gated_ops(module, &[func]);
        let work = Work { func, body, kind: WorkKind::For, gated };
        self.launch(region, vtables, module, &work, Span::full(n), &mut Vec::new())
    }

    /// Execute `parallel_reduce_hetero(n, body)`: each core accumulates its
    /// chunk into a private copy of the body in its `scratch` slot, then
    /// the copies are joined into the original sequentially on core 0,
    /// exactly as TBB would. A convenience over [`CpuSim::launch`]; the
    /// report covers the accumulation phase.
    ///
    /// # Errors
    ///
    /// Any [`Trap`] raised by the kernel or joins.
    ///
    /// # Panics
    ///
    /// Panics if `scratch` is empty.
    #[allow(clippy::too_many_arguments)]
    pub fn parallel_reduce(
        &mut self,
        region: &mut SharedRegion,
        vtables: &VtableArea,
        module: &Module,
        func: FuncId,
        join: FuncId,
        body: CpuAddr,
        body_size: u64,
        n: u32,
        scratch: &[CpuAddr],
    ) -> Result<CpuReport, Trap> {
        let gated = uses_gated_ops(module, &[func, join]);
        let kind = WorkKind::Reduce { join, body_size, slots: scratch };
        let work = Work { func, body, kind, gated };
        let report = self.launch(region, vtables, module, &work, Span::full(n), &mut Vec::new())?;
        for &slot in &scratch[..self.reduce_slots(scratch.len())] {
            let args = [Value::Ptr(body.0, AddrSpace::Cpu), Value::Ptr(slot.0, AddrSpace::Cpu)];
            self.call(region, vtables, module, join, &args)?;
        }
        Ok(report)
    }

    /// Number of scratch slots a reduction will actually use.
    pub fn reduce_slots(&self, scratch_len: usize) -> usize {
        (self.cfg.cores.max(1) as usize).min(scratch_len)
    }

    /// The static tiling of `work` over `span`: one `(lo, hi, first kernel
    /// argument)` per simulated core. A reduction tiles over its used
    /// slots and hands chunk `k` slot `k` to accumulate into; every slot
    /// gets a chunk, even an empty one, so the caller joins exactly
    /// [`CpuSim::reduce_slots`] partials.
    fn chunks(&self, work: &Work<'_>, span: Span) -> Vec<(u32, u32, CpuAddr)> {
        let cores = self.cfg.cores.max(1) as usize;
        let (count, slots) = match work.kind {
            WorkKind::Reduce { slots, .. } => (self.reduce_slots(slots.len()), Some(slots)),
            WorkKind::Worklist { items } => {
                assert_eq!(items.len() as u32, span.grid, "one frontier item per work item");
                (cores, None)
            }
            WorkKind::For => (cores, None),
        };
        assert!(count >= 1, "need at least one scratch slot");
        let spans = span_chunks(span.lo, span.hi, count).into_iter().enumerate();
        spans.map(|(k, (lo, hi))| (lo, hi, slots.map_or(work.body, |s| s[k]))).collect()
    }

    /// Run `work` over `span`, statically chunked across all cores, and
    /// append a worklist round's pushes to `pushes` in chunk order. A
    /// reduction leaves its per-core partials in the slots for the caller
    /// to join (possibly together with another device's partials).
    ///
    /// Gated kernels (order-dependent operations) execute their chunks in
    /// order directly against the live region and LLC; everything else is
    /// [`CpuSim::execute`] followed by [`CpuSim::commit`].
    ///
    /// # Errors
    ///
    /// Any [`Trap`] raised by the kernel; nothing is appended to `pushes`
    /// on a trap.
    ///
    /// # Panics
    ///
    /// Panics on a reduction without scratch slots, or a worklist round
    /// whose frontier is not `span.grid` long.
    pub fn launch(
        &mut self,
        region: &mut SharedRegion,
        vtables: &VtableArea,
        module: &Module,
        work: &Work<'_>,
        span: Span,
        pushes: &mut Vec<i32>,
    ) -> Result<CpuReport, Trap> {
        if let WorkKind::Reduce { body_size, slots, .. } = work.kind {
            let used = self.reduce_slots(slots.len());
            stage_reduce(region, work.body, body_size, &slots[..used])?;
        }
        if !work.gated {
            let pending = self.execute(region, vtables, module, work, span);
            return self.commit(region, pending, pushes);
        }
        self.reset_timing();
        self.ensure_privates();
        let mut seg = Vec::new();
        for (idx, chunk) in self.chunks(work, span).into_iter().enumerate() {
            let mut env = ChunkEnv {
                region: &mut *region,
                core: &mut self.cores[idx],
                private: &mut self.privates[idx],
                llc: LlcSink::Live(&mut self.llc),
                layouts: &mut self.layouts,
                pushes: &mut seg,
            };
            let budget = self.step_budget_per_item;
            run_chunk(&self.cfg, budget, module, vtables, work, span.grid, chunk, &mut env)?;
        }
        pushes.append(&mut seg);
        Ok(self.finish_launch(work.kind.name()))
    }

    /// Execute the chunks of `work` over `span` without committing: each
    /// simulated core's chunk runs against a snapshot of `region` with a
    /// private write-log, possibly on its own host thread.
    /// [`CpuSim::commit`] merges the logs back in chunk order. Private
    /// (stack) memory is the one thing a chunk mutates in place: it
    /// persists uncleared across launches either way, its contents never
    /// feed timing, and copying every core's 1 MiB stack per launch was
    /// most of a small launch's cost. So after a trap, or a pending launch
    /// dropped uncommitted, the stacks hold post-execution bytes. A
    /// reduction's slots must already hold body copies (see
    /// [`stage_reduce`]).
    pub fn execute(
        &mut self,
        region: &SharedRegion,
        vtables: &VtableArea,
        module: &Module,
        work: &Work<'_>,
        span: Span,
    ) -> CpuPending {
        self.reset_timing();
        self.ensure_privates();
        let chunks = self.chunks(work, span);
        // Each chunk executes on its lane's private memory in place, by
        // disjoint `&mut` (the lock is never contended: index `k` is
        // claimed once). The memories stay in the simulator, so a pending
        // launch that is dropped uncommitted takes no stack with it.
        let CpuSim { cfg, cores, privates, step_budget_per_item: budget, .. } = self;
        let privates: Vec<Mutex<&mut PrivateMem>> = privates.iter_mut().map(Mutex::new).collect();
        // One non-empty chunk is a serial launch: run it on this thread.
        let busy = chunks.iter().filter(|(lo, hi, _)| lo < hi).count();
        let threads = if busy > 1 { self.host_threads } else { 1 };
        let outs = concord_pool::map(threads, chunks.len(), |idx| {
            let mut out = ChunkOut {
                core: cores[idx].clone(),
                llc_log: Vec::new(),
                mem_log: Vec::new(),
                pushes: Vec::new(),
                trap: None,
            };
            let mut shadow = ShadowRegion::new(region);
            let mut env = ChunkEnv {
                region: &mut shadow,
                core: &mut out.core,
                private: &mut privates[idx].lock().expect("a chunk's private memory lock"),
                llc: LlcSink::Log(&mut out.llc_log),
                layouts: &mut LayoutCache::new(),
                pushes: &mut out.pushes,
            };
            let chunk = chunks[idx];
            out.trap =
                run_chunk(cfg, *budget, module, vtables, work, span.grid, chunk, &mut env).err();
            out.mem_log = shadow.into_log();
            out
        });
        CpuPending { chunks: outs, what: work.kind.name() }
    }

    /// Merge an executed launch back into the live region, in fixed chunk
    /// order: replay each chunk's deferred LLC traffic through the shared
    /// LLC (charging the chunk's core), apply its write-log, adopt its
    /// core state, and collect its push segment. On a trap, chunks up to
    /// and including the lowest trapped chunk are committed — matching
    /// what serial execution would have left behind — that chunk's trap
    /// is returned, and nothing is appended to `pushes`.
    ///
    /// # Errors
    ///
    /// The trap of the lowest trapped chunk, if any.
    pub fn commit(
        &mut self,
        region: &mut SharedRegion,
        pending: CpuPending,
        pushes: &mut Vec<i32>,
    ) -> Result<CpuReport, Trap> {
        let mut seg: Vec<i32> = Vec::new();
        for (idx, mut chunk) in pending.chunks.into_iter().enumerate() {
            for &addr in &chunk.llc_log {
                chunk.core.cycles += if self.llc.access(addr) {
                    self.cfg.llc_hit_cycles
                } else {
                    self.cfg.mem_cycles
                };
            }
            apply_log(region, &chunk.mem_log);
            seg.append(&mut chunk.pushes);
            self.cores[idx] = chunk.core;
            if let Some(t) = chunk.trap {
                return Err(t);
            }
        }
        pushes.append(&mut seg);
        Ok(self.finish_launch(pending.what))
    }

    /// Build the launch report (with TBB-like fork/join overhead) and
    /// record it on the trace, advancing the simulated device clock.
    fn finish_launch(&mut self, what: &'static str) -> CpuReport {
        let r = self.report(5e-6);
        self.trace_report(what, &r);
        r
    }
}

/// The per-core state one chunk executes against: a live region, core and
/// LLC on the serial path, or a snapshot with cloned core state and
/// deferred LLC traffic under host parallelism.
struct ChunkEnv<'a, M: RegionMem> {
    region: &'a mut M,
    core: &'a mut CoreCtx,
    private: &'a mut PrivateMem,
    llc: LlcSink<'a>,
    layouts: &'a mut LayoutCache,
    /// Worklist push segment, in (work-item, program) order.
    pushes: &'a mut Vec<i32>,
}

/// Run work items `[lo, hi)` of one chunk in order, stopping at the first
/// trap: item `i` calls `func(arg0, i)`, or `func(arg0, items[i])` in a
/// worklist round.
#[allow(clippy::too_many_arguments)]
fn run_chunk<M: RegionMem>(
    cfg: &CpuConfig,
    step_budget: u64,
    module: &Module,
    vtables: &VtableArea,
    work: &Work<'_>,
    grid: u32,
    (lo, hi, arg0): (u32, u32, CpuAddr),
    env: &mut ChunkEnv<'_, M>,
) -> Result<(), Trap> {
    let items = match work.kind {
        WorkKind::Worklist { items } => Some(items),
        _ => None,
    };
    let mut interp = Interp {
        module,
        region: &mut *env.region,
        vtables,
        private: &mut *env.private,
        core: &mut *env.core,
        cfg,
        llc: match &mut env.llc {
            LlcSink::Live(llc) => LlcSink::Live(llc),
            LlcSink::Log(log) => LlcSink::Log(log),
        },
        ids: WorkIds::default(),
        step_budget,
        max_depth: 64,
        wl: items.map(|_| &mut *env.pushes),
    };
    for i in lo..hi {
        interp.ids = WorkIds { global: i as i64, local: 0, group: i as i64, size: grid as i64 };
        interp.step_budget = step_budget;
        let arg1 = items.map_or(i as i64, |items| items[i as usize] as i64);
        interp
            .call(env.layouts, work.func, &[Value::Ptr(arg0.0, AddrSpace::Cpu), Value::I(arg1)])
            .map_err(|t| t.with_kernel(&module.function(work.func).name))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use concord_frontend::compile;
    use concord_svm::SharedAllocator;

    /// Set up a region + vtables for a compiled program.
    fn setup(
        lp: &concord_frontend::LoweredProgram,
        capacity: u64,
    ) -> (SharedRegion, SharedAllocator, VtableArea) {
        let reserved = VtableArea::reserve_for(lp.module.classes.len());
        let mut region = SharedRegion::new(capacity, reserved);
        let heap = SharedAllocator::new(&region);
        let vt = VtableArea::install(&mut region, &lp.module).unwrap();
        (region, heap, vt)
    }

    #[test]
    fn figure1_builds_a_linked_list() {
        let src = r#"
            struct Node { Node* next; };
            class LoopBody {
            public:
                Node* nodes;
                void operator()(int i) { nodes[i].next = &(nodes[i+1]); }
            };
        "#;
        let mut lp = compile(src).unwrap();
        concord_compiler::optimize_for_cpu(&mut lp.module);
        let (mut region, mut heap, vt) = setup(&lp, 1 << 20);
        let n = 100u32;
        let nodes = heap.malloc((n as u64 + 1) * 8).unwrap();
        let body = heap.malloc(8).unwrap();
        region.write_ptr(body, nodes).unwrap();
        let k = lp.kernel("LoopBody").unwrap();
        let mut sim = CpuSim::new(concord_energy::SystemConfig::ultrabook().cpu);
        let report =
            sim.parallel_for(&mut region, &vt, &lp.module, k.operator_fn, body, n).unwrap();
        // Walk the list: node[i].next == &node[i+1].
        for i in 0..n as u64 {
            let next = region.read_ptr(CpuAddr(nodes.0 + i * 8)).unwrap();
            assert_eq!(next.0, nodes.0 + (i + 1) * 8);
        }
        assert!(report.seconds > 0.0);
        assert!(report.counters.stores >= n as u64);
    }

    #[test]
    fn virtual_dispatch_executes_correct_override() {
        let src = r#"
            class Shape {
            public:
                float r;
                virtual float area() { return 0.0f; }
            };
            class Circle : public Shape {
            public:
                float area() { return 3.0f * r * r; }
            };
            class K {
            public:
                Shape* s; float out;
                void operator()(int i) { out = s->area(); }
            };
        "#;
        let mut lp = compile(src).unwrap();
        concord_compiler::optimize_for_cpu(&mut lp.module);
        let (mut region, mut heap, vt) = setup(&lp, 1 << 20);
        // Create a Circle: vptr = vtable of class 1, r = 2.0.
        let circle = heap.malloc(16).unwrap();
        region.write_ptr(circle, VtableArea::addr_of(concord_ir::ClassId(1))).unwrap();
        region.write_f32(circle.offset(8), 2.0).unwrap();
        let body = heap.malloc(16).unwrap();
        region.write_ptr(body, circle).unwrap();
        let k = lp.kernel("K").unwrap();
        let mut sim = CpuSim::new(concord_energy::SystemConfig::desktop().cpu);
        sim.parallel_for(&mut region, &vt, &lp.module, k.operator_fn, body, 1).unwrap();
        let out = region.read_f32(body.offset(8)).unwrap();
        assert_eq!(out, 12.0, "Circle::area must run, not Shape::area");
    }

    #[test]
    fn parallel_reduce_sums() {
        let src = r#"
            class Sum {
            public:
                float* data; float acc;
                void operator()(int i) { acc += data[i]; }
                void join(Sum* other) { acc += other->acc; }
            };
        "#;
        let mut lp = compile(src).unwrap();
        concord_compiler::optimize_for_cpu(&mut lp.module);
        let (mut region, mut heap, vt) = setup(&lp, 1 << 20);
        let n = 1000u32;
        let data = heap.malloc(n as u64 * 4).unwrap();
        for i in 0..n {
            region.write_f32(CpuAddr(data.0 + i as u64 * 4), 1.0).unwrap();
        }
        let body = heap.malloc(16).unwrap();
        region.write_ptr(body, data).unwrap();
        region.write_f32(body.offset(8), 0.0).unwrap();
        let scratch: Vec<CpuAddr> = (0..4).map(|_| heap.malloc(16).unwrap()).collect();
        let k = lp.kernel("Sum").unwrap();
        let mut sim = CpuSim::new(concord_energy::SystemConfig::desktop().cpu);
        sim.parallel_reduce(
            &mut region,
            &vt,
            &lp.module,
            k.operator_fn,
            k.join_fn.unwrap(),
            body,
            16,
            n,
            &scratch,
        )
        .unwrap();
        let total = region.read_f32(body.offset(8)).unwrap();
        assert_eq!(total, n as f32);
    }

    #[test]
    fn gpu_lowered_code_runs_identically() {
        // Differential check: the GPU-lowered module (with translations)
        // interpreted scalar must compute the same result.
        let src = r#"
            struct Node { Node* next; int v; };
            class K {
            public:
                Node* head; int out;
                void operator()(int i) {
                    int s = 0;
                    Node* p = head;
                    while (p != nullptr) { s += p->v; p = p->next; }
                    out = s;
                }
            };
        "#;
        let lp = compile(src).unwrap();
        for strategy in [
            concord_compiler::GpuConfig::baseline(7),
            concord_compiler::GpuConfig::ptropt(7),
            concord_compiler::GpuConfig::all(7),
        ] {
            let art = concord_compiler::lower_for_gpu(&lp.module, strategy);
            let (mut region, mut heap, vt) = setup(&lp, 1 << 20);
            // Three nodes: 5 -> 7 -> 30.
            let nodes = heap.malloc(3 * 16).unwrap();
            for (i, v) in [5, 7, 30].iter().enumerate() {
                let a = CpuAddr(nodes.0 + i as u64 * 16);
                let next =
                    if i < 2 { CpuAddr(nodes.0 + (i as u64 + 1) * 16) } else { CpuAddr::NULL };
                region.write_ptr(a, next).unwrap();
                region.write_i32(a.offset(8), *v).unwrap();
            }
            let body = heap.malloc(16).unwrap();
            region.write_ptr(body, nodes).unwrap();
            let kf = art
                .module
                .functions
                .iter()
                .position(|f| f.kernel == Some(concord_ir::KernelKind::ForBody))
                .map(|i| FuncId(i as u32))
                .unwrap();
            let mut sim = CpuSim::new(concord_energy::SystemConfig::ultrabook().cpu);
            sim.parallel_for(&mut region, &vt, &art.module, kf, body, 1).unwrap();
            assert_eq!(region.read_i32(body.offset(8)).unwrap(), 42);
        }
    }

    #[test]
    fn runaway_loop_hits_step_budget() {
        let src = r#"
            class K {
            public:
                int out;
                void operator()(int i) {
                    int x = 0;
                    while (true) { x += 1; }
                    out = x;
                }
            };
        "#;
        let mut lp = compile(src).unwrap();
        concord_compiler::optimize_for_cpu(&mut lp.module);
        let (mut region, mut heap, vt) = setup(&lp, 1 << 16);
        let body = heap.malloc(8).unwrap();
        let k = lp.kernel("K").unwrap();
        let mut sim = CpuSim::new(concord_energy::SystemConfig::ultrabook().cpu);
        sim.step_budget_per_item = 10_000;
        let err =
            sim.parallel_for(&mut region, &vt, &lp.module, k.operator_fn, body, 1).unwrap_err();
        let Trap::StepLimitExceeded { kernel, global_id } = err else {
            panic!("expected step-limit trap, got {err:?}");
        };
        assert!(kernel.contains("K"), "trap should name the kernel, got `{kernel}`");
        assert_eq!(global_id, 0, "single work-item launch runs global id 0");
    }

    #[test]
    fn null_deref_traps() {
        let src = r#"
            struct Node { Node* next; int v; };
            class K {
            public:
                Node* head; int out;
                void operator()(int i) { out = head->v; }
            };
        "#;
        let mut lp = compile(src).unwrap();
        concord_compiler::optimize_for_cpu(&mut lp.module);
        let (mut region, mut heap, vt) = setup(&lp, 1 << 16);
        let body = heap.malloc(16).unwrap();
        region.write_ptr(body, CpuAddr::NULL).unwrap();
        let k = lp.kernel("K").unwrap();
        let mut sim = CpuSim::new(concord_energy::SystemConfig::ultrabook().cpu);
        let err =
            sim.parallel_for(&mut region, &vt, &lp.module, k.operator_fn, body, 1).unwrap_err();
        assert!(matches!(err, Trap::BadAddress { .. }));
    }

    #[test]
    fn a_dropped_pending_launch_leaves_the_stacks_usable() {
        // What `execute_then_commit` does after an earlier part traps: the
        // later part's pending launch is dropped uncommitted. Its chunks
        // ran on the simulator's own stacks, which must still be there.
        let src = r#"
            struct Node { Node* next; int v; };
            class Bad {
            public:
                Node* head; int out;
                void operator()(int i) {
                    int tmp[8];
                    for (int j = 0; j < 8; j++) { tmp[j] = i + j; }
                    out = head->v + tmp[3];
                }
            };
            class Good {
            public:
                int* out;
                void operator()(int i) {
                    int tmp[8];
                    for (int j = 0; j < 8; j++) { tmp[j] = i * j + 3; }
                    int s = 0;
                    for (int j = 0; j < 8; j++) { s = s + tmp[j]; }
                    out[i] = s;
                }
            };
        "#;
        let mut lp = compile(src).unwrap();
        concord_compiler::optimize_for_cpu(&mut lp.module);
        let (mut region, mut heap, vt) = setup(&lp, 1 << 16);
        let bad_body = heap.malloc(16).unwrap();
        region.write_ptr(bad_body, CpuAddr::NULL).unwrap();
        let out = heap.malloc(16 * 4).unwrap();
        let good_body = heap.malloc(8).unwrap();
        region.write_ptr(good_body, out).unwrap();
        let (bad, good) = (lp.kernel("Bad").unwrap(), lp.kernel("Good").unwrap());
        let mut sim = CpuSim::new(concord_energy::SystemConfig::ultrabook().cpu);
        sim.host_threads = 2;

        let work =
            Work { func: bad.operator_fn, body: bad_body, kind: WorkKind::For, gated: false };
        let pending = sim.execute(&region, &vt, &lp.module, &work, Span::full(16));
        assert!(pending.chunks.iter().all(|c| c.trap.is_some()), "every chunk trapped");
        drop(pending);

        sim.parallel_for(&mut region, &vt, &lp.module, good.operator_fn, good_body, 16).unwrap();
        for i in 0..16i32 {
            let got = region.read_i32(CpuAddr(out.0 + i as u64 * 4)).unwrap();
            assert_eq!(got, (0..8).map(|j| i * j + 3).sum::<i32>(), "item {i}");
        }
    }

    #[test]
    fn timing_scales_with_work() {
        let src = r#"
            class K {
            public:
                float* a; int n;
                void operator()(int i) {
                    float s = 0.0f;
                    for (int j = 0; j < n; j++) { s += (float)j; }
                    a[i] = s;
                }
            };
        "#;
        let mut lp = compile(src).unwrap();
        concord_compiler::optimize_for_cpu(&mut lp.module);
        let (mut region, mut heap, vt) = setup(&lp, 1 << 20);
        let a = heap.malloc(64 * 4).unwrap();
        let body = heap.malloc(16).unwrap();
        region.write_ptr(body, a).unwrap();
        let k = lp.kernel("K").unwrap();
        let mut t = Vec::new();
        for n_inner in [10i32, 100] {
            region.write_i32(body.offset(8), n_inner).unwrap();
            let mut sim = CpuSim::new(concord_energy::SystemConfig::ultrabook().cpu);
            let r =
                sim.parallel_for(&mut region, &vt, &lp.module, k.operator_fn, body, 64).unwrap();
            t.push(r.critical_cycles);
        }
        assert!(t[1] > t[0] * 4.0, "10x inner work must cost visibly more: {t:?}");
    }

    mod span_chunk_properties {
        use super::super::span_chunks;
        use proptest::prelude::*;

        proptest! {
            /// The chunks exactly tile `[lo, hi)` in order: consecutive,
            /// non-overlapping, and covering every work item once. This is
            /// the invariant the determinism model rests on — chunk k's
            /// results always merge at position k over the same ids.
            #[test]
            fn chunks_tile_the_span_exactly(
                lo in 0u32..5000,
                len in 0u32..5000,
                chunks in 0usize..70
            ) {
                let hi = lo + len;
                let spans = span_chunks(lo, hi, chunks);
                prop_assert_eq!(spans.len(), chunks.max(1));
                let mut next = lo;
                for &(c_lo, c_hi) in &spans {
                    prop_assert!(c_lo <= c_hi, "chunk [{}, {}) inverted", c_lo, c_hi);
                    prop_assert_eq!(c_lo, next.min(hi), "chunks must be consecutive");
                    next = c_hi;
                }
                prop_assert_eq!(spans.last().unwrap().1, hi, "chunks must end at hi");
                let total: u64 = spans.iter().map(|&(a, b)| u64::from(b - a)).sum();
                prop_assert_eq!(total, u64::from(len), "every item exactly once");
            }

            /// Degenerate inputs — zero workers (the old divisor bug), an
            /// empty span, spans near u32::MAX — never panic and never
            /// produce items outside `[lo, hi)`.
            #[test]
            fn extreme_inputs_do_not_panic(chunks in 0usize..5) {
                for (s_lo, s_hi) in [
                    (0u32, 0u32),
                    (7, 7),
                    (u32::MAX - 3, u32::MAX),
                    (0, u32::MAX),
                    (u32::MAX, u32::MAX),
                ] {
                    let spans = span_chunks(s_lo, s_hi, chunks);
                    for &(c_lo, c_hi) in &spans {
                        prop_assert!(s_lo <= c_lo && c_hi <= s_hi);
                    }
                    let total: u64 = spans.iter().map(|&(a, b)| u64::from(b - a)).sum();
                    prop_assert_eq!(total, u64::from(s_hi - s_lo));
                }
            }
        }
    }
}
