//! # concord-cpusim
//!
//! Multicore-CPU execution substrate: a scalar IR interpreter with a
//! timing model (superscalar issue, gshare branch prediction, L1 + shared
//! LLC caches) and `parallel_for` / `parallel_reduce` drivers that split
//! the iteration space across cores, as TBB would (§2.2).
//!
//! The same IR that the GPU simulator runs in SIMT fashion runs here
//! scalar, one work-item at a time per core — the "same C++ code on either
//! device" property of Concord. Both simulators execute it in one decoded
//! form, a [`Program`], which lives here.

mod cache;
mod interp;
mod predictor;
pub mod program;

pub use cache::Cache;
pub use interp::{load_value, store_value, Counters, WorkIds, PRIVATE_BASE};
pub use program::Program;

use interp::{Buffers, CoreCtx, Interp, LlcSink, PrivateMem};

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
    ///
    /// # Panics
    ///
    /// If `program` was not decoded for `func` ([`Program::decode_from`]).
    pub fn call(
        &mut self,
        region: &mut SharedRegion,
        vtables: &VtableArea,
        program: &Program,
        func: FuncId,
        args: &[Value],
    ) -> Result<Option<Value>, Trap> {
        self.ensure_privates();
        let mut interp = Interp {
            program,
            region,
            vtables,
            private: &mut self.privates[0],
            core: &mut self.cores[0],
            cfg: &self.cfg,
            llc: LlcSink::Live(&mut self.llc),
            ids: WorkIds::default(),
            step_budget: self.step_budget_per_item,
            wl: None,
            bufs: Buffers::default(),
        };
        interp.call(func, args)
    }

    /// Execute `parallel_for_hetero(n, body)` across all cores: iteration
    /// `i` calls `func(body, i)`. A convenience over [`CpuSim::launch`]
    /// that decodes `module` on the spot.
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
        let in_order = uses_gated_ops(module, &[func]);
        let work = Work { func, body, kind: WorkKind::For, in_order, body_invariant: false };
        let mut program = Program::new();
        program.decode(module, &work);
        self.launch(region, vtables, &program, &work, Span::full(n), &mut Vec::new())
    }

    /// Execute `parallel_reduce_hetero(n, body)`: each core accumulates its
    /// chunk into a private copy of the body in its `scratch` slot, then
    /// the copies are joined into the original sequentially on core 0,
    /// exactly as TBB would. A convenience over [`CpuSim::launch`] that
    /// decodes `module` and stages the first slot per core on the spot;
    /// the report covers the accumulation phase.
    ///
    /// # Errors
    ///
    /// Any [`Trap`] raised by the kernel or joins.
    ///
    /// # Panics
    ///
    /// Panics if `scratch` has fewer slots than the simulator has cores.
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
        let slots = &scratch[..self.cfg.cores.max(1) as usize];
        let in_order = uses_gated_ops(module, &[func, join]);
        let kind = WorkKind::Reduce { join, body_size, slots };
        let work = Work { func, body, kind, in_order, body_invariant: false };
        let mut program = Program::new();
        program.decode(module, &work);
        stage_reduce(region, body, body_size, slots)?;
        let report =
            self.launch(region, vtables, &program, &work, Span::full(n), &mut Vec::new())?;
        for &slot in slots {
            let args = [Value::Ptr(body.0, AddrSpace::Cpu), Value::Ptr(slot.0, AddrSpace::Cpu)];
            self.call(region, vtables, &program, join, &args)?;
        }
        Ok(report)
    }

    /// The static tiling of `work` over `span`: one `(lo, hi, first kernel
    /// argument)` per simulated core. A reduction tiles over its slots
    /// and hands chunk `k` slot `k` to accumulate into; every slot gets a
    /// chunk, even an empty one.
    fn chunks(&self, work: &Work<'_>, span: Span) -> Vec<(u32, u32, CpuAddr)> {
        let cores = self.cfg.cores.max(1) as usize;
        let (count, slots) = match work.kind {
            WorkKind::Reduce { slots, .. } => (slots.len(), Some(slots)),
            WorkKind::Worklist { items } => {
                assert_eq!(items.len() as u32, span.grid, "one frontier item per work item");
                (cores, None)
            }
            WorkKind::For => (cores, None),
        };
        assert!((1..=cores).contains(&count), "one to {cores} scratch slots");
        let spans = span_chunks(span.lo, span.hi, count).into_iter().enumerate();
        spans.map(|(k, (lo, hi))| (lo, hi, slots.map_or(work.body, |s| s[k]))).collect()
    }

    /// Run `work` over `span`, statically chunked across all cores, and
    /// append a worklist round's pushes to `pushes` in chunk order. A
    /// reduction accumulates into its slots, which the caller has staged
    /// with body copies ([`stage_reduce`]), and leaves one partial per
    /// slot for the caller to join (possibly together with another
    /// device's partials).
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
    /// Panics on a reduction with no slot or more slots than cores, a
    /// worklist round whose frontier is not `span.grid` long, or a
    /// `program` not decoded for `work` ([`Program::decode`]).
    pub fn launch(
        &mut self,
        region: &mut SharedRegion,
        vtables: &VtableArea,
        program: &Program,
        work: &Work<'_>,
        span: Span,
        pushes: &mut Vec<i32>,
    ) -> Result<CpuReport, Trap> {
        if !work.in_order {
            let pending = self.execute(region, vtables, program, work, span);
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
                pushes: &mut seg,
            };
            let budget = self.step_budget_per_item;
            run_chunk(&self.cfg, budget, program, vtables, work, span.grid, chunk, &mut env)?;
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
    /// [`stage_reduce`]). The chunks share `program` read-only.
    ///
    /// # Panics
    ///
    /// If `program` was not decoded for `work` ([`Program::decode`]).
    pub fn execute(
        &mut self,
        region: &SharedRegion,
        vtables: &VtableArea,
        program: &Program,
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
                pushes: &mut out.pushes,
            };
            let chunk = chunks[idx];
            out.trap =
                run_chunk(cfg, *budget, program, vtables, work, span.grid, chunk, &mut env).err();
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
    program: &Program,
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
        program,
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
        wl: items.map(|_| &mut *env.pushes),
        bufs: Buffers::default(),
    };
    for i in lo..hi {
        interp.ids = WorkIds { global: i as i64, local: 0, group: i as i64, size: grid as i64 };
        interp.step_budget = step_budget;
        let arg1 = items.map_or(i as i64, |items| items[i as usize] as i64);
        interp
            .call(work.func, &[Value::Ptr(arg0.0, AddrSpace::Cpu), Value::I(arg1)])
            .map_err(|t| t.with_kernel(&program.func(work.func).name))?;
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

    const FIG1_SRC: &str = r#"
        struct Node { Node* next; };
        class LoopBody {
        public:
            Node* nodes;
            void operator()(int i) { nodes[i].next = &(nodes[i+1]); }
        };
    "#;

    const SUM_SRC: &str = r#"
        class Sum {
        public:
            float* data; float acc;
            void operator()(int i) { acc += data[i]; }
            void join(Sum* other) { acc += other->acc; }
        };
    "#;

    const LIST_SRC: &str = r#"
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

    #[test]
    fn figure1_builds_a_linked_list() {
        let mut lp = compile(FIG1_SRC).unwrap();
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
        let mut lp = compile(SUM_SRC).unwrap();
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
        let lp = compile(LIST_SRC).unwrap();
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
        // What the runtime's wave routine does after an earlier part of the
        // same launch traps: the later part's pending launch is dropped
        // uncommitted. Its chunks
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

        let work = Work {
            func: bad.operator_fn,
            body: bad_body,
            kind: WorkKind::For,
            in_order: false,
            body_invariant: false,
        };
        let mut program = Program::new();
        program.decode(&lp.module, &work);
        let pending = sim.execute(&region, &vt, &program, &work, Span::full(16));
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

    /// A slot no executed instruction defined reads as a trap, never as a
    /// stale value, in an instruction and in a phi group alike: the twin
    /// of gpusim's `undefined_operands_trap_unreachable`.
    #[test]
    fn undefined_operands_trap_unreachable() {
        use concord_ir::builder::FunctionBuilder;
        use concord_ir::inst::{BinOp, ICmp};
        use concord_ir::types::Type;
        // `x` is defined only when `i > 0`, and read after the paths join:
        // by an add, or by a phi on the edge that skipped it.
        let mut m = Module::new();
        for phi in [false, true] {
            let mut fb =
                FunctionBuilder::new("k", vec![Type::Ptr(AddrSpace::Cpu), Type::I32], Type::I32);
            let i = fb.param(1);
            let zero = fb.i32(0);
            let pos = fb.icmp(ICmp::Sgt, i, zero);
            let (def, skip, join) = (fb.new_block(), fb.new_block(), fb.new_block());
            fb.cond_br(pos, def, skip);
            fb.switch_to(def);
            let x = fb.i32(7);
            fb.br(join);
            fb.switch_to(skip);
            fb.br(join);
            fb.switch_to(join);
            let x = if phi { fb.phi(Type::I32, vec![(def, x), (skip, x)]) } else { x };
            let y = fb.bin(BinOp::Add, x, i);
            fb.ret(Some(y));
            m.add_function(fb.build());
        }
        let mut region = SharedRegion::new(1 << 16, 0);
        let vt = VtableArea::install(&mut region, &m).unwrap();
        let mut sim = CpuSim::new(concord_energy::SystemConfig::ultrabook().cpu);
        for f in [FuncId(0), FuncId(1)] {
            let mut program = Program::new();
            program.decode_from(&m, f);
            let mut call = |i| {
                let args = [Value::Ptr(0, AddrSpace::Cpu), Value::I(i)];
                sim.call(&mut region, &vt, &program, f, &args)
            };
            assert_eq!(call(3), Ok(Some(Value::I(10))));
            assert_eq!(call(0), Err(Trap::Unreachable));
        }
    }

    /// One line per report: the exact bits of every quantity a
    /// `CpuReport` carries.
    fn pin(name: &str, r: &CpuReport) -> String {
        let c = r.counters;
        format!(
            "{name}: cycles={:#x} insts={} loads={} stores={} branches={} calls={} \
             translations={} miss={:#x} l1={:#x}",
            r.critical_cycles.to_bits(),
            c.insts,
            c.loads,
            c.stores,
            c.branches,
            c.calls,
            c.translations,
            r.branch_miss_rate.to_bits(),
            r.l1_hit_rate.to_bits(),
        )
    }

    /// Every simulated quantity of the kernels above, plus a phi rotation,
    /// direct, virtual and recursive calls and all three atomics, at one
    /// and at eight host threads. The values were recorded on the
    /// IR-walking interpreter; running the decoded program must not move
    /// a single bit.
    #[test]
    fn cpusim_reports_are_pinned() {
        const MIXED: &str = r#"
            class Shape {
            public:
                float r;
                virtual float area() { return r; }
            };
            class Circle : public Shape {
            public:
                float area() { return 3.0f * r * r; }
            };
            class Square : public Shape {
            public:
                float area() { return 4.0f * r * r; }
            };
            int fib(int n) {
                if (n < 2) { return n; }
                return fib(n - 1) + fib(n - 2);
            }
            int twice_fib(int n) { return fib(n) * 2; }
            class Mixed {
            public:
                Shape** shapes; float* areas; int* fibs; int* hist;
                void operator()(int i) {
                    areas[i] = shapes[i]->area();
                    fibs[i] = twice_fib(i % 9);
                    int a = 0; int b = 1; int c = 2;
                    for (int j = 0; j < i % 13; j++) { int t = a; a = b; b = c; c = t + j; }
                    int loc[4];
                    loc[1] = a;
                    atomic_add(&loc[1], b);
                    atomic_add(&hist[i % 4], loc[1] + c);
                }
            };
            class Virt {
            public:
                Shape** shapes; float* areas;
                void operator()(int i) {
                    float s = 0.0f;
                    for (int j = 0; j < i + 3; j++) { s += shapes[(i + j) % 3]->area(); }
                    areas[i] = s;
                }
            };
            class Atomics {
            public:
                int* cells;
                void operator()(int i) {
                    int loc[2];
                    loc[0] = i;
                    for (int j = 0; j < i + 3; j++) {
                        atomic_add(&cells[j % 4], j);
                        atomic_min(&loc[0], j);
                    }
                    cells[4 + i] = loc[0];
                }
            };
            class CasLoop {
            public:
                int* cells;
                void operator()(int i) {
                    for (int j = 0; j < i + 3; j++) { atomic_cas(&cells[j % 4], j, i); }
                }
            };
            class Cas {
            public:
                int* cells;
                void operator()(int i) {
                    atomic_cas(&cells[i % 8], 0, i);
                    atomic_min(&cells[8 + i % 8], i);
                }
            };
            class Frames {
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
            class Loop {
            public:
                float* a; int n;
                void operator()(int i) {
                    float s = 0.0f;
                    for (int j = 0; j < n; j++) { s += (float)j; }
                    a[i] = s;
                }
            };
        "#;
        // The shipped systems charge whole cycles for memory, and a sum of
        // integers rounds the same in any order. The skewed system's odd
        // latencies make every charge's position show in the bits.
        let skewed = CpuConfig {
            ipc: 3.7,
            branch_miss_penalty: 13.3,
            l1_hit_cycles: 1.3,
            llc_hit_cycles: 10.7,
            mem_cycles: 70.9,
            ..concord_energy::SystemConfig::desktop().cpu
        };
        let systems =
            [("ultrabook", concord_energy::SystemConfig::ultrabook().cpu), ("skewed", skewed)];
        let mut got = Vec::new();
        for (ht, (system, cfg)) in [1, 8].into_iter().flat_map(|ht| systems.map(|s| (ht, s))) {
            let sim = || {
                let mut s = CpuSim::new(cfg);
                s.host_threads = ht;
                s
            };
            let pin = |name: &str, r: &CpuReport| pin(&format!("{system} {name}"), r);

            let mut lp = compile(FIG1_SRC).unwrap();
            concord_compiler::optimize_for_cpu(&mut lp.module);
            let (mut region, mut heap, vt) = setup(&lp, 1 << 20);
            let nodes = heap.malloc(101 * 8).unwrap();
            let body = heap.malloc(8).unwrap();
            region.write_ptr(body, nodes).unwrap();
            let k = lp.kernel("LoopBody").unwrap().operator_fn;
            let r = sim().parallel_for(&mut region, &vt, &lp.module, k, body, 100);
            got.push(pin("figure1", &r.unwrap()));

            let mut lp = compile(SUM_SRC).unwrap();
            concord_compiler::optimize_for_cpu(&mut lp.module);
            let (mut region, mut heap, vt) = setup(&lp, 1 << 20);
            let data = heap.malloc(1000 * 4).unwrap();
            for i in 0..1000u64 {
                region.write_f32(CpuAddr(data.0 + i * 4), i as f32 * 0.5).unwrap();
            }
            let body = heap.malloc(16).unwrap();
            region.write_ptr(body, data).unwrap();
            let scratch: Vec<CpuAddr> = (0..4).map(|_| heap.malloc(16).unwrap()).collect();
            let k = lp.kernel("Sum").unwrap();
            let (f, j) = (k.operator_fn, k.join_fn.unwrap());
            let r =
                sim().parallel_reduce(&mut region, &vt, &lp.module, f, j, body, 16, 1000, &scratch);
            got.push(pin("reduce", &r.unwrap()));

            let lp = compile(LIST_SRC).unwrap();
            for (s, strategy) in [
                concord_compiler::GpuConfig::baseline(7),
                concord_compiler::GpuConfig::ptropt(7),
                concord_compiler::GpuConfig::all(7),
            ]
            .into_iter()
            .enumerate()
            {
                let art = concord_compiler::lower_for_gpu(&lp.module, strategy);
                let (mut region, mut heap, vt) = setup(&lp, 1 << 20);
                let nodes = heap.malloc(3 * 16).unwrap();
                for (i, v) in [5, 7, 30].iter().enumerate() {
                    let a = CpuAddr(nodes.0 + i as u64 * 16);
                    let next = if i < 2 { a.offset(16) } else { CpuAddr::NULL };
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
                let r = sim().parallel_for(&mut region, &vt, &art.module, kf, body, 4);
                got.push(pin(&format!("gpu_lowered{s}"), &r.unwrap()));
            }

            let mut lp = compile(MIXED).unwrap();
            concord_compiler::optimize_for_cpu(&mut lp.module);
            let ops = |pred: fn(&concord_ir::inst::Op) -> bool| {
                lp.module.functions.iter().flat_map(|f| &f.insts).any(|i| pred(&i.op))
            };
            assert!(ops(|o| matches!(o, concord_ir::inst::Op::Call { .. })), "a direct call");
            assert!(
                ops(|o| matches!(o, concord_ir::inst::Op::CallVirtual { .. })),
                "a virtual call"
            );
            assert!(ops(|o| matches!(o, concord_ir::inst::Op::Phi(_))), "phis");
            let (mut region, mut heap, vt) = setup(&lp, 1 << 20);
            let class = |name: &str| {
                let c = lp.module.classes.iter().position(|c| c.name == name).unwrap();
                VtableArea::addr_of(concord_ir::ClassId(c as u32))
            };
            let n = 64u32;
            let shapes = heap.malloc(u64::from(n) * 8).unwrap();
            for i in 0..u64::from(n) {
                let obj = heap.malloc(16).unwrap();
                let cls = class(["Shape", "Circle", "Square"][(i % 3) as usize]);
                region.write_ptr(obj, cls).unwrap();
                region.write_f32(obj.offset(8), 1.0 + i as f32 * 0.25).unwrap();
                region.write_ptr(CpuAddr(shapes.0 + i * 8), obj).unwrap();
            }
            let body = heap.malloc(32).unwrap();
            region.write_ptr(body, shapes).unwrap();
            region.write_ptr(body.offset(8), heap.malloc(u64::from(n) * 4).unwrap()).unwrap();
            region.write_ptr(body.offset(16), heap.malloc(u64::from(n) * 4).unwrap()).unwrap();
            region.write_ptr(body.offset(24), heap.malloc(16).unwrap()).unwrap();
            let k = lp.kernel("Mixed").unwrap().operator_fn;
            let r = sim().parallel_for(&mut region, &vt, &lp.module, k, body, n);
            got.push(pin("mixed", &r.unwrap()));

            // Sixty-four short launches each put a virtual call's or an
            // atomic's charges astride many powers of two, where their order
            // shows in the rounding; each line folds every launch's bits.
            let cells = heap.malloc(68 * 4).unwrap();
            let cells_body = heap.malloc(8).unwrap();
            region.write_ptr(cells_body, cells).unwrap();
            for (kernel, body) in [("Virt", body), ("Atomics", cells_body), ("CasLoop", cells_body)]
            {
                let k = lp.kernel(kernel).unwrap().operator_fn;
                let mut sim = sim();
                let folded = (1..=64).fold(0u64, |h, n| {
                    let r = sim.parallel_for(&mut region, &vt, &lp.module, k, body, n).unwrap();
                    h.rotate_left(7) ^ r.critical_cycles.to_bits()
                });
                got.push(format!("{system} {kernel}: folded cycles={folded:#x}"));
            }

            let cells = heap.malloc(16 * 4).unwrap();
            let body = heap.malloc(8).unwrap();
            region.write_ptr(body, cells).unwrap();
            let k = lp.kernel("Cas").unwrap().operator_fn;
            assert!(uses_gated_ops(&lp.module, &[k]), "Cas runs on the in-order path");
            let r = sim().parallel_for(&mut region, &vt, &lp.module, k, body, 40);
            got.push(pin("cas", &r.unwrap()));

            let out = heap.malloc(48 * 4).unwrap();
            let body = heap.malloc(8).unwrap();
            region.write_ptr(body, out).unwrap();
            let k = lp.kernel("Frames").unwrap().operator_fn;
            let r = sim().parallel_for(&mut region, &vt, &lp.module, k, body, 48);
            got.push(pin("frames", &r.unwrap()));

            let a = heap.malloc(64 * 4).unwrap();
            let body = heap.malloc(16).unwrap();
            region.write_ptr(body, a).unwrap();
            region.write_i32(body.offset(8), 37).unwrap();
            let k = lp.kernel("Loop").unwrap().operator_fn;
            let r = sim().parallel_for(&mut region, &vt, &lp.module, k, body, 64);
            got.push(pin("loop", &r.unwrap()));
        }
        let want = [
            "ultrabook figure1: cycles=0x4091240000000000 insts=1700 loads=100 stores=100 branches=0 calls=0 translations=0 miss=0x0 l1=0x3fed99999999999a",
            "ultrabook reduce: cycles=0x40b9480000000000 insts=16000 loads=3000 stores=1000 branches=0 calls=0 translations=0 miss=0x0 l1=0x3fef78d4fdf3b646",
            "ultrabook gpu_lowered0: cycles=0x406ca00000000000 insts=240 loads=28 stores=4 branches=16 calls=0 translations=32 miss=0x3fe8000000000000 l1=0x3fee000000000000",
            "ultrabook gpu_lowered1: cycles=0x406c700000000000 insts=228 loads=28 stores=4 branches=16 calls=0 translations=20 miss=0x3fe8000000000000 l1=0x3fee000000000000",
            "ultrabook gpu_lowered2: cycles=0x406c700000000000 insts=228 loads=28 stores=4 branches=16 calls=0 translations=20 miss=0x3fe8000000000000 l1=0x3fee000000000000",
            "ultrabook mixed: cycles=0x40c6b0c000000000 insts=17526 loads=490 stores=192 branches=1612 calls=1298 translations=0 miss=0x3fcba1fc3047257b l1=0x3fee5eb69020f196",
            "ultrabook Virt: folded cycles=0xbb4b7f061c28dde4",
            "ultrabook Atomics: folded cycles=0x961264658f724980",
            "ultrabook CasLoop: folded cycles=0xd2838e21630b3500",
            "ultrabook cas: cycles=0x408f580000000000 insts=760 loads=40 stores=0 branches=0 calls=0 translations=0 miss=0x0 l1=0x3fef5c28f5c28f5c",
            "ultrabook frames: cycles=0x40a0fa0000000000 insts=11856 loads=432 stores=432 branches=864 calls=0 translations=0 miss=0x3faed097b425ed09 l1=0x3fee555555555555",
            "ultrabook loop: cycles=0x40ad780000000000 insts=22656 loads=128 stores=64 branches=2432 calls=0 translations=0 miss=0x3fa79435e50d7943 l1=0x3feed55555555555",
            "skewed figure1: cycles=0x407e0914c1bacf9a insts=1700 loads=100 stores=100 branches=0 calls=0 translations=0 miss=0x0 l1=0x3fecf5c28f5c28f6",
            "skewed reduce: cycles=0x40a72b255cb6a855 insts=16000 loads=3000 stores=1000 branches=0 calls=0 translations=0 miss=0x0 l1=0x3fef70a3d70a3d71",
            "skewed gpu_lowered0: cycles=0x406056bef650426e insts=240 loads=28 stores=4 branches=16 calls=0 translations=32 miss=0x3fe8000000000000 l1=0x3fec000000000000",
            "skewed gpu_lowered1: cycles=0x40603ccccccccccf insts=228 loads=28 stores=4 branches=16 calls=0 translations=20 miss=0x3fe8000000000000 l1=0x3fec000000000000",
            "skewed gpu_lowered2: cycles=0x40603ccccccccccf insts=228 loads=28 stores=4 branches=16 calls=0 translations=20 miss=0x3fe8000000000000 l1=0x3fec000000000000",
            "skewed mixed: cycles=0x40b8182770162309 insts=17526 loads=490 stores=192 branches=1612 calls=1298 translations=0 miss=0x3fd32d1a0b6f2a90 l1=0x3fee06dcff504cde",
            "skewed Virt: folded cycles=0x6482305858230e05",
            "skewed Atomics: folded cycles=0xe6f5bc0a584bdd94",
            "skewed CasLoop: folded cycles=0x329042dacdcb73dd",
            "skewed cas: cycles=0x40812431d0f38bc2 insts=760 loads=40 stores=0 branches=0 calls=0 translations=0 miss=0x0 l1=0x3feeb851eb851eb8",
            "skewed frames: cycles=0x4095ebdeca084dd8 insts=11856 loads=432 stores=432 branches=864 calls=0 translations=0 miss=0x3fbed097b425ed09 l1=0x3fed000000000000",
            "skewed loop: cycles=0x40a0a588fe9dbf4d insts=22656 loads=128 stores=64 branches=2432 calls=0 translations=0 miss=0x3fb0d79435e50d79 l1=0x3fee2aaaaaaaaaab",
        ];
        let (serial, parallel) = got.split_at(got.len() / 2);
        assert_eq!(serial, parallel, "host threads 1 and 8 must report the same bits");
        assert_eq!(serial, want);
    }

    /// The step budget runs out on every instruction of a work item's
    /// tail: mid-block, inside a loop head's phi group, inside a direct
    /// callee, and on a block's last instruction. Even items run the loop
    /// twice and odd items three times, so the odd items' third iteration
    /// (a phi group, a store, then a recursive call) lies between the two
    /// item lengths, and a budget between them lets item 0 finish and
    /// traps item 1. Both launch paths, at one and at eight host threads,
    /// must raise the same trap and leave the same bytes: every item
    /// before the trapped one, and the trapped item's stores up to the
    /// budget.
    #[test]
    fn step_budget_boundary_is_exact() {
        const SRC: &str = r#"
            int bump(int x, int d) {
                if (d > 0) { return bump(x, d - 1) + 1; }
                return x * 3 + 1;
            }
            class Budget {
            public:
                int* out;
                void operator()(int i) {
                    int a = i + 5; int b = 1;
                    for (int j = 0; j < 2 + i % 2; j++) {
                        out[i * 4 + j] = a;
                        int t = bump(a, 1);
                        a = b; b = t;
                    }
                    out[i * 4 + 3] = a + b;
                }
            };
        "#;
        // Instructions of an even and of an odd item, and the step (the
        // count of instructions run, phi copies included) at which each
        // of an item's four stores runs; an even item makes no third.
        const EVEN: u64 = 107;
        const ODD: u64 = 146;
        const EVEN_STORES: [u64; 4] = [26, 65, u64::MAX, 106];
        const ODD_STORES: [u64; 4] = [26, 65, 104, 145];
        const N: u32 = 6;

        let mut lp = compile(SRC).unwrap();
        concord_compiler::optimize_for_cpu(&mut lp.module);
        let k = lp.kernel("Budget").unwrap().operator_fn;
        let ops: Vec<_> = lp.module.function(k).insts.iter().map(|i| &i.op).collect();
        assert!(ops.iter().any(|o| matches!(o, concord_ir::inst::Op::Call { .. })), "a call");
        assert!(ops.iter().any(|o| matches!(o, concord_ir::inst::Op::Phi(_))), "phis");
        let kernel = lp.module.function(k).name.clone();
        let (mut region, mut heap, vt) = setup(&lp, 1 << 16);
        let out = heap.malloc(u64::from(N) * 16).unwrap();
        let body = heap.malloc(8).unwrap();
        region.write_ptr(body, out).unwrap();

        // What a whole item writes, and what its first `steps` steps do.
        let item = |i: i32, steps: u64| {
            let (mut a, mut b, mut w) = (i + 5, 1, [0; 4]);
            let stores = if i % 2 == 0 { EVEN_STORES } else { ODD_STORES };
            for j in 0..2 + i % 2 {
                if stores[j as usize] <= steps {
                    w[j as usize] = a;
                }
                (a, b) = (b, a * 3 + 2);
            }
            if stores[3] <= steps {
                w[3] = a + b;
            }
            w
        };

        // As in `cpusim_reports_are_pinned`: the skewed system's odd
        // latencies make every charge's position show in the bits.
        let skewed = CpuConfig {
            ipc: 3.7,
            branch_miss_penalty: 13.3,
            l1_hit_cycles: 1.3,
            llc_hit_cycles: 10.7,
            mem_cycles: 70.9,
            ..concord_energy::SystemConfig::desktop().cpu
        };
        let systems =
            [("ultrabook", concord_energy::SystemConfig::ultrabook().cpu), ("skewed", skewed)];
        let paths = [(true, 1), (true, 8), (false, 1), (false, 8)];
        let mut got_lines = Vec::new();
        for ((system, cfg), (in_order, ht)) in systems.iter().flat_map(|s| paths.map(|p| (s, p))) {
            // The trapped core's cycles, every trapping budget folded in,
            // and the one report of every budget that does not trap.
            let path = if in_order { "in-order" } else { "fan-out" };
            let mut folded = 0u64;
            let mut reports = Vec::new();
            for budget in EVEN - 3..=ODD + 3 {
                let (trapped, want) = if budget < EVEN {
                    (Some(0), item(0, budget).to_vec())
                } else if budget < ODD {
                    (Some(1), [item(0, u64::MAX), item(1, budget)].concat())
                } else {
                    (None, (0..N as i32).flat_map(|i| item(i, u64::MAX)).collect())
                };
                for i in 0..u64::from(N) * 4 {
                    region.write_i32(CpuAddr(out.0 + i * 4), 0).unwrap();
                }
                let mut sim = CpuSim::new(*cfg);
                sim.host_threads = ht;
                sim.step_budget_per_item = budget;
                let work =
                    Work { func: k, body, kind: WorkKind::For, in_order, body_invariant: false };
                let mut program = Program::new();
                program.decode(&lp.module, &work);
                let span = Span::full(N);
                let r = sim.launch(&mut region, &vt, &program, &work, span, &mut Vec::new());
                let at = format!("{system}, budget {budget}, in_order {in_order}, ht {ht}");
                match (r, trapped) {
                    (Err(t), Some(global_id)) => {
                        let kernel = kernel.clone();
                        assert_eq!(t, Trap::StepLimitExceeded { kernel, global_id }, "{at}");
                        folded = folded.rotate_left(7) ^ sim.core0_cycles().to_bits();
                    }
                    (Ok(r), None) => reports.push(pin(&format!("{system} {path}"), &r)),
                    (r, _) => panic!("{at}: {r:?}"),
                }
                let got: Vec<i32> = (0..u64::from(N) * 4)
                    .map(|i| region.read_i32(CpuAddr(out.0 + i * 4)).unwrap())
                    .collect();
                let want = [want.clone(), vec![0; got.len() - want.len()]].concat();
                assert_eq!(got, want, "{at}");
            }
            assert!(reports.iter().all(|r| *r == reports[0]), "{reports:?}");
            got_lines.push([
                format!("{system} {path} trapped: folded cycles={folded:#x}"),
                reports.swap_remove(0),
            ]);
        }
        // Host threads never move a bit. The paths differ only where the
        // fan-out path charges an LLC access at commit: in the skewed
        // system's rounding.
        let got: Vec<String> = got_lines
            .chunks(2)
            .flat_map(|ht| {
                assert_eq!(ht[0], ht[1], "host threads 1 and 8");
                ht[0].clone()
            })
            .collect();
        let want = [
            "ultrabook in-order trapped: folded cycles=0x3ecc379e9f064d6e",
            "ultrabook in-order: cycles=0x40839a0000000000 insts=759 loads=6 stores=21 branches=51 calls=30 translations=0 miss=0x3fe2323232323232 l1=0x3feb425ed097b426",
            "ultrabook fan-out trapped: folded cycles=0x3ecc379e9f064d6e",
            "ultrabook fan-out: cycles=0x40839a0000000000 insts=759 loads=6 stores=21 branches=51 calls=30 translations=0 miss=0x3fe2323232323232 l1=0x3feb425ed097b426",
            "skewed in-order trapped: folded cycles=0x338e0686d4e65917",
            "skewed in-order: cycles=0x407aba135f7b280c insts=759 loads=6 stores=21 branches=51 calls=30 translations=0 miss=0x3fe2d2d2d2d2d2d3 l1=0x3fea12f684bda12f",
            "skewed fan-out trapped: folded cycles=0x9fb4f860b1ec4b17",
            "skewed fan-out: cycles=0x407aba135f7b2816 insts=759 loads=6 stores=21 branches=51 calls=30 translations=0 miss=0x3fe2d2d2d2d2d2d3 l1=0x3fea12f684bda12f",
        ];
        assert_eq!(got, want);
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
