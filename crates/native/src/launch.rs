//! Launch drivers: run compiled kernels over the shared region with the
//! CPU simulator's iteration-space chunking, so shared-memory results and
//! traps are bit-identical to the interpreter backend.
//!
//! Determinism model
//!
//! The executor reuses [`concord_cpusim::span_chunks`] with the same chunk
//! count (the simulated core count), so chunk `k` covers exactly the same
//! work-item ids as it would under `CpuSim`. Kernels with order-dependent
//! operations (`device_malloc`, compare-and-swap — [`Work::gated`], decided
//! by the caller) run chunks serially in order,
//! like the simulator's serial path. Kernels `concord-analyze` classifies
//! as **cross-item read hazards** (CA108: a work item may load bytes
//! another item stores, so *intermediate* dynamics depend on the
//! execution schedule even though the fixpoint does not) also run their
//! chunks serially in chunk order — that pins the dynamics to the
//! host_threads=1 schedule, so recorded sessions replay byte-identically
//! (round counts included) at any host fan-out. A launch estimated too
//! small to pay for a pool dispatch (`FAN_OUT_MIN_INSTS`) takes the
//! same in-order path on the caller — the third reason, and like the
//! other two decided from deterministic quantities only, so bytes,
//! `insts`, push-segment order and trap identity cannot depend on it. All
//! other kernels run chunks across host threads writing the live region
//! directly: the per-workload commutativity audit in DESIGN.md shows this
//! commits the
//! same final bytes as the simulator's log-replay merge, and hardware
//! `lock`-prefixed atomics match `apply_rmw` byte-for-byte. Worklist
//! rounds are exempt from the hazard gate: per-chunk push segments merge
//! through a sort+dedup commit and guarded-monotone updates keep every
//! drain deterministic (see DESIGN.md), so they stay parallel. On a
//! trap, the lowest-index trapped chunk's trap is reported
//! (first-trap-wins), matching serial order; region bytes after a
//! trapped *parallel* launch are unspecified (the simulator commits
//! chunk logs up to the trapped chunk, native has already written live)
//! — callers treat a trapped launch as poisoned either way.

use concord_cpusim::span_chunks;
use concord_ir::eval::Trap;
use concord_ir::{FuncId, Module};
use concord_svm::{stage_reduce, CpuAddr, SharedRegion, Span, Work, WorkKind};
use std::collections::HashMap;

use crate::env::{Env, PRIVATE_BYTES};
use crate::NativeModule;

/// Signature of every generated function: `rdi` = environment, `rsi` =
/// pointer to the raw (bit-pattern) argument words, returns raw bits.
type JitFn = unsafe extern "sysv64" fn(*mut Env, *const u64) -> u64;

/// Reconstruct a callable entry from an absolute code address.
fn jit(addr: u64) -> JitFn {
    // SAFETY: addresses come from `NativeModule::code_ptrs`, which point at
    // function entries inside a live R+X `ExecBuf`. Calling the result is
    // itself unsafe; this only forms the pointer.
    unsafe { std::mem::transmute::<usize, JitFn>(addr as usize) }
}

/// Estimated IR instructions a launch must execute before its chunks are
/// worth a pool dispatch; below it they run in order on the caller.
///
/// Measured (release, `nproc` 2, EXPERIMENTS.md "Launch fan-out"): a parked
/// helper starts 19 µs after `concord_pool::map` is called, and four
/// chunks on two threads draw level with running them inline at 10 µs per
/// chunk (45 vs 41 µs), ahead from 20 µs. Generated code retires an IR
/// instruction in 0.5 (loops) to 1.3 ns (light kernels, which are the
/// launches in question), so 32 768 instructions are about 40 µs — two
/// wake-ups — of work: the point of parity, not a tuning knob.
pub(crate) const FAN_OUT_MIN_INSTS: u64 = 32_768;

/// Statistics from one native launch.
#[derive(Debug, Clone, Copy, Default)]
pub struct LaunchStats {
    /// IR instructions charged against the step budget (exact on normal
    /// completion; blocks are pre-charged, so a mid-block trap may count a
    /// few instructions that never retired).
    pub insts: u64,
}

/// Per-core private memories plus launch configuration: the native
/// equivalent of `CpuSim`'s execution state. Private memories are
/// allocated by the first launch (a session that never targets native
/// never pays for them) and persist across launches (uncleared), exactly
/// as the simulator's do.
pub struct Executor {
    privates: Vec<Vec<u8>>,
    cores: usize,
    /// OS threads used to execute chunks of non-gated kernels. Purely a
    /// wall-clock knob: results are identical for every value.
    pub host_threads: usize,
    /// Per-work-item instruction budget (runaway-loop guard), matching
    /// `CpuSim::step_budget_per_item`.
    pub step_budget: i64,
    /// Memoized CA108 verdicts keyed by (kernel, reduce-convention).
    hazard_cache: HashMap<(FuncId, bool), bool>,
    /// Launches whose chunks ran serially because of a CA108 verdict
    /// (not counting gated-op serialization).
    hazard_serialized: u64,
    /// IR instructions per work item of each kernel's previous completed
    /// launch (see [`Executor::pays_for_dispatch`]).
    insts_per_item: HashMap<FuncId, u64>,
}

impl Executor {
    /// Build an executor with `cores` chunk lanes (one private memory
    /// each) executing on up to `host_threads` OS threads.
    pub fn new(cores: usize, host_threads: usize) -> Executor {
        let cores = cores.max(1);
        Executor {
            privates: Vec::new(),
            cores,
            host_threads: host_threads.max(1),
            step_budget: 200_000_000,
            hazard_cache: HashMap::new(),
            hazard_serialized: 0,
            insts_per_item: HashMap::new(),
        }
    }

    /// The chunk-lane count this executor was built with.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// How many launches so far ran their chunks serially because the
    /// analyzer flagged a cross-item read hazard (CA108).
    pub fn hazard_serialized(&self) -> u64 {
        self.hazard_serialized
    }

    /// Whether a launch of `items` work items of `func` is estimated to
    /// execute at least [`FAN_OUT_MIN_INSTS`] IR instructions. The estimate
    /// is `items` × the kernel's instructions per item in its previous
    /// completed launch on this executor — exact counts, so the verdict is
    /// a pure function of the launch history and never of wall-clock.
    /// Before any, it is `items` × the kernel's static instruction count,
    /// which counts a loop body once and no callee: it errs low exactly
    /// for heavy kernels, costing them one inline launch, while a kernel
    /// launched once over many items still fans out the first time.
    pub(crate) fn pays_for_dispatch(&self, module: &Module, func: FuncId, items: u32) -> bool {
        let per_item = self.insts_per_item.get(&func).copied();
        let per_item = per_item.unwrap_or_else(|| module.function(func).placed_inst_count() as u64);
        u64::from(items).saturating_mul(per_item) >= FAN_OUT_MIN_INSTS
    }

    /// Memoized cross-item read-hazard verdict for `func` under the
    /// given launch convention: hazardous kernels read bytes other work
    /// items may write, so their chunks must run in deterministic order.
    fn hazardous(&mut self, module: &Module, func: FuncId, reduce: bool) -> bool {
        *self.hazard_cache.entry((func, reduce)).or_insert_with(|| {
            let mode =
                if reduce { concord_analyze::Mode::Reduce } else { concord_analyze::Mode::For };
            concord_analyze::infer_access(module, func, mode).hazard
        })
    }

    /// Run `work` over `span` with the CPU simulator's chunking: lane `k`
    /// runs chunk `k`'s work items in order, item `i` calling
    /// `func(body, i)` — or `func(body, items[i])` in a worklist round,
    /// whose `push`ed items are appended to `pushes` in fixed (chunk,
    /// work-item, program) order; the caller merges segments into the
    /// next frontier by sorting and deduplicating, so frontier contents
    /// match the simulators' exactly. A reduction folds chunk `k` into a
    /// body copy in slot `k`, then joins the copies into the body
    /// sequentially — the same schedule as `CpuSim` followed by the
    /// runtime's host join, so float accumulation order (and hence the
    /// bits of the total) is identical; it must cover the full iteration
    /// space (native plans are never split).
    ///
    /// Gated kernels, `for`/`reduce` kernels with a cross-item read
    /// hazard (CA108), and launches too small to pay for a dispatch run
    /// their chunks serially in chunk order on the caller; all others fan
    /// chunks out over host threads (see the module docs).
    ///
    /// # Errors
    ///
    /// Any [`Trap`] raised by the kernel or joins; under host parallelism
    /// the lowest-work-item trap wins, as it would serially, and a trap
    /// discards the round's pushes.
    ///
    /// # Panics
    ///
    /// Panics on a reduction without scratch slots, or a worklist round
    /// whose frontier is not `span.grid` long.
    pub fn launch(
        &mut self,
        region: &mut SharedRegion,
        nm: &NativeModule,
        module: &Module,
        work: &Work<'_>,
        span: Span,
        pushes: &mut Vec<i32>,
    ) -> Result<LaunchStats, Trap> {
        let name = &module.function(work.func).name;
        let entry = jit(nm.code_ptrs[work.func.0 as usize]);
        let (lanes, slots) = match work.kind {
            WorkKind::Reduce { body_size, slots, .. } => {
                let used = self.cores.min(slots.len());
                assert!(used >= 1, "need at least one scratch slot");
                stage_reduce(region, work.body, body_size, &slots[..used])?;
                (used, Some(slots))
            }
            WorkKind::Worklist { items } => {
                assert_eq!(items.len() as u32, span.grid, "one frontier item per work-item");
                (self.cores, None)
            }
            WorkKind::For => (self.cores, None),
        };
        let spans = span_chunks(span.lo, span.hi, lanes);
        // Worklist rounds are exempt from the hazard gate (module docs).
        let hazard = !work.gated
            && match work.kind {
                WorkKind::For => self.hazardous(module, work.func, false),
                WorkKind::Reduce { .. } => self.hazardous(module, work.func, true),
                WorkKind::Worklist { .. } => false,
            };
        self.hazard_serialized += u64::from(hazard);

        if self.privates.is_empty() {
            self.privates = (0..self.cores).map(|_| vec![0u8; PRIVATE_BYTES]).collect();
        }
        let (rbase, rlen) = region.raw_parts_mut();
        let privs: Vec<(usize, usize)> =
            self.privates.iter_mut().map(|p| (p.as_mut_ptr() as usize, p.len())).collect();
        let region_base = rbase as usize;
        let budget = self.step_budget;
        let run_chunk = |idx: usize| {
            let (pbase, plen) = privs[idx];
            // Each chunk gets its own Env over its own lane's private
            // memory; the region pointer is shared, and cross-chunk shared
            // writes are confined to generated code (same-value or
            // lock-atomic — see the module docs).
            let mut env = Env::new(
                (region_base as *mut u8, rlen),
                (pbase as *mut u8, plen),
                nm.class_count,
                &nm.code_ptrs,
            );
            let arg0 = slots.map_or(work.body, |s| s[idx]);
            let mut seg: Vec<i32> = Vec::new();
            let (trap, insts) = if let WorkKind::Worklist { items } = work.kind {
                // The frontier item is sign-extended, as the interpreter
                // passes it; `push`es land in this chunk's segment.
                env.wl = &mut seg as *mut Vec<i32>;
                let arg1 = |i: u32| items[i as usize] as i64 as u64;
                run_items(&mut env, entry, name, spans[idx], span.grid, arg0, budget, arg1)
            } else {
                run_items(&mut env, entry, name, spans[idx], span.grid, arg0, budget, u64::from)
            };
            (trap, insts, seg)
        };
        let inline = !self.pays_for_dispatch(module, work.func, span.items());
        let outs = if work.gated || hazard || inline {
            // In chunk order on this thread; chunks after a trap never run.
            let mut outs = Vec::with_capacity(spans.len());
            for idx in 0..spans.len() {
                outs.push(run_chunk(idx));
                if outs[idx].0.is_some() {
                    break;
                }
            }
            outs
        } else {
            concord_pool::map(self.host_threads, spans.len(), run_chunk)
        };
        let mut stats = LaunchStats::default();
        let mut seg: Vec<i32> = Vec::new();
        for (trap, insts, mut chunk_seg) in outs {
            stats.insts += insts;
            if let Some(t) = trap {
                return Err(t);
            }
            seg.append(&mut chunk_seg);
        }
        pushes.append(&mut seg);

        if let (WorkKind::Reduce { join, .. }, Some(slots)) = (work.kind, slots) {
            // Sequential join on lane 0: body.join(acc_k) for each slot,
            // with the simulator's host-call work-item ids (all zero).
            let join_name = &module.function(join).name;
            let jfn = jit(nm.code_ptrs[join.0 as usize]);
            let (pbase, plen) = privs[0];
            let mut env = Env::new(
                (region_base as *mut u8, rlen),
                (pbase as *mut u8, plen),
                nm.class_count,
                &nm.code_ptrs,
            );
            for &slot in &slots[..lanes] {
                env.reset_item(0, 0, budget);
                let args = [work.body.0, slot.0];
                // SAFETY: `jfn` is a generated entry of `nm`; env and args
                // obey the generated calling convention.
                unsafe { jfn(&mut env, args.as_ptr()) };
                stats.insts += (budget - env.steps.max(0)) as u64;
                if let Some(t) = env.take_trap(join_name) {
                    return Err(t);
                }
            }
        }
        if span.items() > 0 {
            self.insts_per_item.insert(work.func, stats.insts / u64::from(span.items()));
        }
        Ok(stats)
    }
}

/// Run work items `[lo, hi)` through `entry` with `arg1(i)` as item `i`'s
/// argument, stopping at the first trap. Returns the trap (if any) and
/// instructions charged. Generic over `arg1` so the id-passing and the
/// frontier-indexing loops are each monomorphized branch-free.
#[allow(clippy::too_many_arguments)]
fn run_items(
    env: &mut Env,
    entry: JitFn,
    name: &str,
    (lo, hi): (u32, u32),
    grid: u32,
    arg0: CpuAddr,
    budget: i64,
    arg1: impl Fn(u32) -> u64,
) -> (Option<Trap>, u64) {
    let mut insts = 0u64;
    for i in lo..hi {
        env.reset_item(i as i64, grid as i64, budget);
        let args = [arg0.0, arg1(i)];
        // SAFETY: `entry` is a generated function of the module whose
        // `code_ptrs` this env carries; the args array outlives the call
        // and the generated code only reads `params.len() <= 2` words.
        unsafe { entry(&mut *env, args.as_ptr()) };
        insts += (budget - env.steps.max(0)) as u64;
        if let Some(t) = env.take_trap(name) {
            return (Some(t), insts);
        }
    }
    (None, insts)
}
