//! Launch drivers: run compiled kernels over the shared region with the
//! CPU simulator's iteration-space chunking, so shared-memory results and
//! traps are bit-identical to the interpreter backend.
//!
//! One call per chunk
//!
//! Every launched function is a `ForBody` kernel, and every `ForBody`
//! function has a chunk entry (see `lower.rs`): generated code that
//! runs the kernel's prologue once and then loops over the chunk's work
//! items itself, the way a TBB `parallel_for` inlines its body into the
//! chunk loop. The driver describes the chunk in that chunk's [`Env`] —
//! first item, end, first argument, frontier, step budget — makes one
//! call, and reads the trap cells and the instruction count once, on exit.
//! An empty chunk makes no call.
//!
//! Nothing is reset between items. A normal return restores the private
//! stack pointer and the call depth and leaves the trap cells clear, so
//! every item starts with the same private frame address, as in the
//! interpreter (debug builds assert it at chunk exit); `global_size` and
//! `local_id` are per launch. The first trap ends the chunk with
//! `global_id` naming the trapped item. A trap in the prologue (a frame
//! larger than private memory) is reported at the chunk's first item,
//! where the interpreter reports it. `insts` counts the completed items
//! plus what the trapped item was charged.
//!
//! Determinism model
//!
//! The executor reuses [`concord_cpusim::span_chunks`] with the same chunk
//! count (the simulated core count), so chunk `k` covers exactly the same
//! work-item ids as it would under `CpuSim`. Chunks run serially in chunk
//! order on the calling thread for exactly two reasons. The caller sets
//! [`Work::in_order`]: the runtime does so for kernels with order-dependent
//! operations (`device_malloc`, compare-and-swap), like the simulator's
//! serial path, and for **cross-item read hazards** outside worklist
//! rounds (CA108: a work item may load bytes another item stores, so
//! *intermediate* dynamics depend on the execution schedule even though
//! the fixpoint does not) — that pins the dynamics to the host_threads=1
//! schedule, so recorded sessions replay byte-identically (round counts
//! included) at any host fan-out. Or the launch is estimated too small to
//! pay for a pool dispatch (`FAN_OUT_MIN_INSTS`), decided from
//! deterministic quantities only, so bytes, `insts`, push-segment order
//! and trap identity cannot depend on it. All other launches run chunks
//! across host threads writing the live region directly: the
//! per-workload commutativity audit in DESIGN.md shows this commits the
//! same final bytes as the simulator's log-replay merge, and hardware
//! `lock`-prefixed atomics match `apply_rmw` byte-for-byte. On a
//! trap, the lowest-index trapped chunk's trap is reported
//! (first-trap-wins), matching serial order; region bytes after a
//! trapped *parallel* launch are unspecified (the simulator commits
//! chunk logs up to the trapped chunk, native has already written live)
//! — callers treat a trapped launch as poisoned either way.

use concord_cpusim::span_chunks;
use concord_ir::eval::Trap;
use concord_ir::{FuncId, KernelKind, Module};
use concord_svm::{CpuAddr, SharedRegion, Span, Work, WorkKind};
use std::collections::HashMap;

use crate::env::{Env, PRIVATE_BYTES};
use crate::NativeModule;

/// Signature of every generated function's entry: `rdi` = environment,
/// `rsi` = pointer to the raw (bit-pattern) argument words, returns raw
/// bits.
type JitFn = unsafe extern "sysv64" fn(*mut Env, *const u64) -> u64;

/// Signature of a `ForBody` function's chunk entry: `rdi` = the chunk's
/// environment.
type ChunkFn = unsafe extern "sysv64" fn(*mut Env);

/// Reconstruct a callable entry from an absolute code address.
fn jit(addr: u64) -> JitFn {
    // SAFETY: addresses come from `NativeModule::code_ptrs`, which point at
    // function entries inside a live R+X `ExecBuf`. Calling the result is
    // itself unsafe; this only forms the pointer.
    unsafe { std::mem::transmute::<usize, JitFn>(addr as usize) }
}

/// [`jit`] for an address from `NativeModule::chunk_ptrs`.
fn chunk_jit(addr: u64) -> ChunkFn {
    // SAFETY: as in `jit`.
    unsafe { std::mem::transmute::<usize, ChunkFn>(addr as usize) }
}

/// Estimated IR instructions a launch must execute before its chunks are
/// worth a pool dispatch; below it they run in order on the caller.
///
/// Derived when each item cost a Rust-side call (EXPERIMENTS.md "Launch
/// fan-out"): a parked helper started 19 µs after `concord_pool::map` was
/// called, four chunks on two threads drew level with running them inline
/// at about 40 µs of work, and light kernels retired an IR instruction in
/// 1.3 ns, so 32 768 instructions were that parity point.
///
/// Since the item loop is generated code, `Double` retires one in about
/// 0.2 ns, and parity has moved up: on two host threads its two chunks
/// fan out at a loss up to 8 192 items (139 k instructions), draw level
/// around 16 384 (279 k) and win at 32 768 (557 k), with wide spread
/// between runs. The constant stays anyway: launches between it and the
/// new parity lose a few µs each, and raising it to 131 072 bought
/// nothing attributable in alternating `small_launches` and `serve_bulk`
/// pairs, whose launches are either far smaller, in order, or far larger.
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
/// allocated by the first launch or join (a session that never targets
/// native never pays for them) and persist across launches (uncleared),
/// exactly as the simulator's do.
pub struct Executor {
    privates: Vec<Vec<u8>>,
    cores: usize,
    /// OS threads used to execute chunks of launches not run in order.
    /// Purely a wall-clock knob: results are identical for every value.
    pub host_threads: usize,
    /// Per-work-item instruction budget (runaway-loop guard), matching
    /// `CpuSim::step_budget_per_item`.
    pub step_budget: i64,
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
            insts_per_item: HashMap::new(),
        }
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

    fn privates(&mut self) -> &mut [Vec<u8>] {
        if self.privates.is_empty() {
            self.privates = (0..self.cores).map(|_| vec![0u8; PRIVATE_BYTES]).collect();
        }
        &mut self.privates
    }

    /// Run `work` over `span` with the CPU simulator's chunking: one call
    /// of the kernel's chunk entry runs chunk `k`'s work items in order,
    /// item `i` as `func(body, i)` — or `func(body, items[i])` in a
    /// worklist round, whose `push`ed items are appended to `pushes` in
    /// fixed (chunk, work-item, program) order; the caller merges segments
    /// into the next frontier by sorting and deduplicating, so frontier contents
    /// match the simulators' exactly. A reduction tiles over its slots and
    /// folds chunk `k` into slot `k`, which the caller has staged with a
    /// body copy; the caller then joins the slots into the body
    /// ([`Executor::join`]), the same schedule as `CpuSim`'s, so float
    /// accumulation order (and hence the bits of the total) is identical.
    ///
    /// [`Work::in_order`] launches and launches too small to pay for a
    /// dispatch run their chunks serially in chunk order on the caller;
    /// all others fan chunks out over host threads (see the module docs).
    ///
    /// # Errors
    ///
    /// Any [`Trap`] raised by the kernel; under host parallelism the
    /// lowest-work-item trap wins, as it would serially, and a trap
    /// discards the round's pushes.
    ///
    /// # Panics
    ///
    /// Panics if `work.func` is not a `ForBody` kernel, on a reduction
    /// with no slot or more slots than chunk lanes, or a worklist round
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
        let kernel = module.function(work.func);
        let name = &kernel.name;
        assert_eq!(kernel.kernel, Some(KernelKind::ForBody), "launched `{name}` is not a ForBody");
        let entry = chunk_jit(nm.chunk_ptrs[work.func.0 as usize].expect("a ForBody has one"));
        let (lanes, slots) = match work.kind {
            WorkKind::Reduce { slots, .. } => (slots.len(), Some(slots)),
            WorkKind::Worklist { items } => {
                assert_eq!(items.len() as u32, span.grid, "one frontier item per work-item");
                (self.cores, None)
            }
            WorkKind::For => (self.cores, None),
        };
        assert!((1..=self.cores).contains(&lanes), "one to {} slots", self.cores);
        let spans = span_chunks(span.lo, span.hi, lanes);

        let (rbase, rlen) = region.raw_parts_mut();
        let privs: Vec<(usize, usize)> =
            self.privates().iter_mut().map(|p| (p.as_mut_ptr() as usize, p.len())).collect();
        let region_base = rbase as usize;
        let budget = self.step_budget;
        let run_chunk = |idx: usize| {
            let (lo, hi) = spans[idx];
            let mut seg: Vec<i32> = Vec::new();
            if lo == hi {
                return (None, 0, seg);
            }
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
            env.arg0 = slots.map_or(work.body, |s| s[idx]).0;
            env.global_id = i64::from(lo);
            env.item_end = i64::from(hi);
            env.global_size = i64::from(span.grid);
            env.budget = budget;
            env.steps = budget;
            if let WorkKind::Worklist { items } = work.kind {
                // `push`es land in this chunk's segment.
                env.items = items.as_ptr();
                env.wl = &mut seg as *mut Vec<i32>;
            }
            // A reduction's items accumulate into their slot, so only
            // `for` launches and worklist rounds may load fields once.
            let reduce = matches!(work.kind, WorkKind::Reduce { .. });
            env.body_invariant = u64::from(work.body_invariant && !reduce);
            // SAFETY: `entry` is the chunk entry of a function of the
            // module whose `code_ptrs` this env carries; the frontier, the
            // segment and both memories outlive the call.
            unsafe { entry(&mut env) };
            let balanced = env.priv_sp == 0 && env.depth == 0;
            debug_assert!(balanced, "a chunk of `{name}` left its private stack or depth behind");
            let trap = env.take_trap(name);
            // A trapped item's charge is still in `steps`.
            let charged = trap.as_ref().map_or(0, |_| (budget - env.steps.max(0)) as u64);
            (trap, env.insts + charged, seg)
        };
        let outs = if work.in_order || !self.pays_for_dispatch(module, work.func, span.items()) {
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
        if span.items() > 0 {
            self.insts_per_item.insert(work.func, stats.insts / u64::from(span.items()));
        }
        Ok(stats)
    }

    /// A reduction's final join on `CpuSim`'s schedule: `join(body, slot)`
    /// for each slot in order on lane 0, with the simulator's host-call
    /// work-item ids (all zero) and a fresh step budget per call.
    ///
    /// # Errors
    ///
    /// The first [`Trap`] a join raises; later slots are not joined.
    pub fn join(
        &mut self,
        region: &mut SharedRegion,
        nm: &NativeModule,
        module: &Module,
        join: FuncId,
        body: CpuAddr,
        slots: &[CpuAddr],
    ) -> Result<LaunchStats, Trap> {
        let jfn = jit(nm.code_ptrs[join.0 as usize]);
        let private = &mut self.privates()[0];
        let mut env = Env::new(
            region.raw_parts_mut(),
            (private.as_mut_ptr(), private.len()),
            nm.class_count,
            &nm.code_ptrs,
        );
        let mut stats = LaunchStats::default();
        for &slot in slots {
            env.steps = self.step_budget;
            let args = [body.0, slot.0];
            // SAFETY: `jfn` is a generated entry of `nm`; env and args
            // obey the generated calling convention; both memories outlive
            // the call, which leaves stack, depth and trap cells as it found them.
            unsafe { jfn(&mut env, args.as_ptr()) };
            stats.insts += (self.step_budget - env.steps.max(0)) as u64;
            if let Some(t) = env.take_trap(&module.function(join).name) {
                return Err(t);
            }
        }
        Ok(stats)
    }
}
