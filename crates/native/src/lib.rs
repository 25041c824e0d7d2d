//! # concord-native
//!
//! x86-64 JIT backend: lowers optimized `concord-ir` straight to machine
//! code in an executable buffer and runs `parallel_for` /
//! `parallel_reduce` launches over the shared region at native speed,
//! with the CPU simulator's exact semantics — same traps, same
//! iteration-space chunking, same reduction join order, byte-identical
//! shared-memory results.
//!
//! The backend exists so the runtime can measure what the paper's CPU
//! baseline *actually costs* in wall-clock terms, instead of inferring it
//! from the simulator's timing model: the simulator interprets IR at
//! hundreds of nanoseconds per instruction, the JIT executes it at
//! native throughput, and both must agree bit-for-bit on every output.
//!
//! Pipeline: [`compile`] runs the lowering pass (linear-scan register
//! allocation over a conservative liveness analysis, then one-pass code
//! emission
//! per function), seals the image in an executable W^X buffer, and
//! resolves per-function entry addresses. [`Executor`] then drives
//! launches, fanning chunks out over host threads via `concord-pool`
//! unless the caller asked for chunk order ([`concord_svm::Work::in_order`]).
//!
//! The backend only targets x86-64 Linux; everywhere else [`supported`]
//! returns `false` and [`compile`] fails with
//! [`CompileError::Unsupported`] so callers can fall back to the
//! interpreter.

mod asm;
mod buffer;
pub mod env;
pub mod launch;
mod lower;
mod regalloc;

use buffer::ExecBuf;
use concord_ir::Module;

pub use env::{Env, MAX_DEPTH, PRIVATE_BASE, PRIVATE_BYTES};
pub use launch::{Executor, LaunchStats};

/// Whether the native backend can execute on this build target.
pub const fn supported() -> bool {
    cfg!(all(target_arch = "x86_64", target_os = "linux"))
}

/// Why a module could not be compiled to native code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The backend is not built for this target (needs x86-64 Linux).
    Unsupported,
    /// A function's frame (allocas + spill slots + argument area) exceeds
    /// the encodable displacement range; names the function.
    TooLarge(String),
    /// An intrinsic call had fewer arguments than the intrinsic requires
    /// (malformed IR that the verifier would reject); names the intrinsic.
    MalformedIntrinsic(&'static str),
    /// The kernel refused an executable mapping (address space exhausted
    /// or a hardened configuration denying anonymous executable memory).
    ExecMap,
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Unsupported => {
                write!(f, "native backend requires x86-64 Linux")
            }
            CompileError::TooLarge(name) => {
                write!(f, "function `{name}` exceeds native frame limits")
            }
            CompileError::MalformedIntrinsic(name) => {
                write!(f, "intrinsic `{name}` called with too few arguments")
            }
            CompileError::ExecMap => {
                write!(f, "could not map executable memory for generated code")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// A module compiled to native code: the executable image plus the
/// absolute entry address of every function, indexed by `FuncId`.
///
/// Compiled modules are immutable and process-wide (helper addresses are
/// baked in, per-launch state lives in [`Env`]), so they are safely
/// shareable — e.g. through the runtime's JIT artifact cache.
#[derive(Debug)]
pub struct NativeModule {
    /// Keeps the R+X mapping alive; `code_ptrs` point into it.
    #[allow(dead_code)]
    buf: ExecBuf,
    pub(crate) code_ptrs: Vec<u64>,
    pub(crate) class_count: u64,
    code_len: usize,
}

impl NativeModule {
    /// Generated machine-code size in bytes (for reporting).
    pub fn code_len(&self) -> usize {
        self.code_len
    }
}

/// Compile every function of `module` to native code.
///
/// The module must be in the optimized post-phi-elimination form the
/// simulators execute (block-local value numbering, phis only at block
/// heads) — exactly what `concord-compiler` produces.
///
/// # Errors
///
/// [`CompileError::Unsupported`] off x86-64 Linux; [`CompileError`]
/// variants for unencodable functions or mapping failure.
pub fn compile(module: &Module) -> Result<NativeModule, CompileError> {
    if !supported() {
        return Err(CompileError::Unsupported);
    }
    let lowered = lower::lower_module(module)?;
    let buf = ExecBuf::new(&lowered.code).ok_or(CompileError::ExecMap)?;
    let code_ptrs = lowered.offsets.iter().map(|&o| buf.addr_at(o)).collect();
    Ok(NativeModule {
        buf,
        code_ptrs,
        class_count: module.classes.len() as u64,
        code_len: lowered.code.len(),
    })
}

#[cfg(test)]
mod tests {
    //! Differential tests: every program runs under both the interpreter
    //! (`CpuSim`) and the JIT on identically-initialized regions, and the
    //! final region bytes must match exactly.

    use super::*;
    use concord_cpusim::CpuSim;
    use concord_frontend::LoweredProgram;
    use concord_ir::analysis::uses_gated_ops;
    use concord_ir::eval::Trap;
    use concord_svm::{CpuAddr, SharedAllocator, SharedRegion, Span, VtableArea, Work, WorkKind};

    /// `parallel_for` over `[0, n)` through [`Executor::launch`].
    fn native_for(
        ex: &mut Executor,
        region: &mut SharedRegion,
        nm: &NativeModule,
        module: &concord_ir::Module,
        func: concord_ir::FuncId,
        body: CpuAddr,
        n: u32,
    ) -> Result<LaunchStats, Trap> {
        let in_order = uses_gated_ops(module, &[func]);
        let work = Work { func, body, kind: WorkKind::For, in_order };
        ex.launch(region, nm, module, &work, Span::full(n), &mut Vec::new())
    }

    fn build(src: &str) -> LoweredProgram {
        let mut lp = concord_frontend::compile(src).unwrap();
        concord_compiler::optimize_for_cpu(&mut lp.module);
        lp
    }

    fn setup(lp: &LoweredProgram, capacity: u64) -> (SharedRegion, SharedAllocator, VtableArea) {
        let reserved = VtableArea::reserve_for(lp.module.classes.len());
        let mut region = SharedRegion::new(capacity, reserved);
        let heap = SharedAllocator::new(&region);
        let vt = VtableArea::install(&mut region, &lp.module).unwrap();
        (region, heap, vt)
    }

    fn region_bytes(region: &mut SharedRegion) -> Vec<u8> {
        let (p, l) = region.raw_parts_mut();
        // SAFETY: raw_parts_mut returns the live allocation of exactly
        // this length; we only read it.
        unsafe { std::slice::from_raw_parts(p, l) }.to_vec()
    }

    /// Run `kernel` as a parallel_for over `n` items under both backends
    /// (fresh identical regions, `init` run on each) and assert that the
    /// trap outcome and every region byte agree, at host-threads 1 and 8.
    fn diff_for(
        src: &str,
        kernel: &str,
        n: u32,
        init: impl Fn(&mut SharedRegion, &mut SharedAllocator) -> CpuAddr,
    ) {
        if !supported() {
            return;
        }
        let lp = build(src);
        let k = lp.kernel(kernel).unwrap();
        let cfg = concord_energy::SystemConfig::ultrabook().cpu;

        let (mut r1, mut h1, vt) = setup(&lp, 1 << 20);
        let body1 = init(&mut r1, &mut h1);
        let mut sim = CpuSim::new(cfg);
        let want = sim.parallel_for(&mut r1, &vt, &lp.module, k.operator_fn, body1, n).err();
        let want_bytes = region_bytes(&mut r1);

        let nm = compile(&lp.module).unwrap();
        for ht in [1usize, 8] {
            let (mut r2, mut h2, _vt) = setup(&lp, 1 << 20);
            let body2 = init(&mut r2, &mut h2);
            assert_eq!(body1, body2, "deterministic setup required for the diff");
            let mut ex = Executor::new(cfg.cores as usize, ht);
            let got = native_for(&mut ex, &mut r2, &nm, &lp.module, k.operator_fn, body2, n).err();
            assert_eq!(got, want, "trap outcome must match interpreter (ht={ht})");
            if want.is_none() {
                assert_eq!(region_bytes(&mut r2), want_bytes, "region bytes differ (ht={ht})");
            }
        }
    }

    #[test]
    fn linked_list_matches_interpreter() {
        let src = r#"
            struct Node { Node* next; };
            class LoopBody {
            public:
                Node* nodes;
                void operator()(int i) { nodes[i].next = &(nodes[i+1]); }
            };
        "#;
        diff_for(src, "LoopBody", 100, |region, heap| {
            let nodes = heap.malloc(101 * 8).unwrap();
            let body = heap.malloc(8).unwrap();
            region.write_ptr(body, nodes).unwrap();
            body
        });
    }

    #[test]
    fn integer_torture_matches_interpreter() {
        let src = r#"
            class K {
            public:
                int* a; uint* u; float* w;
                void operator()(int i) {
                    int x = a[i];
                    uint v = u[i];
                    int y = (x / 3) + (x % 5) - (x << 2) + (x >> 3);
                    y = y ^ (x * 13);
                    y = y & (x | 7);
                    y = y + (x << (i & 15));
                    y = y + (x >> (i & 7));
                    uint z = (v / 7) + (v % 9) + (v >> 2) + (v << 1);
                    int big = x / (0 - 1);
                    float f = w[i];
                    float g = f * 1.5f + (float)x;
                    if (g > 100.0f) { y = y + 70000; } else { y = y - (int)g; }
                    a[i] = y + big + (int)z;
                    u[i] = z;
                    w[i] = g / 3.0f;
                }
            };
        "#;
        let n = 64u32;
        diff_for(src, "K", n, move |region, heap| {
            let a = heap.malloc(n as u64 * 4).unwrap();
            let u = heap.malloc(n as u64 * 4).unwrap();
            let w = heap.malloc(n as u64 * 4).unwrap();
            let ints = [i32::MIN, i32::MAX, -7, 0, 1, 12345, -987654, 42];
            let floats = [f32::NAN, f32::INFINITY, -3.5, 0.0, 1e30, -1e-30, 256.25, -0.0];
            for i in 0..n {
                let base = ints[i as usize % ints.len()];
                region.write_i32(CpuAddr(a.0 + i as u64 * 4), base.wrapping_add(i as i32)).unwrap();
                region
                    .write_i32(
                        CpuAddr(u.0 + i as u64 * 4),
                        (base as u32).wrapping_mul(2654435761) as i32,
                    )
                    .unwrap();
                region
                    .write_f32(CpuAddr(w.0 + i as u64 * 4), floats[i as usize % floats.len()])
                    .unwrap();
            }
            let body = heap.malloc(24).unwrap();
            region.write_ptr(body, a).unwrap();
            region.write_ptr(body.offset(8), u).unwrap();
            region.write_ptr(body.offset(16), w).unwrap();
            body
        });
    }

    #[test]
    fn float_math_matches_interpreter() {
        let src = r#"
            class F {
            public:
                float* w;
                void operator()(int i) {
                    float x = w[i];
                    float a = sqrtf(fabsf(x)) + floorf(x * 0.5f);
                    float b = fminf(expf(x * 0.01f), powf(fmaxf(x, 1.0f), 0.3f));
                    w[i] = a * b - (float)((int)x % 7);
                }
            };
        "#;
        let n = 48u32;
        diff_for(src, "F", n, move |region, heap| {
            let w = heap.malloc(n as u64 * 4).unwrap();
            let vals = [2.0f32, -9.75, 0.0, f32::NAN, 1e6, -1e-6, 123.5, f32::INFINITY];
            for i in 0..n {
                let v = vals[i as usize % vals.len()] + i as f32;
                region.write_f32(CpuAddr(w.0 + i as u64 * 4), v).unwrap();
            }
            let body = heap.malloc(8).unwrap();
            region.write_ptr(body, w).unwrap();
            body
        });
    }

    #[test]
    fn local_arrays_match_interpreter() {
        let src = r#"
            class L {
            public:
                int* outp;
                void operator()(int i) {
                    int tmp[8];
                    for (int j = 0; j < 8; j++) { tmp[j] = i * j + 3; }
                    int s = 0;
                    for (int j = 0; j < 8; j++) { s = s + tmp[j]; }
                    outp[i] = s;
                }
            };
        "#;
        diff_for(src, "L", 32, |region, heap| {
            let out = heap.malloc(32 * 4).unwrap();
            let body = heap.malloc(8).unwrap();
            region.write_ptr(body, out).unwrap();
            body
        });
    }

    #[test]
    fn atomics_match_interpreter() {
        // atomic_add / atomic_min run on the parallel path with hardware
        // lock atomics; the final values are order-independent.
        let src = r#"
            class A {
            public:
                int* d;
                void operator()(int i) {
                    atomic_add(&d[0], i);
                    atomic_min(&d[1], i - 50);
                }
            };
        "#;
        diff_for(src, "A", 200, |region, heap| {
            let d = heap.malloc(16).unwrap();
            region.write_i32(d, 0).unwrap();
            region.write_i32(d.offset(4), 1000).unwrap();
            let body = heap.malloc(8).unwrap();
            region.write_ptr(body, d).unwrap();
            body
        });
    }

    #[test]
    fn cas_kernel_runs_serially_and_matches() {
        // atomic_cas gates the kernel onto the serial path on both
        // backends, so even the order-dependent winner index agrees.
        let src = r#"
            class C {
            public:
                int* d;
                void operator()(int i) {
                    int old = atomic_cas(&d[0], 0, i + 1);
                    d[2 + i] = old;
                }
            };
        "#;
        diff_for(src, "C", 60, |region, heap| {
            let d = heap.malloc(62 * 4).unwrap();
            let body = heap.malloc(8).unwrap();
            region.write_ptr(body, d).unwrap();
            body
        });
    }

    #[test]
    fn virtual_dispatch_matches_interpreter() {
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
        diff_for(src, "K", 1, |region, heap| {
            let circle = heap.malloc(16).unwrap();
            region.write_ptr(circle, VtableArea::addr_of(concord_ir::ClassId(1))).unwrap();
            region.write_f32(circle.offset(8), 2.0).unwrap();
            let body = heap.malloc(16).unwrap();
            region.write_ptr(body, circle).unwrap();
            body
        });
    }

    #[test]
    fn null_deref_trap_matches_interpreter() {
        let src = r#"
            struct Node { Node* next; int v; };
            class K {
            public:
                Node* head; int out;
                void operator()(int i) { out = head->v; }
            };
        "#;
        diff_for(src, "K", 1, |region, heap| {
            let body = heap.malloc(16).unwrap();
            region.write_ptr(body, CpuAddr::NULL).unwrap();
            body
        });
    }

    #[test]
    fn step_limit_trap_matches_interpreter() {
        if !supported() {
            return;
        }
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
        let lp = build(src);
        let k = lp.kernel("K").unwrap();
        let cfg = concord_energy::SystemConfig::ultrabook().cpu;

        let (mut r1, mut h1, vt) = setup(&lp, 1 << 16);
        let body1 = h1.malloc(8).unwrap();
        let mut sim = CpuSim::new(cfg);
        sim.step_budget_per_item = 10_000;
        let want = sim.parallel_for(&mut r1, &vt, &lp.module, k.operator_fn, body1, 4).unwrap_err();

        let nm = compile(&lp.module).unwrap();
        let (mut r2, mut h2, _vt) = setup(&lp, 1 << 16);
        let body2 = h2.malloc(8).unwrap();
        let mut ex = Executor::new(cfg.cores as usize, 8);
        ex.step_budget = 10_000;
        let got =
            native_for(&mut ex, &mut r2, &nm, &lp.module, k.operator_fn, body2, 4).unwrap_err();
        assert_eq!(got, want, "step-limit trap must carry the same kernel name and item id");
    }

    const DOUBLE: &str = r#"
        class Double {
        public:
            int* out; int add;
            void operator()(int i) { out[i] = i * 2 + add; }
        };
    "#;

    #[test]
    fn fan_out_decision_uses_the_static_then_the_measured_count() {
        if !supported() {
            return;
        }
        use launch::FAN_OUT_MIN_INSTS;
        let cfg = concord_energy::SystemConfig::ultrabook().cpu;

        // A light kernel: the static count, then the measured one, each
        // against the same threshold.
        let light = r#"
            class Light {
            public:
                int* out;
                void operator()(int i) {
                    int s = 0;
                    for (int j = 0; j < 3; j++) { s = s + (j ^ i); }
                    out[i] = s;
                }
            };
        "#;
        let lp = build(light);
        let f = lp.kernel("Light").unwrap().operator_fn;
        let nm = compile(&lp.module).unwrap();
        let (mut region, mut heap, _vt) = setup(&lp, 1 << 20);
        let out = heap.malloc(256 * 4).unwrap();
        let body = heap.malloc(8).unwrap();
        region.write_ptr(body, out).unwrap();
        let mut ex = Executor::new(cfg.cores as usize, 8);
        let edge = |per_item: u64| u32::try_from(FAN_OUT_MIN_INSTS.div_ceil(per_item)).unwrap();
        let placed = lp.module.function(f).placed_inst_count() as u64;
        assert!(!ex.pays_for_dispatch(&lp.module, f, edge(placed) - 1));
        assert!(ex.pays_for_dispatch(&lp.module, f, edge(placed)));
        let stats = native_for(&mut ex, &mut region, &nm, &lp.module, f, body, 256).unwrap();
        let measured = stats.insts / 256;
        assert!(measured > placed, "the loop makes the static count a strict lower bound");
        assert!(!ex.pays_for_dispatch(&lp.module, f, edge(measured) - 1));
        assert!(ex.pays_for_dispatch(&lp.module, f, edge(measured)));

        // Four items of a long loop: nothing static says they are heavy,
        // so the first launch runs inline and every later one fans out.
        let heavy = r#"
            class Heavy {
            public:
                int* out;
                void operator()(int i) {
                    int s = 0;
                    for (int j = 0; j < 20000; j++) { s = s + (j ^ i); }
                    out[i] = s;
                }
            };
        "#;
        let lp = build(heavy);
        let f = lp.kernel("Heavy").unwrap().operator_fn;
        let nm = compile(&lp.module).unwrap();
        let (mut region, mut heap, _vt) = setup(&lp, 1 << 20);
        let out = heap.malloc(4 * 4).unwrap();
        let body = heap.malloc(8).unwrap();
        region.write_ptr(body, out).unwrap();
        let mut ex = Executor::new(cfg.cores as usize, 8);
        assert!(!ex.pays_for_dispatch(&lp.module, f, 4));
        native_for(&mut ex, &mut region, &nm, &lp.module, f, body, 4).unwrap();
        assert!(ex.pays_for_dispatch(&lp.module, f, 4));
    }

    #[test]
    fn launches_on_both_sides_of_the_inline_threshold_agree() {
        if !supported() {
            return;
        }
        let cfg = concord_energy::SystemConfig::ultrabook().cpu;
        let lp = build(DOUBLE);
        let f = lp.kernel("Double").unwrap().operator_fn;
        let nm = compile(&lp.module).unwrap();
        let placed = lp.module.function(f).placed_inst_count() as u64;
        let edge = u32::try_from(launch::FAN_OUT_MIN_INSTS.div_ceil(placed)).unwrap();
        // Two launches each: the second decides on the measured count.
        let run = |n: u32, ht: usize| {
            let (mut region, mut heap, _vt) = setup(&lp, 1 << 20);
            let out = heap.malloc(u64::from(n) * 4).unwrap();
            let body = heap.malloc(16).unwrap();
            region.write_ptr(body, out).unwrap();
            region.write_i32(body.offset(8), 7).unwrap();
            let mut ex = Executor::new(cfg.cores as usize, ht);
            let fanned = ex.pays_for_dispatch(&lp.module, f, n);
            let first = native_for(&mut ex, &mut region, &nm, &lp.module, f, body, n).unwrap();
            let again = native_for(&mut ex, &mut region, &nm, &lp.module, f, body, n).unwrap();
            (fanned, first.insts, again.insts, region_bytes(&mut region))
        };
        for n in [edge - 1, edge, 4 * edge] {
            let (serial, parallel) = (run(n, 1), run(n, 8));
            assert_eq!(serial.0, n >= edge, "n = {n} is on the intended side");
            assert!(serial == parallel, "n = {n}: insts or region bytes depend on host threads");
            assert_eq!(serial.1, serial.2, "n = {n}: a relaunch executes the same instructions");
        }

        // Items 5, 1005, 2005, … store out of bounds: the lowest one's
        // trap is reported, inline or fanned out.
        let src = r#"
            class Sparse {
            public:
                int* out;
                void operator()(int i) {
                    if (i % 1000 == 5) { out[i * 4000000] = 1; }
                    out[i] = i;
                }
            };
        "#;
        let lp = build(src);
        let f = lp.kernel("Sparse").unwrap().operator_fn;
        let nm = compile(&lp.module).unwrap();
        let trap = |n: u32, ht: usize| {
            let (mut region, mut heap, _vt) = setup(&lp, 1 << 20);
            let out = heap.malloc(u64::from(n) * 4).unwrap();
            let body = heap.malloc(8).unwrap();
            region.write_ptr(body, out).unwrap();
            let mut ex = Executor::new(cfg.cores as usize, ht);
            let fanned = ex.pays_for_dispatch(&lp.module, f, n);
            (fanned, native_for(&mut ex, &mut region, &nm, &lp.module, f, body, n).unwrap_err())
        };
        let want = trap(8, 1);
        assert!(matches!(want, (false, Trap::BadAddress { .. })), "{want:?}");
        assert_eq!(trap(8, 8), want);
        for ht in [1, 8] {
            assert_eq!(trap(40_000, ht), (true, want.1.clone()), "ht = {ht}");
        }
    }

    #[test]
    fn reduce_total_is_bit_exact() {
        if !supported() {
            return;
        }
        let src = r#"
            class Sum {
            public:
                float* data; float acc;
                void operator()(int i) { acc += data[i]; }
                void join(Sum* other) { acc += other->acc; }
            };
        "#;
        let lp = build(src);
        let k = lp.kernel("Sum").unwrap();
        let cfg = concord_energy::SystemConfig::desktop().cpu;
        let n = 1000u32;
        let init = |region: &mut SharedRegion, heap: &mut SharedAllocator| {
            let data = heap.malloc(n as u64 * 4).unwrap();
            for i in 0..n {
                let v = (i as f32) * 0.1 + 1.0 / (i as f32 + 1.0);
                region.write_f32(CpuAddr(data.0 + i as u64 * 4), v).unwrap();
            }
            let body = heap.malloc(16).unwrap();
            region.write_ptr(body, data).unwrap();
            region.write_f32(body.offset(8), 0.25).unwrap();
            let scratch: Vec<CpuAddr> = (0..8).map(|_| heap.malloc(16).unwrap()).collect();
            (body, scratch)
        };

        let (mut r1, mut h1, vt) = setup(&lp, 1 << 20);
        let (body1, scratch1) = init(&mut r1, &mut h1);
        let mut sim = CpuSim::new(cfg);
        sim.parallel_reduce(
            &mut r1,
            &vt,
            &lp.module,
            k.operator_fn,
            k.join_fn.unwrap(),
            body1,
            16,
            n,
            &scratch1,
        )
        .unwrap();
        let want = region_bytes(&mut r1);
        let want_total = r1.read_f32(body1.offset(8)).unwrap();

        let nm = compile(&lp.module).unwrap();
        for ht in [1usize, 8] {
            let (mut r2, mut h2, _vt) = setup(&lp, 1 << 20);
            let (body2, scratch2) = init(&mut r2, &mut h2);
            let mut ex = Executor::new(cfg.cores as usize, ht);
            let join = k.join_fn.unwrap();
            let work = Work {
                func: k.operator_fn,
                body: body2,
                kind: WorkKind::Reduce { join, body_size: 16, slots: &scratch2 },
                in_order: uses_gated_ops(&lp.module, &[k.operator_fn, join]),
            };
            ex.launch(&mut r2, &nm, &lp.module, &work, Span::full(n), &mut Vec::new()).unwrap();
            let got_total = r2.read_f32(body2.offset(8)).unwrap();
            assert_eq!(got_total.to_bits(), want_total.to_bits(), "join order differs (ht={ht})");
            assert_eq!(region_bytes(&mut r2), want, "region bytes differ (ht={ht})");
        }
    }

    #[test]
    fn gpu_lowered_module_also_compiles_and_matches() {
        // The GPU-lowered module (with CpuToGpu/GpuToCpu translations)
        // must execute identically too: the JIT compiles translations as
        // range-guarded base adds.
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
        if !supported() {
            return;
        }
        let lp = concord_frontend::compile(src).unwrap();
        let art = concord_compiler::lower_for_gpu(&lp.module, concord_compiler::GpuConfig::all(7));
        let kf = art
            .module
            .functions
            .iter()
            .position(|f| f.kernel == Some(concord_ir::KernelKind::ForBody))
            .map(|i| concord_ir::FuncId(i as u32))
            .unwrap();
        let cfg = concord_energy::SystemConfig::ultrabook().cpu;

        let init = |region: &mut SharedRegion, heap: &mut SharedAllocator| {
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
            body
        };

        let (mut r1, mut h1, vt) = setup(&lp, 1 << 20);
        let body1 = init(&mut r1, &mut h1);
        let mut sim = CpuSim::new(cfg);
        sim.parallel_for(&mut r1, &vt, &art.module, kf, body1, 1).unwrap();
        let want = region_bytes(&mut r1);

        let nm = compile(&art.module).unwrap();
        let (mut r2, mut h2, _vt) = setup(&lp, 1 << 20);
        let body2 = init(&mut r2, &mut h2);
        let mut ex = Executor::new(cfg.cores as usize, 2);
        native_for(&mut ex, &mut r2, &nm, &art.module, kf, body2, 1).unwrap();
        assert_eq!(region_bytes(&mut r2), want);
        assert_eq!(r2.read_i32(body2.offset(8)).unwrap(), 42);
    }

    #[test]
    fn unsupported_target_reports_cleanly() {
        if supported() {
            return;
        }
        let lp = build("class K { public: int out; void operator()(int i) { out = i; } };");
        assert_eq!(compile(&lp.module).unwrap_err(), CompileError::Unsupported);
    }
}
