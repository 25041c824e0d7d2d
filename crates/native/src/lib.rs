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
//! Pipeline: [`compile`] runs the lowering pass (two-class linear-scan
//! register allocation over block liveness, then one-pass code emission
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
#[cfg(test)]
mod testgen;

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
/// absolute entry addresses of every function, indexed by `FuncId`.
///
/// Compiled modules are immutable and process-wide (helper addresses are
/// baked in, per-launch state lives in [`Env`]), so they are safely
/// shareable — e.g. through the runtime's JIT artifact cache.
#[derive(Debug)]
pub struct NativeModule {
    /// Keeps the R+X mapping alive; the entry addresses point into it.
    buf: ExecBuf,
    pub(crate) code_ptrs: Vec<u64>,
    /// The chunk entry of each `ForBody` function (see [`launch`]).
    pub(crate) chunk_ptrs: Vec<Option<u64>>,
    pub(crate) class_count: u64,
}

impl NativeModule {
    /// Generated machine-code size in bytes (for reporting).
    pub fn code_len(&self) -> usize {
        self.code().len()
    }

    /// The generated machine code, every function in `FuncId` order.
    pub fn code(&self) -> &[u8] {
        self.buf.bytes()
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
    let chunk_ptrs = lowered.chunk_offsets.iter().map(|o| o.map(|o| buf.addr_at(o))).collect();
    let class_count = module.classes.len() as u64;
    Ok(NativeModule { buf, code_ptrs, chunk_ptrs, class_count })
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
    use concord_ir::FuncId;
    use concord_svm::{CpuAddr, SharedAllocator, SharedRegion, Span, VtableArea, Work, WorkKind};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `parallel_for` over `[0, n)` through [`Executor::launch`].
    fn native_for(
        ex: &mut Executor,
        region: &mut SharedRegion,
        nm: &NativeModule,
        module: &concord_ir::Module,
        func: FuncId,
        body: CpuAddr,
        n: u32,
    ) -> Result<LaunchStats, Trap> {
        let in_order = uses_gated_ops(module, &[func]);
        let work = Work { func, body, kind: WorkKind::For, in_order, body_invariant: false };
        ex.launch(region, nm, module, &work, Span::full(n), &mut Vec::new())
    }

    fn build(src: &str) -> LoweredProgram {
        let mut lp = concord_frontend::compile(src).unwrap();
        concord_compiler::optimize_for_cpu(&mut lp.module);
        lp
    }

    fn setup(module: &Module, capacity: u64) -> (SharedRegion, SharedAllocator, VtableArea) {
        let reserved = VtableArea::reserve_for(module.classes.len());
        let mut region = SharedRegion::new(capacity, reserved);
        let heap = SharedAllocator::new(&region);
        let vt = VtableArea::install(&mut region, module).unwrap();
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
        let lp = build(src);
        diff_module(&lp.module, lp.kernel(kernel).unwrap().operator_fn, n, init);
    }

    /// [`diff_for`] over an already-built module.
    fn diff_module(
        module: &Module,
        func: FuncId,
        n: u32,
        init: impl Fn(&mut SharedRegion, &mut SharedAllocator) -> CpuAddr,
    ) {
        if !supported() {
            return;
        }
        let cfg = concord_energy::SystemConfig::ultrabook().cpu;

        let (mut r1, mut h1, vt) = setup(module, 1 << 20);
        let body1 = init(&mut r1, &mut h1);
        let mut sim = CpuSim::new(cfg);
        let want = sim.parallel_for(&mut r1, &vt, module, func, body1, n).err();
        let want_bytes = region_bytes(&mut r1);

        let nm = compile(module).unwrap();
        for ht in [1usize, 8] {
            let (mut r2, mut h2, _vt) = setup(module, 1 << 20);
            let body2 = init(&mut r2, &mut h2);
            assert_eq!(body1, body2, "deterministic setup required for the diff");
            let mut ex = Executor::new(cfg.cores as usize, ht);
            let got = native_for(&mut ex, &mut r2, &nm, module, func, body2, n).err();
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

        let (mut r1, mut h1, vt) = setup(&lp.module, 1 << 16);
        let body1 = h1.malloc(8).unwrap();
        let mut sim = CpuSim::new(cfg);
        sim.step_budget_per_item = 10_000;
        let want = sim.parallel_for(&mut r1, &vt, &lp.module, k.operator_fn, body1, 4).unwrap_err();

        let nm = compile(&lp.module).unwrap();
        let (mut r2, mut h2, _vt) = setup(&lp.module, 1 << 16);
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
        let (mut region, mut heap, _vt) = setup(&lp.module, 1 << 20);
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
        let (mut region, mut heap, _vt) = setup(&lp.module, 1 << 20);
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
            let (mut region, mut heap, _vt) = setup(&lp.module, 1 << 20);
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
            let (mut region, mut heap, _vt) = setup(&lp.module, 1 << 20);
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

        let (mut r1, mut h1, vt) = setup(&lp.module, 1 << 20);
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
            let (mut r2, mut h2, _vt) = setup(&lp.module, 1 << 20);
            let (body2, scratch2) = init(&mut r2, &mut h2);
            let mut ex = Executor::new(cfg.cores as usize, ht);
            let join = k.join_fn.unwrap();
            let work = Work {
                func: k.operator_fn,
                body: body2,
                kind: WorkKind::Reduce { join, body_size: 16, slots: &scratch2 },
                in_order: uses_gated_ops(&lp.module, &[k.operator_fn, join]),
                body_invariant: false,
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

        let (mut r1, mut h1, vt) = setup(&lp.module, 1 << 20);
        let body1 = init(&mut r1, &mut h1);
        let mut sim = CpuSim::new(cfg);
        sim.parallel_for(&mut r1, &vt, &art.module, kf, body1, 1).unwrap();
        let want = region_bytes(&mut r1);

        let nm = compile(&art.module).unwrap();
        let (mut r2, mut h2, _vt) = setup(&lp.module, 1 << 20);
        let body2 = init(&mut r2, &mut h2);
        let mut ex = Executor::new(cfg.cores as usize, 2);
        native_for(&mut ex, &mut r2, &nm, &art.module, kf, body2, 1).unwrap();
        assert_eq!(region_bytes(&mut r2), want);
        assert_eq!(r2.read_i32(body2.offset(8)).unwrap(), 42);
    }

    #[test]
    fn loop_carried_swaps_match_interpreter() {
        // Each trip swaps two ints and two floats: the back edge's phi
        // move is two register cycles.
        let src = r#"
            class Swap {
            public:
                int* iout; float* fout;
                void operator()(int i) {
                    int a = i; int b = 100 - i * 3;
                    float x = (float)i * 0.5f; float y = 1.0f / ((float)i + 0.25f);
                    int s = 0; float t = 0.0f;
                    for (int k = 0; k < i % 5 + 2; k++) {
                        int ta = a; a = b; b = ta;
                        float tx = x; x = y; y = tx;
                        s = s + a * (k + 1); t = t + x * (float)k;
                    }
                    iout[3 * i] = a; iout[3 * i + 1] = b; iout[3 * i + 2] = s;
                    fout[3 * i] = x; fout[3 * i + 1] = y; fout[3 * i + 2] = t;
                }
            };
        "#;
        let n = 40u32;
        diff_for(src, "Swap", n, move |region, heap| {
            let iout = heap.malloc(u64::from(n) * 12).unwrap();
            let fout = heap.malloc(u64::from(n) * 12).unwrap();
            let body = heap.malloc(16).unwrap();
            region.write_ptr(body, iout).unwrap();
            region.write_ptr(body.offset(8), fout).unwrap();
            body
        });
    }

    #[test]
    fn floats_live_across_calls_match_interpreter() {
        // `keep` is live across a virtual call, `powf` and `floorf`: every
        // xmm register is caller-saved, so it must come back intact.
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
                Shape* s; float* out;
                void operator()(int i) {
                    float keep = (float)i * 0.25f + 1.0f;
                    float a = s->area();
                    float p = powf(keep, 1.5f);
                    float f = floorf(keep * 3.7f);
                    out[i] = keep * a + p - f + keep;
                }
            };
        "#;
        let n = 24u32;
        diff_for(src, "K", n, move |region, heap| {
            let circle = heap.malloc(16).unwrap();
            region.write_ptr(circle, VtableArea::addr_of(concord_ir::ClassId(1))).unwrap();
            region.write_f32(circle.offset(8), 2.0).unwrap();
            let out = heap.malloc(u64::from(n) * 4).unwrap();
            let body = heap.malloc(16).unwrap();
            region.write_ptr(body, circle).unwrap();
            region.write_ptr(body.offset(8), out).unwrap();
            body
        });
    }

    #[test]
    fn more_live_floats_than_xmm_registers_match_interpreter() {
        // Twenty floats live at once (the pool has fourteen), rotated
        // through one another every trip: spilled and registered values
        // meet in one cyclic edge move.
        const N: usize = 20;
        let loads: String = (0..N).map(|k| format!("float a{k} = src[i * {N} + {k}];\n")).collect();
        let rotate: String = (0..N)
            .map(|k| format!("a{k} = a{} * 0.5f + a{};\n", k + 1, N - 1 - k))
            .take(N - 1)
            .collect();
        let stores: String = (0..N)
            .map(|k| format!("dst[i * {N} + {k}] = a{k} * a{} + a{};\n", N - 1 - k, (k + 1) % N))
            .collect();
        let src = format!(
            "class Many {{ public: float* src; float* dst;
                void operator()(int i) {{
                    {loads}
                    for (int r = 0; r < i % 3 + 1; r++) {{
                        float t = a0;
                        {rotate}
                        a{last} = t + 1.0f;
                    }}
                    {stores}
                }}
            }};",
            last = N - 1
        );
        let n = 16u32;
        diff_for(&src, "Many", n, move |region, heap| {
            let cells = u64::from(n) * N as u64;
            let srcs = heap.malloc(cells * 4).unwrap();
            for c in 0..cells {
                let v = (c as f32) * 0.37 - 11.0 + if c % 7 == 0 { 1e20 } else { 0.0 };
                region.write_f32(CpuAddr(srcs.0 + c * 4), v).unwrap();
            }
            let dst = heap.malloc(cells * 4).unwrap();
            let body = heap.malloc(16).unwrap();
            region.write_ptr(body, srcs).unwrap();
            region.write_ptr(body.offset(8), dst).unwrap();
            body
        });
    }

    #[test]
    fn special_floats_through_fused_branches_match_interpreter() {
        // Every ordered/unordered outcome of each predicate: NaN, signed
        // zeros, infinities, and values that only differ before `f32`
        // rounding.
        let src = r#"
            class Cmp {
            public:
                float* xs; float* ys; int* out;
                void operator()(int i) {
                    float a = xs[i]; float b = ys[i];
                    int r = 0;
                    if (a == b) { r = r + 1; }
                    if (a != b) { r = r + 2; }
                    if (a < b) { r = r + 4; }
                    if (a <= b) { r = r + 8; }
                    if (a > b) { r = r + 16; }
                    if (a >= b) { r = r + 32; }
                    if (a * 3.0f == b * 3.0f) { r = r + 64; }
                    if (a + 16777216.0f > b + 16777216.0f) { r = r + 128; }
                    if (!(a < b)) { r = r + 256; }
                    out[i] = r;
                }
            };
        "#;
        let vals =
            [f32::NAN, -0.0, 0.0, f32::INFINITY, f32::NEG_INFINITY, 1.0, 1.000_000_1, 16_777_217.0];
        let n = (vals.len() * vals.len()) as u32;
        diff_for(src, "Cmp", n, move |region, heap| {
            let xs = heap.malloc(u64::from(n) * 4).unwrap();
            let ys = heap.malloc(u64::from(n) * 4).unwrap();
            for i in 0..n as usize {
                let at = |base: CpuAddr| CpuAddr(base.0 + i as u64 * 4);
                region.write_f32(at(xs), vals[i / vals.len()]).unwrap();
                region.write_f32(at(ys), vals[i % vals.len()]).unwrap();
            }
            let out = heap.malloc(u64::from(n) * 4).unwrap();
            let body = heap.malloc(24).unwrap();
            region.write_ptr(body, xs).unwrap();
            region.write_ptr(body.offset(8), ys).unwrap();
            region.write_ptr(body.offset(16), out).unwrap();
            body
        });
    }

    #[test]
    fn self_operands_dying_into_the_result_match_interpreter() {
        // `b = a` leaves `a op a` in the IR with `a` dying at the op, so
        // the result takes `a`'s register and both operands name it.
        let src = r#"
            class Same {
            public:
                int* xs; float* fs; int* out; float* fout;
                void operator()(int i) {
                    int a = xs[i]; int b = a;
                    out[4 * i] = a - b;
                    int c = xs[i] * 3 + i; int d = c;
                    out[4 * i + 1] = (c - d) + c;
                    int e = xs[i] - 5; int g = e;
                    out[4 * i + 2] = e * g;
                    int h = xs[i] + i; int k = h;
                    out[4 * i + 3] = (h ^ k) + (h & k);
                    float x = fs[i]; float y = x;
                    fout[2 * i] = x - y;
                    float z = fs[i] * 0.5f; float w = z;
                    fout[2 * i + 1] = z * w;
                }
            };
        "#;
        let ints = [i32::MIN, i32::MAX, -7, 0, 1, 12345];
        let floats = [f32::NAN, f32::INFINITY, -0.0, 0.0, 1.5, -3e30];
        let n = 24u32;
        diff_for(src, "Same", n, move |region, heap| {
            let xs = heap.malloc(u64::from(n) * 4).unwrap();
            let fs = heap.malloc(u64::from(n) * 4).unwrap();
            for i in 0..n as usize {
                let at = |base: CpuAddr| CpuAddr(base.0 + i as u64 * 4);
                region.write_i32(at(xs), ints[i % ints.len()]).unwrap();
                region.write_f32(at(fs), floats[i % floats.len()]).unwrap();
            }
            let out = heap.malloc(u64::from(n) * 16).unwrap();
            let fout = heap.malloc(u64::from(n) * 8).unwrap();
            let body = heap.malloc(32).unwrap();
            region.write_ptr(body, xs).unwrap();
            region.write_ptr(body.offset(8), fs).unwrap();
            region.write_ptr(body.offset(16), out).unwrap();
            region.write_ptr(body.offset(24), fout).unwrap();
            body
        });
    }

    /// The kernels of the trap and count parity fixtures. Every class has
    /// the same leading fields, so one body layout serves all three:
    /// `Probe` runs as a `parallel_for` or a worklist round (pushing
    /// `v + 5000` for a negative item), `Total` as a reduction, and `Hog`'s
    /// frame does not fit in private memory. Item `spin` never returns and
    /// items `bad1`/`bad2` divide by `zero`.
    const PARITY: &str = r#"
        class Probe {
        public:
            int* out; int spin; int bad1; int bad2; int zero; int acc;
            void operator()(int v) {
                int x = v * 3 + 1;
                if (v == spin) { while (true) { x = x + 1; } }
                if (v == bad1 || v == bad2) { x = x / zero; }
                out[v & 4095] = x;
                if (v < 0) { push(v + 5000); }
            }
            void join(Probe* o) { acc = acc + o->acc; }
        };
        class Total {
        public:
            int* out; int spin; int bad1; int bad2; int zero; int acc;
            void operator()(int v) {
                int x = v * 3 + 1;
                if (v == spin) { while (true) { x = x + 1; } }
                if (v == bad1 || v == bad2) { x = x / zero; }
                acc = acc + x;
            }
            void join(Total* o) { acc = acc + o->acc; }
        };
        class Hog {
        public:
            int* out; int spin; int bad1; int bad2; int zero; int acc;
            void operator()(int v) {
                int big[300000];
                for (int j = 0; j < 8; j++) { big[j * 1000 + (v & 7)] = v + j; }
                out[v & 4095] = big[7000 + (v & 7)];
            }
            void join(Hog* o) { acc = acc + o->acc; }
        };
    "#;

    /// How a parity fixture launches its kernel.
    #[derive(Debug, Clone, Copy)]
    enum Kind {
        For,
        Reduce,
        Worklist,
    }

    /// An argument no work item has: the fixture's trap is off.
    const NO: i32 = i32::MIN;

    /// Launch `class` of [`PARITY`] as `kind` over `items` (a worklist
    /// round's frontier; `For` and `Reduce` run over `0..items.len()`),
    /// with `[spin, bad1, bad2]` written to the body, under `CpuSim` and
    /// natively at host threads 1 and 8 (desktop: four chunks). Asserts
    /// the trap agrees everywhere and, without a trap, the region bytes
    /// and pushes too; returns the trap and, without one, the native
    /// `LaunchStats::insts`, which must not depend on host threads.
    fn parity(class: &str, kind: Kind, items: &[i32], traps: [i32; 3]) -> (Option<Trap>, u64) {
        const BUDGET: i64 = 10_000;
        let lp = build(PARITY);
        let k = lp.kernel(class).unwrap();
        let (m, f, join) = (&lp.module, k.operator_fn, k.join_fn.unwrap());
        let cfg = concord_energy::SystemConfig::desktop().cpu;
        let n = items.len() as u32;
        let init = |region: &mut SharedRegion, heap: &mut SharedAllocator| {
            let out = heap.malloc(4096 * 4).unwrap();
            let body = heap.malloc(k.body_size).unwrap();
            region.write_ptr(body, out).unwrap();
            for (j, v) in traps.into_iter().chain([0, 0]).enumerate() {
                region.write_i32(body.offset(8 + 4 * j as u64), v).unwrap();
            }
            let slots: Vec<CpuAddr> = (0..4).map(|_| heap.malloc(k.body_size).unwrap()).collect();
            (body, slots)
        };

        let (mut r1, mut h1, vt) = setup(m, 1 << 20);
        let (body1, slots1) = init(&mut r1, &mut h1);
        let work = Work {
            func: f,
            body: body1,
            kind: match kind {
                Kind::For => WorkKind::For,
                Kind::Reduce => WorkKind::Reduce { join, body_size: k.body_size, slots: &slots1 },
                Kind::Worklist => WorkKind::Worklist { items },
            },
            in_order: uses_gated_ops(m, &[f, join]),
            body_invariant: false,
        };
        let mut sim = CpuSim::new(cfg);
        sim.step_budget_per_item = BUDGET as u64;
        let mut want_pushes = Vec::new();
        let want = match kind {
            Kind::Reduce => {
                sim.parallel_reduce(&mut r1, &vt, m, f, join, body1, k.body_size, n, &slots1).err()
            }
            _ => {
                let mut program = concord_cpusim::Program::new();
                program.decode(m, &work);
                sim.launch(&mut r1, &vt, &program, &work, Span::full(n), &mut want_pushes).err()
            }
        };
        let want_bytes = region_bytes(&mut r1);

        let nm = compile(m).unwrap();
        let mut counts = Vec::new();
        for ht in [1usize, 8] {
            let (mut r2, mut h2, _vt) = setup(m, 1 << 20);
            assert_eq!(init(&mut r2, &mut h2), (body1, slots1.clone()), "deterministic setup");
            let mut ex = Executor::new(cfg.cores as usize, ht);
            ex.step_budget = BUDGET;
            let mut pushes = Vec::new();
            let got = ex.launch(&mut r2, &nm, m, &work, Span::full(n), &mut pushes);
            let what = format!("{class} as {kind:?} over {n} items, traps {traps:?}, ht {ht}");
            assert_eq!(got.as_ref().err(), want.as_ref(), "trap differs: {what}");
            if let Ok(stats) = got {
                assert_eq!(region_bytes(&mut r2), want_bytes, "region bytes differ: {what}");
                assert_eq!(pushes, want_pushes, "pushes differ: {what}");
                counts.push(stats.insts);
            }
        }
        assert!(counts.is_empty() || counts[0] == counts[1], "insts depend on host threads");
        (want, counts.first().copied().unwrap_or(0))
    }

    #[test]
    fn chunk_traps_match_interpreter() {
        if !supported() {
            return;
        }
        let ids: Vec<i32> = (0..4000).collect();
        let frontier: Vec<i32> = (0..4000).map(|i| i - 2000).collect();
        for kind in [Kind::For, Kind::Reduce, Kind::Worklist] {
            let (class, items) = match kind {
                Kind::For => ("Probe", &ids),
                Kind::Reduce => ("Total", &ids),
                Kind::Worklist => ("Probe", &frontier),
            };
            // The argument of work item `i`; chunks are 1000 items long.
            let arg = |i: usize| items[i];
            let step_limit = |trap: Option<Trap>, at: i64| {
                let named = format!("{class}::operator()");
                let want = Trap::StepLimitExceeded { kernel: named, global_id: at };
                assert_eq!(trap, Some(want), "{kind:?}");
            };
            // A runaway item in the middle of a chunk names the kernel
            // and itself; so does the first of two traps in one chunk.
            step_limit(parity(class, kind, items, [arg(1500), NO, NO]).0, 1500);
            step_limit(parity(class, kind, items, [arg(1500), arg(1600), NO]).0, 1500);
            // Traps in two chunks: the lower item wins, whichever it is.
            let (trap, _) = parity(class, kind, items, [NO, arg(2600), arg(1700)]);
            assert_eq!(trap, Some(Trap::DivideByZero), "{kind:?}");
            let (trap, _) = parity(class, kind, items, [arg(2600), arg(1700), NO]);
            assert_eq!(trap, Some(Trap::DivideByZero), "{kind:?}");
            step_limit(parity(class, kind, items, [arg(1700), arg(2600), NO]).0, 1700);
            // A frame too large for private memory traps in the prologue.
            let (trap, _) = parity("Hog", kind, items, [NO; 3]);
            assert_eq!(trap, Some(Trap::StackOverflow), "{kind:?}");
        }
    }

    #[test]
    fn chunk_instruction_counts_are_pinned() {
        if !supported() {
            return;
        }
        // Fewer items than chunks leaves chunks empty; a frontier may hold
        // negative items. The counts are the per-item driver's.
        let ids = |n: i32| (0..n).collect::<Vec<i32>>();
        let wave: Vec<i32> = vec![-9, -3, 0, 4, 7, -4000, 12, 40, -1, 5];
        for (class, kind, items, want) in [
            ("Probe", Kind::For, ids(0), 0),
            ("Probe", Kind::For, ids(1), 44),
            ("Probe", Kind::For, ids(3), 132),
            ("Probe", Kind::For, ids(4000), 176_000),
            ("Total", Kind::Reduce, ids(0), 40),
            ("Total", Kind::Reduce, ids(1), 75),
            ("Total", Kind::Reduce, ids(3), 145),
            ("Total", Kind::Reduce, ids(4000), 140_040),
            ("Probe", Kind::Worklist, vec![], 0),
            ("Probe", Kind::Worklist, vec![-7], 47),
            ("Probe", Kind::Worklist, vec![-7, 2, -3], 138),
            ("Probe", Kind::Worklist, wave, 452),
        ] {
            let (trap, insts) = parity(class, kind, &items, [NO; 3]);
            let what = format!("{class} as {kind:?} over {items:?}");
            assert_eq!((trap, insts), (None, want), "{what}");
        }
    }

    /// A chunk that loads its body fields once must leave the same bytes,
    /// pushes, trap and instruction count as one that reloads them per
    /// item: the parity fixture as a `for` launch and a worklist round,
    /// and a kernel whose hoisted float field lives across a call.
    #[test]
    fn an_invariant_body_changes_no_byte_trap_or_count() {
        if !supported() {
            return;
        }
        const SCALE: &str = r#"
            class Scale {
            public:
                float* xs; float* out; float k; int m;
                void operator()(int i) { out[i] = floorf(xs[i] * k) + (float)(i % m); }
            };
        "#;
        let n = 4000u32;
        let frontier: Vec<i32> = (0..n as i32).map(|i| i - 2000).collect();
        for (src, class, traps) in [
            (PARITY, "Probe", [NO; 3]),
            (PARITY, "Probe", [1500, NO, NO]),
            (PARITY, "Probe", [NO, 2600, 1700]),
            (SCALE, "Scale", [NO; 3]),
        ] {
            let lp = build(src);
            let k = lp.kernel(class).unwrap();
            let (m, f) = (&lp.module, k.operator_fn);
            let nm = compile(m).unwrap();
            for (items, ht) in [(None, 1), (None, 8), (Some(&frontier), 1), (Some(&frontier), 8)] {
                let run = |body_invariant| {
                    let (mut region, mut heap, _vt) = setup(m, 1 << 20);
                    let body = heap.malloc(k.body_size).unwrap();
                    let (a, b) = (heap.malloc(4 * 4096).unwrap(), heap.malloc(4 * 4096).unwrap());
                    region.write_ptr(body, a).unwrap();
                    if class == "Scale" {
                        region.write_ptr(body.offset(8), b).unwrap();
                        region.write_f32(body.offset(16), 2.75).unwrap();
                        region.write_i32(body.offset(20), 7).unwrap();
                        for i in 0..4096 {
                            region.write_f32(a.offset(4 * i), i as f32 * 0.37).unwrap();
                        }
                    } else {
                        for (j, v) in traps.into_iter().enumerate() {
                            region.write_i32(body.offset(8 + 4 * j as u64), v).unwrap();
                        }
                    }
                    let kind = items.map_or(WorkKind::For, |items| WorkKind::Worklist { items });
                    let work = Work { func: f, body, kind, in_order: false, body_invariant };
                    let mut ex = Executor::new(4, ht);
                    ex.step_budget = 10_000;
                    let mut pushes = Vec::new();
                    let got = ex.launch(&mut region, &nm, m, &work, Span::full(n), &mut pushes);
                    (got.map(|s| s.insts), region_bytes(&mut region), pushes)
                };
                let what =
                    format!("{class}, traps {traps:?}, frontier {}, ht {ht}", items.is_some());
                assert!(run(true) == run(false), "{what}");
            }
        }
    }

    /// Three ForBody kernels over a body whose first field is `int* out`:
    /// `outer` (function 0) calls `inner` (function 1) directly, and
    /// `countdown` (function 2) calls itself on `i - 1` down to zero. Each
    /// value stored depends only on the cell it lands in, so items that
    /// overlap store the same bytes.
    fn calling_kernels() -> Module {
        use concord_ir::builder::FunctionBuilder;
        use concord_ir::inst::{BinOp, CastOp, ICmp};
        use concord_ir::types::{AddrSpace, Type};
        let params = vec![Type::Ptr(AddrSpace::Cpu), Type::I32];
        // `out[cell(i)] = value(i)`, both affine in the item argument.
        let store = |fb: &mut FunctionBuilder, (cm, ca): (i64, i64), (vm, va): (i32, i32)| {
            let (body, i) = (fb.param(0), fb.param(1));
            let out = fb.load(body, Type::Ptr(AddrSpace::Cpu));
            let wide = fb.cast(CastOp::Sext, i, Type::I64);
            let (cm, ca) = (fb.i64(4 * cm), fb.i64(4 * ca));
            let off = fb.bin(BinOp::Mul, wide, cm);
            let off = fb.bin(BinOp::Add, off, ca);
            let at = fb.gep(out, off);
            let (vm, va) = (fb.i32(vm), fb.i32(va));
            let v = fb.bin(BinOp::Mul, i, vm);
            let v = fb.bin(BinOp::Add, v, va);
            fb.store(at, v);
        };
        let mut m = Module::new();
        let mut outer = FunctionBuilder::new("outer", params.clone(), Type::Void);
        let args = vec![outer.param(0), outer.param(1)];
        outer.call(FuncId(1), args, Type::Void);
        store(&mut outer, (2, 1), (1, 100));
        outer.ret(None);
        let mut inner = FunctionBuilder::new("inner", params.clone(), Type::Void);
        store(&mut inner, (2, 0), (2, 0));
        inner.ret(None);
        let mut down = FunctionBuilder::new("countdown", params, Type::Void);
        let (body, i) = (down.param(0), down.param(1));
        let zero = down.i32(0);
        let more = down.icmp(ICmp::Sgt, i, zero);
        let (again, done) = (down.new_block(), down.new_block());
        down.cond_br(more, again, done);
        down.switch_to(again);
        let one = down.i32(1);
        let less = down.bin(BinOp::Sub, i, one);
        down.call(FuncId(2), vec![body, less], Type::Void);
        down.br(done);
        down.switch_to(done);
        store(&mut down, (1, 0), (5, 1));
        down.ret(None);
        for fb in [outer, inner, down] {
            let mut f = fb.build();
            f.kernel = Some(concord_ir::KernelKind::ForBody);
            m.add_function(f);
        }
        m
    }

    #[test]
    fn kernels_reached_by_ordinary_calls_return_to_their_caller() {
        let m = calling_kernels();
        for f in &m.functions {
            concord_ir::verify::verify_function(f).unwrap();
        }
        for (func, n) in [(FuncId(0), 40), (FuncId(2), 24)] {
            diff_module(&m, func, n, |region, heap| {
                let out = heap.malloc(4 * 80).unwrap();
                let body = heap.malloc(8).unwrap();
                region.write_ptr(body, out).unwrap();
                body
            });
        }
    }

    #[test]
    #[should_panic(expected = "launched `inner` is not a ForBody")]
    fn only_for_bodies_are_launched() {
        if !supported() {
            panic!("launched `inner` is not a ForBody");
        }
        let mut m = calling_kernels();
        m.functions[1].kernel = None;
        let nm = compile(&m).unwrap();
        let (mut region, mut heap, _vt) = setup(&m, 1 << 16);
        let body = heap.malloc(8).unwrap();
        let mut ex = Executor::new(2, 1);
        let _ = native_for(&mut ex, &mut region, &nm, &m, FuncId(1), body, 1);
    }

    #[test]
    fn a_kernel_calling_itself_from_source_matches_interpreter() {
        let src = r#"
            class Down {
            public:
                int* out;
                void operator()(int i) {
                    if (i > 0) { this->operator()(i - 1); }
                    out[i] = i * 5 + 1;
                }
            };
        "#;
        diff_for(src, "Down", 24, |region, heap| {
            let out = heap.malloc(4 * 24).unwrap();
            let body = heap.malloc(8).unwrap();
            region.write_ptr(body, out).unwrap();
            body
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn generated_kernels_match_interpreter(seed in any::<u64>()) {
            use testgen::{FLOATS, INTS, STRIDE};
            let n = 12u32;
            diff_module(&testgen::module(seed), FuncId(0), n, |region, heap| {
                let ints = [0, 1, -1, 5, i64::MAX, i64::MIN, 1 << 33, -7777];
                let floats = [0.0, -0.0, 1.0, -3.5, 1e10, f64::INFINITY, f64::NEG_INFINITY, 0.1];
                let mut rng = StdRng::seed_from_u64(seed);
                let records = heap.malloc(u64::from(n) * STRIDE).unwrap();
                for i in 0..u64::from(n) {
                    let cell = |j: usize| CpuAddr(records.0 + i * STRIDE + 8 * j as u64);
                    for j in (0..INTS).chain(INTS + FLOATS..INTS + FLOATS + 2) {
                        region.write_i64(cell(j), ints[rng.gen_range(0..ints.len())]).unwrap();
                    }
                    for j in INTS..INTS + FLOATS {
                        let v: f64 = floats[rng.gen_range(0..floats.len())];
                        region.write_i64(cell(j), v.to_bits() as i64).unwrap();
                    }
                }
                records
            });
        }
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
