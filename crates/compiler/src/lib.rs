//! # concord-compiler
//!
//! Optimization passes and GPU lowering for the Concord reproduction
//! (Barik et al., CGO 2014).
//!
//! Two pipelines mirror the paper's Figure 2:
//!
//! * [`optimize_for_cpu`] — classical cleanups for host-side execution:
//!   register promotion, constant folding, CSE, DCE, CFG simplification.
//!   Virtual calls stay virtual (the CPU has function pointers).
//! * [`lower_for_gpu`] — the GPU path: devirtualization (§3.2), the
//!   optional L3 cache-contention loop transform (§4.2), SVM pointer
//!   translation under a configurable strategy (§3.1/§4.1), then the same
//!   classical cleanups.
//!
//! The four evaluation configurations of Figures 7–10 map to
//! [`GpuConfig`] values via [`GpuConfig::baseline`], [`GpuConfig::ptropt`],
//! [`GpuConfig::l3opt`], and [`GpuConfig::all`].
//!
//! ## Example
//!
//! ```
//! use concord_compiler::{lower_for_gpu, GpuConfig};
//!
//! let src = r#"
//!     class K {
//!     public:
//!         float* a; float out;
//!         void operator()(int i) { out = a[i]; }
//!     };
//! "#;
//! let program = concord_frontend::compile(src)?;
//! let gpu = lower_for_gpu(&program.module, GpuConfig::ptropt(7));
//! assert!(concord_ir::verify::verify_module(&gpu.module).is_ok());
//! # Ok::<(), concord_frontend::CompileError>(())
//! ```

pub mod codec;
pub mod codegen;
pub mod passes {
    //! Individual IR-to-IR passes.
    pub mod constfold;
    pub mod cse;
    pub mod dce;
    pub mod devirt;
    pub mod field_promote;
    pub mod inline;
    pub mod l3opt;
    pub mod mem2reg;
    pub mod simplify_cfg;
    pub mod svm_lower;
}

pub use passes::svm_lower::Strategy;

use concord_ir::Module;
use concord_trace::{Tracer, Track};

/// Configuration of the GPU lowering pipeline — one per evaluated
/// configuration in §5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GpuConfig {
    /// Pointer-translation placement (§4.1). `Lazy` is the paper's `GPU`
    /// baseline; `Hybrid` is `GPU+PTROPT`.
    pub strategy: Strategy,
    /// Apply the cache-line contention loop transform (§4.2).
    pub l3opt: bool,
    /// Number of GPU cores (W in Figure 5).
    pub gpu_cores: u32,
}

impl GpuConfig {
    /// The paper's `GPU` configuration: straightforward per-dereference
    /// translation, no contention transform.
    pub fn baseline(gpu_cores: u32) -> Self {
        GpuConfig { strategy: Strategy::Lazy, l3opt: false, gpu_cores }
    }

    /// `GPU+PTROPT` (§4.1).
    pub fn ptropt(gpu_cores: u32) -> Self {
        GpuConfig { strategy: Strategy::Hybrid, l3opt: false, gpu_cores }
    }

    /// `GPU+L3OPT` (§4.2).
    pub fn l3opt(gpu_cores: u32) -> Self {
        GpuConfig { strategy: Strategy::Lazy, l3opt: true, gpu_cores }
    }

    /// `GPU+ALL`: both optimizations.
    pub fn all(gpu_cores: u32) -> Self {
        GpuConfig { strategy: Strategy::Hybrid, l3opt: true, gpu_cores }
    }
}

/// Statistics accumulated over a pipeline run.
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineStats {
    /// Allocas promoted to SSA registers.
    pub promoted_allocas: usize,
    /// Instructions removed by DCE.
    pub dce_removed: usize,
    /// Instructions merged by CSE.
    pub cse_merged: usize,
    /// Constants folded.
    pub folded: usize,
    /// Pointer translations inserted by SVM lowering.
    pub translations_inserted: usize,
    /// Virtual call sites devirtualized (mono + poly).
    pub devirtualized: usize,
    /// Inner loops rotated by the L3 transform.
    pub l3_loops: usize,
    /// Call sites inlined.
    pub inlined: usize,
    /// Body-field loads promoted to entry-block loads (§4 register
    /// promotion across loop iterations).
    pub field_loads_promoted: usize,
}

/// Result of GPU lowering: the rewritten module plus statistics.
#[derive(Debug, Clone)]
pub struct GpuArtifact {
    /// The GPU-lowered module (all kernels and helpers rewritten).
    pub module: Module,
    /// Pipeline statistics.
    pub stats: PipelineStats,
}

impl GpuArtifact {
    /// The embedded OpenCL-style program text (Figure 1 right-hand side).
    pub fn opencl_source(&self) -> String {
        codegen::emit_program(&self.module)
    }
}

/// Live IR instructions: those reachable from block instruction lists
/// (the arena also holds detached instructions, which don't execute).
fn live_insts(module: &Module) -> usize {
    module.functions.iter().map(|f| f.blocks.iter().map(|b| b.insts.len()).sum::<usize>()).sum()
}

/// Run one named pass over the module inside a compiler-track span whose
/// End event carries the live-instruction-count delta. The closure returns
/// the pass's own statistic (forwarded to the caller).
///
/// In debug builds (every `cargo test`) the module is re-verified after
/// the pass runs; a violation panics naming the offending pass, so a
/// pipeline bug is pinned to the pass that introduced it rather than
/// surfacing as a mystery at the end of the pipeline (or worse, as a
/// miscompile on the device).
fn traced_pass(
    tracer: &Tracer,
    module: &mut Module,
    name: &'static str,
    pass: impl FnOnce(&mut Module) -> usize,
) -> usize {
    let n = if tracer.enabled() {
        let before = live_insts(module);
        let mut span = tracer.span(Track::Compiler, name);
        let n = pass(module);
        let after = live_insts(module);
        span.arg("insts_before", before);
        span.arg("insts_after", after);
        span.arg("insts_delta", after as i64 - before as i64);
        n
    } else {
        pass(module)
    };
    if cfg!(debug_assertions) {
        if let Err(e) = concord_ir::verify::verify_module(module) {
            panic!("pass `{name}` produced invalid IR: {e:?}");
        }
    }
    n
}

/// Sum a per-function pass over every function in the module.
fn each_fn(module: &mut Module, pass: impl Fn(&mut concord_ir::Function) -> usize) -> usize {
    module.functions.iter_mut().map(pass).sum()
}

fn classical_cleanups(module: &mut Module, stats: &mut PipelineStats, tracer: &Tracer) {
    stats.inlined += traced_pass(tracer, module, "inline", |m| {
        passes::inline::run_module(m, passes::inline::DEFAULT_THRESHOLD).inlined
    });
    stats.field_loads_promoted += traced_pass(tracer, module, "field_promote", |m| {
        each_fn(m, |f| passes::field_promote::run(f).loads_promoted)
    });
    stats.promoted_allocas +=
        traced_pass(tracer, module, "mem2reg", |m| each_fn(m, passes::mem2reg::run));
    traced_pass(tracer, module, "simplify_cfg", |m| {
        each_fn(m, |f| {
            passes::simplify_cfg::run(f);
            0
        })
    });
    stats.folded +=
        traced_pass(tracer, module, "constfold", |m| each_fn(m, passes::constfold::run));
    traced_pass(tracer, module, "simplify_cfg", |m| {
        each_fn(m, |f| {
            passes::simplify_cfg::run(f);
            0
        })
    });
    stats.cse_merged += traced_pass(tracer, module, "cse", |m| each_fn(m, passes::cse::run));
    stats.dce_removed += traced_pass(tracer, module, "dce", |m| each_fn(m, passes::dce::run));
    traced_pass(tracer, module, "simplify_cfg", |m| {
        each_fn(m, |f| {
            passes::simplify_cfg::run(f);
            0
        })
    });
}

/// Optimize a module for multicore-CPU execution.
///
/// Virtual calls are left in vtable-dispatch form; the CPU interpreter
/// resolves them through the shared-region vtables like a real CPU would.
pub fn optimize_for_cpu(module: &mut Module) -> PipelineStats {
    optimize_for_cpu_traced(module, &Tracer::disabled())
}

/// [`optimize_for_cpu`] with per-pass tracing spans on the compiler track.
pub fn optimize_for_cpu_traced(module: &mut Module, tracer: &Tracer) -> PipelineStats {
    let _pipeline = tracer.span(Track::Compiler, "optimize_for_cpu");
    let mut stats = PipelineStats::default();
    classical_cleanups(module, &mut stats, tracer);
    debug_assert!(concord_ir::verify::verify_module(module).is_ok());
    stats
}

/// Lower a module for GPU execution under `config`.
///
/// The input module is cloned; the host keeps the original for CPU
/// execution of the same kernels (the "same C++ code runs on either
/// device" property of §2).
pub fn lower_for_gpu(module: &Module, config: GpuConfig) -> GpuArtifact {
    lower_for_gpu_traced(module, config, &Tracer::disabled())
}

/// [`lower_for_gpu`] with per-pass tracing spans on the compiler track.
// Stats fields are filled as the pipeline runs; folding them into one
// initializer would obscure the pass ordering, which is the point here.
#[allow(clippy::field_reassign_with_default)]
pub fn lower_for_gpu_traced(module: &Module, config: GpuConfig, tracer: &Tracer) -> GpuArtifact {
    let _pipeline = tracer.span(Track::Compiler, "lower_for_gpu");
    let mut m = module.clone();
    let mut stats = PipelineStats::default();
    // Devirtualize first: the vptr loads it introduces are shared-memory
    // accesses that SVM lowering must see.
    stats.devirtualized = traced_pass(tracer, &mut m, "devirt", |m| {
        let d = passes::devirt::run_module(m);
        d.monomorphic + d.polymorphic
    });
    // Inline the (now direct) small targets, as LLVM -O2 would.
    stats.inlined = traced_pass(tracer, &mut m, "inline", |m| {
        passes::inline::run_module(m, passes::inline::DEFAULT_THRESHOLD).inlined
    });
    // Promote locals early so induction variables are phis (needed by the
    // L3 loop recognizer) and translation twins don't chase allocas.
    stats.field_loads_promoted += traced_pass(tracer, &mut m, "field_promote", |m| {
        each_fn(m, |f| passes::field_promote::run(f).loads_promoted)
    });
    stats.promoted_allocas +=
        traced_pass(tracer, &mut m, "mem2reg", |m| each_fn(m, passes::mem2reg::run));
    traced_pass(tracer, &mut m, "simplify_cfg", |m| {
        each_fn(m, |f| {
            passes::simplify_cfg::run(f);
            0
        })
    });
    stats.folded +=
        traced_pass(tracer, &mut m, "constfold", |m| each_fn(m, passes::constfold::run));
    traced_pass(tracer, &mut m, "simplify_cfg", |m| {
        each_fn(m, |f| {
            passes::simplify_cfg::run(f);
            0
        })
    });
    if config.l3opt {
        stats.l3_loops += traced_pass(tracer, &mut m, "l3opt", |m| {
            each_fn(m, |f| passes::l3opt::run(f, config.gpu_cores).loops_transformed)
        });
    }
    stats.translations_inserted += traced_pass(tracer, &mut m, "svm_lower", |m| {
        each_fn(m, |f| passes::svm_lower::run(f, config.strategy).translations_inserted)
    });
    // Cleanups after lowering: CSE merges duplicate translations with a
    // dominating occurrence; DCE deletes unused hybrid twins.
    stats.cse_merged += traced_pass(tracer, &mut m, "cse", |m| each_fn(m, passes::cse::run));
    stats.dce_removed += traced_pass(tracer, &mut m, "dce", |m| each_fn(m, passes::dce::run));
    traced_pass(tracer, &mut m, "simplify_cfg", |m| {
        each_fn(m, |f| {
            passes::simplify_cfg::run(f);
            0
        })
    });
    debug_assert!(
        concord_ir::verify::verify_module(&m).is_ok(),
        "GPU pipeline produced invalid IR: {:?}",
        concord_ir::verify::verify_module(&m)
    );
    GpuArtifact { module: m, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use concord_frontend::compile;

    const RAYTRACE_MINI: &str = r#"
        class Shape {
        public:
            float x; float y; float r;
            virtual float hit(float px, float py) { return -1.0f; }
        };
        class Sphere : public Shape {
        public:
            float hit(float px, float py) {
                float dx = px - x; float dy = py - y;
                return dx*dx + dy*dy - r*r;
            }
        };
        class Plane : public Shape {
        public:
            float hit(float px, float py) { return py - y; }
        };
        class Tracer {
        public:
            Shape** shapes; int n; float* out;
            void operator()(int i) {
                float best = 1000000.0f;
                float px = (float)(i % 64);
                float py = (float)(i / 64);
                for (int s = 0; s < n; s++) {
                    float t = shapes[s]->hit(px, py);
                    if (t >= 0.0f && t < best) best = t;
                }
                out[i] = best;
            }
        };
    "#;

    #[test]
    fn cpu_pipeline_keeps_virtual_calls() {
        let mut lp = compile(RAYTRACE_MINI).unwrap();
        optimize_for_cpu(&mut lp.module);
        let kf = lp.kernel("Tracer").unwrap().operator_fn;
        let f = lp.module.function(kf);
        assert!(f.insts.iter().any(|i| matches!(i.op, concord_ir::Op::CallVirtual { .. })));
        assert!(concord_ir::verify::verify_module(&lp.module).is_ok());
    }

    #[test]
    fn gpu_pipeline_eliminates_virtual_calls_everywhere() {
        let lp = compile(RAYTRACE_MINI).unwrap();
        for cfg in
            [GpuConfig::baseline(7), GpuConfig::ptropt(7), GpuConfig::l3opt(7), GpuConfig::all(7)]
        {
            let art = lower_for_gpu(&lp.module, cfg);
            for f in &art.module.functions {
                assert!(
                    !f.blocks
                        .iter()
                        .flat_map(|b| &b.insts)
                        .any(|&i| matches!(f.inst(i).op, concord_ir::Op::CallVirtual { .. })),
                    "virtual call survived GPU lowering under {cfg:?}"
                );
            }
            assert!(art.stats.devirtualized >= 1);
        }
    }

    #[test]
    fn ptropt_inserts_fewer_loop_translations_than_lazy() {
        // Static count: hybrid + DCE ends with fewer in-loop translations
        // for a loop-invariant pointer than lazy.
        let src = r#"
            class K {
            public:
                float* a; int n; float out;
                void operator()(int i) {
                    float s = 0.0f;
                    for (int j = 0; j < n; j++) { s += a[j]; }
                    out = s;
                }
            };
        "#;
        let lp = compile(src).unwrap();
        let lazy = lower_for_gpu(&lp.module, GpuConfig::baseline(7));
        let hybrid = lower_for_gpu(&lp.module, GpuConfig::ptropt(7));
        let count_in = |m: &Module| -> usize {
            let kf = m.functions.iter().position(|f| f.kernel.is_some()).unwrap();
            let f = &m.functions[kf];
            // Translations outside the entry block (the loop lives there).
            f.block_ids()
                .skip(1)
                .flat_map(|b| f.block(b).insts.clone())
                .filter(|&i| matches!(f.inst(i).op, concord_ir::Op::CpuToGpu(_)))
                .count()
        };
        let lazy_in = count_in(&lazy.module);
        let hybrid_in = count_in(&hybrid.module);
        assert!(
            hybrid_in < lazy_in,
            "hybrid should hoist loop translations: lazy={lazy_in} hybrid={hybrid_in}"
        );
    }

    #[test]
    fn l3_config_rotates_loops() {
        let src = r#"
            class K {
            public:
                float* a; int n; float out;
                void operator()(int i) {
                    float s = 0.0f;
                    for (int j = 0; j < n; j++) { s += a[j]; }
                    out = s;
                }
            };
        "#;
        let lp = compile(src).unwrap();
        let art = lower_for_gpu(&lp.module, GpuConfig::all(7));
        assert_eq!(art.stats.l3_loops, 1);
    }

    // Release builds compile the per-pass verifier out, so the panic only
    // fires under debug_assertions.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "pass `clobber` produced invalid IR")]
    fn per_pass_verification_names_the_offending_pass() {
        let mut lp = compile(RAYTRACE_MINI).unwrap();
        traced_pass(&Tracer::disabled(), &mut lp.module, "clobber", |m| {
            // Drop the kernel entry block's terminator: structurally
            // invalid IR that only the verifier notices.
            let kf = m.functions.iter().position(|f| f.kernel.is_some()).unwrap();
            m.functions[kf].blocks[0].insts.pop();
            0
        });
    }

    #[test]
    fn opencl_source_dump_mentions_svm() {
        let lp = compile(RAYTRACE_MINI).unwrap();
        let art = lower_for_gpu(&lp.module, GpuConfig::baseline(7));
        let text = art.opencl_source();
        assert!(text.contains("AS_GPU_PTR"));
        assert!(text.contains("__kernel"));
    }
}
