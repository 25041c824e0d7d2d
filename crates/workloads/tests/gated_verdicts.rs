//! Pins the order-dependence verdict (`uses_gated_ops`) of every kernel of
//! the 13 programs: on the CPU module after `optimize_for_cpu`, and on the
//! GPU module after `lower_for_gpu` under each configuration of §5, for
//! `operator()` alone and together with its `join`. A gated kernel runs in
//! order on every target, so a verdict that flips moves execution paths.
//!
//! A second test pins the whole-module widening at a virtual call: a
//! kernel whose virtual call can reach only ungated overrides is still
//! gated when any function of the module uses `atomic_cas`.

use concord_compiler::{lower_for_gpu, optimize_for_cpu, GpuConfig};
use concord_ir::analysis::uses_gated_ops;
use concord_ir::{FuncId, Module};
use concord_workloads::{all_workloads, worklist_workloads};

/// `(name, source)` of the nine Table 1 programs and the four worklist
/// programs.
fn programs() -> Vec<(&'static str, &'static str)> {
    let mut out: Vec<_> =
        all_workloads().iter().map(|w| (w.spec().name, w.spec().source)).collect();
    out.extend(worklist_workloads().iter().map(|w| (w.spec().name, w.spec().source)));
    out
}

/// `op` and, for a reduction, `op+join` verdicts of one module as `0`/`1`.
fn verdicts(m: &Module, op: FuncId, join: Option<FuncId>) -> String {
    let bit = |roots: &[FuncId]| if uses_gated_ops(m, roots) { '1' } else { '0' };
    match join {
        Some(j) => format!("{}{}", bit(&[op]), bit(&[op, j])),
        None => format!("{}-", bit(&[op])),
    }
}

/// One line per kernel: `program/class cpu <op><op+join> gpu <per config>`,
/// the GPU configurations being baseline, ptropt, l3opt and all at 40 EUs.
fn table() -> String {
    let mut out = String::new();
    for (name, src) in programs() {
        let mut lp = concord_frontend::compile(src).expect("workload source compiles");
        let configs = [
            GpuConfig::baseline(40),
            GpuConfig::ptropt(40),
            GpuConfig::l3opt(40),
            GpuConfig::all(40),
        ];
        let gpu: Vec<Module> =
            configs.into_iter().map(|cfg| lower_for_gpu(&lp.module, cfg).module).collect();
        optimize_for_cpu(&mut lp.module);
        for k in &lp.kernels {
            let cpu = verdicts(&lp.module, k.operator_fn, k.join_fn);
            let gpu: Vec<String> =
                gpu.iter().map(|m| verdicts(m, k.operator_fn, k.join_fn)).collect();
            out.push_str(&format!("{name}/{} cpu {cpu} gpu {}\n", k.class_name, gpu.join(" ")));
        }
    }
    out
}

const PINNED: &str = "\
BarnesHut/ForceBody cpu 0- gpu 0- 0- 0- 0-
BFS/BFSBody cpu 0- gpu 0- 0- 0- 0-
BTree/BTreeBody cpu 0- gpu 0- 0- 0- 0-
ClothPhysics/ClothBody cpu 00 gpu 00 00 00 00
ConnectedComponent/CCBody cpu 0- gpu 0- 0- 0- 0-
FaceDetect/FaceBody cpu 0- gpu 0- 0- 0- 0-
Raytracer/RayBody cpu 0- gpu 0- 0- 0- 0-
SkipList/SkipListBody cpu 0- gpu 0- 0- 0- 0-
SSSP/SSSPBody cpu 0- gpu 0- 0- 0- 0-
FrontierBFS/FrontierBFS cpu 0- gpu 0- 0- 0- 0-
WorklistCC/WorklistCC cpu 1- gpu 1- 1- 1- 1-
DeltaSSSP/DeltaSSSP cpu 1- gpu 1- 1- 1- 1-
KCore/KCore cpu 1- gpu 1- 1- 1- 1-
";

#[test]
fn gated_verdicts_are_pinned_for_every_kernel() {
    let got = table();
    assert!(got == PINNED, "a gated verdict moved; computed table:\n{got}");
}

const WIDENING: &str = r#"
    class Shape {
    public:
        int r;
        virtual int area() { return 0; }
    };
    class Square : public Shape {
    public:
        int area() { return r * r; }
    };
    class Areas {
    public:
        Shape** shapes; int* out;
        void operator()(int i) { out[i] = shapes[i]->area(); }
    };
    class Plain {
    public:
        int* out;
        void operator()(int i) { out[i] = i; }
    };
    class Lock {
    public:
        int* cells;
        void operator()(int i) { atomic_cas(&cells[i], 0, 1); }
    };
"#;

#[test]
fn a_reached_virtual_call_gates_on_any_gated_function_of_the_module() {
    let mut lp = concord_frontend::compile(WIDENING).expect("fixture compiles");
    optimize_for_cpu(&mut lp.module);
    let m = &lp.module;
    let op = |class: &str| lp.kernel(class).expect("kernel").operator_fn;
    let areas = m.function(op("Areas"));
    assert!(
        areas
            .block_ids()
            .flat_map(|b| &areas.block(b).insts)
            .any(|&i| matches!(areas.inst(i).op, concord_ir::Op::CallVirtual { .. })),
        "the fixture keeps its virtual call on the CPU"
    );
    assert!(uses_gated_ops(m, &[op("Lock")]), "atomic_cas is gated");
    assert!(!uses_gated_ops(m, &[op("Plain")]), "no call, no gated op");
    assert!(
        uses_gated_ops(m, &[op("Areas")]),
        "a virtual call can reach any function id through a scribbled vtable slot"
    );
}
