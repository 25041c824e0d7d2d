//! Register promotion, CFG simplification and DCE each reach their
//! fixpoint in one run: run again where the pipelines run them, on every
//! function of the 13 programs, they find nothing left to do. A
//! `FunctionBuilder` fixture at scale (1 000 promotable locals, a
//! 1 000-block chain with a diamond every tenth block) checks the same in
//! one pipeline run, and that the optimized function computes what the
//! unoptimized one does on the CPU interpreter.

use concord::compiler::passes::{
    constfold, cse, dce, devirt, field_promote, inline, l3opt, mem2reg, simplify_cfg, svm_lower,
};
use concord::compiler::{lower_for_gpu, optimize_for_cpu, GpuConfig, Strategy};
use concord::cpusim::{CpuSim, Program};
use concord::energy::SystemConfig;
use concord::ir::builder::FunctionBuilder;
use concord::ir::eval::Value;
use concord::ir::inst::{BinOp, BlockId, ICmp, Op, ValueId};
use concord::ir::printer::print_module;
use concord::ir::types::Type;
use concord::ir::verify::verify_function;
use concord::ir::{FuncId, Function, Module};
use concord::svm::{SharedRegion, VtableArea};
use concord::workloads::{all_workloads, worklist_workloads};

/// One pipeline step, in the order `optimize_for_cpu` and `lower_for_gpu`
/// run them.
#[derive(Clone, Copy, Debug)]
enum Step {
    Devirt,
    Inline,
    FieldPromote,
    Mem2reg,
    SimplifyCfg,
    Constfold,
    L3opt(u32),
    SvmLower(Strategy),
    Cse,
    Dce,
}

fn cpu_steps() -> Vec<Step> {
    use Step::*;
    vec![Inline, FieldPromote, Mem2reg, SimplifyCfg, Constfold, SimplifyCfg, Cse, Dce, SimplifyCfg]
}

fn gpu_steps(cfg: GpuConfig) -> Vec<Step> {
    use Step::*;
    let mut steps =
        vec![Devirt, Inline, FieldPromote, Mem2reg, SimplifyCfg, Constfold, SimplifyCfg];
    if cfg.l3opt {
        steps.push(L3opt(cfg.gpu_cores));
    }
    steps.extend([SvmLower(cfg.strategy), Cse, Dce, SimplifyCfg]);
    steps
}

fn run_step(m: &mut Module, step: Step) {
    match step {
        Step::Devirt => {
            devirt::run_module(m);
        }
        Step::Inline => {
            inline::run_module(m, inline::DEFAULT_THRESHOLD);
        }
        Step::FieldPromote => m.functions.iter_mut().for_each(|f| {
            field_promote::run(f);
        }),
        Step::Mem2reg => m.functions.iter_mut().for_each(|f| {
            mem2reg::run(f);
        }),
        Step::SimplifyCfg => m.functions.iter_mut().for_each(|f| {
            simplify_cfg::run(f);
        }),
        Step::Constfold => m.functions.iter_mut().for_each(|f| {
            constfold::run(f);
        }),
        Step::L3opt(cores) => m.functions.iter_mut().for_each(|f| {
            l3opt::run(f, cores);
        }),
        Step::SvmLower(strategy) => m.functions.iter_mut().for_each(|f| {
            svm_lower::run(f, strategy);
        }),
        Step::Cse => m.functions.iter_mut().for_each(|f| {
            cse::run(f);
        }),
        Step::Dce => m.functions.iter_mut().for_each(|f| {
            dce::run(f);
        }),
    }
}

/// After `step` ran over `m`: every function verifies, and a rewritten
/// pass run a second time changes nothing.
fn assert_fixpoint(m: &Module, step: Step, at: &str) {
    for f in &m.functions {
        if let Err(e) = verify_function(f) {
            panic!("{at}, after {step:?}: {e}");
        }
        let mut again = f.clone();
        match step {
            Step::Mem2reg => {
                assert_eq!(mem2reg::run(&mut again), 0, "{at}: mem2reg left work in {}", f.name)
            }
            Step::SimplifyCfg => {
                assert!(
                    !simplify_cfg::run(&mut again),
                    "{at}: simplify_cfg left work in {}",
                    f.name
                )
            }
            Step::Dce => assert_eq!(dce::run(&mut again), 0, "{at}: dce left work in {}", f.name),
            _ => {}
        }
    }
}

#[test]
fn every_rewritten_pass_reaches_its_fixpoint_on_all_programs() {
    let mut programs: Vec<_> =
        all_workloads().iter().map(|w| (w.spec().name, w.spec().source)).collect();
    programs.extend(worklist_workloads().iter().map(|w| (w.spec().name, w.spec().source)));
    for (name, source) in programs {
        let front = concord::frontend::compile(source).expect("workload compiles").module;
        let configs = [
            GpuConfig::baseline(40),
            GpuConfig::ptropt(40),
            GpuConfig::l3opt(40),
            GpuConfig::all(40),
        ];
        for cfg in configs {
            let mut m = front.clone();
            for step in gpu_steps(cfg) {
                run_step(&mut m, step);
                assert_fixpoint(&m, step, &format!("{name} GPU {cfg:?}"));
            }
            // The replica is the real pipeline, step for step.
            let real = lower_for_gpu(&front, cfg).module;
            assert!(print_module(&m) == print_module(&real), "{name}: GPU step list drifted");
        }
        let mut m = front.clone();
        for step in cpu_steps() {
            run_step(&mut m, step);
            assert_fixpoint(&m, step, &format!("{name} CPU"));
        }
        let mut real = front;
        optimize_for_cpu(&mut real);
        assert!(print_module(&m) == print_module(&real), "{name}: CPU step list drifted");
    }
}

const LOCALS: usize = 1000;
const CHAIN: usize = 1000;

/// `f(n)`: 1 000 locals, each initialised from `n`, then a chain of 1 000
/// blocks that each read one local and write another. Every tenth block
/// ends in a diamond on the sign of a local, whose arms write different
/// values. The exit returns a checksum of every local.
fn scale_fixture() -> Function {
    let mut b = FunctionBuilder::new("scale", vec![Type::I32], Type::I32);
    let n = b.param(0);
    let locals: Vec<ValueId> = (0..LOCALS).map(|_| b.alloca(4, 4)).collect();
    for (k, &slot) in locals.iter().enumerate() {
        let c = b.i32(k as i32);
        let v = b.bin(BinOp::Add, n, c);
        b.store(slot, v);
    }
    let chain: Vec<BlockId> = (0..CHAIN).map(|_| b.new_block()).collect();
    let exit = b.new_block();
    b.br(chain[0]);
    for (i, &block) in chain.iter().enumerate() {
        b.switch_to(block);
        let x = b.load(locals[i % LOCALS], Type::I32);
        let c = b.i32(i as i32 * 3 + 1);
        let y = b.bin(BinOp::Mul, x, c);
        b.store(locals[(i * 7 + 1) % LOCALS], y);
        let next = chain.get(i + 1).copied().unwrap_or(exit);
        if i % 10 != 9 {
            b.br(next);
            continue;
        }
        let zero = b.i32(0);
        let pos = b.icmp(ICmp::Sgt, y, zero);
        let (then_bb, else_bb) = (b.new_block(), b.new_block());
        b.cond_br(pos, then_bb, else_bb);
        for (arm, k) in [(then_bb, 1), (else_bb, 2)] {
            b.switch_to(arm);
            let c = b.i32(k);
            let z = b.bin(BinOp::Sub, x, c);
            b.store(locals[(i * 13 + 5) % LOCALS], z);
            b.br(next);
        }
    }
    b.switch_to(exit);
    let mut sum = b.i32(0);
    for (k, &slot) in locals.iter().enumerate() {
        let v = b.load(slot, Type::I32);
        let w = b.i32(k as i32 % 7 + 1);
        let t = b.bin(BinOp::Mul, v, w);
        sum = b.bin(BinOp::Xor, sum, t);
    }
    b.ret(Some(sum));
    b.build()
}

/// `f(arg)` on the CPU interpreter.
fn call(m: &Module, arg: i64) -> Option<Value> {
    let mut region = SharedRegion::new(1 << 16, 0);
    let vtables = VtableArea::install(&mut region, m).expect("no classes");
    let mut program = Program::new();
    program.decode_from(m, FuncId(0));
    let mut sim = CpuSim::new(SystemConfig::ultrabook().cpu);
    sim.call(&mut region, &vtables, &program, FuncId(0), &[Value::I(arg)]).expect("no trap")
}

#[test]
fn one_pipeline_run_promotes_every_local_and_merges_every_chain_at_scale() {
    let mut original = Module::new();
    original.add_function(scale_fixture());
    verify_function(&original.functions[0]).expect("fixture is well formed");
    let mut m = original.clone();
    let stats = optimize_for_cpu(&mut m);
    assert_eq!(stats.promoted_allocas, LOCALS);
    let f = &m.functions[0];
    let placed = || f.blocks.iter().flat_map(|b| b.insts.iter().map(|&i| &f.inst(i).op));
    assert!(!placed().any(|op| matches!(op, Op::Alloca { .. } | Op::Load(_) | Op::Store { .. })));
    // What is left is one block per chain segment (each ends in a
    // diamond), the two arms of each diamond, and the exit, which is the
    // last diamond's join.
    assert_eq!(f.blocks.len(), 1 + 3 * (CHAIN / 10));
    let mut again = f.clone();
    assert!(!simplify_cfg::run(&mut again), "one run left a chain to merge");
    assert_eq!(mem2reg::run(&mut again), 0);
    assert_eq!(dce::run(&mut again), 0);
    for arg in [0, 1, -5, 77, 100_000] {
        assert_eq!(call(&m, arg), call(&original, arg), "f({arg})");
    }
}
