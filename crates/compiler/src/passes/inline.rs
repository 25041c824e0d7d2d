//! Function inlining.
//!
//! After devirtualization turns virtual calls into direct calls (§3.2),
//! the call targets are usually tiny methods (`Sphere::intersect`,
//! `operator+`, accessors). Inlining them eliminates the call overhead and
//! exposes the callee's pointer arithmetic to the SVM-translation and CSE
//! passes — the same effect LLVM's `-O2` inliner has in the paper's
//! pipeline.
//!
//! A call is inlined when the callee is small (placed instructions below a
//! threshold), not a kernel entry, and not (mutually) recursive.

use concord_ir::inst::{BlockId, FuncId, Op, ValueId};
use concord_ir::types::Type;
use concord_ir::Module;
use std::collections::HashMap;

/// Default callee size limit (placed instructions).
pub const DEFAULT_THRESHOLD: usize = 96;

/// Statistics from an inlining run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InlineStats {
    /// Call sites inlined.
    pub inlined: usize,
}

/// Whether `fid` may be inlined into callers.
fn inlinable(module: &Module, fid: FuncId, threshold: usize) -> bool {
    let f = module.function(fid);
    if f.kernel.is_some() || f.placed_inst_count() > threshold {
        return false;
    }
    // No calls back into anything (conservative recursion guard that also
    // keeps single-pass inlining simple: only leaf functions inline).
    for b in f.block_ids() {
        for &i in &f.block(b).insts {
            if matches!(f.inst(i).op, Op::Call { .. } | Op::CallVirtual { .. }) {
                return false;
            }
        }
    }
    true
}

/// Inline all eligible call sites in `func_id`. Returns statistics.
pub fn run(module: &mut Module, func_id: FuncId, threshold: usize) -> InlineStats {
    let mut stats = InlineStats::default();
    loop {
        // Find the next inlinable call site.
        let caller = module.function(func_id);
        let mut site: Option<(BlockId, usize, ValueId, FuncId)> = None;
        'outer: for b in caller.block_ids() {
            for (pos, &id) in caller.block(b).insts.iter().enumerate() {
                if let Op::Call { callee, .. } = caller.inst(id).op {
                    if callee != func_id && inlinable(module, callee, threshold) {
                        site = Some((b, pos, id, callee));
                        break 'outer;
                    }
                }
            }
        }
        let Some((block, pos, call_id, callee_id)) = site else { return stats };
        let callee = module.function(callee_id).clone();
        let Op::Call { args, .. } = module.function(func_id).inst(call_id).op.clone() else {
            unreachable!()
        };
        let caller = module.function_mut(func_id);

        // Split the caller block: `block` keeps the prefix, `cont` the rest.
        let tail: Vec<ValueId> = caller.block(block).insts[pos + 1..].to_vec();
        caller.block_mut(block).insts.truncate(pos);
        let cont = BlockId(caller.blocks.len() as u32);
        caller.blocks.push(concord_ir::Block { insts: tail });

        // Clone callee instructions into the caller arena in two steps:
        // every clone gets its id first, then each operand is mapped once,
        // so a value defined later in block order (a loop phi's input)
        // maps like any other and no caller id is ever mapped again.
        let block_base = caller.blocks.len() as u32;
        let bmap = |b: BlockId| BlockId(b.0 + block_base);
        let mut vmap: HashMap<ValueId, ValueId> = HashMap::new();
        let mut clones: Vec<(BlockId, ValueId, ValueId)> = Vec::new();
        for _ in 0..callee.blocks.len() {
            caller.blocks.push(concord_ir::Block::default());
        }
        for cb in callee.block_ids() {
            for &ci in &callee.block(cb).insts {
                let inst = callee.inst(ci);
                if let Op::Param(i) = inst.op {
                    // Parameters map directly to argument values.
                    vmap.insert(ci, args[i as usize]);
                    continue;
                }
                let new_id = caller.push_inst(inst.op.clone(), inst.ty);
                vmap.insert(ci, new_id);
                clones.push((cb, ci, new_id));
                caller.block_mut(bmap(cb)).insts.push(new_id);
            }
        }
        // Returns: collect (pred block, value) for the result phi.
        let mut ret_edges: Vec<(BlockId, Option<ValueId>)> = Vec::new();
        for (cb, ci, new_id) in clones {
            let mut op = callee.inst(ci).op.clone();
            op.map_operands(|v| vmap[&v]);
            match &mut op {
                Op::Ret(v) => {
                    ret_edges.push((bmap(cb), *v));
                    op = Op::Br(cont);
                }
                // Branch targets and phi predecessors shift.
                Op::Br(t) => *t = bmap(*t),
                Op::CondBr(_, t, e) => {
                    *t = bmap(*t);
                    *e = bmap(*e);
                }
                Op::Phi(incoming) => {
                    for (pb, _) in incoming.iter_mut() {
                        *pb = bmap(*pb);
                    }
                }
                _ => {}
            }
            caller.inst_mut(new_id).op = op;
        }
        // Jump from the prefix into the inlined entry.
        let entry_br = caller.push_inst(Op::Br(bmap(callee.entry())), Type::Void);
        caller.block_mut(block).insts.push(entry_br);
        // Result value: phi over return edges (or rewrite to a single value).
        let call_ty = caller.inst(call_id).ty;
        if call_ty != Type::Void {
            let result = if ret_edges.len() == 1 {
                ret_edges[0].1.expect("non-void return")
            } else {
                let phi = caller.push_inst(
                    Op::Phi(
                        ret_edges.iter().map(|(b, v)| (*b, v.expect("non-void return"))).collect(),
                    ),
                    call_ty,
                );
                caller.block_mut(cont).insts.insert(0, phi);
                phi
            };
            for inst in caller.insts.iter_mut() {
                inst.op.map_operands(|v| if v == call_id { result } else { v });
            }
        }
        // Continuation successors' phis must now name `cont` instead of
        // `block`.
        let succs = caller.successors(cont);
        for s in succs {
            let ids = caller.block(s).insts.clone();
            for id in ids {
                if let Op::Phi(incoming) = &mut caller.inst_mut(id).op {
                    for (pb, _) in incoming.iter_mut() {
                        if *pb == block {
                            *pb = cont;
                        }
                    }
                }
            }
        }
        stats.inlined += 1;
    }
}

/// Inline throughout a module.
pub fn run_module(module: &mut Module, threshold: usize) -> InlineStats {
    let mut total = InlineStats::default();
    for i in 0..module.functions.len() {
        total.inlined += run(module, FuncId(i as u32), threshold).inlined;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use concord_frontend::compile;

    #[test]
    fn inlines_small_helper() {
        let src = r#"
            float scale(float x) { return x * 2.0f; }
            class K {
            public:
                float* a;
                void operator()(int i) { a[i] = scale(a[i]) + scale(1.0f); }
            };
        "#;
        let mut lp = compile(src).unwrap();
        let kf = lp.kernel("K").unwrap().operator_fn;
        let stats = run(&mut lp.module, kf, DEFAULT_THRESHOLD);
        assert_eq!(stats.inlined, 2);
        let f = lp.module.function(kf);
        assert!(
            !f.blocks
                .iter()
                .flat_map(|b| &b.insts)
                .any(|&i| matches!(f.inst(i).op, Op::Call { .. })),
            "all calls inlined"
        );
        assert!(
            concord_ir::verify::verify_function(f).is_ok(),
            "{:?}",
            concord_ir::verify::verify_function(f)
        );
    }

    #[test]
    fn inlines_multi_return_callee_with_phi() {
        let src = r#"
            float clamp01(float x) {
                if (x < 0.0f) { return 0.0f; }
                if (x > 1.0f) { return 1.0f; }
                return x;
            }
            class K {
            public:
                float* a;
                void operator()(int i) { a[i] = clamp01(a[i]); }
            };
        "#;
        let mut lp = compile(src).unwrap();
        let kf = lp.kernel("K").unwrap().operator_fn;
        assert_eq!(run(&mut lp.module, kf, DEFAULT_THRESHOLD).inlined, 1);
        let f = lp.module.function(kf);
        assert!(
            concord_ir::verify::verify_function(f).is_ok(),
            "{:?}",
            concord_ir::verify::verify_function(f)
        );
        // The multi-return callee produced a phi at the continuation.
        assert!(f.insts.iter().any(|i| matches!(i.op, Op::Phi(_))));
    }

    #[test]
    fn skips_large_and_recursive_callees() {
        let src = r#"
            int gcd_helper(int a, int b) {
                while (b != 0) { int t = a % b; a = b; b = t; }
                return a;
            }
            class K {
            public:
                int* a;
                void operator()(int i) { a[i] = gcd_helper(a[i], 6); }
            };
        "#;
        let mut lp = compile(src).unwrap();
        let kf = lp.kernel("K").unwrap().operator_fn;
        // Tiny threshold: nothing inlines.
        assert_eq!(run(&mut lp.module, kf, 2).inlined, 0);
        // Generous threshold: the loopy helper inlines fine (it is a leaf).
        assert_eq!(run(&mut lp.module, kf, 200).inlined, 1);
        assert!(concord_ir::verify::verify_module(&lp.module).is_ok());
    }

    #[test]
    fn inlined_code_computes_same_result() {
        // Differential: run the kernel via the CPU-pipeline with and
        // without inlining and compare device memory.
        let src = r#"
            float mix(float a, float b, float t) { return a + (b - a) * t; }
            class K {
            public:
                float* x; float* out;
                void operator()(int i) {
                    out[i] = mix(x[i], x[i] * 2.0f, 0.25f);
                }
            };
        "#;
        use concord_svm::{SharedAllocator, SharedRegion, VtableArea};
        let mut results = Vec::new();
        for do_inline in [false, true] {
            let mut lp = compile(src).unwrap();
            let kf = lp.kernel("K").unwrap().operator_fn;
            if do_inline {
                run_module(&mut lp.module, DEFAULT_THRESHOLD);
            }
            crate::optimize_for_cpu(&mut lp.module);
            let mut region = SharedRegion::new(1 << 16, 0);
            let mut heap = SharedAllocator::new(&region);
            let vt = VtableArea::install(&mut region, &lp.module).unwrap();
            let n = 8u32;
            let x = heap.malloc(n as u64 * 4).unwrap();
            let out = heap.malloc(n as u64 * 4).unwrap();
            for i in 0..n {
                region.write_f32(concord_svm::CpuAddr(x.0 + i as u64 * 4), i as f32).unwrap();
            }
            let body = heap.malloc(16).unwrap();
            region.write_ptr(body, x).unwrap();
            region.write_ptr(body.offset(8), out).unwrap();
            let mut sim =
                concord_cpusim::CpuSim::new(concord_energy::SystemConfig::ultrabook().cpu);
            sim.parallel_for(&mut region, &vt, &lp.module, kf, body, n).unwrap();
            let vals: Vec<f32> = (0..n as u64)
                .map(|i| region.read_f32(concord_svm::CpuAddr(out.0 + i * 4)).unwrap())
                .collect();
            results.push(vals);
        }
        assert_eq!(results[0], results[1]);
    }
}
