//! Devirtualization for GPU execution (§3.2).
//!
//! Integrated GPUs cannot call through function pointers, so virtual calls
//! cannot use the vtable directly. Concord's compiler instead:
//!
//! 1. uses class-hierarchy analysis to enumerate the possible dynamic
//!    classes of the receiver,
//! 2. loads the object's vtable pointer (the vtables themselves live in the
//!    shared region at deterministic addresses, see
//!    [`concord_svm::VtableArea`]), and
//! 3. emits an inline chain of equality tests against each candidate
//!    class's vtable address, branching to a *direct* call per target.
//!
//! When only one implementation is possible the call devirtualizes with no
//! test at all.

use concord_ir::inst::{BlockId, CastOp, ICmp, Op, ValueId};
use concord_ir::types::{AddrSpace, Type};
use concord_ir::Module;
use concord_svm::VtableArea;
use std::collections::HashMap;

/// Statistics for one devirtualization run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DevirtStats {
    /// Virtual call sites rewritten into a single direct call.
    pub monomorphic: usize,
    /// Virtual call sites expanded into test chains.
    pub polymorphic: usize,
    /// Total candidate targets across polymorphic sites.
    pub total_targets: usize,
}

/// Devirtualize every `CallVirtual` in `func_id` of `module`.
///
/// # Panics
///
/// Panics if a virtual call has no possible target (a frontend bug).
pub fn run(module: &mut Module, func_id: concord_ir::FuncId) -> DevirtStats {
    let mut stats = DevirtStats::default();
    loop {
        // Find the next virtual call (block, position). We restart after
        // each rewrite because the block structure changes.
        let f = module.function(func_id);
        let mut site: Option<(BlockId, usize, ValueId)> = None;
        'outer: for b in f.block_ids() {
            for (pos, &id) in f.block(b).insts.iter().enumerate() {
                if matches!(f.inst(id).op, Op::CallVirtual { .. }) {
                    site = Some((b, pos, id));
                    break 'outer;
                }
            }
        }
        let Some((block, pos, call_id)) = site else { return stats };
        let Op::CallVirtual { static_class, slot, obj, args } =
            module.function(func_id).inst(call_id).op.clone()
        else {
            unreachable!()
        };
        let ret_ty = module.function(func_id).inst(call_id).ty;

        // Class-hierarchy analysis: candidate (class, target) pairs.
        let targets = module.virtual_targets(static_class, slot);
        assert!(!targets.is_empty(), "virtual call with no targets");
        // Classes sharing an implementation can share a test.
        let mut by_target: Vec<(concord_ir::FuncId, Vec<concord_ir::ClassId>)> = Vec::new();
        for (c, t) in targets {
            match by_target.iter_mut().find(|(ft, _)| *ft == t) {
                Some((_, cs)) => cs.push(c),
                None => by_target.push((t, vec![c])),
            }
        }

        let f = module.function_mut(func_id);
        if by_target.len() == 1 {
            // Monomorphic: replace with a direct call in place.
            let (target, _) = by_target[0];
            let mut call_args = vec![obj];
            call_args.extend(args);
            f.inst_mut(call_id).op = Op::Call { callee: target, args: call_args };
            stats.monomorphic += 1;
            continue;
        }
        stats.polymorphic += 1;
        stats.total_targets += by_target.len();

        // Split the block at the call: `block` keeps the prefix, `tail_bb`
        // gets the suffix (with the call replaced by a phi of the results).
        let tail_insts: Vec<ValueId> = f.block(block).insts[pos + 1..].to_vec();
        f.block_mut(block).insts.truncate(pos); // drops the call too
        let tail_bb = BlockId(f.blocks.len() as u32);
        f.blocks.push(concord_ir::Block { insts: tail_insts });

        // Load the vtable pointer from the object header (offset 0) and
        // compare it against each candidate class's vtable address.
        let vptr_load = f.push_inst(Op::Load(obj), Type::Ptr(AddrSpace::Cpu));
        f.block_mut(block).insts.push(vptr_load);
        let vptr_int = f.push_inst(Op::Cast(CastOp::PtrToInt, vptr_load), Type::I64);
        f.block_mut(block).insts.push(vptr_int);

        let mut incoming: Vec<(BlockId, ValueId)> = Vec::new();
        let mut cur_bb = block;
        let n = by_target.len();
        for (i, (target, classes)) in by_target.into_iter().enumerate() {
            // Call block for this target.
            let call_bb = BlockId(f.blocks.len() as u32);
            f.blocks.push(concord_ir::Block::default());
            let mut call_args = vec![obj];
            call_args.extend(args.iter().copied());
            let direct = f.push_inst(Op::Call { callee: target, args: call_args }, ret_ty);
            f.block_mut(call_bb).insts.push(direct);
            let br = f.push_inst(Op::Br(tail_bb), Type::Void);
            f.block_mut(call_bb).insts.push(br);
            incoming.push((call_bb, direct));

            if i + 1 == n {
                // Last candidate: unconditional (the verifier-friendly
                // equivalent of the paper's final else branch).
                let br = f.push_inst(Op::Br(call_bb), Type::Void);
                f.block_mut(cur_bb).insts.push(br);
            } else {
                // Test chain: one equality test per class mapping to this
                // target, OR-ed together.
                let mut cond: Option<ValueId> = None;
                for c in classes {
                    let addr = VtableArea::addr_of(c).0 as i64;
                    let k = f.push_inst(Op::ConstInt(addr), Type::I64);
                    f.block_mut(cur_bb).insts.push(k);
                    let eq = f.push_inst(Op::Icmp(ICmp::Eq, vptr_int, k), Type::I1);
                    f.block_mut(cur_bb).insts.push(eq);
                    cond = Some(match cond {
                        None => eq,
                        Some(prev) => {
                            let or =
                                f.push_inst(Op::Bin(concord_ir::BinOp::Or, prev, eq), Type::I1);
                            f.block_mut(cur_bb).insts.push(or);
                            or
                        }
                    });
                }
                let next_bb = BlockId(f.blocks.len() as u32);
                f.blocks.push(concord_ir::Block::default());
                let condbr = f.push_inst(
                    Op::CondBr(cond.expect("at least one class per target"), call_bb, next_bb),
                    Type::Void,
                );
                f.block_mut(cur_bb).insts.push(condbr);
                cur_bb = next_bb;
            }
        }
        // Join: phi over the per-target results replaces the call's value.
        if ret_ty != Type::Void {
            let phi = f.push_inst(Op::Phi(incoming), ret_ty);
            f.block_mut(tail_bb).insts.insert(0, phi);
            // Rewrite uses of the old call result.
            let old = call_id;
            for inst in f.insts.iter_mut() {
                inst.op.map_operands(|v| if v == old { phi } else { v });
            }
        }
        // Successor phis that referenced `block` as predecessor must now
        // reference `tail_bb` (the suffix inherited block's terminator).
        let succs = f.successors(tail_bb);
        let remap: HashMap<BlockId, BlockId> = HashMap::from([(block, tail_bb)]);
        for s in succs {
            let insts = f.block(s).insts.clone();
            for id in insts {
                if let Op::Phi(incoming) = &mut f.inst_mut(id).op {
                    for (pred, _) in incoming.iter_mut() {
                        if let Some(&n) = remap.get(pred) {
                            *pred = n;
                        }
                    }
                }
            }
        }
    }
}

/// Devirtualize all kernels and their transitive callees.
pub fn run_module(module: &mut Module) -> DevirtStats {
    let mut total = DevirtStats::default();
    for i in 0..module.functions.len() {
        let s = run(module, concord_ir::FuncId(i as u32));
        total.monomorphic += s.monomorphic;
        total.polymorphic += s.polymorphic;
        total.total_targets += s.total_targets;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use concord_frontend::compile;

    const SHAPES: &str = r#"
        class Shape {
        public:
            float r;
            virtual float area() { return 0.0f; }
        };
        class Circle : public Shape {
        public:
            float area() { return 3.14159f * r * r; }
        };
        class Square : public Shape {
        public:
            float area() { return r * r; }
        };
        class K {
        public:
            Shape* s; float out;
            void operator()(int i) { out = s->area(); }
        };
    "#;

    #[test]
    fn polymorphic_call_becomes_test_chain() {
        let mut lp = compile(SHAPES).unwrap();
        let kf = lp.kernel("K").unwrap().operator_fn;
        let stats = run(&mut lp.module, kf);
        assert_eq!(stats.polymorphic, 1);
        assert_eq!(stats.total_targets, 3); // Shape, Circle, Square impls
        let f = lp.module.function(kf);
        assert!(
            !f.blocks
                .iter()
                .flat_map(|b| &b.insts)
                .any(|&i| matches!(f.inst(i).op, Op::CallVirtual { .. })),
            "no virtual calls may remain in any block"
        );
        assert!(
            concord_ir::verify::verify_function(f).is_ok(),
            "{:?}",
            concord_ir::verify::verify_function(f)
        );
        // Three direct calls now exist.
        let calls = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|&&i| matches!(f.inst(i).op, Op::Call { .. }))
            .count();
        assert_eq!(calls, 3);
    }

    #[test]
    fn monomorphic_call_is_direct() {
        let src = r#"
            class Shape {
            public:
                float r;
                virtual float area() { return r; }
            };
            class K {
            public:
                Shape* s; float out;
                void operator()(int i) { out = s->area(); }
            };
        "#;
        let mut lp = compile(src).unwrap();
        let kf = lp.kernel("K").unwrap().operator_fn;
        let stats = run(&mut lp.module, kf);
        assert_eq!(stats.monomorphic, 1);
        assert_eq!(stats.polymorphic, 0);
        let f = lp.module.function(kf);
        assert!(concord_ir::verify::verify_function(f).is_ok());
        // No extra blocks were created for a monomorphic site.
        assert!(!f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .any(|&i| matches!(f.inst(i).op, Op::CallVirtual { .. })));
    }

    #[test]
    fn run_module_covers_helpers() {
        let mut lp = compile(SHAPES).unwrap();
        let stats = run_module(&mut lp.module);
        assert_eq!(stats.polymorphic, 1);
        assert!(concord_ir::verify::verify_module(&lp.module).is_ok());
    }
}
