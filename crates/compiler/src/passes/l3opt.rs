//! GPU cache-line contention reduction (§4.2, Figure 5).
//!
//! The integrated GPU's L3 is shared by all cores and is not banked: when
//! several cores walk the same array in the same order, they hit the same
//! cache line in the same cycle window and serialize. The transform gives
//! each core a different starting phase in every innermost loop:
//!
//! ```text
//! for (j = 0; j < N; j++)          for (j = 0; j < N; j++) {
//!     ... = a[j];          ===>        j_tmp = (j + start) % N;  // start: per-core phase
//!                                      ... = a[j_tmp];
//!                                  }
//! ```
//!
//! The paper computes the phase as `i / W` (`i` = parallel iteration index,
//! `W` = GPU core count), which assumes contiguous chunking of iterations
//! onto cores. Our runtime assigns warps to EUs round-robin, so the
//! equivalent per-core phase is derived from the work-group id:
//! `start = (group_id % W) * 61` — uniform within a warp (so the transform
//! never breaks coalescing) and distinct across concurrently-running EUs.
//!
//! The iteration *set* is unchanged (a rotation of `0..N`), only the order
//! differs, so any reduction over the loop is preserved up to FP rounding —
//! which the programming model already does not guarantee (§2.2).
//!
//! The transform applies to innermost counted loops `for (j = 0; j < N;
//! j++)` with a single exit from the header and no other exits (an early
//! `break` would make a rotation observable).

use concord_ir::analysis::{find_loops, DomTree};
use concord_ir::function::Function;
use concord_ir::inst::{BinOp, BlockId, ICmp, Intrinsic, Op, ValueId};
use concord_ir::types::Type;
use std::collections::HashSet;

/// Statistics from one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct L3OptStats {
    /// Innermost loops rewritten.
    pub loops_transformed: usize,
}

/// A recognized `for (j = 0; j < n; j++)` loop.
struct CountedLoop {
    header: BlockId,
    phi: ValueId,
    bound: ValueId,
    step_inst: ValueId,
    cmp: ValueId,
    body_blocks: HashSet<BlockId>,
}

fn recognize(f: &Function, l: &concord_ir::analysis::Loop) -> Option<CountedLoop> {
    if l.latches.len() != 1 {
        return None;
    }
    let latch = l.latches[0];
    // Header must be the only exit: every block's successors stay in the
    // loop except the header's.
    for &b in &l.blocks {
        if b == l.header {
            continue;
        }
        if f.successors(b).iter().any(|s| !l.blocks.contains(s)) {
            return None;
        }
    }
    // Header ends in CondBr(cmp, body, exit) with cmp = icmp slt phi, bound.
    let term = f.terminator(l.header)?;
    let Op::CondBr(cond, then_bb, else_bb) = f.inst(term).op else { return None };
    let in_then = l.blocks.contains(&then_bb);
    let in_else = l.blocks.contains(&else_bb);
    if in_then == in_else {
        return None; // both or neither inside: not a rotatable counted loop
    }
    let Op::Icmp(ICmp::Slt, a, bound) = f.inst(cond).op else { return None };
    if !in_then {
        return None; // loop continues on the false edge: unusual shape, skip
    }
    // a must be a phi in the header with init 0 and step a+1 from the latch.
    let Op::Phi(ref incoming) = f.inst(a).op else { return None };
    if incoming.len() != 2 {
        return None;
    }
    let mut init = None;
    let mut step = None;
    for &(pred, v) in incoming {
        if pred == latch {
            step = Some(v);
        } else {
            init = Some(v);
        }
    }
    let (init, step) = (init?, step?);
    if !matches!(f.inst(init).op, Op::ConstInt(0)) {
        return None;
    }
    let Op::Bin(BinOp::Add, sa, sb) = f.inst(step).op else { return None };
    let one_is = |v: ValueId| matches!(f.inst(v).op, Op::ConstInt(1));
    if !((sa == a && one_is(sb)) || (sb == a && one_is(sa))) {
        return None;
    }
    // Bound must be loop-invariant: defined outside the loop, or in the
    // header before the compare (e.g. a field load `this->n`, which the
    // frontend re-emits per iteration but whose address is invariant).
    let bound_in_body =
        l.blocks.iter().filter(|&&b| b != l.header).any(|&b| f.block(b).insts.contains(&bound));
    if bound_in_body {
        return None;
    }
    let mut body_blocks = l.blocks.clone();
    body_blocks.remove(&l.header);
    Some(CountedLoop { header: l.header, phi: a, bound, step_inst: step, cmp: cond, body_blocks })
}

/// Apply the transform to every innermost counted loop of `f`.
/// `gpu_cores` is W in Figure 5 (the number of GPU cores / EUs).
pub fn run(f: &mut Function, gpu_cores: u32) -> L3OptStats {
    let mut stats = L3OptStats::default();
    let loops = find_loops(f, &DomTree::compute(f));
    let innermost: Vec<_> = loops.iter().filter(|l| l.is_innermost(&loops)).collect();
    // Collect rewrites first (recognition borrows f immutably).
    let recognized: Vec<CountedLoop> = innermost.iter().filter_map(|l| recognize(f, l)).collect();
    for cl in recognized {
        // start = (group_id() % W) * 61, computed once in the entry block
        // (right before its terminator so all operands dominate uses).
        let gid = f.push_inst(Op::IntrinsicCall(Intrinsic::GroupId, vec![]), Type::I32);
        let w = f.push_inst(Op::ConstInt(gpu_cores as i64), Type::I32);
        let phase = f.push_inst(Op::Bin(BinOp::SRem, gid, w), Type::I32);
        let spread = f.push_inst(Op::ConstInt(61), Type::I32);
        let start = f.push_inst(Op::Bin(BinOp::Mul, phase, spread), Type::I32);
        let entry = f.entry();
        let entry_len = f.block(entry).insts.len();
        let at = entry_len - 1; // before the terminator
        f.block_mut(entry).insts.splice(at..at, [gid, w, phase, spread, start]);

        // In the header, after the phi group: j_tmp = (j + start) % N.
        // N > 0 is guaranteed on the taken edge; but the header also runs
        // when j == N (exit iteration) where (j+start) % N is still fine
        // since N > 0 whenever the body executed at least once... it is NOT
        // fine when N == 0 on the first check. Guard by computing j_tmp in
        // the loop body's first block instead — dominated by the header and
        // only reached when j < N (so N >= 1).
        let body_entry = {
            let term = f.terminator(cl.header).expect("recognized loop header");
            let Op::CondBr(_, then_bb, _) = f.inst(term).op else { unreachable!() };
            then_bb
        };
        let sum = f.push_inst(Op::Bin(BinOp::Add, cl.phi, start), Type::I32);
        let jtmp = f.push_inst(Op::Bin(BinOp::SRem, sum, cl.bound), Type::I32);
        // Insert after any phis at the head of the body block.
        let mut at = 0;
        while at < f.block(body_entry).insts.len()
            && matches!(f.inst(f.block(body_entry).insts[at]).op, Op::Phi(_))
        {
            at += 1;
        }
        f.block_mut(body_entry).insts.splice(at..at, [sum, jtmp]);

        // Replace uses of j inside loop body blocks (not the header: the
        // compare and the step must keep the original induction variable).
        for &b in &cl.body_blocks {
            let insts = f.block(b).insts.clone();
            for id in insts {
                if id == cl.step_inst || id == cl.cmp || id == sum || id == jtmp {
                    continue;
                }
                f.inst_mut(id).op.map_operands(|v| if v == cl.phi { jtmp } else { v });
            }
        }
        stats.loops_transformed += 1;
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use concord_frontend::compile;

    fn kernel_with_inner_loop() -> (concord_ir::Module, concord_ir::FuncId) {
        let src = r#"
            class K {
            public:
                float* a; int n; float out;
                void operator()(int i) {
                    float s = 0.0f;
                    for (int j = 0; j < n; j++) {
                        s += a[j];
                    }
                    out = s;
                }
            };
        "#;
        let lp = compile(src).unwrap();
        let kf = lp.kernel("K").unwrap().operator_fn;
        (lp.module, kf)
    }

    #[test]
    fn transforms_streaming_inner_loop() {
        let (mut module, kf) = kernel_with_inner_loop();
        // mem2reg first so the induction variable is a phi.
        let f = module.function_mut(kf);
        super::super::mem2reg::run(f);
        super::super::simplify_cfg::run(f);
        let stats = run(f, 7);
        assert_eq!(stats.loops_transformed, 1);
        assert!(
            concord_ir::verify::verify_function(f).is_ok(),
            "{:?}",
            concord_ir::verify::verify_function(f)
        );
        // The rotation introduces an SRem on the bound.
        let has_rem = f.insts.iter().any(|i| matches!(i.op, Op::Bin(BinOp::SRem, ..)));
        assert!(has_rem);
        let has_gid =
            f.insts.iter().any(|i| matches!(i.op, Op::IntrinsicCall(Intrinsic::GroupId, _)));
        assert!(has_gid);
    }

    #[test]
    fn skips_loops_with_break() {
        let src = r#"
            class K {
            public:
                float* a; int n; float out;
                void operator()(int i) {
                    float s = 0.0f;
                    for (int j = 0; j < n; j++) {
                        if (a[j] < 0.0f) break;
                        s += a[j];
                    }
                    out = s;
                }
            };
        "#;
        let lp = compile(src).unwrap();
        let kf = lp.kernel("K").unwrap().operator_fn;
        let mut module = lp.module;
        let f = module.function_mut(kf);
        super::super::mem2reg::run(f);
        super::super::simplify_cfg::run(f);
        let stats = run(f, 7);
        assert_eq!(stats.loops_transformed, 0, "early-exit loops must not be rotated");
    }

    #[test]
    fn skips_non_zero_start() {
        let src = r#"
            class K {
            public:
                float* a; int n; float out;
                void operator()(int i) {
                    float s = 0.0f;
                    for (int j = 1; j < n; j++) { s += a[j]; }
                    out = s;
                }
            };
        "#;
        let lp = compile(src).unwrap();
        let kf = lp.kernel("K").unwrap().operator_fn;
        let mut module = lp.module;
        let f = module.function_mut(kf);
        super::super::mem2reg::run(f);
        super::super::simplify_cfg::run(f);
        assert_eq!(run(f, 7).loops_transformed, 0);
    }

    #[test]
    fn only_innermost_loops_transform() {
        let src = r#"
            class K {
            public:
                float* a; int n; int m; float out;
                void operator()(int i) {
                    float s = 0.0f;
                    for (int k = 0; k < m; k++) {
                        for (int j = 0; j < n; j++) { s += a[j]; }
                    }
                    out = s;
                }
            };
        "#;
        let lp = compile(src).unwrap();
        let kf = lp.kernel("K").unwrap().operator_fn;
        let mut module = lp.module;
        let f = module.function_mut(kf);
        super::super::mem2reg::run(f);
        super::super::simplify_cfg::run(f);
        let stats = run(f, 7);
        assert_eq!(stats.loops_transformed, 1, "outer loop must be left alone");
        assert!(concord_ir::verify::verify_function(f).is_ok());
    }
}
