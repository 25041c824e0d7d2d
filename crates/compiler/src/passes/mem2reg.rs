//! Register promotion (mem2reg): rewrite scalar private-memory allocas into
//! SSA values with phi nodes.
//!
//! The frontend lowers every local variable to an alloca; this pass performs
//! the "aggressive register promotion" §4 calls for — on a GPU, leftover
//! private-memory traffic wastes the large register file. Promotable
//! allocas are those whose address never escapes: every use is a direct
//! load or store of a single consistent scalar type.

use concord_ir::analysis::DomTree;
use concord_ir::function::Function;
use concord_ir::inst::{BlockId, Op, ValueId};
use concord_ir::types::Type;
use std::collections::HashMap;

/// Run register promotion. Returns the number of allocas promoted.
///
/// Every candidate is renamed in one walk over the dominator tree, with
/// one current value per candidate (Cytron et al.), so the cost is linear
/// in the function plus the phis placed. Phis and zero constants enter the
/// arena per candidate in candidate order (phis by block id, then the
/// zero), and each phi goes to its block's head, so value ids do not depend
/// on how the walk is organised.
pub fn run(f: &mut Function) -> usize {
    let candidates = promotable_allocas(f);
    if candidates.is_empty() {
        return 0;
    }
    let dom = DomTree::compute(f);
    let frontiers = dom.dominance_frontiers(f);
    let entry = f.entry();
    let nblocks = f.blocks.len();
    // Candidate index of each promoted alloca, by value id.
    let mut slot: Vec<Option<usize>> = vec![None; f.insts.len()];
    for (k, &(alloca, _)) in candidates.iter().enumerate() {
        slot[alloca.0 as usize] = Some(k);
    }
    // Blocks holding stores (defs) of each candidate.
    let mut def_blocks: Vec<Vec<BlockId>> = vec![Vec::new(); candidates.len()];
    for b in f.block_ids() {
        for &id in &f.block(b).insts {
            if let Op::Store { ptr, .. } = f.inst(id).op {
                if let Some(k) = slot[ptr.0 as usize] {
                    def_blocks[k].push(b);
                }
            }
        }
    }
    // Predecessors in `Function::predecessors` order, which is the order
    // of every phi's incoming list; `edge_slot[b][j]` is the position of
    // `b` among the predecessors of its `j`-th successor.
    let succs: Vec<Vec<BlockId>> = f.block_ids().map(|b| f.successors(b)).collect();
    let mut preds: Vec<Vec<BlockId>> = vec![Vec::new(); nblocks];
    let mut edge_slot: Vec<Vec<usize>> = vec![Vec::new(); nblocks];
    for (b, ss) in succs.iter().enumerate() {
        for s in ss {
            let p = &mut preds[s.0 as usize];
            edge_slot[b].push(p.len());
            p.push(BlockId(b as u32));
        }
    }

    // Phi placement on each candidate's iterated dominance frontier, then
    // the candidate's zero (the value on paths with no prior store).
    struct Phi {
        candidate: usize,
        id: ValueId,
        /// Per predecessor slot; a predecessor the walk never reaches
        /// (unreachable) keeps `None` and gets the zero.
        incoming: Vec<Option<ValueId>>,
    }
    let mut phis_at: Vec<Vec<Phi>> = (0..nblocks).map(|_| Vec::new()).collect();
    let mut zeros: Vec<ValueId> = Vec::with_capacity(candidates.len());
    let mut in_idf = vec![usize::MAX; nblocks];
    for (k, &(_, ty)) in candidates.iter().enumerate() {
        let mut phi_blocks: Vec<BlockId> = Vec::new();
        let mut work = def_blocks[k].clone();
        while let Some(b) = work.pop() {
            for &df in frontiers.get(&b).map(|v| v.as_slice()).unwrap_or(&[]) {
                if in_idf[df.0 as usize] != k {
                    in_idf[df.0 as usize] = k;
                    phi_blocks.push(df);
                    work.push(df);
                }
            }
        }
        phi_blocks.retain(|b| dom.rpo_index(*b).is_some());
        phi_blocks.sort_unstable();
        for b in phi_blocks {
            let id = f.push_inst(Op::Phi(Vec::new()), ty);
            let incoming = vec![None; preds[b.0 as usize].len()];
            phis_at[b.0 as usize].push(Phi { candidate: k, id, incoming });
        }
        let zero = match ty {
            Type::F32 | Type::F64 => Op::ConstFloat(0.0),
            Type::Ptr(_) => Op::ConstNull,
            _ => Op::ConstInt(0),
        };
        zeros.push(f.push_inst(zero, ty));
    }
    // Each phi at its block's head: a later candidate's phi goes in front
    // of an earlier one's.
    for (b, phis) in phis_at.iter().enumerate() {
        if !phis.is_empty() {
            let rest = std::mem::take(&mut f.blocks[b].insts);
            f.blocks[b].insts = phis.iter().rev().map(|phi| phi.id).chain(rest).collect();
        }
    }
    // Each zero right after its alloca in the entry block, or at the very
    // front (later candidates first) when the alloca lives elsewhere.
    let mut in_entry = vec![false; candidates.len()];
    for id in &f.block(entry).insts {
        if let Some(&Some(k)) = slot.get(id.0 as usize) {
            in_entry[k] = true;
        }
    }
    let mut new_entry: Vec<ValueId> =
        (0..candidates.len()).rev().filter(|&k| !in_entry[k]).map(|k| zeros[k]).collect();
    for id in std::mem::take(&mut f.block_mut(entry).insts) {
        new_entry.push(id);
        if let Some(&Some(k)) = slot.get(id.0 as usize) {
            new_entry.push(zeros[k]);
        }
    }
    f.block_mut(entry).insts = new_entry;

    // Rename: walk the dominator tree, with the current value of every
    // candidate and an undo log restored when a subtree is done.
    let mut children: Vec<Vec<BlockId>> = vec![Vec::new(); nblocks];
    for &b in &dom.rpo {
        if b != entry {
            if let Some(id) = dom.idom(b) {
                children[id.0 as usize].push(b);
            }
        }
    }
    enum Step {
        Enter(BlockId),
        Leave(usize),
    }
    let mut current = zeros.clone();
    let mut undo: Vec<(usize, ValueId)> = Vec::new();
    let mut replace: HashMap<ValueId, ValueId> = HashMap::new();
    let mut dead: Vec<ValueId> = candidates.iter().map(|&(a, _)| a).collect();
    let mut stack = vec![Step::Enter(entry)];
    while let Some(step) = stack.pop() {
        let b = match step {
            Step::Leave(mark) => {
                for (k, v) in undo.drain(mark..).rev() {
                    current[k] = v;
                }
                continue;
            }
            Step::Enter(b) => b.0 as usize,
        };
        stack.push(Step::Leave(undo.len()));
        for phi in &phis_at[b] {
            undo.push((phi.candidate, current[phi.candidate]));
            current[phi.candidate] = phi.id;
        }
        for &id in &f.blocks[b].insts {
            match f.insts[id.0 as usize].op {
                Op::Load(p) => {
                    if let Some(k) = slot[p.0 as usize] {
                        replace.insert(id, current[k]);
                    }
                }
                Op::Store { ptr, val } => {
                    if let Some(k) = slot[ptr.0 as usize] {
                        undo.push((k, current[k]));
                        current[k] = val;
                        dead.push(id);
                    }
                }
                _ => {}
            }
        }
        for (s, &edge) in succs[b].iter().zip(&edge_slot[b]) {
            for phi in &mut phis_at[s.0 as usize] {
                phi.incoming[edge] = Some(current[phi.candidate]);
            }
        }
        stack.extend(children[b].iter().map(|&c| Step::Enter(c)));
    }
    for (b, phis) in phis_at.into_iter().enumerate() {
        for phi in phis {
            let zero = zeros[phi.candidate];
            let incoming = preds[b].iter().zip(phi.incoming);
            f.inst_mut(phi.id).op =
                Op::Phi(incoming.map(|(&p, v)| (p, v.unwrap_or(zero))).collect());
        }
    }
    f.replace_all_uses(&replace, &dead);
    candidates.len()
}

/// Find allocas where every use is a direct same-type scalar load/store,
/// in block order. A dead alloca is promotable whatever its size.
fn promotable_allocas(f: &Function) -> Vec<(ValueId, Type)> {
    /// What the uses seen so far say about one alloca.
    #[derive(Clone, Copy)]
    enum Uses {
        NotAlloca,
        None,
        Typed(Type),
        Escapes,
    }
    let mut uses = vec![Uses::NotAlloca; f.insts.len()];
    let mut allocas: Vec<ValueId> = Vec::new();
    for block in &f.blocks {
        for &id in &block.insts {
            if matches!(f.inst(id).op, Op::Alloca { .. }) {
                allocas.push(id);
                uses[id.0 as usize] = Uses::None;
            }
        }
    }
    for block in &f.blocks {
        for &id in &block.insts {
            let inst = f.inst(id);
            inst.op.for_each_operand(|opnd| {
                let u = &mut uses[opnd.0 as usize];
                if matches!(u, Uses::NotAlloca | Uses::Escapes) {
                    return;
                }
                let ty = match inst.op {
                    Op::Load(p) if p == opnd => inst.ty,
                    // A store *through* the alloca is fine; storing the
                    // alloca's address itself is an escape.
                    Op::Store { ptr, val } if ptr == opnd && val != opnd => f.inst(val).ty,
                    _ => {
                        *u = Uses::Escapes;
                        return;
                    }
                };
                *u = match *u {
                    Uses::None => Uses::Typed(ty),
                    Uses::Typed(t) if t == ty => Uses::Typed(t),
                    _ => Uses::Escapes,
                };
            });
        }
    }
    allocas
        .into_iter()
        .filter_map(|a| match uses[a.0 as usize] {
            Uses::None => Some((a, Type::I64)),
            // Only promote scalars that fit the slot.
            Uses::Typed(t) => match f.inst(a).op {
                Op::Alloca { size, .. } if size < t.size() => None,
                _ => Some((a, t)),
            },
            Uses::NotAlloca | Uses::Escapes => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use concord_ir::builder::FunctionBuilder;
    use concord_ir::inst::{BinOp, ICmp};
    use concord_ir::types::AddrSpace;

    /// Build: int x = p; if (p > 0) x = x + 1; return x;
    fn diamond_with_local() -> Function {
        let mut b = FunctionBuilder::new("f", vec![Type::I32], Type::I32);
        let p = b.param(0);
        let slot = b.alloca(4, 4);
        b.store(slot, p);
        let z = b.i32(0);
        let c = b.icmp(ICmp::Sgt, p, z);
        let t = b.new_block();
        let j = b.new_block();
        b.cond_br(c, t, j);
        b.switch_to(t);
        let x = b.load(slot, Type::I32);
        let one = b.i32(1);
        let x1 = b.bin(BinOp::Add, x, one);
        b.store(slot, x1);
        b.br(j);
        b.switch_to(j);
        let out = b.load(slot, Type::I32);
        b.ret(Some(out));
        b.build()
    }

    #[test]
    fn promotes_diamond_local() {
        let mut f = diamond_with_local();
        assert_eq!(run(&mut f), 1);
        assert!(
            concord_ir::verify::verify_function(&f).is_ok(),
            "{:?}",
            concord_ir::verify::verify_function(&f)
        );
        // No allocas, loads, or stores remain.
        assert!(!f.insts.iter().enumerate().any(|(i, inst)| f
            .blocks
            .iter()
            .any(|b| b.insts.contains(&ValueId(i as u32)))
            && matches!(inst.op, Op::Alloca { .. } | Op::Load(_) | Op::Store { .. })));
        // A phi was introduced at the join.
        let has_phi =
            f.blocks.iter().flat_map(|b| &b.insts).any(|&i| matches!(f.inst(i).op, Op::Phi(_)));
        assert!(has_phi);
    }

    #[test]
    fn promotes_loop_counter() {
        // i = 0; while (i < n) i = i + 1; return i;
        let mut b = FunctionBuilder::new("f", vec![Type::I32], Type::I32);
        let n = b.param(0);
        let slot = b.alloca(4, 4);
        let z = b.i32(0);
        b.store(slot, z);
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.br(header);
        b.switch_to(header);
        let i = b.load(slot, Type::I32);
        let c = b.icmp(ICmp::Slt, i, n);
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let i2 = b.load(slot, Type::I32);
        let one = b.i32(1);
        let inext = b.bin(BinOp::Add, i2, one);
        b.store(slot, inext);
        b.br(header);
        b.switch_to(exit);
        let out = b.load(slot, Type::I32);
        b.ret(Some(out));
        let mut f = b.build();
        assert_eq!(run(&mut f), 1);
        assert!(
            concord_ir::verify::verify_function(&f).is_ok(),
            "{:?}",
            concord_ir::verify::verify_function(&f)
        );
        // Loop-carried phi in the header.
        let header_has_phi =
            f.block(header).insts.iter().any(|&i| matches!(f.inst(i).op, Op::Phi(_)));
        assert!(header_has_phi);
    }

    #[test]
    fn skips_escaping_alloca() {
        // The address is stored somewhere: not promotable.
        let mut b = FunctionBuilder::new("f", vec![Type::Ptr(AddrSpace::Cpu)], Type::Void);
        let out = b.param(0);
        let slot = b.alloca(8, 8);
        b.store(out, slot); // escape
        b.ret(None);
        let mut f = b.build();
        assert_eq!(run(&mut f), 0);
    }

    #[test]
    fn skips_aggregate_alloca() {
        // Mixed-offset access via gep: not a scalar slot.
        let mut b = FunctionBuilder::new("f", vec![], Type::F32);
        let slot = b.alloca(16, 8);
        let p1 = b.gep_const(slot, 8);
        let v = b.load(p1, Type::F32);
        b.ret(Some(v));
        let mut f = b.build();
        assert_eq!(run(&mut f), 0);
    }

    #[test]
    fn promotes_uninitialized_read_to_zero() {
        let mut b = FunctionBuilder::new("f", vec![], Type::I32);
        let slot = b.alloca(4, 4);
        let v = b.load(slot, Type::I32);
        b.ret(Some(v));
        let mut f = b.build();
        assert_eq!(run(&mut f), 1);
        assert!(concord_ir::verify::verify_function(&f).is_ok());
    }
}
