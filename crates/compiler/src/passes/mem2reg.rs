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
use std::collections::{HashMap, HashSet};

/// Run register promotion. Returns the number of allocas promoted.
pub fn run(f: &mut Function) -> usize {
    let candidates = promotable_allocas(f);
    if candidates.is_empty() {
        return 0;
    }
    let dom = DomTree::compute(f);
    let frontiers = dom.dominance_frontiers(f);
    let preds = f.predecessors();

    let mut promoted = 0;
    for (alloca, ty) in candidates {
        promote_one(f, alloca, ty, &dom, &frontiers, &preds);
        promoted += 1;
    }
    promoted
}

/// Find allocas where every use is a direct same-type scalar load/store.
fn promotable_allocas(f: &Function) -> Vec<(ValueId, Type)> {
    let mut uses: HashMap<ValueId, Vec<(ValueId, bool)>> = HashMap::new(); // alloca -> (user, is_safe)
    let mut allocas: Vec<ValueId> = Vec::new();
    for b in f.block_ids() {
        for &id in &f.block(b).insts {
            if matches!(f.inst(id).op, Op::Alloca { .. }) {
                allocas.push(id);
            }
        }
    }
    let alloca_set: HashSet<ValueId> = allocas.iter().copied().collect();
    for b in f.block_ids() {
        for &id in &f.block(b).insts {
            let inst = f.inst(id);
            for opnd in inst.op.operands() {
                if !alloca_set.contains(&opnd) {
                    continue;
                }
                let safe = match &inst.op {
                    Op::Load(p) => *p == opnd,
                    // A store *through* the alloca is fine; storing the
                    // alloca's address itself is an escape.
                    Op::Store { ptr, val } => *ptr == opnd && *val != opnd,
                    _ => false,
                };
                uses.entry(opnd).or_default().push((id, safe));
            }
        }
    }
    allocas
        .into_iter()
        .filter_map(|a| {
            let Some(us) = uses.get(&a) else {
                // Dead alloca: promotable trivially (type irrelevant).
                return Some((a, Type::I64));
            };
            if us.iter().any(|(_, safe)| !safe) {
                return None;
            }
            // Consistent access type.
            let mut ty: Option<Type> = None;
            for (user, _) in us {
                let t = match &f.inst(*user).op {
                    Op::Load(_) => f.inst(*user).ty,
                    Op::Store { val, .. } => f.inst(*val).ty,
                    _ => unreachable!("filtered above"),
                };
                match ty {
                    None => ty = Some(t),
                    Some(prev) if prev == t => {}
                    Some(_) => return None,
                }
            }
            let t = ty.unwrap_or(Type::I64);
            // Only promote scalars that fit the slot.
            if let Op::Alloca { size, .. } = f.inst(a).op {
                if size < t.size() {
                    return None;
                }
            }
            Some((a, t))
        })
        .collect()
}

fn promote_one(
    f: &mut Function,
    alloca: ValueId,
    ty: Type,
    dom: &DomTree,
    frontiers: &HashMap<BlockId, Vec<BlockId>>,
    preds: &HashMap<BlockId, Vec<BlockId>>,
) {
    // Blocks containing stores (defs).
    let mut def_blocks: Vec<BlockId> = Vec::new();
    for b in f.block_ids() {
        for &id in &f.block(b).insts {
            if let Op::Store { ptr, .. } = f.inst(id).op {
                if ptr == alloca {
                    def_blocks.push(b);
                }
            }
        }
    }
    // Phi placement: iterated dominance frontier.
    let mut phi_blocks: HashSet<BlockId> = HashSet::new();
    let mut work = def_blocks.clone();
    while let Some(b) = work.pop() {
        for &df in frontiers.get(&b).map(|v| v.as_slice()).unwrap_or(&[]) {
            if phi_blocks.insert(df) {
                work.push(df);
            }
        }
    }
    // Only keep phis in reachable blocks, created in block order so the
    // phis' value ids do not depend on hash order.
    let mut phi_blocks: Vec<BlockId> =
        phi_blocks.into_iter().filter(|b| dom.rpo_index(*b).is_some()).collect();
    phi_blocks.sort_unstable();
    // Create phis (empty incoming, filled during rename).
    let mut phi_of_block: HashMap<BlockId, ValueId> = HashMap::new();
    for &b in &phi_blocks {
        let phi = f.push_inst(Op::Phi(Vec::new()), ty);
        f.block_mut(b).insts.insert(0, phi);
        phi_of_block.insert(b, phi);
    }
    // Rename: DFS over the dominator tree (approximated by RPO walk with a
    // per-block incoming value computed from the idom chain).
    // We do a standard recursive rename over the dom tree.
    let mut children: HashMap<BlockId, Vec<BlockId>> = HashMap::new();
    for &b in &dom.rpo {
        if b != f.entry() {
            if let Some(id) = dom.idom(b) {
                children.entry(id).or_default().push(b);
            }
        }
    }
    // Replacements for loads; removals for loads/stores.
    let mut replace: HashMap<ValueId, ValueId> = HashMap::new();
    let mut remove: HashSet<ValueId> = HashSet::new();
    remove.insert(alloca);

    // Undef value: materialize a zero constant in the entry block right
    // after the alloca (used on paths with no prior store).
    let zero = f.push_inst(
        match ty {
            Type::F32 | Type::F64 => Op::ConstFloat(0.0),
            Type::Ptr(_) => Op::ConstNull,
            _ => Op::ConstInt(0),
        },
        ty,
    );
    let pos =
        f.block(f.entry()).insts.iter().position(|&i| i == alloca).map(|p| p + 1).unwrap_or(0);
    f.block_mut(f.entry()).insts.insert(pos, zero);

    struct Frame {
        block: BlockId,
        incoming: ValueId,
    }
    let mut stack = vec![Frame { block: f.entry(), incoming: zero }];
    // Record phi incoming additions: (phi, pred, value).
    let mut phi_edges: Vec<(ValueId, BlockId, ValueId)> = Vec::new();
    let mut visited: HashSet<BlockId> = HashSet::new();
    while let Some(Frame { block, incoming }) = stack.pop() {
        if !visited.insert(block) {
            continue;
        }
        let mut current = incoming;
        if let Some(&phi) = phi_of_block.get(&block) {
            current = phi;
        }
        let insts = f.block(block).insts.clone();
        for id in insts {
            match f.inst(id).op.clone() {
                Op::Load(p) if p == alloca => {
                    replace.insert(id, current);
                    remove.insert(id);
                }
                Op::Store { ptr, val } if ptr == alloca => {
                    current = val;
                    remove.insert(id);
                }
                _ => {}
            }
        }
        // Successor phi edges.
        for s in f.successors(block) {
            if let Some(&phi) = phi_of_block.get(&s) {
                phi_edges.push((phi, block, current));
            }
        }
        for &c in children.get(&block).map(|v| v.as_slice()).unwrap_or(&[]) {
            stack.push(Frame { block: c, incoming: current });
        }
    }
    // Install phi incoming edges (cover every predecessor; unreachable-from-
    // rename preds get the zero value).
    for (&b, &phi) in &phi_of_block {
        let mut incoming: Vec<(BlockId, ValueId)> = Vec::new();
        for &p in &preds[&b] {
            let val = phi_edges
                .iter()
                .find(|(ph, pb, _)| *ph == phi && *pb == p)
                .map(|(_, _, v)| *v)
                .unwrap_or(zero);
            incoming.push((p, val));
        }
        f.inst_mut(phi).op = Op::Phi(incoming);
    }
    // Apply replacements transitively (a load may map to another removed
    // load... no: loads map to stored values or phis, never to removed
    // loads' ids, because `current` is always a live value). Still, chase
    // one level to be safe.
    let resolve = |mut v: ValueId| {
        let mut guard = 0;
        while let Some(&n) = replace.get(&v) {
            v = n;
            guard += 1;
            assert!(guard < 1_000_000, "replacement cycle");
        }
        v
    };
    for inst in f.insts.iter_mut() {
        inst.op.map_operands(resolve);
    }
    for bi in 0..f.blocks.len() {
        f.blocks[bi].insts.retain(|i| !remove.contains(i));
    }
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
