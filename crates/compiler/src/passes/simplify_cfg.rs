//! CFG cleanup: remove unreachable blocks, merge trivial block chains, and
//! collapse single-incoming phis.
//!
//! One sweep does it all. Each block, in order, absorbs its successor for
//! as long as it ends in `br` to a block with no other predecessor; that
//! is the same sequence of merges as always merging the lowest mergeable
//! block first, because a merge changes no other block's predecessor
//! count. Then unreachable and absorbed blocks are compacted away at once,
//! trivial phis collapse to a fixpoint through one replacement map, and
//! one replace-all-uses applies it. The cost is linear in the function
//! plus the rounds of phi collapsing.

use concord_ir::function::Function;
use concord_ir::inst::{BlockId, Op, ValueId};
use std::collections::HashMap;

/// Run CFG simplification. Returns true if anything changed.
pub fn run(f: &mut Function) -> bool {
    let n = f.blocks.len();
    let reachable = reachable_blocks(f);
    let mut npreds = vec![0usize; n];
    for b in f.block_ids().filter(|b| reachable[b.0 as usize]) {
        for s in f.successors(b) {
            npreds[s.0 as usize] += 1;
        }
    }
    let mut absorbed = vec![false; n];
    let mut replace: HashMap<ValueId, ValueId> = HashMap::new();
    for a in f.block_ids() {
        if !reachable[a.0 as usize] || absorbed[a.0 as usize] {
            continue;
        }
        while let Some(b) = mergeable_successor(f, a, &npreds) {
            merge(f, a, b, &mut replace);
            absorbed[b.0 as usize] = true;
            npreds[b.0 as usize] = 0;
        }
    }
    let removed: Vec<bool> = (0..n).map(|b| !reachable[b] || absorbed[b]).collect();
    let compacted = removed.contains(&true);
    if compacted {
        compact(f, &removed);
    }
    collapse_trivial_phis(f, &mut replace);
    let changed = compacted || !replace.is_empty();
    f.replace_all_uses(&replace, &[]);
    changed
}

/// Which blocks the entry reaches.
fn reachable_blocks(f: &Function) -> Vec<bool> {
    let mut reachable = vec![false; f.blocks.len()];
    let mut work = vec![f.entry()];
    while let Some(b) = work.pop() {
        if !std::mem::replace(&mut reachable[b.0 as usize], true) {
            work.extend(f.successors(b));
        }
    }
    reachable
}

/// `b` when `a` ends in `br b` and `b` has no other predecessor.
fn mergeable_successor(f: &Function, a: BlockId, npreds: &[usize]) -> Option<BlockId> {
    let Op::Br(b) = f.inst(f.terminator(a)?).op else { return None };
    (b != a && npreds[b.0 as usize] == 1).then_some(b)
}

/// Splice `b` onto the end of `a` in place of `a`'s `br`. `b`'s phis have
/// one live edge, from `a`, and are replaced by its value; `b` is left as
/// an `unreachable` stub for the compaction to drop.
fn merge(f: &mut Function, a: BlockId, b: BlockId, replace: &mut HashMap<ValueId, ValueId>) {
    let b_insts = std::mem::take(&mut f.block_mut(b).insts);
    let mut moved = Vec::with_capacity(b_insts.len());
    for id in b_insts {
        if let Op::Phi(incoming) = &f.inst(id).op {
            let &(_, v) = incoming
                .iter()
                .find(|(pred, _)| *pred == a)
                .expect("single-predecessor block's phi names its predecessor");
            replace.insert(id, v);
        } else {
            moved.push(id);
        }
    }
    let a_block = f.block_mut(a);
    a_block.insts.pop();
    a_block.insts.extend(moved);
    // Successors' phis now name `a`.
    for s in f.successors(a) {
        for i in 0..f.block(s).insts.len() {
            let id = f.block(s).insts[i];
            let Op::Phi(incoming) = &mut f.inst_mut(id).op else { break };
            for (pred, _) in incoming.iter_mut() {
                if *pred == b {
                    *pred = a;
                }
            }
        }
    }
    let stub = f.push_inst(Op::Unreachable, concord_ir::Type::Void);
    f.block_mut(b).insts = vec![stub];
}

/// Drop the `removed` blocks, keeping the others in order, and renumber
/// every branch and phi in the arena. Phi edges from dropped blocks go; an
/// instruction no longer in any block that branches to a dropped block is
/// pointed at the entry, which keeps it harmless.
fn compact(f: &mut Function, removed: &[bool]) {
    let mut map: Vec<Option<BlockId>> = vec![None; removed.len()];
    let mut kept = Vec::with_capacity(removed.len());
    for (b, block) in std::mem::take(&mut f.blocks).into_iter().enumerate() {
        if !removed[b] {
            map[b] = Some(BlockId(kept.len() as u32));
            kept.push(block);
        }
    }
    f.blocks = kept;
    let entry = BlockId(0);
    let remap = |b: &BlockId| map[b.0 as usize].unwrap_or(entry);
    for inst in f.insts.iter_mut() {
        match &mut inst.op {
            Op::Br(t) => *t = remap(t),
            Op::CondBr(_, t, e) => {
                *t = remap(t);
                *e = remap(e);
            }
            Op::Phi(incoming) => {
                incoming.retain(|(pred, _)| map[pred.0 as usize].is_some());
                for (pred, _) in incoming.iter_mut() {
                    *pred = remap(pred);
                }
            }
            _ => {}
        }
    }
}

/// Add to `replace` every placed phi whose incoming values, seen through
/// `replace`, are one value other than the phi itself, until no more
/// collapse.
fn collapse_trivial_phis(f: &Function, replace: &mut HashMap<ValueId, ValueId>) {
    let resolve = |replace: &HashMap<ValueId, ValueId>, mut v: ValueId| {
        while let Some(&n) = replace.get(&v) {
            v = n;
        }
        v
    };
    let mut phis: Vec<ValueId> = f
        .blocks
        .iter()
        .flat_map(|b| b.insts.iter().copied())
        .filter(|&id| matches!(f.inst(id).op, Op::Phi(_)))
        .collect();
    loop {
        let before = phis.len();
        phis.retain(|&id| {
            let Op::Phi(incoming) = &f.inst(id).op else { unreachable!("collected phis") };
            let mut unique: Option<ValueId> = None;
            for &(_, v) in incoming {
                let v = resolve(replace, v);
                if v == id {
                    continue;
                }
                match unique {
                    None => unique = Some(v),
                    Some(u) if u == v => {}
                    Some(_) => return true,
                }
            }
            match unique {
                Some(v) => {
                    replace.insert(id, v);
                    false
                }
                None => true,
            }
        });
        if phis.len() == before {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use concord_ir::builder::FunctionBuilder;
    use concord_ir::inst::ICmp;
    use concord_ir::types::Type;

    #[test]
    fn removes_unreachable_blocks() {
        let mut b = FunctionBuilder::new("f", vec![], Type::Void);
        let dead = b.new_block();
        b.ret(None);
        b.switch_to(dead);
        b.ret(None);
        let mut f = b.build();
        assert!(run(&mut f));
        assert_eq!(f.blocks.len(), 1);
        assert!(concord_ir::verify::verify_function(&f).is_ok());
    }

    #[test]
    fn merges_linear_chains() {
        let mut b = FunctionBuilder::new("f", vec![Type::I32], Type::I32);
        let p = b.param(0);
        let b1 = b.new_block();
        let b2 = b.new_block();
        b.br(b1);
        b.switch_to(b1);
        b.br(b2);
        b.switch_to(b2);
        b.ret(Some(p));
        let mut f = b.build();
        assert!(run(&mut f));
        assert_eq!(f.blocks.len(), 1);
        assert!(concord_ir::verify::verify_function(&f).is_ok());
    }

    #[test]
    fn a_loop_back_to_the_entry_is_rejected_and_its_valid_form_kept() {
        // bb0: condbr %c, bb1, bb2; bb1: br bb0; bb2: ret. This pass once
        // merged the entry into bb1 and left `bb0: unreachable`; the
        // verifier now rejects the input instead.
        let mut b = FunctionBuilder::new("f", vec![Type::I1], Type::Void);
        let c = b.param(0);
        let (back, exit) = (b.new_block(), b.new_block());
        b.cond_br(c, back, exit);
        b.switch_to(back);
        b.br(BlockId(0));
        b.switch_to(exit);
        b.ret(None);
        assert!(concord_ir::verify::verify_function(&b.build()).is_err());
        // The valid form enters a header block first; nothing merges.
        let mut b = FunctionBuilder::new("f", vec![Type::I1], Type::Void);
        let c = b.param(0);
        let (header, back, exit) = (b.new_block(), b.new_block(), b.new_block());
        b.br(header);
        b.switch_to(header);
        b.cond_br(c, back, exit);
        b.switch_to(back);
        b.br(header);
        b.switch_to(exit);
        b.ret(None);
        let mut f = b.build();
        assert!(!run(&mut f));
        assert_eq!(f.blocks.len(), 4);
        assert!(concord_ir::verify::verify_function(&f).is_ok());
        assert_eq!(f.inst(f.terminator(exit).unwrap()).op, Op::Ret(None));
    }

    #[test]
    fn one_run_merges_every_link_of_a_chain_around_a_diamond() {
        // bb0 -> bb1 -> (bb2 | bb3) -> bb4 -> bb5 -> ret, plus a dead block.
        let mut b = FunctionBuilder::new("f", vec![Type::I32], Type::I32);
        let p = b.param(0);
        let blocks: Vec<BlockId> = (0..5).map(|_| b.new_block()).collect();
        let dead = b.new_block();
        b.br(blocks[0]);
        b.switch_to(blocks[0]);
        let z = b.i32(0);
        let c = b.icmp(ICmp::Sgt, p, z);
        b.cond_br(c, blocks[1], blocks[2]);
        for &arm in &blocks[1..3] {
            b.switch_to(arm);
            b.br(blocks[3]);
        }
        b.switch_to(blocks[3]);
        let x = b.phi(Type::I32, vec![(blocks[1], p), (blocks[2], z), (dead, p)]);
        b.br(blocks[4]);
        b.switch_to(blocks[4]);
        let y = b.phi(Type::I32, vec![(blocks[3], x)]);
        b.ret(Some(y));
        b.switch_to(dead);
        b.br(blocks[3]);
        let mut f = b.build();
        assert!(run(&mut f));
        // Entry+bb1, the two arms, the join+exit; the dead block is gone.
        assert_eq!(f.blocks.len(), 4);
        assert!(concord_ir::verify::verify_function(&f).is_ok());
        assert!(!run(&mut f), "one run reaches the fixpoint");
        assert_eq!(f.inst(f.terminator(BlockId(3)).unwrap()).op, Op::Ret(Some(x)));
    }

    #[test]
    fn preserves_diamonds() {
        let mut b = FunctionBuilder::new("f", vec![Type::I32], Type::I32);
        let p = b.param(0);
        let z = b.i32(0);
        let c = b.icmp(ICmp::Sgt, p, z);
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        b.cond_br(c, t, e);
        b.switch_to(t);
        let one = b.i32(1);
        b.br(j);
        b.switch_to(e);
        let two = b.i32(2);
        b.br(j);
        b.switch_to(j);
        let x = b.phi(Type::I32, vec![(t, one), (e, two)]);
        b.ret(Some(x));
        let mut f = b.build();
        run(&mut f);
        assert_eq!(f.blocks.len(), 4, "diamond must be preserved");
        assert!(concord_ir::verify::verify_function(&f).is_ok());
    }

    #[test]
    fn collapses_single_value_phi() {
        let mut b = FunctionBuilder::new("f", vec![Type::I32, Type::I1], Type::I32);
        let p = b.param(0);
        let c = b.param(1);
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        b.cond_br(c, t, e);
        b.switch_to(t);
        b.br(j);
        b.switch_to(e);
        b.br(j);
        b.switch_to(j);
        // Both edges carry the same value.
        let x = b.phi(Type::I32, vec![(t, p), (e, p)]);
        b.ret(Some(x));
        let mut f = b.build();
        assert!(run(&mut f));
        assert!(concord_ir::verify::verify_function(&f).is_ok());
        // The phi is gone; ret uses p directly.
        let last_block = BlockId((f.blocks.len() - 1) as u32);
        let ret = f.terminator(last_block).unwrap();
        assert_eq!(f.inst(ret).op, Op::Ret(Some(p)));
    }
}
