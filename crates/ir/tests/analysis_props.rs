//! Property tests for the CFG analyses: [`DomTree`] and [`PostDomTree`]
//! are checked against naive reference implementations on randomly
//! generated control-flow graphs (including unreachable blocks, infinite
//! loops, self-loops, back edges into the entry, and duplicate-edge
//! conditional branches).
//!
//! The references use the definition, not an algorithm: `a` dominates `b`
//! iff removing `a` makes `b` unreachable from the entry, and `d`
//! postdominates `b` iff removing `d` cuts every path from `b` to an exit.
//! The shipped analyses are iterative fixpoints — agreeing with the
//! definitional versions on arbitrary graphs is the property.

use concord_ir::analysis::{DomTree, PostDomTree};
use concord_ir::{BinOp, Block, BlockId, Function, Op, Type, ValueId};
use proptest::prelude::*;
use std::collections::HashSet;

/// Shape of one random block: (terminator kind + phi toggle, target seed
/// 1, target seed 2, filler-instruction count seed).
type Shape = (u8, u8, u8, u8);

/// Build a function whose CFG and instruction placement are fully
/// determined by `shape`. Within a block, definitions always precede
/// uses positionally (phis first, then filler, then the terminator), but
/// cross-block references are unconstrained — a use may name a value
/// whose block does not dominate it, which the syntactic analyses under
/// test accept.
fn build_cfg(shape: &[Shape]) -> Function {
    let n = shape.len() as u32;
    let mut f = Function::new("prop_cfg", vec![], Type::Void);
    for _ in 1..n {
        f.blocks.push(Block::default());
    }
    // A pool of entry-block constants every block can draw operands from
    // (also the branch condition — entry defs are visible everywhere).
    let pool: Vec<ValueId> = (0..4)
        .map(|k| {
            let v = f.push_inst(Op::ConstInt(k), Type::I64);
            f.blocks[0].insts.push(v);
            v
        })
        .collect();
    let cond = pool[0];
    let term = move |b: usize| -> Op {
        let (kind, t1, t2, _) = shape[b];
        match kind % 3 {
            0 => Op::Ret(None),
            1 => Op::Br(BlockId(u32::from(t1) % n)),
            _ => Op::CondBr(cond, BlockId(u32::from(t1) % n), BlockId(u32::from(t2) % n)),
        }
    };
    // Terminators are decided up front so predecessor lists exist before
    // the phis that need them are placed.
    let mut preds: Vec<Vec<BlockId>> = vec![Vec::new(); n as usize];
    for b in 0..n as usize {
        for s in term(b).successors() {
            preds[s.0 as usize].push(BlockId(b as u32));
        }
    }
    let mut defined = pool;
    for b in 0..n as usize {
        let (kind, t1, t2, filler) = shape[b];
        if b != 0 && !preds[b].is_empty() && kind & 0x80 != 0 {
            let incoming = preds[b]
                .iter()
                .enumerate()
                .map(|(i, &p)| (p, defined[(usize::from(t2) + i) % defined.len()]))
                .collect();
            let v = f.push_inst(Op::Phi(incoming), Type::I64);
            f.blocks[b].insts.push(v);
            defined.push(v);
        }
        for j in 0..usize::from(filler % 3) {
            let a = defined[(usize::from(t1) + j) % defined.len()];
            let c = defined[(usize::from(t2) + 2 * j) % defined.len()];
            let v = f.push_inst(Op::Bin(BinOp::Add, a, c), Type::I64);
            f.blocks[b].insts.push(v);
            defined.push(v);
        }
        let t = f.push_inst(term(b), Type::Void);
        f.blocks[b].insts.push(t);
    }
    f
}

/// Blocks reachable from the entry when `avoid` (if any) is deleted from
/// the graph.
fn reachable_avoiding(f: &Function, avoid: Option<BlockId>) -> HashSet<BlockId> {
    let mut seen = HashSet::new();
    if avoid == Some(f.entry()) {
        return seen;
    }
    seen.insert(f.entry());
    let mut stack = vec![f.entry()];
    while let Some(b) = stack.pop() {
        for s in f.successors(b) {
            if Some(s) != avoid && seen.insert(s) {
                stack.push(s);
            }
        }
    }
    seen
}

/// Whether some path from `from` reaches an exit block (one with no
/// successors: `ret` or `unreachable`) without passing through `avoid`.
fn reaches_exit_avoiding(f: &Function, from: BlockId, avoid: Option<BlockId>) -> bool {
    if Some(from) == avoid {
        return false;
    }
    let mut seen = HashSet::from([from]);
    let mut stack = vec![from];
    while let Some(b) = stack.pop() {
        if f.successors(b).is_empty() {
            return true;
        }
        for s in f.successors(b) {
            if Some(s) != avoid && seen.insert(s) {
                stack.push(s);
            }
        }
    }
    false
}

proptest! {
    /// `DomTree::dominates` agrees with the path definition: `a` dominates
    /// `b` iff `b` is reachable and deleting `a` cuts every entry path to
    /// `b` (reflexively true for `a == b`).
    #[test]
    fn dominates_matches_cut_vertex_definition(
        shape in collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 1..10)
    ) {
        let f = build_cfg(&shape);
        let dt = DomTree::compute(&f);
        let reachable = reachable_avoiding(&f, None);
        for a in f.block_ids() {
            let without_a = reachable_avoiding(&f, Some(a));
            for b in f.block_ids() {
                let expect = a == b || (reachable.contains(&b) && !without_a.contains(&b));
                prop_assert_eq!(
                    dt.dominates(a, b), expect,
                    "dominates({:?}, {:?}) on {:?}", a, b, shape
                );
            }
        }
    }

    /// Every reachable block's immediate dominator is its *closest* strict
    /// dominator: it strictly dominates the block, and every other strict
    /// dominator dominates it. Unreachable blocks have no idom.
    #[test]
    fn idom_is_the_closest_strict_dominator(
        shape in collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 1..10)
    ) {
        let f = build_cfg(&shape);
        let dt = DomTree::compute(&f);
        let reachable = reachable_avoiding(&f, None);
        let dom = |a: BlockId, b: BlockId| {
            a == b || (reachable.contains(&b) && !reachable_avoiding(&f, Some(a)).contains(&b))
        };
        for b in f.block_ids() {
            if !reachable.contains(&b) {
                prop_assert_eq!(dt.idom(b), None, "unreachable {:?} has an idom", b);
                continue;
            }
            if b == f.entry() {
                prop_assert_eq!(dt.idom(b), Some(b), "entry idom is itself");
                continue;
            }
            let d = dt.idom(b).expect("reachable non-entry block has an idom");
            prop_assert!(d != b && dom(d, b), "idom({:?}) = {:?} is not a strict dominator", b, d);
            for s in f.block_ids() {
                if s != b && dom(s, b) {
                    prop_assert!(
                        dom(s, d),
                        "strict dominator {:?} of {:?} does not dominate idom {:?}", s, b, d
                    );
                }
            }
        }
    }

    /// `PostDomTree::ipdom` agrees with the path definition of
    /// postdominance: a block that reaches no exit has none (`None`); the
    /// virtual exit (`Some(None)`) is the answer when no real block
    /// postdominates `b`; otherwise `Some(Some(d))` names the closest strict
    /// postdominator — deleting `d` cuts every path from `b` to an exit, and
    /// every other such block postdominates `d` too.
    #[test]
    fn ipdom_is_the_closest_strict_postdominator(
        shape in collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 1..10)
    ) {
        let f = build_cfg(&shape);
        let pdt = PostDomTree::compute(&f);
        let postdominates = |d: BlockId, b: BlockId| {
            d == b || (reaches_exit_avoiding(&f, b, None) && !reaches_exit_avoiding(&f, b, Some(d)))
        };
        for b in f.block_ids() {
            if !reaches_exit_avoiding(&f, b, None) {
                prop_assert_eq!(pdt.ipdom(b), None, "{:?} reaches no exit on {:?}", b, shape);
                continue;
            }
            let strict: Vec<BlockId> =
                f.block_ids().filter(|&d| d != b && postdominates(d, b)).collect();
            match pdt.ipdom(b) {
                None => prop_assert!(false, "{:?} reaches an exit but has no ipdom on {:?}", b, shape),
                Some(None) => prop_assert!(
                    strict.is_empty(),
                    "ipdom({:?}) is the virtual exit, but {:?} postdominate it on {:?}", b, strict, shape
                ),
                Some(Some(d)) => {
                    prop_assert!(
                        strict.contains(&d),
                        "ipdom({:?}) = {:?} is not a strict postdominator on {:?}", b, d, shape
                    );
                    for &s in &strict {
                        prop_assert!(
                            postdominates(s, d),
                            "strict postdominator {:?} of {:?} does not postdominate ipdom {:?} on {:?}",
                            s, b, d, shape
                        );
                    }
                }
            }
        }
    }
}
