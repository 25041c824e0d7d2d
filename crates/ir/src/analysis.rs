//! Control-flow analyses: reverse postorder, dominators, postdominators,
//! dominance frontiers, and natural loops, plus the order-dependence scan
//! the executors gate on ([`uses_gated_ops`]).
//!
//! These feed the optimization passes (register promotion needs dominance
//! frontiers, CSE walks the dominator tree, the L3 contention transform
//! needs loop structure), the simulators' decoded block priorities
//! (dominators and loop depth order SIMT reconvergence), the native
//! register allocator's block layout (reverse postorder), and the
//! analyzer's divergence tainting (postdominators).
//!
//! There is one depth-first search ([`reverse_postorder`]'s) and one
//! dominator fixpoint (Cooper–Harvey–Kennedy): [`DomTree`] runs them
//! forward from the entry, [`PostDomTree`] over the reversed CFG from a
//! virtual exit. Every table is a `Vec` indexed by block id.

use crate::function::{Function, Module};
use crate::inst::{BlockId, FuncId, Intrinsic, Op, Successors};
use std::collections::HashSet;
use std::ops::Deref;

/// "No block" in the block-indexed tables: the block is unreachable.
const NONE: usize = usize::MAX;

/// Blocks reachable from the entry, in reverse postorder (successors
/// visited in terminator order).
pub fn reverse_postorder(f: &Function) -> Vec<BlockId> {
    depth_first_rpo(f.blocks.len(), f.entry(), |b| f.successors(b))
}

/// Reverse postorder of the nodes of an `n`-node graph reachable from
/// `root`, visiting each node's successors in the order `succs` lists them.
fn depth_first_rpo<S: Deref<Target = [BlockId]>>(
    n: usize,
    root: BlockId,
    succs: impl Fn(BlockId) -> S,
) -> Vec<BlockId> {
    let mut seen = vec![false; n];
    let mut post = Vec::with_capacity(n);
    // Iterative DFS with an explicit stack of (node, next-successor-index).
    let mut stack = vec![(root, 0usize)];
    seen[root.0 as usize] = true;
    while let Some(&mut (b, ref mut i)) = stack.last_mut() {
        match succs(b).get(*i) {
            Some(&s) => {
                *i += 1;
                if !seen[s.0 as usize] {
                    seen[s.0 as usize] = true;
                    stack.push((s, 0));
                }
            }
            None => {
                post.push(b);
                stack.pop();
            }
        }
    }
    post.reverse();
    post
}

/// Immediate dominators of an `n`-node graph by the Cooper–Harvey–Kennedy
/// fixpoint, given the graph's reverse postorder from its root and each
/// node's predecessors. Returns every node's reverse-postorder index and
/// its immediate dominator (the root's is itself), both [`NONE`] for a
/// node the order does not reach.
fn dominator_fixpoint<S: Deref<Target = [BlockId]>>(
    n: usize,
    rpo: &[BlockId],
    preds: impl Fn(BlockId) -> S,
) -> (Vec<usize>, Vec<usize>) {
    let mut rpo_index = vec![NONE; n];
    for (i, &b) in rpo.iter().enumerate() {
        rpo_index[b.0 as usize] = i;
    }
    let mut idom = vec![NONE; n];
    idom[rpo[0].0 as usize] = rpo[0].0 as usize;
    let mut changed = true;
    while changed {
        changed = false;
        for &b in &rpo[1..] {
            let mut new_idom = NONE;
            for p in preds(b).iter().map(|p| p.0 as usize) {
                if idom[p] == NONE {
                    continue; // unreachable or not yet processed
                }
                if new_idom == NONE {
                    new_idom = p;
                    continue;
                }
                // Intersect: walk both fingers up to their common dominator.
                let mut a = p;
                while a != new_idom {
                    while rpo_index[a] > rpo_index[new_idom] {
                        a = idom[a];
                    }
                    while rpo_index[new_idom] > rpo_index[a] {
                        new_idom = idom[new_idom];
                    }
                }
            }
            let b = b.0 as usize;
            if new_idom != NONE && idom[b] != new_idom {
                idom[b] = new_idom;
                changed = true;
            }
        }
    }
    (rpo_index, idom)
}

/// Dominator tree of the blocks reachable from the entry, with every
/// table indexed by block id.
#[derive(Debug, Clone)]
pub struct DomTree {
    /// Reverse postorder used to compute the tree.
    pub rpo: Vec<BlockId>,
    rpo_index: Vec<usize>,
    /// Immediate dominator (the entry's is itself).
    idom: Vec<usize>,
    /// [`Function::predecessors`] of the function the tree was built from.
    preds: Vec<Vec<BlockId>>,
    /// Reachable blocks in dominator-tree preorder.
    preorder: Vec<BlockId>,
    /// Preorder number of each block and the last preorder number in its
    /// subtree; `(NONE, 0)` when unreachable.
    span: Vec<(usize, usize)>,
}

impl DomTree {
    /// Compute dominators with the Cooper–Harvey–Kennedy iterative algorithm.
    pub fn compute(f: &Function) -> Self {
        let n = f.blocks.len();
        let rpo = reverse_postorder(f);
        let preds = f.predecessors();
        let (rpo_index, idom) = dominator_fixpoint(n, &rpo, |b| preds[b.0 as usize].as_slice());
        // Dominator-tree children in reverse postorder, then the preorder.
        let mut children = vec![Vec::new(); n];
        for &b in &rpo[1..] {
            children[idom[b.0 as usize]].push(b);
        }
        let mut preorder = Vec::with_capacity(rpo.len());
        let mut span = vec![(NONE, 0); n];
        let mut stack = vec![(f.entry(), false)];
        while let Some((b, done)) = stack.pop() {
            if done {
                span[b.0 as usize].1 = preorder.len() - 1;
                continue;
            }
            span[b.0 as usize].0 = preorder.len();
            preorder.push(b);
            stack.push((b, true));
            stack.extend(children[b.0 as usize].iter().rev().map(|&c| (c, false)));
        }
        DomTree { rpo, rpo_index, idom, preds, preorder, span }
    }

    /// Immediate dominator of `b` (entry's idom is itself).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        let d = self.idom[b.0 as usize];
        (d != NONE).then_some(BlockId(d as u32))
    }

    /// Whether `a` dominates `b` (reflexive). O(1): `b`'s preorder number
    /// falls in `a`'s subtree.
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let ((a_in, a_last), (b_in, _)) = (self.span[a.0 as usize], self.span[b.0 as usize]);
        a == b || (a_in <= b_in && b_in <= a_last)
    }

    /// Reachable blocks in dominator-tree preorder: every block after its
    /// dominators, and each subtree contiguous.
    pub fn preorder(&self) -> &[BlockId] {
        &self.preorder
    }

    /// Predecessors of `b`, in [`Function::predecessors`] order.
    pub fn preds(&self, b: BlockId) -> &[BlockId] {
        &self.preds[b.0 as usize]
    }

    /// Dominance frontier of every block (Cytron et al.), indexed by block
    /// id and sorted, used for phi placement in register promotion.
    pub fn dominance_frontiers(&self) -> Vec<Vec<BlockId>> {
        let mut df: Vec<Vec<BlockId>> = vec![Vec::new(); self.idom.len()];
        for (b, bp) in self.preds.iter().enumerate() {
            let b_idom = self.idom[b];
            if bp.len() < 2 || b_idom == NONE {
                continue;
            }
            for &p in bp {
                let mut runner = p.0 as usize;
                if self.idom[runner] == NONE {
                    continue;
                }
                while runner != b_idom {
                    // Joins are visited in id order, so a repeat is the last entry.
                    if df[runner].last() != Some(&BlockId(b as u32)) {
                        df[runner].push(BlockId(b as u32));
                    }
                    runner = self.idom[runner];
                }
            }
        }
        df
    }

    /// Reverse-postorder index of `b`, if reachable.
    pub fn rpo_index(&self, b: BlockId) -> Option<usize> {
        let i = self.rpo_index[b.0 as usize];
        (i != NONE).then_some(i)
    }
}

/// Immediate postdominators: the dominator fixpoint over the reversed CFG,
/// rooted at a virtual exit that joins every `ret`/`unreachable` block.
///
/// The analyzer's divergence tainting reads it: the phis of a divergent
/// branch's immediate postdominator merge lanes that took different paths.
#[derive(Debug, Clone)]
pub struct PostDomTree {
    /// Immediate postdominator per block; the virtual exit is block id
    /// `ipdom.len()`, and [`NONE`] marks a block that reaches no exit.
    ipdom: Vec<usize>,
}

impl PostDomTree {
    /// Compute immediate postdominators.
    pub fn compute(f: &Function) -> Self {
        let n = f.blocks.len();
        let exit = BlockId(n as u32);
        // Reversed edges: a block's successors are its predecessors, and the
        // exit's are the blocks without a successor.
        let mut rev_succs = f.predecessors();
        rev_succs.push(f.block_ids().filter(|&b| f.successors(b).is_empty()).collect());
        let rpo = depth_first_rpo(n + 1, exit, |b| rev_succs[b.0 as usize].as_slice());
        let (_, mut ipdom) = dominator_fixpoint(n + 1, &rpo, |b| match b {
            b if b == exit => Successors::NONE,
            b if f.successors(b).is_empty() => Successors::one(exit),
            b => f.successors(b),
        });
        ipdom.truncate(n);
        PostDomTree { ipdom }
    }

    /// Immediate postdominator of `b`. `Some(None)` means the virtual exit.
    pub fn ipdom(&self, b: BlockId) -> Option<Option<BlockId>> {
        match self.ipdom[b.0 as usize] {
            NONE => None,
            d if d == self.ipdom.len() => Some(None),
            d => Some(Some(BlockId(d as u32))),
        }
    }
}

/// A natural loop: header plus body blocks, discovered from back edges.
#[derive(Debug, Clone)]
pub struct Loop {
    /// Loop header (target of the back edge).
    pub header: BlockId,
    /// All blocks in the loop, including the header.
    pub blocks: HashSet<BlockId>,
    /// Blocks with a back edge to the header.
    pub latches: Vec<BlockId>,
    /// Nesting depth (1 = outermost).
    pub depth: u32,
}

impl Loop {
    /// Whether the loop contains no other loop's header (innermost).
    pub fn is_innermost(&self, all: &[Loop]) -> bool {
        !all.iter().any(|other| other.header != self.header && self.blocks.contains(&other.header))
    }
}

/// Find all natural loops of `f` via back edges (`latch → header` where
/// the header dominates the latch), in header order. `dom` is `f`'s
/// dominator tree.
pub fn find_loops(f: &Function, dom: &DomTree) -> Vec<Loop> {
    let mut loops: Vec<Option<Loop>> = vec![None; f.blocks.len()];
    for &b in &dom.rpo {
        for s in f.successors(b) {
            if dom.dominates(s, b) {
                // back edge b -> s
                let l = loops[s.0 as usize].get_or_insert_with(|| Loop {
                    header: s,
                    blocks: HashSet::from([s]),
                    latches: Vec::new(),
                    depth: 0,
                });
                l.latches.push(b);
                // Collect body: reverse walk from the latch to the header.
                let mut work = vec![b];
                while let Some(x) = work.pop() {
                    if l.blocks.insert(x) {
                        work.extend_from_slice(dom.preds(x));
                    }
                }
            }
        }
    }
    let mut result: Vec<Loop> = loops.into_iter().flatten().collect();
    // Depth: number of loops containing this loop's header.
    let depths: Vec<u32> = result
        .iter()
        .map(|l| result.iter().filter(|o| o.blocks.contains(&l.header)).count() as u32)
        .collect();
    for (l, d) in result.iter_mut().zip(depths) {
        l.depth = d;
    }
    result
}

/// Whether any function a launch of `roots` can execute
/// ([`Module::execution_closure`]) uses an operation whose result depends
/// on the order in which work items run: `device_malloc` (which item gets
/// which address from the shared bump cursor) or `atomic_cas` (which old
/// value each item sees, as in locking idioms).
///
/// The host-parallel engine runs items against region snapshots with an
/// ordered commit, which reproduces plain stores and commutative atomics
/// but not these. The runtime runs a kernel flagged here in order
/// (`concord_svm::Work::in_order`) on every target, so its output bytes
/// are the same at every host-thread count.
pub fn uses_gated_ops(module: &Module, roots: &[FuncId]) -> bool {
    module.execution_closure(roots).into_iter().any(|f| {
        module.function(f).insts.iter().any(|inst| {
            matches!(
                inst.op,
                Op::IntrinsicCall(Intrinsic::DeviceMalloc | Intrinsic::AtomicCasI32, _)
            )
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::{BinOp, ICmp};
    use crate::types::Type;

    /// entry -> (then|else) -> join -> ret, a classic diamond.
    fn diamond() -> Function {
        let mut b = FunctionBuilder::new("f", vec![Type::I32], Type::I32);
        let p = b.param(0);
        let zero = b.i32(0);
        let c = b.icmp(ICmp::Sgt, p, zero);
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
        b.build()
    }

    /// entry -> header <-> body, header -> exit (a while loop).
    fn simple_loop() -> (Function, BlockId, BlockId, BlockId) {
        let mut b = FunctionBuilder::new("f", vec![Type::I32], Type::Void);
        let n = b.param(0);
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        let zero = b.i32(0);
        b.br(header);
        b.switch_to(header);
        let i = b.phi(Type::I32, vec![]);
        let c = b.icmp(ICmp::Slt, i, n);
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let one = b.i32(1);
        let next = b.bin(BinOp::Add, i, one);
        b.br(header);
        // patch phi
        let mut f = b.build();
        if let Op::Phi(inc) = &mut f.inst_mut(i).op {
            inc.push((BlockId(0), zero));
            inc.push((body, next));
        }
        let ret = f.push_inst(Op::Ret(None), Type::Void);
        f.block_mut(exit).insts.push(ret);
        (f, header, body, exit)
    }

    #[test]
    fn rpo_starts_at_entry() {
        let f = diamond();
        let rpo = reverse_postorder(&f);
        assert_eq!(rpo[0], BlockId(0));
        assert_eq!(rpo.len(), 4);
        // join must come after both branches
        let pos = |b: BlockId| rpo.iter().position(|&x| x == b).unwrap();
        assert!(pos(BlockId(3)) > pos(BlockId(1)));
        assert!(pos(BlockId(3)) > pos(BlockId(2)));
    }

    #[test]
    fn dominators_of_diamond() {
        let f = diamond();
        let dom = DomTree::compute(&f);
        assert_eq!(dom.idom(BlockId(1)), Some(BlockId(0)));
        assert_eq!(dom.idom(BlockId(2)), Some(BlockId(0)));
        assert_eq!(dom.idom(BlockId(3)), Some(BlockId(0)));
        assert!(dom.dominates(BlockId(0), BlockId(3)));
        assert!(!dom.dominates(BlockId(1), BlockId(3)));
    }

    #[test]
    fn dominance_frontier_of_diamond() {
        let f = diamond();
        let dom = DomTree::compute(&f);
        let df = dom.dominance_frontiers();
        assert_eq!(df[1], vec![BlockId(3)]);
        assert_eq!(df[2], vec![BlockId(3)]);
        assert!(df[0].is_empty());
    }

    #[test]
    fn postdominators_of_diamond() {
        let f = diamond();
        let pd = PostDomTree::compute(&f);
        // The branch block's immediate postdominator is the join.
        assert_eq!(pd.ipdom(BlockId(0)), Some(Some(BlockId(3))));
        assert_eq!(pd.ipdom(BlockId(1)), Some(Some(BlockId(3))));
        // Join's ipdom is the virtual exit.
        assert_eq!(pd.ipdom(BlockId(3)), Some(None));
    }

    #[test]
    fn loop_detection() {
        let (f, header, body, _exit) = simple_loop();
        let loops = find_loops(&f, &DomTree::compute(&f));
        assert_eq!(loops.len(), 1);
        let l = &loops[0];
        assert_eq!(l.header, header);
        assert!(l.blocks.contains(&body));
        assert_eq!(l.latches, vec![body]);
        assert_eq!(l.depth, 1);
        assert!(l.is_innermost(&loops));
    }

    #[test]
    fn diamond_has_no_loops() {
        let f = diamond();
        assert!(find_loops(&f, &DomTree::compute(&f)).is_empty());
    }
}
