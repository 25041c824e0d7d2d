//! Control-flow analyses: reverse postorder, dominators, postdominators,
//! dominance frontiers, and natural loops, plus the order-dependence scan
//! the executors gate on ([`uses_gated_ops`]).
//!
//! These feed the optimization passes (register promotion needs dominance
//! frontiers, CSE needs dominators, the L3 contention transform needs loop
//! structure), the simulators' decoded block priorities (dominators and
//! loop depth order SIMT reconvergence), and the analyzer's divergence
//! tainting (postdominators). The native register allocator computes its
//! own liveness.

use crate::function::Function;
use crate::inst::{BlockId, Op};
use std::collections::{HashMap, HashSet};

/// Blocks reachable from the entry, in reverse postorder.
pub fn reverse_postorder(f: &Function) -> Vec<BlockId> {
    let mut visited = HashSet::new();
    let mut post = Vec::new();
    // Iterative DFS with an explicit stack of (block, next-successor-index).
    let mut stack = vec![(f.entry(), 0usize)];
    visited.insert(f.entry());
    while let Some(&mut (b, ref mut i)) = stack.last_mut() {
        let succs = f.successors(b);
        if *i < succs.len() {
            let s = succs[*i];
            *i += 1;
            if visited.insert(s) {
                stack.push((s, 0));
            }
        } else {
            post.push(b);
            stack.pop();
        }
    }
    post.reverse();
    post
}

/// Dominator tree: for each reachable block, its immediate dominator
/// (the entry maps to itself).
#[derive(Debug, Clone)]
pub struct DomTree {
    idom: HashMap<BlockId, BlockId>,
    rpo_index: HashMap<BlockId, usize>,
    /// Reverse postorder used to compute the tree.
    pub rpo: Vec<BlockId>,
}

impl DomTree {
    /// Compute dominators with the Cooper–Harvey–Kennedy iterative algorithm.
    pub fn compute(f: &Function) -> Self {
        let rpo = reverse_postorder(f);
        let rpo_index: HashMap<BlockId, usize> =
            rpo.iter().enumerate().map(|(i, &b)| (b, i)).collect();
        let preds = f.predecessors();
        let mut idom: HashMap<BlockId, BlockId> = HashMap::new();
        idom.insert(f.entry(), f.entry());
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for &p in &preds[&b] {
                    if !idom.contains_key(&p) {
                        continue; // unreachable or not yet processed
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, &rpo_index, p, cur),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom.get(&b) != Some(&ni) {
                        idom.insert(b, ni);
                        changed = true;
                    }
                }
            }
        }
        DomTree { idom, rpo_index, rpo }
    }

    /// Immediate dominator of `b` (entry's idom is itself).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        self.idom.get(&b).copied()
    }

    /// Whether `a` dominates `b` (reflexive).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom(cur) {
                Some(d) if d != cur => cur = d,
                _ => return false,
            }
        }
    }

    /// Dominance frontier of every reachable block (Cytron et al.), used for
    /// phi placement in register promotion.
    pub fn dominance_frontiers(&self, f: &Function) -> HashMap<BlockId, Vec<BlockId>> {
        let preds = f.predecessors();
        let mut df: HashMap<BlockId, HashSet<BlockId>> = HashMap::new();
        for &b in &self.rpo {
            let bp = &preds[&b];
            if bp.len() < 2 {
                continue;
            }
            let Some(b_idom) = self.idom(b) else { continue };
            for &p in bp {
                if !self.idom.contains_key(&p) {
                    continue;
                }
                let mut runner = p;
                while runner != b_idom {
                    df.entry(runner).or_default().insert(b);
                    match self.idom(runner) {
                        Some(d) if d != runner => runner = d,
                        _ => break,
                    }
                }
            }
        }
        let mut out: HashMap<BlockId, Vec<BlockId>> = HashMap::new();
        for (b, set) in df {
            let mut v: Vec<BlockId> = set.into_iter().collect();
            v.sort();
            out.insert(b, v);
        }
        for &b in &self.rpo {
            out.entry(b).or_default();
        }
        out
    }

    /// Reverse-postorder index of `b`, if reachable.
    pub fn rpo_index(&self, b: BlockId) -> Option<usize> {
        self.rpo_index.get(&b).copied()
    }
}

fn intersect(
    idom: &HashMap<BlockId, BlockId>,
    rpo_index: &HashMap<BlockId, usize>,
    mut a: BlockId,
    mut b: BlockId,
) -> BlockId {
    while a != b {
        while rpo_index[&a] > rpo_index[&b] {
            a = idom[&a];
        }
        while rpo_index[&b] > rpo_index[&a] {
            b = idom[&b];
        }
    }
    a
}

/// Immediate postdominators, computed over the reversed CFG with a virtual
/// exit that joins every `ret`/`unreachable` block.
///
/// The GPU simulator uses this for SIMT reconvergence: when a warp diverges
/// at a conditional branch, lanes reconverge at the branch block's immediate
/// postdominator.
#[derive(Debug, Clone)]
pub struct PostDomTree {
    /// Immediate postdominator per block; `None` for the virtual exit's
    /// direct children when the closest common postdominator is the exit.
    ipdom: HashMap<BlockId, Option<BlockId>>,
}

impl PostDomTree {
    /// Compute immediate postdominators.
    pub fn compute(f: &Function) -> Self {
        // Build reversed CFG with virtual exit node (id = blocks.len()).
        let n = f.blocks.len();
        let exit = n;
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n + 1]; // reversed edges
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n + 1];
        for b in f.block_ids() {
            let bi = b.0 as usize;
            let ss = f.successors(b);
            if ss.is_empty() {
                // terminator is ret/unreachable (or block incomplete): edge to exit
                preds[bi].push(exit);
                succs[exit].push(bi);
            }
            for s in ss {
                let si = s.0 as usize;
                preds[bi].push(si);
                succs[si].push(bi);
            }
        }
        // RPO on reversed graph starting from exit.
        let mut visited = vec![false; n + 1];
        let mut post: Vec<usize> = Vec::new();
        let mut stack = vec![(exit, 0usize)];
        visited[exit] = true;
        while let Some(&mut (b, ref mut i)) = stack.last_mut() {
            if *i < succs[b].len() {
                let s = succs[b][*i];
                *i += 1;
                if !visited[s] {
                    visited[s] = true;
                    stack.push((s, 0));
                }
            } else {
                post.push(b);
                stack.pop();
            }
        }
        post.reverse();
        let rpo_index: HashMap<usize, usize> =
            post.iter().enumerate().map(|(i, &b)| (b, i)).collect();
        let mut idom: HashMap<usize, usize> = HashMap::new();
        idom.insert(exit, exit);
        let mut changed = true;
        while changed {
            changed = false;
            for &b in post.iter().skip(1) {
                let mut new_idom: Option<usize> = None;
                for &p in &preds[b] {
                    if !idom.contains_key(&p) || !rpo_index.contains_key(&p) {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => {
                            let (mut a, mut c) = (p, cur);
                            while a != c {
                                while rpo_index[&a] > rpo_index[&c] {
                                    a = idom[&a];
                                }
                                while rpo_index[&c] > rpo_index[&a] {
                                    c = idom[&c];
                                }
                            }
                            a
                        }
                    });
                }
                if let Some(ni) = new_idom {
                    if idom.get(&b) != Some(&ni) {
                        idom.insert(b, ni);
                        changed = true;
                    }
                }
            }
        }
        let mut ipdom = HashMap::new();
        for b in 0..n {
            match idom.get(&b) {
                Some(&d) if d != exit => {
                    ipdom.insert(BlockId(b as u32), Some(BlockId(d as u32)));
                }
                Some(_) => {
                    ipdom.insert(BlockId(b as u32), None);
                }
                None => {} // unreachable block
            }
        }
        PostDomTree { ipdom }
    }

    /// Immediate postdominator of `b`. `Some(None)` means the virtual exit.
    pub fn ipdom(&self, b: BlockId) -> Option<Option<BlockId>> {
        self.ipdom.get(&b).copied()
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

/// Find all natural loops via back edges (`latch → header` where the header
/// dominates the latch).
pub fn find_loops(f: &Function) -> Vec<Loop> {
    let dom = DomTree::compute(f);
    let preds = f.predecessors();
    let mut loops: HashMap<BlockId, Loop> = HashMap::new();
    for &b in &dom.rpo {
        for s in f.successors(b) {
            if dom.dominates(s, b) {
                // back edge b -> s
                let l = loops.entry(s).or_insert_with(|| Loop {
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
                        for &p in &preds[&x] {
                            work.push(p);
                        }
                    }
                }
            }
        }
    }
    let mut result: Vec<Loop> = loops.into_values().collect();
    result.sort_by_key(|l| l.header);
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

/// Whether any function reachable from `roots` uses an operation whose
/// result depends on cross-work-item execution *order*: `device_malloc`
/// (a shared bump cursor) or `atomic_cas` (order-visible old values used
/// for locking idioms).
///
/// The host-parallel execution engine runs kernels against region
/// snapshots with an ordered commit, which preserves plain stores and
/// commutative atomics but not these; kernels flagged here run on the
/// serial direct path instead. Calls are followed transitively; a virtual
/// call widens the scan to every function in the module (the CGA-precise
/// answer is unnecessary — gating is a performance choice, not a
/// correctness one, so over-approximating is safe).
pub fn uses_gated_ops(module: &crate::function::Module, roots: &[crate::inst::FuncId]) -> bool {
    use crate::inst::Intrinsic;
    let gated = |f: &Function| {
        f.insts.iter().any(|inst| {
            matches!(
                inst.op,
                Op::IntrinsicCall(Intrinsic::DeviceMalloc, _)
                    | Op::IntrinsicCall(Intrinsic::AtomicCasI32, _)
            )
        })
    };
    let mut work: Vec<crate::inst::FuncId> = roots.to_vec();
    let mut seen: HashSet<crate::inst::FuncId> = work.iter().copied().collect();
    while let Some(fid) = work.pop() {
        let Some(f) = module.functions.get(fid.0 as usize) else { continue };
        if gated(f) {
            return true;
        }
        for inst in &f.insts {
            match &inst.op {
                Op::Call { callee, .. } if seen.insert(*callee) => {
                    work.push(*callee);
                }
                // Conservative: any reachable virtual call could target any
                // method, so scan the whole module.
                Op::CallVirtual { .. } => {
                    return module.functions.iter().any(gated);
                }
                _ => {}
            }
        }
    }
    false
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
        let df = dom.dominance_frontiers(&f);
        assert_eq!(df[&BlockId(1)], vec![BlockId(3)]);
        assert_eq!(df[&BlockId(2)], vec![BlockId(3)]);
        assert!(df[&BlockId(0)].is_empty());
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
        let loops = find_loops(&f);
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
        assert!(find_loops(&f).is_empty());
    }
}
