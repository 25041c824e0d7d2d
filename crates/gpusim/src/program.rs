//! gpusim's decoded form of a GPU module.
//!
//! The warp interpreter never walks IR. A [`Program`] holds, for each
//! function a launch can reach, one [`Func`]: a flat array of [`Inst`]s
//! whose operands are register slots, laid out block by block in the
//! order the warp scheduler prefers them, with each block's phis turned
//! into one parallel copy list per incoming edge and each alloca's frame
//! offset resolved. Decoding happens the first time a launch reaches a
//! kernel and covers its whole static call graph (GPU code has no
//! function pointers), so execution only reads. A `Program` belongs to
//! the module it was decoded from: the runtime keeps one beside each
//! session's GPU module, and the `GpuSim` conveniences decode a fresh one
//! per call.

use concord_cpusim::interp::frame_layout;
use concord_ir::analysis::{find_loops, DomTree};
use concord_ir::eval::Value;
use concord_ir::inst::{BinOp, BlockId, CastOp, FCmp, FuncId, ICmp, Intrinsic, Op, ValueId};
use concord_ir::types::{AddrSpace, Type};
use concord_ir::{Function, Module};
use concord_svm::{Work, WorkKind};

/// A register slot: the index of the defining instruction.
pub(crate) type Slot = u32;

/// The edge index of a branch whose target has no phis.
pub(crate) const NO_EDGE: u32 = u32::MAX;

/// The source slot of a phi with no incoming value for an edge.
pub(crate) const NO_SRC: Slot = u32::MAX;

/// Decoded functions of one GPU module, filled in as launches reach them.
#[derive(Debug, Default)]
pub struct Program {
    funcs: Vec<Option<Func>>,
}

impl Program {
    /// An empty program.
    pub fn new() -> Program {
        Program::default()
    }

    /// Decode `work`'s kernel (and its `join`, for a reduction) plus every
    /// function they can call, skipping what is already decoded. `module`
    /// must be the module every earlier call decoded from.
    pub fn decode(&mut self, module: &Module, work: &Work<'_>) {
        let mut todo = vec![work.func];
        if let WorkKind::Reduce { join, .. } = work.kind {
            todo.push(join);
        }
        while let Some(fid) = todo.pop() {
            let i = fid.0 as usize;
            if self.funcs.len() <= i {
                self.funcs.resize_with(i + 1, || None);
            }
            if self.funcs[i].is_some() {
                continue;
            }
            let func = Func::decode(module.function(fid));
            todo.extend(func.ops.iter().filter_map(|inst| match inst.kind {
                Kind::Call { callee, .. } => Some(callee),
                _ => None,
            }));
            self.funcs[i] = Some(func);
        }
    }

    /// The decoded `fid`.
    ///
    /// # Panics
    ///
    /// If no [`Program::decode`] call reached `fid`.
    pub(crate) fn func(&self, fid: FuncId) -> &Func {
        self.funcs
            .get(fid.0 as usize)
            .and_then(Option::as_ref)
            .expect("launch reached a function Program::decode did not")
    }
}

/// One decoded function.
#[derive(Debug)]
pub(crate) struct Func {
    pub(crate) name: String,
    /// Register slots (the IR function's instruction count).
    pub(crate) slots: usize,
    /// Parameters.
    pub(crate) params: usize,
    /// Private-memory frame size.
    pub(crate) frame_size: u64,
    /// Blocks in scheduling order: among the blocks with waiting lanes the
    /// warp always runs the first.
    pub(crate) blocks: Vec<Block>,
    /// Index of the entry block in `blocks`.
    pub(crate) entry: u32,
    /// The edge lanes enter the entry block through, if it has phis.
    pub(crate) entry_edge: u32,
    /// Every block's non-phi instructions, block after block.
    pub(crate) ops: Vec<Inst>,
    /// Call and intrinsic argument slots.
    pub(crate) operands: Vec<Slot>,
    /// Per phi edge, its range of `copies`.
    pub(crate) edges: Vec<(u32, u32)>,
    /// Phi copies `(destination, source)`, one per phi of the edge's block.
    pub(crate) copies: Vec<(Slot, Slot)>,
    /// The largest phi group.
    pub(crate) max_phis: usize,
}

/// One basic block.
#[derive(Debug)]
pub(crate) struct Block {
    /// The IR block id (for trace events).
    pub(crate) id: BlockId,
    /// Range of `Func::ops`.
    pub(crate) ops: (u32, u32),
    /// Leading phis (each issues as a register rename).
    pub(crate) phis: u32,
    /// Range of `Func::edges`: one per predecessor, empty without phis.
    pub(crate) edges: (u32, u32),
}

/// One decoded instruction.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Inst {
    /// The result slot.
    pub(crate) dst: Slot,
    /// Issue cycles charged before it executes; `None` charges nothing.
    pub(crate) issue: Option<f64>,
    pub(crate) kind: Kind,
}

/// What an instruction does.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Kind {
    Param(u32),
    /// A constant, already typed.
    Const(Value),
    /// `(op, result type, lhs, rhs)`.
    Bin(BinOp, Type, Slot, Slot),
    Icmp(ICmp, Slot, Slot),
    Fcmp(FCmp, Slot, Slot),
    /// `(op, from, to, value)`.
    Cast(CastOp, Type, Type, Slot),
    Select(Slot, Slot, Slot),
    /// Frame offset.
    Alloca(u64),
    Load(Type, Slot),
    /// `(stored type, pointer, value)`.
    Store(Type, Slot, Slot),
    Gep(Slot, Slot),
    CpuToGpu(Slot),
    GpuToCpu(Slot),
    /// `args` is a range of `Func::operands`.
    Call {
        callee: FuncId,
        args: (u32, u32),
        returns: bool,
    },
    CallVirtual(Slot),
    Intrinsic(Intrinsic, (u32, u32), Type),
    /// `(target block, phi edge)`.
    Br(u32, u32),
    CondBr {
        cond: Slot,
        then: (u32, u32),
        els: (u32, u32),
    },
    Ret(Option<Slot>),
    Unreachable,
    /// A phi after the leading phi group: malformed IR.
    StrayPhi,
}

/// Issue cycles of a binary op.
fn bin_issue(op: BinOp) -> f64 {
    match op {
        BinOp::SDiv | BinOp::UDiv | BinOp::SRem | BinOp::URem => 8.0,
        BinOp::FDiv => 4.0,
        _ => 1.0,
    }
}

/// Issue cycles of an intrinsic call.
fn intrinsic_issue(intr: Intrinsic) -> f64 {
    match intr {
        Intrinsic::Sqrt => 4.0,
        Intrinsic::Exp => 8.0,
        Intrinsic::Pow => 12.0,
        Intrinsic::Barrier
        | Intrinsic::AtomicAddI32
        | Intrinsic::AtomicMinI32
        | Intrinsic::AtomicCasI32
        | Intrinsic::WlPush => 2.0,
        _ => 1.0,
    }
}

impl Func {
    fn decode(f: &Function) -> Func {
        let n = f.blocks.len();
        let priority = block_priorities(f);
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&b| (priority[b], b));
        let mut position = vec![0u32; n];
        for (i, &b) in order.iter().enumerate() {
            position[b] = i as u32;
        }
        let entry = f.entry();
        let phi_count = |b: BlockId| {
            f.block(b).insts.iter().take_while(|&&id| matches!(f.inst(id).op, Op::Phi(_))).count()
        };

        // One phi edge per distinct predecessor of a block with phis (the
        // entry block's lanes arrive "from" the entry block itself).
        let mut preds: Vec<Vec<BlockId>> = vec![Vec::new(); n];
        for b in f.block_ids() {
            for s in f.successors(b) {
                if !preds[s.0 as usize].contains(&b) {
                    preds[s.0 as usize].push(b);
                }
            }
        }
        if !preds[entry.0 as usize].contains(&entry) {
            preds[entry.0 as usize].push(entry);
        }
        let mut edges = Vec::new();
        let mut copies = Vec::new();
        let mut edge_base = vec![NO_EDGE; n];
        let mut max_phis = 0;
        for &b in &order {
            let block = BlockId(b as u32);
            let phis = &f.block(block).insts[..phi_count(block)];
            if phis.is_empty() {
                continue;
            }
            max_phis = max_phis.max(phis.len());
            edge_base[b] = edges.len() as u32;
            for &p in &preds[b] {
                let start = copies.len() as u32;
                for &id in phis {
                    let Op::Phi(incoming) = &f.inst(id).op else { unreachable!() };
                    let src = incoming.iter().find(|(pb, _)| *pb == p).map_or(NO_SRC, |(_, v)| v.0);
                    copies.push((id.0, src));
                }
                edges.push((start, copies.len() as u32));
            }
        }
        let edge = |from: BlockId, to: BlockId| -> u32 {
            let t = to.0 as usize;
            match edge_base[t] {
                NO_EDGE => NO_EDGE,
                base => base + preds[t].iter().position(|&p| p == from).expect("a CFG edge") as u32,
            }
        };

        let layout = frame_layout(f);
        let mut blocks = Vec::with_capacity(n);
        let mut ops = Vec::new();
        let mut operands = Vec::new();
        let mut range = |ids: &[ValueId]| -> (u32, u32) {
            let start = operands.len() as u32;
            operands.extend(ids.iter().map(|v| v.0));
            (start, operands.len() as u32)
        };
        for &b in &order {
            let block = BlockId(b as u32);
            let phis = phi_count(block);
            let start = ops.len() as u32;
            for &id in &f.block(block).insts[phis..] {
                let inst = f.inst(id);
                let target = |t: BlockId| (position[t.0 as usize], edge(block, t));
                let (issue, kind) = match &inst.op {
                    Op::Param(i) => (Some(0.25), Kind::Param(*i)),
                    Op::ConstInt(v) => {
                        let val = match inst.ty {
                            Type::Ptr(sp) => Value::Ptr(*v as u64, sp),
                            _ => Value::I(*v),
                        };
                        (Some(0.25), Kind::Const(val))
                    }
                    Op::ConstFloat(v) => {
                        let v = if inst.ty == Type::F32 { *v as f32 as f64 } else { *v };
                        (Some(0.25), Kind::Const(Value::F(v)))
                    }
                    Op::ConstNull => {
                        let sp = inst.ty.addr_space().unwrap_or(AddrSpace::Cpu);
                        (Some(0.25), Kind::Const(Value::Ptr(0, sp)))
                    }
                    Op::Bin(op, a, b) => (Some(bin_issue(*op)), Kind::Bin(*op, inst.ty, a.0, b.0)),
                    Op::Icmp(p, a, b) => (Some(1.0), Kind::Icmp(*p, a.0, b.0)),
                    Op::Fcmp(p, a, b) => (Some(1.0), Kind::Fcmp(*p, a.0, b.0)),
                    Op::Cast(op, a) => (Some(1.0), Kind::Cast(*op, f.inst(*a).ty, inst.ty, a.0)),
                    Op::Select(c, a, b) => (Some(1.0), Kind::Select(c.0, a.0, b.0)),
                    Op::Alloca { .. } => (Some(1.0), Kind::Alloca(layout.offsets[&id])),
                    Op::Load(p) => (Some(1.0), Kind::Load(inst.ty, p.0)),
                    Op::Store { ptr, val } => {
                        (Some(1.0), Kind::Store(f.inst(*val).ty, ptr.0, val.0))
                    }
                    Op::Gep { base, offset } => (Some(1.0), Kind::Gep(base.0, offset.0)),
                    // §3.1: a software translation is a short arithmetic
                    // sequence (binding-table base + offset add), not a
                    // single op.
                    Op::CpuToGpu(p) => (Some(3.0), Kind::CpuToGpu(p.0)),
                    Op::GpuToCpu(p) => (Some(3.0), Kind::GpuToCpu(p.0)),
                    Op::Call { callee, args } => {
                        let returns = inst.ty != Type::Void;
                        (Some(2.0), Kind::Call { callee: *callee, args: range(args), returns })
                    }
                    Op::IntrinsicCall(intr, args) => {
                        (Some(intrinsic_issue(*intr)), Kind::Intrinsic(*intr, range(args), inst.ty))
                    }
                    Op::Br(t) => {
                        let (t, e) = target(*t);
                        (Some(1.0), Kind::Br(t, e))
                    }
                    Op::CondBr(c, t, e) => {
                        (Some(1.0), Kind::CondBr { cond: c.0, then: target(*t), els: target(*e) })
                    }
                    Op::Ret(v) => (Some(1.0), Kind::Ret(v.map(|v| v.0))),
                    Op::CallVirtual { obj, .. } => (None, Kind::CallVirtual(obj.0)),
                    Op::Unreachable => (None, Kind::Unreachable),
                    Op::Phi(_) => (None, Kind::StrayPhi),
                };
                ops.push(Inst { dst: id.0, issue, kind });
            }
            let edges = match edge_base[b] {
                NO_EDGE => (0, 0),
                base => (base, base + preds[b].len() as u32),
            };
            blocks.push(Block {
                id: block,
                ops: (start, ops.len() as u32),
                phis: phis as u32,
                edges,
            });
        }
        Func {
            name: f.name.clone(),
            slots: f.insts.len(),
            params: f.params.len(),
            frame_size: layout.size,
            entry: position[entry.0 as usize],
            entry_edge: edge(entry, entry),
            blocks,
            ops,
            operands,
            edges,
            copies,
            max_phis,
        }
    }
}

/// Forward-topological block priorities with deeper loops first.
fn block_priorities(f: &Function) -> Vec<u32> {
    let n = f.blocks.len();
    let dom = DomTree::compute(f);
    let loops = find_loops(f);
    let depth_of =
        |b: BlockId| -> u32 { loops.iter().filter(|l| l.blocks.contains(&b)).count() as u32 };
    let rpo_index = |b: BlockId| dom.rpo_index(b).unwrap_or(usize::MAX);
    // Forward edges only (drop back edges: target dominates source).
    let mut indeg = vec![0u32; n];
    let mut fwd: Vec<Vec<usize>> = vec![Vec::new(); n];
    for b in f.block_ids() {
        for s in f.successors(b) {
            if !dom.dominates(s, b) {
                fwd[b.0 as usize].push(s.0 as usize);
                indeg[s.0 as usize] += 1;
            }
        }
    }
    let mut order = vec![u32::MAX; n];
    let mut avail: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut next = 0u32;
    while !avail.is_empty() {
        // Deeper loop first; tie-break on RPO for determinism.
        avail.sort_by_key(|&i| {
            (std::cmp::Reverse(depth_of(BlockId(i as u32))), rpo_index(BlockId(i as u32)))
        });
        let i = avail.remove(0);
        order[i] = next;
        next += 1;
        for &s in &fwd[i] {
            indeg[s] -= 1;
            if indeg[s] == 0 {
                avail.push(s);
            }
        }
    }
    // Unreachable blocks keep MAX (never scheduled).
    order
}
