//! Index-affinity abstract interpretation over Concord IR.
//!
//! The analysis gives every SSA value one abstract value ([`AbsVal`]):
//!
//! * a **root** ([`Root`]): plain data, the kernel body object (`this`),
//!   the pointee of a body pointer field, a private `alloca`, shared SVM
//!   memory not rooted at a kernel operand, an integer forged into a
//!   pointer (which SVM translation cannot adjust), or unknown;
//! * one **id-linear element** ([`Rng`]) relative to that root:
//!   `root + stride * id + c` with `c` in `[lo, hi]`, and whether
//!   `root + c` is the same in every work item.
//!
//! Every fact the checks read is a projection of that one value. A store
//! address whose element is invariant with `|stride| >=` the store width
//! is provably disjoint across work items; an invariant stride-0 address
//! is provably *colliding*. A pointer rooted at the body with a constant
//! offset, or at a body field's pointee, is an access on a kernel operand
//! ([`AccessBase`]); its element bounds the per-item footprint.
//!
//! The per-function fixpoint widens the element after a few passes, so it
//! converges on any loop. Control-flow divergence is handled by tainting
//! phi nodes in the postdominance join region of every branch whose
//! condition is not work-item-uniform. Calls (including virtual calls,
//! widened over the class hierarchy) are analyzed interprocedurally with
//! memoization on the abstract argument tuple.

use crate::access::{AccessBase, AccessMode};
use crate::diag::{Diagnostic, Lint, Severity};
use crate::range::{RangeFootprint, Rng};
use crate::Mode;
use concord_ir::analysis::{reverse_postorder, PostDomTree};
use concord_ir::{BinOp, BlockId, CastOp, FuncId, Function, Intrinsic, Module, Op, Type, ValueId};
use std::collections::{HashMap, HashSet, VecDeque};

/// What a value's id-linear element is relative to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Root {
    /// Optimistic initial state: no executions seen yet.
    Bottom,
    /// Not a pointer: the element is the value itself.
    Data,
    /// The kernel body object (`this`).
    Body,
    /// The allocation the body's pointer field at this byte offset points
    /// into.
    Field(u64),
    /// A private `alloca` (work-item-local scratch; never shared).
    Private,
    /// Shared SVM memory not rooted at a kernel operand (loaded from
    /// memory, allocated on the device, or a merge of two fields).
    Shared,
    /// Forged from a non-pointer integer via `inttoptr`: SVM pointer
    /// translation (PTROPT) cannot adjust such a value.
    Forged,
    /// Could be anything.
    Unknown,
}

impl Root {
    /// Whether the value carries pointer pedigree (so casting it to a
    /// pointer is not a forgery).
    fn is_pointer(self) -> bool {
        !matches!(self, Root::Bottom | Root::Data)
    }

    /// The root of a value computed from this pointer by arithmetic that
    /// loses its offset: a field's pointee becomes unrooted shared memory.
    fn unrooted(self) -> Root {
        match self {
            Root::Field(_) => Root::Shared,
            r => r,
        }
    }
}

/// Abstract value: a root and one id-linear element relative to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AbsVal {
    /// What the element is relative to.
    pub root: Root,
    /// How the value moves with the work-item id.
    pub lin: Rng,
}

impl AbsVal {
    /// Optimistic initial state.
    pub const BOTTOM: AbsVal = AbsVal { root: Root::Bottom, lin: Rng::Bottom };
    /// Fully unknown.
    pub const UNKNOWN: AbsVal = AbsVal { root: Root::Unknown, lin: Rng::Top };

    fn data(lin: Rng) -> AbsVal {
        AbsVal { root: Root::Data, lin }
    }

    /// Least upper bound. Offsets from two different roots do not
    /// compare, so a merge of roots keeps only how the value moves with
    /// the id.
    #[must_use]
    pub fn join(self, o: AbsVal) -> AbsVal {
        let root = match (self.root, o.root) {
            (Root::Bottom, _) => return o,
            (_, Root::Bottom) => return self,
            (a, b) if a == b => return AbsVal { root: a, lin: self.lin.join(o.lin) },
            (Root::Field(_) | Root::Shared, Root::Field(_) | Root::Shared) => Root::Shared,
            _ => Root::Unknown,
        };
        AbsVal { root, lin: self.lin.join(o.lin).unbounded() }
    }

    /// The kernel operand this pointer is rooted at: the body at a known
    /// offset, or a body field's pointee at any offset (the summary widens
    /// an unbounded one to the field's whole backing allocation).
    #[must_use]
    fn base(self) -> Option<AccessBase> {
        match self.root {
            Root::Body => self.lin.as_const().map(|_| AccessBase::Body),
            Root::Field(offset) => Some(AccessBase::Field { offset }),
            _ => None,
        }
    }

    /// The value merged under work-item-divergent control flow: the
    /// chosen arm differs per item, so only identical constants stay
    /// invariant (an integer forged into a pointer still is its integer).
    /// The element still covers both arms per item.
    fn diverged(self) -> AbsVal {
        if matches!(self.root, Root::Data | Root::Forged) && self.lin.as_const().is_some() {
            self
        } else {
            AbsVal { lin: self.lin.varying(), ..self }
        }
    }
}

/// Recursion / context-explosion bound for the interprocedural walk.
const MAX_CALL_DEPTH: usize = 40;
/// Safety cap on fixpoint iterations (the lattice converges far sooner).
const MAX_FIXPOINT_ITERS: usize = 100;
/// Fixpoint iterations before range joins switch to widening. Small
/// loops get this many passes to converge exactly; anything still
/// growing afterwards has its bounds blown to infinity ([`Rng::widen`]),
/// which bounds the whole fixpoint regardless of loop structure.
const WIDEN_AFTER: usize = 8;

/// The interprocedural analyzer. One instance analyzes one kernel entry
/// point (plus everything it reaches) under one launch [`Mode`].
pub(crate) struct Analyzer<'m> {
    module: &'m Module,
    mode: Mode,
    /// Memoized return values keyed by (function, abstract arguments).
    returns: HashMap<(FuncId, Vec<AbsVal>), AbsVal>,
    /// Call keys currently on the walk stack (recursion detection).
    in_progress: HashSet<(FuncId, Vec<AbsVal>)>,
    depth: usize,
    /// Accumulated findings across all analyzed functions.
    pub(crate) diags: Vec<Diagnostic>,
    /// Raw shared-memory accesses collected across all analyzed functions
    /// (the input of the CA108/CA109 post-pass and of
    /// [`crate::access::AccessSummary`]).
    pub(crate) accesses: Vec<RawAccess>,
    /// Set when some access could not be rooted at a kernel operand (or
    /// analysis degraded): the summary must be treated as touching
    /// anything.
    pub(crate) access_opaque: bool,
}

/// One shared-memory access observed during collection, still in lattice
/// terms (converted to the public summary form by `crate::access`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct RawAccess {
    /// Kernel operand the accessed pointer is rooted at.
    pub(crate) base: AccessBase,
    /// The address's byte offset from that operand.
    pub(crate) lin: Rng,
    /// Access width in bytes.
    pub(crate) width: u64,
    /// Read, accumulate or write.
    pub(crate) mode: AccessMode,
    /// Function containing the access (diagnostic anchoring).
    pub(crate) func: FuncId,
    /// Block containing the access.
    pub(crate) block: BlockId,
    /// The accessing instruction.
    pub(crate) inst: ValueId,
}

impl RawAccess {
    /// The per-item byte footprint, when the range analysis bounded it.
    pub(crate) fn footprint(&self) -> Option<RangeFootprint> {
        RangeFootprint::from_rng(self.lin, self.width, self.mode)
    }
}

impl<'m> Analyzer<'m> {
    pub(crate) fn new(module: &'m Module, mode: Mode) -> Self {
        Analyzer {
            module,
            mode,
            returns: HashMap::new(),
            in_progress: HashSet::new(),
            depth: 0,
            diags: Vec::new(),
            accesses: Vec::new(),
            access_opaque: false,
        }
    }

    /// Analyze the kernel entry function with the launch-convention
    /// parameter seeding: param 0 is the body object (`this`), param 1 the
    /// work-item index.
    pub(crate) fn run_kernel(&mut self, func: FuncId) {
        let f = self.module.function(func);
        // `parallel_for` shares one body object across all work items;
        // `parallel_reduce` runs each worker on its own staged copy.
        let invariant = self.mode == Mode::For;
        let mut args =
            vec![AbsVal { root: Root::Body, lin: Rng::Lin { stride: 0, lo: 0, hi: 0, invariant } }];
        if f.params.len() > 1 {
            args.push(AbsVal::data(Rng::ID));
        }
        while args.len() < f.params.len() {
            args.push(AbsVal::UNKNOWN);
        }
        self.call(func, args);
    }

    /// Analyze `func` under abstract arguments `args`, returning the
    /// abstract return value. Memoized; recursion and excessive context
    /// depth degrade to [`AbsVal::UNKNOWN`].
    fn call(&mut self, func: FuncId, args: Vec<AbsVal>) -> AbsVal {
        let key = (func, args);
        if let Some(&ret) = self.returns.get(&key) {
            return ret;
        }
        if self.depth >= MAX_CALL_DEPTH || self.in_progress.contains(&key) {
            // Degraded analysis: the callee's accesses are not visible.
            self.access_opaque = true;
            return AbsVal::UNKNOWN;
        }
        self.in_progress.insert(key.clone());
        self.depth += 1;
        let ret = self.analyze_function(func, &key.1);
        self.depth -= 1;
        self.in_progress.remove(&key);
        self.returns.insert(key, ret);
        ret
    }

    /// Per-function fixpoint plus the lint check pass.
    fn analyze_function(&mut self, func: FuncId, args: &[AbsVal]) -> AbsVal {
        let f = self.module.function(func);
        let rpo = reverse_postorder(f);
        let pdt = PostDomTree::compute(f);
        let preds = f.predecessors();
        let mut vals = vec![AbsVal::BOTTOM; f.insts.len()];
        for iter in 0..MAX_FIXPOINT_ITERS {
            let tainted = divergent_joins(f, &vals, &pdt, &preds);
            let mut changed = false;
            for &b in &rpo {
                for &v in &f.block(b).insts {
                    let cur = vals[v.0 as usize];
                    let mut next = cur.join(self.transfer(f, b, v, &vals, args, &tainted));
                    if iter >= WIDEN_AFTER {
                        next.lin = cur.lin.widen(next.lin);
                    }
                    if next != cur {
                        vals[v.0 as usize] = next;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        self.check(func, f, &vals);
        // Abstract return value: join over all `ret` operands.
        let mut ret = AbsVal::BOTTOM;
        for b in f.block_ids() {
            if let Some(t) = f.terminator(b) {
                if let Op::Ret(Some(v)) = &f.inst(t).op {
                    ret = ret.join(vals[v.0 as usize]);
                }
            }
        }
        if ret == AbsVal::BOTTOM {
            AbsVal::UNKNOWN
        } else {
            ret
        }
    }

    /// Abstract transfer function for one instruction.
    #[allow(clippy::too_many_lines)]
    fn transfer(
        &mut self,
        f: &Function,
        block: BlockId,
        v: ValueId,
        vals: &[AbsVal],
        args: &[AbsVal],
        tainted: &HashSet<BlockId>,
    ) -> AbsVal {
        let get = |x: ValueId| vals[x.0 as usize];
        let inst = f.inst(v);
        match &inst.op {
            Op::Param(i) => args.get(*i as usize).copied().unwrap_or(AbsVal::UNKNOWN),
            Op::ConstInt(k) => AbsVal::data(Rng::constant(*k)),
            Op::ConstFloat(_) => AbsVal::data(Rng::UNIFORM),
            // Null is one fixed address; treat it as a (harmless) shared
            // pointer so guarded `p != null` paths analyze cleanly.
            Op::ConstNull => AbsVal { root: Root::Shared, lin: Rng::UNIFORM },
            Op::Bin(op, a, b) => {
                let (va, vb) = (get(*a), get(*b));
                if va.root == Root::Bottom || vb.root == Root::Bottom {
                    return AbsVal::BOTTOM;
                }
                let lin = match op {
                    BinOp::Add => va.lin.add(vb.lin),
                    BinOp::Sub => va.lin.sub(vb.lin),
                    BinOp::Mul => va.lin.mul(vb.lin),
                    BinOp::Shl => va.lin.shl(vb.lin),
                    _ => Rng::opaque([va.lin, vb.lin]),
                };
                match (va.root.is_pointer(), vb.root.is_pointer(), op) {
                    (false, false, _) => AbsVal::data(lin),
                    // Pointer ± integer moves the offset within the root.
                    (true, false, BinOp::Add | BinOp::Sub) => AbsVal { root: va.root, lin },
                    (false, true, BinOp::Add) => AbsVal { root: vb.root, lin },
                    // Other arithmetic on a pointer keeps its pedigree but
                    // loses the offset (and a field's pointee as the root);
                    // pointer-pointer arithmetic is a plain integer.
                    (true, false, _) => AbsVal { root: va.root.unrooted(), lin: lin.unbounded() },
                    (false, true, _) => AbsVal { root: vb.root.unrooted(), lin: lin.unbounded() },
                    // The distance between two pointers into one operand.
                    (true, true, BinOp::Sub)
                        if va.root == vb.root
                            && matches!(va.root, Root::Body | Root::Field(_) | Root::Forged) =>
                    {
                        AbsVal::data(lin)
                    }
                    // Anything else on two pointers, such as the distance
                    // between two roots, can carry a pointer from one
                    // root to the other: it is no plain integer.
                    (true, true, _) => AbsVal { root: Root::Unknown, lin: lin.unbounded() },
                }
            }
            Op::Icmp(_, a, b) | Op::Fcmp(_, a, b) => {
                AbsVal::data(Rng::opaque([get(*a).lin, get(*b).lin]))
            }
            Op::Cast(op, x) => {
                let vx = get(*x);
                match op {
                    // Width changes and pointer<->int punning preserve the
                    // value (provenance rides through integers so a
                    // ptrtoint/inttoptr round trip is not a forgery).
                    CastOp::IntToPtr if vx.root == Root::Data => {
                        AbsVal { root: Root::Forged, ..vx }
                    }
                    CastOp::FpToSi | CastOp::SiToFp | CastOp::FpCast => {
                        AbsVal::data(Rng::opaque([vx.lin]))
                    }
                    _ => vx,
                }
            }
            Op::Select(c, a, b) => {
                let joined = get(*a).join(get(*b));
                if get(*c).lin.is_uniform() {
                    joined
                } else {
                    joined.diverged()
                }
            }
            Op::Alloca { .. } => AbsVal { root: Root::Private, lin: Rng::ZERO },
            Op::Load(p) => self.load_result(inst.ty, get(*p)),
            Op::Gep { base, offset } => {
                let (vb, vo) = (get(*base), get(*offset));
                if vb.root == Root::Bottom || vo.root == Root::Bottom {
                    return AbsVal::BOTTOM;
                }
                // An offset with pointer pedigree may move the base into
                // another root.
                let root = if vo.root.is_pointer() { Root::Unknown } else { vb.root };
                AbsVal { root, lin: vb.lin.add(vo.lin) }
            }
            Op::CpuToGpu(x) | Op::GpuToCpu(x) => get(*x),
            Op::Phi(incoming) => {
                let mut out = AbsVal::BOTTOM;
                for (_, x) in incoming {
                    out = out.join(get(*x));
                }
                if tainted.contains(&block) {
                    out = out.diverged();
                }
                out
            }
            Op::Call { callee, args: call_args } => {
                let vs: Vec<AbsVal> = call_args.iter().map(|&a| get(a)).collect();
                self.call(*callee, vs)
            }
            Op::CallVirtual { static_class, slot, obj, args: call_args } => {
                // Class-hierarchy widening: join over every possible
                // override of the slot among subclasses of the static type.
                let mut vs = vec![get(*obj)];
                vs.extend(call_args.iter().map(|&a| get(a)));
                let mut out = AbsVal::BOTTOM;
                let mut any = false;
                for c in self.module.subclasses_of(*static_class) {
                    if let Some(&target) = self.module.class(c).vtable.get(*slot as usize) {
                        out = out.join(self.call(target, vs.clone()));
                        any = true;
                    }
                }
                if any {
                    out
                } else {
                    // No reachable override: the dynamic target's
                    // accesses are not visible.
                    self.access_opaque = true;
                    AbsVal::UNKNOWN
                }
            }
            Op::IntrinsicCall(i, call_args) => match i {
                Intrinsic::GlobalId => AbsVal::data(Rng::ID),
                Intrinsic::LocalId
                | Intrinsic::GroupId
                | Intrinsic::AtomicAddI32
                | Intrinsic::AtomicMinI32
                | Intrinsic::AtomicCasI32 => AbsVal::data(Rng::Top),
                Intrinsic::DeviceMalloc => AbsVal { root: Root::Shared, lin: Rng::Top },
                // `push(item)` appends to the runtime-owned frontier
                // queue: an injective ordered append merged by sort+dedup,
                // never an access to user-visible memory, so it carries no
                // provenance of its own (void result).
                Intrinsic::GlobalSize | Intrinsic::WlPush | Intrinsic::Barrier => {
                    AbsVal::data(Rng::UNIFORM)
                }
                // Pure math: uniform in, uniform out.
                _ => AbsVal::data(Rng::opaque(call_args.iter().map(|&a| get(a).lin))),
            },
            Op::Store { .. } | Op::Br(_) | Op::CondBr(..) | Op::Ret(_) | Op::Unreachable => {
                AbsVal::data(Rng::UNIFORM)
            }
        }
    }

    /// Abstract result of a load of type `ty` through pointer `p`.
    fn load_result(&self, ty: Type, p: AbsVal) -> AbsVal {
        let via_body = p.root == Root::Body;
        if !ty.is_ptr() {
            // One shared body object: its fields read the same everywhere
            // (cross-item field *writes* are flagged separately, so this
            // stays precise for well-formed code). Staged per-worker
            // copies accumulate their data fields per worker.
            let uniform = via_body && self.mode == Mode::For;
            return AbsVal::data(if uniform { Rng::UNIFORM } else { Rng::Top });
        }
        // A pointer loaded from a body field at a known offset is the root
        // of its pointee, at offset zero: the access summary resolves it to
        // the allocation the live field value points into. Pointer fields
        // read the same in every item under both conventions (staged
        // copies mirror the original's pointers). Double indirection loses
        // the root.
        match p.lin.as_const().and_then(|k| u64::try_from(k).ok()) {
            Some(k) if via_body => AbsVal { root: Root::Field(k), lin: Rng::ZERO },
            _ => AbsVal { root: Root::Shared, lin: if via_body { Rng::UNIFORM } else { Rng::Top } },
        }
    }

    /// Record one shared-memory access for summary inference: accesses
    /// rooted at a kernel operand are kept; private scratch and the
    /// reduce-mode staged body copy are launch-local; anything else makes
    /// the summary opaque.
    #[allow(clippy::too_many_arguments)]
    fn note_access(
        &mut self,
        pv: AbsVal,
        width: u64,
        mode: AccessMode,
        func: FuncId,
        block: BlockId,
        inst: ValueId,
    ) {
        if pv.root == Root::Private {
            return;
        }
        if self.mode == Mode::Reduce && pv.root == Root::Body {
            // Per-worker staged copy: launch-private. The runtime accounts
            // the stage/join traffic on the body allocation itself.
            return;
        }
        match pv.base() {
            Some(base) => {
                self.accesses.push(RawAccess { base, lin: pv.lin, width, mode, func, block, inst });
            }
            None if pv.root == Root::Bottom => {} // unreached code
            None => self.access_opaque = true,
        }
    }

    /// Access-collection arm of the check pass (one instruction).
    fn collect_inst(
        &mut self,
        func: FuncId,
        f: &Function,
        b: BlockId,
        v: ValueId,
        vals: &[AbsVal],
    ) {
        let inst = f.inst(v);
        match &inst.op {
            Op::Store { ptr, val } => {
                let ty = f.inst(*val).ty;
                let width = if ty == Type::Void { 1 } else { ty.size() };
                self.note_access(vals[ptr.0 as usize], width, AccessMode::Write, func, b, v);
            }
            Op::Load(p) => {
                let width = if inst.ty == Type::Void { 1 } else { inst.ty.size() };
                self.note_access(vals[p.0 as usize], width, AccessMode::Read, func, b, v);
            }
            Op::IntrinsicCall(Intrinsic::AtomicAddI32 | Intrinsic::AtomicMinI32, args) => {
                if let Some(&p) = args.first() {
                    self.note_access(vals[p.0 as usize], 4, AccessMode::Accumulate, func, b, v);
                    if value_used(f, v) {
                        // The old value the RMW returns is observed: that
                        // is a read of the same cell for hazard purposes
                        // (Gauss–Seidel relaxations hang off exactly this).
                        self.note_access(vals[p.0 as usize], 4, AccessMode::Read, func, b, v);
                    }
                }
            }
            // Compare-and-swap can build arbitrary synchronization and
            // device_malloc hands out addresses invisible to the host
            // allocator walk: both defeat footprint reasoning.
            Op::IntrinsicCall(Intrinsic::AtomicCasI32 | Intrinsic::DeviceMalloc, _) => {
                self.access_opaque = true;
            }
            // The frontier queue is runtime-private: a push is an
            // injective append (per-chunk segments, deterministic
            // sort+dedup merge), never a racing access and never part of
            // the kernel's user-visible footprint — summaries stay exact.
            Op::IntrinsicCall(Intrinsic::WlPush, _) => {}
            _ => {}
        }
    }

    /// The lint check pass: runs once per analyzed (function, context).
    fn check(&mut self, func: FuncId, f: &Function, vals: &[AbsVal]) {
        for b in f.block_ids() {
            for &v in &f.block(b).insts {
                self.collect_inst(func, f, b, v, vals);
                match &f.inst(v).op {
                    Op::Store { ptr, val } => self.check_store(func, f, b, v, *ptr, *val, vals),
                    Op::Load(p) if vals[p.0 as usize].root == Root::Forged => {
                        self.push(
                            Lint::ForeignPointer,
                            Severity::Warning,
                            "load through a pointer forged from a plain integer; \
                             SVM translation cannot adjust it"
                                .to_string(),
                            func,
                            f,
                            b,
                            v,
                        );
                    }
                    Op::IntrinsicCall(Intrinsic::WlPush, args) => {
                        // The frontier queue holds item *indices*. A
                        // pointer laundered through it comes back as a
                        // plain integer next round — re-forging it aliases
                        // memory behind the SVM translation layer and the
                        // per-round snapshot/commit discipline.
                        if let Some(&a) = args.first() {
                            // Definite pointer provenance only: `Unknown`
                            // (degraded analysis) must not hard-fail the
                            // `Deny` gate.
                            let root = vals[a.0 as usize].root;
                            if root.is_pointer() && root != Root::Unknown {
                                self.push(
                                    Lint::PointerPush,
                                    Severity::Error,
                                    "pointer-derived value pushed to the frontier queue; \
                                     re-forging it next round aliases memory behind SVM \
                                     translation (push item indices, not addresses)"
                                        .to_string(),
                                    func,
                                    f,
                                    b,
                                    v,
                                );
                            }
                        }
                    }
                    Op::IntrinsicCall(
                        Intrinsic::AtomicAddI32 | Intrinsic::AtomicMinI32 | Intrinsic::AtomicCasI32,
                        args,
                    ) => {
                        if let Some(&p) = args.first() {
                            if vals[p.0 as usize].root == Root::Forged {
                                self.push(
                                    Lint::ForeignPointer,
                                    Severity::Warning,
                                    "atomic on a pointer forged from a plain integer; \
                                     SVM translation cannot adjust it"
                                        .to_string(),
                                    func,
                                    f,
                                    b,
                                    v,
                                );
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn check_store(
        &mut self,
        func: FuncId,
        f: &Function,
        b: BlockId,
        v: ValueId,
        ptr: ValueId,
        val: ValueId,
        vals: &[AbsVal],
    ) {
        let pv = vals[ptr.0 as usize];
        let vv = vals[val.0 as usize];
        if pv.root == Root::Forged {
            self.push(
                Lint::ForeignPointer,
                Severity::Warning,
                "store through a pointer forged from a plain integer; \
                 SVM translation cannot adjust it"
                    .to_string(),
                func,
                f,
                b,
                v,
            );
            return;
        }
        // Reduce isolation: a pointer into the per-worker body copy must
        // not reach shared memory, or `join` semantics are compromised.
        if self.mode == Mode::Reduce
            && vv.root == Root::Body
            && !matches!(pv.root, Root::Body | Root::Private)
        {
            self.push(
                Lint::AccumulatorEscape,
                Severity::Error,
                "pointer to per-worker reduce state is stored to shared memory; \
                 the staged accumulator copies must not escape"
                    .to_string(),
                func,
                f,
                b,
                v,
            );
            return;
        }
        // Private scratch is per-work-item by construction.
        if pv.root == Root::Private {
            return;
        }
        // In reduce mode each worker owns its body copy outright.
        if self.mode == Mode::Reduce && pv.root == Root::Body {
            return;
        }
        let ty = f.inst(val).ty;
        let width = if ty == Type::Void { 1 } else { ty.size() };
        match pv.lin.id_stride() {
            Some(0) => {
                if is_rmw(f, ptr, val) {
                    self.push(
                        Lint::UniformRmw,
                        Severity::Error,
                        "non-atomic read-modify-write of a work-item-uniform address: \
                         updates are lost under concurrency (use atomic_add / atomic_min)"
                            .to_string(),
                        func,
                        f,
                        b,
                        v,
                    );
                } else if vv.lin.is_uniform() {
                    self.push(
                        Lint::UniformStore,
                        Severity::Note,
                        "every work item stores the same value to the same address \
                         (idempotent flag write; benign but serialized)"
                            .to_string(),
                        func,
                        f,
                        b,
                        v,
                    );
                } else {
                    self.push(
                        Lint::UniformStore,
                        Severity::Warning,
                        "work-item-dependent value stored to a work-item-uniform \
                         address: last writer wins nondeterministically"
                            .to_string(),
                        func,
                        f,
                        b,
                        v,
                    );
                }
            }
            Some(s) if s.unsigned_abs() < width => {
                self.push(
                    Lint::OverlappingStores,
                    Severity::Error,
                    format!(
                        "work-item address stride of {s} byte(s) is smaller than \
                         the {width}-byte store width: adjacent work items overlap"
                    ),
                    func,
                    f,
                    b,
                    v,
                );
            }
            Some(_) => {}
            None => {
                self.push(
                    Lint::UnprovableStoreIndex,
                    Severity::Warning,
                    "store address cannot be proven disjoint across work items".to_string(),
                    func,
                    f,
                    b,
                    v,
                );
            }
        }
    }

    /// Post-pass over the collected accesses: classify cross-item read
    /// hazards (CA108) and redundant atomics (CA109). The one CA108
    /// predicate: [`crate::AccessSummary::hazard`] is "this pass pushed a
    /// CA108 finding".
    ///
    /// A *hazard* is a rooted read that may observe bytes a different
    /// work item writes (plain store or atomic accumulate) on the same
    /// base: such kernels have schedule-dependent intermediate dynamics,
    /// so parallel backends must fix the chunk execution order to stay
    /// deterministic. Reads that could not be rooted at a kernel operand
    /// (double indirection, pointer chasing) are assumed not to alias
    /// rooted written bases — the same restrict-style operand assumption
    /// the access summary already makes — so pointer-chasing kernels
    /// with injective rooted writes stay fully parallel.
    pub(crate) fn check_hazards(&mut self) {
        let module = self.module;
        let accesses = std::mem::take(&mut self.accesses);
        let mut flagged: HashSet<(FuncId, ValueId)> = HashSet::new();
        for r in accesses.iter().filter(|a| a.mode == AccessMode::Read) {
            if flagged.contains(&(r.func, r.inst)) {
                continue;
            }
            for w in accesses.iter().filter(|a| a.mode >= AccessMode::Accumulate) {
                // Distinct bases are assumed non-aliasing: the summary's
                // restrict-style operand assumption.
                if r.base != w.base {
                    continue;
                }
                let hazard = match (r.footprint(), w.footprint()) {
                    (Some(fr), Some(fw)) => fr.may_alias_cross_item(&fw),
                    // An unbounded range on either side of a read/write
                    // pair sharing a base: assume collision.
                    _ => true,
                };
                if hazard {
                    let base = r.base;
                    self.push(
                        Lint::CrossItemReadHazard,
                        Severity::Note,
                        format!(
                            "work items may load bytes that other work items store \
                             (shared base {base}): intermediate values are schedule-dependent, \
                             so parallel backends serialize this kernel's chunk order"
                        ),
                        r.func,
                        module.function(r.func),
                        r.block,
                        r.inst,
                    );
                    flagged.insert((r.func, r.inst));
                    break;
                }
            }
        }
        // CA109 claims that no other work item can touch the cell, so it
        // must hold for every record of the instruction, from every call
        // context the walk analyzed it in.
        let private = |a: &RawAccess| a.footprint().filter(RangeFootprint::injective_per_item);
        let mut judged: HashSet<(FuncId, ValueId)> = HashSet::new();
        for w in accesses.iter().filter(|a| a.mode == AccessMode::Accumulate) {
            if !judged.insert((w.func, w.inst)) {
                continue;
            }
            let Some(fw) = private(w) else { continue };
            if accesses
                .iter()
                .filter(|a| {
                    a.mode == AccessMode::Accumulate && (a.func, a.inst) == (w.func, w.inst)
                })
                .all(|a| private(a).is_some())
            {
                self.push(
                    Lint::RedundantAtomic,
                    Severity::Warning,
                    format!(
                        "atomic read-modify-write of a provably per-item-private address \
                         (stride {} >= width {}): no other work item can touch it, \
                         a plain load and store is cheaper",
                        fw.stride.unsigned_abs(),
                        fw.width()
                    ),
                    w.func,
                    module.function(w.func),
                    w.block,
                    w.inst,
                );
            }
        }
        self.accesses = accesses;
    }

    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        lint: Lint,
        severity: Severity,
        message: String,
        func: FuncId,
        f: &Function,
        block: BlockId,
        inst: ValueId,
    ) {
        self.diags.push(Diagnostic {
            lint,
            severity,
            message,
            function: f.name.clone(),
            func,
            block,
            inst,
        });
    }
}

/// Whether any instruction in `f` consumes `v` as an operand.
fn value_used(f: &Function, v: ValueId) -> bool {
    f.insts.iter().any(|inst| inst.op.operands().contains(&v))
}

/// Blocks whose phi nodes merge work-item-divergent control flow: for
/// every branch with a non-uniform condition, the immediate-postdominator
/// join block plus every multi-predecessor block in the forward region
/// between the branch and that join.
fn divergent_joins(
    f: &Function,
    vals: &[AbsVal],
    pdt: &PostDomTree,
    preds: &HashMap<BlockId, Vec<BlockId>>,
) -> HashSet<BlockId> {
    let mut tainted = HashSet::new();
    for b in f.block_ids() {
        let Some(t) = f.terminator(b) else { continue };
        let Op::CondBr(c, s1, s2) = &f.inst(t).op else { continue };
        if vals[c.0 as usize].lin.is_uniform() {
            continue;
        }
        match pdt.ipdom(b) {
            Some(Some(j)) => {
                tainted.insert(j);
                let mut seen = HashSet::new();
                let mut q = VecDeque::from([*s1, *s2]);
                while let Some(x) = q.pop_front() {
                    if x == j || !seen.insert(x) {
                        continue;
                    }
                    if preds.get(&x).is_some_and(|p| p.len() >= 2) {
                        tainted.insert(x);
                    }
                    for s in f.successors(x) {
                        q.push_back(s);
                    }
                }
            }
            // No finite join (the branch reaches the exit both ways):
            // conservatively taint every block.
            _ => {
                tainted.extend(f.block_ids());
                return tainted;
            }
        }
    }
    tainted
}

/// Whether `store val through ptr` completes a read-modify-write: some
/// load of the *same address* flows (transitively through pure dataflow)
/// into the stored value. Addresses are compared structurally, which is
/// exact after CSE canonicalizes duplicate address computations.
fn is_rmw(f: &Function, ptr: ValueId, val: ValueId) -> bool {
    let loads: Vec<ValueId> = f
        .insts
        .iter()
        .enumerate()
        .filter_map(|(i, inst)| match inst.op {
            Op::Load(p) if same_addr(f, p, ptr, 0) => Some(ValueId(i as u32)),
            _ => None,
        })
        .collect();
    if loads.is_empty() {
        return false;
    }
    let mut seen = HashSet::new();
    let mut stack = vec![val];
    while let Some(x) = stack.pop() {
        if !seen.insert(x) {
            continue;
        }
        if loads.contains(&x) {
            return true;
        }
        stack.extend(f.inst(x).op.operands());
    }
    false
}

/// Structural equality of two address expressions (same-ValueId fast
/// path, then syntactic comparison through pure ops and loads).
fn same_addr(f: &Function, a: ValueId, b: ValueId, depth: usize) -> bool {
    if a == b {
        return true;
    }
    if depth > 16 {
        return false;
    }
    match (&f.inst(a).op, &f.inst(b).op) {
        (Op::Load(x), Op::Load(y)) => same_addr(f, *x, *y, depth + 1),
        (Op::Gep { base: b1, offset: o1 }, Op::Gep { base: b2, offset: o2 }) => {
            same_addr(f, *b1, *b2, depth + 1) && same_addr(f, *o1, *o2, depth + 1)
        }
        (Op::Cast(c1, x), Op::Cast(c2, y)) => c1 == c2 && same_addr(f, *x, *y, depth + 1),
        (Op::CpuToGpu(x), Op::CpuToGpu(y)) | (Op::GpuToCpu(x), Op::GpuToCpu(y)) => {
            same_addr(f, *x, *y, depth + 1)
        }
        (Op::Bin(op1, a1, b1), Op::Bin(op2, a2, b2)) => {
            op1 == op2 && same_addr(f, *a1, *a2, depth + 1) && same_addr(f, *b1, *b2, depth + 1)
        }
        (Op::ConstInt(x), Op::ConstInt(y)) => x == y,
        (Op::Param(i), Op::Param(j)) => i == j,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const fn at(root: Root, lin: Rng) -> AbsVal {
        AbsVal { root, lin }
    }

    #[test]
    fn join_keeps_one_root_and_drops_offsets_across_roots() {
        let body8 = at(Root::Body, Rng::constant(8));
        assert_eq!(AbsVal::BOTTOM.join(body8), body8);
        assert_eq!(body8.join(body8), body8);
        let hull = body8.join(at(Root::Body, Rng::constant(16)));
        assert_eq!(hull.lin, Rng::Lin { stride: 0, lo: 8, hi: 16, invariant: true });
        assert_eq!(hull.base(), None, "a body pointer at a non-constant offset is unrooted");
        let f0 = at(Root::Field(0), Rng::ZERO);
        assert_eq!(f0.join(at(Root::Field(8), Rng::ZERO)), at(Root::Shared, Rng::UNIFORM));
        assert_eq!(f0.join(body8).root, Root::Unknown);
        assert_eq!(at(Root::Private, Rng::ZERO).join(AbsVal::BOTTOM).root, Root::Private);
    }

    #[test]
    fn base_projects_the_operand_root() {
        assert_eq!(at(Root::Body, Rng::constant(8)).base(), Some(AccessBase::Body));
        assert_eq!(at(Root::Body, Rng::ID).base(), None);
        assert_eq!(at(Root::Field(8), Rng::Top).base(), Some(AccessBase::Field { offset: 8 }));
        assert_eq!(at(Root::Shared, Rng::ZERO).base(), None);
        assert_eq!(Root::Field(8).unrooted(), Root::Shared);
        assert!(Root::Forged.is_pointer() && !Root::Data.is_pointer());
    }

    #[test]
    fn divergence_keeps_only_constants_invariant() {
        let k = AbsVal::data(Rng::constant(3));
        assert_eq!(k.diverged(), k);
        assert_eq!(AbsVal::data(Rng::ID).diverged().lin.id_stride(), None);
        assert_eq!(at(Root::Body, Rng::constant(8)).diverged().lin.id_stride(), None);
        assert_eq!(AbsVal::BOTTOM.diverged(), AbsVal::BOTTOM);
    }
}
