//! Index-affinity abstract interpretation over Concord IR.
//!
//! The analysis classifies every SSA value by two facts:
//!
//! * **Affinity** ([`Aff`]): how the value depends on the work-item id —
//!   a known constant, uniform across work items, affine in the id with a
//!   known byte stride, or unknown. Store addresses with affinity
//!   `Affine(s)` where `|s| >=` the store width are provably disjoint
//!   across work items; uniform addresses are provably *colliding*.
//! * **Provenance** ([`Prov`]): where a pointer came from — the kernel
//!   body object (`this`), shared SVM memory, a private `alloca`, or an
//!   integer forged into a pointer (which SVM translation cannot adjust).
//!
//! Both lattices are tiny, so the per-function fixpoint converges in a
//! handful of passes. Control-flow divergence is handled by tainting phi
//! nodes in the postdominance join region of every branch whose condition
//! is not work-item-uniform. Calls (including virtual calls, widened over
//! the class hierarchy) are analyzed interprocedurally with memoization
//! on the abstract argument tuple.

use crate::access::AccessMode;
use crate::diag::{Diagnostic, Lint, Severity};
use crate::range::{RangeFootprint, Rng};
use crate::Mode;
use concord_ir::analysis::{reverse_postorder, PostDomTree};
use concord_ir::{BinOp, BlockId, CastOp, FuncId, Function, Intrinsic, Module, Op, Type, ValueId};
use std::collections::{HashMap, HashSet, VecDeque};

/// How a value relates to the work-item id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Aff {
    /// Optimistic initial state: no executions seen yet.
    Bottom,
    /// Known compile-time integer constant.
    Const(i64),
    /// The same value in every work item (not a known constant).
    Uniform,
    /// `base + scale * id` for a uniform `base`; the payload is the scale.
    Affine(i64),
    /// No provable relation to the work-item id.
    Unknown,
}

impl Aff {
    /// Whether the value is provably identical across work items.
    /// `Bottom` counts: it only labels unreached code.
    #[must_use]
    pub fn is_uniform(self) -> bool {
        matches!(self, Aff::Bottom | Aff::Const(_) | Aff::Uniform)
    }

    /// Least upper bound.
    #[must_use]
    pub fn join(self, o: Aff) -> Aff {
        use Aff::{Affine, Bottom, Const, Uniform, Unknown};
        match (self, o) {
            (Bottom, x) | (x, Bottom) => x,
            (Unknown, _) | (_, Unknown) => Unknown,
            (Const(a), Const(b)) if a == b => Const(a),
            (Const(_) | Uniform, Const(_) | Uniform) => Uniform,
            (Affine(a), Affine(b)) if a == b => Affine(a),
            _ => Unknown,
        }
    }

    fn add(self, o: Aff) -> Aff {
        use Aff::{Affine, Bottom, Const, Uniform, Unknown};
        match (self, o) {
            (Bottom, _) | (_, Bottom) => Bottom,
            (Const(a), Const(b)) => Const(a.wrapping_add(b)),
            (Const(_) | Uniform, Const(_) | Uniform) => Uniform,
            (Affine(s), x) | (x, Affine(s)) if x.is_uniform() => Affine(s),
            (Affine(a), Affine(b)) => {
                let s = a.wrapping_add(b);
                if s == 0 {
                    Uniform
                } else {
                    Affine(s)
                }
            }
            _ => Unknown,
        }
    }

    fn sub(self, o: Aff) -> Aff {
        use Aff::{Affine, Const};
        match (self, o) {
            (Const(a), Const(b)) => Const(a.wrapping_sub(b)),
            (a, Affine(s)) => a.add(Affine(s.wrapping_neg())),
            _ => self.add(o),
        }
    }

    fn mul(self, o: Aff) -> Aff {
        use Aff::{Affine, Bottom, Const, Uniform, Unknown};
        match (self, o) {
            (Bottom, _) | (_, Bottom) => Bottom,
            (Const(a), Const(b)) => Const(a.wrapping_mul(b)),
            (Const(0), _) | (_, Const(0)) => Const(0),
            (Const(k), Affine(s)) | (Affine(s), Const(k)) => Affine(k.wrapping_mul(s)),
            (Const(_) | Uniform, Const(_) | Uniform) => Uniform,
            _ => Unknown,
        }
    }

    fn shl(self, o: Aff) -> Aff {
        use Aff::{Affine, Bottom, Const, Uniform};
        match (self, o) {
            (Bottom, _) | (_, Bottom) => Bottom,
            (Const(a), Const(k)) if (0..63).contains(&k) => Const(a.wrapping_shl(k as u32)),
            (Affine(s), Const(k)) if (0..63).contains(&k) => Affine(s.wrapping_shl(k as u32)),
            (a, b) if a.is_uniform() && b.is_uniform() => Uniform,
            _ => Aff::Unknown,
        }
    }

    /// Fallback for operations with no affine transfer: uniform inputs
    /// give a uniform output, anything else is unknown.
    fn opaque(self, o: Aff) -> Aff {
        use Aff::{Bottom, Uniform, Unknown};
        match (self, o) {
            (Bottom, _) | (_, Bottom) => Bottom,
            (a, b) if a.is_uniform() && b.is_uniform() => Uniform,
            _ => Unknown,
        }
    }
}

/// Which *kernel operand* a pointer is rooted at — the third lattice,
/// added for access-summary inference. Where [`Prov`] says a pointer is
/// "shared memory", `Origin` says *which* shared object it reaches:
/// the body object itself at a known byte offset, or the pointee of a
/// body field loaded from a known byte offset. Anything else (double
/// indirection, data-dependent bases) is [`Origin::Other`], which makes
/// the enclosing access summary opaque.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Origin {
    /// Optimistic initial state.
    Bottom,
    /// `this + offset` for a known constant byte offset.
    Body(i64),
    /// The pointer loaded from the body field at byte offset `field`
    /// (possibly advanced by further arithmetic; the summary widens the
    /// access to the allocation backing the field's pointee).
    Field {
        /// Byte offset of the pointer field within the body object.
        field: i64,
    },
    /// Not rooted at a statically known kernel operand.
    Other,
}

impl Origin {
    /// Least upper bound: equal origins survive a merge, anything else
    /// widens to [`Origin::Other`].
    #[must_use]
    pub fn join(self, o: Origin) -> Origin {
        match (self, o) {
            (Origin::Bottom, x) | (x, Origin::Bottom) => x,
            (a, b) if a == b => a,
            _ => Origin::Other,
        }
    }

    /// Advance the origin by an offset with affinity `aff` (pointer
    /// arithmetic). A known-constant offset keeps a body origin precise;
    /// any offset keeps a field origin rooted at the same field (the
    /// summary widens to the whole backing allocation anyway); a
    /// non-constant offset from the body object itself is no longer a
    /// provable operand access.
    #[must_use]
    fn advance(self, aff: Aff) -> Origin {
        match (self, aff) {
            (Origin::Bottom, _) => Origin::Bottom,
            (Origin::Body(b), Aff::Const(k)) => Origin::Body(b.wrapping_add(k)),
            (Origin::Body(_), Aff::Bottom | Aff::Uniform | Aff::Affine(_) | Aff::Unknown) => {
                Origin::Other
            }
            (f @ Origin::Field { .. }, _) => f,
            (Origin::Other, _) => Origin::Other,
        }
    }
}

/// Where a pointer came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Prov {
    /// Optimistic initial state.
    Bottom,
    /// Not a pointer (plain data).
    NotPtr,
    /// The kernel body object (`this`) or a field address within it.
    This,
    /// Shared SVM memory: loaded from memory, allocated by the runtime.
    Shared,
    /// A private `alloca` (work-item-local scratch; never shared).
    Private,
    /// Forged from a non-pointer integer via `inttoptr` — SVM pointer
    /// translation (PTROPT) cannot adjust such a value.
    Foreign,
    /// Could be anything.
    Unknown,
}

impl Prov {
    /// Least upper bound.
    #[must_use]
    pub fn join(self, o: Prov) -> Prov {
        match (self, o) {
            (Prov::Bottom, x) | (x, Prov::Bottom) => x,
            (a, b) if a == b => a,
            _ => Prov::Unknown,
        }
    }

    /// Whether the value carries pointer pedigree (so casting it to a
    /// pointer is not a forgery).
    #[must_use]
    pub fn is_pointerlike(self) -> bool {
        matches!(self, Prov::This | Prov::Shared | Prov::Private | Prov::Foreign | Prov::Unknown)
    }
}

/// Abstract value: affinity plus provenance plus operand origin plus
/// symbolic range. For pointers the range tracks the byte offset from
/// the operand root named by `origin`; for integers it tracks the value
/// itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AbsVal {
    /// Work-item affinity.
    pub aff: Aff,
    /// Pointer provenance.
    pub prov: Prov,
    /// Which kernel operand the pointer is rooted at.
    pub origin: Origin,
    /// Symbolic range (value, or byte offset from the origin root).
    pub rng: Rng,
}

impl AbsVal {
    /// Optimistic initial state.
    pub const BOTTOM: AbsVal =
        AbsVal { aff: Aff::Bottom, prov: Prov::Bottom, origin: Origin::Bottom, rng: Rng::Bottom };
    /// Fully unknown.
    pub const UNKNOWN: AbsVal =
        AbsVal { aff: Aff::Unknown, prov: Prov::Unknown, origin: Origin::Other, rng: Rng::Top };

    fn data(aff: Aff) -> AbsVal {
        AbsVal { aff, prov: Prov::NotPtr, origin: Origin::Other, rng: Rng::from_aff(aff) }
    }

    /// Least upper bound.
    #[must_use]
    pub fn join(self, o: AbsVal) -> AbsVal {
        AbsVal {
            aff: self.aff.join(o.aff),
            prov: self.prov.join(o.prov),
            origin: self.origin.join(o.origin),
            rng: self.rng.join(o.rng),
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
    /// Operand root of the accessed pointer.
    pub(crate) origin: Origin,
    /// Affinity of the accessed address.
    pub(crate) aff: Aff,
    /// Symbolic byte-offset range of the address from the origin root.
    pub(crate) rng: Rng,
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
        RangeFootprint::from_rng(self.rng, self.width, self.mode)
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
        let this_aff = match self.mode {
            // `parallel_for` shares one body object across all work items.
            Mode::For => Aff::Uniform,
            // `parallel_reduce` runs each worker on its own staged copy.
            Mode::Reduce => Aff::Unknown,
        };
        let mut args = vec![AbsVal {
            aff: this_aff,
            prov: Prov::This,
            origin: Origin::Body(0),
            rng: Rng::ZERO,
        }];
        if f.params.len() > 1 {
            args.push(AbsVal::data(Aff::Affine(1)));
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
                        next.rng = cur.rng.widen(next.rng);
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
            Op::ConstInt(k) => AbsVal::data(Aff::Const(*k)),
            Op::ConstFloat(_) => AbsVal::data(Aff::Uniform),
            // Null is one fixed address; treat it as a (harmless) shared
            // pointer so guarded `p != null` paths analyze cleanly.
            Op::ConstNull => AbsVal {
                aff: Aff::Uniform,
                prov: Prov::Shared,
                origin: Origin::Other,
                rng: Rng::Top,
            },
            Op::Bin(op, a, b) => {
                let (va, vb) = (get(*a), get(*b));
                let aff = match op {
                    BinOp::Add | BinOp::FAdd => va.aff.add(vb.aff),
                    BinOp::Sub | BinOp::FSub => va.aff.sub(vb.aff),
                    BinOp::Mul | BinOp::FMul => va.aff.mul(vb.aff),
                    BinOp::Shl => va.aff.shl(vb.aff),
                    _ => va.aff.opaque(vb.aff),
                };
                let rng = match op {
                    BinOp::Add => va.rng.add(vb.rng),
                    BinOp::Sub => va.rng.sub(vb.rng),
                    BinOp::Mul => va.rng.mul(vb.rng),
                    BinOp::Shl => va.rng.shl(vb.rng),
                    _ => Rng::Top,
                };
                // Pointer ± integer keeps the pointer operand's origin
                // (advanced by the integer side); everything else loses it.
                let origin = match op {
                    BinOp::Add if va.prov.is_pointerlike() && !vb.prov.is_pointerlike() => {
                        va.origin.advance(vb.aff)
                    }
                    BinOp::Add if vb.prov.is_pointerlike() && !va.prov.is_pointerlike() => {
                        vb.origin.advance(va.aff)
                    }
                    BinOp::Sub if va.prov.is_pointerlike() && !vb.prov.is_pointerlike() => {
                        match vb.aff {
                            Aff::Const(k) => va.origin.advance(Aff::Const(k.wrapping_neg())),
                            other => va.origin.advance(other),
                        }
                    }
                    _ => Origin::Other,
                };
                AbsVal { aff, prov: bin_prov(va.prov, vb.prov), origin, rng }
            }
            Op::Icmp(_, a, b) | Op::Fcmp(_, a, b) => AbsVal::data(get(*a).aff.opaque(get(*b).aff)),
            Op::Cast(op, x) => {
                let vx = get(*x);
                match op {
                    // Width changes and pointer<->int punning preserve both
                    // facts (provenance rides through integers so a
                    // ptrtoint/inttoptr round trip is not a forgery).
                    CastOp::Zext | CastOp::Sext | CastOp::Trunc | CastOp::PtrToInt => vx,
                    CastOp::IntToPtr => AbsVal {
                        aff: vx.aff,
                        prov: if vx.prov.is_pointerlike() { vx.prov } else { Prov::Foreign },
                        origin: vx.origin,
                        rng: vx.rng,
                    },
                    CastOp::PtrCast => vx,
                    CastOp::FpToSi | CastOp::SiToFp | CastOp::FpCast => {
                        AbsVal::data(if vx.aff.is_uniform() { Aff::Uniform } else { Aff::Unknown })
                    }
                }
            }
            Op::Select(c, a, b) => {
                let joined = get(*a).join(get(*b));
                if get(*c).aff.is_uniform() {
                    joined
                } else {
                    // Work-item-dependent selection of either arm. The
                    // joined range still covers both arms per item.
                    AbsVal {
                        aff: match joined.aff {
                            k @ Aff::Const(_) => k,
                            _ => Aff::Unknown,
                        },
                        prov: joined.prov,
                        origin: joined.origin,
                        rng: joined.rng,
                    }
                }
            }
            Op::Alloca { .. } => AbsVal {
                aff: Aff::Uniform,
                prov: Prov::Private,
                origin: Origin::Other,
                rng: Rng::ZERO,
            },
            Op::Load(p) => self.load_result(inst.ty, get(*p)),
            Op::Gep { base, offset } => {
                let (vb, vo) = (get(*base), get(*offset));
                AbsVal {
                    aff: vb.aff.add(vo.aff),
                    prov: vb.prov,
                    origin: vb.origin.advance(vo.aff),
                    rng: vb.rng.add(vo.rng),
                }
            }
            Op::CpuToGpu(x) | Op::GpuToCpu(x) => get(*x),
            Op::Phi(incoming) => {
                let mut out = AbsVal::BOTTOM;
                for (_, x) in incoming {
                    out = out.join(get(*x));
                }
                if tainted.contains(&block) {
                    // Merged under divergent control flow: the chosen arm
                    // differs per work item. Identical constants survive.
                    out.aff = match out.aff {
                        k @ (Aff::Const(_) | Aff::Bottom) => k,
                        _ => Aff::Unknown,
                    };
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
                Intrinsic::GlobalId => AbsVal::data(Aff::Affine(1)),
                Intrinsic::GlobalSize => AbsVal::data(Aff::Uniform),
                Intrinsic::LocalId | Intrinsic::GroupId => AbsVal::data(Aff::Unknown),
                Intrinsic::AtomicAddI32 | Intrinsic::AtomicMinI32 | Intrinsic::AtomicCasI32 => {
                    AbsVal::data(Aff::Unknown)
                }
                Intrinsic::DeviceMalloc => AbsVal {
                    aff: Aff::Unknown,
                    prov: Prov::Shared,
                    origin: Origin::Other,
                    rng: Rng::Top,
                },
                // `push(item)` appends to the runtime-owned frontier
                // queue: an injective ordered append merged by sort+dedup,
                // never an access to user-visible memory, so it carries no
                // provenance of its own (void result).
                Intrinsic::WlPush => AbsVal::data(Aff::Uniform),
                Intrinsic::Barrier => AbsVal::data(Aff::Uniform),
                _ => {
                    // Pure math: uniform in, uniform out.
                    let uniform = call_args.iter().all(|&a| get(a).aff.is_uniform());
                    AbsVal::data(if uniform { Aff::Uniform } else { Aff::Unknown })
                }
            },
            Op::Store { .. } | Op::Br(_) | Op::CondBr(..) | Op::Ret(_) | Op::Unreachable => {
                AbsVal::data(Aff::Uniform)
            }
        }
    }

    /// Abstract result of a load of type `ty` through pointer `p`.
    fn load_result(&self, ty: Type, p: AbsVal) -> AbsVal {
        let prov = if ty.is_ptr() { Prov::Shared } else { Prov::NotPtr };
        // A pointer loaded from a body field at a known offset is rooted at
        // that field: the access-summary resolves it to the allocation the
        // live field value points into. Double indirection loses the root.
        let origin = match (ty.is_ptr(), p.origin) {
            (true, Origin::Body(k)) if k >= 0 => Origin::Field { field: k },
            _ => Origin::Other,
        };
        // The freshly loaded field pointer *is* the new root: offset zero.
        // Any other loaded value has no provable range.
        let rng = match origin {
            Origin::Field { .. } => Rng::ZERO,
            _ => Rng::Top,
        };
        let aff = if p.prov == Prov::This {
            match self.mode {
                // One shared body object: its fields read the same
                // everywhere (cross-item field *writes* are flagged
                // separately, so this stays precise for well-formed code).
                Mode::For => Aff::Uniform,
                // Staged per-worker copies: pointer fields mirror the
                // original object, data fields accumulate per worker.
                Mode::Reduce => {
                    if ty.is_ptr() {
                        Aff::Uniform
                    } else {
                        Aff::Unknown
                    }
                }
            }
        } else {
            Aff::Unknown
        };
        AbsVal { aff, prov, origin, rng }
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
        if pv.prov == Prov::Private {
            return;
        }
        if self.mode == Mode::Reduce && pv.prov == Prov::This {
            // Per-worker staged copy: launch-private. The runtime accounts
            // the stage/join traffic on the body allocation itself.
            return;
        }
        match pv.origin {
            Origin::Bottom => {} // unreached code
            o @ (Origin::Body(_) | Origin::Field { .. }) => {
                self.accesses.push(RawAccess {
                    origin: o,
                    aff: pv.aff,
                    rng: pv.rng,
                    width,
                    mode,
                    func,
                    block,
                    inst,
                });
            }
            Origin::Other => self.access_opaque = true,
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
                    Op::Load(p) if vals[p.0 as usize].prov == Prov::Foreign => {
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
                            if matches!(
                                vals[a.0 as usize].prov,
                                Prov::This | Prov::Shared | Prov::Private | Prov::Foreign
                            ) {
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
                            if vals[p.0 as usize].prov == Prov::Foreign {
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
        if pv.prov == Prov::Foreign {
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
            && vv.prov == Prov::This
            && !matches!(pv.prov, Prov::This | Prov::Private)
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
        if pv.prov == Prov::Private {
            return;
        }
        // In reduce mode each worker owns its body copy outright.
        if self.mode == Mode::Reduce && pv.prov == Prov::This {
            return;
        }
        let ty = f.inst(val).ty;
        let width = if ty == Type::Void { 1 } else { ty.size() };
        match pv.aff {
            Aff::Affine(s) => {
                if s.unsigned_abs() < width {
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
            }
            Aff::Const(_) | Aff::Uniform | Aff::Bottom => {
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
                } else if vv.aff.is_uniform() {
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
            Aff::Unknown => {
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
                if !same_base(r.origin, w.origin) {
                    continue;
                }
                let hazard = match (r.footprint(), w.footprint()) {
                    (Some(fr), Some(fw)) => fr.may_alias_cross_item(&fw),
                    // An unbounded range on either side of a read/write
                    // pair sharing a base: assume collision.
                    _ => true,
                };
                if hazard {
                    let base = base_name(r.origin);
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
        for w in accesses.iter().filter(|a| a.mode == AccessMode::Accumulate) {
            if let Some(fw) = w.footprint() {
                if fw.injective_per_item() {
                    self.push(
                        Lint::RedundantAtomic,
                        Severity::Warning,
                        format!(
                            "atomic read-modify-write of a provably per-item-private address \
                             (stride {} >= width {}): no other work item can touch it, \
                             a plain load and store is cheaper",
                            fw.stride.abs(),
                            fw.hi - fw.lo
                        ),
                        w.func,
                        module.function(w.func),
                        w.block,
                        w.inst,
                    );
                }
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

/// Whether two rooted origins name the same access base. Body origins
/// collapse (offsets ride in the range component); field origins compare
/// by the field slot. Distinct bases are assumed non-aliasing — the
/// summary's restrict-style operand assumption.
fn same_base(a: Origin, b: Origin) -> bool {
    match (a, b) {
        (Origin::Body(_), Origin::Body(_)) => true,
        (Origin::Field { field: x }, Origin::Field { field: y }) => x == y,
        _ => false,
    }
}

fn base_name(o: Origin) -> String {
    match o {
        Origin::Body(_) => "body".to_string(),
        Origin::Field { field } => format!("field+{field}"),
        Origin::Bottom | Origin::Other => "?".to_string(),
    }
}

/// Whether any instruction in `f` consumes `v` as an operand.
fn value_used(f: &Function, v: ValueId) -> bool {
    f.insts.iter().any(|inst| inst.op.operands().contains(&v))
}

/// Provenance of a two-operand arithmetic result: pointer pedigree rides
/// through pointer±integer arithmetic; pointer−pointer is a plain
/// distance.
fn bin_prov(a: Prov, b: Prov) -> Prov {
    match (a.is_pointerlike(), b.is_pointerlike()) {
        (true, false) => a,
        (false, true) => b,
        (true, true) => Prov::NotPtr,
        (false, false) => Prov::NotPtr,
    }
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
        if vals[c.0 as usize].aff.is_uniform() {
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

    #[test]
    fn aff_join_lattice() {
        use Aff::{Affine, Bottom, Const, Uniform, Unknown};
        assert_eq!(Bottom.join(Affine(4)), Affine(4));
        assert_eq!(Const(3).join(Const(3)), Const(3));
        assert_eq!(Const(3).join(Const(4)), Uniform);
        assert_eq!(Affine(4).join(Affine(4)), Affine(4));
        assert_eq!(Affine(4).join(Affine(8)), Unknown);
        assert_eq!(Affine(4).join(Uniform), Unknown);
        assert_eq!(Unknown.join(Const(1)), Unknown);
    }

    #[test]
    fn aff_arithmetic() {
        use Aff::{Affine, Const, Uniform, Unknown};
        assert_eq!(Affine(1).mul(Const(8)), Affine(8));
        assert_eq!(Const(8).mul(Affine(1)), Affine(8));
        assert_eq!(Affine(4).add(Uniform), Affine(4));
        assert_eq!(Affine(4).add(Affine(-4)), Uniform);
        assert_eq!(Affine(4).sub(Affine(4)), Uniform);
        assert_eq!(Uniform.sub(Affine(4)), Affine(-4));
        assert_eq!(Affine(1).shl(Const(3)), Affine(8));
        assert_eq!(Affine(1).mul(Uniform), Unknown);
        assert_eq!(Const(2).add(Const(3)), Const(5));
    }

    #[test]
    fn origin_join_and_advance() {
        use Origin::{Body, Bottom, Field, Other};
        assert_eq!(Bottom.join(Body(8)), Body(8));
        assert_eq!(Body(8).join(Body(8)), Body(8));
        assert_eq!(Body(8).join(Body(16)), Other);
        assert_eq!(Field { field: 0 }.join(Field { field: 0 }), Field { field: 0 });
        assert_eq!(Field { field: 0 }.join(Field { field: 8 }), Other);
        assert_eq!(Body(0).advance(Aff::Const(8)), Body(8));
        assert_eq!(Body(0).advance(Aff::Affine(4)), Other);
        assert_eq!(Field { field: 0 }.advance(Aff::Affine(4)), Field { field: 0 });
        assert_eq!(Field { field: 8 }.advance(Aff::Const(12)), Field { field: 8 });
        assert_eq!(Other.advance(Aff::Const(1)), Other);
    }

    #[test]
    fn prov_join_and_pedigree() {
        assert_eq!(Prov::This.join(Prov::This), Prov::This);
        assert_eq!(Prov::This.join(Prov::Shared), Prov::Unknown);
        assert_eq!(Prov::Bottom.join(Prov::Private), Prov::Private);
        assert!(!Prov::NotPtr.is_pointerlike());
        assert!(Prov::Foreign.is_pointerlike());
        assert_eq!(bin_prov(Prov::Shared, Prov::NotPtr), Prov::Shared);
        assert_eq!(bin_prov(Prov::Shared, Prov::Shared), Prov::NotPtr);
    }
}
