//! Linear-scan register allocation over linearized SSA, in two classes.
//!
//! Every value the lowering reads gets one home for its whole life
//! ([`Loc`]): a general register for integers and pointers, an xmm
//! register for `f32`/`f64`, a frame slot when the scan runs out of
//! registers, or nothing at all for constants (materialized at each use),
//! compares their block's branch consumes as flags, unused values and phi
//! webs that only feed other phis.
//!
//! Blocks are laid out in reverse postorder and instruction `k` gets two
//! positions: its operands are read at `2k` and its result is written at
//! `2k + 1`, so a result may take the register of an operand that dies at
//! that instruction. Phis are written at their block's first position, by
//! the parallel move on each incoming edge. Per-block liveness (dense
//! bitsets) widens each value's single `[start, end]` interval across the
//! blocks it is live through; holes are not modeled, so an over-wide
//! interval can only cost a register, never correctness.
//!
//! The scan is the classic Poletto–Sarkar loop: intervals in start order,
//! expire the active set, take a free register of the value's class (the
//! register of a phi partner or of the first operand if one is free), and
//! when none is free send the interval that ends last to its slot. Every
//! xmm register is caller-saved, so a float whose interval strictly
//! contains a call (see [`is_call`]) goes to its slot up front. Allocas
//! stay in slots: they are cheap to reload and their registers are better
//! spent on loop values.
//!
//! [`check`] re-derives exact liveness and asserts the result is a valid
//! assignment; debug builds run it after every allocation.

use crate::asm::{Reg, Xmm};
use concord_ir::inst::{CastOp, Intrinsic};
use concord_ir::types::Type;
use concord_ir::{BlockId, Function, KernelKind, Op, ValueId};

/// General-purpose allocation pool, in preference order. All three are
/// callee-saved, so their values survive calls.
pub(crate) const GPRS: [Reg; 3] = [Reg::Rbx, Reg::R12, Reg::R13];

/// Float allocation pool, in preference order (all caller-saved).
pub(crate) const XMMS: [Xmm; 14] = [
    Xmm::X2,
    Xmm::X3,
    Xmm::X4,
    Xmm::X5,
    Xmm::X6,
    Xmm::X7,
    Xmm::X8,
    Xmm::X9,
    Xmm::X10,
    Xmm::X11,
    Xmm::X12,
    Xmm::X13,
    Xmm::X14,
    Xmm::X15,
];

/// Registers a function pins for its whole life: stack, frame, `CPU_BASE`
/// and the `Env` pointer.
pub(crate) const PINNED: [Reg; 4] = [Reg::Rsp, Reg::Rbp, Reg::R14, Reg::R15];

/// Lowering scratch: caller-saved general registers free at every
/// instruction.
pub(crate) const SCRATCH: [Reg; 6] = [Reg::Rax, Reg::Rcx, Reg::Rdx, Reg::R8, Reg::R9, Reg::R10];

/// Loop state, caller-saved and written back to the environment around
/// every call: `r11` holds the step budget left in every function, and a
/// kernel's chunk keeps its item index in `rdi` and its instruction tally
/// in `rsi`. A call stages its arguments in `rdi`/`rsi` after the
/// write-back.
pub(crate) const LOOP_STATE: [Reg; 3] = [Reg::R11, Reg::Rdi, Reg::Rsi];

/// Float lowering scratch.
pub(crate) const XSCRATCH: [Xmm; 2] = [Xmm::X0, Xmm::X1];

const fn has(set: &[Reg], r: Reg) -> bool {
    let mut i = 0;
    while i < set.len() {
        if set[i] as u8 == r as u8 {
            return true;
        }
        i += 1;
    }
    false
}

const fn disjoint(a: &[Reg], b: &[Reg]) -> bool {
    let mut i = 0;
    while i < a.len() {
        if has(b, a[i]) {
            return false;
        }
        i += 1;
    }
    true
}

const fn xmm_disjoint(a: &[Xmm], b: &[Xmm]) -> bool {
    let mut i = 0;
    while i < a.len() {
        let mut j = 0;
        while j < b.len() {
            if a[i] as u8 == b[j] as u8 {
                return false;
            }
            j += 1;
        }
        i += 1;
    }
    true
}

// Pinned, scratch and loop-state registers never enter a pool; so every
// pooled general register is callee-saved and its values survive calls.
const _: () = assert!(disjoint(&GPRS, &PINNED) && disjoint(&GPRS, &SCRATCH));
const _: () = assert!(disjoint(&GPRS, &LOOP_STATE) && disjoint(&SCRATCH, &LOOP_STATE));
const _: () = assert!(disjoint(&PINNED, &SCRATCH) && disjoint(&PINNED, &LOOP_STATE));
const _: () = assert!(xmm_disjoint(&XMMS, &XSCRATCH));
const _: () = assert!(GPRS.len() <= 32 && XMMS.len() <= 32);

/// Where a value lives for its whole life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Loc {
    /// Never read: unused, or a phi web that only feeds other phis.
    None,
    /// A compare its block's `condbr` consumes as flags.
    Fused,
    /// A constant's raw bits (`f32` already rounded), materialized at
    /// each use.
    Const(i64),
    /// A general register from [`GPRS`].
    Gpr(Reg),
    /// An xmm register from [`XMMS`].
    Xmm(Xmm),
    /// Frame slot `i`.
    Slot(u32),
}

/// The allocation of one function.
#[derive(Debug, Clone)]
pub(crate) struct Allocation {
    /// Home of every value, indexed by value id.
    pub loc: Vec<Loc>,
    /// Reachable blocks in layout (reverse post-) order.
    pub order: Vec<BlockId>,
    /// Frame slots used.
    pub slots: u32,
    /// The entry block's body-field prefix (see [`body_field_prefix`]).
    pub prefix: usize,
}

/// Whether lowering `op` calls out of the function, clobbering every
/// caller-saved register (all of xmm0–15 included). The lowering asserts
/// this at each call it emits.
pub(crate) fn is_call(op: &Op) -> bool {
    use Intrinsic::*;
    match op {
        Op::Call { .. } | Op::CallVirtual { .. } | Op::Cast(CastOp::FpToSi, _) => true,
        Op::IntrinsicCall(i, _) => {
            matches!(i, Floor | Exp | Pow | FMin | FMax | DeviceMalloc | WlPush)
        }
        _ => false,
    }
}

/// Whether a value of this type lives in the xmm class.
pub(crate) fn is_float(ty: Type) -> bool {
    matches!(ty, Type::F32 | Type::F64)
}

/// How many leading instructions of a `ForBody` kernel's entry block load
/// body fields, as `field_promote` leaves them: parameters, constants,
/// `gep param0, const` and loads through those, up to the last such load
/// (0 when there is none, or for any other function). A chunk whose body
/// is invariant runs them for its first item only, so the values they
/// define keep their homes for the whole function.
fn body_field_prefix(f: &Function) -> usize {
    if f.kernel != Some(KernelKind::ForBody) || f.params.is_empty() {
        return 0;
    }
    let body = ValueId(0);
    let field = |p: ValueId| match f.inst(p).op {
        Op::Gep { base, offset } => base == body && matches!(f.inst(offset).op, Op::ConstInt(_)),
        _ => p == body,
    };
    let mut len = 0;
    for (i, &v) in f.block(f.entry()).insts.iter().enumerate() {
        match f.inst(v).op {
            Op::Param(_) | Op::ConstInt(_) | Op::ConstFloat(_) | Op::ConstNull => {}
            Op::Gep { .. } if field(v) => {}
            Op::Load(p) if field(p) => len = i + 1,
            _ => break,
        }
    }
    len
}

/// Whether a value homed at `loc` keeps its contents across a call.
#[cfg(any(test, debug_assertions))]
fn survives_calls(loc: Loc) -> bool {
    match loc {
        Loc::Gpr(r) => has(&GPRS, r),
        Loc::Xmm(_) => false,
        _ => true,
    }
}

/// The successors of `b`, in terminator order.
pub(crate) fn successors(f: &Function, b: BlockId) -> impl Iterator<Item = BlockId> {
    let (s, n) = match f.block(b).insts.last().map(|&t| &f.inst(t).op) {
        Some(Op::Br(t)) => ([*t, *t], 1),
        Some(Op::CondBr(_, t, e)) => ([*t, *e], 2),
        _ => ([BlockId(0); 2], 0),
    };
    s.into_iter().take(n)
}

/// Blocks reachable from the entry, in reverse postorder (successors
/// visited in terminator order).
fn layout(f: &Function) -> Vec<BlockId> {
    let mut seen = vec![false; f.blocks.len()];
    let mut post = Vec::with_capacity(f.blocks.len());
    let mut stack = vec![(f.entry(), 0usize)];
    seen[0] = true;
    while let Some(&mut (b, ref mut i)) = stack.last_mut() {
        match successors(f, b).nth(*i) {
            Some(s) => {
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

/// A constant's raw bits, as the lowering materializes them.
fn const_bits(op: &Op, ty: Type) -> Option<i64> {
    match *op {
        Op::ConstInt(v) => Some(v),
        Op::ConstNull => Some(0),
        Op::ConstFloat(v) => {
            let v = if ty == Type::F32 { v as f32 as f64 } else { v };
            Some(v.to_bits() as i64)
        }
        _ => None,
    }
}

const NONE: u32 = u32::MAX;

/// Dense per-block bitsets over value ids.
struct Sets {
    words: usize,
    bits: Vec<u64>,
}

impl Sets {
    fn new(blocks: usize, values: usize) -> Sets {
        let words = values.div_ceil(64);
        Sets { words, bits: vec![0; blocks * words] }
    }
    fn of(&self, b: BlockId) -> &[u64] {
        &self.bits[b.0 as usize * self.words..][..self.words]
    }
    fn of_mut(&mut self, b: BlockId) -> &mut [u64] {
        &mut self.bits[b.0 as usize * self.words..][..self.words]
    }
    fn insert(&mut self, b: BlockId, v: ValueId) {
        self.of_mut(b)[v.0 as usize / 64] |= 1 << (v.0 % 64);
    }
}

/// Call `f` on every member of a bitset.
fn each_bit(set: &[u64], mut f: impl FnMut(usize)) {
    for (w, &word) in set.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            f(w * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// Allocate registers for `f`.
pub(crate) fn allocate(f: &Function) -> Allocation {
    let order = layout(f);
    let nv = f.insts.len();
    let v_of = |i: usize| ValueId(i as u32);

    // Linear numbering: instruction index of every placed value, and each
    // reachable block's first and last index.
    let mut idx = vec![NONE; nv];
    let mut span = vec![(NONE, NONE); f.blocks.len()];
    let mut k = 0u32;
    for &b in &order {
        let insts = &f.block(b).insts;
        span[b.0 as usize] = (k, k + insts.len().max(1) as u32 - 1);
        for &v in insts {
            idx[v.0 as usize] = k;
            k += 1;
        }
    }
    let reachable = |b: BlockId| span[b.0 as usize].0 != NONE;
    let is_phi = |v: ValueId| matches!(f.inst(v).op, Op::Phi(_));

    // Uses by emitted (non-phi) instructions; then the phis those reach
    // transitively are live, and only live phis' inputs count as uses.
    let mut uses = vec![0u32; nv];
    for &b in &order {
        for &v in &f.block(b).insts {
            if !is_phi(v) {
                f.inst(v).op.for_each_operand(|u| uses[u.0 as usize] += 1);
            }
        }
    }
    let mut live_phi = vec![false; nv];
    let mut stack: Vec<ValueId> = Vec::new();
    for &b in &order {
        for &v in f.block(b).insts.iter().take_while(|&&v| is_phi(v)) {
            if uses[v.0 as usize] > 0 {
                live_phi[v.0 as usize] = true;
                stack.push(v);
            }
        }
    }
    while let Some(p) = stack.pop() {
        let Op::Phi(incoming) = &f.inst(p).op else { unreachable!() };
        for &(_, x) in incoming {
            if idx[x.0 as usize] != NONE && is_phi(x) && !live_phi[x.0 as usize] {
                live_phi[x.0 as usize] = true;
                stack.push(x);
            }
        }
    }
    // Input of each live phi on each reachable edge, and the first phi
    // each value feeds (a register hint).
    let mut feeds = vec![NONE; nv];
    for &b in &order {
        for &p in f.block(b).insts.iter().take_while(|&&v| is_phi(v)) {
            if !live_phi[p.0 as usize] {
                continue;
            }
            let Op::Phi(incoming) = &f.inst(p).op else { unreachable!() };
            for &(pred, x) in incoming {
                if reachable(pred) {
                    uses[x.0 as usize] += 1;
                    if feeds[x.0 as usize] == NONE {
                        feeds[x.0 as usize] = p.0;
                    }
                }
            }
        }
    }

    // Homes that need no register: constants, fused compares, the unused.
    let mut loc = vec![Loc::None; nv];
    let mut homed = vec![false; nv];
    for (i, inst) in f.insts.iter().enumerate() {
        if uses[i] > 0 {
            match const_bits(&inst.op, inst.ty) {
                Some(c) => loc[i] = Loc::Const(c),
                None => homed[i] = true,
            }
        }
    }
    for &b in &order {
        let Some(&t) = f.block(b).insts.last() else { continue };
        if let Op::CondBr(c, ..) = f.inst(t).op {
            let (first, last) = span[b.0 as usize];
            let (ci, k) = (c.0 as usize, idx[c.0 as usize]);
            let compare = matches!(f.inst(c).op, Op::Icmp(..) | Op::Fcmp(..));
            if compare && uses[ci] == 1 && k != NONE && first <= k && k <= last {
                loc[ci] = Loc::Fused;
                homed[ci] = false;
            }
        }
    }

    // Block liveness of homed values: in = gen | (out & !kill), out =
    // phi inputs from this block | the successors' ins.
    let (mut gen, mut kill, mut phi_out) = (
        Sets::new(f.blocks.len(), nv),
        Sets::new(f.blocks.len(), nv),
        Sets::new(f.blocks.len(), nv),
    );
    for &b in &order {
        let (first, last) = span[b.0 as usize];
        for &v in &f.block(b).insts {
            kill.insert(b, v);
            if is_phi(v) {
                if live_phi[v.0 as usize] {
                    let Op::Phi(incoming) = &f.inst(v).op else { unreachable!() };
                    for &(pred, x) in incoming {
                        if reachable(pred) && homed[x.0 as usize] {
                            phi_out.insert(pred, x);
                        }
                    }
                }
                continue;
            }
            f.inst(v).op.for_each_operand(|u| {
                let ku = idx[u.0 as usize];
                if homed[u.0 as usize] && !(first <= ku && ku <= last) {
                    gen.insert(b, u);
                }
            });
        }
    }
    let mut live_in = Sets::new(f.blocks.len(), nv);
    let mut live_out = Sets::new(f.blocks.len(), nv);
    let mut out = vec![0u64; live_in.words];
    let mut changed = true;
    while changed {
        changed = false;
        for &b in order.iter().rev() {
            out.copy_from_slice(phi_out.of(b));
            for s in successors(f, b) {
                for (o, &i) in out.iter_mut().zip(live_in.of(s)) {
                    *o |= i;
                }
            }
            if out != live_out.of(b) {
                live_out.of_mut(b).copy_from_slice(&out);
                changed = true;
            }
            let (g, kl) = (gen.of(b), kill.of(b));
            let inn = live_in.of_mut(b);
            for w in 0..out.len() {
                let v = g[w] | (out[w] & !kl[w]);
                if v != inn[w] {
                    inn[w] = v;
                    changed = true;
                }
            }
        }
    }

    // One interval per homed value, and the calls in position order.
    let mut start = vec![u32::MAX; nv];
    let mut end = vec![0u32; nv];
    let mut widen = |i: usize, at: u32| {
        start[i] = start[i].min(at);
        end[i] = end[i].max(at);
    };
    let mut calls: Vec<u32> = Vec::new();
    for &b in &order {
        let (first, last) = span[b.0 as usize];
        each_bit(live_in.of(b), |i| widen(i, 2 * first));
        each_bit(live_out.of(b), |i| widen(i, 2 * last + 1));
        for &v in &f.block(b).insts {
            let (i, k) = (v.0 as usize, idx[v.0 as usize]);
            let op = &f.inst(v).op;
            if homed[i] {
                let def = match op {
                    Op::Phi(_) => 2 * first,
                    Op::Param(_) => 0,
                    _ => 2 * k + 1,
                };
                widen(i, def);
            }
            if matches!(op, Op::Phi(_)) {
                continue;
            }
            if is_call(op) {
                calls.push(k);
            }
            let at = if loc[i] == Loc::Fused { 2 * last } else { 2 * k };
            op.for_each_operand(|u| {
                if homed[u.0 as usize] {
                    widen(u.0 as usize, at);
                }
            });
        }
    }
    // A chunk's later items skip the body-field prefix, so what it
    // defines and later code reads keeps its home for the whole function.
    let prefix = body_field_prefix(f);
    let last = 2 * k.max(1) - 1;
    for &v in &f.block(f.entry()).insts[..prefix] {
        let i = v.0 as usize;
        if homed[i] && end[i] >= 2 * prefix as u32 {
            (start[i], end[i]) = (0, last);
        }
    }
    // The value is live both before and after some call at `2k..2k+1`.
    let crosses_call = |s: u32, e: u32| {
        let i = calls.partition_point(|&k| 2 * k < s);
        i < calls.len() && 2 * calls[i] < e
    };

    let mut intervals: Vec<(u32, u32, u32)> = (0..nv)
        .filter(|&i| homed[i] && !matches!(f.inst(v_of(i)).op, Op::Alloca { .. }))
        .map(|i| (start[i], end[i], i as u32))
        .collect();
    intervals.sort_unstable();

    // The scan. `reg[i]` indexes the value's class pool.
    const NOREG: u8 = u8::MAX;
    let mut reg = vec![NOREG; nv];
    let mut active: [Vec<(u32, u32, u8)>; 2] = [Vec::new(), Vec::new()]; // (end, value, reg)
    let mut free: [u32; 2] = [(1 << GPRS.len()) - 1, (1 << XMMS.len()) - 1];
    for (s, e, v) in intervals {
        let vi = v as usize;
        let class = usize::from(is_float(f.inst(v_of(vi)).ty));
        active[class].retain(|&(aend, _, r)| {
            if aend < s {
                free[class] |= 1 << r;
            }
            aend >= s
        });
        let allowed = if class == 1 && crosses_call(s, e) {
            0
        } else {
            [(1u32 << GPRS.len()) - 1, (1 << XMMS.len()) - 1][class]
        };
        let avail = free[class] & allowed;
        if avail != 0 {
            // A phi partner's register, else the first operand's, else the
            // lowest free one.
            let op = &f.inst(v_of(vi)).op;
            let partner = match op {
                Op::Phi(incoming) => incoming
                    .iter()
                    .map(|&(_, x)| reg[x.0 as usize])
                    .find(|&r| r != NOREG && avail & (1 << r) != 0),
                _ => Some(feeds[vi]).filter(|&p| p != NONE).map(|p| reg[p as usize]),
            };
            let first_operand = match *op {
                Op::Bin(_, l, _) | Op::Gep { base: l, .. } | Op::Cast(_, l)
                    if is_float(f.inst(l).ty) == (class == 1) =>
                {
                    Some(reg[l.0 as usize])
                }
                _ => None,
            };
            let r = [partner, first_operand]
                .into_iter()
                .flatten()
                .find(|&r| r != NOREG && avail & (1 << r) != 0)
                .unwrap_or(avail.trailing_zeros() as u8);
            free[class] &= !(1 << r);
            reg[vi] = r;
            active[class].push((e, v, r));
        } else if allowed != 0 {
            // Poletto–Sarkar: whichever of this interval and the active ones
            // ends last goes to its slot.
            let victim = active[class]
                .iter()
                .enumerate()
                .max_by_key(|(_, &(aend, av, _))| (aend, av))
                .map(|(j, &a)| (j, a));
            if let Some((j, (aend, av, r))) = victim {
                if aend > e {
                    reg[av as usize] = NOREG;
                    reg[vi] = r;
                    active[class][j] = (e, v, r);
                }
            }
        }
    }

    let mut slots = 0u32;
    for i in 0..nv {
        if homed[i] {
            loc[i] = match (reg[i], is_float(f.inst(v_of(i)).ty)) {
                (NOREG, _) => {
                    slots += 1;
                    Loc::Slot(slots - 1)
                }
                (r, false) => Loc::Gpr(GPRS[r as usize]),
                (r, true) => Loc::Xmm(XMMS[r as usize]),
            };
        }
    }
    let alloc = Allocation { loc, order, slots, prefix };
    #[cfg(debug_assertions)]
    check(f, &alloc);
    alloc
}

/// Assert that `alloc` is a valid assignment for `f`, against liveness
/// recomputed exactly (per program point, not per interval):
///
/// * every operand an emitted instruction reads has a home; a [`Loc::Fused`]
///   compare is read only by its own block's `condbr`, and a phi without a
///   home by no live phi;
/// * frame slots are distinct;
/// * no two simultaneously live values share a register (checked where
///   each one is defined; phis at their block's entry, all at once);
/// * no value in an xmm or caller-saved register is live across a call.
///
/// # Panics
///
/// On the first violation.
#[cfg(any(test, debug_assertions))]
pub(crate) fn check(f: &Function, alloc: &Allocation) {
    use std::collections::BTreeSet;
    let loc = &alloc.loc;
    let at = |v: ValueId| loc[v.0 as usize];
    let mut reachable = vec![false; f.blocks.len()];
    for &b in &alloc.order {
        reachable[b.0 as usize] = true;
    }
    let readable = |v: ValueId| !matches!(at(v), Loc::None | Loc::Fused);
    let mut slots = BTreeSet::new();
    for (i, l) in loc.iter().enumerate() {
        if let Loc::Slot(s) = *l {
            assert!(s < alloc.slots && slots.insert(s), "slot {s} of %{i} reused or out of range");
        }
    }
    for &b in &alloc.order {
        let insts = &f.block(b).insts;
        for &v in insts {
            match &f.inst(v).op {
                Op::Phi(incoming) if at(v) != Loc::None => {
                    for &(pred, x) in incoming {
                        assert!(!reachable[pred.0 as usize] || readable(x), "phi {v} input {x}");
                    }
                }
                Op::Phi(_) => {}
                Op::CondBr(c, ..) if at(*c) == Loc::Fused => {}
                op if at(v) != Loc::Fused => {
                    op.for_each_operand(|u| {
                        assert!(readable(u), "{v} reads {u}, which has no home")
                    });
                }
                op => {
                    let term = &f.inst(*insts.last().expect("placed")).op;
                    assert!(
                        matches!(op, Op::Icmp(..) | Op::Fcmp(..))
                            && matches!(term, Op::CondBr(c, ..) if *c == v),
                        "{v} is fused but is not its block's branch condition"
                    );
                    op.for_each_operand(|u| assert!(readable(u), "{v} reads {u}"));
                }
            }
        }
    }

    // Values read at instruction `v` (a fused compare's operands are read
    // by its branch).
    let reads = |v: ValueId, out: &mut Vec<ValueId>| match &f.inst(v).op {
        _ if at(v) == Loc::Fused => {}
        Op::CondBr(c, ..) if at(*c) == Loc::Fused => {
            f.inst(*c).op.for_each_operand(|u| out.push(u))
        }
        op => op.for_each_operand(|u| out.push(u)),
    };
    let in_reg = |v: ValueId| matches!(at(v), Loc::Gpr(_) | Loc::Xmm(_));
    // Backward transfer of one block, asserting at every definition.
    let transfer = |b: BlockId, mut live: BTreeSet<ValueId>| {
        let insts = &f.block(b).insts;
        let nphi = insts.iter().take_while(|&&v| matches!(f.inst(v).op, Op::Phi(_))).count();
        let mut read = Vec::new();
        for &v in insts[nphi..].iter().rev() {
            if in_reg(v) {
                let clash = live.iter().find(|&&w| w != v && at(w) == at(v));
                assert!(clash.is_none(), "{v} and {:?} share {:?}", clash, at(v));
            }
            live.remove(&v);
            if is_call(&f.inst(v).op) {
                for &w in &live {
                    assert!(survives_calls(at(w)), "{w} in {:?} is live across call {v}", at(w));
                }
            }
            read.clear();
            reads(v, &mut read);
            live.extend(read.iter().copied().filter(|&u| in_reg(u)));
        }
        let phis: Vec<ValueId> = insts[..nphi].iter().copied().filter(|&p| in_reg(p)).collect();
        for &p in &phis {
            let clash = live.iter().chain(&phis).find(|&&w| w != p && at(w) == at(p));
            assert!(clash.is_none(), "phi {p} and {:?} share {:?}", clash, at(p));
        }
        for p in &phis {
            live.remove(p);
        }
        live
    };
    let mut live_in: Vec<BTreeSet<ValueId>> = vec![BTreeSet::new(); f.blocks.len()];
    let mut changed = true;
    while changed {
        changed = false;
        for &b in alloc.order.iter().rev() {
            let mut out = BTreeSet::new();
            for s in successors(f, b) {
                out.extend(live_in[s.0 as usize].iter().copied());
                for &p in &f.block(s).insts {
                    let Op::Phi(incoming) = &f.inst(p).op else { break };
                    if at(p) != Loc::None {
                        let x = incoming.iter().find(|(pred, _)| *pred == b).map(|&(_, x)| x);
                        out.extend(x.filter(|&x| in_reg(x)));
                    }
                }
            }
            let inn = transfer(b, out);
            if inn != live_in[b.0 as usize] {
                live_in[b.0 as usize] = inn;
                changed = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testgen;
    use concord_ir::builder::FunctionBuilder;
    use concord_ir::inst::{BinOp, ICmp};
    use proptest::prelude::*;

    fn is_reg(l: Loc) -> bool {
        matches!(l, Loc::Gpr(_) | Loc::Xmm(_))
    }

    #[test]
    fn floats_get_xmm_registers_and_ints_general_ones() {
        let mut fb = FunctionBuilder::new("t", vec![Type::I64, Type::F64], Type::I64);
        let a = fb.param(0);
        let x = fb.param(1);
        let one = fb.i64(1);
        let s1 = fb.bin(BinOp::Add, a, one);
        let s2 = fb.bin(BinOp::Add, s1, a);
        let x2 = fb.bin(BinOp::FAdd, x, x);
        let x3 = fb.bin(BinOp::FMul, x2, x);
        let back = fb.cast(CastOp::FpToSi, x3, Type::I64);
        let s3 = fb.bin(BinOp::Add, s2, back);
        fb.ret(Some(s3));
        let f = fb.build();
        let alloc = allocate(&f);
        assert!(matches!(alloc.loc[a.0 as usize], Loc::Gpr(_)));
        assert!(matches!(alloc.loc[x.0 as usize], Loc::Xmm(_)));
        assert!(matches!(alloc.loc[x2.0 as usize], Loc::Xmm(_)));
        assert_eq!(alloc.loc[one.0 as usize], Loc::Const(1), "constants get no home");
        assert_eq!(alloc.slots, 0);
    }

    #[test]
    fn the_interval_that_ends_last_is_spilled() {
        // `long` is live from the top to the bottom while four short
        // chains each need a register: with three, `long` goes to a slot
        // and every short value keeps one.
        let mut fb = FunctionBuilder::new("t", vec![Type::I64], Type::I64);
        let long = fb.param(0);
        let mut short = Vec::new();
        for i in 0..3 {
            let c = fb.i64(i + 2);
            short.push(fb.bin(BinOp::Mul, long, c));
        }
        let s01 = fb.bin(BinOp::Add, short[0], short[1]);
        let s = fb.bin(BinOp::Add, s01, short[2]);
        let r = fb.bin(BinOp::Add, s, long);
        fb.ret(Some(r));
        let f = fb.build();
        let alloc = allocate(&f);
        assert!(matches!(alloc.loc[long.0 as usize], Loc::Slot(_)), "{:?}", alloc.loc);
        for v in short.iter().chain([&s01, &s, &r]) {
            assert!(is_reg(alloc.loc[v.0 as usize]), "{v}: {:?}", alloc.loc[v.0 as usize]);
        }
    }

    #[test]
    fn a_float_live_across_a_call_goes_to_its_slot() {
        let mut fb = FunctionBuilder::new("t", vec![Type::F64, Type::F64], Type::F64);
        let (x, y) = (fb.param(0), fb.param(1));
        let fl = fb.intrinsic(Intrinsic::Floor, vec![x], Type::F64);
        let s = fb.bin(BinOp::FAdd, fl, y);
        fb.ret(Some(s));
        let f = fb.build();
        let alloc = allocate(&f);
        // `x` dies at the call and `fl` is born after it; only `y` spans it.
        assert!(matches!(alloc.loc[x.0 as usize], Loc::Xmm(_)));
        assert!(matches!(alloc.loc[fl.0 as usize], Loc::Xmm(_)));
        assert!(matches!(alloc.loc[y.0 as usize], Loc::Slot(_)));
    }

    /// `for (i = 0; i < n; i++) acc += i`, returning `acc`, with a dead
    /// phi web `d` that only feeds itself.
    fn counting_loop() -> (Function, [ValueId; 5], ValueId) {
        let mut fb = FunctionBuilder::new("t", vec![Type::I64], Type::I64);
        let n = fb.param(0);
        let entry = fb.current_block();
        let zero = fb.i64(0);
        let head = fb.new_block();
        let body = fb.new_block();
        let exit = fb.new_block();
        fb.br(head);
        fb.switch_to(head);
        let i = fb.phi(Type::I64, vec![]);
        let acc = fb.phi(Type::I64, vec![]);
        let d = fb.phi(Type::I64, vec![]);
        let c = fb.icmp(ICmp::Slt, i, n);
        fb.cond_br(c, body, exit);
        fb.switch_to(body);
        let acc2 = fb.bin(BinOp::Add, acc, i);
        let one = fb.i64(1);
        let i2 = fb.bin(BinOp::Add, i, one);
        fb.br(head);
        fb.switch_to(exit);
        fb.ret(Some(acc));
        let mut f = fb.build();
        f.inst_mut(i).op = Op::Phi(vec![(entry, zero), (body, i2)]);
        f.inst_mut(acc).op = Op::Phi(vec![(entry, zero), (body, acc2)]);
        f.inst_mut(d).op = Op::Phi(vec![(entry, zero), (body, d)]);
        (f, [i, i2, acc, acc2, d], c)
    }

    #[test]
    fn loop_phis_share_registers_and_dead_webs_get_none() {
        let (f, [i, i2, acc, acc2, d], c) = counting_loop();
        let alloc = allocate(&f);
        let at = |v: ValueId| alloc.loc[v.0 as usize];
        assert!(is_reg(at(i)) && at(i) == at(i2), "{:?} {:?}", at(i), at(i2));
        assert!(is_reg(at(acc)) && at(acc) == at(acc2), "{:?} {:?}", at(acc), at(acc2));
        assert_eq!(at(d), Loc::None, "a phi that only feeds itself is dead");
        assert_eq!(at(c), Loc::Fused, "a one-use compare feeding its branch is fused");
    }

    #[test]
    #[should_panic(expected = "share")]
    fn the_checker_rejects_overlapping_values_in_one_register() {
        let (f, [i, _, acc, ..], _) = counting_loop();
        let mut alloc = allocate(&f);
        alloc.loc[acc.0 as usize] = alloc.loc[i.0 as usize];
        check(&f, &alloc);
    }

    #[test]
    #[should_panic(expected = "live across call")]
    fn the_checker_rejects_an_xmm_value_across_a_call() {
        let mut fb = FunctionBuilder::new("t", vec![Type::F64, Type::F64], Type::F64);
        let (x, y) = (fb.param(0), fb.param(1));
        let fl = fb.intrinsic(Intrinsic::Floor, vec![x], Type::F64);
        let s = fb.bin(BinOp::FAdd, fl, y);
        fb.ret(Some(s));
        let f = fb.build();
        let mut alloc = allocate(&f);
        alloc.loc[y.0 as usize] = Loc::Xmm(Xmm::X15);
        check(&f, &alloc);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]
        #[test]
        fn generated_functions_allocate_validly(seed in any::<u64>()) {
            let module = testgen::module(seed);
            for f in &module.functions {
                concord_ir::verify::verify_function(f).unwrap();
                let alloc = allocate(f);
                check(f, &alloc);
                let in_regs = alloc.loc.iter().filter(|l| is_reg(**l)).count();
                prop_assert!(in_regs > 0, "seed {seed}: nothing in a register");
            }
        }
    }
}
