//! The id-linear element: how a value moves with the work-item id.
//!
//! Every abstract value of the analyzer ([`crate::affinity::AbsVal`]) is a
//! root plus one [`Rng`]. An element `Lin { stride, lo, hi, invariant }`
//! stands for every value `root + stride * id + c` with `c` in the
//! inclusive interval `[lo, hi]`. For data the root is zero and the
//! element describes the value itself; for a pointer it describes the
//! byte offset from the operand the pointer is rooted at, which is
//! exactly the per-item footprint a launch scheduler needs (the
//! access-mode-declaration line of work, Henrio/Kessler/Li, keys fence
//! elision on declared byte ranges, and this pass *infers* them).
//! `invariant` says that the id-independent part (`root + c`) is the same
//! in every work item, which the interval alone cannot say.
//!
//! The lints, the access summary and CA108/CA109 read projections of the
//! element: [`Rng::id_stride`] (a constant, uniform or affine address, or
//! none of these), [`Rng::as_const`], and [`RangeFootprint::from_rng`].
//!
//! The interval bounds live on `i64` with [`NEG_INF`]/[`POS_INF`] as
//! sentinels that absorb: an infinite bound stays infinite under every
//! transfer with a finite operand, and a finite result that overflows
//! saturates to the infinity it passed. Joins of equal-stride elements
//! take the interval hull; unequal strides collapse to [`Rng::Top`].
//! Loops grow bounds unboundedly (`i = i + 1`), so the fixpoint applies
//! [`Rng::widen`] after a few iterations: a bound that is still growing
//! jumps straight to its infinity, which caps every value's chain at
//! `Bottom -> Lin` (each bound widens once, invariance is lost once)
//! `-> Top` and guarantees termination regardless of loop structure.

use crate::access::AccessMode;

/// Negative-infinity sentinel for interval bounds (absorbing).
pub const NEG_INF: i64 = i64::MIN;
/// Positive-infinity sentinel for interval bounds (absorbing).
pub const POS_INF: i64 = i64::MAX;

/// A value as a linear function of the work-item id, relative to its root.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rng {
    /// Optimistic initial state: no executions seen yet.
    Bottom,
    /// `root + stride * id + c` for some `c` in `[lo, hi]` (inclusive).
    Lin {
        /// Per-id coefficient (bytes, for an address).
        stride: i64,
        /// Inclusive lower bound of the id-independent part.
        lo: i64,
        /// Inclusive upper bound of the id-independent part.
        hi: i64,
        /// `root + c` is the same in every work item.
        invariant: bool,
    },
    /// No provable relation to the work-item id.
    Top,
}

// The arithmetic methods are abstract transfer functions, not the std
// ops traits: they are total on the lattice (saturating, never
// panicking) and deliberately share names with the IR opcodes they
// model rather than with `std::ops`.
#[allow(clippy::should_implement_trait)]
impl Rng {
    /// The exact value zero.
    pub const ZERO: Rng = Rng::constant(0);
    /// The work-item id itself.
    pub const ID: Rng = Rng::Lin { stride: 1, lo: 0, hi: 0, invariant: true };
    /// The same (unknown) value in every work item.
    pub const UNIFORM: Rng = Rng::Lin { stride: 0, lo: NEG_INF, hi: POS_INF, invariant: true };

    /// The exact constant `k`.
    #[must_use]
    pub const fn constant(k: i64) -> Rng {
        Rng::Lin { stride: 0, lo: k, hi: k, invariant: true }
    }

    /// Partial order: `Bottom` below everything, `Top` above everything,
    /// same-stride elements ordered by interval inclusion, an invariant
    /// element below its varying twin.
    #[must_use]
    pub fn leq(self, o: Rng) -> bool {
        match (self, o) {
            (Rng::Bottom, _) | (_, Rng::Top) => true,
            (_, Rng::Bottom) | (Rng::Top, _) => false,
            (
                Rng::Lin { stride: s1, lo: l1, hi: h1, invariant: i1 },
                Rng::Lin { stride: s2, lo: l2, hi: h2, invariant: i2 },
            ) => s1 == s2 && l2 <= l1 && h1 <= h2 && (i1 || !i2),
        }
    }

    /// Least upper bound: interval hull for equal strides, else `Top`.
    #[must_use]
    pub fn join(self, o: Rng) -> Rng {
        match (self, o) {
            (Rng::Bottom, x) | (x, Rng::Bottom) => x,
            (
                Rng::Lin { stride: s1, lo: l1, hi: h1, invariant: i1 },
                Rng::Lin { stride: s2, lo: l2, hi: h2, invariant: i2 },
            ) if s1 == s2 => {
                Rng::Lin { stride: s1, lo: l1.min(l2), hi: h1.max(h2), invariant: i1 && i2 }
            }
            _ => Rng::Top,
        }
    }

    /// Widening: like [`Rng::join`], but a bound that grew past `self`'s
    /// jumps to its infinity. `widen(a, a.join(b))` is an upper bound of
    /// both, and iterating it stabilizes after a bounded number of steps
    /// per value, which is what makes the fixpoint terminate on loops.
    #[must_use]
    pub fn widen(self, next: Rng) -> Rng {
        match (self, next) {
            // `next` is an upper bound of `self` in the fixpoint, so a
            // `Bottom` next only pairs with a `Bottom` self.
            (Rng::Bottom, x) | (x, Rng::Bottom) => x,
            (
                Rng::Lin { stride: s1, lo: l1, hi: h1, .. },
                Rng::Lin { stride: s2, lo: l2, hi: h2, invariant },
            ) if s1 == s2 => Rng::Lin {
                stride: s1,
                lo: if l2 < l1 { NEG_INF } else { l2 },
                hi: if h2 > h1 { POS_INF } else { h2 },
                invariant,
            },
            _ => Rng::Top,
        }
    }

    /// Abstract addition.
    #[must_use]
    pub fn add(self, o: Rng) -> Rng {
        match (self, o) {
            (Rng::Bottom, _) | (_, Rng::Bottom) => Rng::Bottom,
            (
                Rng::Lin { stride: s1, lo: l1, hi: h1, invariant: i1 },
                Rng::Lin { stride: s2, lo: l2, hi: h2, invariant: i2 },
            ) => match s1.checked_add(s2) {
                Some(stride) => Rng::Lin {
                    stride,
                    lo: add_bound(l1, l2),
                    hi: add_bound(h1, h2),
                    invariant: i1 && i2,
                },
                None => Rng::Top,
            },
            _ => Rng::Top,
        }
    }

    /// Abstract negation.
    #[must_use]
    pub fn neg(self) -> Rng {
        match self {
            Rng::Lin { stride, lo, hi, invariant } => match stride.checked_neg() {
                Some(s) => Rng::Lin { stride: s, lo: neg_bound(hi), hi: neg_bound(lo), invariant },
                None => Rng::Top,
            },
            other => other,
        }
    }

    /// Abstract subtraction.
    #[must_use]
    pub fn sub(self, o: Rng) -> Rng {
        self.add(o.neg())
    }

    /// Abstract multiplication. Precise when either side is a singleton
    /// constant (scaling; a zero factor gives zero whatever the other
    /// side) or both are id-independent intervals; any other combination
    /// has no single-stride representation.
    #[must_use]
    pub fn mul(self, o: Rng) -> Rng {
        if self == Rng::Bottom || o == Rng::Bottom {
            return Rng::Bottom;
        }
        if let Some(k) = o.as_const() {
            return self.scale(k);
        }
        if let Some(k) = self.as_const() {
            return o.scale(k);
        }
        match (self, o) {
            (
                Rng::Lin { stride: 0, lo: l1, hi: h1, invariant: i1 },
                Rng::Lin { stride: 0, lo: l2, hi: h2, invariant: i2 },
            ) => {
                let p =
                    [mul_bound(l1, l2), mul_bound(l1, h2), mul_bound(h1, l2), mul_bound(h1, h2)];
                Rng::Lin {
                    stride: 0,
                    lo: p.into_iter().min().unwrap_or(NEG_INF),
                    hi: p.into_iter().max().unwrap_or(POS_INF),
                    invariant: i1 && i2,
                }
            }
            _ => Rng::Top,
        }
    }

    /// Abstract left shift: a singleton shift scales, anything else is
    /// [`Rng::opaque`].
    #[must_use]
    pub fn shl(self, o: Rng) -> Rng {
        match (self, o) {
            (Rng::Bottom, _) | (_, Rng::Bottom) => Rng::Bottom,
            _ => match o.as_const() {
                Some(k) if (0..63).contains(&k) => self.scale(1i64 << k),
                _ => Rng::opaque([self, o]),
            },
        }
    }

    /// Scale every concretization by `k`.
    #[must_use]
    fn scale(self, k: i64) -> Rng {
        match self {
            Rng::Bottom => Rng::Bottom,
            _ if k == 0 => Rng::ZERO,
            Rng::Top => Rng::Top,
            Rng::Lin { stride, lo, hi, invariant } => match stride.checked_mul(k) {
                Some(s) => {
                    let (a, b) = (mul_bound(lo, k), mul_bound(hi, k));
                    Rng::Lin { stride: s, lo: a.min(b), hi: a.max(b), invariant }
                }
                None => Rng::Top,
            },
        }
    }

    /// The result of an operation with no linear transfer: the same in
    /// every work item when every input is ([`Rng::UNIFORM`]), else
    /// [`Rng::Top`].
    #[must_use]
    pub fn opaque(inputs: impl IntoIterator<Item = Rng>) -> Rng {
        if inputs.into_iter().all(Rng::is_uniform) {
            Rng::UNIFORM
        } else {
            Rng::Top
        }
    }

    /// Keep how the value moves with the id, forget where it lies: the
    /// element of a value whose offset from its root is unknown.
    #[must_use]
    pub fn unbounded(self) -> Rng {
        match self {
            Rng::Lin { stride, invariant, .. } => {
                Rng::Lin { stride, lo: NEG_INF, hi: POS_INF, invariant }
            }
            other => other,
        }
    }

    /// The same element with its invariance dropped: the value is chosen
    /// per work item.
    #[must_use]
    pub fn varying(self) -> Rng {
        match self {
            Rng::Lin { stride, lo, hi, .. } => Rng::Lin { stride, lo, hi, invariant: false },
            other => other,
        }
    }

    /// The singleton constant this element denotes, if any.
    #[must_use]
    pub fn as_const(self) -> Option<i64> {
        match self {
            Rng::Lin { stride: 0, lo, hi, .. } if lo == hi => Some(lo),
            _ => None,
        }
    }

    /// The value is `stride * id` plus a part that is the same in every
    /// work item: `Some(stride)`, with `Some(0)` for a work-item-uniform
    /// value (and for `Bottom`, which only labels unreached code); `None`
    /// when the value has no provable relation to the id.
    #[must_use]
    pub fn id_stride(self) -> Option<i64> {
        match self {
            Rng::Bottom => Some(0),
            Rng::Lin { stride, invariant: true, .. } => Some(stride),
            Rng::Lin { .. } | Rng::Top => None,
        }
    }

    /// Whether the value is provably identical across work items.
    #[must_use]
    pub fn is_uniform(self) -> bool {
        self.id_stride() == Some(0)
    }

    /// Whether `value` at work-item `id` is covered by this element's
    /// interval, relative to a zero root (concretization membership — the
    /// soundness oracle for proptests).
    #[must_use]
    pub fn contains(self, id: i64, value: i64) -> bool {
        match self {
            Rng::Bottom => false,
            Rng::Top => true,
            Rng::Lin { stride, lo, hi, .. } => {
                let c = i128::from(value) - i128::from(stride) * i128::from(id);
                let lo = if lo == NEG_INF { i128::MIN } else { i128::from(lo) };
                let hi = if hi == POS_INF { i128::MAX } else { i128::from(hi) };
                lo <= c && c <= hi
            }
        }
    }
}

fn is_inf(b: i64) -> bool {
    b == NEG_INF || b == POS_INF
}

/// `a + b` on interval bounds: an infinite operand absorbs, and a finite
/// sum that overflows saturates to the infinity it passed.
fn add_bound(a: i64, b: i64) -> i64 {
    match (is_inf(a), is_inf(b)) {
        (true, _) => a,
        (_, true) => b,
        _ => a.saturating_add(b),
    }
}

fn neg_bound(a: i64) -> i64 {
    match a {
        NEG_INF => POS_INF,
        POS_INF => NEG_INF,
        a => -a,
    }
}

/// `a * b` on interval bounds: a zero factor gives zero (a bound stands
/// for a finite value), an infinite operand absorbs with the product's
/// sign, and a finite product that overflows saturates to that infinity.
fn mul_bound(a: i64, b: i64) -> i64 {
    if a == 0 || b == 0 {
        0
    } else if is_inf(a) || is_inf(b) {
        if (a < 0) == (b < 0) {
            POS_INF
        } else {
            NEG_INF
        }
    } else {
        a.saturating_mul(b)
    }
}

/// The per-item byte footprint of one summarized access: work item `id`
/// touches `[stride * id + lo, stride * id + hi)` relative to the access
/// base. This is the range-granular replacement for the launch graph's
/// block-granular spans: the runtime instantiates it with the live base
/// pointer and the launch's grid size to get a concrete byte interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RangeFootprint {
    /// Inclusive byte-offset start at id 0.
    pub lo: i64,
    /// Exclusive byte-offset end at id 0 (access width folded in).
    pub hi: i64,
    /// Per-id byte stride.
    pub stride: i64,
    /// How the bytes are used.
    pub mode: AccessMode,
}

impl RangeFootprint {
    /// Build from a bounded element plus the access width; `None` when
    /// the element is unbounded (the caller falls back to the whole
    /// backing allocation).
    #[must_use]
    pub fn from_rng(rng: Rng, width: u64, mode: AccessMode) -> Option<RangeFootprint> {
        match rng {
            Rng::Lin { stride, lo, hi, .. } => {
                if is_inf(lo) || is_inf(hi) || hi < lo {
                    return None;
                }
                let hi = hi.checked_add(i64::try_from(width).ok()?)?;
                Some(RangeFootprint { lo, hi, stride, mode })
            }
            Rng::Bottom | Rng::Top => None,
        }
    }

    /// The concrete byte interval a launch of `n` items touches,
    /// relative to the base pointer: the union of every item's
    /// `[stride * id + lo, stride * id + hi)` for `id` in `[0, n)`.
    #[must_use]
    pub fn launch_span(&self, n: u64) -> (i64, i64) {
        let last = i64::try_from(n.saturating_sub(1)).unwrap_or(i64::MAX);
        let swing = self.stride.saturating_mul(last);
        (self.lo.saturating_add(swing.min(0)), self.hi.saturating_add(swing.max(0)))
    }

    /// Whether some work item's bytes under `self` can overlap a
    /// *different* item's bytes under `other` (same base assumed). This
    /// is the cross-item hazard test: items `i != j` collide iff
    /// `stride * (i - j)` lands strictly inside the open interval
    /// `(other.lo - self.hi, other.hi - self.lo)` — for equal strides a
    /// nonzero multiple of the stride in that window, for unequal
    /// strides conservatively assumed.
    #[must_use]
    pub fn may_alias_cross_item(&self, other: &RangeFootprint) -> bool {
        if self.stride != other.stride {
            return true;
        }
        let s = self.stride;
        let a = i128::from(other.lo) - i128::from(self.hi);
        let b = i128::from(other.hi) - i128::from(self.lo);
        if s == 0 {
            // Every item uses the same interval on both sides: distinct
            // items collide exactly when the intervals overlap.
            return self.lo < other.hi && other.lo < self.hi;
        }
        nonzero_multiple_in(s, a, b)
    }

    /// The per-item interval's width in bytes (`i128`: finite bounds may
    /// still be further apart than `i64` spans).
    #[must_use]
    pub fn width(&self) -> i128 {
        i128::from(self.hi) - i128::from(self.lo)
    }

    /// Whether the per-item intervals of this footprint are pairwise
    /// disjoint across work items (injective-in-id): a nonzero stride at
    /// least as wide as the per-item interval.
    #[must_use]
    pub fn injective_per_item(&self) -> bool {
        self.stride != 0 && self.width() <= i128::from(self.stride.unsigned_abs())
    }
}

/// Is there a nonzero `k` with `a < k * s < b`? (`s != 0`.)
fn nonzero_multiple_in(s: i64, a: i128, b: i128) -> bool {
    let s = i128::from(s.unsigned_abs());
    if a >= b {
        return false;
    }
    // Smallest multiple of s strictly greater than a.
    let m = (a.div_euclid(s) + 1) * s;
    if m == 0 {
        // k = 0 is excluded; try the neighbors on either side.
        s < b || a < -s
    } else {
        m < b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const fn lin(stride: i64, lo: i64, hi: i64) -> Rng {
        Rng::Lin { stride, lo, hi, invariant: true }
    }

    #[test]
    fn join_hull_and_collapse() {
        assert_eq!(Rng::Bottom.join(lin(4, 0, 0)), lin(4, 0, 0));
        assert_eq!(lin(4, 0, 0).join(lin(4, 8, 8)), lin(4, 0, 8));
        assert_eq!(lin(4, 0, 0).join(lin(8, 0, 0)), Rng::Top);
        assert_eq!(Rng::Top.join(Rng::Bottom), Rng::Top);
        assert_eq!(lin(4, 0, 0).join(lin(4, 0, 0).varying()), lin(4, 0, 0).varying());
    }

    #[test]
    fn widen_blows_growing_bounds() {
        assert_eq!(lin(0, 0, 0).widen(lin(0, 0, 1)), lin(0, 0, POS_INF));
        assert_eq!(lin(0, 0, 0).widen(lin(0, -1, 0)), lin(0, NEG_INF, 0));
        assert_eq!(lin(0, 0, 4).widen(lin(0, 0, 4)), lin(0, 0, 4));
        assert_eq!(lin(4, 0, 0).widen(lin(8, 0, 0)), Rng::Top);
    }

    #[test]
    fn arithmetic() {
        assert_eq!(Rng::ID.mul(Rng::constant(4)), lin(4, 0, 0));
        assert_eq!(Rng::constant(4).mul(Rng::ID), lin(4, 0, 0));
        assert_eq!(lin(4, 0, 0).add(Rng::constant(8)), lin(4, 8, 8));
        assert_eq!(lin(4, 8, 8).sub(Rng::constant(8)), lin(4, 0, 0));
        assert_eq!(Rng::ID.shl(Rng::constant(3)), lin(8, 0, 0));
        assert_eq!(Rng::ID.mul(Rng::ID), Rng::Top);
        assert_eq!(lin(0, 2, 3).mul(lin(0, -1, 5)), lin(0, -3, 15));
        assert_eq!(Rng::ID.sub(Rng::ID), Rng::ZERO, "i - i is the constant 0");
        assert_eq!(Rng::Top.mul(Rng::ZERO), Rng::ZERO, "x * 0 is the constant 0");
        assert_eq!(Rng::ID.mul(Rng::UNIFORM), Rng::Top);
        assert_eq!(Rng::UNIFORM.mul(Rng::constant(2)), Rng::UNIFORM);
    }

    #[test]
    fn id_stride_projects_affinity() {
        assert_eq!(Rng::Bottom.id_stride(), Some(0));
        assert_eq!(Rng::UNIFORM.id_stride(), Some(0));
        assert_eq!(lin(4, NEG_INF, POS_INF).id_stride(), Some(4));
        assert_eq!(lin(4, 0, 0).varying().id_stride(), None);
        assert_eq!(Rng::Top.id_stride(), None);
        assert_eq!(Rng::opaque([Rng::UNIFORM, Rng::constant(3)]), Rng::UNIFORM);
        assert_eq!(Rng::opaque([Rng::UNIFORM, Rng::ID]), Rng::Top);
    }

    #[test]
    fn infinite_bounds_absorb_finite_operands() {
        // A counter widened to [-inf, 100], then offset: the bound stays
        // infinite (it used to become `i64::MIN + 8`, which every reader
        // took as finite).
        let widened = lin(0, NEG_INF, 100);
        assert_eq!(widened.add(Rng::constant(8)), lin(0, NEG_INF, 108));
        assert_eq!(widened.scale(4).add(Rng::constant(8)), lin(0, NEG_INF, 408));
        assert_eq!(widened.neg(), lin(0, -100, POS_INF));
        assert_eq!(widened.scale(-4), lin(0, -400, POS_INF));
        assert_eq!(lin(4, 0, POS_INF).sub(Rng::constant(8)), lin(4, -8, POS_INF));
        let w = widened.scale(4).add(Rng::constant(8));
        assert_eq!(RangeFootprint::from_rng(w, 4, AccessMode::Accumulate), None);
    }

    #[test]
    fn footprint_alias() {
        let w = RangeFootprint { lo: 0, hi: 4, stride: 4, mode: AccessMode::Write };
        let r_same = RangeFootprint { lo: 0, hi: 4, stride: 4, mode: AccessMode::Read };
        let r_next = RangeFootprint { lo: 4, hi: 8, stride: 4, mode: AccessMode::Read };
        let r_uniform = RangeFootprint { lo: 0, hi: 4, stride: 0, mode: AccessMode::Read };
        assert!(!r_same.may_alias_cross_item(&w), "out[i] reads its own slot only");
        assert!(r_next.may_alias_cross_item(&w), "out[i+1] reads the neighbor's slot");
        assert!(r_uniform.may_alias_cross_item(&w), "uniform read of a written array");
        assert!(w.injective_per_item());
        let wide = RangeFootprint { lo: 0, hi: 8, stride: 4, mode: AccessMode::Write };
        assert!(!wide.injective_per_item());
        let huge = RangeFootprint { lo: NEG_INF + 1, hi: 1 << 62, stride: 4, mode: wide.mode };
        assert!(!huge.injective_per_item(), "the width is taken without overflow");
    }

    #[test]
    fn footprint_launch_span() {
        let f = RangeFootprint { lo: 0, hi: 4, stride: 4, mode: AccessMode::Write };
        assert_eq!(f.launch_span(256), (0, 1024));
        let back = RangeFootprint { lo: 0, hi: 4, stride: -4, mode: AccessMode::Write };
        assert_eq!(back.launch_span(256), (-1020, 4));
        assert_eq!(f.launch_span(1), (0, 4));
    }

    #[test]
    fn contains_oracle() {
        let r = lin(4, 0, 8);
        assert!(r.contains(3, 12));
        assert!(r.contains(3, 20));
        assert!(!r.contains(3, 24));
        assert!(Rng::Top.contains(0, 123));
        assert!(!Rng::Bottom.contains(0, 0));
    }
}
