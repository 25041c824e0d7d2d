//! Property tests for the id-linear element ([`Rng`]): the lattice laws
//! the fixpoint in `affinity.rs` leans on (join is a least upper bound,
//! widening ascends and stabilizes), checked against randomly generated
//! elements, and soundness of the abstract transfer functions checked
//! against concrete evaluation — random expression DAGs over the
//! work-item id are evaluated both abstractly and concretely (checked
//! `i64` arithmetic) at two ids, every concrete value must lie in its
//! abstract element's concretization ([`Rng::contains`]), and every value
//! the element calls invariant must have the same id-independent part at
//! both ids. A last property pins that infinite bounds absorb finite
//! operands.

use concord_analyze::range::{NEG_INF, POS_INF};
use concord_analyze::Rng;
use proptest::prelude::*;

/// Decode one random lattice element: `Bottom`, `Top`, or a stride with
/// an interval hull of the two bounds (so `lo <= hi` by construction),
/// invariant or not.
fn rng_of(tag: u8, stride: i64, a: i64, b: i64) -> Rng {
    match tag % 8 {
        0 => Rng::Bottom,
        1 => Rng::Top,
        _ => Rng::Lin { stride, lo: a.min(b), hi: a.max(b), invariant: tag & 8 == 0 },
    }
}

/// One step of a random expression DAG: an opcode plus operand indices
/// into the growing value pool and a small literal.
type Step = (u8, u8, u8, i8);

/// Evaluate `steps` both concretely (at each of the work-items `ids`)
/// and abstractly. Steps whose concrete evaluation would overflow `i64`
/// at either id are skipped on both sides, keeping the pools aligned.
/// Returns the parallel pools.
fn eval_dag(steps: &[Step], ids: [i64; 2]) -> (Vec<[i64; 2]>, Vec<Rng>) {
    // Seeds: the work-item id itself (the only stride-1 source, exactly
    // how `run_kernel` seeds the id parameter), two small constants, and
    // a value that differs per item within a known interval.
    let mut conc: Vec<[i64; 2]> = vec![ids, [3, 3], [-7, -7], ids.map(|id| id % 4)];
    let mut abs: Vec<Rng> = vec![
        Rng::ID,
        Rng::constant(3),
        Rng::constant(-7),
        Rng::Lin { stride: 0, lo: 0, hi: 3, invariant: false },
    ];
    for &(op, ai, bi, k) in steps {
        let a = usize::from(ai) % conc.len();
        let b = usize::from(bi) % conc.len();
        let k = i64::from(k);
        let s = k.rem_euclid(8);
        let (ca, cb) = (conc[a], conc[b]);
        let (c, r): ([Option<i64>; 2], Rng) = match op % 7 {
            0 => ([0, 1].map(|j| ca[j].checked_add(cb[j])), abs[a].add(abs[b])),
            1 => ([0, 1].map(|j| ca[j].checked_sub(cb[j])), abs[a].sub(abs[b])),
            2 => ([0, 1].map(|j| ca[j].checked_mul(k)), abs[a].mul(Rng::constant(k))),
            3 => ([0, 1].map(|j| ca[j].checked_mul(1i64 << s)), abs[a].shl(Rng::constant(s))),
            4 => ([0, 1].map(|j| ca[j].checked_neg()), abs[a].neg()),
            // A select on a work-item-uniform condition: every item takes
            // the same arm.
            5 => (if k >= 0 { ca } else { cb }.map(Some), abs[a].join(abs[b])),
            _ => ([0, 1].map(|j| ca[j].checked_mul(cb[j])), abs[a].mul(abs[b])),
        };
        let [Some(c0), Some(c1)] = c else { continue };
        conc.push([c0, c1]);
        abs.push(r);
    }
    (conc, abs)
}

/// Whether `r`, computed from `x` by a transfer with a finite operand,
/// kept `x`'s infinite bounds (swapped when the transfer negates).
fn keeps_infinities(x: Rng, r: Rng, negated: bool) -> bool {
    let (Rng::Lin { lo: xl, hi: xh, .. }, Rng::Lin { lo, hi, .. }) = (x, r) else {
        return r == Rng::Top;
    };
    let (down, up) =
        if negated { (xh == POS_INF, xl == NEG_INF) } else { (xl == NEG_INF, xh == POS_INF) };
    (!down || lo == NEG_INF) && (!up || hi == POS_INF)
}

proptest! {
    /// `join` is a least-upper-bound operator: an upper bound of both
    /// sides, commutative, idempotent, and monotone in each argument.
    #[test]
    fn join_is_an_upper_bound_commutative_and_monotone(
        x in (any::<u8>(), -8i64..9, -1000i64..1000, -1000i64..1000),
        y in (any::<u8>(), -8i64..9, -1000i64..1000, -1000i64..1000),
        z in (any::<u8>(), -8i64..9, -1000i64..1000, -1000i64..1000),
    ) {
        let (a, b, c) = (rng_of(x.0, x.1, x.2, x.3), rng_of(y.0, y.1, y.2, y.3), rng_of(z.0, z.1, z.2, z.3));
        let j = a.join(b);
        prop_assert!(a.leq(j), "join not an upper bound of {:?} (join {:?})", a, j);
        prop_assert!(b.leq(j), "join not an upper bound of {:?} (join {:?})", b, j);
        prop_assert_eq!(j, b.join(a), "join not commutative on {:?} {:?}", a, b);
        prop_assert_eq!(a.join(a), a, "join not idempotent on {:?}", a);
        if a.leq(b) {
            prop_assert!(
                a.join(c).leq(b.join(c)),
                "join not monotone: {:?} <= {:?} but {:?} !<= {:?}",
                a, b, a.join(c), b.join(c)
            );
        }
    }

    /// Widening ascends (`widen(a, a.join(b))` bounds both sides) and a
    /// chain driven by arbitrary step sequences changes value at most 5
    /// times — Bottom to an element, each bound to its infinity once,
    /// invariance lost once, stride collapse to Top — which is the
    /// termination argument for the analyzer's widened fixpoint.
    #[test]
    fn widening_ascends_and_stabilizes(
        steps in collection::vec(
            (any::<u8>(), -8i64..9, -1000i64..1000, -1000i64..1000), 1..24
        ),
    ) {
        let mut cur = Rng::Bottom;
        let mut changes = 0usize;
        for s in &steps {
            let step = rng_of(s.0, s.1, s.2, s.3);
            let next = cur.join(step);
            let widened = cur.widen(next);
            prop_assert!(cur.leq(widened), "widen descends: {:?} -> {:?}", cur, widened);
            prop_assert!(next.leq(widened), "widen below join: {:?} !<= {:?}", next, widened);
            if widened != cur {
                changes += 1;
            }
            cur = widened;
        }
        prop_assert!(changes <= 5, "widening chain changed {} times: {:?}", changes, steps);
    }

    /// Soundness against concrete evaluation: every value a random
    /// expression DAG computes at a concrete work-item id is contained in
    /// the abstract element the transfer functions derive.
    #[test]
    fn abstract_ranges_contain_concrete_evaluation(
        steps in collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<i8>()), 0..16),
        id0 in 0i64..4096,
        id1 in 0i64..4096,
    ) {
        let (conc, abs) = eval_dag(&steps, [id0, id1]);
        for (i, (c, r)) in conc.iter().zip(abs.iter()).enumerate() {
            for (id, v) in [(id0, c[0]), (id1, c[1])] {
                prop_assert!(
                    r.contains(id, v),
                    "value {} = {} at id {} escapes {:?} (steps {:?})",
                    i, v, id, r, steps
                );
            }
        }
    }

    /// `invariant` is sound: a value the element marks invariant has the
    /// same id-independent part `v - stride * id` at two different ids.
    #[test]
    fn invariant_values_agree_across_items(
        steps in collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<i8>()), 0..16),
        id0 in 0i64..4096,
        id1 in 0i64..4096,
    ) {
        let (conc, abs) = eval_dag(&steps, [id0, id1]);
        for (i, (c, r)) in conc.iter().zip(abs.iter()).enumerate() {
            if let Rng::Lin { stride, invariant: true, .. } = *r {
                let part = |v: i64, id: i64| i128::from(v) - i128::from(stride) * i128::from(id);
                prop_assert_eq!(
                    part(c[0], id0),
                    part(c[1], id1),
                    "value {} marked invariant in {:?} differs between ids {} and {} (steps {:?})",
                    i, r, id0, id1, steps
                );
            }
        }
    }

    /// The membership oracle itself is exact on intervals: for a bounded
    /// element, `contains` agrees with directly checking the constant
    /// part against the interval.
    #[test]
    fn contains_matches_interval_arithmetic(
        stride in -64i64..65,
        a in -1000i64..1000,
        b in -1000i64..1000,
        id in 0i64..1024,
        c in -2000i64..2000,
    ) {
        let r = Rng::Lin { stride, lo: a.min(b), hi: a.max(b), invariant: true };
        let value = stride * id + c;
        prop_assert_eq!(
            r.contains(id, value),
            a.min(b) <= c && c <= a.max(b),
            "contains disagrees on {:?} id {} c {}", r, id, c
        );
    }

    /// Infinities absorb: a bound at ±∞ stays at ±∞ (on the mirrored
    /// side when the transfer negates) under every transfer with a finite
    /// operand, so no reader ever takes it for a finite offset.
    #[test]
    fn infinite_bounds_absorb_finite_operands(
        which in 0u8..3,
        stride in -8i64..9,
        bound in -1000i64..1000,
        invariant in any::<bool>(),
        y in (-8i64..9, -1000i64..1000, -1000i64..1000),
        k in (1i64..64, any::<bool>()),
        shift in 0i64..62,
    ) {
        let (lo, hi) = match which {
            0 => (NEG_INF, bound),
            1 => (bound, POS_INF),
            _ => (NEG_INF, POS_INF),
        };
        let x = Rng::Lin { stride, lo, hi, invariant };
        let y = Rng::Lin { stride: y.0, lo: y.1.min(y.2), hi: y.1.max(y.2), invariant: true };
        let k = if k.1 { k.0 } else { -k.0 };
        for (r, negated) in [
            (x.add(y), false),
            (y.add(x), false),
            (x.sub(y), false),
            (y.sub(x), true),
            (x.neg(), true),
            (x.mul(Rng::constant(k)), k < 0),
            (Rng::constant(k).mul(x), k < 0),
            (x.shl(Rng::constant(shift)), false),
            (x.join(y), false),
            (x.widen(x.join(y)), false),
        ] {
            prop_assert!(
                keeps_infinities(x, r, negated),
                "{:?} lost an infinite bound: {:?} (y {:?}, k {}, shift {})",
                x, r, y, k, shift
            );
        }
    }
}
