//! Seeded generator of well-formed IR for the allocator checker and the
//! JIT-versus-interpreter differential tests.
//!
//! [`module`] builds `kernel(records, i)`: it loads item `i`'s record of
//! [`INTS`] i64 and [`FLOATS`] f64 cells, runs a counted loop (1–4 trips)
//! whose int and float values ride the back edge — sometimes rotated
//! through one another, a parallel-move cycle — with an optional diamond
//! or triangle inside and a phi web that only feeds itself, then stores results of
//! every width back. The loop mixes integer and float arithmetic,
//! compares feeding branches and selects, `f32` round trips, intrinsics
//! that call out (`floorf`, `powf`, `fminf`, `FpToSi`) and a direct call
//! to `helper(i64, f64) -> f64`, so values routinely live across calls.
//!
//! No NaN enters through an input or a constant: a NaN's payload can
//! depend on which operand the host compiler put first in the
//! interpreter's own float ops, and only generated NaNs (all alike) may
//! meet.

use concord_ir::builder::FunctionBuilder;
use concord_ir::inst::{BinOp, CastOp, FCmp, ICmp, Intrinsic};
use concord_ir::types::{AddrSpace, Type};
use concord_ir::{FuncId, KernelKind, Module, Op, ValueId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// i64 cells at the start of each item's record.
pub(crate) const INTS: usize = 4;
/// f64 cells after them.
pub(crate) const FLOATS: usize = 4;
/// Bytes per record: the cells plus two for narrow stores.
pub(crate) const STRIDE: u64 = 8 * (INTS + FLOATS + 2) as u64;

const INT_CONSTS: [i64; 8] = [0, 1, -1, 7, -300, 1 << 40, i32::MIN as i64, i64::MIN];
const FLOAT_CONSTS: [f64; 8] =
    [0.0, -0.0, 1.5, -2.25, f64::INFINITY, f64::NEG_INFINITY, 1e300, 3.0e-8];

struct Gen {
    rng: StdRng,
    fb: FunctionBuilder,
    ints: Vec<ValueId>,
    floats: Vec<ValueId>,
    helper: FuncId,
}

impl Gen {
    fn pick(&mut self, pool: &[ValueId]) -> ValueId {
        pool[self.rng.gen_range(0..pool.len())]
    }

    fn int(&mut self) -> ValueId {
        if self.rng.gen_bool(0.2) {
            let c = INT_CONSTS[self.rng.gen_range(0..INT_CONSTS.len())];
            return self.fb.i64(c);
        }
        let pool = std::mem::take(&mut self.ints);
        let v = self.pick(&pool);
        self.ints = pool;
        v
    }

    fn float(&mut self) -> ValueId {
        if self.rng.gen_bool(0.2) {
            let c = FLOAT_CONSTS[self.rng.gen_range(0..FLOAT_CONSTS.len())];
            return self.fb.f64(c);
        }
        let pool = std::mem::take(&mut self.floats);
        let v = self.pick(&pool);
        self.floats = pool;
        v
    }

    /// `float()` rounded to `f32`.
    fn single(&mut self) -> ValueId {
        let x = self.float();
        self.fb.cast(CastOp::FpCast, x, Type::F32)
    }

    fn widen(&mut self, x: ValueId) {
        let w = self.fb.cast(CastOp::FpCast, x, Type::F64);
        self.floats.push(w);
    }

    /// One random operation; its result joins a pool.
    fn step(&mut self) {
        use BinOp::*;
        match self.rng.gen_range(0..12) {
            0 | 1 => {
                let op = [Add, Sub, Mul, And, Or, Xor][self.rng.gen_range(0..6usize)];
                let (l, r) = (self.int(), self.int());
                let v = self.fb.bin(op, l, r);
                self.ints.push(v);
            }
            2 => {
                let op = [Shl, LShr, AShr][self.rng.gen_range(0..3usize)];
                let l = self.int();
                let r = if self.rng.gen_bool(0.5) {
                    self.fb.i64(self.rng.gen_range(0..70))
                } else {
                    self.int()
                };
                let v = self.fb.bin(op, l, r);
                self.ints.push(v);
            }
            3 => {
                let op = [SDiv, SRem][self.rng.gen_range(0..2usize)];
                let (l, r) = (self.int(), self.int());
                let one = self.fb.i64(1);
                let nonzero = self.fb.bin(Or, r, one);
                let v = self.fb.bin(op, l, nonzero);
                self.ints.push(v);
            }
            4 | 5 => {
                let op = [FAdd, FSub, FMul, FDiv][self.rng.gen_range(0..4usize)];
                let (l, r) = (self.float(), self.float());
                let v = self.fb.bin(op, l, r);
                self.floats.push(v);
            }
            6 => {
                if self.rng.gen_bool(0.5) {
                    let i = self.int();
                    let v = self.fb.cast(CastOp::SiToFp, i, Type::F64);
                    self.floats.push(v);
                } else {
                    let x = self.float();
                    let v = self.fb.cast(CastOp::FpToSi, x, Type::I64);
                    self.ints.push(v);
                }
            }
            7 => {
                let (a, b) = (self.single(), self.single());
                let op = [FAdd, FMul, FDiv][self.rng.gen_range(0..3usize)];
                let v = self.fb.bin(op, a, b);
                self.widen(v);
            }
            8 => {
                let intr = [Intrinsic::Floor, Intrinsic::Pow, Intrinsic::FMin, Intrinsic::Sqrt]
                    [self.rng.gen_range(0..4usize)];
                let a = self.single();
                let args = if matches!(intr, Intrinsic::Pow | Intrinsic::FMin) {
                    vec![a, self.single()]
                } else {
                    vec![a]
                };
                let v = self.fb.intrinsic(intr, args, Type::F32);
                self.widen(v);
            }
            9 => {
                let (i, x) = (self.int(), self.float());
                let v = self.fb.call(self.helper, vec![i, x], Type::F64);
                self.floats.push(v);
            }
            10 => {
                let c = if self.rng.gen_bool(0.5) {
                    let p = [ICmp::Slt, ICmp::Eq, ICmp::Uge][self.rng.gen_range(0..3usize)];
                    let (l, r) = (self.int(), self.int());
                    self.fb.icmp(p, l, r)
                } else {
                    let p = [FCmp::Oeq, FCmp::Olt, FCmp::Oge][self.rng.gen_range(0..3usize)];
                    let (l, r) = (self.float(), self.float());
                    self.fb.fcmp(p, l, r)
                };
                if self.rng.gen_bool(0.5) {
                    let (t, e) = (self.int(), self.int());
                    let v = self.fb.select(c, t, e);
                    self.ints.push(v);
                } else {
                    let (t, e) = (self.float(), self.float());
                    let v = self.fb.select(c, t, e);
                    self.floats.push(v);
                }
            }
            _ => {
                let x = self.int();
                let narrow = [Type::I32, Type::I8][self.rng.gen_range(0..2usize)];
                let t = self.fb.cast(CastOp::Trunc, x, narrow);
                let t2 = self.fb.bin(Add, t, t);
                let back = if self.rng.gen_bool(0.5) { CastOp::Sext } else { CastOp::Zext };
                let v = self.fb.cast(back, t2, Type::I64);
                self.ints.push(v);
            }
        }
    }

    fn steps(&mut self, lo: usize, hi: usize) {
        for _ in 0..self.rng.gen_range(lo..hi) {
            self.step();
        }
    }
}

fn helper() -> concord_ir::Function {
    let mut fb = FunctionBuilder::new("helper", vec![Type::I64, Type::F64], Type::F64);
    let (a, x) = (fb.param(0), fb.param(1));
    let t = fb.cast(CastOp::SiToFp, a, Type::F64);
    let m = fb.bin(BinOp::FMul, t, x);
    let s = fb.bin(BinOp::FAdd, m, x);
    fb.ret(Some(s));
    fb.build()
}

/// A module of `kernel` (function 0, a `ForBody` kernel taking the record
/// array and the item id) and `helper` (function 1).
pub(crate) fn module(seed: u64) -> Module {
    let mut g = Gen {
        rng: StdRng::seed_from_u64(seed),
        fb: FunctionBuilder::new("kernel", vec![Type::Ptr(AddrSpace::Cpu), Type::I32], Type::Void),
        ints: Vec::new(),
        floats: Vec::new(),
        helper: FuncId(1),
    };
    let (records, item) = (g.fb.param(0), g.fb.param(1));
    let ii = g.fb.cast(CastOp::Sext, item, Type::I64);
    let stride = g.fb.i64(STRIDE as i64);
    let off = g.fb.bin(BinOp::Mul, ii, stride);
    let base = g.fb.gep(records, off);
    let cells: Vec<ValueId> =
        (0..INTS + FLOATS + 2).map(|j| g.fb.gep_const(base, 8 * j as u64)).collect();
    let ints0: Vec<ValueId> = (0..INTS).map(|j| g.fb.load(cells[j], Type::I64)).collect();
    let floats0: Vec<ValueId> =
        (0..FLOATS).map(|j| g.fb.load(cells[INTS + j], Type::F64)).collect();
    let narrow = g.fb.load(cells[INTS + FLOATS], Type::I32);
    let three = g.fb.i64(3);
    let one = g.fb.i64(1);
    let zero = g.fb.i64(0);
    let trips = g.fb.bin(BinOp::And, ii, three);
    let trips = g.fb.bin(BinOp::Add, trips, one);
    g.ints = vec![ii, trips, narrow];
    g.floats = floats0.clone();
    let entry = g.fb.current_block();
    let head = g.fb.new_block();
    let exit = g.fb.new_block();
    g.fb.br(head);

    g.fb.switch_to(head);
    let count = g.fb.phi(Type::I64, vec![]);
    let iphis: Vec<ValueId> = (0..INTS).map(|_| g.fb.phi(Type::I64, vec![])).collect();
    let fphis: Vec<ValueId> = (0..FLOATS).map(|_| g.fb.phi(Type::F64, vec![])).collect();
    let dead = g.fb.phi(Type::I64, vec![]);
    g.ints.extend(&iphis);
    g.floats.extend(&fphis);
    g.steps(2, 10);
    // A diamond, or a triangle whose false edge goes straight to the join
    // (laid out after the true arm, so the branch falls through to it).
    let shape = g.rng.gen_range(0..3u32);
    if shape > 0 {
        let from = g.fb.current_block();
        let (l, r) = (g.int(), g.int());
        let c = g.fb.icmp(ICmp::Slt, l, r);
        let (skip_i, skip_f) = (g.int(), g.float());
        let then_b = g.fb.new_block();
        let join = g.fb.new_block();
        let else_b = if shape == 1 { g.fb.new_block() } else { join };
        g.fb.cond_br(c, then_b, else_b);
        let (ni, nf) = (g.ints.len(), g.floats.len());
        let arm = |g: &mut Gen, b| {
            g.fb.switch_to(b);
            g.steps(0, 6);
            let out = (g.int(), g.float());
            g.fb.br(join);
            g.ints.truncate(ni);
            g.floats.truncate(nf);
            out
        };
        let (ti, tf) = arm(&mut g, then_b);
        let (ep, ei, ef) = if shape == 1 {
            let (ei, ef) = arm(&mut g, else_b);
            (else_b, ei, ef)
        } else {
            (from, skip_i, skip_f)
        };
        g.fb.switch_to(join);
        let pi = g.fb.phi(Type::I64, vec![(then_b, ti), (ep, ei)]);
        let pf = g.fb.phi(Type::F64, vec![(then_b, tf), (ep, ef)]);
        g.ints.push(pi);
        g.floats.push(pf);
    }
    g.steps(1, 8);
    let latch = g.fb.current_block();
    let mut inext: Vec<ValueId> = (0..INTS).map(|_| g.int()).collect();
    let mut fnext: Vec<ValueId> = (0..FLOATS).map(|_| g.float()).collect();
    // Rotate some phis through one another: a cycle in the edge's move.
    let k = g.rng.gen_range(0..=INTS.min(3));
    for j in 0..k {
        inext[j] = iphis[(j + 1) % k];
    }
    let k = g.rng.gen_range(0..=FLOATS.min(3));
    for j in 0..k {
        fnext[j] = fphis[(j + 1) % k];
    }
    let count2 = g.fb.bin(BinOp::Add, count, one);
    let more = g.fb.icmp(ICmp::Slt, count2, trips);
    g.fb.cond_br(more, head, exit);

    g.fb.switch_to(exit);
    for &cell in &cells[..INTS] {
        let v = g.int();
        g.fb.store(cell, v);
    }
    for &cell in &cells[INTS..INTS + FLOATS] {
        let v = g.float();
        g.fb.store(cell, v);
    }
    let x = g.int();
    let t = g.fb.cast(CastOp::Trunc, x, Type::I32);
    g.fb.store(cells[INTS + FLOATS], t);
    let y = g.single();
    g.fb.store(cells[INTS + FLOATS + 1], y);
    if g.rng.gen_bool(0.5) {
        let c = g.fb.i64(INT_CONSTS[g.rng.gen_range(0..INT_CONSTS.len())]);
        g.fb.store(cells[0], c);
    }
    g.fb.ret(None);

    let mut kernel = g.fb.build();
    kernel.kernel = Some(KernelKind::ForBody);
    let phi = |init: ValueId, next: ValueId| Op::Phi(vec![(entry, init), (latch, next)]);
    kernel.inst_mut(count).op = phi(zero, count2);
    kernel.inst_mut(dead).op = phi(zero, dead);
    for j in 0..INTS {
        kernel.inst_mut(iphis[j]).op = phi(ints0[j], inext[j]);
    }
    for j in 0..FLOATS {
        kernel.inst_mut(fphis[j]).op = phi(floats0[j], fnext[j]);
    }
    let mut m = Module::new();
    m.add_function(kernel);
    m.add_function(helper());
    m
}
