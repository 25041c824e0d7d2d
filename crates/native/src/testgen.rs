//! Seeded generator of well-formed IR for the allocator checker and the
//! JIT-versus-interpreter differential tests.
//!
//! [`module`] builds `kernel(records, i)`: it loads item `i`'s record of
//! [`INTS`] i64, [`FLOATS`] f64 and [`SINGLES`] f32 cells (see
//! [`fill_record`]), runs a counted loop (1–4 trips) whose int, double and
//! single values ride the back edge — sometimes rotated through one
//! another, a parallel-move cycle — with an optional diamond or triangle
//! inside and a phi web that only feeds itself, then stores results of
//! every width back. The loop mixes integer, `f64` and `f32` arithmetic,
//! compares of both float types feeding branches and selects,
//! conversions between ints and both float types and between the float
//! types, `sqrtf`, `fabsf`, intrinsics that call out (`floorf`, `expf`,
//! `powf`, `fminf`, `fmaxf`, `FpToSi`), and direct calls to
//! `helper(i64, f64) -> f64` and `helper32(f32, i64) -> f32`, so values
//! of every class routinely live across calls.
//!
//! No NaN enters through an input or a constant: a NaN's payload can
//! depend on which operand the host compiler put first in the
//! interpreter's own float ops, and only generated NaNs (all alike) may
//! meet. `fabsf` would make a NaN unlike the others (its sign is clear),
//! so its result joins the pool only through `fminf` with a constant,
//! which is never NaN.

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
/// f32 cells after those, four bytes each.
pub(crate) const SINGLES: usize = 4;
/// Byte offset of the first f32 cell.
const SINGLE_AT: u64 = 8 * (INTS + FLOATS) as u64;
/// Byte offset of the i32 cell after the f32 cells.
const NARROW_AT: u64 = SINGLE_AT + 4 * SINGLES as u64;
/// Bytes per record.
pub(crate) const STRIDE: u64 = NARROW_AT + 8;

const INT_CONSTS: [i64; 8] = [0, 1, -1, 7, -300, 1 << 40, i32::MIN as i64, i64::MIN];
const FLOAT_CONSTS: [f64; 8] =
    [0.0, -0.0, 1.5, -2.25, f64::INFINITY, f64::NEG_INFINITY, 1e300, 3.0e-8];
const SINGLE_CONSTS: [f32; 8] =
    [0.0, -0.0, 0.1, -2.25, f32::INFINITY, f32::MAX, 1e-40, 16_777_217.0];

/// Record inputs; no NaN among them.
const INT_INPUTS: [i64; 9] =
    [0, 1, -1, 5, i64::MAX, i64::MIN, 1 << 33, -7777, (1 << 53) + (1 << 29) + 1];
const FLOAT_INPUTS: [f64; 8] = [0.0, -0.0, 1.0, -3.5, 1e10, f64::INFINITY, f64::NEG_INFINITY, 0.1];
const SINGLE_INPUTS: [f32; 10] =
    [0.0, -0.0, 1.0, -3.5, 1e30, f32::NEG_INFINITY, 0.1, 1e-40, 3e9, -16_777_215.0];

/// Write one record's inputs, drawn from `rng`, through `put(offset,
/// bytes)`.
pub(crate) fn fill_record(rng: &mut StdRng, mut put: impl FnMut(u64, &[u8])) {
    let pick_int = |rng: &mut StdRng| INT_INPUTS[rng.gen_range(0..INT_INPUTS.len())];
    for j in 0..INTS {
        put(8 * j as u64, &pick_int(rng).to_le_bytes());
    }
    put(NARROW_AT, &pick_int(rng).to_le_bytes());
    for j in 0..FLOATS {
        let v = FLOAT_INPUTS[rng.gen_range(0..FLOAT_INPUTS.len())];
        put(8 * (INTS + j) as u64, &v.to_le_bytes());
    }
    for j in 0..SINGLES {
        let v = SINGLE_INPUTS[rng.gen_range(0..SINGLE_INPUTS.len())];
        put(SINGLE_AT + 4 * j as u64, &v.to_le_bytes());
    }
}

struct Gen {
    rng: StdRng,
    fb: FunctionBuilder,
    ints: Vec<ValueId>,
    floats: Vec<ValueId>,
    singles: Vec<ValueId>,
}

/// Function ids of the two callees.
const HELPER: FuncId = FuncId(1);
const HELPER32: FuncId = FuncId(2);

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

    /// An `f32`: a constant, a rounded `float()`, or one from the pool.
    fn single(&mut self) -> ValueId {
        match self.rng.gen_range(0..10) {
            0 | 1 => {
                let c = SINGLE_CONSTS[self.rng.gen_range(0..SINGLE_CONSTS.len())];
                self.fb.f32(c)
            }
            2 => {
                let x = self.float();
                self.fb.cast(CastOp::FpCast, x, Type::F32)
            }
            _ => {
                let pool = std::mem::take(&mut self.singles);
                let v = self.pick(&pool);
                self.singles = pool;
                v
            }
        }
    }

    /// `x` joins the single pool, and sometimes the float pool widened.
    fn keep_single(&mut self, x: ValueId) {
        self.singles.push(x);
        if self.rng.gen_bool(0.3) {
            let w = self.fb.cast(CastOp::FpCast, x, Type::F64);
            self.floats.push(w);
        }
    }

    /// A compare of two ints, two floats or two singles.
    fn compare(&mut self) -> ValueId {
        let fp = [FCmp::Oeq, FCmp::One, FCmp::Olt, FCmp::Ole, FCmp::Ogt, FCmp::Oge];
        match self.rng.gen_range(0..3) {
            0 => {
                let p = [ICmp::Slt, ICmp::Eq, ICmp::Uge][self.rng.gen_range(0..3usize)];
                let (l, r) = (self.int(), self.int());
                self.fb.icmp(p, l, r)
            }
            1 => {
                let p = fp[self.rng.gen_range(0..fp.len())];
                let (l, r) = (self.float(), self.float());
                self.fb.fcmp(p, l, r)
            }
            _ => {
                let p = fp[self.rng.gen_range(0..fp.len())];
                let (l, r) = (self.single(), self.single());
                self.fb.fcmp(p, l, r)
            }
        }
    }

    /// One random operation; its result joins a pool.
    fn step(&mut self) {
        use BinOp::*;
        match self.rng.gen_range(0..15) {
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
                // An int to either float type, or either float type back.
                match self.rng.gen_range(0..4) {
                    0 | 1 => {
                        let i = self.int();
                        let to = [Type::F64, Type::F32][self.rng.gen_range(0..2usize)];
                        let v = self.fb.cast(CastOp::SiToFp, i, to);
                        if to == Type::F64 {
                            self.floats.push(v);
                        } else {
                            self.keep_single(v);
                        }
                    }
                    k => {
                        let x = if k == 2 { self.float() } else { self.single() };
                        let to = [Type::I64, Type::I32][self.rng.gen_range(0..2usize)];
                        let v = self.fb.cast(CastOp::FpToSi, x, to);
                        let v = self.fb.cast(CastOp::Sext, v, Type::I64);
                        self.ints.push(v);
                    }
                }
            }
            7 | 8 => {
                let op = [FAdd, FSub, FMul, FDiv][self.rng.gen_range(0..4usize)];
                let (a, b) = (self.single(), self.single());
                let v = self.fb.bin(op, a, b);
                self.keep_single(v);
            }
            9 => {
                use Intrinsic::*;
                let intr = [Floor, Exp, Pow, FMin, FMax, Sqrt, FAbs][self.rng.gen_range(0..7usize)];
                let a = self.single();
                let args = if matches!(intr, Pow | FMin | FMax) {
                    vec![a, self.single()]
                } else {
                    vec![a]
                };
                let mut v = self.fb.intrinsic(intr, args, Type::F32);
                if intr == FAbs {
                    let c = SINGLE_CONSTS[self.rng.gen_range(0..SINGLE_CONSTS.len())];
                    let c = self.fb.f32(c);
                    v = self.fb.intrinsic(FMin, vec![v, c], Type::F32);
                }
                self.keep_single(v);
            }
            10 => {
                let (i, x) = (self.int(), self.float());
                let v = self.fb.call(HELPER, vec![i, x], Type::F64);
                self.floats.push(v);
            }
            11 => {
                let (x, i) = (self.single(), self.int());
                let v = self.fb.call(HELPER32, vec![x, i], Type::F32);
                self.keep_single(v);
            }
            12 | 13 => {
                let c = self.compare();
                match self.rng.gen_range(0..3) {
                    0 => {
                        let (t, e) = (self.int(), self.int());
                        let v = self.fb.select(c, t, e);
                        self.ints.push(v);
                    }
                    1 => {
                        let (t, e) = (self.float(), self.float());
                        let v = self.fb.select(c, t, e);
                        self.floats.push(v);
                    }
                    _ => {
                        let (t, e) = (self.single(), self.single());
                        let v = self.fb.select(c, t, e);
                        self.singles.push(v);
                    }
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

/// `helper32(x, a)`: `a * x - x` if it is below `x`, else `x`.
fn helper32() -> concord_ir::Function {
    let mut fb = FunctionBuilder::new("helper32", vec![Type::F32, Type::I64], Type::F32);
    let (x, a) = (fb.param(0), fb.param(1));
    let t = fb.cast(CastOp::SiToFp, a, Type::F32);
    let m = fb.bin(BinOp::FMul, t, x);
    let s = fb.bin(BinOp::FSub, m, x);
    let below = fb.fcmp(FCmp::Olt, s, x);
    let r = fb.select(below, s, x);
    fb.ret(Some(r));
    fb.build()
}

/// A module of `kernel` (function 0, a `ForBody` kernel taking the record
/// array and the item id), `helper` (function 1) and `helper32`
/// (function 2).
pub(crate) fn module(seed: u64) -> Module {
    let mut g = Gen {
        rng: StdRng::seed_from_u64(seed),
        fb: FunctionBuilder::new("kernel", vec![Type::Ptr(AddrSpace::Cpu), Type::I32], Type::Void),
        ints: Vec::new(),
        floats: Vec::new(),
        singles: Vec::new(),
    };
    let (records, item) = (g.fb.param(0), g.fb.param(1));
    let ii = g.fb.cast(CastOp::Sext, item, Type::I64);
    let stride = g.fb.i64(STRIDE as i64);
    let off = g.fb.bin(BinOp::Mul, ii, stride);
    let base = g.fb.gep(records, off);
    let int_cells: Vec<ValueId> = (0..INTS).map(|j| g.fb.gep_const(base, 8 * j as u64)).collect();
    let float_cells: Vec<ValueId> =
        (0..FLOATS).map(|j| g.fb.gep_const(base, 8 * (INTS + j) as u64)).collect();
    let single_cells: Vec<ValueId> =
        (0..SINGLES).map(|j| g.fb.gep_const(base, SINGLE_AT + 4 * j as u64)).collect();
    let narrow_cell = g.fb.gep_const(base, NARROW_AT);
    let ints0: Vec<ValueId> = int_cells.iter().map(|&c| g.fb.load(c, Type::I64)).collect();
    let floats0: Vec<ValueId> = float_cells.iter().map(|&c| g.fb.load(c, Type::F64)).collect();
    let singles0: Vec<ValueId> = single_cells.iter().map(|&c| g.fb.load(c, Type::F32)).collect();
    let narrow = g.fb.load(narrow_cell, Type::I32);
    let three = g.fb.i64(3);
    let one = g.fb.i64(1);
    let zero = g.fb.i64(0);
    let trips = g.fb.bin(BinOp::And, ii, three);
    let trips = g.fb.bin(BinOp::Add, trips, one);
    g.ints = vec![ii, trips, narrow];
    g.floats = floats0.clone();
    g.singles = singles0.clone();
    let entry = g.fb.current_block();
    let head = g.fb.new_block();
    let exit = g.fb.new_block();
    g.fb.br(head);

    g.fb.switch_to(head);
    let count = g.fb.phi(Type::I64, vec![]);
    let iphis: Vec<ValueId> = (0..INTS).map(|_| g.fb.phi(Type::I64, vec![])).collect();
    let fphis: Vec<ValueId> = (0..FLOATS).map(|_| g.fb.phi(Type::F64, vec![])).collect();
    let sphis: Vec<ValueId> = (0..SINGLES).map(|_| g.fb.phi(Type::F32, vec![])).collect();
    let dead = g.fb.phi(Type::I64, vec![]);
    g.ints.extend(&iphis);
    g.floats.extend(&fphis);
    g.singles.extend(&sphis);
    g.steps(2, 10);
    // A diamond, or a triangle whose false edge goes straight to the join
    // (laid out after the true arm, so the branch falls through to it).
    let shape = g.rng.gen_range(0..3u32);
    if shape > 0 {
        let from = g.fb.current_block();
        let c = g.compare();
        let skip = (g.int(), g.float(), g.single());
        let then_b = g.fb.new_block();
        let join = g.fb.new_block();
        let else_b = if shape == 1 { g.fb.new_block() } else { join };
        g.fb.cond_br(c, then_b, else_b);
        let (ni, nf, ns) = (g.ints.len(), g.floats.len(), g.singles.len());
        let arm = |g: &mut Gen, b| {
            g.fb.switch_to(b);
            g.steps(0, 6);
            let out = (g.int(), g.float(), g.single());
            g.fb.br(join);
            g.ints.truncate(ni);
            g.floats.truncate(nf);
            g.singles.truncate(ns);
            out
        };
        let (ti, tf, ts) = arm(&mut g, then_b);
        let (ep, (ei, ef, es)) =
            if shape == 1 { (else_b, arm(&mut g, else_b)) } else { (from, skip) };
        g.fb.switch_to(join);
        let pi = g.fb.phi(Type::I64, vec![(then_b, ti), (ep, ei)]);
        let pf = g.fb.phi(Type::F64, vec![(then_b, tf), (ep, ef)]);
        let ps = g.fb.phi(Type::F32, vec![(then_b, ts), (ep, es)]);
        g.ints.push(pi);
        g.floats.push(pf);
        g.singles.push(ps);
    }
    g.steps(1, 8);
    let latch = g.fb.current_block();
    let mut inext: Vec<ValueId> = (0..INTS).map(|_| g.int()).collect();
    let mut fnext: Vec<ValueId> = (0..FLOATS).map(|_| g.float()).collect();
    let mut snext: Vec<ValueId> = (0..SINGLES).map(|_| g.single()).collect();
    // Rotate some phis through one another: a cycle in the edge's move.
    for (next, phis) in [(&mut inext, &iphis), (&mut fnext, &fphis), (&mut snext, &sphis)] {
        let k = g.rng.gen_range(0..=phis.len().min(3));
        for j in 0..k {
            next[j] = phis[(j + 1) % k];
        }
    }
    let count2 = g.fb.bin(BinOp::Add, count, one);
    let more = g.fb.icmp(ICmp::Slt, count2, trips);
    g.fb.cond_br(more, head, exit);

    g.fb.switch_to(exit);
    for &cell in &int_cells {
        let v = g.int();
        g.fb.store(cell, v);
    }
    for &cell in &float_cells {
        let v = g.float();
        g.fb.store(cell, v);
    }
    for &cell in &single_cells {
        let v = g.single();
        g.fb.store(cell, v);
    }
    let x = g.int();
    let t = g.fb.cast(CastOp::Trunc, x, Type::I32);
    g.fb.store(narrow_cell, t);
    if g.rng.gen_bool(0.5) {
        let c = g.fb.i64(INT_CONSTS[g.rng.gen_range(0..INT_CONSTS.len())]);
        g.fb.store(int_cells[0], c);
    }
    g.fb.ret(None);

    let mut kernel = g.fb.build();
    kernel.kernel = Some(KernelKind::ForBody);
    let phi = |init: ValueId, next: ValueId| Op::Phi(vec![(entry, init), (latch, next)]);
    kernel.inst_mut(count).op = phi(zero, count2);
    kernel.inst_mut(dead).op = phi(zero, dead);
    for (phis, init, next) in
        [(&iphis, &ints0, &inext), (&fphis, &floats0, &fnext), (&sphis, &singles0, &snext)]
    {
        for j in 0..phis.len() {
            kernel.inst_mut(phis[j]).op = phi(init[j], next[j]);
        }
    }
    let mut m = Module::new();
    m.add_function(kernel);
    m.add_function(helper());
    m.add_function(helper32());
    m
}
