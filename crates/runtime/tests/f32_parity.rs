//! `float` parity between the interpreter and native code. Each kernel
//! reaches a family of single-precision sites — arithmetic, `sqrtf`,
//! `fabsf` and the math helpers, the six compares, conversions to and
//! from integers and `double`, values carried through phis, selects, a
//! direct call and a reduction, and signalling NaNs written from the host
//! — on inputs chosen to land on IEEE edge cases. Every launch runs on
//! `Target::Cpu` and `Target::Native` at host threads 1 and 8, and every
//! block the body points at (the body included) must come back
//! byte-identical.
//!
//! NaN inputs meet only non-NaN operands (or NaNs derived from the same
//! input): when two different NaNs meet, the result's payload depends on
//! which operand the host compiler put first in the interpreter's own
//! float ops.

use concord_energy::SystemConfig;
use concord_ir::types::AddrSpace;
use concord_runtime::{Concord, Options, Target};
use concord_svm::CpuAddr;

/// One launch: a kernel class, its item count, and the initial bytes of
/// each block its body's leading pointer fields point at, in field
/// order. `scalars` more body bytes follow the pointers (a reduction's
/// accumulator).
struct Case {
    src: String,
    class: &'static str,
    n: u32,
    blocks: Vec<Vec<u8>>,
    scalars: u64,
    reduce: bool,
}

fn f32s(v: &[f32]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

fn words(v: &[u32]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

fn i64s(v: &[i64]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

fn zeros(words: u32) -> Vec<u8> {
    vec![0; words as usize * 4]
}

/// Every block after the launch, then the body.
fn run(case: &Case, target: Target, host_threads: usize) -> Vec<Vec<u8>> {
    let opts = Options { host_threads: Some(host_threads), ..Options::default() };
    let mut cc = Concord::new(SystemConfig::ultrabook(), &case.src, opts).unwrap();
    let body_len = 8 * case.blocks.len() as u64 + case.scalars;
    let body = cc.malloc(body_len).unwrap();
    let mut at = Vec::new();
    for (j, bytes) in case.blocks.iter().enumerate() {
        let block = cc.malloc(bytes.len() as u64).unwrap();
        let region = cc.region_mut();
        region.write_bytes(block.0, AddrSpace::Cpu, bytes).unwrap();
        region.write_ptr(CpuAddr(body.0 + 8 * j as u64), block).unwrap();
        at.push((block, bytes.len() as u64));
    }
    if case.reduce {
        cc.parallel_reduce_hetero(case.class, body, case.n, target).unwrap();
    } else {
        cc.parallel_for_hetero(case.class, body, case.n, target).unwrap();
    }
    at.push((body, body_len));
    let region = cc.region();
    at.iter()
        .map(|&(a, len)| region.read_bytes(a.0, AddrSpace::Cpu, len).unwrap().to_vec())
        .collect()
}

/// Run `case` everywhere and require the interpreter's bytes; returns them.
fn check(case: &Case) -> Vec<Vec<u8>> {
    let want = run(case, Target::Cpu, 1);
    let mut runs = vec![(Target::Cpu, 8)];
    if concord_native::supported() {
        runs.extend([(Target::Native, 1), (Target::Native, 8)]);
    }
    for (target, ht) in runs {
        let got = run(case, target, ht);
        for (j, (g, w)) in got.iter().zip(&want).enumerate() {
            let first = g.chunks(4).zip(w.chunks(4)).position(|(a, b)| a != b);
            if let Some(k) = first {
                panic!(
                    "{}: block {j} word {k} differs on {target} at host threads {ht}: \
                     {:02x?} != interpreter {:02x?}",
                    case.class,
                    &g[4 * k..4 * k + 4],
                    &w[4 * k..4 * k + 4]
                );
            }
        }
        assert_eq!(got, want, "{}: {target} at host threads {ht}", case.class);
    }
    want
}

fn word(block: &[u8], k: usize) -> u32 {
    u32::from_le_bytes(block[4 * k..4 * k + 4].try_into().unwrap())
}

/// A non-tail-recursive free function, so every call stays a call: an
/// `f32` parameter in, an `f32` return value out.
const HALVE: &str = r#"
    float halve(float x, int n) {
        if (n <= 0) { return x; }
        return halve(x * 0.5f, n - 1) + 0.25f;
    }
"#;

#[test]
fn arithmetic_and_math_on_edge_cases() {
    let max = f32::MAX;
    let tiny = f32::from_bits(1);
    let pairs: &[(f32, f32)] = &[
        (0.0, -0.0),
        (-0.0, 0.0),
        (-0.0, -0.0),
        (1.0, 0.0),
        (-1.0, 0.0),
        (0.0, 0.0),
        (-1.0, -0.0),
        (f32::INFINITY, f32::INFINITY),
        (f32::INFINITY, f32::NEG_INFINITY),
        (f32::NEG_INFINITY, 2.0),
        (-1.0, 2.0),
        (-4.0, 0.5),
        (3e38, 2.0),
        (max, 1.000_000_1),
        (max, 0.999_999_94),
        (-max, 1.000_000_1),
        (1.844_674_3e19, 1.844_674_3e19),
        (1.844_674e19, 1.844_674e19),
        (1e-30, 1e-10),
        (f32::MIN_POSITIVE, 0.5),
        (f32::MIN_POSITIVE * 0.5, 3.0),
        (tiny, -0.5),
        (-tiny, tiny),
        (f32::NAN, 1.0),
        (1.0, f32::NAN),
        (-f32::NAN, 2.5),
        (16_777_216.0, 1.0),
        (16_777_217.0, 3.0),
        (0.1, 0.2),
        (1.0 / 3.0, 3.0),
        (1e10, 1e-10),
        (88.72, 89.0),
        (-103.0, -87.5),
        (2.5, -2.5),
    ];
    let n = pairs.len() as u32;
    let (xs, ys): (Vec<f32>, Vec<f32>) = pairs.iter().copied().unzip();
    let case = Case {
        src: r#"
            class Arith {
            public:
                float* a; float* b; float* out;
                void operator()(int i) {
                    float x = a[i]; float y = b[i];
                    int o = 16 * i;
                    out[o] = x + y;
                    out[o + 1] = x - y;
                    out[o + 2] = x * y;
                    out[o + 3] = x / y;
                    out[o + 4] = sqrtf(x);
                    out[o + 5] = fabsf(x);
                    out[o + 6] = x * y * 4.0f;
                    out[o + 7] = (x - y) * (x + y);
                    out[o + 8] = floorf(x);
                    out[o + 9] = expf(y);
                    out[o + 10] = powf(x, 2.0f);
                    out[o + 11] = fminf(x, y);
                    out[o + 12] = fmaxf(x, y);
                    out[o + 13] = x * 0.1f + 1.0f / 3.0f;
                    double d = x;
                    d = d * 1.0000001 + 0.5;
                    out[o + 14] = (float)d;
                    out[o + 15] = sqrtf(fabsf(x) * 2.0f) / (y - 1.0f);
                }
            };
        "#
        .into(),
        class: "Arith",
        n,
        blocks: vec![f32s(&xs), f32s(&ys), zeros(16 * n)],
        scalars: 0,
        reduce: false,
    };
    let out = &check(&case)[2];
    // The interpreter's IEEE answers where they are not in doubt.
    let at = |i: usize, k: usize| f32::from_bits(word(out, 16 * i + k));
    assert_eq!(at(0, 0).to_bits(), 0.0f32.to_bits(), "0 + -0");
    assert_eq!(at(2, 0).to_bits(), (-0.0f32).to_bits(), "-0 + -0");
    assert_eq!(at(3, 3), f32::INFINITY, "1 / 0");
    assert!(at(7, 1).is_nan() && at(10, 4).is_nan(), "inf - inf, sqrtf(-1)");
    assert_eq!(at(1, 5).to_bits(), 0, "fabsf(-0)");
    assert_eq!((at(13, 2), at(14, 2)), (f32::INFINITY, max * 0.999_999_94), "near FLT_MAX");
    assert!(at(18, 2) != 0.0 && at(18, 2).is_subnormal(), "a subnormal product");
}

#[test]
fn every_compare_against_nan_and_signed_zero() {
    let vals = [f32::NAN, -0.0, 0.0, 1.0, 1.5, f32::INFINITY, f32::NEG_INFINITY, -f32::NAN];
    // Every ordered pair; NaN against NaN only where it is the same NaN.
    let pairs: Vec<(f32, f32)> = vals
        .iter()
        .flat_map(|&x| vals.iter().map(move |&y| (x, y)))
        .filter(|(x, y)| !(x.is_nan() && y.is_nan()) || x.to_bits() == y.to_bits())
        .collect();
    let n = pairs.len() as u32;
    let (xs, ys): (Vec<f32>, Vec<f32>) = pairs.iter().copied().unzip();
    let case = Case {
        src: r#"
            class Cmp {
            public:
                float* a; float* b; int* out; float* fout;
                void operator()(int i) {
                    float x = a[i]; float y = b[i];
                    int r = 0;
                    if (x == y) { r = r + 1; }
                    if (x != y) { r = r + 2; }
                    if (x < y) { r = r + 4; }
                    if (x <= y) { r = r + 8; }
                    if (x > y) { r = r + 16; }
                    if (x >= y) { r = r + 32; }
                    if (x < 1.5f) { r = r + 64; }
                    if (!(x >= y)) { r = r + 128; }
                    out[2 * i] = r;
                    bool e = x == y; bool ne = x != y; bool lt = x < y;
                    bool le = x <= y; bool gt = x > y; bool ge = x >= y;
                    int s = 0;
                    if (e) { s = s + 1; } else { s = s + 1000; }
                    out[2 * i + 1] = s + (ne ? 2 : 0) + (lt ? 4 : 0) + (le ? 8 : 0)
                        + (gt ? 16 : 0) + (ge ? 32 : 0);
                    fout[2 * i] = x < y ? x : y;
                    fout[2 * i + 1] = x >= 1.0f ? y : x;
                }
            };
        "#
        .into(),
        class: "Cmp",
        n,
        blocks: vec![f32s(&xs), f32s(&ys), zeros(2 * n), zeros(2 * n)],
        scalars: 0,
        reduce: false,
    };
    let out = &check(&case)[2];
    // NaN against 1.0: no predicate holds.
    let k = pairs.iter().position(|&(x, y)| x.is_nan() && y == 1.0).unwrap();
    assert_eq!(word(out, 2 * k) & 63, 0, "an ordered predicate held on NaN");
}

#[test]
fn integer_conversions_round_like_the_interpreter() {
    let wide = (1i64 << 53) + (1 << 29) + 1;
    let longs: &[i64] = &[
        wide,
        -wide,
        (1 << 24) + 1,
        (1 << 24) + 3,
        i64::MAX,
        i64::MIN,
        (1 << 62) + (1 << 38) + 1,
        0,
        -1,
        1 << 31,
        0x7FFF_FF7F_FFFF_FFFF,
        123_456_789,
    ];
    let floats: &[f32] = &[
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        3e9,
        -3e9,
        2.5,
        -2.5,
        0.999_999_94,
        2_147_483_520.0,
        9.223_371_5e18,
        -9.223_372e18,
        -0.0,
    ];
    let n = longs.len() as u32;
    let case = Case {
        src: r#"
            class Conv {
            public:
                long* l; float* a; float* fout; int* iout; long* lout;
                void operator()(int i) {
                    long v = l[i];
                    fout[3 * i] = (float)v;
                    fout[3 * i + 1] = (float)(int)v;
                    fout[3 * i + 2] = (float)(double)a[i] + (float)i;
                    iout[i] = (int)a[i];
                    lout[i] = (long)a[i];
                }
            };
        "#
        .into(),
        class: "Conv",
        n,
        blocks: vec![i64s(longs), f32s(floats), zeros(3 * n), zeros(n), zeros(2 * n)],
        scalars: 0,
        reduce: false,
    };
    let fout = &check(&case)[2];
    // `v as f64 as f32`: 2^53 + 2^29 + 1 rounds to 2^53 + 2^29 in double,
    // a tie that goes to 2^53 in single; rounding once would give
    // 2^53 + 2^30.
    assert_eq!(f32::from_bits(word(fout, 0)), 9_007_199_254_740_992.0);
}

#[test]
fn singles_ride_phis_selects_and_calls() {
    let xs: Vec<f32> =
        (0..40).map(|i| (i as f32 - 17.0) * 0.37 + if i % 9 == 0 { 1e30 } else { 0.0 }).collect();
    let n = xs.len() as u32;
    let case = Case {
        src: format!(
            "{HALVE}{}",
            r#"
            class Carry {
            public:
                float* a; float* out;
                void operator()(int i) {
                    float x = a[i];
                    float t = x; float u = 1.0f;
                    for (int k = 0; k < i % 4 + 1; k++) {
                        float s = t;
                        t = u * 0.75f + x;
                        u = s - 0.5f;
                    }
                    float m = t > u ? t : u;
                    out[4 * i] = t;
                    out[4 * i + 1] = u;
                    out[4 * i + 2] = m;
                    out[4 * i + 3] = halve(x + u, i % 3 + 1);
                }
            };
        "#
        ),
        class: "Carry",
        n,
        blocks: vec![f32s(&xs), zeros(4 * n)],
        scalars: 0,
        reduce: false,
    };
    check(&case);
}

#[test]
fn a_float_reduction_joins_identically() {
    let xs: Vec<f32> = (0..1000).map(|i| ((i * 37) % 101) as f32 * 0.013 - 0.6).collect();
    let case = Case {
        src: r#"
            class Sum {
            public:
                float* data; float acc;
                void operator()(int i) { acc += data[i] * 0.5f + 0.1f; }
                void join(Sum* other) { acc += other->acc; }
            };
        "#
        .into(),
        class: "Sum",
        n: xs.len() as u32,
        blocks: vec![f32s(&xs)],
        scalars: 8,
        reduce: true,
    };
    let body = &check(&case)[1];
    assert!(f32::from_bits(word(body, 2)) != 0.0, "the reduction ran");
}

#[test]
fn signalling_nans_are_quieted_where_the_interpreter_widens_them() {
    // Raw bits from the host: two signalling NaNs with payloads, the
    // smallest signalling NaN, a quiet NaN, and two ordinary values.
    let bits: &[u32] =
        &[0x7FA0_0001, 0xFFA0_0002, 0x7F80_0001, 0x7FC0_0003, 0x3FC0_0000, 0x8000_0000];
    let n = bits.len() as u32;
    let case = Case {
        src: format!(
            "{HALVE}{}",
            r#"
            class Sig {
            public:
                float* a; float* out;
                void operator()(int i) {
                    float x = a[i];
                    out[5 * i] = x;
                    out[5 * i + 1] = fabsf(x);
                    float c = i > 100 ? 1.0f : x;
                    out[5 * i + 2] = c;
                    out[5 * i + 3] = halve(x, 0);
                    out[5 * i + 4] = fminf(x, 2.0f) + fabsf(-x);
                }
            };
        "#
        ),
        class: "Sig",
        n,
        blocks: vec![words(bits), zeros(5 * n)],
        scalars: 0,
        reduce: false,
    };
    let out = &check(&case)[1];
    // The interpreter widens every f32 load to f64, which quiets a
    // signalling NaN and keeps its payload.
    assert_eq!(word(out, 0), 0x7FE0_0001);
    assert_eq!(word(out, 5), 0xFFE0_0002);
    assert_eq!(word(out, 6), 0x7FE0_0002);
    assert_eq!(word(out, 10), 0x7FC0_0001);
    assert_eq!(word(out, 15), 0x7FC0_0003);
}
