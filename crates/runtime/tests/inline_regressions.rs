//! Inlining a callee with a loop: the clone must map a phi input that is
//! defined later in block order, and must map every operand exactly
//! once. Each shape runs on every target against host-computed values.

use concord_energy::SystemConfig;
use concord_runtime::{Concord, Options, Target};
use concord_svm::CpuAddr;

const N: u32 = 8;
/// `*n`: the trip count of every callee loop.
const TRIPS: i32 = 5;

/// `class K { int* n; int* out; }` launched over `N` items on `target`;
/// returns `out`.
fn run(src: &str, target: Target) -> Vec<i32> {
    let mut cc = Concord::new(SystemConfig::ultrabook(), src, Options::default()).unwrap();
    let n = cc.malloc(4).unwrap();
    let out = cc.malloc(u64::from(N) * 4).unwrap();
    let body = cc.malloc(16).unwrap();
    let region = cc.region_mut();
    region.write_i32(n, TRIPS).unwrap();
    region.write_ptr(body, n).unwrap();
    region.write_ptr(CpuAddr(body.0 + 8), out).unwrap();
    cc.parallel_for_hetero("K", body, N, target).unwrap();
    let region = cc.region();
    (0..N).map(|i| region.read_i32(CpuAddr(out.0 + 4 * u64::from(i))).unwrap()).collect()
}

fn check(src: &str, want: impl Fn(i32) -> i32) {
    let want: Vec<i32> = (0..N as i32).map(want).collect();
    let mut targets = vec![Target::Cpu, Target::Gpu];
    if concord_native::supported() {
        targets.push(Target::Native);
    }
    for target in targets {
        assert_eq!(run(src, target), want, "{target:?}");
    }
}

#[test]
fn a_callee_loop_inlines() {
    let src = r#"
        int sum_to(int* p, int k) {
            int s = 0;
            for (int j = 0; j < p[0]; j++) { s = s + k; }
            return s;
        }
        class K {
        public:
            int* n; int* out;
            void operator()(int i) { out[i] = sum_to(n, i); }
        };
    "#;
    check(src, |i| TRIPS * i);
}

#[test]
fn a_callee_loop_inlines_under_a_branch() {
    let src = r#"
        int spin(int* p, int k) {
            int s = 0;
            for (int j = 0; j < p[0]; j++) { s = s + k; }
            return s;
        }
        class K {
        public:
            int* n; int* out;
            void operator()(int i) {
                int r = 0;
                if (i > 2) { r = spin(n, i); }
                out[i] = r;
            }
        };
    "#;
    check(src, |i| if i > 2 { TRIPS * i } else { 0 });
}

#[test]
fn a_callee_loop_inlines_after_its_own_callee() {
    let src = r#"
        int leaf(int a, int b) { return a + b; }
        int spin(int* p, int k) {
            int s = 0;
            for (int j = 0; j < p[0]; j++) { s = leaf(s, k); }
            return s;
        }
        class K {
        public:
            int* n; int* out;
            void operator()(int i) { out[i] = spin(n, i) + 1; }
        };
    "#;
    check(src, |i| TRIPS * i + 1);
}
