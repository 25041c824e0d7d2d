//! A virtual call can reach an object whose installed class has fewer
//! slots than the call's static class: a downcast the program gets wrong.
//! The slot past the class's vtable holds no function, so the call must
//! trap `BadVirtualDispatch` on every target, at every host-thread count,
//! instead of calling whatever id the unused word of the vtable holds.

use concord_ir::eval::Trap;
use concord_ir::ClassId;
use concord_runtime::{Concord, Options, RuntimeError, Target};
use concord_svm::{CpuAddr, VtableArea};

/// `A` has one slot (`f`); `B` adds `h` in slot 1, and `C` overrides it,
/// so `b->h()` stays a virtual call.
const DOWNCAST: &str = r#"
    class A {
    public:
        int v;
        virtual int f() { return 11; }
    };
    class B : public A {
    public:
        int f() { return 22; }
        virtual int h() { return 33; }
    };
    class C : public B {
    public:
        int h() { return 44; }
    };
    class Calls {
    public:
        A* a; int* out;
        void operator()(int i) {
            B* b = (B*)a;
            out[i] = b->h();
        }
    };
"#;

fn run(target: Target, host_threads: usize) -> Result<Vec<i32>, RuntimeError> {
    let opts = Options { host_threads: Some(host_threads), ..Options::default() };
    let mut cc = Concord::new(concord_energy::SystemConfig::ultrabook(), DOWNCAST, opts).unwrap();
    let class_a = ClassId(0);
    assert_eq!(cc.program().module.class(class_a).name, "A");
    let n = 16u32;
    let out = cc.malloc(u64::from(n) * 4).unwrap();
    let obj = cc.malloc(16).unwrap();
    let body = cc.malloc(16).unwrap();
    let region = cc.region_mut();
    region.write_ptr(obj, VtableArea::addr_of(class_a)).unwrap();
    region.write_ptr(body, obj).unwrap();
    region.write_ptr(CpuAddr(body.0 + 8), out).unwrap();
    cc.parallel_for_hetero("Calls", body, n, target)?;
    let region = cc.region();
    Ok((0..n).map(|i| region.read_i32(CpuAddr(out.0 + 4 * u64::from(i))).unwrap()).collect())
}

#[test]
fn a_slot_past_the_class_vtable_traps_on_every_target() {
    let want =
        RuntimeError::Trap(Trap::BadVirtualDispatch { vptr: VtableArea::addr_of(ClassId(0)).0 });
    let mut targets = vec![Target::Cpu];
    if concord_native::supported() {
        targets.push(Target::Native);
    }
    for target in targets {
        for ht in [1, 8] {
            assert_eq!(run(target, ht), Err(want.clone()), "{target} at host threads {ht}");
        }
    }
}
