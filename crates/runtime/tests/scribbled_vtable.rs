//! A kernel can store any integer over an installed vtable slot. A virtual
//! call through that slot must then trap `BadVirtualDispatch` on every
//! target, with the same trap at every host-thread count, instead of
//! calling (or failing to find) a function id the module does not have.

use concord_ir::eval::Trap;
use concord_ir::ClassId;
use concord_runtime::{Concord, Options, RuntimeError, Target};
use concord_svm::{CpuAddr, VtableArea};

const AREAS: &str = r#"
    class Shape {
    public:
        int r;
        virtual int area() { return 0; }
    };
    class Square : public Shape {
    public:
        int area() { return r * r; }
    };
    class Areas {
    public:
        Shape* s; int* out;
        void operator()(int i) { out[i] = s->area(); }
    };
"#;

fn run(target: Target, host_threads: usize) -> RuntimeError {
    let opts = Options { host_threads: Some(host_threads), ..Options::default() };
    let mut cc = Concord::new(concord_energy::SystemConfig::ultrabook(), AREAS, opts).unwrap();
    let square = ClassId(1);
    assert_eq!(cc.program().module.class(square).name, "Square");
    let bogus = cc.program().module.functions.len() as i64 + 5;
    let out = cc.malloc(64 * 4).unwrap();
    let shape = cc.malloc(16).unwrap();
    let body = cc.malloc(16).unwrap();
    let region = cc.region_mut();
    region.write_ptr(shape, VtableArea::addr_of(square)).unwrap();
    region.write_i64(VtableArea::addr_of(square).offset(16), bogus).unwrap();
    region.write_ptr(body, shape).unwrap();
    region.write_ptr(CpuAddr(body.0 + 8), out).unwrap();
    cc.parallel_for_hetero("Areas", body, 64, target).unwrap_err()
}

#[test]
fn a_scribbled_vtable_slot_traps_on_every_target() {
    let want =
        RuntimeError::Trap(Trap::BadVirtualDispatch { vptr: VtableArea::addr_of(ClassId(1)).0 });
    let mut targets = vec![Target::Cpu];
    if concord_native::supported() {
        targets.push(Target::Native);
    }
    for target in targets {
        for ht in [1, 8] {
            assert_eq!(run(target, ht), want, "{target} at host threads {ht}");
        }
    }
}
