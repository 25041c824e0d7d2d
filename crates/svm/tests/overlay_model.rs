//! The shadow overlay against the simplest possible model: a plain byte
//! array that every write and atomic lands in directly. Random interleavings
//! of 1/2/4/8-byte writes at unaligned and word-straddling offsets around
//! the boundary of two 4 KiB overlay pages, i32 atomics, and reads through
//! both the CPU and the GPU view must read back exactly what the model
//! holds, and replaying the shadow's log must leave the region byte-equal
//! to the model.

use concord_ir::eval::Value;
use concord_ir::types::{AddrSpace, Type};
use concord_svm::{
    apply_log, apply_rmw, AtomicKind, RegionMem, ShadowRegion, SharedRegion, CPU_BASE, GPU_BASE,
};
use proptest::prelude::*;

/// Modelled bytes; offsets stay below 48 so accesses pile onto a few words.
const BYTES: usize = 64;

/// Where the modelled bytes start in the region: 24 bytes before the
/// second 4 KiB overlay page, so accesses straddle the page boundary.
const BASE: u64 = 4096 - 24;

const WIDTHS: [Type; 4] = [Type::I8, Type::I16, Type::I32, Type::I64];

fn addr(off: u64, gpu: bool) -> (u64, AddrSpace) {
    if gpu {
        (GPU_BASE + BASE + off, AddrSpace::Gpu)
    } else {
        (CPU_BASE + BASE + off, AddrSpace::Cpu)
    }
}

/// The value a `ty` load of `model[off..]` yields.
fn model_read(model: &[u8], off: usize, ty: Type) -> Value {
    let mut b = [0u8; 8];
    let n = ty.size() as usize;
    b[..n].copy_from_slice(&model[off..off + n]);
    let v = i64::from_le_bytes(b);
    Value::I(match ty {
        Type::I8 => v as i8 as i64,
        Type::I16 => v as i16 as i64,
        Type::I32 => v as i32 as i64,
        _ => v,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn overlay_matches_a_byte_array(
        seed in collection::vec(any::<u8>(), BYTES..BYTES + 1),
        ops in collection::vec((0u8..4, 0u64..48, 0usize..4, any::<i64>(), any::<bool>()), 1..96),
    ) {
        let mut region = SharedRegion::new(BASE + BYTES as u64, 0);
        region.write_bytes(CPU_BASE + BASE, AddrSpace::Cpu, &seed).unwrap();
        let mut model = seed.clone();
        let mut shadow = ShadowRegion::new(&region);
        for &(kind, off, w, value, gpu) in &ops {
            let (a, space) = addr(off, gpu);
            let ty = WIDTHS[w];
            let at = off as usize;
            match kind {
                // Plain store of the low `ty.size()` bytes of `value`.
                0 | 1 => {
                    shadow.write_val(a, space, Value::I(value), ty).unwrap();
                    let n = ty.size() as usize;
                    model[at..at + n].copy_from_slice(&value.to_le_bytes()[..n]);
                }
                // i32 atomic: add, min or compare-and-swap.
                2 => {
                    let kinds = [AtomicKind::Add, AtomicKind::Min, AtomicKind::Cas];
                    let k = kinds[w % 3];
                    let (a1, a2) = (value as i32 as i64, (value >> 32) as i32 as i64);
                    let old = shadow.atomic_i32(a, space, k, a1, a2).unwrap();
                    let want = model_read(&model, at, Type::I32).as_i();
                    prop_assert_eq!(old, want, "atomic old value at {}", off);
                    let new = apply_rmw(k, want, a1, a2) as i32;
                    model[at..at + 4].copy_from_slice(&new.to_le_bytes());
                }
                // Typed read through either view.
                _ => {
                    let got = shadow.read_val(a, space, ty).unwrap();
                    prop_assert_eq!(got, model_read(&model, at, ty), "{:?} read at {}", ty, off);
                }
            }
        }
        let log = shadow.into_log();
        apply_log(&mut region, &log);
        let bytes = region.read_bytes(CPU_BASE + BASE, AddrSpace::Cpu, BYTES as u64).unwrap();
        prop_assert_eq!(bytes, &model[..], "region after apply_log");
    }
}
