//! Body-field register promotion.
//!
//! §4: "register promotion should be applied aggressively to eliminate
//! memory loads of the same location, in particular, across loop
//! iterations." The hottest such loads in Concord kernels are the body
//! object's fields: the frontend emits one load of `this->field` per use,
//! so a field used inside a loop is reloaded every iteration.
//!
//! For kernel entry points, the body pointer (`param 0`) is known valid
//! and its fields are only mutated through direct field stores within the
//! kernel (type-based aliasing, as a C++ compiler would assume). Every
//! load of a field offset that is never stored in the function is replaced
//! by a single load in the entry block.

use concord_ir::function::Function;
use concord_ir::inst::{Op, ValueId};
use std::collections::{HashMap, HashSet};

/// Statistics from one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FieldPromoteStats {
    /// Field loads folded into entry-block loads.
    pub loads_promoted: usize,
}

/// The constant byte offset when `v` is `gep(param0, const)` or `param0`
/// itself.
fn field_offset(f: &Function, v: ValueId, param0: ValueId) -> Option<i64> {
    if v == param0 {
        return Some(0);
    }
    if let Op::Gep { base, offset } = f.inst(v).op {
        if base == param0 {
            if let Op::ConstInt(c) = f.inst(offset).op {
                return Some(c);
            }
        }
    }
    None
}

/// Promote body-field loads in a kernel function.
pub fn run(f: &mut Function) -> FieldPromoteStats {
    let mut stats = FieldPromoteStats::default();
    if f.kernel.is_none() || f.params.is_empty() {
        return stats;
    }
    let param0 = ValueId(0);
    // Offsets written through direct field stores (not promotable).
    let mut banned: HashSet<i64> = HashSet::new();
    for b in f.block_ids() {
        for &id in &f.block(b).insts {
            if let Op::Store { ptr, .. } = f.inst(id).op {
                if let Some(c) = field_offset(f, ptr, param0) {
                    banned.insert(c);
                }
            }
        }
    }
    // Collect promotable loads: (offset, type) → load ids.
    let mut groups: HashMap<(i64, concord_ir::Type), Vec<ValueId>> = HashMap::new();
    for b in f.block_ids() {
        for &id in &f.block(b).insts {
            if let Op::Load(p) = f.inst(id).op {
                if let Some(c) = field_offset(f, p, param0) {
                    if !banned.contains(&c) {
                        groups.entry((c, f.inst(id).ty)).or_default().push(id);
                    }
                }
            }
        }
    }
    if groups.is_empty() {
        return stats;
    }
    // Entry-block insertion point: before the terminator.
    let entry = f.entry();
    let mut replace: HashMap<ValueId, ValueId> = HashMap::new();
    let mut ordered: Vec<((i64, concord_ir::Type), Vec<ValueId>)> = groups.into_iter().collect();
    ordered.sort_by_key(|((c, _), _)| *c);
    for ((offset, ty), loads) in ordered {
        let off_const = f.push_inst(Op::ConstInt(offset), concord_ir::Type::I64);
        let addr = f.push_inst(Op::Gep { base: param0, offset: off_const }, f.inst(param0).ty);
        let hoisted = f.push_inst(Op::Load(addr), ty);
        let at = f.block(entry).insts.len() - 1;
        f.block_mut(entry).insts.splice(at..at, [off_const, addr, hoisted]);
        for l in loads {
            if l != hoisted {
                replace.insert(l, hoisted);
                stats.loads_promoted += 1;
            }
        }
    }
    f.replace_all_uses(&replace, &[]);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use concord_frontend::compile;
    use concord_ir::FuncId;

    fn kernel_of(src: &str) -> (concord_ir::Module, FuncId) {
        let lp = compile(src).unwrap();
        let kf = lp.kernels[0].operator_fn;
        (lp.module, kf)
    }

    #[test]
    fn loop_invariant_fields_load_once() {
        let src = r#"
            class K {
            public:
                float* a; int n; float* out;
                void operator()(int i) {
                    float s = 0.0f;
                    for (int j = 0; j < n; j++) { s += a[j]; }
                    out[i] = s;
                }
            };
        "#;
        let (mut m, kf) = kernel_of(src);
        let f = m.function_mut(kf);
        let stats = run(f);
        assert!(stats.loads_promoted >= 2, "n and a reloads fold: {stats:?}");
        assert!(
            concord_ir::verify::verify_function(f).is_ok(),
            "{:?}",
            concord_ir::verify::verify_function(f)
        );
        // Only one load per body field remains (in the entry block).
        let loads_of_param0: usize = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|&&i| {
                if let Op::Load(p) = f.inst(i).op {
                    field_offset(f, p, ValueId(0)).is_some()
                } else {
                    false
                }
            })
            .count();
        assert_eq!(loads_of_param0, 3, "a, n, out each load exactly once");
    }

    #[test]
    fn stored_fields_are_not_promoted() {
        let src = r#"
            class K {
            public:
                float* a; float acc;
                void operator()(int i) {
                    acc = 0.0f;
                    for (int j = 0; j < 4; j++) { acc += a[j]; }
                }
            };
        "#;
        let (mut m, kf) = kernel_of(src);
        let f = m.function_mut(kf);
        run(f);
        assert!(concord_ir::verify::verify_function(f).is_ok());
        // `acc` (offset 8) is stored, so its loads must remain in place.
        let acc_loads: usize = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|&&i| {
                matches!(f.inst(i).op, Op::Load(p)
                    if field_offset(f, p, ValueId(0)) == Some(8))
            })
            .count();
        assert!(acc_loads >= 1, "stored field loads stay");
    }

    #[test]
    fn promoted_kernel_computes_same_result() {
        use concord_svm::{SharedAllocator, SharedRegion, VtableArea};
        let src = r#"
            class K {
            public:
                int* a; int n; int* out;
                void operator()(int i) {
                    int s = 0;
                    for (int j = 0; j < n; j++) { s += a[j] * (i + 1); }
                    out[i] = s;
                }
            };
        "#;
        let mut results = Vec::new();
        for promote in [false, true] {
            let lp = compile(src).unwrap();
            let kf = lp.kernels[0].operator_fn;
            let mut m = lp.module;
            if promote {
                run(m.function_mut(kf));
            }
            crate::optimize_for_cpu(&mut m);
            let mut region = SharedRegion::new(1 << 16, 0);
            let mut heap = SharedAllocator::new(&region);
            let vt = VtableArea::install(&mut region, &m).unwrap();
            let a = heap.malloc(16).unwrap();
            for j in 0..4 {
                region.write_i32(concord_svm::CpuAddr(a.0 + j * 4), j as i32 + 1).unwrap();
            }
            let out = heap.malloc(8 * 4).unwrap();
            let body = heap.malloc(24).unwrap();
            region.write_ptr(body, a).unwrap();
            region.write_i32(body.offset(8), 4).unwrap();
            region.write_ptr(body.offset(16), out).unwrap();
            let mut sim = concord_cpusim::CpuSim::new(concord_energy::SystemConfig::desktop().cpu);
            sim.parallel_for(&mut region, &vt, &m, kf, body, 8).unwrap();
            let vals: Vec<i32> = (0..8u64)
                .map(|i| region.read_i32(concord_svm::CpuAddr(out.0 + i * 4)).unwrap())
                .collect();
            results.push(vals);
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[0][0], 10); // (1+2+3+4) * 1
    }

    #[test]
    fn non_kernels_are_untouched() {
        let src = r#"
            float helper(float* p) { return p[0] + p[1]; }
            class K {
            public:
                float* a; float out;
                void operator()(int i) { out = helper(a); }
            };
        "#;
        let lp = compile(src).unwrap();
        let hf = lp.module.function_by_name("helper").unwrap();
        let mut m = lp.module;
        let stats = run(m.function_mut(hf));
        assert_eq!(stats.loads_promoted, 0);
    }
}
