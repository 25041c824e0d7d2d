//! `Concord::native_hazard_serialized` counts exactly the native launches
//! a CA108 verdict ran in chunk order: +1 per `for` launch of a
//! cross-item-reading kernel, blocking or submitted; +0 for a worklist
//! round of the same body (exempt) and for a gated (CAS) kernel (in order
//! anyway). The count may not depend on the analysis gate level — the
//! scheduler's facts are computed on first need at every level — nor on
//! the host fan-out.

use concord_runtime::{AnalysisGate, Concord, Options, Target};
use concord_svm::CpuAddr;

/// Item `i` loads the cell item `i + 1` stores (CA108).
const STENCIL: &str = include_str!("../../analyze/fixtures/cross_item_read.cc");

/// Compare-and-swap is an order-dependent (gated) operation.
const CAS: &str = r#"
    class CasMark {
    public:
        int* cells;
        int n;
        void operator()(int i) { atomic_cas(&cells[i], 0, 1); }
    };
"#;

const N: u32 = 64;

/// The counter after each step of one session's fixed launch sequence.
fn counts(gate: AnalysisGate, host_threads: usize) -> Vec<u64> {
    let opts = Options { analysis: gate, host_threads: Some(host_threads), ..Options::default() };
    let source = format!("{STENCIL}\n{CAS}");
    let mut cc = Concord::new(concord_energy::SystemConfig::ultrabook(), &source, opts).unwrap();
    let cells = cc.malloc(u64::from(N + 1) * 4).unwrap();
    let body = cc.malloc(16).unwrap();
    cc.region_mut().write_ptr(body, cells).unwrap();
    cc.region_mut().write_i32(CpuAddr(body.0 + 8), N as i32).unwrap();
    let mut out = Vec::new();

    cc.parallel_for_hetero("StencilShift", body, N, Target::Native).unwrap();
    out.push(cc.native_hazard_serialized());
    let id = cc.submit_for("StencilShift", body, N, Target::Native).unwrap();
    cc.complete(id).unwrap();
    out.push(cc.native_hazard_serialized());
    let seed: Vec<i32> = (0..N as i32).collect();
    cc.parallel_worklist_hetero("StencilShift", body, &seed, Target::Native).unwrap();
    out.push(cc.native_hazard_serialized());
    cc.parallel_for_hetero("CasMark", body, N, Target::Native).unwrap();
    let id = cc.submit_for("CasMark", body, N, Target::Native).unwrap();
    cc.complete(id).unwrap();
    out.push(cc.native_hazard_serialized());
    out
}

#[test]
fn native_hazard_serialized_counts_ca108_launches_at_every_gate() {
    if !concord_native::supported() {
        return;
    }
    for gate in [AnalysisGate::Warn, AnalysisGate::Deny] {
        for host_threads in [1, 8] {
            assert_eq!(
                counts(gate, host_threads),
                [1, 2, 2, 2],
                "gate {gate:?}, host_threads {host_threads}: blocking +1, submitted +1, \
                 worklist round +0, gated kernel +0"
            );
        }
    }
}
