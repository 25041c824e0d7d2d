//! Differential battery for the native JIT backend: every workload runs
//! under `Target::Native` and must produce byte-identical shared-region
//! contents (which covers reduce totals bit-for-bit) to the same workload
//! under `Target::Cpu`, at host-thread counts 1 and 8 — plus trap
//! determinism: a trapping kernel reports the same trap (kernel name and
//! lowest global work-item id) the interpreter does, at any fan-out.
//!
//! Everything is skipped on hosts where `concord_native::supported()` is
//! false; the backend cfg-gates to x86-64 Linux.

use concord_energy::SystemConfig;
use concord_ir::types::AddrSpace;
use concord_runtime::{Concord, Options, RuntimeError, Target};
use concord_svm::CPU_BASE;
use concord_workloads::{all_workloads, worklist_workloads, Scale, Workload};

/// Full shared-region contents — sessions over the same source perform the
/// same allocation sequence, so whole-region equality is well-defined.
fn region_bytes(cc: &Concord) -> Vec<u8> {
    let cap = cc.region().capacity();
    cc.region().read_bytes(CPU_BASE, AddrSpace::Cpu, cap).unwrap().to_vec()
}

/// Build a fresh session for `w`, run it on `target` with `ht` host
/// threads, and return (region bytes, verified-against-reference).
fn run_workload(w: &dyn Workload, target: Target, ht: usize) -> (Vec<u8>, bool) {
    let spec = w.spec();
    let opts = Options { host_threads: Some(ht), ..Options::default() };
    let mut cc = Concord::new(SystemConfig::ultrabook(), spec.source, opts).unwrap();
    let mut inst = w.build(&mut cc, Scale::Tiny).unwrap();
    inst.run(&mut cc, target).unwrap_or_else(|e| panic!("{}: {target} run failed: {e}", spec.name));
    let verified = inst.verify(&cc).is_ok();
    (region_bytes(&cc), verified)
}

fn assert_same_bytes(name: &str, ht: usize, native: &[u8], cpu: &[u8]) {
    assert_eq!(native.len(), cpu.len(), "{name}: region capacity diverged");
    if let Some(i) = (0..native.len()).find(|&i| native[i] != cpu[i]) {
        panic!(
            "{name}: native (host_threads={ht}) diverges from cpu at region byte {i}: \
             {:#04x} vs {:#04x}",
            native[i], cpu[i]
        );
    }
}

#[test]
fn all_nine_workloads_native_matches_cpu_bytes() {
    if !concord_native::supported() {
        return;
    }
    for w in all_workloads() {
        let name = w.spec().name;
        let (cpu_bytes, cpu_ok) = run_workload(&*w, Target::Cpu, 1);
        assert!(cpu_ok, "{name}: CPU reference run failed verification");
        for ht in [1usize, 8] {
            let (native_bytes, native_ok) = run_workload(&*w, Target::Native, ht);
            assert!(native_ok, "{name}: native run (host_threads={ht}) failed verification");
            assert_same_bytes(name, ht, &native_bytes, &cpu_bytes);
        }
    }
}

/// A kernel that traps (null-pointer store) only from work-item 37 on:
/// chunks past the first also trap, at higher ids, so first-trap-wins is
/// observable — the reported trap must be item 37's, exactly as it is
/// when the items run serially.
const LATE_TRAP: &str = r#"
    class LateTrap {
    public:
        int* data;
        void operator()(int i) { if (i >= 37) { data[i] = 1; } }
    };
"#;

fn run_trap(target: Target, ht: usize) -> RuntimeError {
    let opts = Options { host_threads: Some(ht), ..Options::default() };
    let mut cc = Concord::new(SystemConfig::ultrabook(), LATE_TRAP, opts).unwrap();
    let body = cc.malloc(8).unwrap();
    // `data` stays null, so every item >= 37 faults on its store.
    cc.parallel_for_hetero("LateTrap", body, 100, target).unwrap_err()
}

#[test]
fn trap_is_first_trap_wins_and_matches_interpreter() {
    if !concord_native::supported() {
        return;
    }
    let reference = run_trap(Target::Cpu, 1);
    // The interpreter's serial order defines the answer: item 37, whose
    // null-based store faults at address 4 * 37 (`BadAddress` carries the
    // faulting address, so the winning item is visible through it).
    match &reference {
        RuntimeError::Trap(concord_ir::eval::Trap::BadAddress { addr, .. }) => {
            assert_eq!(*addr, 4 * 37, "lowest trapping item must define the fault address");
        }
        other => panic!("expected a bad-address trap, got {other:?}"),
    }
    for ht in [1usize, 8] {
        let native = run_trap(Target::Native, ht);
        assert_eq!(
            native, reference,
            "native trap (host_threads={ht}) must match the interpreter's"
        );
    }
}

/// Codegen is a pure function of its input: each of the 13 programs,
/// compiled twice from source, yields identical code bytes. (The
/// benchmark's `compile` workload checks only the length.)
#[test]
fn codegen_is_deterministic_for_every_program() {
    if !concord_native::supported() {
        return;
    }
    let worklists = worklist_workloads().into_iter().map(|w| w as Box<dyn Workload>);
    let programs: Vec<Box<dyn Workload>> = all_workloads().into_iter().chain(worklists).collect();
    assert_eq!(programs.len(), 13);
    for w in programs {
        let spec = w.spec();
        let code = || {
            let mut lp = concord_frontend::compile(spec.source).unwrap();
            concord_compiler::optimize_for_cpu(&mut lp.module);
            concord_native::compile(&lp.module).unwrap().code().to_vec()
        };
        assert!(code() == code(), "{}: two compiles produced different code", spec.name);
    }
}
