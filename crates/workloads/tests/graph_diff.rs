//! Differential battery for the dependency-aware launch graph: every
//! workload's full session — two independent instances built side by side
//! in one shared region, run back to back so their op streams interleave
//! independent and conflicting launches — is recorded once, then replayed
//! through the serial blocking path and through the submit/complete graph
//! path. The two replays must agree **byte for byte** on the whole shared
//! region (which covers reduce totals bit-for-bit), report for report, at
//! host-thread counts 1 and 8, on every target.
//!
//! Why two instances: launches of one instance conflict with each other
//! (same arrays — the graph must serialize them exactly as the serial
//! path does), while launches of different instances touch provably
//! disjoint allocations — the graph is free to keep them pending
//! together and wave them. Host writes between launches exercise the
//! `complete_touching` barrier: a write to instance B's frontier must
//! drain only launches that touch it, leaving instance A's pending.

use concord_energy::SystemConfig;
use concord_ir::types::AddrSpace;
use concord_runtime::{Concord, Options, RuntimeError, SessionOp, Target};
use concord_svm::CPU_BASE;
use concord_workloads::{all_workloads, Scale, Workload};

fn fresh(source: &str, ht: usize) -> Concord {
    let opts = Options { host_threads: Some(ht), ..Options::default() };
    Concord::new(SystemConfig::ultrabook(), source, opts).unwrap()
}

fn region_bytes(cc: &Concord) -> Vec<u8> {
    let cap = cc.region().capacity();
    cc.region().read_bytes(CPU_BASE, AddrSpace::Cpu, cap).unwrap().to_vec()
}

/// Record one session: two instances of `w` built into one region, both
/// run to completion on `target`. Returns the op stream and the recording
/// run's final region bytes (the reference the replays must reproduce).
fn record(w: &dyn Workload, target: Target) -> (Vec<SessionOp>, Vec<u8>) {
    let spec = w.spec();
    let mut cc = fresh(spec.source, 1);
    cc.record_session(true);
    let mut a = w.build(&mut cc, Scale::Tiny).unwrap();
    let mut b = w.build(&mut cc, Scale::Tiny).unwrap();
    a.run(&mut cc, target).unwrap_or_else(|e| panic!("{}: run A failed: {e}", spec.name));
    b.run(&mut cc, target).unwrap_or_else(|e| panic!("{}: run B failed: {e}", spec.name));
    assert!(a.verify(&cc).is_ok(), "{}: instance A failed verification", spec.name);
    assert!(b.verify(&cc).is_ok(), "{}: instance B failed verification", spec.name);
    let ops = cc.take_session();
    assert!(
        ops.iter().filter(|op| matches!(op, SessionOp::Launch { .. })).count() >= 2,
        "{}: expected at least two recorded launches",
        spec.name
    );
    (ops, region_bytes(&cc))
}

type LaunchResults = Vec<Result<concord_runtime::OffloadReport, RuntimeError>>;

/// The comparable face of a report. Simulated targets are deterministic
/// end to end, so the whole report must match; `Target::Native` measures
/// real wall-clock JIT and execution time (and derives joules from it),
/// so only the deterministic fields are compared there.
fn report_key(r: &concord_runtime::OffloadReport, target: Target) -> String {
    if matches!(target, Target::Native) {
        format!(
            "on_gpu={} fell_back={} translations={} transactions={} contended={} insts={}",
            r.on_gpu, r.fell_back, r.translations, r.transactions, r.contended, r.insts
        )
    } else {
        format!("{r:?}")
    }
}

fn assert_results_eq(name: &str, target: Target, ht: usize, s: &LaunchResults, g: &LaunchResults) {
    assert_eq!(s.len(), g.len(), "{name} on {target}: launch count diverged");
    for (i, (rs, rg)) in s.iter().zip(g.iter()).enumerate() {
        match (rs, rg) {
            (Ok(a), Ok(b)) => assert_eq!(
                report_key(a, target),
                report_key(b, target),
                "{name} on {target} (host_threads={ht}): report {i} diverged"
            ),
            (Err(a), Err(b)) => {
                assert_eq!(a, b, "{name} on {target} (host_threads={ht}): trap {i} diverged")
            }
            _ => panic!(
                "{name} on {target} (host_threads={ht}): launch {i} succeeded on one \
                 path and trapped on the other ({rs:?} vs {rg:?})"
            ),
        }
    }
}

fn diff_one_target(target: Target) {
    for w in all_workloads() {
        let spec = w.spec();
        let name = spec.name;
        let (ops, reference) = record(&*w, target);

        let mut serial = fresh(spec.source, 1);
        let serial_results = serial.replay_serial(&ops).unwrap();
        let serial_bytes = region_bytes(&serial);
        assert_eq!(
            serial_bytes, reference,
            "{name} on {target}: serial replay diverged from the recording run"
        );

        for ht in [1usize, 8] {
            let mut graph = fresh(spec.source, ht);
            let graph_results = graph.replay_graph(&ops).unwrap();
            let graph_bytes = region_bytes(&graph);
            if let Some(i) = (0..serial_bytes.len()).find(|&i| serial_bytes[i] != graph_bytes[i]) {
                panic!(
                    "{name} on {target} (host_threads={ht}): graph replay diverges at region \
                     byte {i}: {:#04x} vs {:#04x}",
                    serial_bytes[i], graph_bytes[i]
                );
            }
            assert_results_eq(name, target, ht, &serial_results, &graph_results);
            let stats = graph.graph_stats();
            assert_eq!(
                stats.submitted, stats.completed,
                "{name} on {target} (host_threads={ht}): graph drained clean"
            );
        }
    }
}

#[test]
fn graph_replay_matches_serial_on_cpu() {
    diff_one_target(Target::Cpu);
}

#[test]
fn graph_replay_matches_serial_on_gpu() {
    diff_one_target(Target::Gpu);
}

#[test]
fn graph_replay_matches_serial_on_hybrid() {
    diff_one_target(Target::Hybrid { gpu_fraction: 0.5 });
}

#[test]
fn graph_replay_matches_serial_on_auto() {
    diff_one_target(Target::Auto);
}

#[test]
fn graph_replay_matches_serial_on_native() {
    if !concord_native::supported() {
        return;
    }
    diff_one_target(Target::Native);
}

/// The graph path must reproduce the serial path's *trap choice*: when a
/// recorded stream contains trapping launches among healthy ones, both
/// replays report the same trap identity in the same slot and the later
/// launches still run. Two fixtures: a null body field (opaque footprint,
/// so every launch drains solo), and a kernel that traps at one item while
/// its footprint stays resolvable, placed so the trap rides a Cpu+Gpu pair
/// wave and a Gpu+Gpu batch wave (partial commit, later member still runs).
#[test]
fn graph_replay_preserves_trap_choice_and_order() {
    const STORE: &str = r#"
        class Store {
        public:
            int* out; int n;
            void operator()(int i) { out[i] = i + 1; }
        };
    "#;
    const DIV: &str = r#"
        class Div {
        public:
            int* out; int k;
            void operator()(int i) { out[i] = 100 / (i - k); }
        };
    "#;
    fn record_store(cc: &mut Concord) {
        let out = cc.malloc(64 * 4).unwrap();
        let good = cc.malloc(16).unwrap();
        cc.region_mut().write_ptr(good, out).unwrap();
        // `bad` keeps a null `out`: its launch traps on every item; the
        // serial caller ignores the error and continues.
        let bad = cc.malloc(16).unwrap();
        let _ = cc.parallel_for_hetero("Store", bad, 64, Target::Cpu);
        cc.parallel_for_hetero("Store", good, 64, Target::Gpu).unwrap();
    }
    fn record_div(cc: &mut Concord) {
        // Four launches over four disjoint arrays; `k` inside `[0, 64)`
        // divides by zero at item `k`, `k = 64` never does. Cpu(trap) +
        // Gpu(ok) pair up, then Gpu(trap) + Gpu(ok) batch.
        let launches = [(Target::Cpu, 37), (Target::Gpu, 64), (Target::Gpu, 21), (Target::Gpu, 64)];
        let bodies = launches.map(|(_, k)| {
            let out = cc.malloc(64 * 4).unwrap();
            let body = cc.malloc(16).unwrap();
            cc.region_mut().write_ptr(body, out).unwrap();
            cc.region_mut().write_i32(body.offset(8), k).unwrap();
            body
        });
        for ((target, _), body) in launches.into_iter().zip(bodies) {
            let _ = cc.parallel_for_hetero("Div", body, 64, target);
        }
    }
    type Fixture = (&'static str, &'static str, fn(&mut Concord), &'static [bool], u64, u64);
    let fixtures: [Fixture; 2] = [
        ("Store", STORE, record_store, &[false, true], 0, 0),
        ("Div", DIV, record_div, &[false, true, false, true], 1, 1),
    ];
    for (name, src, record, shape, overlapped, fences_elided) in fixtures {
        let ops = {
            let mut cc = fresh(src, 1);
            cc.record_session(true);
            record(&mut cc);
            cc.take_session()
        };
        let mut serial = fresh(src, 1);
        let s = serial.replay_serial(&ops).unwrap();
        let ok: Vec<bool> = s.iter().map(Result::is_ok).collect();
        assert_eq!(ok, shape, "{name}: fixture shape (which launches trap)");
        for ht in [1usize, 8] {
            let mut graph = fresh(src, ht);
            let g = graph.replay_graph(&ops).unwrap();
            assert_results_eq(name, Target::Cpu, ht, &s, &g);
            assert_eq!(region_bytes(&serial), region_bytes(&graph), "{name}: bytes (ht={ht})");
            let stats = graph.graph_stats();
            assert!(stats.overlapped >= overlapped, "{name}: no pair wave formed (ht={ht})");
            assert!(stats.fences_elided >= fences_elided, "{name}: no batch formed (ht={ht})");
        }
    }
}
