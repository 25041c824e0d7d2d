//! Pins the verdicts every kernel of the 13 builtin programs runs under,
//! as the launch spans report them: `in_order` (chunks or warps in item
//! order: a gated kernel, or a native CA108 hazard) on `cpu_launch`,
//! `gpu_launch` and `native_launch`, and `body_invariant` (body fields
//! loaded once per chunk) on `native_launch`. Each program runs once at
//! `Scale::Tiny` on `Native`, `Cpu` and `Gpu`; a line lists the distinct
//! verdicts one kernel's launches carried on one target.
//!
//! A verdict may only ever move toward `in_order` or away from
//! `body_invariant` (refusing the hoist or the fan-out is always safe),
//! and such a move must be explained where it is made.

use concord_energy::SystemConfig;
use concord_runtime::{Concord, Options, Target};
use concord_trace::{ArgValue, EventKind, TraceConfig, Track};
use concord_workloads::{all_workloads, worklist_workloads, Scale, Workload};
use std::collections::BTreeSet;

/// The span names that carry a launch's verdicts.
const LAUNCH_SPANS: [&str; 3] = ["cpu_launch", "gpu_launch", "native_launch"];

/// One line per (kernel, distinct verdict set) of `w` on `target`:
/// `program/kernel target in_order=.. [body_invariant=..]`. A launch span
/// belongs to the innermost runtime span opened with a `kernel` argument.
fn verdicts(w: &dyn Workload, target: Target) -> BTreeSet<String> {
    let spec = w.spec();
    let trace = TraceConfig::enabled().with_capacity(1 << 21);
    let opts = Options { trace, ..Options::default() };
    let mut cc = Concord::new(SystemConfig::ultrabook(), spec.source, opts).unwrap();
    let mut inst = w.build(&mut cc, Scale::Tiny).unwrap();
    inst.run(&mut cc, target).unwrap_or_else(|e| panic!("{}: {target} run failed: {e}", spec.name));
    assert!(inst.verify(&cc).is_ok(), "{}: {target} run failed verification", spec.name);
    assert_eq!(cc.tracer().dropped(), 0, "{}: the trace ring dropped events", spec.name);
    let mut kernel = String::new();
    let mut out = BTreeSet::new();
    for ev in cc.tracer().events() {
        let arg = |key: &str| ev.args.iter().find(|(k, _)| *k == key).map(|(_, v)| v);
        match ev.kind {
            EventKind::Begin if ev.track == Track::Runtime => {
                if let Some(ArgValue::Str(k)) = arg("kernel") {
                    kernel = k.clone();
                }
            }
            EventKind::End if LAUNCH_SPANS.contains(&&*ev.name) => {
                let mut line = format!("{}/{kernel} {target}", spec.name);
                for key in ["in_order", "body_invariant"] {
                    if let Some(ArgValue::Bool(b)) = arg(key) {
                        line.push_str(&format!(" {key}={}", u8::from(*b)));
                    }
                }
                out.insert(line);
            }
            _ => {}
        }
    }
    assert!(!out.is_empty(), "{}: no launch on {target}", spec.name);
    out
}

fn table() -> String {
    let worklists = worklist_workloads().into_iter().map(|w| w as Box<dyn Workload>);
    let programs: Vec<Box<dyn Workload>> = all_workloads().into_iter().chain(worklists).collect();
    assert_eq!(programs.len(), 13);
    let mut targets = vec![Target::Cpu, Target::Gpu];
    if concord_native::supported() {
        targets.push(Target::Native);
    }
    let mut out = String::new();
    for w in &programs {
        for &target in &targets {
            for line in verdicts(&**w, target) {
                out.push_str(&line);
                out.push('\n');
            }
        }
    }
    out
}

const PINNED: &str = "\
BarnesHut/ForceBody cpu in_order=0
BarnesHut/ForceBody gpu in_order=0
BarnesHut/ForceBody native in_order=0 body_invariant=0
BFS/BFSBody cpu in_order=0
BFS/BFSBody gpu in_order=0
BFS/BFSBody native in_order=1 body_invariant=1
BTree/BTreeBody cpu in_order=0
BTree/BTreeBody gpu in_order=0
BTree/BTreeBody native in_order=0 body_invariant=0
ClothPhysics/ClothBody cpu in_order=0
ClothPhysics/ClothBody gpu in_order=0
ClothPhysics/ClothBody native in_order=0 body_invariant=0
ConnectedComponent/CCBody cpu in_order=0
ConnectedComponent/CCBody gpu in_order=0
ConnectedComponent/CCBody native in_order=1 body_invariant=1
FaceDetect/FaceBody cpu in_order=0
FaceDetect/FaceBody gpu in_order=0
FaceDetect/FaceBody native in_order=0 body_invariant=1
Raytracer/RayBody cpu in_order=0
Raytracer/RayBody gpu in_order=0
Raytracer/RayBody native in_order=0 body_invariant=0
SkipList/SkipListBody cpu in_order=0
SkipList/SkipListBody gpu in_order=0
SkipList/SkipListBody native in_order=0 body_invariant=0
SSSP/SSSPBody cpu in_order=0
SSSP/SSSPBody gpu in_order=0
SSSP/SSSPBody native in_order=1 body_invariant=1
FrontierBFS/FrontierBFS cpu in_order=0
FrontierBFS/FrontierBFS gpu in_order=0
FrontierBFS/FrontierBFS native in_order=0 body_invariant=1
WorklistCC/WorklistCC cpu in_order=1
WorklistCC/WorklistCC gpu in_order=1
WorklistCC/WorklistCC native in_order=1 body_invariant=0
DeltaSSSP/DeltaSSSP cpu in_order=1
DeltaSSSP/DeltaSSSP gpu in_order=1
DeltaSSSP/DeltaSSSP native in_order=1 body_invariant=0
KCore/KCore cpu in_order=1
KCore/KCore gpu in_order=1
KCore/KCore native in_order=1 body_invariant=0
";

#[test]
fn every_builtin_kernel_runs_under_its_pinned_verdicts() {
    let got = table();
    let want = if concord_native::supported() {
        PINNED.to_string()
    } else {
        PINNED.lines().filter(|l| !l.contains(" native ")).map(|l| format!("{l}\n")).collect()
    };
    assert_eq!(got, want, "launch verdicts moved; the whole table is:\n{got}");
}
