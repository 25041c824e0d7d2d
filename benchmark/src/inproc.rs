//! The three in-process execution workloads: `native_exec`,
//! `small_launches` and `sim_exec`.

use crate::harness::{InProc, Recorder};
use crate::metrics::{LayerValues, MANY_LAUNCH, ONE_LAUNCH, TABLE1};
use crate::programs::{
    double_add, double_body, double_expected, options, read_bytes, sum_body, sum_data, system,
    write_bytes, Program, HOST_THREADS, KERNELS,
};
use crate::spans::Spans;
use crate::stats::{geomean, median, median_seconds};
use concord_ir::eval::Value;
use concord_ir::types::{AddrSpace, Type};
use concord_runtime::{Concord, Target};
use concord_svm::{apply_log, CpuAddr, RegionMem, ShadowRegion, SharedAllocator, SharedRegion};
use concord_trace::TraceConfig;
use concord_workloads::{worklist_workloads, RunTotals, Scale};
use std::hint::black_box;

fn build_all(
    names: &[&str],
    scale: Scale,
    host_threads: usize,
    trace: TraceConfig,
) -> Vec<Program> {
    let unkept = Spans::unkept();
    names.iter().map(|n| Program::build(n, scale, host_threads, trace, &unkept)).collect()
}

/// Median seconds of three native runs of each program.
fn native_medians(programs: &mut [Program]) -> Vec<f64> {
    let unkept = Spans::unkept();
    programs
        .iter_mut()
        .map(|p| {
            let mut runs: Vec<f64> = (0..3)
                .map(|_| {
                    p.cc.tracer().clear();
                    p.run_checked(Target::Native, "", &unkept).0.as_secs_f64()
                })
                .collect();
            median(&mut runs)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// native_exec
// ---------------------------------------------------------------------------

/// The six one-launch Table-1 programs at `Scale::Medium` on
/// `Target::Native`: per-item execution in JIT code does the work.
pub struct NativeExec {
    seed: u64,
    programs: Vec<Program>,
    span_names: Vec<String>,
}

impl NativeExec {
    pub fn new(seed: u64, spans: &Spans) -> NativeExec {
        let programs = ONE_LAUNCH
            .iter()
            .map(|n| Program::build(n, Scale::Medium, HOST_THREADS, TraceConfig::default(), spans))
            .collect();
        let span_names = ONE_LAUNCH.iter().map(|n| format!("native.run_ms.{n}")).collect();
        NativeExec { seed, programs, span_names }
    }
}

impl InProc for NativeExec {
    fn classes(&self) -> Vec<String> {
        ONE_LAUNCH.iter().map(|n| n.to_string()).collect()
    }

    fn pass(&mut self, rec: &mut Recorder, spans: &Spans) {
        for (i, p) in self.programs.iter_mut().enumerate() {
            spans.next_op();
            let (elapsed, _, ok) = p.run_checked(Target::Native, &self.span_names[i], spans);
            rec.op(i, elapsed, ok);
        }
    }

    fn layers(&mut self, rec: &Recorder, out: &mut LayerValues) {
        let at_two = rec.class_medians();
        let ratios = |other: Vec<f64>| -> Vec<f64> {
            other.iter().zip(&at_two).map(|(o, two)| o / two).collect()
        };
        // Fan-out scaling: the same runs on one host thread over the
        // measured ones on two; below 1 the fan-out costs more than it buys.
        let mut serial = build_all(&ONE_LAUNCH, Scale::Medium, 1, TraceConfig::default());
        out.set("pool.ht_speedup_geomean", geomean(&ratios(native_medians(&mut serial))));
        drop(serial);
        let mut traced =
            build_all(&ONE_LAUNCH, Scale::Medium, HOST_THREADS, TraceConfig::enabled());
        out.set("trace.enabled_overhead_ratio", geomean(&ratios(native_medians(&mut traced))));
        drop(traced);

        // Per-item cost of a light kernel and of a reduction: one launch
        // over a million items, less the fixed cost of a one-item launch.
        const ITEMS: u32 = 1 << 20;
        let mut cc = Concord::new(system(), KERNELS, options(HOST_THREADS, TraceConfig::default()))
            .expect("benchmark kernels compile");
        let array = cc.malloc(u64::from(ITEMS) * 4).expect("alloc probe output");
        let double = double_body(&mut cc, array, double_add(self.seed));
        let sum = sum_body(&mut cc, &sum_data(self.seed, ITEMS));
        let mut launch = |class: &str, body: CpuAddr, n: u32, reduce: bool, reps: usize| {
            median_seconds(reps, || {
                let r = if reduce {
                    cc.parallel_reduce_hetero(class, body, n, Target::Native)
                } else {
                    cc.parallel_for_hetero(class, body, n, Target::Native)
                };
                r.expect("probe launch");
            })
        };
        let fixed = launch("Double", double, 1, false, 200);
        let fixed_reduce = launch("Sum", sum, 1, true, 200);
        let light = launch("Double", double, ITEMS, false, 15);
        let reduce = launch("Sum", sum, ITEMS, true, 15);
        out.set("native.launch_fixed_us", fixed * 1e6);
        out.set("native.ns_per_item.light", (light - fixed) * 1e9 / f64::from(ITEMS));
        out.set("native.ns_per_item.reduce", (reduce - fixed_reduce) * 1e9 / f64::from(ITEMS));
    }
}

// ---------------------------------------------------------------------------
// small_launches
// ---------------------------------------------------------------------------

const SMALL_N: u32 = 256;
const LAUNCHES: u32 = 256;

/// The many-launch programs plus two synthetic classes of 256 tiny
/// launches each: plan, fence, graph, pool fan-out and the frontier merge
/// dominate, per-item speed barely matters.
pub struct SmallLaunches {
    programs: Vec<Program>,
    span_names: Vec<String>,
    kernels: Concord,
    add: i32,
    /// Output of `double256`, and its body.
    out: CpuAddr,
    body: CpuAddr,
    /// Output of `pair256` (two halves of `SMALL_N` ints) and the two bodies.
    pair_out: CpuAddr,
    pair: [CpuAddr; 2],
}

impl SmallLaunches {
    pub fn new(seed: u64, spans: &Spans) -> SmallLaunches {
        let programs = MANY_LAUNCH
            .iter()
            .map(|n| Program::build(n, Scale::Medium, HOST_THREADS, TraceConfig::default(), spans))
            .collect();
        let span_names = MANY_LAUNCH.iter().map(|n| format!("runtime.small_ms.{n}")).collect();
        let mut kernels =
            Concord::new(system(), KERNELS, options(HOST_THREADS, TraceConfig::default()))
                .expect("benchmark kernels compile");
        let add = double_add(seed);
        let half = u64::from(SMALL_N) * 4;
        let out = kernels.malloc(half).expect("alloc");
        let body = double_body(&mut kernels, out, add);
        let pair_out = kernels.malloc(2 * half).expect("alloc");
        let pair = [
            double_body(&mut kernels, pair_out, add),
            double_body(&mut kernels, pair_out.offset(half), add),
        ];
        SmallLaunches { programs, span_names, kernels, add, out, body, pair_out, pair }
    }

    /// `LAUNCHES` blocking launches of `SMALL_N` items.
    fn double256(&mut self, spans: &Spans) -> (std::time::Duration, bool) {
        let bytes = u64::from(SMALL_N) * 4;
        write_bytes(&mut self.kernels, self.out, &vec![0; bytes as usize]);
        let (launched, elapsed) = spans.time("runtime.double256_ms", || {
            (0..LAUNCHES).all(|_| {
                self.kernels
                    .parallel_for_hetero("Double", self.body, SMALL_N, Target::Native)
                    .is_ok()
            })
        });
        let ok = launched
            && read_bytes(&self.kernels, self.out, bytes) == double_expected(SMALL_N, self.add);
        (elapsed, ok)
    }

    /// `LAUNCHES / 2` pairs of launches on disjoint halves of one
    /// allocation, each pair submitted to the launch graph and completed.
    fn pair256(&mut self, spans: &Spans) -> (std::time::Duration, bool) {
        let half = u64::from(SMALL_N) * 4;
        write_bytes(&mut self.kernels, self.pair_out, &vec![0; 2 * half as usize]);
        let cc = &mut self.kernels;
        let pair = self.pair;
        let (launched, elapsed) = spans.time("runtime.pair256_ms", || {
            (0..LAUNCHES / 2).all(|_| {
                let ids = pair.map(|body| cc.submit_for("Double", body, SMALL_N, Target::Native));
                cc.complete_all();
                ids.into_iter().all(|id| id.and_then(|id| cc.complete(id)).is_ok())
            })
        });
        let expected = double_expected(SMALL_N, self.add);
        let got = read_bytes(&self.kernels, self.pair_out, 2 * half);
        let ok = launched && got[..half as usize] == expected && got[half as usize..] == expected;
        (elapsed, ok)
    }

    fn hazard_serialized(&self) -> u64 {
        self.programs.iter().map(|p| p.cc.native_hazard_serialized()).sum::<u64>()
            + self.kernels.native_hazard_serialized()
    }
}

impl InProc for SmallLaunches {
    fn classes(&self) -> Vec<String> {
        MANY_LAUNCH.iter().copied().chain(["double256", "pair256"]).map(String::from).collect()
    }

    fn pass(&mut self, rec: &mut Recorder, spans: &Spans) {
        for (i, p) in self.programs.iter_mut().enumerate() {
            spans.next_op();
            let (elapsed, _, ok) = p.run_checked(Target::Native, &self.span_names[i], spans);
            rec.op(i, elapsed, ok);
        }
        spans.next_op();
        let (elapsed, ok) = self.double256(spans);
        rec.op(MANY_LAUNCH.len(), elapsed, ok);
        spans.next_op();
        let (elapsed, ok) = self.pair256(spans);
        rec.op(MANY_LAUNCH.len() + 1, elapsed, ok);
    }

    fn layers(&mut self, rec: &Recorder, out: &mut LayerValues) {
        let medians = rec.class_medians();
        let pairs = f64::from(LAUNCHES / 2);
        out.set("runtime.pair_submit_complete_us", medians[MANY_LAUNCH.len() + 1] * 1e6 / pairs);

        // Counters of one more pass; they must repeat exactly.
        let hazards = self.hazard_serialized();
        let graph = self.kernels.graph_stats();
        self.pass(&mut Recorder::new(&self.classes()), &Spans::unkept());
        let after = self.kernels.graph_stats();
        out.set("runtime.hazard_serialized", (self.hazard_serialized() - hazards) as f64);
        out.set("runtime.graph.overlapped", (after.overlapped - graph.overlapped) as f64);
        out.set("runtime.graph.fences_elided", (after.fences_elided - graph.fences_elided) as f64);
        out.set(
            "runtime.graph.conflict_stalls",
            (after.conflict_stalls - graph.conflict_stalls) as f64,
        );

        // Fixed cost of one launch on each simulated device.
        for (name, target) in [("cpu", Target::Cpu), ("gpu", Target::Gpu)] {
            let mut one = || {
                self.kernels.parallel_for_hetero("Double", self.body, 1, target).expect("launch");
            };
            one(); // the first GPU launch of a kernel is charged its JIT
            out.set(&format!("runtime.launch_fixed_us.{name}"), median_seconds(200, one) * 1e6);
        }

        // Host time of one frontier round.
        let frontier = worklist_workloads()
            .into_iter()
            .find(|w| w.spec().name == "FrontierBFS")
            .expect("FrontierBFS is a worklist workload");
        let opts = options(HOST_THREADS, TraceConfig::default());
        let mut cc = Concord::new(system(), frontier.spec().source, opts).expect("compile");
        let mut inst = frontier.build_worklist(&mut cc, Scale::Medium).expect("build");
        let mut rounds = 0;
        let drain = median_seconds(7, || {
            rounds = inst.drain(&mut cc, Target::Native).expect("drain").rounds();
            inst.reset(&mut cc).expect("reset");
        });
        out.set("runtime.worklist_rounds", rounds as f64);
        out.set("runtime.worklist_round_us", drain * 1e6 / rounds as f64);

        let dispatch = median_seconds(2000, || {
            black_box(concord_pool::map(HOST_THREADS, 2, black_box(|i: usize| i)));
        });
        out.set("pool.map_dispatch_us", dispatch * 1e6);
    }
}

// ---------------------------------------------------------------------------
// sim_exec
// ---------------------------------------------------------------------------

/// The simulated statistics that must repeat from pass to pass.
fn sim_stats(t: &RunTotals) -> (f64, f64, [u64; 4]) {
    (t.seconds, t.joules, [t.insts, t.transactions, t.contended, t.translations])
}

/// Counts exactly; simulated seconds and joules to 1e-9 relative, because
/// a report's joules are the difference of two readings of a cumulative
/// meter and so carry its rounding.
fn sim_stats_repeat(a: &RunTotals, b: &RunTotals) -> bool {
    let close = |x: f64, y: f64| (x - y).abs() <= 1e-9 * x.abs().max(y.abs());
    let ((sa, ja, ca), (sb, jb, cb)) = (sim_stats(a), sim_stats(b));
    close(sa, sb) && close(ja, jb) && ca == cb
}

/// All nine Table-1 programs on both simulators. `Scale::Tiny`: one pass
/// at `Scale::Small` takes over five seconds on this class of machine,
/// which leaves no room for three set-ups and a window of passes.
pub struct SimExec {
    programs: Vec<Program>,
    /// Span name per class; classes alternate cpu, gpu per program.
    span_names: Vec<String>,
    /// Per class: passes seen, and the totals of the first pass after the
    /// warm-up (whose GPU runs carry the one-time JIT charge).
    seen: Vec<u32>,
    reference: Vec<Option<RunTotals>>,
    diverged: Option<String>,
}

impl SimExec {
    pub fn new(spans: &Spans) -> SimExec {
        let mut programs: Vec<Program> = TABLE1
            .iter()
            .map(|n| Program::build(n, Scale::Tiny, HOST_THREADS, TraceConfig::default(), spans))
            .collect();
        // One cold run of every class here and one in the driver's warm-up
        // pass: the CPU model's caches take two runs to reach the state
        // they then stay in, and only from there do statistics repeat.
        let unkept = Spans::unkept();
        for p in &mut programs {
            for target in [Target::Cpu, Target::Gpu] {
                assert!(p.run_checked(target, "", &unkept).2, "{} on {target}", p.name);
            }
        }
        let span_names = TABLE1
            .iter()
            .flat_map(|n| [format!("cpusim.run_ms.{n}"), format!("gpusim.run_ms.{n}")])
            .collect();
        let classes = 2 * TABLE1.len();
        SimExec {
            programs,
            span_names,
            seen: vec![0; classes],
            reference: vec![None; classes],
            diverged: None,
        }
    }

    /// Reference totals of the cpu (`device` 0) or gpu (1) classes.
    fn device(&self, device: usize) -> Vec<RunTotals> {
        self.reference.iter().skip(device).step_by(2).map(|t| t.expect("a pass ran")).collect()
    }
}

impl InProc for SimExec {
    fn classes(&self) -> Vec<String> {
        TABLE1.iter().flat_map(|n| [format!("cpu.{n}"), format!("gpu.{n}")]).collect()
    }

    fn pass(&mut self, rec: &mut Recorder, spans: &Spans) {
        for (i, p) in self.programs.iter_mut().enumerate() {
            for (d, target) in [Target::Cpu, Target::Gpu].into_iter().enumerate() {
                let class = 2 * i + d;
                spans.next_op();
                let (elapsed, totals, mut ok) =
                    p.run_checked(target, &self.span_names[class], spans);
                if let Some(t) = totals {
                    match (self.seen[class], &self.reference[class]) {
                        (0, _) => {}
                        (_, None) => self.reference[class] = Some(t),
                        (_, Some(first)) if !sim_stats_repeat(first, &t) => {
                            ok = false;
                            self.diverged = Some(format!(
                                "{} on {target}: simulated statistics {:?} differ from the \
                                 first pass's {:?}",
                                p.name,
                                sim_stats(&t),
                                sim_stats(first)
                            ));
                        }
                        _ => {}
                    }
                }
                self.seen[class] += 1;
                rec.op(class, elapsed, ok);
            }
        }
    }

    fn layers(&mut self, rec: &Recorder, out: &mut LayerValues) {
        let host_seconds = rec.class_medians();
        for (d, sim) in ["cpusim", "gpusim"].into_iter().enumerate() {
            let insts: u64 = self.device(d).iter().map(|t| t.insts).sum();
            let host: f64 = host_seconds.iter().skip(d).step_by(2).sum();
            out.set(&format!("{sim}.insts"), insts as f64);
            out.set(&format!("{sim}.insts_per_host_s"), insts as f64 / host);
        }
        let (cpu, gpu) = (self.device(0), self.device(1));
        let sum = |f: fn(&RunTotals) -> u64| gpu.iter().map(f).sum::<u64>() as f64;
        out.set("gpusim.transactions", sum(|t| t.transactions));
        out.set("gpusim.contended", sum(|t| t.contended));
        out.set("gpusim.translations", sum(|t| t.translations));
        let busy: f64 = gpu.iter().map(RunTotals::avg_busy_fraction).sum();
        out.set("gpusim.busy_fraction", busy / gpu.len() as f64);
        out.set("energy.cpu_joules", cpu.iter().map(|t| t.joules).sum());
        out.set("energy.gpu_joules", gpu.iter().map(|t| t.joules).sum());
        let ratios = |f: fn(&RunTotals) -> f64| -> Vec<f64> {
            cpu.iter().zip(&gpu).map(|(c, g)| f(c) / f(g)).collect()
        };
        out.set("gpusim.sim_speedup_geomean", geomean(&ratios(|t| t.seconds)));
        out.set("energy.sim_savings_geomean", geomean(&ratios(|t| t.joules)));
        svm_probes(out);
    }

    fn fatal(&self) -> Option<String> {
        self.diverged.clone()
    }
}

/// `concord-svm` in isolation: allocator, bulk upload, and the shadow
/// snapshot + ordered commit the simulators run every chunk through.
fn svm_probes(out: &mut LayerValues) {
    const BLOCK: usize = 256 << 10;
    const OPS: u64 = 10_000;
    let mut region = SharedRegion::new(8 << 20, 0);
    let mut heap = SharedAllocator::new(&region);
    let block = heap.malloc(BLOCK as u64).expect("alloc");

    let pairs = median_seconds(200, || {
        for _ in 0..100 {
            let a = heap.malloc(black_box(64)).expect("alloc");
            heap.free(a).expect("free");
        }
    });
    out.set("svm.alloc_free_ns", pairs * 1e9 / 100.0);

    let image = vec![0x5Au8; BLOCK];
    let write = median_seconds(200, || {
        region.write_bytes(block.0, AddrSpace::Cpu, black_box(&image)).expect("write");
    });
    out.set("svm.write_mb_per_s", BLOCK as f64 / 1e6 / write);

    let shadow = median_seconds(20, || {
        let mut shadow = ShadowRegion::new(&region);
        for i in 0..OPS {
            shadow
                .write_val(block.0 + i * 4, AddrSpace::Cpu, Value::I(i as i64), Type::I32)
                .expect("write");
        }
        let log = shadow.into_log();
        apply_log(&mut region, &log);
    });
    out.set("svm.shadow_apply_ns_per_op", shadow * 1e9 / OPS as f64);
}
