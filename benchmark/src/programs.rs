//! The programs the workloads run: the 13 of `concord-workloads`, and the
//! benchmark's own three small kernels.

use crate::gen::{stream, Rng};
use crate::spans::Spans;
use concord_energy::SystemConfig;
use concord_ir::types::AddrSpace;
use concord_runtime::{Concord, Options, Target};
use concord_svm::CpuAddr;
use concord_trace::TraceConfig;
use concord_workloads::{all_workloads, worklist_workloads, Instance, Scale, Workload};

/// Host threads of every in-process context and every served session:
/// fixed, not derived from `nproc`, so numbers compare across machines
/// with at least two cores.
pub const HOST_THREADS: usize = 2;

/// The benchmark's own kernels. `add` is drawn from the seed, so outputs
/// differ between seeds while the work stays the same.
pub const KERNELS: &str = r#"
class Double {
public:
    int* out; int add;
    void operator()(int i) { out[i] = i * 2 + add; }
};
class Sum {
public:
    float* data; float acc;
    void operator()(int i) { acc += data[i]; }
    void join(Sum* other) { acc += other->acc; }
};
class Scale {
public:
    int* data;
    void operator()(int i) { data[i] = data[i] * 3 + 7; }
};
"#;

pub fn system() -> SystemConfig {
    SystemConfig::ultrabook()
}

pub fn options(host_threads: usize, trace: TraceConfig) -> Options {
    let gpu_config = Some(concord_compiler::GpuConfig::all(system().gpu.eus));
    Options { gpu_config, host_threads: Some(host_threads), trace, ..Options::default() }
}

/// All 13 programs: Table 1 in the paper's order, then the four worklist
/// programs.
pub fn all_programs() -> Vec<Box<dyn Workload>> {
    let worklists = worklist_workloads().into_iter().map(|w| w as Box<dyn Workload>);
    all_workloads().into_iter().chain(worklists).collect()
}

/// One program compiled, its input built at `scale` and uploaded.
pub struct Program {
    pub name: &'static str,
    pub cc: Concord,
    pub inst: Box<dyn Instance>,
}

impl Program {
    /// # Panics
    ///
    /// On an unknown name or a failed build: the fixed inputs always
    /// compile and fit, so either is a broken tree, not a measurement.
    pub fn build(
        name: &str,
        scale: Scale,
        host_threads: usize,
        trace: TraceConfig,
        spans: &Spans,
    ) -> Program {
        let workload = all_programs()
            .into_iter()
            .find(|w| w.spec().name == name)
            .unwrap_or_else(|| panic!("no program `{name}`"));
        let spec = workload.spec();
        let mut cc = Concord::new(system(), spec.source, options(host_threads, trace))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let (inst, _) = spans.time("workloads.build_ms", || workload.build(&mut cc, scale));
        let inst = inst.unwrap_or_else(|e| panic!("{name}: {e}"));
        Program { name: spec.name, cc, inst }
    }

    /// Run once on `target` inside a span named `span`; verify and reset
    /// untimed. Returns the host time of the run, the run's totals, and
    /// whether run, verification and reset all succeeded.
    pub fn run_checked(
        &mut self,
        target: Target,
        span: &str,
        spans: &Spans,
    ) -> (std::time::Duration, Option<concord_workloads::RunTotals>, bool) {
        let (totals, elapsed) = spans.time(span, || self.inst.run(&mut self.cc, target));
        let verified = self.inst.verify(&self.cc);
        let reset = self.inst.reset(&mut self.cc);
        if let Err(e) = &verified {
            eprintln!("{}: verification failed: {e}", self.name);
        }
        let ok = totals.is_ok() && verified.is_ok() && reset.is_ok();
        (elapsed, totals.ok(), ok)
    }
}

/// Seeded constant of the `Double` kernel.
pub fn double_add(seed: u64) -> i32 {
    Rng::new(seed, stream::KERNEL_CONSTANTS).range(1, 99)
}

/// What `Double` over `[0, n)` leaves in its output array.
pub fn double_expected(n: u32, add: i32) -> Vec<u8> {
    (0..n as i32).flat_map(|i| (i * 2 + add).to_le_bytes()).collect()
}

/// Seeded input of the `Sum` kernel: small whole numbers, so the float
/// sum is exact in any association order.
pub fn sum_data(seed: u64, n: u32) -> Vec<f32> {
    let mut rng = Rng::new(seed, stream::REDUCE_DATA);
    (0..n).map(|_| rng.range(0, 15) as f32).collect()
}

/// A `Double` body object aimed at `out`.
pub fn double_body(cc: &mut Concord, out: CpuAddr, add: i32) -> CpuAddr {
    let body = cc.malloc(16).expect("alloc Double body");
    cc.region_mut().write_ptr(body, out).expect("write body");
    cc.region_mut().write_i32(body.offset(8), add).expect("write body");
    body
}

/// A `Sum` body object over freshly uploaded `data`; `acc` is at `+8`.
pub fn sum_body(cc: &mut Concord, data: &[f32]) -> CpuAddr {
    let array = cc.malloc(data.len() as u64 * 4).expect("alloc Sum data");
    let image: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
    write_bytes(cc, array, &image);
    let body = cc.malloc(16).expect("alloc Sum body");
    cc.region_mut().write_ptr(body, array).expect("write body");
    cc.region_mut().write_f32(body.offset(8), 0.0).expect("write body");
    body
}

pub fn read_bytes(cc: &Concord, addr: CpuAddr, len: u64) -> Vec<u8> {
    cc.region().read_bytes(addr.0, AddrSpace::Cpu, len).expect("read inside allocation").to_vec()
}

pub fn write_bytes(cc: &mut Concord, addr: CpuAddr, bytes: &[u8]) {
    cc.region_mut().write_bytes(addr.0, AddrSpace::Cpu, bytes).expect("write inside allocation");
}
