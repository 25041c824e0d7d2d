//! Pins the compiler's output for all 13 programs: the printed CPU module
//! after `optimize_for_cpu`, the printed GPU module after `lower_for_gpu`
//! under the four configurations of §5 at 40 and at 20 EUs, the native
//! code bytes of the CPU module, and the pipeline statistics. Native code
//! calls its Rust helpers through the `Env` table and embeds no process
//! address, so its bytes are the same in every process. A pass
//! rewrite that claims to move nothing must leave every hash here as it
//! is. A second test compiles each program twice from cold and requires
//! byte-identical artifact encodings.
//!
//! On a mismatch the panic message prints the whole table as computed, so
//! a change that means to move the output can review and paste it.

use concord_compiler::{lower_for_gpu, optimize_for_cpu, GpuArtifact, GpuConfig, PipelineStats};
use concord_frontend::LoweredProgram;
use concord_ir::codec::{encode_to_vec, fnv1a_64};
use concord_ir::printer::print_module;
use concord_workloads::{all_workloads, worklist_workloads};

/// `(name, source)` of the nine Table 1 programs and the four worklist
/// programs.
fn programs() -> Vec<(&'static str, &'static str)> {
    let mut out: Vec<_> =
        all_workloads().iter().map(|w| (w.spec().name, w.spec().source)).collect();
    out.extend(worklist_workloads().iter().map(|w| (w.spec().name, w.spec().source)));
    out
}

/// The eight GPU configurations: baseline, ptropt, l3opt and all, at 40
/// and then at 20 EUs.
fn gpu_configs() -> Vec<GpuConfig> {
    [40, 20]
        .into_iter()
        .flat_map(|eus| {
            [
                GpuConfig::baseline(eus),
                GpuConfig::ptropt(eus),
                GpuConfig::l3opt(eus),
                GpuConfig::all(eus),
            ]
        })
        .collect()
}

/// One cold compile, in the runtime's order: one GPU artifact per
/// configuration, then the CPU-optimized program and its statistics.
fn compile(source: &str) -> (LoweredProgram, PipelineStats, Vec<GpuArtifact>) {
    let mut program = concord_frontend::compile(source).expect("workload source compiles");
    let gpu = gpu_configs().into_iter().map(|cfg| lower_for_gpu(&program.module, cfg)).collect();
    let cpu_stats = optimize_for_cpu(&mut program.module);
    (program, cpu_stats, gpu)
}

/// Per program: CPU IR, the eight GPU IRs in `gpu_configs` order, native
/// code (0 where the JIT is unsupported), and the pipeline statistics.
type Row = [u64; 11];

fn row(source: &str) -> Row {
    let (program, cpu_stats, gpu) = compile(source);
    let mut r = [0u64; 11];
    r[0] = fnv1a_64(print_module(&program.module).as_bytes());
    for (i, art) in gpu.iter().enumerate() {
        r[1 + i] = fnv1a_64(print_module(&art.module).as_bytes());
    }
    if concord_native::supported() {
        let native = concord_native::compile(&program.module).expect("native codegen");
        r[9] = fnv1a_64(native.code());
    }
    let mut stats = format!("{cpu_stats:?}");
    for art in &gpu {
        stats.push_str(&format!("{:?}", art.stats));
    }
    r[10] = fnv1a_64(stats.as_bytes());
    r
}

#[rustfmt::skip]
const PINNED: &[(&str, Row)] = &[
    ("BarnesHut", [0x1621d259e6638579, 0x856733a6f1759e76, 0x4ce6e791286a11d5, 0x9563b2072bf59666, 0xa86d8b209210fe78, 0x856733a6f1759e76, 0x4ce6e791286a11d5, 0x3aaea92f093a49d8, 0x7e925180baba844a, 0xe8d7f43117ec79af, 0x39cac3ebf333f7c0]),
    ("BFS", [0x820dcd5fff314475, 0xc5ce819abe43a808, 0x897eb78b82597c96, 0xc5ce819abe43a808, 0x897eb78b82597c96, 0xc5ce819abe43a808, 0x897eb78b82597c96, 0xc5ce819abe43a808, 0x897eb78b82597c96, 0x362ec63875cd6b6f, 0x8f60a2f209830de1]),
    ("BTree", [0x01d3edd3b9e57bc1, 0x5dc12dab02182316, 0x2b39e20012d8e8ae, 0x5dc12dab02182316, 0x2b39e20012d8e8ae, 0x5dc12dab02182316, 0x2b39e20012d8e8ae, 0x5dc12dab02182316, 0x2b39e20012d8e8ae, 0xc106552aed656130, 0x0a89c2f0565a4f63]),
    ("ClothPhysics", [0x608fc956913d8080, 0x2fb46d9f060d48c3, 0x6620f8f130a398cd, 0x2fb46d9f060d48c3, 0x6620f8f130a398cd, 0x2fb46d9f060d48c3, 0x6620f8f130a398cd, 0x2fb46d9f060d48c3, 0x6620f8f130a398cd, 0x43adfff1b6e713c6, 0x5930aeccd5c5fdb3]),
    ("ConnectedComponent", [0x14cded01961a7ad0, 0xc0d4d3b70368b704, 0x1ca383fb0c7334d2, 0xc0d4d3b70368b704, 0x1ca383fb0c7334d2, 0xc0d4d3b70368b704, 0x1ca383fb0c7334d2, 0xc0d4d3b70368b704, 0x1ca383fb0c7334d2, 0x66cc68b79a2917f1, 0x1cf3db235fda92e8]),
    ("FaceDetect", [0xa7d6de4b417e1651, 0xafa8985fefb55975, 0xa65668da68847c0a, 0xafa8985fefb55975, 0xa65668da68847c0a, 0xafa8985fefb55975, 0xa65668da68847c0a, 0xafa8985fefb55975, 0xa65668da68847c0a, 0x1685418baf09b12d, 0x569e54cefeeae7b1]),
    ("Raytracer", [0xf706428592b64d77, 0xd6f4fa15e7bab9cd, 0xdfc323fe9e2f1231, 0xfbc6a96b585bf665, 0xba158c94ddce39bc, 0xd6f4fa15e7bab9cd, 0xdfc323fe9e2f1231, 0x0d10beb6317aa4ab, 0x5f56f4b37cc9dbfa, 0x9393f290e0079b6f, 0x1b4ca9fa5848e7db]),
    ("SkipList", [0xfe874d0d60aa2cbb, 0x90d314a9fe9efcb9, 0xf3fda0189c4d5b49, 0x90d314a9fe9efcb9, 0xf3fda0189c4d5b49, 0x90d314a9fe9efcb9, 0xf3fda0189c4d5b49, 0x90d314a9fe9efcb9, 0xf3fda0189c4d5b49, 0x953217569fcec985, 0x684b0cc4860c8e22]),
    ("SSSP", [0x23f9042478dfe4e8, 0xd31653d28c6acc8c, 0xa27ccc83b1e0f833, 0xd31653d28c6acc8c, 0xa27ccc83b1e0f833, 0xd31653d28c6acc8c, 0xa27ccc83b1e0f833, 0xd31653d28c6acc8c, 0xa27ccc83b1e0f833, 0xc4c05e2bb50cdfae, 0x86141a9e4746b5b7]),
    ("FrontierBFS", [0xcaeab04ae6a33f70, 0x6d3b0354e6319e4a, 0x4144535532d172cf, 0x6d3b0354e6319e4a, 0x4144535532d172cf, 0x6d3b0354e6319e4a, 0x4144535532d172cf, 0x6d3b0354e6319e4a, 0x4144535532d172cf, 0xabbe85ee45732eba, 0xff9cbd85480251b0]),
    ("WorklistCC", [0xe1cc74a228aa284c, 0xc5255d97c1995941, 0xec21ed3da1ff705f, 0xc5255d97c1995941, 0xec21ed3da1ff705f, 0xc5255d97c1995941, 0xec21ed3da1ff705f, 0xc5255d97c1995941, 0xec21ed3da1ff705f, 0xb2f12f7362100db5, 0x7023ef9a5cacc0bd]),
    ("DeltaSSSP", [0xea38257d29f5ecca, 0x1f1ede299ff59091, 0x2b7a19db03a5a025, 0x1f1ede299ff59091, 0x2b7a19db03a5a025, 0x1f1ede299ff59091, 0x2b7a19db03a5a025, 0x1f1ede299ff59091, 0x2b7a19db03a5a025, 0x0156ef21e6be7853, 0xea973eaf0891e85d]),
    ("KCore", [0xe751aff5c5b47cae, 0xf6b3202bfa47662e, 0xdb5b5c73ba313b49, 0xf6b3202bfa47662e, 0xdb5b5c73ba313b49, 0xf6b3202bfa47662e, 0xdb5b5c73ba313b49, 0xf6b3202bfa47662e, 0xdb5b5c73ba313b49, 0xc5e1b0e7ccde4abd, 0x47b542200936adbc]),
];

#[test]
fn compiler_output_is_pinned_for_every_program() {
    let got: Vec<(&str, Row)> = programs().into_iter().map(|(n, src)| (n, row(src))).collect();
    let table: String = got
        .iter()
        .map(|(n, r)| {
            let hs: Vec<String> = r.iter().map(|h| format!("0x{h:016x}")).collect();
            format!("    (\"{n}\", [{}]),\n", hs.join(", "))
        })
        .collect();
    let pinned: Vec<(&str, Row)> = PINNED
        .iter()
        .map(|&(n, mut r)| {
            if !concord_native::supported() {
                r[9] = 0;
            }
            (n, r)
        })
        .collect();
    assert!(pinned == got, "compiler output moved; computed table:\n{table}");
}

#[test]
fn cold_compiles_encode_identically() {
    for (name, src) in programs() {
        let (p1, _, g1) = compile(src);
        let (p2, _, g2) = compile(src);
        assert!(
            encode_to_vec(&p1) == encode_to_vec(&p2),
            "{name}: two cold compiles encode different LoweredProgram bytes"
        );
        for (i, (a, b)) in g1.iter().zip(&g2).enumerate() {
            assert!(
                encode_to_vec(a) == encode_to_vec(b),
                "{name}: two cold compiles encode different GpuArtifact bytes under {:?}",
                gpu_configs()[i]
            );
        }
    }
}
