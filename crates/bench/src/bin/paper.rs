//! Regenerates every simulated table of the paper's evaluation (§5) and
//! writes them as one JSON document:
//!
//! ```text
//! cargo run --release -p concord-bench --bin paper -- paper-expected.json
//! ```
//!
//! * Table 1 — workload origins and static characteristics;
//! * Figure 6 — share of control-flow and memory IR operations;
//! * Figures 7–10 — speedup and energy savings vs multicore CPU for the
//!   four GPU configurations, Ultrabook (7+8) and desktop (9+10), at
//!   `Scale::Small`;
//! * §5.3 — each configuration's speedup over plain `GPU`, printed from the
//!   Figures 7–10 rows;
//! * §5.4 — Concord's software SVM vs a hand-flattened OpenCL-1.2-style
//!   port of a raytracer, which has no pointer sharing: the host flattens
//!   the scene into arrays and the kernel walks them with integer offsets
//!   and no virtual dispatch. The paper measures ≤6% at the largest image.
//!
//! One workload list, [`figure_workloads`], drives Table 1, Figure 6 and
//! Figures 7–10. Every number is simulated, so the output repeats byte for
//! byte at any `CONCORD_HOST_THREADS`. The document (schema
//! `concord-paper/v1`, documented in EXPERIMENTS.md) has one row per line,
//! so a `diff` against the checked-in `paper-expected.json` names the row
//! that moved.

use concord_bench::{figure_row, geomean, render_table, FigureRow};
use concord_energy::SystemConfig;
use concord_ir::stats::kernel_closure_stats;
use concord_runtime::{Concord, Options, Target};
use concord_serve::json::Json;
use concord_svm::{CpuAddr, VtableArea};
use concord_workloads::{figure_workloads, Measurement, Scale, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = match args.as_slice() {
        [out] if !out.starts_with('-') => out,
        _ => {
            eprintln!("usage: paper OUT.json");
            std::process::exit(2);
        }
    };
    let workloads = figure_workloads();
    let [table1, fig6] = static_tables(&workloads);
    let doc = document(&[
        ("table1", table1),
        ("fig6", fig6),
        ("fig7_to_10", figures(&workloads)),
        ("svm_overhead", svm_overhead()),
    ]);
    if let Err(e) = std::fs::write(out, doc) {
        eprintln!("cannot write `{out}`: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {out}");
}

/// The JSON document: the schema, then one array per section with one
/// row per line.
fn document(sections: &[(&str, Vec<Json>)]) -> String {
    let mut doc = String::from("{\"schema\":\"concord-paper/v1\"");
    for (name, rows) in sections {
        doc.push_str(&format!(",\n\"{name}\":["));
        for (i, row) in rows.iter().enumerate() {
            doc.push_str(if i == 0 { "\n" } else { ",\n" });
            doc.push_str(&row.to_string());
        }
        doc.push(']');
    }
    doc.push_str("}\n");
    doc
}

/// Table 1 and Figure 6, which both read only the compiled source.
fn static_tables(workloads: &[Box<dyn Workload>]) -> [Vec<Json>; 2] {
    let (mut table1, mut fig6) = (Vec::new(), Vec::new());
    let (mut table1_text, mut fig6_text) = (Vec::new(), Vec::new());
    for w in workloads {
        let spec = w.spec();
        let lp = concord_frontend::compile(spec.source).expect("workload compiles");
        table1.push(Json::obj(vec![
            ("workload", spec.name.into()),
            ("origin", spec.origin.into()),
            ("loc", lp.source_info.total_lines.into()),
            ("device_loc", lp.source_info.device_lines.into()),
            ("data_structure", spec.data_structure.into()),
            ("construct", Json::str(spec.construct.to_string())),
        ]));
        table1_text.push(vec![
            spec.name.to_string(),
            spec.origin.to_string(),
            lp.source_info.total_lines.to_string(),
            lp.source_info.device_lines.to_string(),
            spec.data_structure.to_string(),
            spec.construct.to_string(),
        ]);
        // Figure 6 measures the optimized CPU module, like compiling with -O2.
        let mut module = lp.module.clone();
        concord_compiler::optimize_for_cpu(&mut module);
        let k = lp.kernel(spec.kernel_class).expect("kernel exists");
        let mut ops = kernel_closure_stats(&module, k.operator_fn);
        if let Some(j) = k.join_fn {
            ops = ops + kernel_closure_stats(&module, j);
        }
        fig6.push(Json::obj(vec![
            ("workload", spec.name.into()),
            ("control", ops.control.into()),
            ("memory", ops.memory.into()),
            ("other", ops.other.into()),
        ]));
        fig6_text.push(vec![
            spec.name.to_string(),
            format!("{:>5.1}%", ops.control_pct()),
            format!("{:>5.1}%", ops.memory_pct()),
            format!("{:>5.1}%", 100.0 - ops.irregularity_pct()),
            format!("{:>5.1}%", ops.irregularity_pct()),
            ops.total().to_string(),
        ]);
    }
    println!("Table 1: Concord workloads and their characteristics\n");
    print!(
        "{}",
        render_table(
            &["Benchmark", "Origin", "LoC", "Device LoC", "Data structure", "Parallel construct"],
            &table1_text
        )
    );
    println!(
        "\nLoC counts are for the kernel-language port (the paper's Table 1 counts full C++ \
         sources).\n"
    );
    println!("Figure 6: percent of IR operations that are control-flow and memory related\n");
    print!(
        "{}",
        render_table(
            &["Benchmark", "control", "memory", "remaining", "control+memory", "total ops"],
            &fig6_text
        )
    );
    println!(
        "\nThe paper reads >25% control+memory as 'more than one in four instructions is \
         control flow or memory'.\n"
    );
    [table1, fig6]
}

/// Figures 7–10 on both systems, then §5.3 from the same rows. Returns one
/// JSON row per (system, workload, configuration) measurement, the CPU
/// baseline included with a speedup and energy savings of 1.
fn figures(workloads: &[Box<dyn Workload>]) -> Vec<Json> {
    let mut json = Vec::new();
    let mut systems = Vec::new();
    for (system, speed_fig) in [(SystemConfig::ultrabook(), 7), (SystemConfig::desktop(), 9)] {
        eprintln!("running {} ({} workloads x 5 measurements)...", system.name, workloads.len());
        let rows = workloads
            .iter()
            .map(|w| figure_row(w.as_ref(), system, Scale::Small))
            .collect::<Result<Vec<_>, _>>()
            .unwrap_or_else(|e| {
                eprintln!("paper: {e}");
                std::process::exit(1);
            });
        for row in &rows {
            assert!(row.all_verified(), "{}: verification failed", row.name);
            json.push(figure_json(row.name, "CPU", system.name, "cpu", &row.cpu, 1.0, 1.0));
            for (i, (config, m)) in row.gpu.iter().enumerate() {
                let (speedup, savings) = (row.speedup(i), row.energy_savings(i));
                json.push(figure_json(row.name, config, system.name, "gpu", m, speedup, savings));
            }
        }
        let name = system.name;
        print_figure(
            &format!("Figure {speed_fig}: runtime speedup vs multicore CPU ({name})"),
            &rows,
            FigureRow::speedup,
        );
        print_figure(
            &format!("Figure {}: energy savings vs multicore CPU ({name})", speed_fig + 1),
            &rows,
            FigureRow::energy_savings,
        );
        systems.push((name, rows));
    }
    for (name, rows) in &systems {
        print_figure(
            &format!("Section 5.3: speedup of each configuration over GPU ({name})"),
            rows,
            |row, i| row.speedup(i) / row.speedup(0),
        );
    }
    json
}

fn figure_json(
    workload: &str,
    config: &str,
    system: &str,
    target: &str,
    m: &Measurement,
    speedup: f64,
    savings: f64,
) -> Json {
    Json::obj(vec![
        ("workload", workload.into()),
        ("config", config.into()),
        ("system", system.into()),
        ("target", target.into()),
        ("scale", "small".into()),
        ("seconds", m.totals.seconds.into()),
        ("joules", m.totals.joules.into()),
        ("speedup", speedup.into()),
        ("energy_savings", savings.into()),
        ("verified", m.verified.into()),
    ])
}

fn print_figure(title: &str, rows: &[FigureRow], metric: fn(&FigureRow, usize) -> f64) {
    println!("{title}\n");
    let mut table: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            let cells = (0..4).map(|i| format!("{:.2}x", metric(row, i)));
            std::iter::once(row.name.to_string()).chain(cells).collect()
        })
        .collect();
    let means = (0..4).map(|i| format!("{:.2}x", geomean(rows.iter().map(|r| metric(r, i)))));
    table.push(std::iter::once("geomean".to_string()).chain(means).collect());
    print!("{}", render_table(&["Benchmark", "GPU", "GPU+PTROPT", "GPU+L3OPT", "GPU+ALL"], &table));
    println!();
}

/// Pointer-based Concord version (virtual dispatch over a scene graph).
const CONCORD_SRC: &str = r#"
class Shape {
public:
    float cx; float cy; float cz; float p0;
    virtual float intersect(float ox, float oy, float oz,
                            float dx, float dy, float dz) { return -1.0f; }
};
class Sphere : public Shape {
public:
    float intersect(float ox, float oy, float oz,
                    float dx, float dy, float dz) {
        float lx = cx - ox; float ly = cy - oy; float lz = cz - oz;
        float tca = lx*dx + ly*dy + lz*dz;
        float d2 = lx*lx + ly*ly + lz*lz - tca*tca;
        float r2 = p0 * p0;
        if (d2 > r2) { return -1.0f; }
        float thc = sqrtf(r2 - d2);
        float t = tca - thc;
        if (t < 0.001f) { t = tca + thc; }
        if (t < 0.001f) { return -1.0f; }
        return t;
    }
};
class Plane : public Shape {
public:
    float intersect(float ox, float oy, float oz,
                    float dx, float dy, float dz) {
        if (fabsf(dy) < 0.0001f) { return -1.0f; }
        float t = (cy - oy) / dy;
        if (t < 0.001f) { return -1.0f; }
        return t;
    }
};
class RayBody {
public:
    Shape** shapes; int nshapes;
    float* image; int width; int height;
    void operator()(int i) {
        int pxi = i % width;
        int pyi = i / width;
        float ox = ((float)pxi / (float)width) * 4.0f - 2.0f;
        float oy = ((float)pyi / (float)height) * 3.0f - 1.0f;
        float oz = 5.0f;
        float dx = ox * 0.05f; float dy = oy * 0.05f; float dz = -1.0f;
        float dl = sqrtf(dx*dx + dy*dy + dz*dz);
        dx /= dl; dy /= dl; dz /= dl;
        float best = 1000000.0f;
        for (int s = 0; s < nshapes; s++) {
            float t = shapes[s]->intersect(ox, oy, oz, dx, dy, dz);
            if (t > 0.0f && t < best) { best = t; }
        }
        image[i] = best < 1000000.0f ? best : 0.0f;
    }
};
"#;

/// Hand-flattened OpenCL-1.2-style version: linear arrays + type tags, no
/// shared pointers, no virtual functions.
const FLAT_SRC: &str = r#"
class FlatRayBody {
public:
    float* sx; float* sy; float* sz; float* sr;
    int* stype; int nshapes;
    float* image; int width; int height;
    void operator()(int i) {
        // Hand-tuned port: hoist array bases into registers, as the
        // paper's OpenCL-1.2 version does with kernel arguments.
        float* lsx = sx;
        float* lsy = sy;
        float* lsz = sz;
        float* lsr = sr;
        int* lst = stype;
        int ns = nshapes;
        int pxi = i % width;
        int pyi = i / width;
        float ox = ((float)pxi / (float)width) * 4.0f - 2.0f;
        float oy = ((float)pyi / (float)height) * 3.0f - 1.0f;
        float oz = 5.0f;
        float dx = ox * 0.05f; float dy = oy * 0.05f; float dz = -1.0f;
        float dl = sqrtf(dx*dx + dy*dy + dz*dz);
        dx /= dl; dy /= dl; dz /= dl;
        float best = 1000000.0f;
        for (int s = 0; s < ns; s++) {
            float t = -1.0f;
            if (lst[s] == 0) {
                float lx = lsx[s] - ox; float ly = lsy[s] - oy; float lz = lsz[s] - oz;
                float tca = lx*dx + ly*dy + lz*dz;
                float d2 = lx*lx + ly*ly + lz*lz - tca*tca;
                float r2 = lsr[s] * lsr[s];
                if (d2 <= r2) {
                    float thc = sqrtf(r2 - d2);
                    t = tca - thc;
                    if (t < 0.001f) { t = tca + thc; }
                    if (t < 0.001f) { t = -1.0f; }
                }
            } else {
                if (fabsf(dy) >= 0.0001f) {
                    t = (lsy[s] - oy) / dy;
                    if (t < 0.001f) { t = -1.0f; }
                }
            }
            if (t > 0.0f && t < best) { best = t; }
        }
        image[i] = best < 1000000.0f ? best : 0.0f;
    }
};
"#;

struct Scene {
    spheres: Vec<([f32; 3], f32)>,
    plane_y: f32,
}

fn scene(nspheres: usize) -> Scene {
    let mut rng = StdRng::seed_from_u64(0x54D);
    Scene {
        spheres: (0..nspheres)
            .map(|_| {
                (
                    [
                        rng.gen_range(-1.8..1.8f32),
                        rng.gen_range(-0.6..1.4f32),
                        rng.gen_range(-1.5..1.5f32),
                    ],
                    rng.gen_range(0.15..0.45f32),
                )
            })
            .collect(),
        plane_y: -1.0,
    }
}

/// One version's steady-state GPU render.
struct Render {
    seconds: f64,
    insts: u64,
    translations: u64,
    image: Vec<f32>,
}

/// §5.4: the two versions render the same depths at four image sizes.
fn svm_overhead() -> Vec<Json> {
    let sc = scene(16);
    let system = SystemConfig::ultrabook();
    let (mut json, mut text) = (Vec::new(), Vec::new());
    for (w, h) in [(32, 24), (64, 48), (128, 96), (192, 144)] {
        eprintln!("rendering {w}x{h}...");
        let svm = run_concord(system, &sc, w, h);
        let flat = run_flat(system, &sc, w, h);
        for (i, (a, b)) in svm.image.iter().zip(&flat.image).enumerate() {
            assert!((a - b).abs() < 1e-4, "pixel {i} differs: {a} vs {b}");
        }
        let overhead = (svm.seconds - flat.seconds) / flat.seconds * 100.0;
        json.push(Json::obj(vec![
            ("image", Json::str(format!("{w}x{h}"))),
            ("concord_seconds", svm.seconds.into()),
            ("concord_insts", svm.insts.into()),
            ("concord_translations", svm.translations.into()),
            ("flat_seconds", flat.seconds.into()),
            ("flat_insts", flat.insts.into()),
            ("flat_translations", flat.translations.into()),
            ("overhead_pct", overhead.into()),
        ]));
        text.push(vec![
            format!("{w}x{h}"),
            format!("{:.3} ms", svm.seconds * 1e3),
            format!("{:.3} ms", flat.seconds * 1e3),
            format!("{overhead:+.1}%"),
            format!("{} / {}", svm.insts, flat.insts),
            format!("{} / {}", svm.translations, flat.translations),
        ]);
    }
    println!(
        "Section 5.4: overhead of software SVM (Concord raytracer vs hand-flattened OpenCL port)\n"
    );
    print!(
        "{}",
        render_table(
            &[
                "Image",
                "Concord (SVM)",
                "Flattened (no SVM)",
                "SVM overhead",
                "insts (SVM / flat)",
                "translations (SVM / flat)",
            ],
            &text
        )
    );
    println!(
        "\nThe paper reports negligible overhead for small images and ~6% at the largest size."
    );
    json
}

/// Pointer-based version: an array of pointers to heap objects whose
/// vtables select `Sphere::intersect` or `Plane::intersect`.
fn run_concord(system: SystemConfig, sc: &Scene, w: usize, h: usize) -> Render {
    let mut cc = Concord::new(system, CONCORD_SRC, Options::default()).expect("compile");
    let nshapes = sc.spheres.len() + 1;
    let ptrs = cc.malloc(nshapes as u64 * 8).expect("alloc");
    let sphere_vt = VtableArea::addr_of(concord_ir::ClassId(1));
    let plane_vt = VtableArea::addr_of(concord_ir::ClassId(2));
    for (s, (c, r)) in sc.spheres.iter().enumerate() {
        let obj = cc.malloc(24).expect("alloc");
        cc.region_mut().write_ptr(obj, sphere_vt).expect("write");
        cc.region_mut().write_f32(obj.offset(8), c[0]).expect("write");
        cc.region_mut().write_f32(obj.offset(12), c[1]).expect("write");
        cc.region_mut().write_f32(obj.offset(16), c[2]).expect("write");
        cc.region_mut().write_f32(obj.offset(20), *r).expect("write");
        cc.region_mut().write_ptr(CpuAddr(ptrs.0 + s as u64 * 8), obj).expect("write");
    }
    let plane = cc.malloc(24).expect("alloc");
    cc.region_mut().write_ptr(plane, plane_vt).expect("write");
    cc.region_mut().write_f32(plane.offset(12), sc.plane_y).expect("write");
    cc.region_mut().write_ptr(CpuAddr(ptrs.0 + sc.spheres.len() as u64 * 8), plane).expect("write");
    render(cc, "RayBody", &[ptrs], nshapes, w, h)
}

/// Flattened version: one array per shape field plus a type tag.
fn run_flat(system: SystemConfig, sc: &Scene, w: usize, h: usize) -> Render {
    let mut cc = Concord::new(system, FLAT_SRC, Options::default()).expect("compile");
    let nshapes = sc.spheres.len() + 1;
    let [sx, sy, sz, sr, stype] = [(); 5].map(|()| cc.malloc(nshapes as u64 * 4).expect("alloc"));
    for (s, (c, r)) in sc.spheres.iter().enumerate() {
        let o = s as u64 * 4;
        cc.region_mut().write_f32(CpuAddr(sx.0 + o), c[0]).expect("write");
        cc.region_mut().write_f32(CpuAddr(sy.0 + o), c[1]).expect("write");
        cc.region_mut().write_f32(CpuAddr(sz.0 + o), c[2]).expect("write");
        cc.region_mut().write_f32(CpuAddr(sr.0 + o), *r).expect("write");
        cc.region_mut().write_i32(CpuAddr(stype.0 + o), 0).expect("write");
    }
    let o = sc.spheres.len() as u64 * 4;
    cc.region_mut().write_f32(CpuAddr(sy.0 + o), sc.plane_y).expect("write");
    cc.region_mut().write_i32(CpuAddr(stype.0 + o), 1).expect("write");
    render(cc, "FlatRayBody", &[sx, sy, sz, sr, stype], nshapes, w, h)
}

/// What both versions share: the image, a body whose leading pointer
/// fields are followed by `nshapes`, `image`, `width` and `height`, a
/// warm-up launch (the JIT), the measured launch, and the read-back.
fn render(
    mut cc: Concord,
    class: &str,
    fields: &[CpuAddr],
    nshapes: usize,
    w: usize,
    h: usize,
) -> Render {
    let n = (w * h) as u32;
    let image = cc.malloc(n as u64 * 4).expect("alloc");
    let k = fields.len() as u64 * 8;
    let body = cc.malloc(k + 24).expect("alloc");
    for (slot, a) in fields.iter().enumerate() {
        cc.region_mut().write_ptr(body.offset(slot as u64 * 8), *a).expect("write");
    }
    cc.region_mut().write_i32(body.offset(k), nshapes as i32).expect("write");
    cc.region_mut().write_ptr(body.offset(k + 8), image).expect("write");
    cc.region_mut().write_i32(body.offset(k + 16), w as i32).expect("write");
    cc.region_mut().write_i32(body.offset(k + 20), h as i32).expect("write");
    cc.parallel_for_hetero(class, body, n, Target::Gpu).expect("warmup");
    let r = cc.parallel_for_hetero(class, body, n, Target::Gpu).expect("run");
    let image = (0..n as u64)
        .map(|i| cc.region().read_f32(CpuAddr(image.0 + i * 4)).expect("read"))
        .collect();
    Render { seconds: r.total_seconds(), insts: r.insts, translations: r.translations, image }
}
