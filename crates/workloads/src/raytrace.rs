//! Raytracer (in-house, algorithm after the codermind "First Rays"
//! tutorial the paper cites): a scene graph of spheres and planes behind a
//! common `Shape` base class, intersected through **virtual function
//! dispatch** — the workload that exercises §3.2's vtable support. Each
//! pixel casts a primary ray, finds the nearest hit, and shades with
//! Lambert lighting plus a shadow ray per light.

use crate::{Construct, Instance, RunTotals, Scale, Spec, Workload};
use concord_runtime::{Concord, RuntimeError, Target};
use concord_svm::{CpuAddr, VtableArea};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SOURCE: &str = r#"
// Recursive-style raytracer with virtual dispatch (in-house).
class Shape {
public:
    float cx; float cy; float cz;
    float p0;
    int mat;
    // Returns hit distance along the ray, or -1 when missed.
    virtual float intersect(float ox, float oy, float oz,
                            float dx, float dy, float dz) {
        return -1.0f;
    }
    virtual float nx_at(float hx, float hy, float hz) { return 0.0f; }
    virtual float ny_at(float hx, float hy, float hz) { return 1.0f; }
    virtual float nz_at(float hx, float hy, float hz) { return 0.0f; }
};
class Sphere : public Shape {
public:
    float intersect(float ox, float oy, float oz,
                    float dx, float dy, float dz) {
        float lx = cx - ox;
        float ly = cy - oy;
        float lz = cz - oz;
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
    float nx_at(float hx, float hy, float hz) { return (hx - cx) / p0; }
    float ny_at(float hx, float hy, float hz) { return (hy - cy) / p0; }
    float nz_at(float hx, float hy, float hz) { return (hz - cz) / p0; }
};
class Plane : public Shape {
public:
    // Horizontal plane y = cy.
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
    Shape** shapes;
    int nshapes;
    float* lights;    // packed x,y,z,intensity per light
    int nlights;
    float* image;
    int width;
    int height;
    void operator()(int i) {
        int pxi = i % width;
        int pyi = i / width;
        // Orthographic-ish camera looking down -z with a slight fan-out.
        float ox = ((float)pxi / (float)width) * 4.0f - 2.0f;
        float oy = ((float)pyi / (float)height) * 3.0f - 1.0f;
        float oz = 5.0f;
        float dx = ox * 0.05f;
        float dy = oy * 0.05f;
        float dz = -1.0f;
        float dl = sqrtf(dx*dx + dy*dy + dz*dz);
        dx /= dl; dy /= dl; dz /= dl;
        // Nearest hit by virtual dispatch over the scene graph.
        float best = 1000000.0f;
        Shape* hit_shape = nullptr;
        for (int s = 0; s < nshapes; s++) {
            float t = shapes[s]->intersect(ox, oy, oz, dx, dy, dz);
            if (t > 0.0f && t < best) {
                best = t;
                hit_shape = shapes[s];
            }
        }
        float color = 0.05f;  // ambient
        if (hit_shape != nullptr) {
            float hx = ox + dx * best;
            float hy = oy + dy * best;
            float hz = oz + dz * best;
            float nx = hit_shape->nx_at(hx, hy, hz);
            float ny = hit_shape->ny_at(hx, hy, hz);
            float nz = hit_shape->nz_at(hx, hy, hz);
            for (int l = 0; l < nlights; l++) {
                float lx = lights[l*4] - hx;
                float ly = lights[l*4+1] - hy;
                float lz = lights[l*4+2] - hz;
                float ll = sqrtf(lx*lx + ly*ly + lz*lz);
                lx /= ll; ly /= ll; lz /= ll;
                float lambert = nx*lx + ny*ly + nz*lz;
                if (lambert > 0.0f) {
                    // Shadow ray: any occluder between hit and light?
                    int lit = 1;
                    for (int s = 0; s < nshapes; s++) {
                        if (shapes[s] != hit_shape) {
                            float st = shapes[s]->intersect(hx, hy, hz, lx, ly, lz);
                            if (st > 0.0f && st < ll) {
                                lit = 0;
                                break;
                            }
                        }
                    }
                    if (lit == 1) {
                        color += lambert * lights[l*4+3];
                    }
                }
            }
        }
        image[i] = color;
    }
};
"#;

/// vptr + cx,cy,cz,p0 + mat (+ padding to 8).
const SHAPE_SIZE: u64 = 8 + 4 * 4 + 4 + 4;

/// The Raytracer workload definition.
#[derive(Debug, Clone, Copy)]
pub struct Raytracer;

#[derive(Debug, Clone, Copy)]
enum HostShape {
    Sphere { c: [f32; 3], r: f32 },
    Plane { y: f32 },
}

impl HostShape {
    fn intersect(&self, o: [f32; 3], d: [f32; 3]) -> f32 {
        match *self {
            HostShape::Sphere { c, r } => {
                let l = [c[0] - o[0], c[1] - o[1], c[2] - o[2]];
                let tca = l[0] * d[0] + l[1] * d[1] + l[2] * d[2];
                let d2 = l[0] * l[0] + l[1] * l[1] + l[2] * l[2] - tca * tca;
                let r2 = r * r;
                if d2 > r2 {
                    return -1.0;
                }
                let thc = (r2 - d2).sqrt();
                let mut t = tca - thc;
                if t < 0.001 {
                    t = tca + thc;
                }
                if t < 0.001 {
                    return -1.0;
                }
                t
            }
            HostShape::Plane { y } => {
                if d[1].abs() < 0.0001 {
                    return -1.0;
                }
                let t = (y - o[1]) / d[1];
                if t < 0.001 {
                    return -1.0;
                }
                t
            }
        }
    }

    fn normal_at(&self, h: [f32; 3]) -> [f32; 3] {
        match *self {
            HostShape::Sphere { c, r } => [(h[0] - c[0]) / r, (h[1] - c[1]) / r, (h[2] - c[2]) / r],
            HostShape::Plane { .. } => [0.0, 1.0, 0.0],
        }
    }
}

fn reference_render(
    shapes: &[HostShape],
    lights: &[[f32; 4]],
    width: usize,
    height: usize,
) -> Vec<f32> {
    let mut img = vec![0.0f32; width * height];
    for (i, px) in img.iter_mut().enumerate() {
        let pxi = (i % width) as f32;
        let pyi = (i / width) as f32;
        let o = [pxi / width as f32 * 4.0 - 2.0, pyi / height as f32 * 3.0 - 1.0, 5.0f32];
        let mut d = [o[0] * 0.05, o[1] * 0.05, -1.0f32];
        let dl = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
        for v in d.iter_mut() {
            *v /= dl;
        }
        let mut best = 1_000_000.0f32;
        let mut hit: Option<usize> = None;
        for (s, shape) in shapes.iter().enumerate() {
            let t = shape.intersect(o, d);
            if t > 0.0 && t < best {
                best = t;
                hit = Some(s);
            }
        }
        let mut color = 0.05f32;
        if let Some(hs) = hit {
            let h = [o[0] + d[0] * best, o[1] + d[1] * best, o[2] + d[2] * best];
            let n = shapes[hs].normal_at(h);
            for l in lights {
                let mut lv = [l[0] - h[0], l[1] - h[1], l[2] - h[2]];
                let ll = (lv[0] * lv[0] + lv[1] * lv[1] + lv[2] * lv[2]).sqrt();
                for v in lv.iter_mut() {
                    *v /= ll;
                }
                let lambert = n[0] * lv[0] + n[1] * lv[1] + n[2] * lv[2];
                if lambert > 0.0 {
                    let mut lit = true;
                    for (s, shape) in shapes.iter().enumerate() {
                        if s != hs {
                            let st = shape.intersect(h, lv);
                            if st > 0.0 && st < ll {
                                lit = false;
                                break;
                            }
                        }
                    }
                    if lit {
                        color += lambert * l[3];
                    }
                }
            }
        }
        *px = color;
    }
    img
}

/// Built instance.
pub struct RaytraceInstance {
    body: CpuAddr,
    image: CpuAddr,
    expected: Vec<f32>,
    n: u32,
}

impl Workload for Raytracer {
    fn spec(&self) -> Spec {
        Spec {
            name: "Raytracer",
            origin: "In-house (alg. in First-Rays)",
            data_structure: "graph",
            construct: Construct::ParallelFor,
            kernel_class: "RayBody",
            source: SOURCE,
        }
    }

    fn build(&self, cc: &mut Concord, scale: Scale) -> Result<Box<dyn Instance>, RuntimeError> {
        let (width, height, nspheres) = match scale {
            Scale::Tiny => (24usize, 18usize, 6usize),
            Scale::Small => (96, 72, 24),
            Scale::Medium => (192, 144, 64),
        };
        let mut rng = StdRng::seed_from_u64(0x7A9);
        let mut shapes: Vec<HostShape> = (0..nspheres)
            .map(|_| HostShape::Sphere {
                c: [
                    rng.gen_range(-1.8..1.8f32),
                    rng.gen_range(-0.6..1.4f32),
                    rng.gen_range(-1.5..1.5f32),
                ],
                r: rng.gen_range(0.15..0.45f32),
            })
            .collect();
        shapes.push(HostShape::Plane { y: -1.0 });
        let lights: Vec<[f32; 4]> =
            vec![[3.0, 4.0, 3.0, 0.7], [-3.0, 5.0, 1.0, 0.4], [0.0, 8.0, -2.0, 0.3]];
        // Sphere = class id 1, Plane = class id 2 (Shape is 0).
        let sphere_vt = VtableArea::addr_of(concord_ir::ClassId(1));
        let plane_vt = VtableArea::addr_of(concord_ir::ClassId(2));
        let shape_ptrs = cc.malloc(shapes.len() as u64 * 8)?;
        for (s, shape) in shapes.iter().enumerate() {
            let obj = cc.malloc(SHAPE_SIZE)?;
            match *shape {
                HostShape::Sphere { c, r } => {
                    cc.region_mut().write_ptr(obj, sphere_vt)?;
                    cc.region_mut().write_f32(obj.offset(8), c[0])?;
                    cc.region_mut().write_f32(obj.offset(12), c[1])?;
                    cc.region_mut().write_f32(obj.offset(16), c[2])?;
                    cc.region_mut().write_f32(obj.offset(20), r)?;
                }
                HostShape::Plane { y } => {
                    cc.region_mut().write_ptr(obj, plane_vt)?;
                    cc.region_mut().write_f32(obj.offset(12), y)?;
                }
            }
            cc.region_mut().write_ptr(CpuAddr(shape_ptrs.0 + s as u64 * 8), obj)?;
        }
        let larr = cc.malloc(lights.len() as u64 * 16)?;
        for (l, light) in lights.iter().enumerate() {
            for (k, v) in light.iter().enumerate() {
                cc.region_mut().write_f32(CpuAddr(larr.0 + (l * 4 + k) as u64 * 4), *v)?;
            }
        }
        let n = (width * height) as u32;
        let image = cc.malloc(n as u64 * 4)?;
        // Body: shapes**, nshapes, lights*, nlights, image*, width, height.
        let body = cc.malloc(56)?;
        cc.region_mut().write_ptr(body, shape_ptrs)?;
        cc.region_mut().write_i32(body.offset(8), shapes.len() as i32)?;
        cc.region_mut().write_ptr(body.offset(16), larr)?;
        cc.region_mut().write_i32(body.offset(24), lights.len() as i32)?;
        cc.region_mut().write_ptr(body.offset(32), image)?;
        cc.region_mut().write_i32(body.offset(40), width as i32)?;
        cc.region_mut().write_i32(body.offset(44), height as i32)?;
        let expected = reference_render(&shapes, &lights, width, height);
        Ok(Box::new(RaytraceInstance { body, image, expected, n }))
    }
}

impl Instance for RaytraceInstance {
    fn run(&mut self, cc: &mut Concord, target: Target) -> Result<RunTotals, RuntimeError> {
        let mut totals = RunTotals::default();
        let r = cc.parallel_for_hetero("RayBody", self.body, self.n, target)?;
        totals.absorb(&r);
        Ok(totals)
    }

    fn verify(&self, cc: &Concord) -> Result<(), String> {
        for (i, &e) in self.expected.iter().enumerate() {
            let got = cc
                .region()
                .read_f32(CpuAddr(self.image.0 + i as u64 * 4))
                .map_err(|t| t.to_string())?;
            if (got - e).abs() > 1e-3 {
                return Err(format!("pixel {i}: {got} vs expected {e}"));
            }
        }
        Ok(())
    }

    fn reset(&mut self, cc: &mut Concord) -> Result<(), RuntimeError> {
        for i in 0..self.n as u64 {
            cc.region_mut().write_f32(CpuAddr(self.image.0 + i * 4), -1.0)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use concord_energy::SystemConfig;
    use concord_runtime::Options;

    #[test]
    fn class_ids_match_builder_assumptions() {
        let lp = concord_frontend::compile(SOURCE).unwrap();
        assert_eq!(lp.module.classes[0].name, "Shape");
        assert_eq!(lp.module.classes[1].name, "Sphere");
        assert_eq!(lp.module.classes[2].name, "Plane");
        let info = lp.module.structs.iter().find(|s| s.name == "Shape").unwrap();
        assert_eq!(info.size, SHAPE_SIZE.div_ceil(8) * 8);
        assert_eq!(info.field("cx").unwrap().offset, 8);
        assert_eq!(info.field("p0").unwrap().offset, 20);
    }

    #[test]
    fn render_matches_reference_cpu() {
        let w = Raytracer;
        let mut cc =
            Concord::new(SystemConfig::desktop(), w.spec().source, Options::default()).unwrap();
        let mut inst = w.build(&mut cc, Scale::Tiny).unwrap();
        inst.run(&mut cc, Target::Cpu).unwrap();
        inst.verify(&cc).unwrap();
    }

    #[test]
    fn render_matches_reference_gpu() {
        let w = Raytracer;
        let mut cc =
            Concord::new(SystemConfig::ultrabook(), w.spec().source, Options::default()).unwrap();
        let mut inst = w.build(&mut cc, Scale::Tiny).unwrap();
        let totals = inst.run(&mut cc, Target::Gpu).unwrap();
        assert!(totals.used_gpu);
        inst.verify(&cc).unwrap();
    }
}
