//! FaceDetect (OpenCV): Viola-Jones-style cascade over an integral image.
//!
//! Each work item evaluates one detection window against a 22-stage
//! cascade of Haar-like features; a window aborts as soon as a stage
//! rejects it. §5.2.3 singles this out: the per-window early exit creates
//! extreme control-flow divergence, making FaceDetect the one workload
//! that loses energy on the GPU.

use crate::{Construct, Instance, RunTotals, Scale, Spec, Workload};
use concord_runtime::{Concord, RuntimeError, Target};
use concord_svm::CpuAddr;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SOURCE: &str = r#"
// Haar-cascade window classification over an integral image (OpenCV port).
struct Stage {
    float thresh;
    int first;
    int count;
};
struct Feature {
    int x0; int y0;
    int x1; int y1;
    float w;
    float thr;
    float pass;
    float fail;
};
class FaceBody {
public:
    int* integral;
    int img_w;
    Stage* stages;
    int nstages;
    Feature* feats;
    int stride;
    int cols;
    int* hits;
    void operator()(int i) {
        int wx = (i % cols) * stride;
        int wy = (i / cols) * stride;
        int ok = 1;
        for (int s = 0; s < nstages; s++) {
            float sum = 0.0f;
            int first = stages[s].first;
            int last = first + stages[s].count;
            for (int f = first; f < last; f++) {
                int ax = wx + feats[f].x0;
                int ay = wy + feats[f].y0;
                int bx = wx + feats[f].x1;
                int by = wy + feats[f].y1;
                // Rectangle sum via 4 integral-image corners.
                int rect = integral[by * img_w + bx]
                         - integral[ay * img_w + bx]
                         - integral[by * img_w + ax]
                         + integral[ay * img_w + ax];
                float v = (float)rect * feats[f].w;
                if (v > feats[f].thr) {
                    sum += feats[f].pass;
                } else {
                    sum += feats[f].fail;
                }
            }
            if (sum < stages[s].thresh) {
                ok = 0;
                break;   // early abort: the divergence §5.2.3 describes
            }
        }
        hits[i] = ok;
    }
};
"#;

const STAGES: usize = 22;
const WIN: usize = 12;

/// The FaceDetect workload definition.
#[derive(Debug, Clone, Copy)]
pub struct FaceDetect;

#[derive(Debug, Clone, Copy)]
struct HostFeature {
    rect: [i32; 4],
    w: f32,
    thr: f32,
    pass: f32,
    fail: f32,
}

#[derive(Debug, Clone, Copy)]
struct HostStage {
    thresh: f32,
    first: usize,
    count: usize,
}

fn build_cascade(rng: &mut StdRng) -> (Vec<HostStage>, Vec<HostFeature>) {
    let mut stages = Vec::new();
    let mut feats = Vec::new();
    for s in 0..STAGES {
        // Later stages have more features, like real cascades.
        let count = 2 + s;
        let first = feats.len();
        for _ in 0..count {
            let x0 = rng.gen_range(0..WIN as i32 - 2);
            let y0 = rng.gen_range(0..WIN as i32 - 2);
            let x1 = rng.gen_range(x0 + 1..WIN as i32);
            let y1 = rng.gen_range(y0 + 1..WIN as i32);
            feats.push(HostFeature {
                rect: [x0, y0, x1, y1],
                w: 1.0 / ((x1 - x0) * (y1 - y0)) as f32,
                thr: rng.gen_range(80.0..170.0f32),
                pass: rng.gen_range(0.4..1.0f32),
                fail: rng.gen_range(-0.4..0.2f32),
            });
        }
        // Placeholder threshold; calibrated against the actual image so the
        // rejection rate decays gradually across all 22 stages (the §5.2.3
        // divergence pattern: different windows abort at different depths).
        stages.push(HostStage { thresh: 0.0, first, count });
    }
    (stages, feats)
}

/// Set each stage threshold to a trained per-stage rejection rate: the
/// early stages reject half the windows, later stages only ~15%, so the
/// few surviving windows run very deep. That skew is what makes the GPU
/// warp wait on its deepest lane while most lanes idle (§5.2.3).
fn calibrate_cascade(
    stages: &mut [HostStage],
    feats: &[HostFeature],
    ii: &[i32],
    img_w: usize,
    stride: usize,
    cols: usize,
    rows: usize,
) {
    let mut survivors: Vec<usize> = (0..cols * rows).collect();
    for (stage_index, st) in stages.iter_mut().enumerate() {
        let mut sums: Vec<f32> = survivors
            .iter()
            .map(|&i| {
                let wx = (i % cols) * stride;
                let wy = (i / cols) * stride;
                stage_sum(st, feats, ii, img_w, wx, wy)
            })
            .collect();
        if sums.is_empty() {
            st.thresh = f32::MIN;
            continue;
        }
        let mut sorted = sums.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
        // Trained like a real cascade: the first stages are cheap, strong
        // rejectors; later stages barely reject, so the few survivors run
        // nearly the whole cascade while their warp-mates idle.
        let reject = match stage_index {
            0 => 0.75,
            1 => 0.55,
            2 => 0.35,
            _ => 0.10,
        };
        let cut = sorted[((sorted.len() as f64 * reject) as usize).min(sorted.len() - 1)];
        st.thresh = cut;
        let keep: Vec<usize> =
            survivors.iter().zip(&sums).filter(|(_, &s)| s >= cut).map(|(&i, _)| i).collect();
        survivors = keep;
        sums.clear();
    }
}

fn stage_sum(
    st: &HostStage,
    feats: &[HostFeature],
    ii: &[i32],
    img_w: usize,
    wx: usize,
    wy: usize,
) -> f32 {
    let mut sum = 0.0f32;
    for f in &feats[st.first..st.first + st.count] {
        let ax = wx as i32 + f.rect[0];
        let ay = wy as i32 + f.rect[1];
        let bx = wx as i32 + f.rect[2];
        let by = wy as i32 + f.rect[3];
        let at = |x: i32, y: i32| ii[(y as usize) * img_w + x as usize];
        let rect = at(bx, by) - at(bx, ay) - at(ax, by) + at(ax, ay);
        let v = rect as f32 * f.w;
        sum += if v > f.thr { f.pass } else { f.fail };
    }
    sum
}

fn integral_image(img: &[i32], w: usize, h: usize) -> Vec<i32> {
    let mut ii = vec![0i32; w * h];
    for y in 0..h {
        let mut row = 0i32;
        for x in 0..w {
            row += img[y * w + x];
            ii[y * w + x] = row + if y > 0 { ii[(y - 1) * w + x] } else { 0 };
        }
    }
    ii
}

fn reference_detect(
    ii: &[i32],
    img_w: usize,
    stages: &[HostStage],
    feats: &[HostFeature],
    stride: usize,
    cols: usize,
    rows: usize,
) -> Vec<i32> {
    let mut hits = vec![0i32; cols * rows];
    for (i, out) in hits.iter_mut().enumerate() {
        let wx = (i % cols) * stride;
        let wy = (i / cols) * stride;
        let mut ok = 1i32;
        'stages: for st in stages {
            let mut sum = 0.0f32;
            for f in &feats[st.first..st.first + st.count] {
                let ax = wx as i32 + f.rect[0];
                let ay = wy as i32 + f.rect[1];
                let bx = wx as i32 + f.rect[2];
                let by = wy as i32 + f.rect[3];
                let at = |x: i32, y: i32| ii[(y as usize) * img_w + x as usize];
                let rect = at(bx, by) - at(bx, ay) - at(ax, by) + at(ax, ay);
                let v = rect as f32 * f.w;
                sum += if v > f.thr { f.pass } else { f.fail };
            }
            if sum < st.thresh {
                ok = 0;
                break 'stages;
            }
        }
        *out = ok;
    }
    hits
}

/// Built instance.
pub struct FaceDetectInstance {
    body: CpuAddr,
    hits: CpuAddr,
    expected: Vec<i32>,
    n: u32,
}

impl Workload for FaceDetect {
    fn spec(&self) -> Spec {
        Spec {
            name: "FaceDetect",
            origin: "OpenCV",
            data_structure: "cascade",
            construct: Construct::ParallelFor,
            kernel_class: "FaceBody",
            source: SOURCE,
        }
    }

    fn build(&self, cc: &mut Concord, scale: Scale) -> Result<Box<dyn Instance>, RuntimeError> {
        let (img_w, img_h) = match scale {
            Scale::Tiny => (48usize, 36usize),
            Scale::Small => (192, 144),
            Scale::Medium => (320, 240),
        };
        let stride = 4usize;
        let mut rng = StdRng::seed_from_u64(0xFACE);
        // Synthetic photo: per-tile brightness structure (so windows differ
        // at feature scale) + gradient + noise + bright blobs ("faces").
        let tiles_x = img_w / 8 + 1;
        let tiles_y = img_h / 8 + 1;
        let tile_bright: Vec<i32> = (0..tiles_x * tiles_y).map(|_| rng.gen_range(0..120)).collect();
        let mut img = vec![0i32; img_w * img_h];
        for y in 0..img_h {
            for x in 0..img_w {
                let t = tile_bright[(y / 8) * tiles_x + (x / 8)];
                img[y * img_w + x] = t + ((x * 3 + y * 2) % 48) as i32 + rng.gen_range(0..32);
            }
        }
        for _ in 0..(img_w * img_h / 500).max(2) {
            let cx = rng.gen_range(0..img_w) as i32;
            let cy = rng.gen_range(0..img_h) as i32;
            for dy in -4i32..=4 {
                for dx in -4i32..=4 {
                    let (x, y) = (cx + dx, cy + dy);
                    if x >= 0
                        && y >= 0
                        && (x as usize) < img_w
                        && (y as usize) < img_h
                        && dx * dx + dy * dy <= 16
                    {
                        img[y as usize * img_w + x as usize] += 120;
                    }
                }
            }
        }
        let ii = integral_image(&img, img_w, img_h);
        let (mut stages, feats) = build_cascade(&mut rng);
        let cols = (img_w - WIN) / stride;
        let rows = (img_h - WIN) / stride;
        calibrate_cascade(&mut stages, &feats, &ii, img_w, stride, cols, rows);
        let n = (cols * rows) as u32;
        // Upload.
        let iarr = cc.malloc((img_w * img_h) as u64 * 4)?;
        for (i, &v) in ii.iter().enumerate() {
            cc.region_mut().write_i32(CpuAddr(iarr.0 + i as u64 * 4), v)?;
        }
        let sarr = cc.malloc(stages.len() as u64 * 16)?;
        for (s, st) in stages.iter().enumerate() {
            let base = CpuAddr(sarr.0 + s as u64 * 16);
            cc.region_mut().write_f32(base, st.thresh)?;
            cc.region_mut().write_i32(base.offset(4), st.first as i32)?;
            cc.region_mut().write_i32(base.offset(8), st.count as i32)?;
        }
        let farr = cc.malloc(feats.len() as u64 * 32)?;
        for (fi, f) in feats.iter().enumerate() {
            let base = CpuAddr(farr.0 + fi as u64 * 32);
            for (k, r) in f.rect.iter().enumerate() {
                cc.region_mut().write_i32(base.offset(k as u64 * 4), *r)?;
            }
            cc.region_mut().write_f32(base.offset(16), f.w)?;
            cc.region_mut().write_f32(base.offset(20), f.thr)?;
            cc.region_mut().write_f32(base.offset(24), f.pass)?;
            cc.region_mut().write_f32(base.offset(28), f.fail)?;
        }
        let hits = cc.malloc(n as u64 * 4)?;
        // Body: integral*, img_w, stages*, nstages, feats*, stride, cols, hits*.
        let body = cc.malloc(64)?;
        cc.region_mut().write_ptr(body, iarr)?;
        cc.region_mut().write_i32(body.offset(8), img_w as i32)?;
        cc.region_mut().write_ptr(body.offset(16), sarr)?;
        cc.region_mut().write_i32(body.offset(24), stages.len() as i32)?;
        cc.region_mut().write_ptr(body.offset(32), farr)?;
        cc.region_mut().write_i32(body.offset(40), stride as i32)?;
        cc.region_mut().write_i32(body.offset(44), cols as i32)?;
        cc.region_mut().write_ptr(body.offset(48), hits)?;
        let expected = reference_detect(&ii, img_w, &stages, &feats, stride, cols, rows);
        Ok(Box::new(FaceDetectInstance { body, hits, expected, n }))
    }
}

impl Instance for FaceDetectInstance {
    fn run(&mut self, cc: &mut Concord, target: Target) -> Result<RunTotals, RuntimeError> {
        let mut totals = RunTotals::default();
        let r = cc.parallel_for_hetero("FaceBody", self.body, self.n, target)?;
        totals.absorb(&r);
        Ok(totals)
    }

    fn verify(&self, cc: &Concord) -> Result<(), String> {
        for (i, &e) in self.expected.iter().enumerate() {
            let got = cc
                .region()
                .read_i32(CpuAddr(self.hits.0 + i as u64 * 4))
                .map_err(|t| t.to_string())?;
            if got != e {
                return Err(format!("window {i}: {got} vs expected {e}"));
            }
        }
        Ok(())
    }

    fn reset(&mut self, cc: &mut Concord) -> Result<(), RuntimeError> {
        for i in 0..self.n as u64 {
            cc.region_mut().write_i32(CpuAddr(self.hits.0 + i * 4), -1)?;
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
    fn layouts_match_structs() {
        let lp = concord_frontend::compile(SOURCE).unwrap();
        let layout = |name: &str| lp.module.structs.iter().find(|s| s.name == name).unwrap();
        let st = layout("Stage");
        assert_eq!(st.size, 16);
        assert_eq!(st.field("first").unwrap().offset, 4);
        let ft = layout("Feature");
        assert_eq!(ft.size, 32);
        assert_eq!(ft.field("w").unwrap().offset, 16);
        assert_eq!(ft.field("fail").unwrap().offset, 28);
    }

    #[test]
    fn detection_matches_reference_both_devices() {
        for target in [Target::Cpu, Target::Gpu] {
            let w = FaceDetect;
            let mut cc =
                Concord::new(SystemConfig::ultrabook(), w.spec().source, Options::default())
                    .unwrap();
            let mut inst = w.build(&mut cc, Scale::Tiny).unwrap();
            inst.run(&mut cc, target).unwrap();
            inst.verify(&cc).unwrap_or_else(|e| panic!("{target:?}: {e}"));
        }
    }

    #[test]
    fn early_abort_rejects_most_windows() {
        // The cascade must reject most windows early (that is the point of
        // the divergence discussion in §5.2.3).
        let mut rng = StdRng::seed_from_u64(0xFACE);
        let (img_w, img_h) = (48usize, 36usize);
        let tiles_x = img_w / 8 + 1;
        let tile_bright: Vec<i32> =
            (0..tiles_x * (img_h / 8 + 1)).map(|_| rng.gen_range(0..120)).collect();
        let mut img = vec![0i32; img_w * img_h];
        for y in 0..img_h {
            for x in 0..img_w {
                let t = tile_bright[(y / 8) * tiles_x + (x / 8)];
                img[y * img_w + x] = t + ((x * 3 + y * 2) % 48) as i32 + rng.gen_range(0..32);
            }
        }
        let ii = integral_image(&img, img_w, img_h);
        let (mut stages, feats) = build_cascade(&mut rng);
        let stride = 4;
        let cols = (img_w - WIN) / stride;
        let rows = (img_h - WIN) / stride;
        calibrate_cascade(&mut stages, &feats, &ii, img_w, stride, cols, rows);
        let hits = reference_detect(&ii, img_w, &stages, &feats, stride, cols, rows);
        let frac = hits.iter().sum::<i32>() as f64 / hits.len() as f64;
        assert!(frac < 0.5, "most windows should be rejected, got {frac}");
        // Rejections must be spread over stages, not all in stage 1: count
        // how many windows survive at least 5 stages.
        let mut deep = 0usize;
        for i in 0..cols * rows {
            let wx = (i % cols) * stride;
            let wy = (i / cols) * stride;
            let mut depth = 0;
            for st in &stages {
                if stage_sum(st, &feats, &ii, img_w, wx, wy) < st.thresh {
                    break;
                }
                depth += 1;
            }
            if depth >= 5 {
                deep += 1;
            }
        }
        assert!(
            deep * 20 >= cols * rows,
            "at least 5% of windows should survive 5+ stages, got {deep}/{}",
            cols * rows
        );
    }
}
