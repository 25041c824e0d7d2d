//! BarnesHut n-body (in-house): force calculation over an octree.
//!
//! The host builds an octree over the bodies; the offloaded kernel
//! computes the force on each body by traversing the (unbalanced) tree
//! iteratively with an explicit stack, opening cells that fail the
//! Barnes-Hut θ criterion. Traversal depth depends on the body's position:
//! highly irregular control flow and pointer chasing.

use crate::{Construct, Instance, RunTotals, Scale, Spec, Workload};
use concord_runtime::{Concord, RuntimeError, Target};
use concord_svm::CpuAddr;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SOURCE: &str = r#"
// Barnes-Hut force calculation over an octree (in-house, Concord port).
struct OTNode {
    OTNode* child[8];
    float cx; float cy; float cz;   // center of mass
    float mass;
    float size;                      // cell side length
    int count;                       // bodies in subtree (1 = leaf body)
};
class ForceBody {
public:
    OTNode* root;
    float* px; float* py; float* pz;
    float* ax; float* ay; float* az;
    float theta2;
    float eps2;
    void operator()(int i) {
        float xi = px[i];
        float yi = py[i];
        float zi = pz[i];
        float fx = 0.0f;
        float fy = 0.0f;
        float fz = 0.0f;
        OTNode* stack[128];
        int top = 0;
        stack[top] = root;
        top = top + 1;
        while (top > 0) {
            top = top - 1;
            OTNode* n = stack[top];
            float dx = n->cx - xi;
            float dy = n->cy - yi;
            float dz = n->cz - zi;
            float d2 = dx*dx + dy*dy + dz*dz + eps2;
            if (n->count == 1 || n->size * n->size < theta2 * d2) {
                // Far enough (or a single body): approximate.
                float inv = 1.0f / sqrtf(d2);
                float f = n->mass * inv * inv * inv;
                fx += f * dx;
                fy += f * dy;
                fz += f * dz;
            } else {
                for (int c = 0; c < 8; c++) {
                    if (n->child[c] != nullptr) {
                        stack[top] = n->child[c];
                        top = top + 1;
                    }
                }
            }
        }
        ax[i] = fx;
        ay[i] = fy;
        az[i] = fz;
    }
};
"#;

/// 8 child pointers + 5 floats + count (+pad).
const NODE_SIZE: u64 = 8 * 8 + 5 * 4 + 4;

/// The BarnesHut workload definition.
#[derive(Debug, Clone, Copy)]
pub struct BarnesHut;

/// Host-side octree used for construction and the reference force.
struct HostTree {
    nodes: Vec<HostNode>,
}

#[derive(Clone)]
struct HostNode {
    child: [Option<usize>; 8],
    center: [f32; 3], // geometric center of the cell
    half: f32,
    com: [f32; 3],
    mass: f32,
    count: u32,
    body: Option<usize>,
}

impl HostTree {
    fn new(half: f32) -> Self {
        HostTree {
            nodes: vec![HostNode {
                child: [None; 8],
                center: [0.0; 3],
                half,
                com: [0.0; 3],
                mass: 0.0,
                count: 0,
                body: None,
            }],
        }
    }

    fn octant(center: &[f32; 3], p: &[f32; 3]) -> usize {
        (usize::from(p[0] >= center[0]))
            | (usize::from(p[1] >= center[1]) << 1)
            | (usize::from(p[2] >= center[2]) << 2)
    }

    fn child_center(center: &[f32; 3], half: f32, oct: usize) -> [f32; 3] {
        let h = half / 2.0;
        [
            center[0] + if oct & 1 != 0 { h } else { -h },
            center[1] + if oct & 2 != 0 { h } else { -h },
            center[2] + if oct & 4 != 0 { h } else { -h },
        ]
    }

    fn insert(&mut self, node: usize, body: usize, p: [f32; 3], depth: u32) {
        let n = &mut self.nodes[node];
        if n.count == 0 {
            n.count = 1;
            n.body = Some(body);
            n.com = p;
            n.mass = 1.0;
            return;
        }
        // Subdivide: push existing single body down, then insert.
        if n.count == 1 && depth < 32 {
            let existing = n.body.take().expect("leaf has a body");
            let ep = n.com;
            n.count = 0; // reinserted below
            n.mass = 0.0;
            self.insert_into_child(node, existing, ep, depth);
            self.nodes[node].count = 1;
        }
        if depth >= 32 {
            // Degenerate cluster: merge into the cell (keeps count > 1).
            let n = &mut self.nodes[node];
            n.count += 1;
            n.mass += 1.0;
            return;
        }
        self.insert_into_child(node, body, p, depth);
        let n = &mut self.nodes[node];
        n.count += 1;
        n.mass += 1.0;
    }

    fn insert_into_child(&mut self, node: usize, body: usize, p: [f32; 3], depth: u32) {
        let (center, half) = {
            let n = &self.nodes[node];
            (n.center, n.half)
        };
        let oct = Self::octant(&center, &p);
        let child = match self.nodes[node].child[oct] {
            Some(c) => c,
            None => {
                let c = self.nodes.len();
                self.nodes.push(HostNode {
                    child: [None; 8],
                    center: Self::child_center(&center, half, oct),
                    half: half / 2.0,
                    com: [0.0; 3],
                    mass: 0.0,
                    count: 0,
                    body: None,
                });
                self.nodes[node].child[oct] = Some(c);
                c
            }
        };
        self.insert(child, body, p, depth + 1);
    }

    /// Recompute centers of mass bottom-up.
    fn summarize(&mut self, node: usize, positions: &[[f32; 3]]) -> ([f32; 3], f32) {
        if let Some(b) = self.nodes[node].body {
            let p = positions[b];
            self.nodes[node].com = p;
            self.nodes[node].mass = 1.0;
            return (p, 1.0);
        }
        let children: Vec<usize> = self.nodes[node].child.iter().flatten().copied().collect();
        if children.is_empty() {
            // Degenerate merged cell: keep accumulated mass at cell center.
            let n = &self.nodes[node];
            return (n.com, n.mass);
        }
        let mut acc = [0.0f32; 3];
        let mut mass = 0.0f32;
        for c in children {
            let (cc, cm) = self.summarize(c, positions);
            for k in 0..3 {
                acc[k] += cc[k] * cm;
            }
            mass += cm;
        }
        for a in acc.iter_mut() {
            *a /= mass;
        }
        self.nodes[node].com = acc;
        self.nodes[node].mass = mass;
        (acc, mass)
    }
}

/// Reference force computation mirroring the kernel exactly (stack order
/// included, so float results match bit-for-bit on the CPU path).
fn reference_forces(
    tree: &HostTree,
    positions: &[[f32; 3]],
    theta2: f32,
    eps2: f32,
) -> Vec<[f32; 3]> {
    positions
        .iter()
        .map(|p| {
            let mut f = [0.0f32; 3];
            let mut stack = vec![0usize];
            while let Some(n) = stack.pop() {
                let node = &tree.nodes[n];
                let dx = node.com[0] - p[0];
                let dy = node.com[1] - p[1];
                let dz = node.com[2] - p[2];
                let d2 = dx * dx + dy * dy + dz * dz + eps2;
                let size = node.half * 2.0;
                if node.count == 1 || size * size < theta2 * d2 {
                    let inv = 1.0 / d2.sqrt();
                    let fm = node.mass * inv * inv * inv;
                    f[0] += fm * dx;
                    f[1] += fm * dy;
                    f[2] += fm * dz;
                } else {
                    // Kernel pushes children 0..7 then pops LIFO; mirror it
                    // (verification uses a relative tolerance, but matching
                    // the order keeps float drift minimal).
                    stack.extend(node.child.iter().flatten().copied());
                }
            }
            f
        })
        .collect()
}

/// Built instance.
pub struct BarnesHutInstance {
    body: CpuAddr,
    ax: CpuAddr,
    ay: CpuAddr,
    az: CpuAddr,
    expected: Vec<[f32; 3]>,
    n: u32,
}

impl Workload for BarnesHut {
    fn spec(&self) -> Spec {
        Spec {
            name: "BarnesHut",
            origin: "In-house",
            data_structure: "tree",
            construct: Construct::ParallelFor,
            kernel_class: "ForceBody",
            source: SOURCE,
        }
    }

    fn build(&self, cc: &mut Concord, scale: Scale) -> Result<Box<dyn Instance>, RuntimeError> {
        let n = match scale {
            Scale::Tiny => 96usize,
            Scale::Small => 1_500,
            Scale::Medium => 6_000,
        };
        let mut rng = StdRng::seed_from_u64(0xBA12);
        // Clustered distribution (two plummer-ish blobs) for an unbalanced
        // tree.
        let positions: Vec<[f32; 3]> = (0..n)
            .map(|i| {
                let c = if i % 3 == 0 { 0.5f32 } else { -0.4f32 };
                [
                    c + rng.gen_range(-0.3..0.3f32) * rng.gen_range(0.0..1.0f32),
                    c + rng.gen_range(-0.3..0.3f32) * rng.gen_range(0.0..1.0f32),
                    rng.gen_range(-0.2..0.2f32),
                ]
            })
            .collect();
        let mut tree = HostTree::new(1.0);
        for (i, &p) in positions.iter().enumerate() {
            tree.insert(0, i, p, 0);
        }
        tree.summarize(0, &positions);
        let theta2 = 0.25f32; // theta = 0.5
        let eps2 = 1e-4f32;
        // Upload the tree.
        let addrs: Vec<CpuAddr> =
            (0..tree.nodes.len()).map(|_| cc.malloc(NODE_SIZE)).collect::<Result<_, _>>()?;
        for (i, node) in tree.nodes.iter().enumerate() {
            let a = addrs[i];
            for (c, ch) in node.child.iter().enumerate() {
                let p = ch.map(|x| addrs[x]).unwrap_or(CpuAddr::NULL);
                cc.region_mut().write_ptr(a.offset(c as u64 * 8), p)?;
            }
            cc.region_mut().write_f32(a.offset(64), node.com[0])?;
            cc.region_mut().write_f32(a.offset(68), node.com[1])?;
            cc.region_mut().write_f32(a.offset(72), node.com[2])?;
            cc.region_mut().write_f32(a.offset(76), node.mass)?;
            cc.region_mut().write_f32(a.offset(80), node.half * 2.0)?;
            cc.region_mut().write_i32(a.offset(84), node.count as i32)?;
        }
        let px = cc.malloc(n as u64 * 4)?;
        let py = cc.malloc(n as u64 * 4)?;
        let pz = cc.malloc(n as u64 * 4)?;
        let ax = cc.malloc(n as u64 * 4)?;
        let ay = cc.malloc(n as u64 * 4)?;
        let az = cc.malloc(n as u64 * 4)?;
        for (i, p) in positions.iter().enumerate() {
            cc.region_mut().write_f32(CpuAddr(px.0 + i as u64 * 4), p[0])?;
            cc.region_mut().write_f32(CpuAddr(py.0 + i as u64 * 4), p[1])?;
            cc.region_mut().write_f32(CpuAddr(pz.0 + i as u64 * 4), p[2])?;
        }
        let body = cc.malloc(7 * 8 + 8)?;
        cc.region_mut().write_ptr(body, addrs[0])?;
        cc.region_mut().write_ptr(body.offset(8), px)?;
        cc.region_mut().write_ptr(body.offset(16), py)?;
        cc.region_mut().write_ptr(body.offset(24), pz)?;
        cc.region_mut().write_ptr(body.offset(32), ax)?;
        cc.region_mut().write_ptr(body.offset(40), ay)?;
        cc.region_mut().write_ptr(body.offset(48), az)?;
        cc.region_mut().write_f32(body.offset(56), theta2)?;
        cc.region_mut().write_f32(body.offset(60), eps2)?;
        let expected = reference_forces(&tree, &positions, theta2, eps2);
        Ok(Box::new(BarnesHutInstance { body, ax, ay, az, expected, n: n as u32 }))
    }
}

impl Instance for BarnesHutInstance {
    fn run(&mut self, cc: &mut Concord, target: Target) -> Result<RunTotals, RuntimeError> {
        let mut totals = RunTotals::default();
        let r = cc.parallel_for_hetero("ForceBody", self.body, self.n, target)?;
        totals.absorb(&r);
        Ok(totals)
    }

    fn verify(&self, cc: &Concord) -> Result<(), String> {
        for (i, e) in self.expected.iter().enumerate() {
            let got = [
                cc.region()
                    .read_f32(CpuAddr(self.ax.0 + i as u64 * 4))
                    .map_err(|t| t.to_string())?,
                cc.region()
                    .read_f32(CpuAddr(self.ay.0 + i as u64 * 4))
                    .map_err(|t| t.to_string())?,
                cc.region()
                    .read_f32(CpuAddr(self.az.0 + i as u64 * 4))
                    .map_err(|t| t.to_string())?,
            ];
            for k in 0..3 {
                let denom = e[k].abs().max(1e-3);
                if ((got[k] - e[k]) / denom).abs() > 1e-3 {
                    return Err(format!(
                        "body {i} axis {k}: force {} vs expected {}",
                        got[k], e[k]
                    ));
                }
            }
        }
        Ok(())
    }

    fn reset(&mut self, cc: &mut Concord) -> Result<(), RuntimeError> {
        for i in 0..self.n as u64 {
            cc.region_mut().write_f32(CpuAddr(self.ax.0 + i * 4), 0.0)?;
            cc.region_mut().write_f32(CpuAddr(self.ay.0 + i * 4), 0.0)?;
            cc.region_mut().write_f32(CpuAddr(self.az.0 + i * 4), 0.0)?;
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
    fn forces_match_reference_on_both_devices() {
        for target in [Target::Cpu, Target::Gpu] {
            let w = BarnesHut;
            let mut cc =
                Concord::new(SystemConfig::ultrabook(), w.spec().source, Options::default())
                    .unwrap();
            let mut inst = w.build(&mut cc, Scale::Tiny).unwrap();
            inst.run(&mut cc, target).unwrap();
            inst.verify(&cc).unwrap_or_else(|e| panic!("{target:?}: {e}"));
        }
    }

    #[test]
    fn node_layout_matches_struct() {
        let lp = concord_frontend::compile(SOURCE).unwrap();
        let info = lp.module.structs.iter().find(|s| s.name == "OTNode").unwrap();
        assert_eq!(info.field("cx").unwrap().offset, 64);
        assert_eq!(info.field("mass").unwrap().offset, 76);
        assert_eq!(info.field("size").unwrap().offset, 80);
        assert_eq!(info.field("count").unwrap().offset, 84);
    }
}
