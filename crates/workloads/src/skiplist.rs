//! Skip list (in-house): parallel lookups in a sorted skip list — a
//! hierarchy of linked lists where level `k` skips roughly `2^k` elements.
//! The search path is input-dependent pointer chasing, the archetype of
//! the irregularity the paper studies.

use crate::{Construct, Instance, RunTotals, Scale, Spec, Workload};
use concord_runtime::{Concord, RuntimeError, Target};
use concord_svm::CpuAddr;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Maximum tower height.
const LEVELS: usize = 8;

const SOURCE: &str = r#"
// Skip-list lookups (in-house workload, Concord port).
struct SLNode {
    SLNode* next[8];
    int key;
    int val;
};
class SkipListBody {
public:
    SLNode* head;
    int* queries;
    int* results;
    int levels;
    void operator()(int i) {
        int q = queries[i];
        SLNode* node = head;
        int res = -1;
        for (int lvl = levels - 1; lvl >= 0; lvl--) {
            while (node->next[lvl] != nullptr && node->next[lvl]->key < q) {
                node = node->next[lvl];
            }
        }
        SLNode* cand = node->next[0];
        if (cand != nullptr && cand->key == q) {
            res = cand->val;
        }
        results[i] = res;
    }
};
"#;

/// 8 next-pointers + key + val.
const NODE_SIZE: u64 = 8 * 8 + 4 + 4;

/// The SkipList workload definition.
#[derive(Debug, Clone, Copy)]
pub struct SkipList;

/// Built instance.
pub struct SkipListInstance {
    body: CpuAddr,
    results: CpuAddr,
    expected: Vec<i32>,
    n: u32,
}

impl Workload for SkipList {
    fn spec(&self) -> Spec {
        Spec {
            name: "SkipList",
            origin: "In-house",
            data_structure: "linked-list",
            construct: Construct::ParallelFor,
            kernel_class: "SkipListBody",
            source: SOURCE,
        }
    }

    fn build(&self, cc: &mut Concord, scale: Scale) -> Result<Box<dyn Instance>, RuntimeError> {
        let (nkeys, nqueries) = match scale {
            Scale::Tiny => (400usize, 128u32),
            Scale::Small => (30_000, 2_048),
            Scale::Medium => (250_000, 8_192),
        };
        let mut rng = StdRng::seed_from_u64(0x5C1B);
        let val_of = |k: i32| k.wrapping_mul(13) ^ 0x33;
        // Sorted distinct keys (odd numbers; even queries miss).
        let keys: Vec<i32> = (0..nkeys as i32).map(|i| i * 2 + 1).collect();
        // Build nodes in key order, linking each level.
        let head = cc.malloc(NODE_SIZE)?;
        cc.region_mut().write_i32(head.offset(64), i32::MIN)?;
        let mut tails = [head; LEVELS];
        for &k in &keys {
            let node = cc.malloc(NODE_SIZE)?;
            cc.region_mut().write_i32(node.offset(64), k)?;
            cc.region_mut().write_i32(node.offset(68), val_of(k))?;
            // Tower height: geometric with p = 1/2.
            let mut h = 1;
            while h < LEVELS && rng.gen_bool(0.5) {
                h += 1;
            }
            for (lvl, tail) in tails.iter_mut().take(h).enumerate() {
                cc.region_mut().write_ptr(tail.offset(lvl as u64 * 8), node)?;
                *tail = node;
            }
        }
        let queries: Vec<i32> = (0..nqueries)
            .map(|_| {
                if rng.gen_range(0..10) < 7 {
                    keys[rng.gen_range(0..keys.len())]
                } else {
                    rng.gen_range(0..nkeys as i32) * 2 // even → miss
                }
            })
            .collect();
        let expected: Vec<i32> =
            queries.iter().map(|q| if q % 2 == 1 { val_of(*q) } else { -1 }).collect();
        let qarr = cc.malloc(nqueries as u64 * 4)?;
        let results = cc.malloc(nqueries as u64 * 4)?;
        for (i, &q) in queries.iter().enumerate() {
            cc.region_mut().write_i32(CpuAddr(qarr.0 + i as u64 * 4), q)?;
        }
        let body = cc.malloc(3 * 8 + 8)?;
        cc.region_mut().write_ptr(body, head)?;
        cc.region_mut().write_ptr(body.offset(8), qarr)?;
        cc.region_mut().write_ptr(body.offset(16), results)?;
        cc.region_mut().write_i32(body.offset(24), LEVELS as i32)?;
        let mut inst = SkipListInstance { body, results, expected, n: nqueries };
        inst.reset(cc)?;
        Ok(Box::new(inst))
    }
}

impl Instance for SkipListInstance {
    fn run(&mut self, cc: &mut Concord, target: Target) -> Result<RunTotals, RuntimeError> {
        let mut totals = RunTotals::default();
        let r = cc.parallel_for_hetero("SkipListBody", self.body, self.n, target)?;
        totals.absorb(&r);
        Ok(totals)
    }

    fn verify(&self, cc: &Concord) -> Result<(), String> {
        for (i, &e) in self.expected.iter().enumerate() {
            let got = cc
                .region()
                .read_i32(CpuAddr(self.results.0 + i as u64 * 4))
                .map_err(|t| t.to_string())?;
            if got != e {
                return Err(format!("query {i}: {got}, expected {e}"));
            }
        }
        Ok(())
    }

    fn reset(&mut self, cc: &mut Concord) -> Result<(), RuntimeError> {
        for i in 0..self.n as u64 {
            cc.region_mut().write_i32(CpuAddr(self.results.0 + i * 4), -2)?;
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
    fn lookups_match_expected_on_both_devices() {
        for target in [Target::Cpu, Target::Gpu] {
            let w = SkipList;
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
        let info = lp.module.structs.iter().find(|s| s.name == "SLNode").unwrap();
        assert_eq!(info.size, NODE_SIZE.div_ceil(8) * 8);
        assert_eq!(info.field("key").unwrap().offset, 64);
        assert_eq!(info.field("val").unwrap().offset, 68);
    }
}
