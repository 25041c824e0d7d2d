//! BTree (Rodinia): parallel point queries over a bulk-loaded n-ary search
//! tree with records at the leaves. The tree is pointer-linked in shared
//! memory; each work item descends from the root following key
//! comparisons, an irregular access pattern whose depth depends on the
//! query (the Rodinia `command.txt` batch of searches).

use crate::{Construct, Instance, RunTotals, Scale, Spec, Workload};
use concord_runtime::{Concord, RuntimeError, Target};
use concord_svm::CpuAddr;
use rand::rngs::StdRng;
use rand::{seq::SliceRandom, Rng, SeedableRng};

/// Fan-out of interior nodes.
const ORDER: usize = 8;
/// Keys per node.
const KEYS: usize = ORDER - 1;

const SOURCE: &str = r#"
// N-ary search tree point queries (Rodinia BTree, Concord port).
struct BTNode {
    BTNode* child[8];
    int keys[7];
    int vals[7];
    int nkeys;
    int leaf;
};
class BTreeBody {
public:
    BTNode* root;
    int* queries;
    int* results;
    void operator()(int i) {
        int q = queries[i];
        BTNode* node = root;
        int res = -1;
        while (node != nullptr) {
            int j = 0;
            while (j < node->nkeys && q > node->keys[j]) {
                j++;
            }
            if (j < node->nkeys && q == node->keys[j]) {
                res = node->vals[j];
                break;
            }
            if (node->leaf != 0) {
                break;
            }
            node = node->child[j];
        }
        results[i] = res;
    }
};
"#;

/// Node byte layout (must match the struct above: 8 ptrs, 7+7 ints, 2 ints).
const NODE_SIZE: u64 = 8 * 8 + 7 * 4 + 7 * 4 + 4 + 4;

/// The BTree workload definition.
#[derive(Debug, Clone, Copy)]
pub struct BTree;

/// Built instance.
pub struct BTreeInstance {
    body: CpuAddr,
    results: CpuAddr,
    queries: Vec<i32>,
    expected: Vec<i32>,
    n: u32,
}

/// Bulk-load a sorted key list into a tree; returns the root address.
fn build_tree(
    cc: &mut Concord,
    keys: &[i32],
    val_of: &dyn Fn(i32) -> i32,
) -> Result<CpuAddr, RuntimeError> {
    // Leaves hold up to KEYS keys each; interior nodes route.
    let mut level: Vec<(CpuAddr, i32)> = Vec::new(); // (node, max key in subtree)
    for chunk in keys.chunks(KEYS) {
        let node = alloc_node(cc)?;
        write_node(cc, node, chunk, &[], true, val_of)?;
        level.push((node, *chunk.last().expect("non-empty chunk")));
    }
    while level.len() > 1 {
        let mut next = Vec::new();
        for group in level.chunks(ORDER) {
            let node = alloc_node(cc)?;
            // Separator keys: max of each child subtree except the last.
            let seps: Vec<i32> = group[..group.len() - 1].iter().map(|&(_, mx)| mx).collect();
            let children: Vec<CpuAddr> = group.iter().map(|&(a, _)| a).collect();
            write_node(cc, node, &seps, &children, false, val_of)?;
            next.push((node, group.last().expect("non-empty group").1));
        }
        level = next;
    }
    Ok(level[0].0)
}

fn alloc_node(cc: &mut Concord) -> Result<CpuAddr, RuntimeError> {
    cc.malloc(NODE_SIZE)
}

fn write_node(
    cc: &mut Concord,
    node: CpuAddr,
    keys: &[i32],
    children: &[CpuAddr],
    leaf: bool,
    val_of: &dyn Fn(i32) -> i32,
) -> Result<(), RuntimeError> {
    for (j, &c) in children.iter().enumerate() {
        cc.region_mut().write_ptr(node.offset(j as u64 * 8), c)?;
    }
    for (j, &k) in keys.iter().enumerate() {
        cc.region_mut().write_i32(node.offset(64 + j as u64 * 4), k)?;
        // Interior separator keys are real keys (subtree maxima), so the
        // kernel's early-out on equality must see the true value there too.
        cc.region_mut().write_i32(node.offset(92 + j as u64 * 4), val_of(k))?;
    }
    cc.region_mut().write_i32(node.offset(120), keys.len() as i32)?;
    cc.region_mut().write_i32(node.offset(124), leaf as i32)?;
    Ok(())
}

impl Workload for BTree {
    fn spec(&self) -> Spec {
        Spec {
            name: "BTree",
            origin: "Rodinia",
            data_structure: "tree",
            construct: Construct::ParallelFor,
            kernel_class: "BTreeBody",
            source: SOURCE,
        }
    }

    fn build(&self, cc: &mut Concord, scale: Scale) -> Result<Box<dyn Instance>, RuntimeError> {
        let (nkeys, nqueries) = match scale {
            Scale::Tiny => (300usize, 128u32),
            Scale::Small => (20_000, 2_048),
            Scale::Medium => (200_000, 8_192),
        };
        let mut rng = StdRng::seed_from_u64(0xB73E);
        // Distinct sorted keys with gaps so misses exist.
        let mut keyset: Vec<i32> = (0..nkeys as i32).map(|i| i * 3 + 1).collect();
        keyset.shuffle(&mut rng);
        keyset.truncate(nkeys);
        keyset.sort_unstable();
        let val_of = |k: i32| k.wrapping_mul(7) ^ 0x5a;
        let root = build_tree(cc, &keyset, &val_of)?;
        // Queries: ~70% hits, 30% misses (the command batch).
        let queries: Vec<i32> = (0..nqueries)
            .map(|_| {
                if rng.gen_range(0..10) < 7 {
                    keyset[rng.gen_range(0..keyset.len())]
                } else {
                    rng.gen_range(0..(nkeys as i32 * 3)) * 3 // multiples of 3 miss
                }
            })
            .collect();
        let expected: Vec<i32> = queries
            .iter()
            .map(|q| if keyset.binary_search(q).is_ok() { val_of(*q) } else { -1 })
            .collect();
        let qarr = cc.malloc(nqueries as u64 * 4)?;
        let results = cc.malloc(nqueries as u64 * 4)?;
        for (i, &q) in queries.iter().enumerate() {
            cc.region_mut().write_i32(CpuAddr(qarr.0 + i as u64 * 4), q)?;
        }
        let body = cc.malloc(3 * 8)?;
        cc.region_mut().write_ptr(body, root)?;
        cc.region_mut().write_ptr(body.offset(8), qarr)?;
        cc.region_mut().write_ptr(body.offset(16), results)?;
        let mut inst = BTreeInstance { body, results, queries, expected, n: nqueries };
        inst.reset(cc)?;
        Ok(Box::new(inst))
    }
}

impl Instance for BTreeInstance {
    fn run(&mut self, cc: &mut Concord, target: Target) -> Result<RunTotals, RuntimeError> {
        let mut totals = RunTotals::default();
        let r = cc.parallel_for_hetero("BTreeBody", self.body, self.n, target)?;
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
                return Err(format!("query {i} ({}): result {got}, expected {e}", self.queries[i]));
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
    fn btree_search_matches_binary_search() {
        for target in [Target::Cpu, Target::Gpu] {
            let w = BTree;
            let mut cc =
                Concord::new(SystemConfig::ultrabook(), w.spec().source, Options::default())
                    .unwrap();
            let mut inst = w.build(&mut cc, Scale::Tiny).unwrap();
            inst.run(&mut cc, target).unwrap();
            inst.verify(&cc).unwrap_or_else(|e| panic!("{target:?}: {e}"));
        }
    }

    #[test]
    fn node_size_matches_struct_layout() {
        // Guard against layout drift between the builder and the kernel.
        let lp = concord_frontend::compile(SOURCE).unwrap();
        let info = lp.module.structs.iter().find(|s| s.name == "BTNode").unwrap();
        assert_eq!(info.size, NODE_SIZE);
        assert_eq!(info.field("keys").unwrap().offset, 64);
        assert_eq!(info.field("vals").unwrap().offset, 92);
        assert_eq!(info.field("nkeys").unwrap().offset, 120);
        assert_eq!(info.field("leaf").unwrap().offset, 124);
    }
}
