//! Frontier-driven graph workloads for `parallel_worklist_hetero`.
//!
//! The paper's graph workloads run level-synchronized sweeps over the
//! whole node range every round; the worklist construct instead drains
//! exactly the active frontier, the shape IrGL-style irregular programs
//! actually have. Four algorithms exercise the two determinism regimes
//! of the runtime:
//!
//! * **FrontierBFS** is a *guarded monotone* body (unvisited check, then
//!   a same-value write + `push`): it runs on the chunked/warped
//!   shadow-commit paths, and the sort+dedup frontier merge makes both
//!   the output bytes and the per-round frontier schedule-invariant.
//! * **WorklistCC**, **DeltaSSSP**, and **KCore** condition pushes on an
//!   `atomic_cas` result. Compare-and-swap is a gated op, so every
//!   executor runs these bodies serially in ascending item order —
//!   the same interleaving on cpu, gpu, hybrid, and native — which is
//!   what makes *value-carrying* updates (min-label, distance, degree)
//!   byte-identical per round, not just at the fixpoint.
//!
//! Each workload verifies against a host-side Rust reference and records
//! the per-round frontier sizes for the paper-style shape checks in
//! EXPERIMENTS.md.

use crate::graph::{self, CsrOnDevice, Graph};
use crate::{Construct, Instance, RunTotals, Scale, Spec, Workload};
use concord_runtime::{Concord, RuntimeError, Target, WorklistReport};
use concord_svm::CpuAddr;

const INF: i32 = 1_000_000_000;

/// A [`Workload`] whose instances drive `parallel_worklist_hetero`.
///
/// The generic [`Workload::build`] erases the instance down to
/// [`Instance`], which folds the per-round [`WorklistReport`] into flat
/// [`RunTotals`]. The differential battery and the bench harness need
/// the report itself (frontier sizes are part of the cross-target
/// determinism contract), so worklist workloads also expose a typed
/// builder.
pub trait WorklistWorkload: Workload {
    /// Like [`Workload::build`], but returns the worklist-typed view.
    ///
    /// # Errors
    ///
    /// Allocation failures or region faults.
    fn build_worklist(
        &self,
        cc: &mut Concord,
        scale: Scale,
    ) -> Result<Box<dyn WorklistInstance>, RuntimeError>;
}

/// A built worklist instance: everything an [`Instance`] does, plus
/// direct access to the frontier drain.
pub trait WorklistInstance: Instance {
    /// Drain the frontier once on `target` and return the per-round
    /// report. The one drain path: [`Instance::run`] folds this report
    /// into its totals.
    ///
    /// # Errors
    ///
    /// Runtime traps.
    fn drain(&mut self, cc: &mut Concord, target: Target) -> Result<WorklistReport, RuntimeError>;
}

fn grid_dims(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Tiny => (12, 12),
        Scale::Small => (64, 64),
        Scale::Medium => (110, 110),
    }
}

/// Write `vals[i]` to `base + 4*i` for each element.
fn write_all(cc: &mut Concord, base: CpuAddr, vals: &[i32]) -> Result<(), RuntimeError> {
    for (i, &v) in vals.iter().enumerate() {
        cc.region_mut().write_i32(CpuAddr(base.0 + i as u64 * 4), v)?;
    }
    Ok(())
}

fn read_all(cc: &Concord, base: CpuAddr, n: usize) -> Result<Vec<i32>, String> {
    (0..n as u64)
        .map(|i| cc.region().read_i32(CpuAddr(base.0 + i * 4)).map_err(|t| t.to_string()))
        .collect()
}

/// An [`Instance::run`]'s totals: the drain's merged report over all rounds.
fn totals(r: &WorklistReport) -> RunTotals {
    let mut totals = RunTotals::default();
    totals.absorb(&r.offload);
    totals
}

// ---------------------------------------------------------------------------
// FrontierBFS
// ---------------------------------------------------------------------------

const BFS_SOURCE: &str = r#"
// Frontier BFS: each work item expands one frontier node; unvisited
// neighbors take level cur+1 (same value from every pusher in the round)
// and are pushed onto the next frontier.
class FrontierBFS {
public:
    int* row_off;
    int* cols;
    int* level;
    void operator()(int v) {
        int next = level[v] + 1;
        for (int e = row_off[v]; e < row_off[v+1]; e++) {
            int w = cols[e];
            if (level[w] < 0) {
                level[w] = next;
                push(w);
            }
        }
    }
};
"#;

/// Frontier-driven BFS (the worklist twin of the flat `BFS` workload).
#[derive(Debug, Clone, Copy)]
pub struct FrontierBfs;

/// Built [`FrontierBfs`] instance.
pub struct FrontierBfsInstance {
    graph: Graph,
    csr: CsrOnDevice,
    level: CpuAddr,
    body: CpuAddr,
    source_node: u32,
    /// Per-round frontier sizes of the last run.
    pub frontier_sizes: Vec<u32>,
}

impl Workload for FrontierBfs {
    fn spec(&self) -> Spec {
        Spec {
            name: "FrontierBFS",
            origin: "Galois/IrGL",
            data_structure: "graph",
            construct: Construct::ParallelWorklist,
            kernel_class: "FrontierBFS",
            source: BFS_SOURCE,
        }
    }

    fn build(&self, cc: &mut Concord, scale: Scale) -> Result<Box<dyn Instance>, RuntimeError> {
        Ok(self.build_worklist(cc, scale)?)
    }
}

impl WorklistWorkload for FrontierBfs {
    fn build_worklist(
        &self,
        cc: &mut Concord,
        scale: Scale,
    ) -> Result<Box<dyn WorklistInstance>, RuntimeError> {
        let (w, h) = grid_dims(scale);
        let graph = graph::road_network(w, h, 0xBF5);
        let csr = graph::upload_csr(cc, &graph)?;
        let level = cc.malloc(u64::from(csr.n) * 4)?;
        let body = cc.malloc(3 * 8)?;
        cc.region_mut().write_ptr(body, csr.row_off)?;
        cc.region_mut().write_ptr(body.offset(8), csr.cols)?;
        cc.region_mut().write_ptr(body.offset(16), level)?;
        let mut inst = FrontierBfsInstance {
            graph,
            csr,
            level,
            body,
            source_node: 0,
            frontier_sizes: Vec::new(),
        };
        inst.reset(cc)?;
        Ok(Box::new(inst))
    }
}

impl WorklistInstance for FrontierBfsInstance {
    /// Drain the BFS worklist from the source node.
    fn drain(&mut self, cc: &mut Concord, target: Target) -> Result<WorklistReport, RuntimeError> {
        #[allow(clippy::cast_possible_wrap)]
        let seed = [self.source_node as i32];
        let r = cc.parallel_worklist_hetero("FrontierBFS", self.body, &seed, target)?;
        self.frontier_sizes.clone_from(&r.frontier_sizes);
        Ok(r)
    }
}

impl Instance for FrontierBfsInstance {
    fn run(&mut self, cc: &mut Concord, target: Target) -> Result<RunTotals, RuntimeError> {
        Ok(totals(&self.drain(cc, target)?))
    }

    fn verify(&self, cc: &Concord) -> Result<(), String> {
        let expected = graph::reference_bfs(&self.graph, self.source_node);
        let got = read_all(cc, self.level, self.csr.n as usize)?;
        for (i, (&g, &e)) in got.iter().zip(&expected).enumerate() {
            if g != e {
                return Err(format!("node {i}: level {g}, expected {e}"));
            }
        }
        // Shape: every reachable node enters exactly one frontier.
        let reachable = expected.iter().filter(|&&l| l >= 0).count() as u64;
        let drained: u64 = self.frontier_sizes.iter().map(|&n| u64::from(n)).sum();
        if !self.frontier_sizes.is_empty() && drained != reachable {
            return Err(format!("drained {drained} items, {reachable} reachable nodes"));
        }
        Ok(())
    }

    fn reset(&mut self, cc: &mut Concord) -> Result<(), RuntimeError> {
        let mut init = vec![-1i32; self.csr.n as usize];
        init[self.source_node as usize] = 0;
        write_all(cc, self.level, &init)?;
        self.frontier_sizes.clear();
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// WorklistCC
// ---------------------------------------------------------------------------

const CC_SOURCE: &str = r#"
// Worklist connected components: min-label propagation. A successful
// compare-and-swap lowering a neighbor's label re-activates it.
class WorklistCC {
public:
    int* row_off;
    int* cols;
    int* comp;
    void operator()(int v) {
        int c = comp[v];
        for (int e = row_off[v]; e < row_off[v+1]; e++) {
            int w = cols[e];
            int cur = comp[w];
            if (c < cur) {
                int got = atomic_cas(&comp[w], cur, c);
                if (got == cur) {
                    push(w);
                }
            }
        }
    }
};
"#;

/// Worklist-driven connected components (min-label propagation).
#[derive(Debug, Clone, Copy)]
pub struct WorklistCc;

/// Built [`WorklistCc`] instance.
pub struct WorklistCcInstance {
    graph: Graph,
    csr: CsrOnDevice,
    comp: CpuAddr,
    body: CpuAddr,
    /// Per-round frontier sizes of the last run.
    pub frontier_sizes: Vec<u32>,
}

impl Workload for WorklistCc {
    fn spec(&self) -> Spec {
        Spec {
            name: "WorklistCC",
            origin: "Galois/IrGL",
            data_structure: "graph",
            construct: Construct::ParallelWorklist,
            kernel_class: "WorklistCC",
            source: CC_SOURCE,
        }
    }

    fn build(&self, cc: &mut Concord, scale: Scale) -> Result<Box<dyn Instance>, RuntimeError> {
        Ok(self.build_worklist(cc, scale)?)
    }
}

impl WorklistWorkload for WorklistCc {
    fn build_worklist(
        &self,
        cc: &mut Concord,
        scale: Scale,
    ) -> Result<Box<dyn WorklistInstance>, RuntimeError> {
        let (w, h) = grid_dims(scale);
        let graph = graph::road_network(w, h, 0xCC);
        let csr = graph::upload_csr(cc, &graph)?;
        let comp = cc.malloc(u64::from(csr.n) * 4)?;
        let body = cc.malloc(3 * 8)?;
        cc.region_mut().write_ptr(body, csr.row_off)?;
        cc.region_mut().write_ptr(body.offset(8), csr.cols)?;
        cc.region_mut().write_ptr(body.offset(16), comp)?;
        let mut inst = WorklistCcInstance { graph, csr, comp, body, frontier_sizes: Vec::new() };
        inst.reset(cc)?;
        Ok(Box::new(inst))
    }
}

impl WorklistInstance for WorklistCcInstance {
    /// Drain the label-propagation worklist (seeded with every node).
    fn drain(&mut self, cc: &mut Concord, target: Target) -> Result<WorklistReport, RuntimeError> {
        #[allow(clippy::cast_possible_wrap)]
        let seed: Vec<i32> = (0..self.csr.n as i32).collect();
        let r = cc.parallel_worklist_hetero("WorklistCC", self.body, &seed, target)?;
        self.frontier_sizes.clone_from(&r.frontier_sizes);
        Ok(r)
    }
}

impl Instance for WorklistCcInstance {
    fn run(&mut self, cc: &mut Concord, target: Target) -> Result<RunTotals, RuntimeError> {
        Ok(totals(&self.drain(cc, target)?))
    }

    fn verify(&self, cc: &Concord) -> Result<(), String> {
        let expected = graph::reference_components(&self.graph);
        let got = read_all(cc, self.comp, self.csr.n as usize)?;
        for (i, (&g, &e)) in got.iter().zip(&expected).enumerate() {
            if g != e {
                return Err(format!("node {i}: component {g}, expected {e}"));
            }
        }
        Ok(())
    }

    fn reset(&mut self, cc: &mut Concord) -> Result<(), RuntimeError> {
        #[allow(clippy::cast_possible_wrap)]
        let init: Vec<i32> = (0..self.csr.n as i32).collect();
        write_all(cc, self.comp, &init)?;
        self.frontier_sizes.clear();
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// DeltaSSSP
// ---------------------------------------------------------------------------

const SSSP_SOURCE: &str = r#"
// Delta-stepping-style SSSP (single bucket): relax the out-edges of each
// settled-enough frontier node; a successful compare-and-swap lowering a
// tentative distance re-activates that node.
class DeltaSSSP {
public:
    int* row_off;
    int* cols;
    int* w;
    int* dist;
    void operator()(int v) {
        int dv = dist[v];
        for (int e = row_off[v]; e < row_off[v+1]; e++) {
            int u = cols[e];
            int nd = dv + w[e];
            int cur = dist[u];
            if (nd < cur) {
                int got = atomic_cas(&dist[u], cur, nd);
                if (got == cur) {
                    push(u);
                }
            }
        }
    }
};
"#;

/// Worklist SSSP: delta-stepping degenerated to a single bucket (the
/// frontier), which is exactly Bellman-Ford on the active set.
#[derive(Debug, Clone, Copy)]
pub struct DeltaSssp;

/// Built [`DeltaSssp`] instance.
pub struct DeltaSsspInstance {
    graph: Graph,
    csr: CsrOnDevice,
    dist: CpuAddr,
    body: CpuAddr,
    source_node: u32,
    /// Per-round frontier sizes of the last run.
    pub frontier_sizes: Vec<u32>,
}

impl Workload for DeltaSssp {
    fn spec(&self) -> Spec {
        Spec {
            name: "DeltaSSSP",
            origin: "Galois/IrGL",
            data_structure: "graph",
            construct: Construct::ParallelWorklist,
            kernel_class: "DeltaSSSP",
            source: SSSP_SOURCE,
        }
    }

    fn build(&self, cc: &mut Concord, scale: Scale) -> Result<Box<dyn Instance>, RuntimeError> {
        Ok(self.build_worklist(cc, scale)?)
    }
}

impl WorklistWorkload for DeltaSssp {
    fn build_worklist(
        &self,
        cc: &mut Concord,
        scale: Scale,
    ) -> Result<Box<dyn WorklistInstance>, RuntimeError> {
        let (w, h) = grid_dims(scale);
        let graph = graph::road_network(w, h, 0x55);
        let csr = graph::upload_csr(cc, &graph)?;
        let dist = cc.malloc(u64::from(csr.n) * 4)?;
        let body = cc.malloc(4 * 8)?;
        cc.region_mut().write_ptr(body, csr.row_off)?;
        cc.region_mut().write_ptr(body.offset(8), csr.cols)?;
        cc.region_mut().write_ptr(body.offset(16), csr.weights)?;
        cc.region_mut().write_ptr(body.offset(24), dist)?;
        let mut inst = DeltaSsspInstance {
            graph,
            csr,
            dist,
            body,
            source_node: 0,
            frontier_sizes: Vec::new(),
        };
        inst.reset(cc)?;
        Ok(Box::new(inst))
    }
}

impl WorklistInstance for DeltaSsspInstance {
    /// Drain the relaxation worklist from the source node.
    fn drain(&mut self, cc: &mut Concord, target: Target) -> Result<WorklistReport, RuntimeError> {
        #[allow(clippy::cast_possible_wrap)]
        let seed = [self.source_node as i32];
        let r = cc.parallel_worklist_hetero("DeltaSSSP", self.body, &seed, target)?;
        self.frontier_sizes.clone_from(&r.frontier_sizes);
        Ok(r)
    }
}

impl Instance for DeltaSsspInstance {
    fn run(&mut self, cc: &mut Concord, target: Target) -> Result<RunTotals, RuntimeError> {
        Ok(totals(&self.drain(cc, target)?))
    }

    fn verify(&self, cc: &Concord) -> Result<(), String> {
        let expected = graph::reference_sssp(&self.graph, self.source_node);
        let got = read_all(cc, self.dist, self.csr.n as usize)?;
        for (i, (&g, &e)) in got.iter().zip(&expected).enumerate() {
            if g != e {
                return Err(format!("node {i}: dist {g}, expected {e}"));
            }
        }
        Ok(())
    }

    fn reset(&mut self, cc: &mut Concord) -> Result<(), RuntimeError> {
        let mut init = vec![INF; self.csr.n as usize];
        init[self.source_node as usize] = 0;
        write_all(cc, self.dist, &init)?;
        self.frontier_sizes.clear();
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// KCore
// ---------------------------------------------------------------------------

const KCORE_SOURCE: &str = r#"
// k-core decomposition by peeling: a frontier node with degree < k is
// removed; each removal decrements the neighbors' degrees (via cas, so
// the crossing of the threshold is observed exactly once) and pushes any
// neighbor that just dropped below k.
class KCore {
public:
    int* row_off;
    int* cols;
    int* deg;
    int* alive;
    int k;
    void operator()(int v) {
        if (alive[v] == 1) {
            if (deg[v] < k) {
                alive[v] = 0;
                for (int e = row_off[v]; e < row_off[v+1]; e++) {
                    int u = cols[e];
                    int cur = deg[u];
                    int got = atomic_cas(&deg[u], cur, cur - 1);
                    if (got == cur) {
                        if (alive[u] == 1) {
                            if (cur - 1 < k) {
                                push(u);
                            }
                        }
                    }
                }
            }
        }
    }
};
"#;

/// Worklist k-core decomposition (peeling to the `k`-core).
#[derive(Debug, Clone, Copy)]
pub struct KCore {
    /// The core order to peel to.
    pub k: i32,
}

impl Default for KCore {
    fn default() -> Self {
        KCore { k: 2 }
    }
}

/// Built [`KCore`] instance.
pub struct KCoreInstance {
    graph: Graph,
    csr: CsrOnDevice,
    deg: CpuAddr,
    alive: CpuAddr,
    body: CpuAddr,
    k: i32,
    /// Per-round frontier sizes of the last run.
    pub frontier_sizes: Vec<u32>,
}

impl Workload for KCore {
    fn spec(&self) -> Spec {
        Spec {
            name: "KCore",
            origin: "Galois/IrGL",
            data_structure: "graph",
            construct: Construct::ParallelWorklist,
            kernel_class: "KCore",
            source: KCORE_SOURCE,
        }
    }

    fn build(&self, cc: &mut Concord, scale: Scale) -> Result<Box<dyn Instance>, RuntimeError> {
        Ok(self.build_worklist(cc, scale)?)
    }
}

impl WorklistWorkload for KCore {
    fn build_worklist(
        &self,
        cc: &mut Concord,
        scale: Scale,
    ) -> Result<Box<dyn WorklistInstance>, RuntimeError> {
        let (w, h) = grid_dims(scale);
        let graph = graph::road_network(w, h, 0xC0E);
        let csr = graph::upload_csr(cc, &graph)?;
        let deg = cc.malloc(u64::from(csr.n) * 4)?;
        let alive = cc.malloc(u64::from(csr.n) * 4)?;
        let body = cc.malloc(4 * 8 + 8)?;
        cc.region_mut().write_ptr(body, csr.row_off)?;
        cc.region_mut().write_ptr(body.offset(8), csr.cols)?;
        cc.region_mut().write_ptr(body.offset(16), deg)?;
        cc.region_mut().write_ptr(body.offset(24), alive)?;
        cc.region_mut().write_i32(body.offset(32), self.k)?;
        let mut inst =
            KCoreInstance { graph, csr, deg, alive, body, k: self.k, frontier_sizes: Vec::new() };
        inst.reset(cc)?;
        Ok(Box::new(inst))
    }
}

impl WorklistInstance for KCoreInstance {
    /// Peel the graph down to its `k`-core (seeded with every node).
    fn drain(&mut self, cc: &mut Concord, target: Target) -> Result<WorklistReport, RuntimeError> {
        #[allow(clippy::cast_possible_wrap)]
        let seed: Vec<i32> = (0..self.csr.n as i32).collect();
        let r = cc.parallel_worklist_hetero("KCore", self.body, &seed, target)?;
        self.frontier_sizes.clone_from(&r.frontier_sizes);
        Ok(r)
    }
}

impl Instance for KCoreInstance {
    fn run(&mut self, cc: &mut Concord, target: Target) -> Result<RunTotals, RuntimeError> {
        Ok(totals(&self.drain(cc, target)?))
    }

    fn verify(&self, cc: &Concord) -> Result<(), String> {
        let expected = reference_kcore(&self.graph, self.k);
        let got = read_all(cc, self.alive, self.csr.n as usize)?;
        for (i, (&g, &e)) in got.iter().zip(&expected).enumerate() {
            if g != e {
                return Err(format!("node {i}: alive {g}, expected {e}"));
            }
        }
        // Shape: every surviving node keeps >= k alive neighbors.
        let deg = read_all(cc, self.deg, self.csr.n as usize)?;
        for (i, &a) in got.iter().enumerate() {
            if a == 1 && deg[i] < self.k {
                return Err(format!("node {i} survives with residual degree {}", deg[i]));
            }
        }
        Ok(())
    }

    fn reset(&mut self, cc: &mut Concord) -> Result<(), RuntimeError> {
        #[allow(clippy::cast_possible_wrap)]
        let deg: Vec<i32> = self.graph.adj.iter().map(|a| a.len() as i32).collect();
        write_all(cc, self.deg, &deg)?;
        write_all(cc, self.alive, &vec![1i32; self.csr.n as usize])?;
        self.frontier_sizes.clear();
        Ok(())
    }
}

/// Host-side peeling reference: 1 for nodes in the `k`-core, else 0.
#[must_use]
pub fn reference_kcore(g: &Graph, k: i32) -> Vec<i32> {
    #[allow(clippy::cast_possible_wrap)]
    let mut deg: Vec<i32> = g.adj.iter().map(|a| a.len() as i32).collect();
    let mut alive = vec![1i32; g.n];
    let mut queue: Vec<usize> = (0..g.n).filter(|&v| deg[v] < k).collect();
    while let Some(v) = queue.pop() {
        if alive[v] == 0 {
            continue;
        }
        alive[v] = 0;
        for &(u, _) in &g.adj[v] {
            let u = u as usize;
            deg[u] -= 1;
            if alive[u] == 1 && deg[u] < k {
                queue.push(u);
            }
        }
    }
    alive
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worklist_workloads;
    use concord_energy::SystemConfig;
    use concord_runtime::Options;

    fn run_verified(w: &dyn Workload, target: Target) -> Vec<u32> {
        let mut cc =
            Concord::new(SystemConfig::ultrabook(), w.spec().source, Options::default()).unwrap();
        let mut inst = w.build(&mut cc, Scale::Tiny).unwrap();
        inst.run(&mut cc, target).unwrap();
        inst.verify(&cc).unwrap_or_else(|e| panic!("{}: {e}", w.spec().name));
        Vec::new()
    }

    #[test]
    fn every_worklist_workload_verifies_on_cpu_and_gpu() {
        for w in worklist_workloads() {
            run_verified(w.as_ref(), Target::Cpu);
            run_verified(w.as_ref(), Target::Gpu);
        }
    }

    #[test]
    fn frontier_bfs_levels_match_round_numbers() {
        let mut cc =
            Concord::new(SystemConfig::ultrabook(), BFS_SOURCE, Options::default()).unwrap();
        let (gw, gh) = grid_dims(Scale::Tiny);
        let graph = graph::road_network(gw, gh, 0xBF5);
        let csr = graph::upload_csr(&mut cc, &graph).unwrap();
        let level = cc.malloc(u64::from(csr.n) * 4).unwrap();
        let body = cc.malloc(3 * 8).unwrap();
        cc.region_mut().write_ptr(body, csr.row_off).unwrap();
        cc.region_mut().write_ptr(body.offset(8), csr.cols).unwrap();
        cc.region_mut().write_ptr(body.offset(16), level).unwrap();
        let mut inst = FrontierBfsInstance {
            graph: graph.clone(),
            csr,
            level,
            body,
            source_node: 0,
            frontier_sizes: Vec::new(),
        };
        inst.reset(&mut cc).unwrap();
        inst.drain(&mut cc, Target::Cpu).unwrap();
        inst.verify(&cc).unwrap();
        let expected = graph::reference_bfs(&graph, 0);
        // Frontier r holds exactly the nodes at BFS level r.
        assert!(!inst.frontier_sizes.is_empty());
        for (r, &size) in inst.frontier_sizes.iter().enumerate() {
            #[allow(clippy::cast_possible_wrap)]
            let at_level = expected.iter().filter(|&&l| l == r as i32).count() as u32;
            assert_eq!(size, at_level, "round {r}");
        }
    }

    #[test]
    fn reference_kcore_is_a_fixpoint() {
        let g = graph::road_network(10, 10, 3);
        let alive = reference_kcore(&g, 2);
        for v in 0..g.n {
            let live_deg = g.adj[v].iter().filter(|&&(u, _)| alive[u as usize] == 1).count() as i32;
            if alive[v] == 1 {
                assert!(live_deg >= 2, "node {v} kept with live degree {live_deg}");
            }
        }
        assert!(alive.contains(&1), "grid has a 2-core");
        assert!(alive.contains(&0), "dead ends peel off");
    }
}
