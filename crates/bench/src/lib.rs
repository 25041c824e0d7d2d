//! # concord-bench
//!
//! Harness that regenerates every simulated table of the Concord paper's
//! evaluation (§5). The `paper` binary prints Table 1, Figure 6, Figures
//! 7–10 (speedup and energy savings vs multicore CPU for the four
//! configurations `GPU`, `GPU+PTROPT`, `GPU+L3OPT`, `GPU+ALL` on both
//! systems), the §5.3 optimisation study and the §5.4 SVM-overhead study,
//! and writes them as one JSON document; `paper-expected.json` at the repo
//! root is its checked-in output.
//!
//! Absolute numbers come from the simulators and cannot match the paper's
//! Haswell silicon; the harness targets the *shape* of the results.

use concord_compiler::GpuConfig;
use concord_energy::SystemConfig;
use concord_runtime::{RuntimeError, Target};
use concord_workloads::{measure, Measurement, Scale, Workload};

pub mod cli;

/// The four GPU configurations evaluated in Figures 7–10, in paper order.
pub fn configurations(gpu_cores: u32) -> [(&'static str, GpuConfig); 4] {
    [
        ("GPU", GpuConfig::baseline(gpu_cores)),
        ("GPU+PTROPT", GpuConfig::ptropt(gpu_cores)),
        ("GPU+L3OPT", GpuConfig::l3opt(gpu_cores)),
        ("GPU+ALL", GpuConfig::all(gpu_cores)),
    ]
}

/// One workload's row of Figures 7–10: CPU baseline + four GPU configs.
#[derive(Debug, Clone)]
pub struct FigureRow {
    /// Workload name.
    pub name: &'static str,
    /// Multicore CPU measurement (the baseline).
    pub cpu: Measurement,
    /// `(config name, measurement)` for the four GPU configurations.
    pub gpu: Vec<(&'static str, Measurement)>,
}

impl FigureRow {
    /// Speedup of configuration `i` over the CPU baseline (Figures 7/9).
    pub fn speedup(&self, i: usize) -> f64 {
        self.cpu.totals.seconds / self.gpu[i].1.totals.seconds
    }

    /// Energy savings of configuration `i` (Figures 8/10).
    pub fn energy_savings(&self, i: usize) -> f64 {
        self.cpu.totals.joules / self.gpu[i].1.totals.joules
    }

    /// Whether every measurement in the row verified.
    pub fn all_verified(&self) -> bool {
        self.cpu.verified && self.gpu.iter().all(|(_, m)| m.verified)
    }
}

/// Run one workload through the CPU baseline and all four GPU
/// configurations on `system`.
///
/// # Errors
///
/// Compile, allocation, or trap errors from any run.
pub fn figure_row(
    workload: &dyn Workload,
    system: SystemConfig,
    scale: Scale,
) -> Result<FigureRow, RuntimeError> {
    let name = workload.spec().name;
    // The CPU baseline is independent of the GPU config; use ALL.
    let cpu = measure(workload, system, GpuConfig::all(system.gpu.eus), scale, Target::Cpu)?;
    let mut gpu = Vec::new();
    for (label, cfg) in configurations(system.gpu.eus) {
        let m = measure(workload, system, cfg, scale, Target::Gpu)?;
        gpu.push((label, m));
    }
    Ok(FigureRow { name, cpu, gpu })
}

/// Geometric mean helper for figure summaries.
pub fn geomean(vals: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in vals {
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

/// Render an aligned text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let line = |out: &mut String, cells: &[String]| {
        for (i, c) in cells.iter().enumerate() {
            out.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        out.push('\n');
    };
    line(&mut out, &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    line(&mut out, &widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(&mut out, row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean([3.0]) - 3.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty::<f64>()), 0.0);
    }

    #[test]
    fn four_configurations_in_paper_order() {
        let cfgs = configurations(7);
        assert_eq!(cfgs[0].0, "GPU");
        assert_eq!(cfgs[1].0, "GPU+PTROPT");
        assert_eq!(cfgs[2].0, "GPU+L3OPT");
        assert_eq!(cfgs[3].0, "GPU+ALL");
        assert_eq!(cfgs[0].1.strategy, concord_compiler::Strategy::Lazy);
        assert_eq!(cfgs[1].1.strategy, concord_compiler::Strategy::Hybrid);
        assert!(!cfgs[1].1.l3opt);
        assert!(cfgs[3].1.l3opt);
    }

    #[test]
    fn table_rendering_aligns() {
        let t = render_table(
            &["a", "bb"],
            &[vec!["xxx".into(), "y".into()], vec!["z".into(), "wwww".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a    bb"));
    }

    #[test]
    fn one_figure_row_end_to_end() {
        // Smoke test: BFS through all five measurements on the Ultrabook.
        let w = concord_workloads::bfs::Bfs;
        let row = figure_row(&w, SystemConfig::ultrabook(), Scale::Tiny).unwrap();
        assert!(row.all_verified(), "all configurations must verify");
        for i in 0..4 {
            assert!(row.speedup(i) > 0.0);
            assert!(row.energy_savings(i) > 0.0);
        }
    }
}
