//! Graph analytics demo: worklist-driven BFS + connected components over
//! a synthetic road-network graph, using the frontier workloads and the
//! Concord runtime directly.
//!
//! Shows the `parallel_worklist_hetero` pattern the frontier workloads
//! use — the kernel `push`es discovered vertices, the runtime merges the
//! pushes into the next round's frontier and drains until it is empty —
//! and compares devices on rounds, time, and energy. The per-round
//! frontier sizes are deterministic: every device prints the same
//! schedule.
//!
//! ```sh
//! cargo run --example graph_analytics
//! ```

use concord::energy::SystemConfig;
use concord::runtime::{RuntimeError, Target};
use concord::workloads::worklist::{FrontierBfs, WorklistCc, WorklistWorkload};
use concord::workloads::Scale;
use concord_runtime::{Concord, Options};

/// Render a frontier schedule compactly: every size for short drains,
/// head/tail for long ones.
fn schedule(sizes: &[u32]) -> String {
    let cells: Vec<String> = sizes.iter().map(ToString::to_string).collect();
    if cells.len() <= 12 {
        cells.join(" ")
    } else {
        format!("{} ... {}", cells[..6].join(" "), cells[cells.len() - 3..].join(" "))
    }
}

fn run(workload: &dyn WorklistWorkload, label: &str) -> Result<(), RuntimeError> {
    println!("== {label} ==");
    let mut expected: Option<Vec<u32>> = None;
    for target in [Target::Cpu, Target::Gpu] {
        let spec = workload.spec();
        let mut cc = Concord::new(SystemConfig::desktop(), spec.source, Options::default())?;
        let mut inst = workload.build_worklist(&mut cc, Scale::Small)?;
        let report = inst.drain(&mut cc, target)?;
        inst.verify(&cc).expect("device result matches reference");
        println!(
            "{:>3}: {} rounds, {} items drained, {:.3} ms, {:.3} mJ (verified)",
            if report.offload.on_gpu { "GPU" } else { "CPU" },
            report.rounds(),
            report.total_items(),
            report.offload.total_seconds() * 1e3,
            report.offload.joules * 1e3,
        );
        println!("     frontier sizes: {}", schedule(&report.frontier_sizes));
        match &expected {
            None => expected = Some(report.frontier_sizes),
            Some(first) => assert_eq!(
                *first, report.frontier_sizes,
                "frontier schedule must be identical on every device"
            ),
        }
    }
    Ok(())
}

fn main() -> Result<(), RuntimeError> {
    run(&FrontierBfs, "frontier BFS (push-based, level-synchronized)")?;
    run(&WorklistCc, "connected components (label propagation over the frontier)")?;
    Ok(())
}
