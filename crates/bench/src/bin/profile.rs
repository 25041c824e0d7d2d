//! Structured profiling of one workload run via `concord-trace`.
//!
//! Runs one of the thirteen programs (the Table 1 nine and the four
//! frontier workloads) with tracing enabled, writes the collected events
//! as a Chrome trace-event JSON file (load it at `chrome://tracing` or
//! <https://ui.perfetto.dev>), and prints the deterministic text summary.
//! Exits 1 after writing the trace when the run's output fails
//! verification.
//!
//! ```text
//! cargo run -p concord-bench --bin profile -- --workload raytracer
//! cargo run -p concord-bench --bin profile -- --workload bfs --target cpu --scale small
//! cargo run -p concord-bench --bin profile -- --workload sssp --out sssp.json --wall-clock
//! ```

use concord_bench::cli::{or_usage, parse_scale, parse_target};
use concord_runtime::{Concord, Options, Target};
use concord_trace::TraceConfig;
use concord_workloads::{all_workloads, worklist_workloads, Scale, Workload};

struct Cli {
    workload: String,
    scale: Scale,
    target: Target,
    out: String,
    wall_clock: bool,
}

/// Every program: the Table 1 nine and the four frontier workloads.
fn workloads() -> Vec<Box<dyn Workload>> {
    let frontier = worklist_workloads().into_iter().map(|w| w as Box<dyn Workload>);
    all_workloads().into_iter().chain(frontier).collect()
}

fn usage_text() -> String {
    format!(
        "usage: profile [--workload NAME] [--scale tiny|small|medium] \
         [--target cpu|gpu|native|hybrid|hybrid:<fraction>|auto] [--out FILE] [--wall-clock]\n\
         workloads: {}",
        workloads().iter().map(|w| w.spec().name.to_lowercase()).collect::<Vec<_>>().join(", ")
    )
}

fn usage() -> ! {
    eprintln!("{}", usage_text());
    std::process::exit(2);
}

fn parse_args() -> Cli {
    let mut cli = Cli {
        workload: "raytracer".to_string(),
        scale: Scale::Tiny,
        target: Target::Gpu,
        out: "trace.json".to_string(),
        wall_clock: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = |args: &mut dyn Iterator<Item = String>| args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" | "-w" => cli.workload = value(&mut args).to_lowercase(),
            "--scale" | "-s" => cli.scale = or_usage(parse_scale(&value(&mut args))),
            "--target" | "-t" => cli.target = or_usage(parse_target(&value(&mut args))),
            "--out" | "-o" => cli.out = value(&mut args),
            "--wall-clock" => cli.wall_clock = true,
            "--help" | "-h" => {
                println!("{}", usage_text());
                std::process::exit(0);
            }
            _ => usage(),
        }
    }
    cli
}

fn find_workload(name: &str) -> Box<dyn Workload> {
    workloads().into_iter().find(|w| w.spec().name.to_lowercase() == name).unwrap_or_else(|| {
        eprintln!("unknown workload `{name}`");
        usage()
    })
}

fn main() {
    let cli = parse_args();
    let workload = find_workload(&cli.workload);
    let spec = workload.spec();
    let mut trace = TraceConfig::enabled();
    if cli.wall_clock {
        trace = trace.with_wall_clock();
    }
    let opts = Options { trace, ..Options::default() };
    let system = concord_energy::SystemConfig::ultrabook();

    // Runtime failures — `--target native` on an unsupported host
    // included — exit with a structured diagnostic, not a panic.
    let fail = |e: &dyn std::fmt::Display| -> ! {
        eprintln!("profile: {e}");
        std::process::exit(1);
    };
    let mut cc = Concord::new(system, spec.source, opts).unwrap_or_else(|e| fail(&e));
    let mut inst = workload.build(&mut cc, cli.scale).unwrap_or_else(|e| fail(&e));
    let totals = inst.run(&mut cc, cli.target).unwrap_or_else(|e| fail(&e));
    let verified = inst.verify(&cc).is_ok();

    let json = cc.tracer().chrome_json();
    if let Err(e) = std::fs::write(&cli.out, &json) {
        eprintln!("cannot write trace file `{}`: {e}", cli.out);
        std::process::exit(1);
    }

    println!(
        "{} on {} ({:?}): {:.3} ms ({:.3} ms JIT), {:.3} J, {} offloads, verified: {}",
        spec.name,
        cli.target,
        cli.scale,
        totals.seconds * 1e3,
        totals.jit_seconds * 1e3,
        totals.joules,
        totals.offloads,
        verified,
    );
    let dropped = cc.tracer().dropped();
    if dropped > 0 {
        println!("note: ring buffer dropped {dropped} oldest events (raise TraceConfig capacity)");
    }
    println!(
        "wrote {} ({} events) — load it at chrome://tracing or https://ui.perfetto.dev\n",
        cli.out,
        cc.tracer().events().len(),
    );
    print!("{}", cc.tracer().summary());
    if !verified {
        eprintln!("profile: {} on {} produced wrong output", spec.name, cli.target);
        std::process::exit(1);
    }
}
