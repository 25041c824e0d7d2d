//! The repo benchmark. One run measures one workload:
//!
//! ```text
//! concord-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! and prints, as the last line of standard output, one JSON object with
//! the keys `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Without `--workload` it runs all six, one child process each (so
//! set-up time and peak memory are per workload), and prints one line per
//! workload. See `README.md` beside this crate.

mod compile;
mod gen;
mod harness;
mod inproc;
mod metrics;
mod programs;
mod serve;
mod spans;
mod stats;

use harness::{drive, end_to_end, peak_rss_mb, result_line, settle, Outcome, RunCfg};
use metrics::END_TO_END;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Duration;

/// Workload names, as in `/BENCHMARK.json`.
pub const WORKLOADS: [&str; 6] =
    ["native_exec", "small_launches", "sim_exec", "compile", "serve_small", "serve_bulk"];

const USAGE: &str = "usage: concord-benchmark [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1]\nworkloads: native_exec small_launches sim_exec compile \
                     serve_small serve_bulk";

/// `benchmark/out` under the current directory: the one place the
/// benchmark writes (trace files, run records, the scratch disk cache).
///
/// # Panics
///
/// When not run from the repository root.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from("benchmark").join("out");
    assert!(dir.parent().is_some_and(|p| p.is_dir()), "run from the repository root");
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: None, seed: 1, seconds: 10, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("flag `{flag}` needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("bad `{flag}` value `{value}`"));
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => args.workload = Some(value),
            "--workload" => return Err(format!("unknown workload `{value}`")),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(args)
}

/// Git revision of the tree the benchmark runs in, read without spawning
/// `git`; a checkout that is not a repository has none.
fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(PathBuf::from(".git").join(r)).unwrap_or_default(),
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown".to_string()
    } else {
        rev.chars().take(12).collect()
    }
}

/// The run's record beside the result line: conditions, and per op class
/// the median, p90 and sample count.
fn run_record(workload: &str, args: &Args, outcome: &Outcome, result: &str) -> String {
    let classes: Vec<String> = outcome
        .rec
        .classes
        .iter()
        .zip(&outcome.rec.latencies)
        .map(|(name, samples)| {
            let mut sorted = samples.clone();
            sorted.sort_by(f64::total_cmp);
            format!(
                "{{\"class\":\"{name}\",\"median_ms\":{},\"p90_ms\":{},\"samples\":{}}}",
                stats::median(&mut sorted) * 1e3,
                stats::percentile(&sorted, 0.9) * 1e3,
                sorted.len()
            )
        })
        .collect();
    format!(
        "{{\"workload\":\"{workload}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\
         \"host_threads\":{},\"profile\":\"{}\",\"git_revision\":\"{}\",\"passes\":{},\"peak_rss_mb\":{},\n\
         \"classes\":[\n{}\n],\n\"result\":{result}}}\n",
        args.seed,
        args.seconds,
        args.trace,
        std::thread::available_parallelism().map_or(0, std::num::NonZero::get),
        programs::HOST_THREADS,
        if cfg!(debug_assertions) { "debug" } else { "release" },
        git_revision(),
        outcome.rec.passes.len(),
        peak_rss_mb(),
        classes.join(",\n"),
    )
}

fn run_one(workload: &str, args: &Args) -> ExitCode {
    // Served sessions take their host-thread count from the environment;
    // pin it before any thread exists.
    std::env::set_var(concord_pool::HOST_THREADS_ENV, programs::HOST_THREADS.to_string());
    let cfg =
        RunCfg { seed: args.seed, window: Duration::from_secs(args.seconds), trace: args.trace };
    settle();
    let mut outcome = match workload {
        "native_exec" => drive(cfg, |spans| inproc::NativeExec::new(cfg.seed, spans)),
        "small_launches" => drive(cfg, |spans| inproc::SmallLaunches::new(cfg.seed, spans)),
        "sim_exec" => drive(cfg, inproc::SimExec::new),
        "compile" => drive(cfg, |_| compile::Compile::new()),
        "serve_small" => serve::serve_small(cfg),
        "serve_bulk" => serve::serve_bulk(cfg),
        other => unreachable!("`{other}` passed argument parsing"),
    };
    if let Some(why) = &outcome.fatal {
        eprintln!("{workload}: {why}");
        return ExitCode::FAILURE;
    }

    let metrics: Vec<(String, f64, &str)> = if args.trace {
        let trace_file = out_dir().join(format!("trace-{workload}.json"));
        std::fs::write(&trace_file, spans::chrome_json(&outcome.spans)).expect("write trace");
        eprintln!("{workload}: wrote {} (chrome://tracing, ui.perfetto.dev)", trace_file.display());
        eprintln!("{:<12} {:>8} {:>12} {:>12}", "layer", "calls", "total ms", "self ms");
        for (layer, (calls, total, own)) in spans::layer_table(&outcome.spans) {
            eprintln!("{layer:<12} {calls:>8} {total:>12.3} {own:>12.3}");
        }
        outcome.layers.set("bench.peak_rss_mb", peak_rss_mb());
        outcome.layers.rows()
    } else {
        END_TO_END
            .iter()
            .zip(end_to_end(&outcome.rec, outcome.setup_s))
            .map(|((name, unit), value)| (name.to_string(), value, *unit))
            .collect()
    };
    let rec = &outcome.rec;
    let unmeasured: Vec<&str> = (rec.classes.iter().zip(&rec.latencies))
        .filter(|(_, l)| l.is_empty())
        .map(|(c, _)| c.as_str())
        .collect();
    if !unmeasured.is_empty() {
        eprintln!("{workload}: no successful op in {unmeasured:?} ({} failed)", rec.failed);
        return ExitCode::FAILURE;
    }
    if let Some((name, value, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("{workload}: metric `{name}` is {value}; no result");
        return ExitCode::FAILURE;
    }
    let result = result_line(rec.failed == 0, rec.attempted, rec.failed, &metrics);
    let record = out_dir().join(format!("result-{workload}-trace{}.json", u8::from(args.trace)));
    std::fs::write(record, run_record(workload, args, &outcome, &result)).expect("write record");
    for (name, value, unit) in metrics.iter().filter(|(_, v, _)| *v != 0.0) {
        eprintln!("{workload:<15} {name:<40} {value:>16.6} {unit}");
    }
    println!("{result}");
    ExitCode::SUCCESS
}

/// Every workload in a child process of its own; one result line each.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own path");
    let mut all_ok = true;
    for workload in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .expect("start child run");
        all_ok &= status.success();
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    }
}
