//! `concord-serve` daemon: multiplexes independent Concord sessions from
//! many TCP clients over one process-wide JIT-artifact cache.
//!
//! ```text
//! serve [--addr HOST:PORT] [--workers N] [--queue N] [--cache-dir DIR]
//!       [--tenant-max-inflight N] [--trace]
//! ```
//!
//! `--cache-dir` makes the JIT artifact cache persistent: compiled
//! entries are spilled to `DIR` (checksummed) and a restarted daemon over
//! the same directory serves them without recompiling.
//! `--tenant-max-inflight` turns on a per-tenant admission quota
//! (`quota_exceeded` refusals once a tenant's pending requests hit the
//! cap); a share of the queue is `--queue` × percent / 100.
//!
//! Runs until SIGINT/SIGTERM (or a client's `shutdown` request), then
//! drains every queued request before exiting. With `--trace`, the
//! deterministic trace summary (including `Server` track events) is
//! printed on shutdown.

use concord_bench::cli::{flag_present, or_usage, value_of, ArgError};
use concord_serve::{signal, ServeConfig, Server};
use concord_trace::TraceConfig;
use std::time::Duration;

fn usage_value<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    or_usage(value_of(args, flag)).map(|v| {
        or_usage(
            v.parse::<T>().map_err(|_| ArgError(format!("flag `{flag}` has a bad value `{v}`"))),
        )
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if flag_present(&args, "--help") || flag_present(&args, "-h") {
        println!(
            "usage: serve [--addr HOST:PORT] [--workers N] [--queue N] [--cache-dir DIR] \
             [--tenant-max-inflight N] [--trace]"
        );
        return;
    }
    // A flag this daemon does not know (a deleted one included) is an
    // error, not a silently different configuration.
    let known =
        ["--addr", "--workers", "--queue", "--cache-dir", "--tenant-max-inflight", "--trace"];
    let unknown = |a: &&String| a.starts_with("--") && !known.contains(&a.as_str());
    if let Some(flag) = args.iter().skip(1).find(unknown) {
        or_usage(Err::<(), _>(ArgError(format!("unknown flag `{flag}`"))));
    }
    let mut config = ServeConfig::default();
    if let Some(addr) = or_usage(value_of(&args, "--addr")) {
        config.addr = addr.to_string();
    }
    if let Some(workers) = usage_value::<usize>(&args, "--workers") {
        config.workers = workers.max(1);
    }
    if let Some(queue) = usage_value::<usize>(&args, "--queue") {
        config.queue_depth = queue.max(1);
    }
    if let Some(dir) = or_usage(value_of(&args, "--cache-dir")) {
        config.cache_dir = Some(dir.to_string());
    }
    if let Some(cap) = usage_value::<usize>(&args, "--tenant-max-inflight") {
        config.tenant_max_inflight = cap;
    }
    let tracing = flag_present(&args, "--trace");
    if tracing {
        config.trace = TraceConfig::enabled();
    }

    signal::install();
    let server = match Server::bind(&config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind `{}`: {e}", config.addr);
            std::process::exit(1);
        }
    };
    println!(
        "concord-serve listening on {} ({} workers, queue depth {}{})",
        server.addr(),
        config.workers,
        config.queue_depth,
        match &config.cache_dir {
            Some(dir) => format!(", cache dir {dir}"),
            None => String::new(),
        }
    );

    while !signal::triggered() && !server.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("shutting down: draining in-flight requests...");
    server.request_shutdown();
    // The tracer is a clone-shared ring buffer, so drain-time events are
    // still visible through this handle after `join` consumes the server.
    let tracer = server.tracer().clone();
    let stats = server.join();
    let summary = tracer.summary();
    println!(
        "served {} connections, {} sessions; {} admitted, {} completed, \
         {} rejected, {} quota-rejected, {} deadline-missed; artifact cache: {} entries, \
         {} hits, {} misses; disk: {} hits, {} compiles, {} spills, {} corrupt-evicted",
        stats.connections,
        stats.sessions,
        stats.admitted,
        stats.completed,
        stats.rejected,
        stats.quota_rejected,
        stats.deadline_missed,
        stats.cache_entries,
        stats.cache_hits,
        stats.cache_misses,
        stats.disk_hits,
        stats.compiles,
        stats.disk_writes,
        stats.corrupt_evicted,
    );
    if tracing {
        print!("{summary}");
    }
}
