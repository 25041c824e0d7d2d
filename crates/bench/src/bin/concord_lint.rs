//! `concord-lint`: run the static race/safety analyzer over kernel
//! sources and report findings without executing anything.
//!
//! ```text
//! concord-lint [--builtin] [FILE ...] [--json]
//!              [--snapshot FILE | --write-snapshot FILE]
//! ```
//!
//! `--builtin` lints all nine paper workloads; positional arguments are
//! kernel-language source files. Every kernel class in each program is
//! analyzed under its intended launch convention (`reduce` when the class
//! has a `join` method, `for` otherwise) — the same rule the server's
//! deny-gated `open_session` pre-screen applies.
//!
//! Findings print one canonical line each, sorted, so the output diffs
//! cleanly. `--snapshot FILE` compares against a committed baseline of
//! known findings plus one `<program>/<class>: access {…}` line per kernel
//! holding its inferred access summary (CI uses this: a new or vanished
//! finding, or any moved access fact, fails the run); `--write-snapshot
//! FILE` regenerates that baseline.
//!
//! Exit status: 0 clean / snapshot match, 1 findings at `error` severity
//! or snapshot mismatch or compile failure, 2 usage error.

use concord_analyze::{analyze_kernel, AccessPattern, AccessSummary, Mode, Severity};
use concord_bench::cli::{flag_present, or_usage, value_of};
use std::process::ExitCode;

/// One program to lint: a display name and its kernel-language source.
struct Target {
    name: String,
    source: String,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: concord-lint [--builtin] [FILE ...] [--json] \
         [--snapshot FILE | --write-snapshot FILE]"
    );
    ExitCode::from(2)
}

/// Positional (non-flag) arguments: everything that is neither a flag nor
/// the value consumed by a value-taking flag.
fn positional(args: &[String]) -> Vec<String> {
    const VALUE_FLAGS: [&str; 2] = ["--snapshot", "--write-snapshot"];
    let mut out = Vec::new();
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
            continue;
        }
        if VALUE_FLAGS.contains(&a.as_str()) {
            skip = true;
        } else if !a.starts_with("--") {
            out.push(a.clone());
        }
    }
    out
}

/// The kernel's inferred access summary as a JSON object: the opaque and
/// cross-item-hazard verdicts plus one record per summarized access, with
/// the symbolic per-item byte footprint (`lo`/`hi` relative to the base,
/// `stride` per work-item id) when the range pass bounded it and `null`
/// when the runtime must fall back to the whole backing allocation. The
/// shape is documented in EXPERIMENTS.md (`concord-lint --json`).
fn access_json(s: &AccessSummary) -> String {
    let records: Vec<String> = s
        .records
        .iter()
        .map(|r| {
            let pattern = match r.pattern {
                AccessPattern::Constant => "\"constant\"".to_string(),
                AccessPattern::Affine { stride } => format!("{{\"affine\":{stride}}}"),
                AccessPattern::Unknown => "\"unknown\"".to_string(),
            };
            let footprint = match r.footprint {
                Some(f) => format!(
                    "{{\"lo\":{},\"hi\":{},\"stride\":{},\"mode\":\"{}\"}}",
                    f.lo,
                    f.hi,
                    f.stride,
                    f.mode.name()
                ),
                None => "null".to_string(),
            };
            format!(
                "{{\"base\":\"{}\",\"mode\":\"{}\",\"pattern\":{},\"width\":{},\"footprint\":{}}}",
                r.base,
                r.mode.name(),
                pattern,
                r.width,
                footprint
            )
        })
        .collect();
    format!(
        "{{\"opaque\":{},\"hazard\":{},\"records\":[{}]}}",
        s.opaque,
        s.hazard,
        records.join(",")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if flag_present(&args, "--help") {
        return usage();
    }
    let json = flag_present(&args, "--json");
    let snapshot = or_usage(value_of(&args, "--snapshot")).map(str::to_string);
    let write_snapshot = or_usage(value_of(&args, "--write-snapshot")).map(str::to_string);
    if snapshot.is_some() && write_snapshot.is_some() {
        eprintln!("--snapshot and --write-snapshot are mutually exclusive");
        return ExitCode::from(2);
    }

    let mut targets = Vec::new();
    if flag_present(&args, "--builtin") {
        for w in concord_workloads::all_workloads() {
            let spec = w.spec();
            targets.push(Target { name: spec.name.to_string(), source: spec.source.to_string() });
        }
        // The frontier (worklist) workloads are part of the builtin
        // surface too: their guarded `push` bodies must stay clean enough
        // to launch under a `Deny` gate, and the snapshot pins that.
        for w in concord_workloads::worklist_workloads() {
            let spec = w.spec();
            targets.push(Target { name: spec.name.to_string(), source: spec.source.to_string() });
        }
    }
    for path in positional(&args) {
        match std::fs::read_to_string(&path) {
            Ok(source) => targets.push(Target { name: path, source }),
            Err(e) => {
                eprintln!("cannot read `{path}`: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if targets.is_empty() {
        return usage();
    }

    // Analyze every kernel of every target. Lines are the canonical,
    // sorted, snapshot-stable representation.
    let mut lines: Vec<String> = Vec::new();
    let mut access_lines: Vec<String> = Vec::new();
    let mut json_entries: Vec<String> = Vec::new();
    let mut kernels = 0usize;
    let mut errors = 0usize;
    for t in &targets {
        let program = match concord_frontend::compile(&t.source) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("{}: compile error: {e}", t.name);
                return ExitCode::from(1);
            }
        };
        // Analyze the CPU-optimized module: CSE canonicalizes address
        // computations, which is the analyzer's documented precondition.
        let mut module = program.module.clone();
        concord_compiler::optimize_for_cpu(&mut module);
        for k in &program.kernels {
            kernels += 1;
            let mode = if k.join_fn.is_some() { Mode::Reduce } else { Mode::For };
            let report = analyze_kernel(&module, k.operator_fn, mode);
            errors += report.count_at(Severity::Error);
            for d in &report.diagnostics {
                lines.push(format!("{}/{}: {}", t.name, k.class_name, d.to_line()));
            }
            let access = access_json(&report.access);
            access_lines.push(format!("{}/{}: access {access}", t.name, k.class_name));
            json_entries.push(format!(
                "{{\"target\":\"{}\",\"class\":\"{}\",\"report\":{},\"access\":{access}}}",
                t.name,
                k.class_name,
                report.to_json(),
            ));
        }
    }
    lines.sort();
    access_lines.sort();

    if let Some(path) = write_snapshot {
        let mut body = String::from(
            "# concord-lint snapshot: known findings, one canonical line each,\n\
             # then one access-summary line per kernel.\n\
             # Regenerate with: concord-lint --builtin --write-snapshot <this file>\n",
        );
        for l in lines.iter().chain(&access_lines) {
            body.push_str(l);
            body.push('\n');
        }
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("cannot write `{path}`: {e}");
            return ExitCode::from(2);
        }
        println!(
            "wrote {} finding(s) and {} access summary line(s) to {path}",
            lines.len(),
            access_lines.len()
        );
        return ExitCode::SUCCESS;
    }

    if json {
        println!("[{}]", json_entries.join(","));
    } else {
        for l in &lines {
            println!("{l}");
        }
        println!(
            "{} finding(s) ({} error(s)) across {} kernel(s) in {} program(s)",
            lines.len(),
            errors,
            kernels,
            targets.len()
        );
    }

    if let Some(path) = snapshot {
        let expected = match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot read snapshot `{path}`: {e}");
                return ExitCode::from(2);
            }
        };
        let mut expected: Vec<&str> = expected
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect();
        expected.sort_unstable();
        let mut actual: Vec<&str> = lines.iter().chain(&access_lines).map(String::as_str).collect();
        actual.sort_unstable();
        if expected != actual {
            for l in &actual {
                if !expected.contains(l) {
                    eprintln!("new line (not in snapshot): {l}");
                }
            }
            for l in &expected {
                if !actual.contains(l) {
                    eprintln!("stale snapshot line (gone): {l}");
                }
            }
            eprintln!("snapshot mismatch against {path}");
            return ExitCode::from(1);
        }
        return ExitCode::SUCCESS;
    }

    if errors > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
