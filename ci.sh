#!/usr/bin/env bash
# Full CI gate: tier-1 (build + test) plus formatting and lints.
#
#   ./ci.sh
#
# Everything must pass for a change to land.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q --workspace (CONCORD_HOST_THREADS=1 and =8, under timeout)"
# The differential gate of the host-parallel engine: the whole suite runs
# once serially and once fanned across 8 OS threads, and the two outputs
# must match byte for byte (modulo harness wall-clock lines) — simulated
# results may never depend on host threading. Every battery runs in here,
# once per fan-out; the timeout makes a wedged server fail CI rather than
# hang it (the suite is built first, so it times the tests and not rustc).
cargo test -q --workspace --no-run
# Strip harness wall-clock suffixes and cargo compile-progress lines.
strip_wallclock() { sed 's/; finished in [0-9.]*s//' | grep -vE '^[[:space:]]*(Compiling|Finished|Downloaded|Downloading) ' || true; }
timeout 600 env CONCORD_HOST_THREADS=1 cargo test -q --workspace 2>&1 | strip_wallclock > /tmp/concord_ci_t1.log \
    || { cat /tmp/concord_ci_t1.log; exit 1; }
timeout 600 env CONCORD_HOST_THREADS=8 cargo test -q --workspace 2>&1 | strip_wallclock > /tmp/concord_ci_t8.log \
    || { cat /tmp/concord_ci_t8.log; exit 1; }
if ! diff -u /tmp/concord_ci_t1.log /tmp/concord_ci_t8.log; then
    echo "!! test output differs between CONCORD_HOST_THREADS=1 and =8" >&2
    exit 1
fi
cat /tmp/concord_ci_t8.log

echo "==> repo benchmark: unit tests, then six workloads untraced + traced vs BENCH_baseline.json"
# The one measurement stack (its own workspace: nothing above compiles it),
# run as BENCHMARK.json runs it. Gated: every op's output check, and the
# simulated quantities against the checked-in baseline. Wall-clock is
# recorded there, not gated: EXPERIMENTS.md "Baseline" says why.
cargo test -q --offline --manifest-path benchmark/Cargo.toml
for trace in 0 1; do
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --seed 1 --trace "$trace"
done
python3 - <<'EOF'
import json, sys
# The quantities benchmark/check.sh holds exact between two runs.
EXACT = ("cpusim.insts", "gpusim.insts", "gpusim.transactions", "gpusim.contended",
         "gpusim.translations", "gpusim.busy_fraction", "gpusim.sim_speedup_geomean",
         "energy.cpu_joules", "energy.gpu_joules", "energy.sim_savings_geomean")
baseline, bad = json.load(open("BENCH_baseline.json")), []
assert len(baseline) == 12, "six workloads x {untraced, traced}"
for base in baseline:
    run = f"{base['workload']}-trace{int(base['trace'])}"
    doc = json.load(open(f"benchmark/out/result-{run}.json"))["result"]
    if doc["correct"] is not True or doc["failed"] != 0:
        bad.append(f"{run}: {doc['failed']} of {doc['attempted']} ops failed")
    for name in EXACT if base["trace"] else ():
        got, want = doc["metrics"][name]["value"], base["result"]["metrics"][name]["value"]
        if abs(got - want) > 1e-9 * max(abs(got), abs(want)):
            bad.append(f"{run} {name}: {got!r}, baseline {want!r}")
sys.exit("\n".join(f"!! {b}" for b in bad) or 0)
EOF

echo "==> paper vs paper-expected.json (every simulated table of §5)"
# Table 1, Figure 6, Figures 7-10 on both systems at Scale::Small and the
# §5.4 SVM-overhead study, one row per line. Every number is simulated, so
# it repeats byte for byte and a diff names the row that moved. The ten
# exact quantities above are Scale::Tiny; this holds the simulators at the
# paper's scale. About 20 s on two host threads (nproc 2: Ultrabook 10 s,
# desktop 9 s, §5.4 1.4 s, Table 1 and Figure 6 under 0.1 s).
cargo run --release --quiet -p concord-bench --bin paper -- /tmp/concord_ci_paper.json > /dev/null
diff paper-expected.json /tmp/concord_ci_paper.json || {
    echo "!! paper output differs from paper-expected.json. A change that moves a" >&2
    echo "!! simulated number on purpose regenerates the file with:" >&2
    echo "!!   cargo run --release -p concord-bench --bin paper -- paper-expected.json" >&2
    exit 1
}

echo "==> determinism soak: graph_diff + worklist_diff 10x at CONCORD_HOST_THREADS=8"
# ROADMAP item 6 regression gate. Before the CA108 hazard gate, kernels
# whose items read bytes other items write (SSSP's relaxation pulls, flat
# BFS/CC level reads) exposed native chunk interleaving at host_threads
# > 1 and graph_diff flaked intermittently. Ten consecutive runs must now
# pass with identical (wall-clock-stripped) harness output; the batteries
# assert their replay bytes and per-round drain shapes internally, so any
# round-count wobble across runs changes the output and fails the diff.
# Release profile: the soaked property (native chunk scheduling under
# host-thread nondeterminism) is profile-independent, the artifacts are
# already built, and ten debug rounds would dominate CI wall-clock.
: > /tmp/concord_ci_soak_ref.log
for round in $(seq 1 10); do
    timeout 600 env CONCORD_HOST_THREADS=8 cargo test -q --release -p concord-workloads --test graph_diff \
        2>&1 | strip_wallclock > /tmp/concord_ci_soak.log \
        || { cat /tmp/concord_ci_soak.log; exit 1; }
    timeout 600 env CONCORD_HOST_THREADS=8 cargo test -q --release -p concord-workloads --test worklist_diff \
        2>&1 | strip_wallclock >> /tmp/concord_ci_soak.log \
        || { cat /tmp/concord_ci_soak.log; exit 1; }
    if [ "$round" -eq 1 ]; then
        cp /tmp/concord_ci_soak.log /tmp/concord_ci_soak_ref.log
    elif ! diff -u /tmp/concord_ci_soak_ref.log /tmp/concord_ci_soak.log; then
        echo "!! determinism soak: round $round output differs from round 1" >&2
        exit 1
    fi
done

echo "==> concord-lint: builtin workloads vs lint-expected.txt snapshot"
# Every shipped workload must analyze clean (or match the reviewed
# snapshot of known benign warnings). Exit 1 means a new finding or an
# error-severity diagnostic crept into the suite.
cargo run --release --quiet -p concord-bench --bin concord-lint -- \
    --builtin --snapshot lint-expected.txt

echo "==> concord-lint: deliberately racy fixture must be flagged"
# Negative test: the race detector itself is under test. A clean exit on
# the racy fixture means the analyzer has gone blind.
if cargo run --release --quiet -p concord-bench --bin concord-lint -- \
    crates/analyze/fixtures/racy_histogram.cc > /tmp/concord_ci_lint.log 2>&1; then
    echo "!! concord-lint failed to flag the racy fixture" >&2
    cat /tmp/concord_ci_lint.log
    exit 1
fi
grep -q 'CA104' /tmp/concord_ci_lint.log || {
    echo "!! racy fixture flagged, but not with the uniform-rmw lint (CA104)" >&2
    cat /tmp/concord_ci_lint.log
    exit 1
}

echo "==> concord-lint: racy push-aliasing fixture must be flagged"
# Negative test for the frontier-queue provenance analysis: a kernel that
# pushes a value with definite pointer provenance must trip CA107 — a
# clean exit means worklist lowering lost its pointer-safety screen.
if cargo run --release --quiet -p concord-bench --bin concord-lint -- \
    crates/analyze/fixtures/racy_push_alias.cc > /tmp/concord_ci_lint.log 2>&1; then
    echo "!! concord-lint failed to flag the racy push-aliasing fixture" >&2
    cat /tmp/concord_ci_lint.log
    exit 1
fi
grep -q 'CA107' /tmp/concord_ci_lint.log || {
    echo "!! push-aliasing fixture flagged, but not with the pointer-push lint (CA107)" >&2
    cat /tmp/concord_ci_lint.log
    exit 1
}

echo "==> concord-lint: cross-item-reading fixture must carry the CA108 hazard note"
# Positive test for the cross-item read-hazard classifier (the native
# backend's determinism gate keys off this verdict), and a negative test
# at the same time: the hazard is note severity, so the lint must exit 0
# — the kernel stays launchable under a deny gate, just chunk-ordered.
cargo run --release --quiet -p concord-bench --bin concord-lint -- \
    crates/analyze/fixtures/cross_item_read.cc > /tmp/concord_ci_lint.log 2>&1 || {
    echo "!! cross-item-reading fixture produced error-severity findings (CA108 is a note)" >&2
    cat /tmp/concord_ci_lint.log
    exit 1
}
grep -q 'CA108' /tmp/concord_ci_lint.log || {
    echo "!! concord-lint missed the cross-item read hazard (CA108) — the native determinism gate is blind" >&2
    cat /tmp/concord_ci_lint.log
    exit 1
}

echo "==> concord-lint: redundant-atomic fixture must carry the CA109 warning"
# Positive test for the injectivity analysis: an atomic RMW on a provably
# per-item-private address must warn (CA109), and warnings are not
# errors, so the lint must still exit 0.
cargo run --release --quiet -p concord-bench --bin concord-lint -- \
    crates/analyze/fixtures/redundant_atomic.cc > /tmp/concord_ci_lint.log 2>&1 || {
    echo "!! redundant-atomic fixture produced error-severity findings (CA109 is a warning)" >&2
    cat /tmp/concord_ci_lint.log
    exit 1
}
grep -q 'CA109' /tmp/concord_ci_lint.log || {
    echo "!! concord-lint missed the redundant atomic (CA109) — the injectivity analysis is blind" >&2
    cat /tmp/concord_ci_lint.log
    exit 1
}

echo "==> structural guard: no thread is created on the launch path"
# Every launch fans out through concord_pool::map's parked workers. The only
# spawn sites the launch-path crates may contain are the pool's own two:
# the fan-out workers and TaskPool::new.
spawn_sites=$(grep -rnE 'thread::(scope|spawn)|Builder::new\(\)' \
    crates/{pool,runtime,native,cpusim,gpusim,svm}/src || true)
if [ "$(grep -c '^crates/pool/src/lib.rs:.*thread::Builder::new()' <<<"$spawn_sites")" -ne 2 ] \
    || [ "$(wc -l <<<"$spawn_sites")" -ne 2 ]; then
    echo "!! a thread spawn outside the pool's two worker sites:" >&2
    echo "$spawn_sites" >&2
    exit 1
fi

echo "==> structural guard: one analyzer walk, in one place"
# The runtime's fact table runs the analyzer, once per (kernel, mode), and
# the native executor takes its chunk order from `Work::in_order`. A second
# walk (a private summary pass, an executor-side verdict) fails here.
if grep -rnE 'concord[_-]analyze' crates/native; then
    echo "!! crates/native references the analyzer again" >&2
    exit 1
fi
if grep -rn 'infer_access' crates; then
    echo "!! a second access-summary walk (infer_access) is back" >&2
    exit 1
fi
walks=$(for f in crates/runtime/src/*.rs; do sed '/^#\[cfg(test)\]/,$d' "$f"; done \
    | grep -c 'concord_analyze::analyze_kernel(' || true)
if [ "$walks" -ne 1 ]; then
    echo "!! crates/runtime/src calls concord_analyze::analyze_kernel at $walks non-test sites, want 1" >&2
    exit 1
fi

echo "==> structural guard: one decoder"
# Both simulators execute the decoded form of crates/cpusim/src/program.rs,
# and only that file reads IR opcodes. An interpreter that walks `Op`s again,
# or a second copy of the frame layout (native lowers from IR on its own and
# takes the layout from there too), fails here.
ir_walks=$(for f in crates/{cpusim,gpusim}/src/*.rs; do
    [ "$f" = crates/cpusim/src/program.rs ] && continue
    sed '/^#\[cfg(test)\]/,$d' "$f" | { grep -nE '\bOp::' || true; } | sed "s|^|$f:|"
done)
if [ -n "$ir_walks" ]; then
    echo "!! simulator code outside crates/cpusim/src/program.rs matches IR opcodes:" >&2
    echo "$ir_walks" >&2
    exit 1
fi
layouts=$(grep -rn 'fn frame_layout' crates | wc -l)
if [ "$layouts" -ne 1 ]; then
    echo "!! fn frame_layout is defined $layouts times under crates/, want 1:" >&2
    grep -rn 'fn frame_layout' crates >&2
    exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release --examples"
cargo build --release --examples

echo "==> running examples"
for example in quickstart raytrace_demo graph_analytics cloth_demo; do
    echo "--> $example"
    cargo run --release --quiet --example "$example"
done

echo "==> cargo doc --workspace --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> CI green"
