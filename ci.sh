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
# Strip harness wall-clock suffixes, libtest's slow-test notices and cargo
# compile-progress lines.
strip_wallclock() {
    sed 's/; finished in [0-9.]*s//' \
        | grep -vE '^[[:space:]]*(Compiling|Finished|Downloaded|Downloading) |^test .* has been running for over [0-9]+ seconds$' \
        || true
}
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
# paper's scale. About 10-13 s on two host threads (nproc 2, median of six
# runs 11.6 s; one run split as Ultrabook 4.7 s, desktop 4.8 s, §5.4
# 0.7 s, Table 1 and Figure 6 under 0.1 s).
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
# snapshot of known benign warnings), and every kernel's access summary
# (the facts the runtime's scheduler acts on: modes, patterns, footprints,
# the opaque and hazard verdicts) must match its pinned `access` line.
# Exit 1 means a new finding, a moved fact or an error-severity
# diagnostic crept into the suite.
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

echo "==> structural guard: one abstract value in the analyzer"
# Every analyzer value is one root plus one id-linear element
# (crates/analyze/src/affinity.rs, range.rs), and the lints, the access
# summary and CA108/CA109 read projections of it. A second lattice for the
# same fact (an affinity next to the range, a provenance next to the root)
# can disagree with the first, and fails here.
lattices=$(for f in crates/analyze/src/*.rs; do
    sed '/^#\[cfg(test)\]/,$d' "$f" | { grep -nE 'enum (Aff|Origin|Prov)\b|from_aff' || true; } | sed "s|^|$f:|"
done)
if [ -n "$lattices" ]; then
    echo "!! a second abstract lattice is back in crates/analyze/src:" >&2
    echo "$lattices" >&2
    exit 1
fi

echo "==> structural guard: one wave routine"
# Every wave (a solo construct, a hybrid split, a worklist round, an overlap
# pair, a GPU batch) runs through `Concord::run_wave`, the one place that
# fences each device once and counts the elided pairs. A second wave path
# brings its own fence calls and fails here.
for call in '.fence_in(' '.fence_out(' 'note_fences_elided('; do
    sites=$(for f in crates/runtime/src/*.rs; do sed '/^#\[cfg(test)\]/,$d' "$f"; done \
        | grep -cF "$call" || true)
    if [ "$sites" -ne 1 ]; then
        echo "!! crates/runtime/src calls $call at $sites non-test sites, want 1" >&2
        exit 1
    fi
done

echo "==> structural guard: one reduction protocol"
# The runtime stages every CPU-side reduction's slots at one site in
# `Concord::run_wave` and joins every reduction in `Pipeline::finish`; the
# executors only accumulate into the slots they are given. Native staging
# or joining its own slots again fails here.
native_protocol=$(for f in crates/native/src/*.rs; do
    sed '/^#\[cfg(test)\]/,$d' "$f" | { grep -nE 'stage_reduce|\.join\(' || true; } | sed "s|^|$f:|"
done)
if [ -n "$native_protocol" ]; then
    echo "!! non-test crates/native/src stages or joins a reduction itself:" >&2
    echo "$native_protocol" >&2
    exit 1
fi
stages=$(for f in crates/runtime/src/*.rs; do sed '/^#\[cfg(test)\]/,$d' "$f"; done \
    | grep -cF 'stage_reduce(' || true)
if [ "$stages" -ne 1 ]; then
    echo "!! crates/runtime/src calls stage_reduce( at $stages non-test sites, want 1" >&2
    exit 1
fi

echo "==> structural guard: one launch path"
# A blocking construct is a launch-graph submission the caller completes
# (`Concord::submit`, then `complete`), and `Concord::admit` decides every
# fact a launch runs under, resolving the access summary against live
# pointers once. Waves run from the graph's drain loop and from the
# worklist round loop only. A second launch path, a wave run from anywhere
# else, or a second resolution of the summary fails here.
runtime_src=$(for f in crates/runtime/src/*.rs; do sed '/^#\[cfg(test)\]/,$d' "$f"; done)
if grep -nE 'fn blocking\b' <<<"$runtime_src" >&2; then
    echo "!! non-test crates/runtime/src has a blocking launch path beside the graph again" >&2
    exit 1
fi
wave_callers=$(awk '/^    (pub )?fn [a-z_]+/ { name = $0; sub(/^ *(pub )?fn /, "", name); sub(/[(<].*/, "", name) }
    /run_wave\(/ && !/fn run_wave\(/ { print name }' <<<"$runtime_src" | sort | tr '\n' ' ')
if [ "$wave_callers" != "drain_one_wave parallel_worklist_hetero " ]; then
    echo "!! run_wave( is called from [$wave_callers], want [drain_one_wave parallel_worklist_hetero ]" >&2
    exit 1
fi
resolutions=$(grep -E 'resolve_base\(' <<<"$runtime_src" | grep -cvE 'fn resolve_base\(' || true)
if [ "$resolutions" -ne 1 ]; then
    echo "!! crates/runtime/src calls resolve_base( at $resolutions non-test sites, want 1" >&2
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

echo "==> structural guard: one CFG analysis"
# Every block order and dominator table comes from crates/ir/src/analysis.rs:
# one reverse-postorder DFS (its `post.reverse()`) and one Cooper-Harvey-
# Kennedy fixpoint (its two-finger intersect, two `rpo_index[..] >` lines),
# which DomTree runs forward and PostDomTree over the reversed CFG. A pass,
# simulator or backend with its own copy fails here, and so does a tree
# keyed by a hash map instead of by block.
cfg_copies=$(for f in $(find crates/*/src -name '*.rs' | sort); do
    sed '/^#\[cfg(test)\]/,$d' "$f" \
        | { grep -nE 'post\.reverse\(\)|rpo_index\[&?[a-z_]+\] > rpo_index\[' || true; } | sed "s|^|$f:|"
done)
if [ "$(grep -c 'post\.reverse()' <<<"$cfg_copies")" -ne 1 ] \
    || [ "$(grep -c 'rpo_index\[' <<<"$cfg_copies")" -ne 2 ] \
    || grep -v '^crates/ir/src/analysis.rs:' <<<"$cfg_copies" >&2; then
    echo "!! non-test crates/*/src must hold one reverse-postorder DFS and one dominator" >&2
    echo "!! fixpoint, both in crates/ir/src/analysis.rs; found:" >&2
    echo "$cfg_copies" >&2
    exit 1
fi
if sed '/^#\[cfg(test)\]/,$d' crates/ir/src/analysis.rs \
    | sed -n '/^pub struct DomTree/,/^pub struct Loop/p' | grep -n 'HashMap' >&2; then
    echo "!! DomTree or PostDomTree (crates/ir/src/analysis.rs) names a HashMap" >&2
    exit 1
fi

echo "==> structural guard: one call graph"
# Every class-hierarchy lookup (the subclasses of a static class, then each
# one's vtable slot) is `Module::virtual_targets` in crates/ir/src/callgraph.rs.
# A consumer that walks the hierarchy itself fails here.
cha_copies=$(for f in $(find crates src examples -name '*.rs' -not -path '*/tests/*' \
    -not -path 'crates/ir/src/*' | sort); do
    sed '/^#\[cfg(test)\]/,$d' "$f" | { grep -nE 'subclasses_of\(|\.vtable\.get\(' || true; } | sed "s|^|$f:|"
done)
if [ -n "$cha_copies" ]; then
    echo "!! non-test Rust outside crates/ir/src walks the class hierarchy itself:" >&2
    echo "$cha_copies" >&2
    exit 1
fi

echo "==> structural guard: one float representation in native code"
# An f32 value's home holds its binary32 bits and an f64's its binary64
# bits (crates/native/src/lower.rs, module doc). The lowering converts
# between them in two places, `f64_into` and `narrow`, and calls those only
# where the interpreter changes type: casts, float stores, intrinsics and
# their helpers (`emit_cast`, `emit_store_plain`, `emit_intrinsic`). An
# f64-plus-round path (`round_f32`, a conversion after an arithmetic op)
# fails here. Rust helpers are called through the `Env` table, so no
# helper's address is cast outside `helper_table` in env.rs.
native_src() {
    for f in crates/native/src/*.rs; do
        sed '/^#\[cfg(test)\]/,$d' "$f" | sed "s|^|$f:|"
    done
}
if native_src | grep -E 'fn round_f32' >&2; then
    echo "!! non-test crates/native/src defines round_f32 again" >&2
    exit 1
fi
converts=$(native_src | grep -E 'sse\(Sse::(Sd2Ss|Ss2Sd)' || true)
in_helpers=$(sed '/^#\[cfg(test)\]/,$d' crates/native/src/lower.rs \
    | sed -n '/ fn f64_into(/,/^    }$/p; / fn narrow(/,/^    }$/p' | grep -cE 'sse\(Sse::(Sd2Ss|Ss2Sd)' || true)
if [ "$(grep -c . <<<"$converts")" -ne 2 ] || [ "$in_helpers" -ne 2 ]; then
    echo "!! non-test crates/native/src must emit cvtsd2ss/cvtss2sd only in lower.rs's" >&2
    echo "!! f64_into and narrow; emissions:" >&2
    echo "$converts" >&2
    exit 1
fi
callers=$(sed '/^#\[cfg(test)\]/,$d' crates/native/src/lower.rs | awk '
    match($0, /^ *(pub(\(crate\))? )?fn [a-z_0-9]+/) { fn = $0; sub(/.*fn /, "", fn); sub(/[^a-z_0-9].*/, "", fn) }
    /self\.(f64_into|narrow)\(/ { print fn }' | sort -u)
if grep -vxE 'emit_cast|emit_store_plain|emit_intrinsic' <<<"$callers" >&2; then
    echo "!! lower.rs converts between float representations outside casts, stores and intrinsics" >&2
    exit 1
fi
casts=$(native_src | grep -E '\bh_[a-z0-9_]+ as ' || true)
in_table=$(sed -n '/^fn helper_table(/,/^}$/p' crates/native/src/env.rs | grep -cE '\bh_[a-z0-9_]+ as ' || true)
if [ "$(grep -c . <<<"$casts")" -ne "$in_table" ] || [ "$in_table" -eq 0 ]; then
    echo "!! a helper address is cast outside env.rs's helper_table:" >&2
    echo "$casts" >&2
    exit 1
fi

echo "==> structural guard: no hashing on the simulated access path"
# The shadow overlay, the L3 contention history and the set-associative
# cache model are reached on every simulated access. They index pages and
# sets directly: a SipHash map there costs a hash per access, and a faster
# hasher would let a served kernel pick keys that make lookups slow.
# `Cache::access` finds its set with a mask (set counts are powers of two),
# not a `%`.
hashing=$(for f in crates/svm/src/shadow.rs crates/gpusim/src/l3.rs crates/cpusim/src/cache.rs; do
    sed '/^#\[cfg(test)\]/,$d' "$f" | { grep -nE 'HashMap|HashSet' || true; } | sed "s|^|$f:|"
done)
if [ -n "$hashing" ]; then
    echo "!! a hash map or set on the simulated access path:" >&2
    echo "$hashing" >&2
    exit 1
fi
access=$(sed '/^#\[cfg(test)\]/,$d' crates/cpusim/src/cache.rs | sed -n '/ fn access(/,/^    }$/p')
if [ -z "$access" ] || grep -F '%' <<<"$access" >&2; then
    echo "!! Cache::access (crates/cpusim/src/cache.rs) is missing or divides to find its set" >&2
    exit 1
fi

echo "==> structural guard: inlined evaluators"
# Both simulators call the shared evaluators once per simulated instruction,
# from interpreter loops in other crates. Out of line, that call cost cpusim
# more than the evaluation (EXPERIMENTS.md, "cpusim's loop"), so each
# evaluator in crates/ir/src/eval.rs sits right under `#[inline(always)]`.
for f in eval_bin eval_cast eval_icmp eval_fcmp; do
    if ! grep -B1 -E "^pub fn $f\(" crates/ir/src/eval.rs | head -1 | grep -qxF '#[inline(always)]'; then
        echo "!! crates/ir/src/eval.rs: pub fn $f( is missing or not right under #[inline(always)]" >&2
        exit 1
    fi
done

echo "==> structural guard: one environment variable"
# Outside tests the crates read exactly one environment variable: the pool's
# CONCORD_HOST_THREADS. Every other choice is an `Options` field or a CLI
# argument, so a second knob (a debug switch, a backend selector) fails here.
env_reads=$(for f in $(find crates/*/src -name '*.rs' | sort); do
    sed '/^#\[cfg(test)\]/,$d' "$f" | { grep -nE 'env::var|var_os' || true; } | sed "s|^|$f:|"
done)
if [ "$(wc -l <<<"$env_reads")" -ne 1 ] \
    || ! grep -q '^crates/pool/src/lib.rs:.*env::var(HOST_THREADS_ENV)' <<<"$env_reads" \
    || ! grep -q 'HOST_THREADS_ENV: &str = "CONCORD_HOST_THREADS";' crates/pool/src/lib.rs; then
    echo "!! non-test crates/*/src must read only CONCORD_HOST_THREADS, in crates/pool; reads:" >&2
    echo "$env_reads" >&2
    exit 1
fi

echo "==> structural guard: one layout description in the compiled artifact"
# A lowered program is its IR module, kernels, restriction warnings and
# source statistics; the module's struct table is the one struct layout the
# artifact carries, in memory and on disk. The frontend's type environment
# and signature table are locals of `lower()`, and `Concord::build` gets
# every session's artifact from `ArtifactCache::lookup_or_compile` (a
# `Concord::new` session through a fresh cache). A codec for a frontend
# symbol table, a field that keeps one, or a second compile path fails here.
sema_codecs=$(for f in crates/frontend/src/*.rs; do
    sed '/^#\[cfg(test)\]/,$d' "$f" \
        | { grep -nE 'impl Codec for (STy|MethodSig|SemaField|StructInfo|TypeEnv|FnSig)\b' || true; } \
        | sed "s|^|$f:|"
done)
if [ -n "$sema_codecs" ]; then
    echo "!! non-test crates/frontend/src persists a frontend symbol table again:" >&2
    echo "$sema_codecs" >&2
    exit 1
fi
program_fields=$(sed -n '/^pub struct LoweredProgram {/,/^}/p' crates/frontend/src/lower.rs)
if [ -z "$program_fields" ] || grep -nE '^ *pub (env|sigs):' <<<"$program_fields" >&2; then
    echo "!! LoweredProgram (crates/frontend/src/lower.rs) is missing or keeps an env or sigs field" >&2
    exit 1
fi
runtime_src=$(for f in crates/runtime/src/*.rs; do sed '/^#\[cfg(test)\]/,$d' "$f"; done)
compiles=$(grep -F 'lookup_or_compile(' <<<"$runtime_src" | grep -cvF 'fn lookup_or_compile' || true)
if [ "$compiles" -ne 1 ] || grep -nF 'cache: Option<&ArtifactCache>' <<<"$runtime_src" >&2; then
    echo "!! crates/runtime/src calls lookup_or_compile( at $compiles non-test sites (want 1)" >&2
    echo "!! or takes an optional cache beside it" >&2
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
