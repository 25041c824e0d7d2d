#!/usr/bin/env bash
# Self-check of the benchmark: build it, run the full set twice with one
# seed, and fail unless every end-to-end metric of the two sets agrees
# within that metric's own bound (BENCHMARK.json), the simulated
# statistics of two traced sim_exec runs agree exactly, every run is
# correct, and the projected time of the driver's run count fits its cap.
#
#   benchmark/check.sh [seed]
set -euo pipefail
cd "$(dirname "$0")/.."

SEED="${1:-1}"
SECONDS_PER_RUN=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"

build_start=$(date +%s.%N)
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
build_s=$(python3 -c "import time; print(f'{time.time() - $build_start:.1f}')")
BIN="$CARGO_TARGET_DIR/release/concord-benchmark"

revision=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
echo "nproc $(nproc), host threads 2, revision $revision, seed $SEED," \
     "$SECONDS_PER_RUN s per run, build ${build_s} s"

mkdir -p benchmark/out
run() { # workload trace set
    local start end
    start=$(date +%s.%N)
    "$BIN" --workload "$1" --seed "$SEED" --seconds "$SECONDS_PER_RUN" --trace "$2" \
        2>/dev/null | tail -n 1 > "benchmark/out/check-$1-$2-$3.json"
    end=$(date +%s.%N)
    python3 -c "print(f'  $1 trace=$2 set $3: {$end - $start:.1f} s')"
    echo "$1 $(python3 -c "print($end - $start)")" >> benchmark/out/check-times.txt
}

WORKLOADS=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
: > benchmark/out/check-times.txt
for set in a b; do
    for w in $WORKLOADS; do run "$w" 0 "$set"; done
    run sim_exec 1 "$set"
done

python3 - "$WORKLOADS" <<'EOF'
import json, sys

spec = json.load(open("BENCHMARK.json"))
workloads = sys.argv[1].split()
bad = []

def load(w, trace, which):
    with open(f"benchmark/out/check-{w}-{trace}-{which}.json") as f:
        doc = json.loads(f.read())
    if not doc["correct"] or doc["failed"] != 0:
        bad.append(f"{w} set {which}: {doc['failed']} of {doc['attempted']} ops failed")
    return doc["metrics"]

print(f"{'workload':15} {'metric':12} {'set a':>14} {'set b':>14} {'worse by':>9} {'bound':>6}")
for w in workloads:
    a, b = load(w, 0, "a"), load(w, 0, "b")
    for m in spec["end_to_end"]:
        va, vb = a[m["name"]]["value"], b[m["name"]]["value"]
        # Whichever set reads worse, as a share of the other.
        lo, hi = sorted((va, vb))
        worse = (hi - lo) / lo
        flag = "" if worse <= m["bound"] else "  <-- beyond bound"
        print(f"{w:15} {m['name']:12} {va:14.4f} {vb:14.4f} {worse:9.4f} {m['bound']:6.2f}{flag}")
        if flag:
            bad.append(f"{w} {m['name']}: sets differ by {worse:.3f}, bound {m['bound']}")

# Simulated quantities are exact: same commit, same statistics.
EXACT = ("cpusim.insts", "gpusim.insts", "gpusim.transactions", "gpusim.contended",
         "gpusim.translations", "gpusim.busy_fraction", "gpusim.sim_speedup_geomean",
         "energy.cpu_joules", "energy.gpu_joules", "energy.sim_savings_geomean")
a, b = load("sim_exec", 1, "a"), load("sim_exec", 1, "b")
for name in EXACT:
    va, vb = a[name]["value"], b[name]["value"]
    same = abs(va - vb) <= 1e-9 * max(abs(va), abs(vb))
    print(f"{'sim_exec':15} {name:32} {va:.12g} {'==' if same else '!='} {vb:.12g}")
    if not same:
        bad.append(f"sim_exec {name}: {va} != {vb}")

# The driver makes 4 + 22 per workload runs and two builds within 3420 s.
times = [float(l.split()[1]) for l in open("benchmark/out/check-times.txt")]
runs = 4 + 22 * len(workloads)
BUILDS_S = 2 * 120
projected = runs * sum(times) / len(times) + BUILDS_S
print(f"total {sum(times):.0f} s for {len(times)} runs; projected {projected:.0f} s for the "
      f"driver's {runs} runs and two builds (cap 3420 s); slowest run {max(times):.1f} s (cap 180 s)")
if projected > 3420 or max(times) > 180:
    bad.append("run time exceeds the contract's cap")

for line in bad:
    print("FAIL:", line)
sys.exit(1 if bad else 0)
EOF
echo "check passed"
