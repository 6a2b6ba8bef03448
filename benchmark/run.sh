#!/usr/bin/env bash
# Builds and runs the PolyMath stack benchmark (benchmark/README.md).
#
#   bash benchmark/run.sh --workload <w> --seed <n> --seconds <s> --trace <0|1>
#       one run: builds if needed, then runs stackbench with these flags
#       (the last stdout line is the run's JSON result)
#   bash benchmark/run.sh [--seed <n>] [--seconds <s>] [--out <dir>]
#       all four workloads, then the traced run of each; artifacts and
#       traces land in <dir> (default .bench_build/results/seed<n>)
#   bash benchmark/run.sh --repeat-check <dirA> <dirB>
#       diffs the end-to-end artifacts of two such runs with
#       tools/bench_compare, each metric within its BENCHMARK.json bound
#   bash benchmark/run.sh --smoke
#       the benchmark's self-test (about 15 s)
#
# Everything is built into .bench_build at the repository root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build=.bench_build
bin="$build/stackbench"
workloads=(cli-cold serve-hit serve-miss dse-search)

build() {
    mkdir -p "$build"
    local log="$build/build.log"
    if ! {
        { [ -f "$build/CMakeCache.txt" ] ||
            cmake -S benchmark -B "$build" -DCMAKE_BUILD_TYPE=Release; } &&
            cmake --build "$build" -j "$(nproc)" \
                --target stackbench pmc pmcd bench_compare
    } >"$log" 2>&1; then
        tail -n 30 "$log" >&2
        echo "run.sh: build failed (full log: $log)" >&2
        exit 1
    fi
}

case "${1:-}" in
--repeat-check)
    [ $# -eq 3 ] || { echo "usage: run.sh --repeat-check <dirA> <dirB>" >&2; exit 2; }
    build
    # One --tol per end-to-end metric: its bound from BENCHMARK.json.
    mapfile -t tols < <(python3 -c '
import json
for m in json.load(open("BENCHMARK.json"))["end_to_end"]:
    print("%s=%s" % (m["name"], m["bound"]))')
    args=()
    for t in "${tols[@]}"; do args+=(--tol "$t"); done
    status=0
    for w in "${workloads[@]}"; do
        "$build/polymath/tools/bench_compare" "${args[@]}" \
            "$2/$w.json" "$3/$w.json" || status=1
    done
    exit "$status"
    ;;
--smoke)
    build
    out="$("$bin" --smoke)" || { printf '%s\n' "$out"; exit 1; }
    printf '%s\n' "$out"
    trace="${out##* trace }"
    python3 -c 'import json, sys; json.load(open(sys.argv[1]))' "$trace"
    echo "run.sh: smoke ok"
    ;;
--workload)
    build
    exec "$bin" "$@"
    ;;
*)
    seed=1
    seconds=10
    out=""
    while [ $# -gt 0 ]; do
        case "$1" in
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --out) out="$2"; shift 2 ;;
        *) echo "run.sh: unknown option $1" >&2; exit 2 ;;
        esac
    done
    out="${out:-$build/results/seed$seed}"
    build
    mkdir -p "$out"
    for w in "${workloads[@]}"; do
        "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" \
            --trace 0 --artifact "$out/$w.json" | grep -v '^{'
    done
    for w in "${workloads[@]}"; do
        "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" \
            --trace 1 --artifact "$out/$w-layers.json" \
            --trace-out "$out/$w-trace.json" | grep -v '^{'
    done
    echo "run.sh: artifacts in $out"
    ;;
esac
