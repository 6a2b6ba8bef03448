#!/usr/bin/env bash
# Tier-1 gate: build + ctest under the default (Release) configuration,
# again under ASan/UBSan, a focused standalone-UBSan pass over the SoC
# scheduler/fault tests, the backend cost models (test_targets,
# test_dse) and the PMLang frontend and srDFG builder (test_pmlang,
# test_srdfg, test_golden_ir; recovery disabled, so findings fail
# instead of logging),
# and a focused ThreadSanitizer pass (see CMakePresets.json).
# Run from anywhere; operates on the repo root. `tools/check.sh
# default`, `tools/check.sh asan`, `tools/check.sh ubsan`, or
# `tools/check.sh tsan` runs a single configuration.
# `tools/check.sh tidy` is an opt-in
# extra (not part of the default trio): clang-tidy with the repo's
# .clang-tidy profile (bugprone-* + performance-*) over the compile-path
# core — src/srdfg, src/passes, src/lower, and src/interp; it needs
# clang-tidy on PATH and uses the default preset's exported compile
# database.
#
# The ASan pass re-runs the suite twice more to pin down the two
# environment axes the stack promises independence from:
#   1. a comma-decimal locale (LC_ALL=de_DE.UTF-8 or the closest
#      installed equivalent) — parse/serialize must not consult it;
#   2. POLYMATH_JOBS=4 — the parallel suite driver must be sanitizer-
#      clean and produce the same results as serial runs.
# It then feeds the sanitized pmc seeded token mutants of
# examples/pmlang (tools/pmlang_mutants.py --contract): each must end ok
# or as a user error, never as an internal error, a signal, a timeout or
# a sanitizer report.
#
# The default pass builds with warnings as errors
# (CMAKE_COMPILE_WARNING_AS_ERROR) and additionally runs the bench perf
# gates, a telemetry smoke (live pmcd scraped over the wire,
# docs/OBSERVABILITY.md), the stack benchmark's self-test
# (benchmark/run.sh --smoke), a scan for functions without a caller
# (tools/dead_api.py), and a repo-root cleanliness guard.
#
# The TSan pass builds only the concurrency-heavy binaries (test_obs,
# test_obs_service, test_driver, test_service, test_dse, test_targets,
# test_stream, test_soc, pmc), runs those tests with POLYMATH_JOBS=4 so
# the pool, compile cache, service server, trace recorder, and the
# process-wide backends every thread shares race under the sanitizer, and
# smoke-checks that `pmc --trace` emits loadable Chrome-trace JSON.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

jobs="$(nproc 2>/dev/null || echo 4)"
if [ $# -gt 0 ]; then
    presets=("$@")
else
    presets=(default asan ubsan tsan)
fi

# Closest installed comma-decimal locale, empty if none (the in-process
# locale tests GTEST_SKIP themselves in that case, so the run still
# covers everything else).
comma_locale=""
for candidate in de_DE.UTF-8 de_DE.utf8 de_DE fr_FR.UTF-8 fr_FR.utf8 \
                 fr_FR it_IT.UTF-8 it_IT.utf8 es_ES.UTF-8 es_ES.utf8; do
    if locale -a 2>/dev/null | grep -qix "$candidate"; then
        comma_locale="$candidate"
        break
    fi
done

for preset in "${presets[@]}"; do
    if [ "$preset" = tidy ]; then
        echo "== [tidy] clang-tidy (src/srdfg src/passes src/lower" \
             "src/interp) =="
        if ! command -v clang-tidy > /dev/null 2>&1; then
            echo "tidy: clang-tidy not on PATH; install it or drop the" \
                 "tidy argument" >&2
            exit 1
        fi
        if [ ! -f build/compile_commands.json ]; then
            cmake --preset default
        fi
        # One process over all TUs keeps the output grouped; the config
        # (check list, warnings-as-errors, header filter) lives in
        # .clang-tidy so editors and CI agree.
        clang-tidy -p build --quiet \
            src/srdfg/*.cc src/passes/*.cc src/lower/*.cc src/interp/*.cc
        continue
    fi
    echo "== [$preset] configure =="
    if [ "$preset" = default ]; then
        # The default configuration builds with warnings as errors, so a
        # new warning fails the gate instead of hiding among old ones.
        # Tier-1's plain configure keeps them warnings: another compiler
        # may warn where this one does not.
        cmake --preset default -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
    else
        cmake --preset "$preset"
    fi
    if [ "$preset" = ubsan ]; then
        # Standalone UBSan (no ASan shadow memory, recovery disabled):
        # focused on the SoC scheduler and fault-model arithmetic —
        # virtual-time accumulation, exponential backoff shifts, and the
        # seeded hash draws are the paths most likely to hide UB — and
        # on the backend cost models, which cast doubles to int64_t: the
        # design spaces' extreme corners (test_dse prices every
        # full-space point) are where such a cast would overflow; and on
        # the PMLang frontend, whose sema numbers every symbol with a
        # slot the srDFG builder indexes by (test_pmlang feeds it the
        # programs sema must refuse); and on the builder itself, which
        # trusts sema for every check that needs no value (test_srdfg,
        # test_golden_ir).
        echo "== [$preset] build (test_soc test_resilience test_stream" \
             "test_targets test_dse test_pmlang test_srdfg" \
             "test_golden_ir) =="
        cmake --build --preset ubsan -j "$jobs" \
            --target test_soc test_resilience test_stream test_targets \
            test_dse test_pmlang test_srdfg test_golden_ir
        echo "== [$preset] test =="
        ctest --test-dir build-ubsan -j "$jobs" --output-on-failure \
            -R '^(test_soc|test_resilience|test_stream|test_targets|test_dse|test_pmlang|test_srdfg|test_golden_ir)$'
        continue
    fi
    if [ "$preset" = tsan ]; then
        echo "== [$preset] build (test_obs test_obs_service test_driver" \
             "test_service test_dse test_targets test_stream test_soc" \
             "pmc) =="
        cmake --build --preset tsan -j "$jobs" \
            --target test_obs test_obs_service test_driver test_service \
            test_dse test_targets test_stream test_soc pmc
        echo "== [$preset] test (POLYMATH_JOBS=4) =="
        POLYMATH_JOBS=4 ctest --test-dir build-tsan -j "$jobs" \
            --output-on-failure \
            -R '^(test_obs|test_obs_service|test_driver|test_service|test_dse|test_targets|test_stream|test_soc)$'
        echo "== [$preset] pmc --trace smoke =="
        trace_json="$(mktemp /tmp/polymath-trace.XXXXXX.json)"
        build-tsan/tools/pmc --trace "$trace_json" \
            examples/pmlang/affine.pm > /dev/null
        python3 -c "import json,sys; json.load(open(sys.argv[1]))" \
            "$trace_json"
        rm -f "$trace_json"
        continue
    fi
    echo "== [$preset] build =="
    cmake --build --preset "$preset" -j "$jobs"
    echo "== [$preset] test =="
    ctest --preset "$preset" -j "$jobs"
    if [ "$preset" = default ]; then
        # Perf-regression gate: re-run the fast bench subset and diff
        # the JSON artifacts against the checked-in baselines. The cost
        # models are deterministic, so any drift is a real change; on
        # failure the fresh artifact is kept for inspection (promote it
        # to bench/baselines/ when the change is intentional).
        echo "== [$preset] bench perf gate =="
        for bench in fig7_cpu_comparison fig9_optimal soc_throughput \
                     dse resilience; do
            artifact="$(mktemp "/tmp/polymath-bench-$bench.XXXXXX.json")"
            "build/bench/bench_$bench" -j4 --json "$artifact" > /dev/null
            if ! build/tools/bench_compare \
                    "bench/baselines/$bench.json" "$artifact"; then
                echo "bench perf gate: $bench regressed;" \
                     "current artifact kept at $artifact" >&2
                exit 1
            fi
            rm -f "$artifact"
        done
        # Compile-path wall-clock gate: unlike the cost models above,
        # bench_compile measures real time, so the tolerance is loose —
        # it only catches gross regressions (e.g. a string-keyed map
        # sneaking back onto the compile path), not scheduler noise.
        echo "== [$preset] compile-path perf gate =="
        artifact="$(mktemp /tmp/polymath-bench-compile.XXXXXX.json)"
        build/bench/bench_compile --reps 3 --json "$artifact" > /dev/null
        if ! build/tools/bench_compare --rel-tol 0.6 \
                bench/baselines/compile_path.json "$artifact"; then
            echo "compile-path perf gate: regressed;" \
                 "current artifact kept at $artifact" >&2
            exit 1
        fi
        rm -f "$artifact"
        # Snapshot-cost gate: Graph::clone() and toJson() are the unit
        # costs behind pass snapshots, the compile cache, and component
        # memoization; wall-clock like bench_compile, so the same loose
        # tolerance applies.
        echo "== [$preset] clone/serialize perf gate =="
        artifact="$(mktemp /tmp/polymath-bench-clone.XXXXXX.json)"
        build/bench/bench_clone_serialize --reps 3 --json "$artifact" \
            > /dev/null
        if ! build/tools/bench_compare --rel-tol 0.6 \
                bench/baselines/clone_serialize.json "$artifact"; then
            echo "clone/serialize perf gate: regressed;" \
                 "current artifact kept at $artifact" >&2
            exit 1
        fi
        rm -f "$artifact"
        # Compile-service gate: bench_service drives a pmcd-style server
        # through the wire protocol (1600 pipelined requests, then an
        # overload flood). Counts, hit rate, and the conservation law
        # are exact; latency/throughput rows measure wall-clock, so they
        # gate loosely like the compile-path gate above.
        echo "== [$preset] service gate =="
        artifact="$(mktemp /tmp/polymath-bench-service.XXXXXX.json)"
        build/bench/bench_service --json "$artifact" > /dev/null
        if ! build/tools/bench_compare \
                --tol p50_ms=0.95 --tol p99_ms=0.95 \
                --tol requests_per_sec=0.95 \
                bench/baselines/service.json "$artifact"; then
            echo "service gate: regressed;" \
                 "current artifact kept at $artifact" >&2
            exit 1
        fi
        rm -f "$artifact"
        # Telemetry smoke: a real pmcd with the flight recorder and
        # slow-trace capture on, driven by two clients over the wire.
        # Asserts the metrics verb parses as both Prometheus text and
        # JSON, the dump verb returns the recorded requests, and the
        # conservation law holds on the shutdown stats.
        echo "== [$preset] telemetry smoke =="
        tele_sock="$(mktemp -u /tmp/polymath-tele.XXXXXX.sock)"
        tele_log="$(mktemp /tmp/polymath-tele.XXXXXX.log)"
        build/tools/pmcd --socket "$tele_sock" --flight-entries 64 \
            --slow-trace-us 1 -j 2 2> "$tele_log" &
        tele_pid=$!
        for _ in $(seq 50); do
            [ -S "$tele_sock" ] && break
            sleep 0.1
        done
        build/tools/pmc --connect "$tele_sock" --target DA \
            examples/pmlang/affine.pm > /dev/null
        build/tools/pmc --connect "$tele_sock" --target DA \
            examples/pmlang/black_scholes.pm > /dev/null
        # A repeat is a cache hit, answered on its reader thread; it
        # must leave a flight record like the pooled requests do.
        build/tools/pmc --connect "$tele_sock" --target DA \
            examples/pmlang/affine.pm > /dev/null
        build/tools/pmc --connect "$tele_sock" --metrics \
            | grep -q '^# TYPE polymath_service_server_completed counter$'
        build/tools/pmc --connect "$tele_sock" --metrics-json \
            | python3 -c "import json,sys; json.load(sys.stdin)"
        build/tools/pmc --connect "$tele_sock" --dump | python3 -c '
import json, sys
d = json.load(sys.stdin)
assert d["recorded"] >= 3, d
assert all(r["id"] for r in d["records"]), d
assert any(r["trace"] for r in d["records"]), "no retained trace"
'
        build/tools/pmcd --socket "$tele_sock" --shutdown 2>&1 \
            | python3 -c '
import sys
stats = {}
for line in sys.stdin:
    parts = line.split()
    if len(parts) == 3 and parts[0] == "pmcd:":
        stats[parts[1]] = float(parts[2])
assert stats["offered"] == stats["completed"] + stats["rejected"], stats
'
        wait "$tele_pid"
        rm -f "$tele_sock" "$tele_log"
        # Stack benchmark self-test: every workload briefly, with each
        # served reply checked against benchmark/expected.json — the
        # wire-level guard on the pmcd cache-hit path. Builds into the
        # git-ignored .bench_build/.
        echo "== [$preset] stack benchmark smoke =="
        bash benchmark/run.sh --smoke
        # Dead-API gate: every external function defined in src/ needs a
        # caller among this preset's objects (library, tools, tests,
        # benches, examples) or the stack benchmark's just built above.
        # nm sees only out-of-line definitions, so an unused header-only
        # inline function escapes it (tools/dead_api.py says what else).
        echo "== [$preset] dead-API scan =="
        python3 tools/dead_api.py build .bench_build
        # The telemetry smoke (and every other stage) must not leave
        # stray files — a misparsed `--socket` once left a Unix socket
        # literally named "--shutdown" at the repo root.
        echo "== [$preset] repo-root clean guard =="
        stray="$(git ls-files --others --exclude-standard \
                 | grep -v '/' || true)"
        if [ -n "$stray" ]; then
            echo "repo-root clean guard: untracked files at the repo" \
                 "root: $stray" >&2
            exit 1
        fi
    fi
    if [ "$preset" = asan ]; then
        if [ -n "$comma_locale" ]; then
            echo "== [$preset] test (LC_ALL=$comma_locale) =="
            LC_ALL="$comma_locale" ctest --preset "$preset" -j "$jobs"
        else
            echo "== [$preset] test (comma locale): none installed, skipped =="
        fi
        echo "== [$preset] test (POLYMATH_JOBS=4) =="
        POLYMATH_JOBS=4 ctest --preset "$preset" -j "$jobs"
        echo "== [$preset] pmlang mutant contract =="
        python3 tools/pmlang_mutants.py --contract build-asan/tools/pmc \
            --seed 1 --count 500
    fi
done

echo "check.sh: all configurations passed"
