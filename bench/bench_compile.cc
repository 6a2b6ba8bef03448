/**
 * @file
 * Compile-path microbenchmark over the Table III suite: per-workload
 * wall-clock time for the full parse -> srDFG -> fixpoint pipeline ->
 * Algorithm-1/2 lowering path (no compile cache — every rep compiles
 * from scratch; the cache is exactly what this bench must not hide).
 *
 * Each workload runs `--reps N` times (default 3) and reports the
 * minimum, split into the three phases the stack exposes:
 *   frontend_micros  parse + sema + srDFG build
 *   passes_micros    standardPipeline().runToFixpoint
 *   lower_micros     lowerGraph + compileProgram
 *   compile_micros   sum of the above (the gated metric)
 * plus a geomean row. `--json` records the numbers as a polymath-bench/1
 * artifact; tools/bench_compare diffs it against
 * bench/baselines/compile_path.json in the check.sh perf gate (loose
 * relative tolerance — these are wall-clock timings, not model outputs).
 */
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/error.h"
#include "core/strings.h"
#include "driver.h"
#include "lower/lower.h"
#include "passes/pass.h"
#include "report/report.h"
#include "workloads/suite.h"

using namespace polymath;

namespace {

using Clock = std::chrono::steady_clock;

double
microsSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::micro>(Clock::now() - start)
        .count();
}

struct CompileTiming
{
    double frontend = 0.0;
    double passes = 0.0;
    double lower = 0.0;

    double total() const { return frontend + passes + lower; }
};

/** One full uncached compile of @p bench, phase-timed. */
CompileTiming
timeCompile(const wl::Benchmark &bench,
            const lower::AcceleratorRegistry &registry)
{
    CompileTiming t;
    auto start = Clock::now();
    auto graph = wl::buildGraph(bench.source, bench.buildOpts);
    t.frontend = microsSince(start);

    start = Clock::now();
    auto pipeline = pass::standardPipeline();
    pipeline.runToFixpoint(*graph);
    t.passes = microsSince(start);

    start = Clock::now();
    lower::lowerGraph(*graph, registry.supportedOpsByDomain(),
                      bench.domain);
    auto compiled =
        lower::compileProgram(*graph, registry, bench.domain);
    t.lower = microsSince(start);
    return t;
}

} // namespace

int
main(int argc, char **argv)
{
    int reps = 3;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
            const char *text = argv[i + 1];
            const char *end = text + std::strlen(text);
            const auto [ptr, ec] = std::from_chars(text, end, reps);
            if (ec != std::errc{} || ptr != end || reps < 1)
                polymath::fatal(std::string("--reps expects a positive "
                                            "integer (got '") +
                                text + "')");
        }
    }

    const bench::Driver driver(argc, argv);
    const auto &registry = target::standardRegistry();
    const auto &suite = wl::tableIII();

    struct Row
    {
        std::vector<std::string> cells;
        double totalMicros;
    };
    const auto rows = driver.map(
        static_cast<int64_t>(suite.size()), [&](int64_t i) {
            const auto &bench = suite[static_cast<size_t>(i)];
            CompileTiming best;
            for (int rep = 0; rep < reps; ++rep) {
                const CompileTiming t = timeCompile(bench, registry);
                if (rep == 0 || t.total() < best.total())
                    best = t;
            }
            driver.record(bench.id, "frontend_micros", best.frontend);
            driver.record(bench.id, "passes_micros", best.passes);
            driver.record(bench.id, "lower_micros", best.lower);
            driver.record(bench.id, "compile_micros", best.total());
            return Row{{bench.id, lang::toString(bench.domain),
                        formatF(best.frontend, 1),
                        formatF(best.passes, 1),
                        formatF(best.lower, 1),
                        formatF(best.total(), 1)},
                       best.total()};
        });

    report::Table table({"Benchmark", "Domain", "Frontend (us)",
                         "Passes (us)", "Lower (us)", "Total (us)"});
    std::vector<double> totals;
    for (const auto &row : rows) {
        totals.push_back(row.totalMicros);
        table.addRow(row.cells);
    }
    const double geo = report::geomean(totals);
    driver.record("geomean", "compile_micros", geo);
    table.addRow({"Geomean", "", "", "", "", formatF(geo, 1)});

    std::printf("Compile path: parse -> srDFG -> fixpoint pipeline -> "
                "lower, min of %d reps\n\n", reps);
    std::printf("%s\n", table.str().c_str());
    driver.reportStats();
    return 0;
}
