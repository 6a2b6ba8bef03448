/**
 * @file
 * Perf-regression gate: diffs two bench artifacts (report/artifact.h).
 *
 *   bench_compare [--rel-tol R] [--tol metric=R]... baseline.json current.json
 *
 * Exit codes: 0 all metrics within tolerance, 1 regression (any metric
 * out of tolerance or present on only one side), 2 usage / IO error.
 * check.sh runs this against the checked-in baselines in bench/baselines/,
 * the DSE sweep (bench_dse) included.
 */
#include <charconv>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/error.h"
#include "report/artifact.h"

namespace {

using polymath::report::BenchArtifact;
using polymath::report::CompareOptions;
using polymath::report::CompareResult;

void
usage(std::FILE *out)
{
    std::fprintf(
        out,
        "usage: bench_compare [--rel-tol R] [--tol metric=R]... \\\n"
        "                     baseline.json current.json\n"
        "\n"
        "Diffs two bench artifacts written by a bench binary's --json\n"
        "flag. Every metric row must match within a two-sided relative\n"
        "tolerance; rows present on only one side always fail.\n"
        "\n"
        "  --rel-tol R     default tolerance for all metrics (default\n"
        "                  1e-9: the cost models are deterministic)\n"
        "  --tol name=R    per-metric override, e.g. --tol speedup=0.05\n"
        "\n"
        "exit: 0 within tolerance, 1 regression, 2 usage/IO error\n");
}

double
parseTolValue(const char *text, const char *flag)
{
    double value = 0.0;
    const char *end = text + std::strlen(text);
    const auto [ptr, ec] = std::from_chars(text, end, value);
    if (ec != std::errc{} || ptr != end || value < 0)
        polymath::fatal(std::string(flag) +
                        " expects a non-negative number (got '" + text +
                        "')");
    return value;
}

} // namespace

int
main(int argc, char **argv)
{
    CompareOptions options;
    std::vector<std::string> paths;
    try {
        for (int i = 1; i < argc; ++i) {
            const char *arg = argv[i];
            if (std::strcmp(arg, "--help") == 0 ||
                std::strcmp(arg, "-h") == 0) {
                usage(stdout);
                return 0;
            }
            if (std::strcmp(arg, "--rel-tol") == 0) {
                if (i + 1 >= argc)
                    polymath::fatal("missing value after --rel-tol");
                options.relTol = parseTolValue(argv[++i], "--rel-tol");
            } else if (std::strcmp(arg, "--tol") == 0) {
                if (i + 1 >= argc)
                    polymath::fatal("missing value after --tol");
                const std::string spec = argv[++i];
                const size_t eq = spec.find('=');
                if (eq == std::string::npos || eq == 0)
                    polymath::fatal("--tol expects metric=R (got '" + spec +
                                    "')");
                options.metricTol[spec.substr(0, eq)] =
                    parseTolValue(spec.c_str() + eq + 1, "--tol");
            } else if (arg[0] == '-' && std::strcmp(arg, "-") != 0) {
                polymath::fatal(std::string("unknown flag '") + arg + "'");
            } else {
                paths.push_back(arg);
            }
        }
        if (paths.size() != 2) {
            usage(stderr);
            return 2;
        }

        const BenchArtifact baseline = BenchArtifact::read(paths[0]);
        const BenchArtifact current = BenchArtifact::read(paths[1]);
        const CompareResult result =
            polymath::report::compareArtifacts(baseline, current, options);

        if (result.ok()) {
            std::printf("bench_compare: %s vs %s: %s", paths[0].c_str(),
                        paths[1].c_str(), result.summary().c_str());
            return 0;
        }
        std::fprintf(stderr,
                     "bench_compare: REGRESSION\n"
                     "  baseline: %s (%s, git %s)\n"
                     "  current:  %s (%s, git %s)\n%s",
                     paths[0].c_str(), baseline.name.c_str(),
                     baseline.git.c_str(), paths[1].c_str(),
                     current.name.c_str(), current.git.c_str(),
                     result.summary().c_str());
        return 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "bench_compare: %s\n", e.what());
        return 2;
    }
}
