/**
 * @file
 * Design-space sweep over the Table III suite (docs/DSE.md): every
 * workload's accelerator is autotuned over its *small* config space
 * (units x freq, exhaustive grid), and the per-workload baseline, best
 * point, and Pareto-front size are recorded. The grid driver plus the
 * analytical cost models make the sweep fully deterministic, so
 * check.sh gates the recorded artifact against bench/baselines/dse.json
 * at zero tolerance.
 *
 * Routed through the suite driver (-jN fans out across workloads; each
 * workload's space is evaluated serially) with serial aggregation, so
 * the report is identical at every jobs count.
 */
#include <cstdio>
#include <vector>

#include "driver.h"
#include "dse/dse.h"
#include "workloads/suite.h"

using namespace polymath;

int
main(int argc, char **argv)
{
    const bench::Driver driver(argc, argv);
    const auto &registry = target::standardRegistry();

    dse::SearchOptions opts;
    opts.space = dse::ConfigSpace::Kind::Small;
    opts.driver = dse::SearchOptions::Driver::Grid;

    auto studies = driver.mapTableIII(
        registry,
        [&](const wl::Benchmark &bench,
            const lower::CompiledProgram &compiled) {
            auto study = dse::explore(
                bench.id, bench.accel,
                dse::partitionsFor(compiled, bench.accel), bench.profile,
                opts);
            driver.record(bench.id, "front_size",
                          static_cast<double>(study.front.size()));
            driver.record(bench.id, "evaluated",
                          static_cast<double>(study.evaluated()));
            driver.record(bench.id, "baseline_seconds",
                          study.baseline().seconds);
            driver.record(bench.id, "best_seconds", study.best().seconds);
            driver.record(bench.id, "best_perf_per_watt",
                          study.best().perfPerWatt);
            driver.record(bench.id, "speedup", study.bestSpeedup());
            driver.record(bench.id, "ppw_gain", study.bestPpwGain());
            return study;
        });

    std::printf("Design-space sweep: small grid over the Table III "
                "accelerator configs\n\n%s",
                dse::bestTable(studies).c_str());
    return 0;
}
