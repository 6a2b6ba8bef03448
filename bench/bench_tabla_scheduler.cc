/**
 * @file
 * Cross-check: TABLA's analytic dependence-level model (Figs. 7/8)
 * against the event-driven PE-array list scheduler on the data-analytics
 * workloads. Reports makespans, bus pressure, and PE occupancy. Not a
 * paper figure; it validates the cost model (DESIGN.md §1).
 */
#include <cstdio>
#include <string>
#include <vector>

#include "core/strings.h"
#include "driver.h"
#include "report/report.h"
#include "targets/common/backend.h"
#include "targets/tabla/scheduler.h"
#include "workloads/suite.h"

using namespace polymath;

int
main(int argc, char **argv)
{
    const bench::Driver driver(argc, argv);
    const auto &registry = target::standardRegistry();
    const auto *tabla = target::findBackend("TABLA");

    const std::vector<const char *> ids = {"MovieL-100K", "MovieL-20M",
                                           "DigitCluster", "ElecUse"};
    const auto rows = driver.map(
        static_cast<int64_t>(ids.size()), [&](int64_t i) {
            const auto &bench =
                wl::benchmarkById(ids[static_cast<size_t>(i)]);
            const auto compiled = wl::compileBenchmarkCached(
                bench.source, bench.buildOpts, registry, bench.domain,
                driver.cache());
            const auto &partition = compiled->partitions.front();

            // Analytic per-invocation cycles (strip DMA/overhead terms).
            target::WorkloadProfile once = bench.profile;
            once.invocations = 1;
            const auto analytic = tabla->simulate(partition, once);
            const double analytic_cycles =
                analytic.computeSeconds * tabla->machine().freqGhz * 1e9;

            target::ScheduleConfig config;
            config.pes = tabla->machine().computeUnits;
            const auto schedule = target::listSchedule(partition, config);

            int64_t frags = 0;
            for (const auto &f : partition.fragments)
                frags += !f.isTransfer();

            const double ratio =
                static_cast<double>(schedule.cycles) / analytic_cycles;
            driver.record(bench.id, "analytic_cycles", analytic_cycles);
            driver.record(bench.id, "scheduled_cycles",
                          static_cast<double>(schedule.cycles));
            driver.record(bench.id, "schedule_ratio", ratio);
            driver.record(bench.id, "pe_occupancy", schedule.peOccupancy);
            return std::vector<std::string>{
                bench.id, format("%lld", static_cast<long long>(frags)),
                formatF(analytic_cycles, 0),
                format("%lld", static_cast<long long>(schedule.cycles)),
                formatF(ratio, 2) + "x",
                format("%lld", static_cast<long long>(schedule.busCycles)),
                report::percent(schedule.peOccupancy)};
        });

    report::Table table({"Benchmark", "Fragments", "Analytic (cyc)",
                         "Scheduled (cyc)", "Ratio", "Bus (cyc)",
                         "PE occupancy"});
    for (const auto &row : rows)
        table.addRow(row);
    std::printf("Event-driven TABLA list scheduler vs analytic level "
                "model\n(per-invocation compute cycles; the scheduler "
                "serializes operand fetches the analytic model assumes "
                "are overlapped, so ratios of ~1.5x bound the optimism "
                "of the Fig. 7/8 cost model)\n\n%s\n",
                table.str().c_str());
    return 0;
}
