/**
 * @file
 * Figure 8: runtime and performance-per-watt of PolyMath-compiled programs
 * vs. Titan Xp and Jetson Xavier. The paper reports cross-domain
 * acceleration at ~40% of Titan Xp runtime but 7.2x its perf-per-watt,
 * and 1.2x runtime / 1.7x perf-per-watt over Jetson.
 *
 * Routed through the suite driver (-jN) with serial aggregation, so the
 * report is identical at every jobs count.
 */
#include <cstdio>
#include <vector>

#include "driver.h"
#include "report/report.h"
#include "soc/soc.h"
#include "targets/gpu/gpu_model.h"
#include "workloads/suite.h"

using namespace polymath;

int
main(int argc, char **argv)
{
    const bench::Driver driver(argc, argv);
    const auto &registry = target::standardRegistry();
    const auto titan = target::GpuModel::titanXp();
    const auto jetson = target::GpuModel::jetson();
    const soc::SocRuntime runtime;

    struct Row
    {
        std::string id;
        double rt_titan, ppw_titan, rt_jetson, ppw_jetson;
    };
    const auto rows = driver.mapTableIII(
        registry,
        [&](const wl::Benchmark &bench,
            const lower::CompiledProgram &compiled) {
            const auto accel = runtime.execute(compiled, bench.profile);
            const auto on_titan = titan.simulate(bench.cpuCost());
            const auto on_jetson = jetson.simulate(bench.cpuCost());
            return Row{bench.id,
                       target::speedup(on_titan, accel.total),
                       target::ppwImprovement(on_titan, accel.total),
                       target::speedup(on_jetson, accel.total),
                       target::ppwImprovement(on_jetson, accel.total)};
        });

    report::Table table({"Benchmark", "RT(Titan)", "PPW(Titan)",
                         "RT(Jetson)", "PPW(Jetson)"});
    std::vector<double> rt_t, ppw_t, rt_j, ppw_j;
    for (const auto &row : rows) {
        rt_t.push_back(row.rt_titan);
        ppw_t.push_back(row.ppw_titan);
        rt_j.push_back(row.rt_jetson);
        ppw_j.push_back(row.ppw_jetson);
        table.addRow({row.id, report::times(row.rt_titan),
                      report::times(row.ppw_titan),
                      report::times(row.rt_jetson),
                      report::times(row.ppw_jetson)});
    }
    table.addRow({"Geomean", report::times(report::geomean(rt_t)),
                  report::times(report::geomean(ppw_t)),
                  report::times(report::geomean(rt_j)),
                  report::times(report::geomean(ppw_j))});

    std::printf("Figure 8: PolyMath cross-domain acceleration vs. GPUs\n"
                "(paper geomeans: ~0.4x runtime / 7.2x PPW vs Titan Xp, "
                "1.2x / 1.7x vs Jetson)\n\n%s\n",
                table.str().c_str());
    return 0;
}
