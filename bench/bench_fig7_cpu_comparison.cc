/**
 * @file
 * Figure 7: runtime and energy improvement of PolyMath-compiled programs
 * on their domain accelerators over the Xeon CPU baseline, for the fifteen
 * Table III workloads. The paper reports geomeans of ~3.3x runtime and
 * ~18.1x energy.
 *
 * Per-workload compile + simulation runs through the suite driver (-jN);
 * geomeans and the table are aggregated serially from the ordered results
 * so the report is identical at every jobs count.
 */
#include <cstdio>
#include <vector>

#include "core/strings.h"
#include "driver.h"
#include "report/report.h"
#include "soc/soc.h"
#include "targets/cpu/cpu_model.h"
#include "workloads/suite.h"

using namespace polymath;

int
main(int argc, char **argv)
{
    const bench::Driver driver(argc, argv);
    const auto &registry = target::standardRegistry();
    const target::CpuModel cpu;
    const soc::SocRuntime runtime;

    struct Row
    {
        std::vector<std::string> cells;
        double speedup;
        double energy;
    };
    const auto rows = driver.mapTableIII(
        registry,
        [&](const wl::Benchmark &bench,
            const lower::CompiledProgram &compiled) {
            const auto accel = runtime.execute(compiled, bench.profile);
            const auto host = cpu.simulate(bench.cpuCost());

            const double sp = target::speedup(host, accel.total);
            const double en = target::energyReduction(host, accel.total);
            driver.record(bench.id, "cpu_seconds", host.seconds);
            driver.record(bench.id, "accel_seconds", accel.total.seconds);
            driver.record(bench.id, "speedup", sp);
            driver.record(bench.id, "energy_reduction", en);
            return Row{{bench.id, lang::toString(bench.domain), bench.accel,
                        formatG(host.seconds * 1e3, 4),
                        formatG(accel.total.seconds * 1e3, 4),
                        report::times(sp), report::times(en)},
                       sp, en};
        });

    report::Table table({"Benchmark", "Domain", "Accelerator",
                         "CPU (ms)", "Accel (ms)", "Runtime", "Energy"});
    std::vector<double> speedups;
    std::vector<double> energies;
    for (const auto &row : rows) {
        speedups.push_back(row.speedup);
        energies.push_back(row.energy);
        table.addRow(row.cells);
    }
    driver.record("geomean", "speedup", report::geomean(speedups));
    driver.record("geomean", "energy_reduction",
                  report::geomean(energies));
    table.addRow({"Geomean", "", "", "", "",
                  report::times(report::geomean(speedups)),
                  report::times(report::geomean(energies))});

    std::printf("Figure 7: PolyMath cross-domain acceleration vs. Xeon "
                "E-2176G\n(paper: geomean 3.3x runtime, 18.1x energy)\n\n");
    std::printf("%s\n", table.str().c_str());
    return 0;
}
