/**
 * @file
 * Figure 11: end-to-end runtime and performance-per-watt improvement over
 * Titan Xp and Jetson Xavier for the two cross-domain applications, per
 * accelerated-domain combination. Paper anchors for all-domains: 1.2x
 * runtime / 8.3x PPW vs Titan Xp and 1.8x / 2.8x vs Jetson for
 * BrainStimul; 1.5x / 9.2x and 1.4x / 1.9x for OptionPricing.
 *
 * Apps compile through the suite driver's cache, and the per-combination
 * simulations fan out across the pool (-jN) with serial aggregation, so
 * the report is identical at every jobs count.
 */
#include <cstdio>
#include <map>
#include <set>
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

    for (const auto &entry : driver.compileTableIV(registry)) {
        const auto &app = *entry.app;
        const auto &compiled = *entry.program;
        std::map<std::string, double> host_eff;
        for (const auto &kernel : app.kernels)
            host_eff[kernel.accel] = kernel.cpuEff;

        auto on_titan = titan.simulate(app.cpuCost());
        auto on_jetson = jetson.simulate(app.cpuCost());
        // The GPU systems pay the same host-side glue per step.
        const double glue =
            app.profile.hostGlueSeconds *
            static_cast<double>(app.profile.invocations);
        for (auto *g : {&on_titan, &on_jetson}) {
            g->seconds += glue;
            g->joules += glue * 15.0;
        }

        // Per-kernel rows then the full cross-domain row.
        std::vector<std::set<std::string>> combos;
        std::vector<std::string> labels;
        for (const auto &kernel : app.kernels) {
            combos.push_back({kernel.accel});
            labels.push_back(kernel.label);
        }
        std::set<std::string> all;
        std::string all_label;
        for (const auto &kernel : app.kernels) {
            all.insert(kernel.accel);
            all_label += all_label.empty() ? kernel.label
                                           : "+" + kernel.label;
        }
        combos.push_back(all);
        labels.push_back(all_label);

        const auto rows = driver.map(
            static_cast<int64_t>(combos.size()), [&](int64_t i) {
                const auto result = runtime.execute(
                    compiled, app.profile, combos[static_cast<size_t>(i)],
                    host_eff);
                return std::vector<std::string>{
                    labels[static_cast<size_t>(i)],
                    report::times(target::speedup(on_titan, result.total)),
                    report::times(
                        target::ppwImprovement(on_titan, result.total)),
                    report::times(target::speedup(on_jetson, result.total)),
                    report::times(
                        target::ppwImprovement(on_jetson, result.total))};
            });

        report::Table table({"Accelerated", "RT(Titan)", "PPW(Titan)",
                             "RT(Jetson)", "PPW(Jetson)"});
        for (const auto &row : rows)
            table.addRow(row);
        std::printf("Figure 11 (%s): end-to-end improvement over GPUs\n%s\n",
                    app.id.c_str(), table.str().c_str());
    }
    return 0;
}
