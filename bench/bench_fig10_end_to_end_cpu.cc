/**
 * @file
 * Figure 10: end-to-end runtime/energy improvement over the CPU for the
 * two cross-domain applications, across every combination of accelerated
 * domains. The paper's headline: accelerating all kernels adds 1.85x
 * (BrainStimul) / 2.06x (OptionPricing) over the best single-domain
 * choice, with communication overheads of 23.4%/17.0% runtime and
 * 21.8%/12.4% energy.
 *
 * Apps compile through the suite driver's cache, and the per-combination
 * simulations fan out across the pool (-jN); tables are aggregated
 * serially so the report is identical at every jobs count.
 */
#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <vector>

#include "core/strings.h"
#include "driver.h"
#include "report/report.h"
#include "soc/soc.h"
#include "workloads/suite.h"

using namespace polymath;

namespace {

/** All non-empty subsets of the app's kernels, singletons first. */
std::vector<std::vector<const wl::AppKernel *>>
combinations(const wl::EndToEndApp &app)
{
    std::vector<std::vector<const wl::AppKernel *>> out;
    const size_t n = app.kernels.size();
    for (size_t size = 1; size <= n; ++size) {
        for (size_t mask = 1; mask < (size_t{1} << n); ++mask) {
            if (static_cast<size_t>(__builtin_popcountll(mask)) != size)
                continue;
            std::vector<const wl::AppKernel *> combo;
            for (size_t k = 0; k < n; ++k) {
                if (mask & (size_t{1} << k))
                    combo.push_back(&app.kernels[k]);
            }
            out.push_back(std::move(combo));
        }
    }
    return out;
}

std::string
comboLabel(const std::vector<const wl::AppKernel *> &combo)
{
    std::string label;
    for (const auto *k : combo) {
        if (!label.empty())
            label += "+";
        label += k->label;
    }
    return label;
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::Driver driver(argc, argv);
    const auto &registry = target::standardRegistry();
    const soc::SocRuntime runtime;

    for (const auto &entry : driver.compileTableIV(registry)) {
        const auto &app = *entry.app;
        const auto &compiled = *entry.program;

        std::map<std::string, double> host_eff;
        for (const auto &kernel : app.kernels)
            host_eff[kernel.accel] = kernel.cpuEff;

        // CPU-only baseline: no accelerator name matches.
        const auto cpu_only = runtime.execute(
            compiled, app.profile, {"<none>"}, host_eff);

        struct ComboRow
        {
            std::vector<std::string> cells;
            double runtime_gain;
            size_t size;
        };
        const auto combos = combinations(app);
        const auto rows = driver.map(
            static_cast<int64_t>(combos.size()), [&](int64_t i) {
                const auto &combo = combos[static_cast<size_t>(i)];
                std::set<std::string> accels;
                for (const auto *k : combo)
                    accels.insert(k->accel);
                const auto result =
                    runtime.execute(compiled, app.profile, accels, host_eff);
                const double rt =
                    target::speedup(cpu_only.total, result.total);
                const double en =
                    target::energyReduction(cpu_only.total, result.total);
                return ComboRow{
                    {comboLabel(combo), report::times(rt),
                     report::times(en),
                     report::percent(result.communicationFraction()),
                     report::percent(result.communicationEnergyFraction())},
                    rt, combo.size()};
            });

        report::Table table({"Accelerated", "Runtime", "Energy",
                             "Comm time", "Comm energy"});
        double best_single = 0.0;
        double all_accel = 0.0;
        for (const auto &row : rows) {
            if (row.size == 1)
                best_single = std::max(best_single, row.runtime_gain);
            if (row.size == app.kernels.size())
                all_accel = row.runtime_gain;
            table.addRow(row.cells);
        }
        std::printf("Figure 10 (%s): end-to-end improvement over CPU per "
                    "accelerated-domain combination\n",
                    app.id.c_str());
        std::printf("%s", table.str().c_str());
        const double gain =
            best_single > 0 ? all_accel / best_single : 0.0;
        driver.record(app.id, "cross_domain_gain", gain);
        driver.record(app.id, "best_single_speedup", best_single);
        driver.record(app.id, "all_accel_speedup", all_accel);
        std::printf("cross-domain gain over best single-domain: %sx\n\n",
                    formatF(gain, 2).c_str());
    }
    std::printf("(paper: gaps of 1.85x for BrainStimul and 2.06x for "
                "OptionPricing)\n");
    return 0;
}
