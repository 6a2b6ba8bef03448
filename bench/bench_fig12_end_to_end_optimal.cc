/**
 * @file
 * Figure 12: percent of hand-tuned optimal performance for the end-to-end
 * applications, per kernel and per combination. The paper reports 76.7%
 * for BrainStimul, 76.9% for OptionPricing (76.8% average) — the
 * "automation overhead" of expressing the whole application in PMLang
 * instead of manually stitching native stacks.
 *
 * Apps compile through the suite driver's cache, and the per-partition
 * simulations fan out across the pool (-jN) with serial aggregation, so
 * the report is identical at every jobs count.
 */
#include <algorithm>
#include <cstdio>
#include <optional>
#include <vector>

#include "core/strings.h"
#include "driver.h"
#include "report/report.h"
#include "targets/common/backend.h"
#include "workloads/suite.h"

using namespace polymath;

namespace {

/** Hand-tuned view of one partition: no identity moves, fused kernels,
 *  no cross-stack glue (an expert stitches the native stacks directly). */
lower::Partition
expertPartition(const lower::Partition &compiled)
{
    lower::Partition out;
    out.domain = compiled.domain;
    out.accel = compiled.accel;
    out.loads = compiled.loads;
    out.stores = compiled.stores;
    int fused = 0;
    lower::IrFragment pending;
    for (const auto &frag : compiled.fragments) {
        if (frag.opcode == "tload" || frag.opcode == "tstore")
            continue;
        if (frag.attrs.count("move_elems"))
            continue; // experts do not materialize copies
        if (pending.opcode.empty()) {
            pending = frag;
            continue;
        }
        // Fuse pairs of adjacent kernels (native stacks fuse aggressively).
        pending.flops += frag.flops;
        for (const auto &in : frag.inputs)
            pending.inputs.push_back(in);
        pending.outputs = frag.outputs;
        out.fragments.push_back(pending);
        pending = lower::IrFragment{};
        ++fused;
    }
    if (!pending.opcode.empty())
        out.fragments.push_back(pending);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::Driver driver(argc, argv);
    const auto &registry = target::standardRegistry();

    struct Row
    {
        std::vector<std::string> cells;
        double pct;
    };
    std::vector<double> all_pcts;
    for (const auto &entry : driver.compileTableIV(registry)) {
        const auto &app = *entry.app;
        const auto &compiled = *entry.program;

        const auto rows = driver.map(
            static_cast<int64_t>(compiled.partitions.size()),
            [&](int64_t i) -> std::optional<Row> {
                const auto &partition =
                    compiled.partitions[static_cast<size_t>(i)];
                const auto *backend =
                    target::findBackend(partition.accel);
                if (!backend)
                    return std::nullopt;
                const auto poly = backend->simulate(partition, app.profile);
                const auto expert = backend->simulate(
                    expertPartition(partition), app.profile);
                // As in Fig. 9: both move the same data, so the expert edge
                // is in compute/scheduling structure plus per-kernel launch.
                const double poly_t =
                    poly.computeSeconds + poly.overheadSeconds;
                const double expert_t =
                    expert.computeSeconds + expert.overheadSeconds;
                if (poly_t <= 0)
                    return std::nullopt;
                const double pct = std::min(1.0, expert_t / poly_t);
                driver.record(app.id + "/" + partition.accel,
                              "pct_of_optimal", pct);
                return Row{{partition.accel,
                            formatG(poly_t * 1e6, 4),
                            formatG(expert_t * 1e6, 4),
                            report::percent(pct)},
                           pct};
            });

        report::Table table({"Kernel (partition)", "PolyMath compute (us)",
                             "Hand-tuned compute (us)", "% of optimal"});
        std::vector<double> pcts;
        for (const auto &row : rows) {
            if (!row)
                continue;
            pcts.push_back(row->pct);
            all_pcts.push_back(row->pct);
            table.addRow(row->cells);
        }
        driver.record(app.id, "avg_pct_of_optimal", report::mean(pcts));
        table.addRow({"Average (" + app.id + ")", "", "",
                      report::percent(report::mean(pcts))});
        std::printf("Figure 12 (%s)\n%s\n", app.id.c_str(),
                    table.str().c_str());
    }
    std::printf("Overall average: %s (paper: 76.8%%)\n",
                report::percent(report::mean(all_pcts)).c_str());
    return 0;
}
