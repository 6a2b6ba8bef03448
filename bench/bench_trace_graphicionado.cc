/**
 * @file
 * Cross-check: the analytic Graphicionado cost model (used by Figs. 7/8)
 * against the trace-driven pipeline simulator streaming the actual R-MAT
 * edge lists. Reports cycles, bank-conflict rates (R-MAT hubs serialize
 * atomic updates), scratchpad residency, and the analytic/trace ratio.
 * Not a paper figure; it validates the substitution of DESIGN.md §1.
 */
#include <cstdio>
#include <string>
#include <vector>

#include "core/strings.h"
#include "driver.h"
#include "report/report.h"
#include "targets/common/backend.h"
#include "targets/graphicionado/pipeline_sim.h"
#include "workloads/datasets.h"
#include "workloads/suite.h"

using namespace polymath;

int
main(int argc, char **argv)
{
    const bench::Driver driver(argc, argv);
    const auto &registry = target::standardRegistry();
    const auto *gcn = target::findBackend("Graphicionado");

    const std::vector<const char *> ids = {"Twitter-BFS", "Wiki-BFS",
                                           "LiveJourn-SSP"};
    const auto rows = driver.map(
        static_cast<int64_t>(ids.size()), [&](int64_t i) {
            const auto &bench =
                wl::benchmarkById(ids[static_cast<size_t>(i)]);
            const auto compiled = wl::compileBenchmarkCached(
                bench.source, bench.buildOpts, registry, bench.domain,
                driver.cache());
            const auto analytic =
                gcn->simulate(compiled->partitions.front(), bench.profile);

            // Generate the actual dataset this benchmark stands for.
            const auto graph = wl::rmatGraph(bench.profile.vertices,
                                             bench.profile.edges, 1234);
            auto config =
                target::TraceConfig::fromMachine(gcn->machine());
            // Per-edge/per-vertex op counts from the compiled vertex
            // program (mirrors the analytic model's derivation).
            config.opsPerEdge = 4.0;
            config.opsPerVertex = 2.0;
            const auto trace = target::simulateEdgeStream(
                graph.edgeList, graph.vertices, bench.profile.invocations,
                config);
            const auto traced = trace.toReport(config);

            driver.record(bench.id, "analytic_seconds",
                          analytic.seconds);
            driver.record(bench.id, "traced_seconds", traced.seconds);
            driver.record(bench.id, "trace_ratio",
                          traced.seconds / analytic.seconds);
            return std::vector<std::string>{
                bench.id,
                format("%lld", static_cast<long long>(graph.edges())),
                formatF(analytic.seconds * 1e3, 3),
                formatF(traced.seconds * 1e3, 3),
                formatF(traced.seconds / analytic.seconds, 2) + "x",
                formatF(static_cast<double>(trace.bankConflicts) /
                            static_cast<double>(trace.edgesProcessed),
                        3),
                trace.scratchpadResident ? "yes" : "no"};
        });

    report::Table table({"Benchmark", "Edges", "Analytic (ms)",
                         "Trace (ms)", "Ratio", "Conflicts/edge",
                         "Resident"});
    for (const auto &row : rows)
        table.addRow(row);
    std::printf("Trace-driven Graphicionado vs analytic model\n"
                "(validates the cost model behind Figs. 7/8; ratios near "
                "1x mean the analytic model is faithful)\n\n%s\n",
                table.str().c_str());
    return 0;
}
