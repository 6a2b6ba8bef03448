/**
 * @file
 * Tables III and IV: the benchmark suite with measured PMLang LOC and
 * compiled srDFG statistics. The LOC column is counted from the programs
 * of record (this reproduction's FFT spells out per-stage instantiations,
 * so its LOC exceeds the paper's 12; see EXPERIMENTS.md).
 *
 * Runs through the parallel suite driver: `-jN` fans the per-workload
 * compilations across N workers (graphs additionally land in the shared
 * compile cache for later use), with output bit-identical to `-j1`.
 */
#include <cstdio>
#include <string>
#include <vector>

#include "driver.h"
#include "report/report.h"
#include "srdfg/printer.h"
#include "targets/common/backend.h"
#include "workloads/python_corpus.h"
#include "workloads/suite.h"

using namespace polymath;

int
main(int argc, char **argv)
{
    const bench::Driver driver(argc, argv);
    const auto &registry = target::standardRegistry();

    report::Table t3({"Benchmark", "Domain", "Algorithm", "Config",
                      "PMLang LOC", "srDFG"});
    const auto t3_rows = driver.mapTableIII(
        registry,
        [](const wl::Benchmark &bench, const lower::CompiledProgram &) {
            auto graph = wl::buildGraph(bench.source, bench.buildOpts);
            return std::vector<std::string>{
                bench.id, lang::toString(bench.domain), bench.algorithm,
                bench.config, std::to_string(wl::pmlangLoc(bench.source)),
                ir::graphStats(*graph)};
        });
    for (const auto &row : t3_rows)
        t3.addRow(row);
    std::printf("Table III: single-domain workloads\n%s\n",
                t3.str().c_str());

    report::Table t4({"Application", "Kernels", "PMLang LOC", "srDFG"});
    const auto t4_rows = driver.mapTableIV(
        registry,
        [](const wl::EndToEndApp &app, const lower::CompiledProgram &) {
            std::string kernels;
            for (const auto &k : app.kernels) {
                if (!kernels.empty())
                    kernels += ", ";
                kernels += k.label + " (" + lang::toString(k.domain) +
                           " on " + k.accel + ")";
            }
            auto graph = wl::buildGraph(app.source, app.buildOpts);
            return std::vector<std::string>{
                app.id, kernels,
                std::to_string(wl::pmlangLoc(app.source)),
                ir::graphStats(*graph)};
        });
    for (const auto &row : t4_rows)
        t4.addRow(row);
    std::printf("Table IV: end-to-end cross-domain applications\n%s\n",
                t4.str().c_str());
    return 0;
}
