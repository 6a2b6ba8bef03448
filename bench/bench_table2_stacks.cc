/**
 * @file
 * Table II: computational-stack comparison. PolyMath's row is computed
 * live from the backend registry (which domains have a registered
 * accelerator and lower successfully); the literature rows restate the
 * paper's table for context.
 */
#include <cstdio>
#include <vector>

#include "driver.h"
#include "report/report.h"
#include "targets/common/backend.h"
#include "workloads/suite.h"

using namespace polymath;

int
main(int argc, char **argv)
{
    const bench::Driver driver(argc, argv);
    using lang::Domain;
    const std::vector<std::pair<std::string, Domain>> domains = {
        {"Robotics", Domain::RBT},        {"Graph Analytics", Domain::GA},
        {"DSP", Domain::DSP},             {"Data Analytics", Domain::DA},
        {"Deep Learning", Domain::DL},
    };

    // Literature rows (paper Table II).
    struct Row
    {
        const char *stack;
        bool support[5];
        const char *extra;
    };
    const Row rows[] = {
        {"General-Purpose CPU", {true, true, true, true, true},
         "plus Genomics, SAT"},
        {"Graphicionado", {false, true, false, false, false}, ""},
        {"Darwin", {false, false, false, false, false}, "Genomics only"},
        {"DNNWeaver", {false, false, false, false, true}, ""},
        {"TVM", {false, false, false, true, true}, ""},
        {"TABLA", {false, false, false, true, false}, ""},
        {"RoboX", {true, false, false, false, false}, ""},
        {"DeCO", {false, false, true, false, false}, ""},
        {"BCP Acc", {false, false, false, false, false}, "SAT only"},
    };

    report::Table table({"Stack", "RBT", "GA", "DSP", "DA", "DL", "Notes"});
    auto mark = [](bool b) { return std::string(b ? "yes" : "-"); };
    for (const auto &row : rows) {
        table.addRow({row.stack, mark(row.support[0]), mark(row.support[1]),
                      mark(row.support[2]), mark(row.support[3]),
                      mark(row.support[4]), row.extra});
    }

    // PolyMath's row: verified live — a domain counts as supported when a
    // backend is registered AND a representative Table III workload of
    // that domain compiles through lowering + translation for it.
    const auto &registry = target::standardRegistry();
    const auto marks = driver.map(
        static_cast<int64_t>(domains.size()), [&](int64_t i) {
            const auto dom = domains[static_cast<size_t>(i)].second;
            bool ok = registry.forDomain(dom) != nullptr;
            if (ok) {
                for (const auto &bench : wl::tableIII()) {
                    if (bench.domain != dom)
                        continue;
                    try {
                        wl::compileBenchmarkCached(
                            bench.source, bench.buildOpts, registry,
                            bench.domain, driver.cache());
                    } catch (const std::exception &) {
                        ok = false;
                    }
                    break;
                }
            }
            return ok;
        });
    std::vector<std::string> poly_row = {"PolyMath (this repo)"};
    for (const bool ok : marks)
        poly_row.push_back(ok ? "yes" : "-");
    poly_row.push_back("cross-domain multi-acceleration");
    table.addRow(std::move(poly_row));

    std::printf("Table II: comparison of computational stacks\n%s\n",
                table.str().c_str());
    return 0;
}
