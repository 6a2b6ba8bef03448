/**
 * @file
 * Ablation: effect of the srDFG optimization passes — in particular the
 * paper's algebraic-combination example (Section IV-B) — on compiled
 * program structure and simulated accelerator time. Not a paper figure;
 * it quantifies the design choice DESIGN.md calls out.
 */
#include <cstdio>
#include <vector>

#include "core/strings.h"
#include "driver.h"
#include "lower/lower.h"
#include "passes/pass.h"
#include "passes/passes.h"
#include "report/report.h"
#include "soc/soc.h"
#include "srdfg/builder.h"
#include "workloads/suite.h"

using namespace polymath;

namespace {

/** Compiles @p bench with a configurable pipeline. */
lower::CompiledProgram
compileWith(const wl::Benchmark &bench,
            const lower::AcceleratorRegistry &registry, bool combination,
            bool cse, bool elision = false)
{
    auto graph = ir::compileToSrdfg(bench.source, bench.buildOpts);
    pass::PassManager pm;
    pm.add(pass::createConstantFolding());
    pm.add(pass::createSimplify());
    if (cse)
        pm.add(pass::createCse());
    if (combination)
        pm.add(pass::createAlgebraicCombination());
    pm.add(pass::createDeadNodeElimination());
    pm.runToFixpoint(*graph);
    lower::lowerGraph(*graph, registry.supportedOpsByDomain(),
                      bench.domain);
    if (elision) {
        // Post-lowering cleanup: once components are spliced, the moves
        // and their consumers share a level and gathers compose away.
        pass::PassManager post;
        post.add(pass::createIdentityElision());
        post.add(pass::createDeadNodeElimination());
        post.runToFixpoint(*graph);
    }
    return lower::compileProgram(*graph, registry, bench.domain);
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::Driver driver(argc, argv);
    const auto &registry = target::standardRegistry();
    soc::SocRuntime runtime;

    report::Table table({"Benchmark", "Config", "Fragments", "Group ops",
                         "Accel time (ms)", "vs full pipeline"});

    const std::vector<std::string> subjects = {"MobileRobot", "Hexacopter",
                                               "FFT-8192"};
    for (const auto &id : subjects) {
        const auto &bench = wl::benchmarkById(id);
        struct Config
        {
            const char *label;
            bool combination;
            bool cse;
            bool elision;
        };
        const Config configs[] = {
            {"full pipeline", true, true, false},
            {"no algebraic-combination", false, true, false},
            {"no CSE", true, false, false},
            {"no passes", false, false, false},
            {"+ identity-elision (expert moves)", true, true, true},
        };
        double full_time = 0.0;
        for (const auto &config : configs) {
            const auto compiled = compileWith(bench, registry,
                                              config.combination,
                                              config.cse, config.elision);
            const auto result = runtime.execute(compiled, bench.profile);
            int64_t frags = 0;
            int64_t groups = 0;
            for (const auto &partition : compiled.partitions) {
                for (const auto &frag : partition.fragments) {
                    if (frag.isTransfer())
                        continue;
                    ++frags;
                    if (frag.attrs.reduceExtent)
                        ++groups;
                }
            }
            if (full_time == 0.0)
                full_time = result.total.seconds;
            driver.record(bench.id + "/" + config.label, "seconds",
                          result.total.seconds);
            table.addRow({bench.id, config.label, std::to_string(frags),
                          std::to_string(groups),
                          formatG(result.total.seconds * 1e3, 4),
                          formatF(result.total.seconds / full_time, 2) +
                              "x"});
        }
    }
    std::printf("Pass ablation (fragments/group ops after translation, "
                "simulated accelerator time)\n%s\n",
                table.str().c_str());
    return 0;
}
