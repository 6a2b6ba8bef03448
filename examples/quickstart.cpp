/**
 * @file
 * Quickstart: the PolyMath stack end to end on one small program.
 *
 *  1. Write a PMLang component (matrix-vector product + bias).
 *  2. Compile it to an srDFG and print every granularity level.
 *  3. Execute it functionally with the reference interpreter.
 *  4. Optimize it with the standard pass pipeline.
 *  5. Lower + translate it for the data-analytics accelerator (TABLA)
 *     and simulate the result.
 */
#include <cstdio>

#include "interp/interpreter.h"
#include "passes/pass.h"
#include "soc/soc.h"
#include "srdfg/builder.h"
#include "srdfg/printer.h"
#include "workloads/suite.h"

using namespace polymath;

namespace {

const char *const kProgram = R"(
// y = A x + b, written the way the math reads (Section II).
affine(input float A[m][n], input float x[n], param float b[m],
       output float y[m]) {
    index i[0:n-1], j[0:m-1];
    y[j] = sum[i](A[j][i]*x[i]) + b[j];
}
main(input float A[4][3], input float x[3], param float b[4],
     output float y[4]) {
    DA: affine(A, x, b, y);
}
)";

} // namespace

int
main()
{
    // --- 2. Compile to the recursive IR -------------------------------
    auto graph = ir::compileToSrdfg(kProgram);
    std::printf("=== srDFG (all granularity levels) ===\n%s\n",
                ir::printGraph(*graph).c_str());
    std::printf("stats: %s\n\n", ir::graphStats(*graph).c_str());

    // --- 3. Execute functionally --------------------------------------
    Tensor a = Tensor::fromFlat(Shape{4, 3},
                                {1, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 1});
    Tensor x = Tensor::vec({10, 20, 30});
    Tensor b = Tensor::vec({1, 2, 3, 4});
    auto outputs = interp::evaluate(*graph, {{"A", a}, {"x", x}, {"b", b}});
    std::printf("y = %s  (expected 11, 22, 33, 64)\n\n",
                outputs.at("y").str().c_str());

    // --- 4. Optimize ----------------------------------------------------
    auto pipeline = pass::standardPipeline();
    for (const auto &result : pipeline.runToFixpoint(*graph)) {
        if (result.changed)
            std::printf("pass %-22s changed the graph\n",
                        result.name.c_str());
    }

    // --- 5. Lower, translate, and simulate on TABLA ---------------------
    const auto &registry = target::standardRegistry();
    const auto compiled = wl::compileBenchmark(kProgram, {}, registry,
                                               lang::Domain::DA);
    std::printf("\n=== accelerator program ===\n%s\n",
                compiled.str().c_str());

    soc::SocRuntime runtime;
    target::WorkloadProfile profile;
    profile.invocations = 1000;
    const auto result = runtime.execute(compiled, profile);
    std::printf("simulated on %s: %s\n",
                compiled.partitions.front().accel.c_str(),
                result.total.str().c_str());
    return 0;
}
