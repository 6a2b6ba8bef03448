/**
 * @file
 * Fig. 3/4 of the paper: MPC trajectory tracking for a two-wheeled robot.
 * Runs the Fig. 4 PMLang program in a closed loop against a simple unicycle
 * plant model, checks every step against the native reference, and shows
 * the srDFG's recursive granularity plus the RoboX compilation.
 */
#include <cmath>
#include <cstdio>

#include "core/rng.h"
#include "interp/interpreter.h"
#include "srdfg/builder.h"
#include "srdfg/expand.h"
#include "srdfg/printer.h"
#include "srdfg/traversal.h"
#include "workloads/reference.h"
#include "workloads/suite.h"

using namespace polymath;

int
main()
{
    const auto &bench = wl::benchmarkById("MobileRobot");
    auto graph = wl::buildGraph(bench.source, bench.buildOpts);

    std::printf("=== srDFG recursion ===\n");
    std::printf("depth %d; top level:\n", ir::recursionDepth(*graph));
    ir::PrintOptions opts;
    opts.maxDepth = 1;
    std::printf("%s\n", ir::printGraph(*graph, opts).c_str());

    // Demonstrate simultaneous granularity access: expand one reduce node
    // of the innermost mvmul into its scalar-level srDFG (Fig. 5 (5)).
    ir::forEachNodeRecursive(
        static_cast<const ir::Graph &>(*graph),
        [&](const ir::Graph &level, const ir::Node &node) {
            static bool shown = false;
            if (shown || node.kind != ir::NodeKind::Reduce)
                return;
            shown = true;
            auto scalar = ir::materializeScalar(level, node);
            std::printf("one '%s' group node expands into %lld scalar "
                        "nodes at the finest granularity\n\n",
                        node.op.str().c_str(),
                        static_cast<long long>(scalar->liveNodeCount()));
        });

    // --- closed-loop tracking vs. the native reference -------------------
    Rng rng(3);
    auto random_matrix = [&](Shape shape, double scale) {
        Tensor t(DType::Float, shape);
        for (int64_t i = 0; i < t.numel(); ++i)
            t.at(i) = rng.gaussian() * scale;
        return t;
    };
    const Tensor p = random_matrix(Shape{30, 3}, 0.2);
    const Tensor h = random_matrix(Shape{30, 20}, 0.1);
    const Tensor hq = random_matrix(Shape{20, 30}, 0.05);
    const Tensor rg = random_matrix(Shape{20, 20}, 0.05);
    Tensor pos_ref(DType::Float, Shape{30});
    for (int64_t i = 0; i < 30; ++i)
        pos_ref.at(i) = std::sin(0.2 * static_cast<double>(i));

    interp::Interpreter mpc(*graph);
    mpc.setInput("P", p);
    mpc.setInput("H", h);
    mpc.setInput("HQ_g", hq);
    mpc.setInput("R_g", rg);
    mpc.setInput("pos_ref", pos_ref);
    mpc.setInput("ctrl_mdl", Tensor(DType::Float, Shape{20}));

    Tensor ref_ctrl(DType::Float, Shape{20});
    double x = 0.0, y = 0.0, theta = 0.1;
    double worst = 0.0;
    for (int step = 0; step < 20; ++step) {
        Tensor pos = Tensor::vec({x, y, theta});
        mpc.setInput("pos", pos);
        mpc.run();
        const Tensor &sgnl = mpc.output("ctrl_sgnl");

        const auto expect =
            wl::ref::mpcStep(pos, ref_ctrl, pos_ref, p, hq, h, rg, 10);
        worst = std::max(worst,
                         Tensor::maxAbsDiff(sgnl, expect.ctrlSgnl));
        ref_ctrl = expect.ctrlMdl;

        // Unicycle plant: v = sgnl[0], omega = sgnl[1].
        const double v = sgnl.at(int64_t{0});
        const double omega = sgnl.at(int64_t{1});
        x += 0.1 * v * std::cos(theta);
        y += 0.1 * v * std::sin(theta);
        theta += 0.1 * omega;
        if (step % 5 == 0) {
            std::printf("step %2d: pos=(%.3f, %.3f, %.3f) ctrl=(%.3f, "
                        "%.3f)\n",
                        step, x, y, theta, v, omega);
        }
    }
    std::printf("max |PMLang - reference| over 20 steps: %.3e\n\n", worst);

    // --- RoboX compilation ----------------------------------------------
    const auto &registry = target::standardRegistry();
    const auto compiled = wl::compileBenchmark(bench.source, bench.buildOpts,
                                               registry, bench.domain);
    std::printf("RoboX macro-DFG (%zu fragments):\n",
                compiled.partitions.front().fragments.size());
    int shown = 0;
    for (const auto &frag : compiled.partitions.front().fragments) {
        if (shown++ == 8) {
            std::printf("  ...\n");
            break;
        }
        std::printf("  %s\n", frag.str().c_str());
    }
    return 0;
}
