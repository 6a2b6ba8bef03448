/**
 * @file
 * The paper's running example (Section II): a closed-loop deep-brain
 * stimulation application crossing three domains — ECoG signals are
 * transformed to the frequency domain (DSP), classified into biomarkers
 * (Data Analytics), and fed to model-predictive control that drives the
 * optical stimulation (Robotics/Control).
 *
 * This example runs the whole application functionally for several
 * closed-loop steps with the reference interpreter, then compiles it for
 * the DECO + TABLA + RoboX SoC and reports the multi-acceleration
 * schedule and simulated performance per accelerated-domain combination.
 */
#include <cstdio>

#include "core/rng.h"
#include "interp/interpreter.h"
#include "soc/soc.h"
#include "srdfg/builder.h"
#include "workloads/datasets.h"
#include "workloads/suite.h"

using namespace polymath;

int
main()
{
    const auto &app = wl::tableIV().front(); // BrainStimul

    // --- functional closed loop ---------------------------------------
    auto graph = wl::buildGraph(app.source, app.buildOpts);
    interp::Interpreter loop(*graph);

    Rng rng(42);
    // Classifier weights: positive bias on the low-frequency bins where
    // the synthetic pathological rhythm lives.
    Tensor w_cls(DType::Float, Shape{4096});
    for (int64_t i = 0; i < 64; ++i)
        w_cls.at(i) = 1e-7;
    loop.setInput("w_cls", w_cls);
    loop.setInput("tw", wl::twiddleTable(4096));
    loop.setInput("ctrl_mdl", Tensor(DType::Float, Shape{80}));

    Tensor pos_ref(DType::Float, Shape{120});
    for (int64_t i = 0; i < 120; ++i)
        pos_ref.at(i) = 0.5;
    loop.setInput("pos_ref", pos_ref);
    auto random_matrix = [&](Shape shape, double scale) {
        Tensor t(DType::Float, shape);
        for (int64_t i = 0; i < t.numel(); ++i)
            t.at(i) = rng.gaussian() * scale;
        return t;
    };
    loop.setInput("P", random_matrix(Shape{120, 3}, 0.1));
    loop.setInput("H", random_matrix(Shape{120, 80}, 0.05));
    loop.setInput("HQ_g", random_matrix(Shape{80, 120}, 0.02));
    loop.setInput("R_g", random_matrix(Shape{80, 80}, 0.02));

    std::printf("closed-loop stimulation (functional, 5 steps):\n");
    for (int step = 0; step < 5; ++step) {
        loop.setInput("ecog", wl::complexSignal(
                                  4096, 100 + static_cast<uint64_t>(step)));
        Tensor pos = Tensor::vec({0.1 * step, -0.05 * step, 0.01});
        loop.setInput("pos", pos);
        loop.run();
        std::printf("  step %d: biomarker=%.4f  stim=(%.4f, %.4f)\n", step,
                    loop.output("biomarker").scalarValue(),
                    loop.output("stim_sgnl").at(int64_t{0}),
                    loop.output("stim_sgnl").at(int64_t{1}));
    }

    // --- cross-domain multi-acceleration --------------------------------
    const auto &registry = target::standardRegistry();
    const auto compiled = wl::compileBenchmark(app.source, app.buildOpts,
                                               registry,
                                               lang::Domain::None);
    std::printf("\nmulti-accelerator schedule:\n%s\n",
                compiled.str().c_str());

    soc::SocRuntime runtime;
    std::map<std::string, double> host_eff;
    for (const auto &kernel : app.kernels)
        host_eff[kernel.accel] = kernel.cpuEff;
    const auto cpu_only =
        runtime.execute(compiled, app.profile, {"<none>"}, host_eff);
    const auto all = runtime.execute(compiled, app.profile, {}, host_eff);
    std::printf("CPU only : %s\n", cpu_only.total.str().c_str());
    std::printf("all accel: %s\n", all.total.str().c_str());
    std::printf("end-to-end speedup %.2fx, energy reduction %.2fx, "
                "communication %.1f%% of runtime\n",
                target::speedup(cpu_only.total, all.total),
                target::energyReduction(cpu_only.total, all.total),
                all.communicationFraction() * 100.0);
    return 0;
}
