/**
 * @file
 * The finance case study (Table IV): logistic-regression sentiment over a
 * resident news-article matrix steers the volatility input of a
 * Black-Scholes pricing batch. Both kernels are Data Analytics, yet they
 * map to two different accelerators — logistic regression to TABLA,
 * Black-Scholes to the HyperStreams pipeline — demonstrating that
 * PolyMath's accelerator selection is finer than one-per-domain.
 *
 * A reduced instance runs functionally (checked against the closed-form
 * reference); the full Table IV configuration is then compiled and
 * simulated on the SoC.
 */
#include <cmath>
#include <cstdio>

#include "core/rng.h"
#include "interp/interpreter.h"
#include "soc/soc.h"
#include "srdfg/builder.h"
#include "workloads/datasets.h"
#include "workloads/reference.h"
#include "workloads/suite.h"

using namespace polymath;

namespace {

/** The Table IV program at a functional-test scale. */
const char *const kSmallApp = R"(
sentiment_infer(state float art[N][D], state float w[D],
                output float sent[N]) {
    index n[0:N-1], d[0:D-1];
    sent[n] = sigmoid(sum[d](w[d]*art[n][d]));
}
market_signal(input float sent[N], output float sig) {
    index n[0:N-1];
    sig = sum[n](sent[n]) / N;
}
black_scholes(input float s[M], input float strike[M], input float t[M],
              input float sig, param float rate, param float vol,
              output float price[M]) {
    index i[0:M-1];
    float va, d1[M], d2[M], nd1[M], nd2[M];
    va = vol*(1 + (sig - 1/2));
    d1[i] = (ln(s[i]/strike[i]) + (rate + va*va/2)*t[i]) / (va*sqrt(t[i]));
    d2[i] = d1[i] - va*sqrt(t[i]);
    nd1[i] = (1 + erf(d1[i]/sqrt(2)))/2;
    nd2[i] = (1 + erf(d2[i]/sqrt(2)))/2;
    price[i] = s[i]*nd1[i] - strike[i]*exp(-rate*t[i])*nd2[i];
}
main(state float art[16][64], state float w_sent[64],
     input float s[32], input float strike[32], input float t[32],
     param float rate, param float vol, output float price[32]) {
    float sent[16], sig;
    DA: sentiment_infer(art, w_sent, sent);
    DA: market_signal(sent, sig);
    DA: black_scholes(s, strike, t, sig, rate, vol, price);
}
)";

} // namespace

int
main()
{
    // --- functional run vs. the closed-form reference -------------------
    auto graph = ir::compileToSrdfg(kSmallApp);
    Rng rng(7);
    Tensor art(DType::Float, Shape{16, 64});
    Tensor w(DType::Float, Shape{64});
    for (int64_t i = 0; i < art.numel(); ++i)
        art.at(i) = rng.gaussian();
    for (int64_t i = 0; i < w.numel(); ++i)
        w.at(i) = rng.gaussian() * 0.1;
    auto options = wl::optionBatch(32, 11);

    auto out = interp::evaluate(
        *graph, {{"art", art},
                 {"w_sent", w},
                 {"s", options.spot},
                 {"strike", options.strike},
                 {"t", options.expiry},
                 {"rate", Tensor::scalar(0.03)},
                 {"vol", Tensor::scalar(0.2)}});

    // Reference: same sentiment -> adjusted vol -> closed form.
    double sig = 0.0;
    for (int64_t n = 0; n < 16; ++n) {
        double dot = 0.0;
        for (int64_t d = 0; d < 64; ++d)
            dot += w.at(d) * art.at({n, d});
        sig += 1.0 / (1.0 + std::exp(-dot));
    }
    sig /= 16.0;
    const double va = 0.2 * (1.0 + (sig - 0.5));
    const Tensor expected = wl::ref::blackScholes(
        options.spot, options.strike, options.expiry, 0.03, va);
    std::printf("max |price - reference| = %.3e over 32 options "
                "(market signal %.4f)\n",
                Tensor::maxAbsDiff(out.at("price"), expected), sig);

    // --- Table IV configuration on the SoC -------------------------------
    const auto &app = wl::tableIV().back(); // OptionPricing
    const auto &registry = target::standardRegistry();
    const auto compiled = wl::compileBenchmark(app.source, app.buildOpts,
                                               registry,
                                               lang::Domain::None);
    std::printf("\npartitions (note the two DA accelerators):\n");
    for (const auto &partition : compiled.partitions) {
        std::printf("  %-13s %zu fragments\n", partition.accel.c_str(),
                    partition.fragments.size());
    }

    soc::SocRuntime runtime;
    std::map<std::string, double> host_eff;
    for (const auto &kernel : app.kernels)
        host_eff[kernel.accel] = kernel.cpuEff;
    const auto cpu_only =
        runtime.execute(compiled, app.profile, {"<none>"}, host_eff);
    for (const auto &combo :
         {std::set<std::string>{"TABLA"},
          std::set<std::string>{"HyperStreams"},
          std::set<std::string>{"TABLA", "HyperStreams"}}) {
        const auto result =
            runtime.execute(compiled, app.profile, combo, host_eff);
        std::string label;
        for (const auto &name : combo)
            label += (label.empty() ? "" : "+") + name;
        std::printf("accelerating %-20s -> %.2fx runtime, %.2fx energy\n",
                    label.c_str(),
                    target::speedup(cpu_only.total, result.total),
                    target::energyReduction(cpu_only.total, result.total));
    }
    return 0;
}
