/**
 * @file
 * SoC runtime tests: partition offload selection, host fallback with
 * per-kernel efficiencies, DMA/host accounting, glue residual, and the
 * Amdahl behavior the Fig. 10 sweeps rely on.
 */
#include <gtest/gtest.h>

#include "soc/soc.h"
#include "workloads/suite.h"

namespace polymath {
namespace {

using soc::SocRuntime;

class SocFixture : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        const auto &app = wl::tableIV().front(); // BrainStimul
        registry_ = target::standardRegistry();
        compiled_ = wl::compileBenchmark(app.source, app.buildOpts,
                                         registry_, lang::Domain::None);
        profile_ = app.profile;
        for (const auto &kernel : app.kernels)
            hostEff_[kernel.accel] = kernel.cpuEff;
    }

    lower::AcceleratorRegistry registry_;
    lower::CompiledProgram compiled_;
    target::WorkloadProfile profile_;
    std::map<std::string, double> hostEff_;
    SocRuntime runtime_;
};

TEST_F(SocFixture, AllAcceleratedBeatsCpuOnly)
{
    const auto cpu =
        runtime_.execute(compiled_, profile_, {"<none>"}, hostEff_);
    const auto accel = runtime_.execute(compiled_, profile_, {}, hostEff_);
    EXPECT_GT(cpu.total.seconds, accel.total.seconds);
    EXPECT_GT(cpu.total.joules, accel.total.joules);
}

TEST_F(SocFixture, PartialAccelerationIsBetweenExtremes)
{
    const auto cpu =
        runtime_.execute(compiled_, profile_, {"<none>"}, hostEff_);
    const auto all = runtime_.execute(compiled_, profile_, {}, hostEff_);
    const auto fft_only =
        runtime_.execute(compiled_, profile_, {"DECO"}, hostEff_);
    EXPECT_LE(fft_only.total.seconds, cpu.total.seconds * 1.001);
    EXPECT_GE(fft_only.total.seconds, all.total.seconds * 0.999);
}

TEST_F(SocFixture, AmdahlMonotonicInAcceleratedSet)
{
    const std::set<std::string> sets[] = {
        {"DECO"}, {"DECO", "TABLA"}, {"DECO", "TABLA", "RoboX"}};
    double prev = 1e18;
    for (const auto &s : sets) {
        const auto r = runtime_.execute(compiled_, profile_, s, hostEff_);
        EXPECT_LE(r.total.seconds, prev * 1.001);
        prev = r.total.seconds;
    }
}

TEST_F(SocFixture, TransfersOnlyChargedWhenOffloaded)
{
    const auto cpu =
        runtime_.execute(compiled_, profile_, {"<none>"}, hostEff_);
    EXPECT_EQ(cpu.transferSeconds, 0.0);
    const auto all = runtime_.execute(compiled_, profile_, {}, hostEff_);
    EXPECT_GT(all.transferSeconds, 0.0);
    EXPECT_GT(all.communicationFraction(), 0.0);
    EXPECT_LT(all.communicationFraction(), 0.5);
}

TEST_F(SocFixture, GlueResidualBoundsSpeedup)
{
    // With glue, even infinite acceleration cannot beat the glue floor.
    const auto cpu =
        runtime_.execute(compiled_, profile_, {"<none>"}, hostEff_);
    const auto all = runtime_.execute(compiled_, profile_, {}, hostEff_);
    const double glue = profile_.hostGlueSeconds *
                        static_cast<double>(profile_.invocations);
    EXPECT_GT(glue, 0.0);
    EXPECT_GE(all.total.seconds, glue);
    EXPECT_LT(cpu.total.seconds / all.total.seconds,
              cpu.total.seconds / glue);
}

TEST_F(SocFixture, PerPartitionReportsSumBelowTotal)
{
    const auto all = runtime_.execute(compiled_, profile_, {}, hostEff_);
    ASSERT_EQ(all.partitions.size(), compiled_.partitions.size());
    double sum = 0.0;
    for (const auto &p : all.partitions)
        sum += p.seconds;
    EXPECT_LE(sum, all.total.seconds + 1e-12);
}

TEST(Soc, HostEfficiencyHintChangesFallbackTime)
{
    const auto &registry = target::standardRegistry();
    const auto compiled = wl::compileBenchmark(
        "main(input float x[1024], output float y) {"
        " index i[0:1023]; y = sum[i](x[i]*x[i]); }",
        {}, registry, lang::Domain::DA);
    SocRuntime runtime;
    target::WorkloadProfile profile;
    profile.invocations = 1000;
    const auto fast = runtime.execute(compiled, profile, {"<none>"},
                                      {{"TABLA", 0.2}});
    const auto slow = runtime.execute(compiled, profile, {"<none>"},
                                      {{"TABLA", 0.002}});
    // The efficient library is memory-bound (roofline), so the gap is
    // smaller than the 100x efficiency ratio but still an order apart.
    EXPECT_GT(slow.total.seconds, fast.total.seconds * 5);
}

TEST(Soc, StateTensorsPlacedOnceNotPerInvocation)
{
    const auto &registry = target::standardRegistry();
    const auto compiled = wl::compileBenchmark(
        "main(state float big[100000], input float x, output float y) {"
        " index i[0:99999];"
        " y = x + big[0];"
        " big[i] = big[i]*1; }",
        {}, registry, lang::Domain::DA);
    SocRuntime runtime;
    target::WorkloadProfile one;
    target::WorkloadProfile thousand;
    thousand.invocations = 1000;
    const auto r1 = runtime.execute(compiled, one);
    const auto r1000 = runtime.execute(compiled, thousand);
    // DRAM traffic must not scale with invocations: `state` data stays
    // on-chip (400 KB placed once; per-run bytes are a few scalars).
    EXPECT_LT(static_cast<double>(r1000.total.dramBytes),
              static_cast<double>(r1.total.dramBytes) * 20.0);
}

} // namespace
} // namespace polymath
