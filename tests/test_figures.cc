/**
 * @file
 * Figure-level regression tests: the bench harness's headline numbers
 * must stay inside the paper-anchored bands recorded in EXPERIMENTS.md.
 * These protect the calibration (machine configs, per-benchmark library
 * efficiencies, backend models) from silent drift when the stack evolves.
 */
#include <gtest/gtest.h>

#include "report/report.h"
#include "soc/soc.h"
#include "targets/cpu/cpu_model.h"
#include "targets/gpu/gpu_model.h"
#include "workloads/python_corpus.h"
#include "workloads/suite.h"

namespace polymath {
namespace {

struct Fig78Data
{
    std::vector<double> cpuSpeedups;
    std::vector<double> cpuEnergy;
    std::vector<double> titanPpw;
    std::vector<double> jetsonRuntime;
    std::map<std::string, double> speedupById;
};

const Fig78Data &
figData()
{
    static const Fig78Data data = [] {
        Fig78Data d;
        const auto &registry = target::standardRegistry();
        const target::CpuModel cpu;
        const auto titan = target::GpuModel::titanXp();
        const auto jetson = target::GpuModel::jetson();
        soc::SocRuntime runtime;
        for (const auto &bench : wl::tableIII()) {
            const auto compiled = wl::compileBenchmark(
                bench.source, bench.buildOpts, registry, bench.domain);
            const auto accel = runtime.execute(compiled, bench.profile);
            const auto host = cpu.simulate(bench.cpuCost());
            const auto on_titan = titan.simulate(bench.cpuCost());
            const auto on_jetson = jetson.simulate(bench.cpuCost());
            d.cpuSpeedups.push_back(
                target::speedup(host, accel.total));
            d.cpuEnergy.push_back(
                target::energyReduction(host, accel.total));
            d.titanPpw.push_back(
                target::ppwImprovement(on_titan, accel.total));
            d.jetsonRuntime.push_back(
                target::speedup(on_jetson, accel.total));
            d.speedupById[bench.id] = d.cpuSpeedups.back();
        }
        return d;
    }();
    return data;
}

TEST(Fig7, RuntimeGeomeanInPaperBand)
{
    // Paper: 3.3x. Accept [2.5, 4.5].
    const double geo = report::geomean(figData().cpuSpeedups);
    EXPECT_GT(geo, 2.5);
    EXPECT_LT(geo, 4.5);
}

TEST(Fig7, EnergyGeomeanInPaperBand)
{
    // Paper: 18.1x; our nameplate-power models run hotter. Accept [12, 45].
    const double geo = report::geomean(figData().cpuEnergy);
    EXPECT_GT(geo, 12.0);
    EXPECT_LT(geo, 45.0);
}

TEST(Fig7, PerBenchmarkWinnersMatchThePaper)
{
    const auto &s = figData().speedupById;
    // Accelerator wins comfortably:
    EXPECT_GT(s.at("Hexacopter"), 5.0);
    EXPECT_GT(s.at("MovieL-20M"), 8.0);
    EXPECT_GT(s.at("FFT-16384"), 8.0);
    // Narrow wins:
    EXPECT_GT(s.at("MobileRobot"), 1.0);
    EXPECT_LT(s.at("MobileRobot"), 3.0);
    EXPECT_GT(s.at("DCT-1024"), 1.0);
    EXPECT_LT(s.at("DCT-1024"), 3.0);
    // The CPU wins deep learning runtime (VTA is a low-power part):
    EXPECT_LT(s.at("ResNet-18"), 1.0);
    EXPECT_LT(s.at("MobileNet"), 1.0);
}

TEST(Fig8, PerfPerWattBeatsTitanOnGeomean)
{
    // Paper: 7.2x PPW vs Titan Xp. Accept [3, 10].
    const double geo = report::geomean(figData().titanPpw);
    EXPECT_GT(geo, 3.0);
    EXPECT_LT(geo, 10.0);
}

TEST(Fig8, RuntimeRoughlyParityWithJetson)
{
    // Paper: 1.2x vs Jetson. Accept [0.7, 2.0].
    const double geo = report::geomean(figData().jetsonRuntime);
    EXPECT_GT(geo, 0.7);
    EXPECT_LT(geo, 2.0);
}

TEST(Fig9, AverageOptimalFractionNearPaper)
{
    const auto &registry = target::standardRegistry();
    std::vector<double> percents;
    for (const auto &bench : wl::tableIII()) {
        const auto compiled = wl::compileBenchmark(
            bench.source, bench.buildOpts, registry, bench.domain);
        const auto *backend = target::findBackend(bench.accel);
        const auto &partition = compiled.partitions.front();
        const auto poly = backend->simulate(partition, bench.profile);
        const auto opt = backend->simulate(
            wl::optimalPartition(bench, partition), bench.profile);
        const double poly_t = poly.computeSeconds + poly.overheadSeconds;
        const double opt_t = opt.computeSeconds + opt.overheadSeconds;
        percents.push_back(
            poly_t > 0 ? std::min(1.0, opt_t / poly_t) : 1.0);
    }
    // Paper: 83.9% average. Accept [0.72, 0.95].
    const double avg = report::mean(percents);
    EXPECT_GT(avg, 0.72);
    EXPECT_LT(avg, 0.95);
}

TEST(Fig10, CrossDomainBeatsBestSingleDomain)
{
    const auto &registry = target::standardRegistry();
    soc::SocRuntime runtime;
    for (const auto &app : wl::tableIV()) {
        const auto compiled = wl::compileBenchmark(
            app.source, app.buildOpts, registry, lang::Domain::None);
        std::map<std::string, double> host_eff;
        for (const auto &kernel : app.kernels)
            host_eff[kernel.accel] = kernel.cpuEff;
        const auto cpu = runtime.execute(compiled, app.profile, {"<none>"},
                                         host_eff);
        double best_single = 0.0;
        std::set<std::string> all;
        for (const auto &kernel : app.kernels) {
            const auto r = runtime.execute(compiled, app.profile,
                                           {kernel.accel}, host_eff);
            best_single = std::max(best_single,
                                   target::speedup(cpu.total, r.total));
            all.insert(kernel.accel);
        }
        const auto full =
            runtime.execute(compiled, app.profile, all, host_eff);
        const double gap =
            target::speedup(cpu.total, full.total) / best_single;
        // Paper: 1.85x / 2.06x. Accept [1.3, 3.0].
        EXPECT_GT(gap, 1.3) << app.id;
        EXPECT_LT(gap, 3.0) << app.id;
        // Communication overhead is a visible but minority share.
        EXPECT_GT(full.communicationFraction(), 0.01) << app.id;
        EXPECT_LT(full.communicationFraction(), 0.35) << app.id;
    }
}

TEST(Fig13, LocAndTimeReductionsFavorPmlang)
{
    std::vector<double> loc;
    std::vector<double> time;
    for (const auto &entry : wl::userStudyCorpus()) {
        loc.push_back(static_cast<double>(entry.pythonLoc()) /
                      static_cast<double>(entry.pmlangLoc()));
        time.push_back(entry.pythonMinutes() / entry.pmlangMinutes());
    }
    // Paper: 2.5x LOC / 1.9x time averages. Accept generous bands.
    EXPECT_GT(report::mean(loc), 1.8);
    EXPECT_LT(report::mean(loc), 3.5);
    EXPECT_GT(report::mean(time), 1.4);
    EXPECT_LT(report::mean(time), 2.8);
}

} // namespace
} // namespace polymath
