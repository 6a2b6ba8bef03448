/**
 * @file
 * Integration tests over the Table III/IV suite: every benchmark must
 * pass the whole stack (parse -> sema -> srDFG -> passes -> Algorithm 1 ->
 * Algorithm 2) for its accelerator; report helpers and the user-study
 * corpus are checked here too.
 */
#include <cmath>
#include <gtest/gtest.h>

#include "report/report.h"
#include "targets/common/backend.h"
#include "workloads/python_corpus.h"
#include "workloads/suite.h"

namespace polymath {
namespace {

class SuiteCompilation
    : public ::testing::TestWithParam<const wl::Benchmark *>
{
};

TEST_P(SuiteCompilation, CompilesThroughWholeStack)
{
    const auto &bench = *GetParam();
    const auto &registry = target::standardRegistry();
    const auto compiled = wl::compileBenchmark(
        bench.source, bench.buildOpts, registry, bench.domain);
    ASSERT_FALSE(compiled.partitions.empty()) << bench.id;
    // Single-domain workloads land in one partition on their Table V
    // accelerator.
    EXPECT_EQ(compiled.partitions.size(), 1u) << bench.id;
    EXPECT_EQ(compiled.partitions.front().accel, bench.accel) << bench.id;
    EXPECT_GT(compiled.partitions.front().flops(), 0) << bench.id;
}

TEST_P(SuiteCompilation, SimulationsProducePositiveFiniteNumbers)
{
    const auto &bench = *GetParam();
    const auto &registry = target::standardRegistry();
    const auto compiled = wl::compileBenchmark(
        bench.source, bench.buildOpts, registry, bench.domain);
    const auto *backend = target::findBackend(bench.accel);
    ASSERT_NE(backend, nullptr);
    const auto r =
        backend->simulate(compiled.partitions.front(), bench.profile);
    EXPECT_GT(r.seconds, 0.0) << bench.id;
    EXPECT_GT(r.joules, 0.0) << bench.id;
    EXPECT_TRUE(std::isfinite(r.seconds)) << bench.id;
}

TEST_P(SuiteCompilation, HandTunedNeverSlowerThanPolyMathCompute)
{
    const auto &bench = *GetParam();
    const auto &registry = target::standardRegistry();
    const auto compiled = wl::compileBenchmark(
        bench.source, bench.buildOpts, registry, bench.domain);
    const auto *backend = target::findBackend(bench.accel);
    const auto &partition = compiled.partitions.front();
    const auto poly = backend->simulate(partition, bench.profile);
    const auto opt = backend->simulate(
        wl::optimalPartition(bench, partition), bench.profile);
    EXPECT_LE(opt.computeSeconds + opt.overheadSeconds,
              (poly.computeSeconds + poly.overheadSeconds) * 1.02)
        << bench.id;
}

std::vector<const wl::Benchmark *>
allBenchmarks()
{
    std::vector<const wl::Benchmark *> out;
    for (const auto &b : wl::tableIII())
        out.push_back(&b);
    return out;
}

INSTANTIATE_TEST_SUITE_P(
    TableIII, SuiteCompilation, ::testing::ValuesIn(allBenchmarks()),
    [](const ::testing::TestParamInfo<const wl::Benchmark *> &info) {
        std::string name = info.param->id;
        for (auto &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

TEST(Suite, TableIiiHasFifteenEntriesAcrossFiveDomains)
{
    const auto &table = wl::tableIII();
    EXPECT_EQ(table.size(), 15u);
    std::set<lang::Domain> domains;
    for (const auto &b : table)
        domains.insert(b.domain);
    EXPECT_EQ(domains.size(), 5u);
}

TEST(Suite, LookupByIdWorksAndThrowsOnUnknown)
{
    EXPECT_EQ(wl::benchmarkById("FFT-8192").accel, "DECO");
    EXPECT_THROW(wl::benchmarkById("nope"), UserError);
}

TEST(Suite, EndToEndAppsCompileAcrossAccelerators)
{
    const auto &registry = target::standardRegistry();
    for (const auto &app : wl::tableIV()) {
        const auto compiled = wl::compileBenchmark(
            app.source, app.buildOpts, registry, lang::Domain::None);
        std::set<std::string> accels;
        for (const auto &p : compiled.partitions)
            accels.insert(p.accel);
        EXPECT_EQ(accels.size(), app.kernels.size()) << app.id;
        for (const auto &kernel : app.kernels)
            EXPECT_TRUE(accels.count(kernel.accel))
                << app.id << "/" << kernel.label;
    }
}

TEST(Suite, EveryProgramHasPositiveLoc)
{
    for (const auto &b : wl::tableIII())
        EXPECT_GT(wl::pmlangLoc(b.source), 5) << b.id;
    for (const auto &app : wl::tableIV())
        EXPECT_GT(wl::pmlangLoc(app.source), 10) << app.id;
}

TEST(UserStudy, CorpusRatiosFavorPmlang)
{
    for (const auto &entry : wl::userStudyCorpus()) {
        EXPECT_GT(entry.pythonLoc(), entry.pmlangLoc())
            << entry.algorithm;
        EXPECT_GT(entry.pythonMinutes() / entry.pmlangMinutes(), 1.0)
            << entry.algorithm;
    }
}

// --- report helpers -----------------------------------------------------------

TEST(Report, GeomeanAndMean)
{
    const double values[] = {1.0, 4.0, 16.0};
    EXPECT_DOUBLE_EQ(report::geomean(values), 4.0);
    EXPECT_DOUBLE_EQ(report::mean(values), 7.0);
    const double with_zero[] = {0.0, 4.0};
    EXPECT_DOUBLE_EQ(report::geomean(with_zero), 4.0); // zeros skipped
    EXPECT_DOUBLE_EQ(report::geomean({}), 0.0);
}

TEST(Report, Formatting)
{
    EXPECT_EQ(report::times(3.28), "3.3x");
    EXPECT_EQ(report::percent(0.839), "83.9%");
}

TEST(Report, TableAlignsColumns)
{
    report::Table t({"A", "LongHeader"});
    t.addRow({"row", "x"});
    const auto text = t.str();
    EXPECT_NE(text.find("A    LongHeader"), std::string::npos);
    EXPECT_NE(text.find("---"), std::string::npos);
    EXPECT_THROW(t.addRow({"only-one"}), InternalError);
}

} // namespace
} // namespace polymath
