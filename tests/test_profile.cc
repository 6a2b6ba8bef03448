/**
 * @file
 * Performance-attribution tests: the cost-ledger sums-to-totals
 * invariant across all six backends (synthetic partitions and the full
 * Table III suite), ledger merging under PerfReport::operator+=,
 * profile rendering (table + schema-versioned JSON), locale-safe number
 * formatting, report statistics edge cases, and the bench-artifact
 * compare engine behind tools/bench_compare.
 */
#include <clocale>
#include <cmath>
#include <cstdio>
#include <limits>
#include <gtest/gtest.h>

#include "core/error.h"
#include "core/strings.h"
#include "report/artifact.h"
#include "report/report.h"
#include "soc/soc.h"
#include "targets/common/backend.h"
#include "targets/common/cost_ledger.h"
#include "workloads/suite.h"

namespace polymath {
namespace {

using lower::IrFragment;
using lower::Partition;
using lower::TensorArg;
using report::BenchArtifact;
using report::CompareOptions;
using report::compareArtifacts;
using report::MetricDiff;

/** Same synthetic partition shape test_targets.cc drives the cost
 *  models with: a dependency chain of @p frags fragments plus one
 *  streamed input tensor. */
Partition
syntheticPartition(const std::string &accel, int64_t frags,
                   int64_t flops_each)
{
    Partition p;
    p.accel = accel;
    for (int64_t i = 0; i < frags; ++i) {
        IrFragment f;
        f.opcode = "kernel" + std::to_string(i);
        f.flops = flops_each;
        TensorArg in;
        in.name = "t" + std::to_string(i);
        in.shape = Shape{8};
        TensorArg out;
        out.name = "t" + std::to_string(i + 1);
        out.shape = Shape{8};
        f.inputs.push_back(in);
        f.outputs.push_back(out);
        p.fragments.push_back(std::move(f));
    }
    TensorArg stream;
    stream.name = "x";
    stream.shape = Shape{512};
    stream.kind = ir::EdgeKind::Input;
    p.loads.push_back(stream);
    return p;
}

/** Asserts the ledger invariant directly (Backend::simulate already
 *  panics on violation; this pins the tolerance in a test too). */
void
expectSumsToTotals(const target::PerfReport &r)
{
    ASSERT_NE(r.ledger, nullptr) << r.machine;
    const auto sums = r.ledger->totals();
    auto near = [&](const char *what, double sum, double total) {
        const double scale =
            std::max({std::abs(sum), std::abs(total), 1.0});
        EXPECT_LE(std::abs(sum - total), 1e-9 * scale)
            << r.machine << " " << what;
    };
    near("seconds", sums.seconds, r.seconds);
    near("joules", sums.joules, r.joules);
    near("dramBytes", sums.dramBytes, static_cast<double>(r.dramBytes));
    near("flops", sums.flops, static_cast<double>(r.flops));
}

// --- Ledger invariant, per backend ------------------------------------------

class LedgerInvariant : public ::testing::TestWithParam<const char *>
{
};

TEST_P(LedgerInvariant, SumsToTotalsOnSyntheticPartition)
{
    const target::ProfilingScope profiling;
    const auto *b = target::findBackend(GetParam());
    ASSERT_NE(b, nullptr);
    target::WorkloadProfile prof;
    prof.invocations = 7;
    prof.vertices = 1000;
    prof.edges = 8000;
    const auto r =
        b->simulate(syntheticPartition(b->name(), 4, 50000), prof);
    expectSumsToTotals(r);
    EXPECT_FALSE(r.ledger->entries.empty());
    EXPECT_GT(r.ledger->peakFlops, 0.0);
}

TEST_P(LedgerInvariant, DisabledProfilingLeavesReportUntouched)
{
    const auto *b = target::findBackend(GetParam());
    ASSERT_NE(b, nullptr);
    target::WorkloadProfile prof;
    prof.vertices = 1000;
    prof.edges = 8000;
    const auto p = syntheticPartition(b->name(), 3, 20000);

    const auto plain = b->simulate(p, prof);
    EXPECT_EQ(plain.ledger, nullptr);

    target::PerfReport profiled;
    {
        const target::ProfilingScope profiling;
        profiled = b->simulate(p, prof);
    }
    ASSERT_NE(profiled.ledger, nullptr);
    // Attribution is observation, not perturbation: every number (and
    // therefore every rendered report line) is identical either way.
    EXPECT_EQ(plain.str(), profiled.str());
    EXPECT_EQ(plain.seconds, profiled.seconds);
    EXPECT_EQ(plain.joules, profiled.joules);
    EXPECT_EQ(plain.flops, profiled.flops);
    EXPECT_EQ(plain.dramBytes, profiled.dramBytes);
}

TEST_P(LedgerInvariant, AnalysisDecidesWhetherToLedger)
{
    // In pmcd a concurrent dse/profile request can switch profiling on
    // between analyze() and pricing. The analysis made with it off
    // carries no labels, so pricing it must not open a ledger at all.
    const auto *b = target::findBackend(GetParam());
    ASSERT_NE(b, nullptr);
    target::WorkloadProfile prof;
    prof.vertices = 1000;
    prof.edges = 8000;
    const auto p = syntheticPartition(b->name(), 3, 20000);

    const target::PartitionAnalysis unprofiled = b->analyze(p);
    EXPECT_FALSE(unprofiled.ledger);
    const target::ProfilingScope profiling;
    const auto late = b->simulate(p, unprofiled, prof);
    EXPECT_EQ(late.ledger, nullptr);

    // Analysed with profiling on: a ledger whose fragment entries carry
    // their "opcode(output)" labels.
    const auto profiled = b->simulate(p, b->analyze(p), prof);
    ASSERT_NE(profiled.ledger, nullptr);
    int fragments = 0;
    for (const auto &e : profiled.ledger->entries) {
        EXPECT_FALSE(e.label.empty());
        if (e.fragment < 0)
            continue;
        const auto &frag = p.fragments[static_cast<size_t>(e.fragment)];
        EXPECT_EQ(e.label,
                  frag.opcode + "(" + frag.outputs.front().name + ")");
        ++fragments;
    }
    EXPECT_GT(fragments, 0);
    EXPECT_EQ(late.str(), profiled.str());
}

INSTANTIATE_TEST_SUITE_P(AllBackends, LedgerInvariant,
                         ::testing::Values("RoboX", "TABLA", "DECO",
                                           "TVM-VTA", "HyperStreams",
                                           "Graphicionado"));

// --- Ledger invariant, whole Table III suite --------------------------------

TEST(LedgerSuite, TableIIIPartitionsAllSatisfyInvariant)
{
    const target::ProfilingScope profiling;
    const auto &registry = target::standardRegistry();
    soc::SocRuntime runtime;
    for (const auto &bench : wl::tableIII()) {
        const auto compiled = wl::compileBenchmark(
            bench.source, bench.buildOpts, registry, bench.domain);
        // Backend::simulate verifies every ledger internally and panics
        // on violation, so executing the suite is itself the property
        // test; the explicit checks pin the public-API view.
        const auto result = runtime.execute(compiled, bench.profile);
        size_t ledgers = 0;
        for (const auto &part : result.partitions) {
            if (!part.ledger)
                continue;
            ++ledgers;
            expectSumsToTotals(part);
        }
        EXPECT_GT(ledgers, 0u) << bench.id;
        // The end-to-end report carries the merged ledger.
        ASSERT_NE(result.total.ledger, nullptr) << bench.id;
        EXPECT_GE(result.total.ledger->partitionCount, 1) << bench.id;
    }
}

// --- Ledger merging ----------------------------------------------------------

TEST(LedgerMerge, OperatorPlusEqualsBuildsTaggedFreshLedger)
{
    const target::ProfilingScope profiling;
    const auto *tabla = target::findBackend("TABLA");
    const auto *robox = target::findBackend("RoboX");
    ASSERT_NE(tabla, nullptr);
    ASSERT_NE(robox, nullptr);
    target::WorkloadProfile prof;
    const auto a = tabla->simulate(syntheticPartition("TABLA", 2, 30000),
                                   prof);
    const auto b = robox->simulate(syntheticPartition("RoboX", 3, 10000),
                                   prof);

    target::PerfReport merged = a;
    const auto aliased = merged.ledger; // copy of `a` shares the ledger
    merged += b;
    // Aliased source ledgers stay untouched; the merge is a fresh object.
    EXPECT_NE(merged.ledger, aliased);
    EXPECT_EQ(aliased->partitionCount, 0);
    ASSERT_NE(merged.ledger, nullptr);
    EXPECT_EQ(merged.ledger->partitionCount, 2);
    EXPECT_EQ(merged.ledger->entries.size(),
              a.ledger->entries.size() + b.ledger->entries.size());
    for (size_t i = 0; i < merged.ledger->entries.size(); ++i) {
        const int expected = i < a.ledger->entries.size() ? 0 : 1;
        EXPECT_EQ(merged.ledger->entries[i].partition, expected) << i;
    }
    expectSumsToTotals(merged);
}

TEST(LedgerMerge, UtilizationIsTimeWeightedAndAssociative)
{
    target::PerfReport a;
    a.seconds = 1.0;
    a.joules = 2.0;
    a.utilization = 0.9;
    target::PerfReport b;
    b.seconds = 3.0;
    b.joules = 1.0;
    b.utilization = 0.1;
    target::PerfReport c;
    c.seconds = 0.5;
    c.joules = 0.25;
    c.utilization = 0.6;

    target::PerfReport left = a;
    left += b;
    left += c;

    target::PerfReport bc = b;
    bc += c;
    target::PerfReport right = a;
    right += bc;

    const double expected =
        (0.9 * 1.0 + 0.1 * 3.0 + 0.6 * 0.5) / (1.0 + 3.0 + 0.5);
    EXPECT_NEAR(left.utilization, expected, 1e-12);
    EXPECT_NEAR(right.utilization, expected, 1e-12);
    EXPECT_NEAR(left.utilization, right.utilization, 1e-12);
    EXPECT_NEAR(left.seconds, right.seconds, 1e-12);
    EXPECT_NEAR(left.joules, right.joules, 1e-12);
}

// --- Rendering ---------------------------------------------------------------

/** Hand-built two-entry profile with to_chars-exact values, for the
 *  golden JSON and the table renderer. */
target::PerfReport
handBuiltProfile()
{
    target::PerfReport r;
    r.machine = "TestAccel";
    r.seconds = 0.5;
    r.joules = 2.5;
    r.computeSeconds = 0.375;
    r.memorySeconds = 0.5;
    r.overheadSeconds = 0.125;
    r.flops = 1000;
    r.dramBytes = 4096;
    r.utilization = 0.25;
    auto ledger = std::make_shared<target::CostLedger>();
    ledger->machine = r.machine;
    ledger->peakFlops = 1e12;
    ledger->dramGBs = 100.0;
    auto &frag = ledger->add("mul(y)", target::CostPhase::Compute, 0);
    frag.bound = target::BoundClass::Compute;
    frag.seconds = 0.375;
    frag.joules = 1.875;
    frag.flops = 750.0;
    frag.touchedBytes = 64.0;
    auto &dma = ledger->add("dma:per-run streams", target::CostPhase::Dma);
    dma.bound = target::BoundClass::Memory;
    dma.seconds = 0.125;
    dma.joules = 0.625;
    dma.dramBytes = 4096.0;
    r.ledger = std::move(ledger);
    return r;
}

TEST(ProfileJson, GoldenBytes)
{
    const auto r = handBuiltProfile();
    EXPECT_EQ(
        target::profileJson(r),
        "{\"schema\":\"polymath-profile/1\",\"machine\":\"TestAccel\","
        "\"report\":{\"seconds\":0.5,\"joules\":2.5,"
        "\"computeSeconds\":0.375,\"memorySeconds\":0.5,"
        "\"overheadSeconds\":0.125,\"flops\":1000,\"dramBytes\":4096,"
        "\"utilization\":0.25},"
        "\"roofline\":{\"peakFlops\":1e+12,\"dramGBs\":100},"
        "\"entries\":["
        "{\"label\":\"mul(y)\",\"phase\":\"compute\",\"fragment\":0,"
        "\"bound\":\"compute\",\"seconds\":0.375,\"joules\":1.875,"
        "\"dramBytes\":0,\"flops\":750,\"touchedBytes\":64},"
        "{\"label\":\"dma:per-run streams\",\"phase\":\"dma\","
        "\"fragment\":-1,\"bound\":\"memory\",\"seconds\":0.125,"
        "\"joules\":0.625,\"dramBytes\":4096,\"flops\":0,"
        "\"touchedBytes\":0}]}");
}

TEST(ProfileTable, RanksByTimeAndMarksBounds)
{
    const auto r = handBuiltProfile();
    const auto table = target::profileTable(r, 10);
    EXPECT_NE(table.find("TestAccel profile (2 ledger entries, top 2)"),
              std::string::npos);
    // The fragment (75% of time) outranks the DMA entry (25%).
    EXPECT_LT(table.find("#0 mul(y)"), table.find("dma:per-run streams"));
    EXPECT_NE(table.find("75.0%"), std::string::npos);
    EXPECT_NE(table.find("25.0%"), std::string::npos);
    EXPECT_NE(table.find("compute"), std::string::npos);
    EXPECT_NE(table.find("memory"), std::string::npos);

    target::PerfReport bare;
    bare.machine = "X";
    EXPECT_EQ(target::profileTable(bare),
              "(no cost ledger: profiling was disabled)\n");
}

// --- Locale-safe formatting --------------------------------------------------

/** Pins the global C locale to a comma-decimal locale for one scope.
 *  Skips silently (pinned() == false) when none is installed. */
class CommaLocaleGuard
{
  public:
    CommaLocaleGuard()
    {
        const char *current = std::setlocale(LC_ALL, nullptr);
        saved_ = current ? current : "C";
        for (const char *name :
             {"de_DE.UTF-8", "de_DE.utf8", "de_DE", "fr_FR.UTF-8",
              "fr_FR.utf8", "fr_FR", "it_IT.UTF-8", "es_ES.UTF-8"}) {
            if (std::setlocale(LC_ALL, name)) {
                pinned_ = name;
                break;
            }
        }
    }
    ~CommaLocaleGuard() { std::setlocale(LC_ALL, saved_.c_str()); }

    const char *pinned() const { return pinned_; }

  private:
    std::string saved_;
    const char *pinned_ = nullptr;
};

TEST(LocaleSafety, FormatMatchesCLocalePrintfBytes)
{
    // Under the default C locale the to_chars path is specified to match
    // printf exactly; pin that equivalence on representative values.
    const double values[] = {0.0,    1.0,       1.5,     1234.5678,
                             0.0625, 6.02e23,   -3.25,   9.999e-7,
                             0.1,    123456789.0};
    for (double v : values) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.4g", v);
        EXPECT_EQ(formatG(v, 4), buf) << v;
        std::snprintf(buf, sizeof buf, "%.2f", v);
        EXPECT_EQ(formatF(v, 2), buf) << v;
    }
}

TEST(LocaleSafety, ReportsRenderDotDecimalsUnderCommaLocale)
{
    const CommaLocaleGuard guard;
    if (!guard.pinned())
        GTEST_SKIP() << "no comma-decimal locale installed";

    char probe[32];
    std::snprintf(probe, sizeof probe, "%.1f", 1.5);
    ASSERT_STREQ(probe, "1,5");

    EXPECT_EQ(formatF(1.5, 1), "1.5");
    EXPECT_EQ(formatG(1234.5678, 4), "1235");
    EXPECT_EQ(report::times(2.5), "2.5x");
    EXPECT_EQ(report::percent(0.125), "12.5%");

    // The rendered profile artifacts embed those helpers verbatim, so an
    // entire report line must stay comma-free too.
    const auto r = handBuiltProfile();
    EXPECT_EQ(r.str().find(','), std::string::npos);
    EXPECT_EQ(target::profileJson(r).find("0,"), std::string::npos);
}

// --- Statistics edge cases ---------------------------------------------------

TEST(ReportStats, GeomeanSkipsUnusableEntries)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_EQ(report::geomean({}), 0.0);
    const double zeros[] = {0.0, 0.0};
    EXPECT_EQ(report::geomean(zeros), 0.0);
    const double mixed[] = {4.0, 0.0, -2.0, inf, nan, 9.0};
    EXPECT_NEAR(report::geomean(mixed), 6.0, 1e-12); // sqrt(4 * 9)
    const double clean[] = {2.0, 8.0};
    EXPECT_NEAR(report::geomean(clean), 4.0, 1e-12);
}

TEST(ReportStats, ImprovementRatiosUseExplicitZeroConventions)
{
    target::PerfReport slow;
    slow.seconds = 2.0;
    slow.joules = 10.0;
    target::PerfReport fast;
    fast.seconds = 0.5;
    fast.joules = 2.0;
    target::PerfReport free; // zero-cost candidate

    EXPECT_NEAR(target::speedup(slow, fast), 4.0, 1e-12);
    EXPECT_NEAR(target::energyReduction(slow, fast), 5.0, 1e-12);
    EXPECT_TRUE(std::isinf(target::speedup(slow, free)));
    EXPECT_TRUE(std::isinf(target::energyReduction(slow, free)));
    EXPECT_TRUE(std::isinf(target::ppwImprovement(slow, free)));
    EXPECT_EQ(target::speedup(free, free), 1.0);
    EXPECT_EQ(target::energyReduction(free, free), 1.0);
    EXPECT_EQ(target::ppwImprovement(free, free), 1.0);
}

// --- Bench artifacts and the compare engine ----------------------------------

BenchArtifact
sampleArtifact()
{
    BenchArtifact a;
    a.name = "fig7_cpu_comparison";
    a.git = "v1.2-3-gabc";
    a.config = "Release";
    a.jobs = 4;
    a.add("MobileRobot", "speedup", 3.5);
    a.add("FFT-8192", "speedup", 12.25);
    a.add("geomean", "speedup", 6.5625);
    return a;
}

TEST(BenchArtifact, JsonRoundtripsWithSortedRows)
{
    auto a = sampleArtifact();
    // Insertion order is scrambled relative to the sorted output.
    a.metrics.insert(a.metrics.begin(), {"zzz", "seconds", 1.0});
    const auto parsed = BenchArtifact::fromJson(a.json());
    EXPECT_EQ(parsed.name, a.name);
    EXPECT_EQ(parsed.git, a.git);
    EXPECT_EQ(parsed.config, a.config);
    EXPECT_EQ(parsed.jobs, a.jobs);
    ASSERT_EQ(parsed.metrics.size(), 4u);
    EXPECT_EQ(parsed.metrics.front().benchmark, "FFT-8192");
    EXPECT_EQ(parsed.metrics.back().benchmark, "zzz");
    EXPECT_EQ(parsed.json(), a.json());
}

TEST(BenchArtifact, RejectsUnknownSchema)
{
    auto text = sampleArtifact().json();
    const auto pos = text.find("polymath-bench/1");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, std::string("polymath-bench/1").size(),
                 "polymath-bench/9");
    EXPECT_THROW(BenchArtifact::fromJson(text), UserError);
    EXPECT_THROW(BenchArtifact::fromJson("not json"), UserError);
}

TEST(BenchCompare, IdenticalArtifactsPass)
{
    const auto base = sampleArtifact();
    const auto result = compareArtifacts(base, base);
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(result.compared, 3);
    EXPECT_NE(result.summary().find("within tolerance"),
              std::string::npos);
}

TEST(BenchCompare, PerturbationBeyondToleranceRegresses)
{
    const auto base = sampleArtifact();
    auto current = base;
    current.metrics[0].value *= 1.01; // 1% drift vs 1e-9 default tol
    const auto result = compareArtifacts(base, current);
    EXPECT_FALSE(result.ok());
    int changed = 0;
    for (const auto &d : result.diffs) {
        if (d.status != MetricDiff::Status::Changed)
            continue;
        ++changed;
        EXPECT_EQ(d.benchmark, base.metrics[0].benchmark);
        EXPECT_NEAR(d.relError, 0.01, 1e-3);
        EXPECT_NE(d.str().find("CHANGED"), std::string::npos);
    }
    EXPECT_EQ(changed, 1);
}

TEST(BenchCompare, PerMetricToleranceAbsorbsExpectedJitter)
{
    const auto base = sampleArtifact();
    auto current = base;
    for (auto &m : current.metrics)
        m.value *= 1.01;
    CompareOptions opts;
    opts.metricTol["speedup"] = 0.05;
    EXPECT_TRUE(compareArtifacts(base, current, opts).ok());
    opts.metricTol["speedup"] = 0.001;
    EXPECT_FALSE(compareArtifacts(base, current, opts).ok());
}

TEST(BenchCompare, MissingRowsOnEitherSideFail)
{
    const auto base = sampleArtifact();
    auto fewer = base;
    fewer.metrics.pop_back();
    const auto lost = compareArtifacts(base, fewer);
    EXPECT_FALSE(lost.ok());
    bool saw_missing = false;
    for (const auto &d : lost.diffs)
        saw_missing |= d.status == MetricDiff::Status::MissingInCurrent;
    EXPECT_TRUE(saw_missing);

    auto extra = base;
    extra.add("new-bench", "speedup", 1.0);
    const auto grew = compareArtifacts(base, extra);
    EXPECT_FALSE(grew.ok());
    bool saw_extra = false;
    for (const auto &d : grew.diffs)
        saw_extra |= d.status == MetricDiff::Status::MissingInBaseline;
    EXPECT_TRUE(saw_extra);
}

TEST(BenchCompare, NonFiniteValuesCompareByIdentity)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    BenchArtifact base;
    base.name = "edge";
    base.add("a", "speedup", inf);
    base.add("b", "speedup", nan);

    EXPECT_TRUE(compareArtifacts(base, base).ok());
    // Round-tripping through JSON must preserve the semantics.
    EXPECT_TRUE(
        compareArtifacts(base, BenchArtifact::fromJson(base.json())).ok());

    auto finite = base;
    finite.metrics[0].value = 100.0;
    EXPECT_FALSE(compareArtifacts(base, finite).ok());
    auto negated = base;
    negated.metrics[0].value = -inf;
    EXPECT_FALSE(compareArtifacts(base, negated).ok());
    auto denanned = base;
    denanned.metrics[1].value = 0.0;
    EXPECT_FALSE(compareArtifacts(base, denanned).ok());
}

} // namespace
} // namespace polymath
