/**
 * @file
 * Autotuner tests: Table VI factory pins (the calibration surface the
 * design spaces pivot around), Pareto-front correctness on hand-built
 * points and against the pairwise reference, config-space
 * indexing/neighborhoods, degenerate-config rejection, seeded search
 * determinism (two concurrent searches with one seed agree point for
 * point, as concurrent pmcd `dse` requests must), staged pricing (one
 * analysis per partition, priced per point) equal to one-shot
 * simulation, cost-model monotonicity in every machine axis, a
 * bit-for-bit pin of every full-space pricing, lazy
 * attribution (only the printed points are priced with cost ledgers)
 * printing exactly what ledgering every point printed, and the random
 * driver's partial ranking searching exactly what a full sort searched.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <limits>
#include <random>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/error.h"
#include "core/rng.h"
#include "dse/config_space.h"
#include "dse/dse.h"
#include "dse/pareto.h"
#include "lower/accel_spec.h"
#include "lower/compile.h"
#include "targets/common/backend.h"
#include "targets/common/cost_ledger.h"
#include "targets/common/machine_config.h"
#include "workloads/suite.h"

namespace polymath::dse {
namespace {

/** A backend that prices nothing: the direct fixture for the
 *  constructor's validation. */
class FixtureBackend : public target::Backend
{
  public:
    explicit FixtureBackend(target::MachineConfig machine)
        : Backend("Fixture", lang::Domain::DA, std::move(machine))
    {
    }

    lower::AcceleratorSpec spec() const override { return {}; }

  protected:
    target::PerfReport simulateImpl(const target::PartitionAnalysis &,
                                    const target::MachineConfig &,
                                    const target::WorkloadProfile &)
        const override
    {
        return {};
    }
};

// ---------------------------------------------------------------------------
// Table VI factory pins. The ten factories are the calibration surface
// of every cost model *and* the base points of every design space; a
// drive-by edit here shifts all paper figures at once.
// ---------------------------------------------------------------------------

TEST(MachineConfigs, TableVIFactoriesPinned)
{
    const auto xeon = target::xeonConfig();
    EXPECT_DOUBLE_EQ(xeon.freqGhz, 3.7);
    EXPECT_DOUBLE_EQ(xeon.watts, 80.0);
    EXPECT_EQ(xeon.computeUnits, 6);
    EXPECT_DOUBLE_EQ(xeon.flopsPerUnitCycle, 16.0);
    EXPECT_DOUBLE_EQ(xeon.dramGBs, 41.6);

    const auto titan = target::titanXpConfig();
    EXPECT_DOUBLE_EQ(titan.freqGhz, 1.58);
    EXPECT_DOUBLE_EQ(titan.watts, 250.0);
    EXPECT_DOUBLE_EQ(titan.idleWatts, 15.0);
    EXPECT_EQ(titan.computeUnits, 3840);
    EXPECT_DOUBLE_EQ(titan.flopsPerUnitCycle, 2.0);
    EXPECT_DOUBLE_EQ(titan.dramGBs, 547.0);
    EXPECT_DOUBLE_EQ(titan.launchOverheadUs, 6.0);

    const auto jetson = target::jetsonConfig();
    EXPECT_DOUBLE_EQ(jetson.freqGhz, 1.3);
    EXPECT_DOUBLE_EQ(jetson.watts, 30.0);
    EXPECT_DOUBLE_EQ(jetson.idleWatts, 5.0);
    EXPECT_EQ(jetson.computeUnits, 512);
    EXPECT_DOUBLE_EQ(jetson.dramGBs, 137.0);
    EXPECT_DOUBLE_EQ(jetson.launchOverheadUs, 9.0);

    const auto robox = target::roboxConfig();
    EXPECT_DOUBLE_EQ(robox.freqGhz, 1.0);
    EXPECT_DOUBLE_EQ(robox.watts, 3.4);
    EXPECT_EQ(robox.computeUnits, 256);
    EXPECT_DOUBLE_EQ(robox.dramGBs, 12.8);
    EXPECT_EQ(robox.onChipBytes, 512 * 1024);
    EXPECT_DOUBLE_EQ(robox.launchOverheadUs, 0.2);

    const auto graph = target::graphicionadoConfig();
    EXPECT_DOUBLE_EQ(graph.freqGhz, 1.0);
    EXPECT_DOUBLE_EQ(graph.watts, 7.0);
    EXPECT_EQ(graph.computeUnits, 8);
    EXPECT_DOUBLE_EQ(graph.dramGBs, 68.0);
    EXPECT_EQ(graph.onChipBytes, 64ll * 1024 * 1024);
    EXPECT_DOUBLE_EQ(graph.launchOverheadUs, 1.0);
    EXPECT_EQ(graph.banksPerPipe, 32);

    const auto tabla = target::tablaConfig();
    EXPECT_DOUBLE_EQ(tabla.freqGhz, 0.15);
    EXPECT_DOUBLE_EQ(tabla.watts, 18.0);
    EXPECT_EQ(tabla.computeUnits, 2048);
    EXPECT_DOUBLE_EQ(tabla.dramGBs, 19.2);
    EXPECT_EQ(tabla.onChipBytes, 64ll * 1024 * 1024);
    EXPECT_DOUBLE_EQ(tabla.launchOverheadUs, 2.0);
    EXPECT_EQ(tabla.busWordsPerCycle, 64);

    const auto deco = target::decoConfig();
    EXPECT_DOUBLE_EQ(deco.freqGhz, 0.15);
    EXPECT_DOUBLE_EQ(deco.watts, 16.0);
    EXPECT_EQ(deco.computeUnits, 1024);
    EXPECT_DOUBLE_EQ(deco.dramGBs, 19.2);
    EXPECT_EQ(deco.onChipBytes, 8ll * 1024 * 1024);
    EXPECT_DOUBLE_EQ(deco.launchOverheadUs, 2.0);

    const auto vta = target::vtaConfig();
    EXPECT_DOUBLE_EQ(vta.freqGhz, 0.15);
    EXPECT_DOUBLE_EQ(vta.watts, 3.0);
    EXPECT_EQ(vta.computeUnits, 256);
    EXPECT_DOUBLE_EQ(vta.flopsPerUnitCycle, 2.0);
    EXPECT_DOUBLE_EQ(vta.dramGBs, 19.2);
    EXPECT_EQ(vta.onChipBytes, 1ll * 1024 * 1024);
    EXPECT_DOUBLE_EQ(vta.launchOverheadUs, 8.0);

    const auto hs = target::hyperstreamsConfig();
    EXPECT_DOUBLE_EQ(hs.freqGhz, 0.15);
    EXPECT_DOUBLE_EQ(hs.watts, 14.0);
    EXPECT_EQ(hs.computeUnits, 512);
    EXPECT_DOUBLE_EQ(hs.dramGBs, 19.2);
    EXPECT_EQ(hs.onChipBytes, 4ll * 1024 * 1024);
    EXPECT_DOUBLE_EQ(hs.launchOverheadUs, 2.0);

    const auto soc = target::socConfig();
    EXPECT_DOUBLE_EQ(soc.dmaGBs, 16.0);
    EXPECT_DOUBLE_EQ(soc.perTransferUs, 2.0);
    EXPECT_DOUBLE_EQ(soc.hostWatts, 1.5);
    EXPECT_DOUBLE_EQ(soc.dramPjPerByte, 20.0);
}

TEST(MachineConfigs, ValidateRejectsDegenerateConfigs)
{
    auto broken = [](auto mutate) {
        target::MachineConfig m = target::tablaConfig();
        mutate(m);
        return m;
    };
    EXPECT_THROW(
        broken([](auto &m) { m.computeUnits = 0; }).validate(),
        UserError);
    EXPECT_THROW(
        broken([](auto &m) { m.computeUnits = -4; }).validate(),
        UserError);
    EXPECT_THROW(broken([](auto &m) { m.freqGhz = 0.0; }).validate(),
                 UserError);
    EXPECT_THROW(broken([](auto &m) { m.freqGhz = -1.0; }).validate(),
                 UserError);
    EXPECT_THROW(
        broken([](auto &m) { m.freqGhz = 1.0 / 0.0; }).validate(),
        UserError);
    EXPECT_THROW(broken([](auto &m) { m.watts = 0.0; }).validate(),
                 UserError);
    EXPECT_THROW(broken([](auto &m) { m.dramGBs = 0.0; }).validate(),
                 UserError);
    EXPECT_THROW(
        broken([](auto &m) { m.busWordsPerCycle = 0; }).validate(),
        UserError);
    EXPECT_THROW(broken([](auto &m) { m.banksPerPipe = 0; }).validate(),
                 UserError);
    EXPECT_THROW(broken([](auto &m) { m.idleWatts = -1.0; }).validate(),
                 UserError);
    EXPECT_NO_THROW(target::tablaConfig().validate());

    // Configs are validated where they are made, so a degenerate one
    // cannot produce NaN seconds later: a backend built for one is
    // refused at construction (as the six standard backends are built
    // for their Table VI machines), and ConfigSpace::machineAt validates
    // every DSE point (ConfigSpace.IndexingRoundTripsAndValidates).
    target::MachineConfig bad = target::roboxConfig();
    bad.computeUnits = 0;
    EXPECT_THROW(FixtureBackend{bad}, UserError);
    EXPECT_NO_THROW(FixtureBackend{target::roboxConfig()});
}

TEST(MachineConfigs, CyclesToSecondsGuardsFrequency)
{
    EXPECT_DOUBLE_EQ(target::cyclesToSeconds(1e9, 1.0), 1.0);
    EXPECT_THROW(target::cyclesToSeconds(100.0, 0.0), UserError);
    EXPECT_THROW(target::cyclesToSeconds(100.0, -2.0), UserError);
}

// ---------------------------------------------------------------------------
// Pareto front on hand-built points.
// ---------------------------------------------------------------------------

TEST(Pareto, DominanceIsStrictSomewhere)
{
    EXPECT_TRUE(dominates({1.0, 5.0}, {2.0, 4.0}));  // better both
    EXPECT_TRUE(dominates({1.0, 5.0}, {1.0, 4.0}));  // tie seconds
    EXPECT_TRUE(dominates({1.0, 5.0}, {2.0, 5.0}));  // tie ppw
    EXPECT_FALSE(dominates({1.0, 5.0}, {1.0, 5.0})); // exact tie
    EXPECT_FALSE(dominates({1.0, 4.0}, {2.0, 5.0})); // trade-off
    EXPECT_FALSE(dominates({2.0, 4.0}, {1.0, 5.0}));
}

TEST(Pareto, FrontExcludesDominatedAndKeepsTies)
{
    // (seconds, perfPerWatt): 0 and 3 trade off, 1 is dominated by 0,
    // 2 is an exact tie with 0, 4 is dominated by everything.
    const std::vector<Objective> points = {
        {1.0, 10.0}, {2.0, 9.0}, {1.0, 10.0}, {0.5, 6.0}, {3.0, 1.0},
    };
    const auto front = paretoFront(points);
    EXPECT_EQ(front, (std::vector<size_t>{0, 2, 3}));
}

TEST(Pareto, SinglePointAndEmptyInput)
{
    EXPECT_TRUE(paretoFront({}).empty());
    EXPECT_EQ(paretoFront({{1.0, 1.0}}), (std::vector<size_t>{0}));
}

/** The pairwise front paretoFront() computed before the sort-and-sweep,
 *  kept as the reference. */
std::vector<size_t>
referenceFront(const std::vector<Objective> &points)
{
    std::vector<size_t> front;
    for (size_t i = 0; i < points.size(); ++i) {
        bool dominated = false;
        for (size_t j = 0; j < points.size() && !dominated; ++j)
            dominated = j != i && dominates(points[j], points[i]);
        if (!dominated)
            front.push_back(i);
    }
    return front;
}

TEST(Pareto, SweepEqualsPairwiseReference)
{
    std::mt19937_64 rng(0x5eed);
    const auto check = [](const std::vector<Objective> &points) {
        EXPECT_EQ(paretoFront(points), referenceFront(points))
            << points.size() << " points";
    };
    check({});
    check({{1.0, 1.0}});
    check({{0.0, 0.0}});

    // Continuous values: ties are rare, the front is a staircase.
    std::uniform_real_distribution<double> real(0.0, 1.0);
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<Objective> points(
            static_cast<size_t>(rng() % 300));
        for (auto &p : points)
            p = {real(rng), real(rng)};
        check(points);
    }

    // Few distinct values: full of exact duplicates, equal-seconds and
    // equal-perf/W ties.
    for (const int levels : {1, 2, 3, 5, 8}) {
        std::uniform_int_distribution<int> level(0, levels - 1);
        for (int trial = 0; trial < 100; ++trial) {
            std::vector<Objective> points(
                static_cast<size_t>(rng() % 64));
            for (auto &p : points)
                p = {static_cast<double>(level(rng)),
                     static_cast<double>(level(rng))};
            check(points);
        }
    }

    // Ties on one axis only, and a point dominated by a tie group.
    check({{1.0, 5.0}, {1.0, 7.0}, {1.0, 7.0}, {2.0, 7.0}, {0.5, 1.0}});
    check({{2.0, 3.0}, {1.0, 3.0}, {3.0, 3.0}, {1.0, 3.0}});
    // Zero, signed zero and infinite objectives compare like the
    // pairwise check compares them; a NaN neither dominates nor is
    // dominated.
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    check({{0.0, 0.0}, {-0.0, 0.0}, {inf, inf}, {inf, 1.0}, {1.0, inf}});
    check({{nan, 1.0}, {1.0, nan}, {1.0, 1.0}, {2.0, 0.5}, {nan, nan}});
}

// ---------------------------------------------------------------------------
// Config spaces.
// ---------------------------------------------------------------------------

TEST(ConfigSpace, BasePointIsTheFactoryConfig)
{
    for (const char *backend :
         {"RoboX", "Graphicionado", "TABLA", "DECO", "TVM-VTA",
          "HyperStreams"})
    {
        SCOPED_TRACE(backend);
        EXPECT_TRUE(ConfigSpace::searchable(backend));
        for (const auto kind :
             {ConfigSpace::Kind::Small, ConfigSpace::Kind::Full})
        {
            const auto space = ConfigSpace::forBackend(backend, kind);
            ASSERT_GT(space.size(), 1);
            const auto base = space.machineAt(space.baseIndex());
            // Identical to the shipped Table VI machine: every axis
            // scale is exactly 1.0 at the base point.
            EXPECT_EQ(base, space.base());
        }
    }
    EXPECT_FALSE(ConfigSpace::searchable("Xeon E-2176G"));
    EXPECT_THROW(
        ConfigSpace::forBackend("NoSuchAccel", ConfigSpace::Kind::Small),
        UserError);
    EXPECT_THROW(ConfigSpace::kindFromString("medium"), UserError);
}

TEST(ConfigSpace, IndexingRoundTripsAndValidates)
{
    const auto space =
        ConfigSpace::forBackend("TABLA", ConfigSpace::Kind::Full);
    std::set<std::string> labels;
    std::vector<int64_t> near;
    for (int64_t i = 0; i < space.size(); ++i) {
        EXPECT_NO_THROW(space.machineAt(i).validate());
        labels.insert(space.label(i));
        // Neighbors are exactly the indices one digit step away, in
        // ascending order.
        std::vector<int64_t> expected;
        for (int64_t n = 0; n < space.size(); ++n) {
            const auto from = space.coords(i);
            const auto to = space.coords(n);
            int steps = 0;
            for (size_t a = 0; a < from.size(); ++a)
                steps += std::abs(from[a] - to[a]);
            if (steps == 1)
                expected.push_back(n);
        }
        space.neighbors(i, near);
        EXPECT_EQ(near, expected) << space.label(i);
    }
    // Labels are unique: they name distinct scale tuples.
    EXPECT_EQ(static_cast<int64_t>(labels.size()), space.size());
    EXPECT_THROW(space.machineAt(-1), UserError);
    EXPECT_THROW(space.machineAt(space.size()), UserError);
}

TEST(ConfigSpace, DerivedPowerMovesWithTheAxes)
{
    // Along any single axis (the other coordinates equal), more compute
    // units or a higher clock must cost more watts — power is derived
    // from the axes, never a free variable.
    const auto space =
        ConfigSpace::forBackend("TABLA", ConfigSpace::Kind::Full);
    std::vector<target::MachineConfig> machines;
    for (int64_t i = 0; i < space.size(); ++i)
        machines.push_back(space.machineAt(i));
    for (const auto &a : machines) {
        for (const auto &b : machines) {
            const bool same_rest = a.freqGhz == b.freqGhz &&
                                   a.dramGBs == b.dramGBs &&
                                   a.busWordsPerCycle ==
                                       b.busWordsPerCycle;
            if (same_rest && a.computeUnits > b.computeUnits) {
                EXPECT_GT(a.watts, b.watts);
            }
            if (a.computeUnits == b.computeUnits &&
                a.dramGBs == b.dramGBs &&
                a.busWordsPerCycle == b.busWordsPerCycle &&
                a.freqGhz > b.freqGhz)
            {
                EXPECT_GT(a.watts, b.watts);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Search determinism + artifacts, on a synthetic workload (no compile).
// ---------------------------------------------------------------------------

lower::Partition
syntheticPartition(const std::string &accel)
{
    lower::Partition p;
    p.accel = accel;
    for (int64_t i = 0; i < 3; ++i) {
        lower::IrFragment f;
        f.opcode = "kernel" + std::to_string(i);
        f.flops = 50'000 + 10'000 * i;
        lower::TensorArg in;
        in.name = "t" + std::to_string(i);
        in.shape = Shape{256};
        lower::TensorArg out;
        out.name = "t" + std::to_string(i + 1);
        out.shape = Shape{256};
        f.inputs.push_back(in);
        f.outputs.push_back(out);
        p.fragments.push_back(std::move(f));
    }
    lower::TensorArg stream;
    stream.name = "x";
    stream.shape = Shape{1 << 16};
    stream.kind = ir::EdgeKind::Input;
    p.loads.push_back(stream);
    return p;
}

TEST(Explore, GridCoversTheSpaceAndFindsTheBaseline)
{
    const auto partition = syntheticPartition("TABLA");
    target::WorkloadProfile profile;
    profile.invocations = 100;
    SearchOptions opts;
    opts.space = ConfigSpace::Kind::Small;
    opts.driver = SearchOptions::Driver::Grid;

    const auto study =
        explore("synthetic", "TABLA", {&partition}, profile, opts);
    EXPECT_EQ(study.evaluated(), study.spaceSize);
    EXPECT_FALSE(study.front.empty());
    // Points come back ascending by index and the baseline is the
    // factory config.
    for (size_t i = 1; i < study.points.size(); ++i)
        EXPECT_LT(study.points[i - 1].index, study.points[i].index);
    const auto space =
        ConfigSpace::forBackend("TABLA", ConfigSpace::Kind::Small);
    EXPECT_EQ(study.baseline().index, space.baseIndex());
    // Front points are mutually non-dominating.
    for (const size_t a : study.front) {
        for (const size_t b : study.front) {
            EXPECT_FALSE(dominates({study.points[a].seconds,
                                    study.points[a].perfPerWatt},
                                   {study.points[b].seconds,
                                    study.points[b].perfPerWatt}));
        }
    }
    // The baseline is printed, so it carries a phase attribution.
    EXPECT_FALSE(study.baseline().dominantPhase.empty());
    EXPECT_FALSE(study.baseline().topCost.empty());
}

TEST(Explore, SameSeedIsIdenticalAcrossConcurrentSearches)
{
    const auto partition = syntheticPartition("Graphicionado");
    target::WorkloadProfile profile;
    profile.invocations = 50;
    profile.vertices = 1000;
    profile.edges = 5000;

    SearchOptions opts;
    opts.space = ConfigSpace::Kind::Full;
    opts.driver = SearchOptions::Driver::Random;
    opts.samples = 12;
    opts.rounds = 3;
    opts.seed = 0xfeedbeef;

    // The pmcd `dse` verb's traffic: independent requests searching the
    // same program at once. Both must see exactly the same points.
    WorkloadStudy a, b;
    std::thread ta([&] {
        a = explore("synthetic", "Graphicionado", {&partition}, profile,
                    opts);
    });
    std::thread tb([&] {
        b = explore("synthetic", "Graphicionado", {&partition}, profile,
                    opts);
    });
    ta.join();
    tb.join();
    ASSERT_EQ(a.points.size(), b.points.size());
    for (size_t i = 0; i < a.points.size(); ++i) {
        EXPECT_EQ(a.points[i].index, b.points[i].index);
        EXPECT_EQ(a.points[i].seconds, b.points[i].seconds);
        EXPECT_EQ(a.points[i].joules, b.points[i].joules);
        EXPECT_EQ(a.points[i].perfPerWatt, b.points[i].perfPerWatt);
    }
    EXPECT_EQ(frontTable(a), frontTable(b));

    // A different seed explores a different subset (the space is far
    // larger than the budget, so a collision would be a seeding bug).
    SearchOptions reseeded = opts;
    reseeded.seed = 0x5eed;
    const auto c = explore("synthetic", "Graphicionado", {&partition},
                           profile, reseeded);
    std::vector<int64_t> visited_a, visited_c;
    for (const auto &p : a.points)
        visited_a.push_back(p.index);
    for (const auto &p : c.points)
        visited_c.push_back(p.index);
    EXPECT_NE(visited_a, visited_c);
}

TEST(Explore, RejectsEmptyPartitionsAndUnknownBackends)
{
    target::WorkloadProfile profile;
    SearchOptions opts;
    EXPECT_THROW(explore("w", "TABLA", {}, profile, opts), UserError);
    const auto partition = syntheticPartition("Xeon E-2176G");
    EXPECT_THROW(
        explore("w", "Xeon E-2176G", {&partition}, profile, opts),
        UserError);
}

// ---------------------------------------------------------------------------
// Staged pricing: explore() analyses each partition once and prices that
// analysis at every point; it must equal a one-shot simulate bit for bit.
// ---------------------------------------------------------------------------

void
expectSameReport(const target::PerfReport &staged,
                 const target::PerfReport &one_shot)
{
    EXPECT_EQ(staged.machine, one_shot.machine);
    EXPECT_EQ(staged.seconds, one_shot.seconds);
    EXPECT_EQ(staged.joules, one_shot.joules);
    EXPECT_EQ(staged.computeSeconds, one_shot.computeSeconds);
    EXPECT_EQ(staged.memorySeconds, one_shot.memorySeconds);
    EXPECT_EQ(staged.overheadSeconds, one_shot.overheadSeconds);
    EXPECT_EQ(staged.flops, one_shot.flops);
    EXPECT_EQ(staged.dramBytes, one_shot.dramBytes);
    EXPECT_EQ(staged.utilization, one_shot.utilization);
    ASSERT_NE(staged.ledger, nullptr);
    ASSERT_NE(one_shot.ledger, nullptr);
    const auto &a = staged.ledger->entries;
    const auto &b = one_shot.ledger->entries;
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].label, b[i].label);
        EXPECT_EQ(a[i].phase, b[i].phase);
        EXPECT_EQ(a[i].fragment, b[i].fragment);
        EXPECT_EQ(a[i].seconds, b[i].seconds) << a[i].label;
        EXPECT_EQ(a[i].joules, b[i].joules) << a[i].label;
        EXPECT_EQ(a[i].dramBytes, b[i].dramBytes) << a[i].label;
        EXPECT_EQ(a[i].flops, b[i].flops) << a[i].label;
        EXPECT_EQ(a[i].touchedBytes, b[i].touchedBytes) << a[i].label;
        EXPECT_EQ(a[i].bound, b[i].bound) << a[i].label;
    }
}

TEST(StagedPricing, EqualsOneShotOnTableIIIOverTheSmallSpace)
{
    // Profiling on for this test only, so the ledgers are compared too
    // (explore() opens a scope the same way).
    const target::ProfilingScope profiling;
    const auto &registry = target::standardRegistry();
    int64_t priced = 0;
    for (const auto &bench : wl::tableIII()) {
        const auto compiled = wl::compileBenchmark(
            bench.source, bench.buildOpts, registry, bench.domain);
        for (const auto &partition : compiled.partitions) {
            if (!ConfigSpace::searchable(partition.accel))
                continue;
            SCOPED_TRACE(bench.id + " on " + partition.accel);
            const auto space = ConfigSpace::forBackend(
                partition.accel, ConfigSpace::Kind::Small);
            const target::Backend &backend =
                *target::findBackend(partition.accel);
            const target::PartitionAnalysis analysis =
                backend.analyze(partition);

            // The 3-argument and one-shot forms price the backend's own
            // machine, the base point of its space.
            const auto base = space.machineAt(space.baseIndex());
            expectSameReport(
                backend.simulate(partition, analysis, bench.profile, base),
                backend.simulate(partition, analysis, bench.profile));
            expectSameReport(
                backend.simulate(partition, analysis, bench.profile, base),
                backend.simulate(partition, bench.profile));

            // One analysis prices every point as a fresh one does.
            for (int64_t i = 0; i < space.size(); ++i) {
                const auto machine = space.machineAt(i);
                expectSameReport(
                    backend.simulate(partition, analysis, bench.profile,
                                     machine),
                    backend.simulate(partition, backend.analyze(partition),
                                     bench.profile, machine));
                ++priced;
            }
        }
    }
    EXPECT_GT(priced, 0);
}

// ---------------------------------------------------------------------------
// Cost-model monotonicity: on every searchable Table III partition, a
// one-step move that raises a machine axis (units, frequency, DRAM
// bandwidth, bus width, banks) never makes the partition slower, at one
// invocation and at the benchmark's deployed profile. Power is derived
// and may rise; seconds may not.
// ---------------------------------------------------------------------------

class Monotonicity : public ::testing::TestWithParam<size_t>
{
};

TEST_P(Monotonicity, RaisingAMachineAxisNeverAddsSeconds)
{
    const wl::Benchmark &bench = wl::tableIII()[GetParam()];
    const auto compiled = wl::compileBenchmark(
        bench.source, bench.buildOpts, target::standardRegistry(),
        bench.domain);
    int64_t moves = 0;
    for (const auto &partition : compiled.partitions) {
        if (!ConfigSpace::searchable(partition.accel))
            continue;
        const auto space = ConfigSpace::forBackend(partition.accel,
                                                   ConfigSpace::Kind::Full);
        const target::Backend &backend =
            *target::findBackend(partition.accel);
        const target::PartitionAnalysis analysis =
            backend.analyze(partition);
        for (const auto &profile : {target::WorkloadProfile{}, bench.profile})
        {
            std::vector<double> seconds;
            for (int64_t i = 0; i < space.size(); ++i) {
                seconds.push_back(backend
                                      .simulate(partition, analysis,
                                                profile, space.machineAt(i))
                                      .seconds);
            }
            std::vector<int64_t> near;
            for (int64_t i = 0; i < space.size(); ++i) {
                const std::vector<int> from = space.coords(i);
                space.neighbors(i, near);
                for (const int64_t n : near) {
                    const std::vector<int> to = space.coords(n);
                    size_t axis = 0;
                    while (from[axis] == to[axis])
                        ++axis;
                    const Axis &a = space.axes()[axis];
                    if (a.scales[static_cast<size_t>(to[axis])] <=
                        a.scales[static_cast<size_t>(from[axis])])
                        continue;
                    EXPECT_LE(seconds[static_cast<size_t>(n)],
                              seconds[static_cast<size_t>(i)])
                        << partition.accel << ": " << space.label(i)
                        << " -> " << space.label(n) << " (invocations "
                        << profile.invocations << ")";
                    ++moves;
                }
            }
        }
    }
    EXPECT_GT(moves, 0) << bench.id << " has no searchable partition";
}

INSTANTIATE_TEST_SUITE_P(
    TableIII, Monotonicity,
    ::testing::Range<size_t>(0, wl::tableIII().size()),
    [](const ::testing::TestParamInfo<size_t> &info) {
        std::string name = wl::tableIII()[info.param].id;
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

// ---------------------------------------------------------------------------
// Pricing pin: every searchable Table III partition at every full-space
// point, priced from a ledger-free analysis and then from a ledgered one,
// folded bit for bit into one FNV-1a 64 digest. The constants were
// computed while the backends still derived their machine-independent
// facts (opcode classes, shape sizes, attribute lookups) at every
// pricing, so moving those facts into analyze() must not drift any
// report field or ledger entry by one ulp.
// ---------------------------------------------------------------------------

struct Fnv1a
{
    uint64_t hash = 0xcbf29ce484222325ull;

    void bytes(const void *data, size_t size)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (size_t i = 0; i < size; ++i) {
            hash ^= p[i];
            hash *= 0x100000001b3ull;
        }
    }
    void bits(double v) { bytes(&v, sizeof v); }
    void bits(int64_t v) { bytes(&v, sizeof v); }
    void text(std::string_view s)
    {
        bits(static_cast<int64_t>(s.size()));
        bytes(s.data(), s.size());
    }
};

void
foldReport(Fnv1a &fnv, const target::PerfReport &r)
{
    fnv.bits(r.seconds);
    fnv.bits(r.joules);
    fnv.bits(r.computeSeconds);
    fnv.bits(r.memorySeconds);
    fnv.bits(r.overheadSeconds);
    fnv.bits(r.dramBytes);
    fnv.bits(r.flops);
    fnv.bits(r.utilization);
    if (!r.ledger)
        return;
    fnv.bits(r.ledger->peakFlops);
    fnv.bits(r.ledger->dramGBs);
    for (const target::CostEntry &e : r.ledger->entries) {
        fnv.text(e.label);
        fnv.text(toString(e.phase));
        fnv.bits(static_cast<int64_t>(e.fragment));
        fnv.bits(static_cast<int64_t>(e.partition));
        fnv.text(toString(e.bound));
        fnv.bits(e.seconds);
        fnv.bits(e.joules);
        fnv.bits(e.dramBytes);
        fnv.bits(e.flops);
        fnv.bits(e.touchedBytes);
    }
}

TEST(PricingPin, TableIIIAndIVFullSpaceIsBitIdentical)
{
    constexpr uint64_t kLedgerFree = 0xabad59f67d7eed39ull;
    constexpr uint64_t kLedgered = 0x140f6e7b6b6c5be7ull;
    constexpr int64_t kPricings = 5850;

    // Table III covers five backends; Table IV's OptionPricing adds
    // HyperStreams.
    const auto &registry = target::standardRegistry();
    std::vector<std::pair<lower::CompiledProgram, target::WorkloadProfile>>
        workloads;
    for (const auto &bench : wl::tableIII()) {
        workloads.emplace_back(
            wl::compileBenchmark(bench.source, bench.buildOpts, registry,
                                 bench.domain),
            bench.profile);
    }
    for (const auto &app : wl::tableIV()) {
        workloads.emplace_back(
            wl::compileBenchmark(app.source, app.buildOpts, registry,
                                 lang::Domain::None),
            app.profile);
    }

    Fnv1a ledger_free, ledgered;
    int64_t pricings = 0;
    std::set<std::string> backends;
    for (const auto &[compiled, deployed] : workloads) {
        for (const auto &partition : compiled.partitions) {
            if (!ConfigSpace::searchable(partition.accel))
                continue;
            backends.insert(partition.accel);
            const auto space = ConfigSpace::forBackend(
                partition.accel, ConfigSpace::Kind::Full);
            const target::Backend &backend =
                *target::findBackend(partition.accel);
            target::PartitionAnalysis with_ledger;
            {
                const target::ProfilingScope profiling;
                with_ledger = backend.analyze(partition);
            }
            target::PartitionAnalysis without = with_ledger;
            without.ledger = false;
            for (const auto &profile :
                 {target::WorkloadProfile{}, deployed})
            {
                for (int64_t i = 0; i < space.size(); ++i) {
                    const auto machine = space.machineAt(i);
                    foldReport(ledger_free,
                               backend.simulate(partition, without,
                                                profile, machine));
                    foldReport(ledgered,
                               backend.simulate(partition, with_ledger,
                                                profile, machine));
                    ++pricings;
                }
            }
        }
    }
    EXPECT_EQ(backends.size(), 6u);
    EXPECT_EQ(pricings, kPricings);
    EXPECT_EQ(ledger_free.hash, kLedgerFree)
        << std::hex << "0x" << ledger_free.hash;
    EXPECT_EQ(ledgered.hash, kLedgered) << std::hex << "0x" << ledgered.hash;
}

// ---------------------------------------------------------------------------
// Lazy attribution: explore() searches without cost ledgers and prices
// only the printed points (front and baseline) again with them. Nothing
// it prints may differ from the old explore(), which ledgered every point.
// ---------------------------------------------------------------------------

/** The old explore()'s point evaluation, kept as the reference: priced
 *  with cost ledgers (@p analyses carry them) and attributed. */
EvalPoint
ledgeredPoint(const ConfigSpace &space, int64_t index,
              const std::vector<const lower::Partition *> &partitions,
              const std::vector<target::PartitionAnalysis> &analyses,
              const target::WorkloadProfile &profile)
{
    const target::Backend &backend = *target::findBackend(space.backend());
    const auto machine = space.machineAt(index);
    target::PerfReport total;
    bool first = true;
    for (size_t i = 0; i < partitions.size(); ++i) {
        auto report = backend.simulate(*partitions[i], analyses[i], profile,
                                       machine);
        if (first) {
            total = std::move(report);
            first = false;
        } else {
            total += report;
        }
    }

    EvalPoint point;
    point.index = index;
    point.label = space.label(index);
    point.seconds = total.seconds;
    point.joules = total.joules;
    point.perfPerWatt = total.joules > 0.0
                            ? static_cast<double>(total.flops) /
                                  total.joules
                            : 0.0;
    if (total.ledger) {
        const target::CostEntry *top = nullptr;
        for (const auto &entry : total.ledger->entries) {
            if (entry.phase == target::CostPhase::Compute)
                point.computeSeconds += entry.seconds;
            else if (entry.phase == target::CostPhase::Dma)
                point.dmaSeconds += entry.seconds;
            else
                point.overheadSeconds += entry.seconds;
            if (!top || entry.seconds > top->seconds)
                top = &entry;
        }
        point.dominantPhase = "compute";
        double dominant = point.computeSeconds;
        if (point.dmaSeconds > dominant) {
            point.dominantPhase = "dma";
            dominant = point.dmaSeconds;
        }
        if (point.overheadSeconds > dominant)
            point.dominantPhase = "overhead";
        if (top)
            point.topCost = top->label;
    }
    return point;
}

/**
 * The old explore()'s study: @p study with every point re-evaluated by
 * ledgeredPoint(). The old search read only index, seconds and joules,
 * and its front, baseline and best only index, seconds and perfPerWatt.
 * expectSameAsLedgered() checks those agree at every point, so the old
 * search visited the same points and chose the same front and best.
 */
WorkloadStudy
ledgeredStudy(const WorkloadStudy &study,
              const std::vector<const lower::Partition *> &partitions,
              const target::WorkloadProfile &profile,
              ConfigSpace::Kind kind)
{
    const auto space = ConfigSpace::forBackend(study.backend, kind);
    std::vector<target::PartitionAnalysis> analyses;
    {
        const target::ProfilingScope profiling;
        const target::Backend &analyzer = *target::findBackend(study.backend);
        for (const lower::Partition *partition : partitions)
            analyses.push_back(analyzer.analyze(*partition));
    }
    WorkloadStudy old = study;
    for (auto &point : old.points) {
        point = ledgeredPoint(space, point.index, partitions, analyses,
                              profile);
    }
    return old;
}

std::set<size_t>
printedPositions(const WorkloadStudy &study)
{
    std::set<size_t> printed(study.front.begin(), study.front.end());
    printed.insert(study.baselinePos);
    return printed;
}

void
expectSameAsLedgered(const WorkloadStudy &lazy, const WorkloadStudy &old)
{
    ASSERT_EQ(lazy.points.size(), old.points.size());
    for (size_t i = 0; i < lazy.points.size(); ++i) {
        const EvalPoint &a = lazy.points[i];
        const EvalPoint &b = old.points[i];
        EXPECT_EQ(a.index, b.index);
        EXPECT_EQ(a.seconds, b.seconds) << b.label;
        EXPECT_EQ(a.joules, b.joules) << b.label;
        EXPECT_EQ(a.perfPerWatt, b.perfPerWatt) << b.label;
    }
    for (const size_t pos : printedPositions(lazy)) {
        const EvalPoint &a = lazy.points[pos];
        const EvalPoint &b = old.points[pos];
        EXPECT_EQ(a.label, b.label);
        EXPECT_EQ(a.computeSeconds, b.computeSeconds) << b.label;
        EXPECT_EQ(a.dmaSeconds, b.dmaSeconds) << b.label;
        EXPECT_EQ(a.overheadSeconds, b.overheadSeconds) << b.label;
        EXPECT_EQ(a.dominantPhase, b.dominantPhase) << b.label;
        EXPECT_EQ(a.topCost, b.topCost) << b.label;
    }
    EXPECT_EQ(frontTable(lazy), frontTable(old));
}

TEST(LazyAttribution, PrintsWhatLedgeringEveryPointPrintedOnTableIII)
{
    // The stack benchmark's dse templates: the full space, searched by
    // the grid and by the random driver under seeds 1-8, at the pmcd
    // verb's one invocation and at each benchmark's deployed profile.
    std::vector<SearchOptions> searches;
    SearchOptions grid;
    grid.space = ConfigSpace::Kind::Full;
    grid.driver = SearchOptions::Driver::Grid;
    searches.push_back(grid);
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        SearchOptions random = grid;
        random.driver = SearchOptions::Driver::Random;
        random.seed = seed;
        searches.push_back(random);
    }

    const auto &registry = target::standardRegistry();
    int64_t studies = 0;
    for (const auto &bench : wl::tableIII()) {
        const auto compiled = wl::compileBenchmark(
            bench.source, bench.buildOpts, registry, bench.domain);
        for (const auto &profile :
             {target::WorkloadProfile{}, bench.profile})
        {
            for (const SearchOptions &opts : searches) {
                std::vector<WorkloadStudy> lazy, old;
                std::set<std::string> swept;
                for (const auto &partition : compiled.partitions) {
                    if (!ConfigSpace::searchable(partition.accel) ||
                        !swept.insert(partition.accel).second)
                        continue;
                    SCOPED_TRACE(bench.id + " on " + partition.accel +
                                 " seed " + std::to_string(opts.seed));
                    const auto partitions =
                        partitionsFor(compiled, partition.accel);
                    lazy.push_back(explore(bench.id, partition.accel,
                                           partitions, profile, opts));
                    old.push_back(ledgeredStudy(lazy.back(), partitions,
                                                profile, opts.space));
                    expectSameAsLedgered(lazy.back(), old.back());
                    ++studies;
                }
                EXPECT_EQ(bestTable(lazy), bestTable(old));
            }
        }
    }
    EXPECT_GE(studies, 2 * 15 * 9);
}

TEST(LazyAttribution, BaselineOffTheFrontIsStillAttributed)
{
    const auto partition = syntheticPartition("TABLA");
    target::WorkloadProfile profile;
    profile.invocations = 100;
    SearchOptions opts;
    opts.space = ConfigSpace::Kind::Full;
    opts.driver = SearchOptions::Driver::Grid;

    const auto study =
        explore("synthetic", "TABLA", {&partition}, profile, opts);
    ASSERT_EQ(std::count(study.front.begin(), study.front.end(),
                         study.baselinePos),
              0);
    expectSameAsLedgered(
        study, ledgeredStudy(study, {&partition}, profile, opts.space));
    EXPECT_FALSE(study.baseline().label.empty());
    EXPECT_FALSE(study.baseline().dominantPhase.empty());
    EXPECT_FALSE(study.baseline().topCost.empty());

    // Points nobody prints carry no attribution.
    const auto printed = printedPositions(study);
    for (size_t pos = 0; pos < study.points.size(); ++pos) {
        if (printed.count(pos))
            continue;
        EXPECT_TRUE(study.points[pos].label.empty());
        EXPECT_TRUE(study.points[pos].dominantPhase.empty());
    }
}

// ---------------------------------------------------------------------------
// Random-driver ranking: each halving round orders only the survivors it
// keeps (std::partial_sort). scoreLess is a strict total order, so that
// must visit, keep and print exactly what the old full sort of every
// evaluated point did.
// ---------------------------------------------------------------------------

/** What a search chose, by space index. */
struct SearchOutcome
{
    std::vector<int64_t> evaluated; ///< ascending
    std::vector<int64_t> front;     ///< in WorkloadStudy::front order
    int64_t best = -1;
};

SearchOutcome
outcomeOf(const WorkloadStudy &study)
{
    SearchOutcome out;
    for (const EvalPoint &p : study.points)
        out.evaluated.push_back(p.index);
    for (const size_t pos : study.front)
        out.front.push_back(study.points[pos].index);
    out.best = study.best().index;
    return out;
}

/** The random driver as it ranked before partial sorting, kept as the
 *  reference: every round fully sorts all evaluated points by
 *  energy-delay product (ties to the lower index). */
SearchOutcome
fullSortRandomSearch(const ConfigSpace &space,
                     const std::vector<const lower::Partition *> &partitions,
                     const target::WorkloadProfile &profile,
                     const SearchOptions &opts)
{
    const target::Backend &backend = *target::findBackend(space.backend());
    std::vector<target::PartitionAnalysis> analyses;
    for (const lower::Partition *partition : partitions)
        analyses.push_back(backend.analyze(*partition));
    const auto n = static_cast<size_t>(space.size());
    std::vector<bool> evaluated(n, false);
    std::vector<double> seconds(n), joules(n), ppw(n);
    const auto evaluate = [&](int64_t index) {
        const auto machine = space.machineAt(index);
        target::PerfReport total;
        for (size_t i = 0; i < partitions.size(); ++i) {
            const auto report = backend.simulate(*partitions[i], analyses[i],
                                                 profile, machine);
            if (i == 0)
                total = report;
            else
                total += report;
        }
        const auto k = static_cast<size_t>(index);
        evaluated[k] = true;
        seconds[k] = total.seconds;
        joules[k] = total.joules;
        ppw[k] = total.joules > 0.0
                     ? static_cast<double>(total.flops) / total.joules
                     : 0.0;
    };

    // First round: seeded rejection sampling around the base index.
    std::vector<bool> picked(n, false);
    picked[static_cast<size_t>(space.baseIndex())] = true;
    int64_t distinct = 1;
    Rng rng(opts.seed);
    const int64_t want = std::min(opts.samples, space.size());
    for (int64_t attempts = 0;
         distinct < want && attempts < 64 * opts.samples; ++attempts)
    {
        const auto index = static_cast<size_t>(rng.uniformInt(space.size()));
        if (!picked[index]) {
            picked[index] = true;
            ++distinct;
        }
    }
    std::vector<int64_t> frontier;
    for (size_t i = 0; i < n; ++i) {
        if (picked[i])
            frontier.push_back(static_cast<int64_t>(i));
    }

    std::vector<int64_t> near;
    for (int64_t round = 0; round < opts.rounds && !frontier.empty();
         ++round)
    {
        for (const int64_t index : frontier)
            evaluate(index);
        if (round + 1 >= opts.rounds)
            break;
        std::vector<int64_t> ranked;
        for (size_t i = 0; i < n; ++i) {
            if (evaluated[i])
                ranked.push_back(static_cast<int64_t>(i));
        }
        std::sort(ranked.begin(), ranked.end(), [&](int64_t a, int64_t b) {
            const double sa = seconds[static_cast<size_t>(a)] *
                              joules[static_cast<size_t>(a)];
            const double sb = seconds[static_cast<size_t>(b)] *
                              joules[static_cast<size_t>(b)];
            return sa != sb ? sa < sb : a < b;
        });
        const auto keep = static_cast<size_t>(
            std::max<int64_t>(2, opts.samples >> (round + 1)));
        frontier.clear();
        for (size_t i = 0; i < ranked.size() && i < keep; ++i) {
            space.neighbors(ranked[i], near);
            for (const int64_t m : near) {
                if (!evaluated[static_cast<size_t>(m)])
                    frontier.push_back(m);
            }
        }
        std::sort(frontier.begin(), frontier.end());
        frontier.erase(std::unique(frontier.begin(), frontier.end()),
                       frontier.end());
    }

    SearchOutcome out;
    std::vector<Objective> objectives;
    for (size_t i = 0; i < n; ++i) {
        if (!evaluated[i])
            continue;
        out.evaluated.push_back(static_cast<int64_t>(i));
        objectives.push_back({seconds[i], ppw[i]});
    }
    for (const size_t pos : paretoFront(objectives))
        out.front.push_back(out.evaluated[pos]);
    std::sort(out.front.begin(), out.front.end(), [&](int64_t a, int64_t b) {
        const double sa = seconds[static_cast<size_t>(a)];
        const double sb = seconds[static_cast<size_t>(b)];
        return sa != sb ? sa < sb : a < b;
    });
    const auto base = static_cast<size_t>(space.baseIndex());
    out.best = space.baseIndex();
    double best_gain = 1.0;
    for (const int64_t index : out.front) {
        const auto k = static_cast<size_t>(index);
        if (seconds[k] <= 0.0 || ppw[base] <= 0.0)
            continue;
        const double gain =
            (seconds[base] / seconds[k]) * (ppw[k] / ppw[base]);
        if (gain > best_gain || (gain == best_gain && index < out.best)) {
            best_gain = gain;
            out.best = index;
        }
    }
    return out;
}

TEST(RandomDriver, PartialRankingSearchesWhatAFullSortSearched)
{
    const auto &registry = target::standardRegistry();
    const target::WorkloadProfile profile;
    int64_t searches = 0;
    for (const auto &bench : wl::tableIII()) {
        const auto compiled = wl::compileBenchmark(
            bench.source, bench.buildOpts, registry, bench.domain);
        std::set<std::string> swept;
        for (const auto &partition : compiled.partitions) {
            if (!ConfigSpace::searchable(partition.accel) ||
                !swept.insert(partition.accel).second)
                continue;
            const auto partitions = partitionsFor(compiled, partition.accel);
            for (const auto kind :
                 {ConfigSpace::Kind::Small, ConfigSpace::Kind::Full})
            {
                const auto space =
                    ConfigSpace::forBackend(partition.accel, kind);
                for (uint64_t seed = 1; seed <= 8; ++seed) {
                    SCOPED_TRACE(bench.id + " on " + partition.accel +
                                 " seed " + std::to_string(seed));
                    SearchOptions opts;
                    opts.space = kind;
                    opts.driver = SearchOptions::Driver::Random;
                    opts.seed = seed;
                    const SearchOutcome got = outcomeOf(explore(
                        bench.id, partition.accel, partitions, profile,
                        opts));
                    const SearchOutcome want = fullSortRandomSearch(
                        space, partitions, profile, opts);
                    EXPECT_EQ(got.evaluated, want.evaluated);
                    EXPECT_EQ(got.front, want.front);
                    EXPECT_EQ(got.best, want.best);
                    ++searches;
                }
            }
        }
    }
    EXPECT_GE(searches, 15 * 2 * 8);
}

} // namespace
} // namespace polymath::dse
