/**
 * @file
 * Autotuner tests: Table VI factory pins (the calibration surface the
 * design spaces pivot around), Pareto-front correctness on hand-built
 * points, config-space indexing/neighborhoods, degenerate-config
 * rejection, seeded search determinism across jobs counts (byte-equal
 * polymath-dse/1 artifacts at -j1 vs -j4), staged pricing (one
 * analysis per partition, priced per point) equal to one-shot
 * simulation, and artifact round-trip through the bench_compare
 * flattening.
 */
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/error.h"
#include "dse/artifact.h"
#include "dse/config_space.h"
#include "dse/dse.h"
#include "dse/pareto.h"
#include "lower/accel_spec.h"
#include "lower/compile.h"
#include "report/artifact.h"
#include "targets/common/backend.h"
#include "targets/common/cost_ledger.h"
#include "targets/common/machine_config.h"
#include "workloads/suite.h"

namespace polymath::dse {
namespace {

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

    // Ingest point: backend construction validates, so a degenerate
    // config cannot produce NaN seconds later.
    target::MachineConfig bad = target::roboxConfig();
    bad.computeUnits = 0;
    EXPECT_THROW(target::makeBackend("RoboX", bad), UserError);
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
            // Byte-identical to the shipped Table VI machine: every
            // axis scale is exactly 1.0 at the base point.
            EXPECT_EQ(base.signature(), space.base().signature());
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
    for (int64_t i = 0; i < space.size(); ++i) {
        EXPECT_NO_THROW(space.machineAt(i).validate());
        labels.insert(space.label(i));
        for (const int64_t n : space.neighbors(i)) {
            EXPECT_GE(n, 0);
            EXPECT_LT(n, space.size());
            EXPECT_NE(n, i);
        }
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
            if (same_rest && a.computeUnits > b.computeUnits)
                EXPECT_GT(a.watts, b.watts);
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

DseArtifact
artifactFor(const WorkloadStudy &study, const SearchOptions &opts)
{
    DseArtifact artifact;
    artifact.name = "test";
    artifact.git = "test-git";
    artifact.config = "test-config";
    artifact.space = ConfigSpace::toString(opts.space);
    artifact.search = SearchOptions::toString(opts.driver);
    artifact.seed = opts.seed;
    artifact.samples = opts.samples;
    artifact.rounds = opts.rounds;
    artifact.workloads.push_back(toStudy(study));
    return artifact;
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
    // Phase attribution is populated (profiling is forced on).
    EXPECT_FALSE(study.baseline().dominantPhase.empty());
    EXPECT_FALSE(study.baseline().topCost.empty());
}

TEST(Explore, SameSeedIsByteIdenticalAtAnyJobsCount)
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

    SearchOptions serial = opts;
    serial.jobs = 1;
    SearchOptions parallel = opts;
    parallel.jobs = 4;

    const auto a = explore("synthetic", "Graphicionado", {&partition},
                           profile, serial);
    const auto b = explore("synthetic", "Graphicionado", {&partition},
                           profile, parallel);
    EXPECT_EQ(artifactFor(a, serial).json(),
              artifactFor(b, parallel).json());
    EXPECT_EQ(frontTable(a), frontTable(b));

    // A different seed explores a different subset (the space is far
    // larger than the budget, so a collision would be a seeding bug).
    SearchOptions reseeded = serial;
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
    // Profiling on, so the ledgers are compared too (explore() turns it
    // on the same way).
    target::setProfilingEnabled(true);
    const auto registry = target::standardRegistry();
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
            const auto base = target::makeBackend(
                partition.accel, space.machineAt(space.baseIndex()));
            const target::PartitionAnalysis analysis =
                base->analyze(partition);

            // Machine independence: another config of the same backend
            // analyses the partition identically.
            const auto scaled = target::makeBackend(
                partition.accel, space.machineAt(space.size() - 1));
            ASSERT_NE(scaled->machine().signature(),
                      base->machine().signature());
            EXPECT_TRUE(scaled->analyze(partition) == analysis);

            for (int64_t i = 0; i < space.size(); ++i) {
                const auto backend =
                    target::makeBackend(partition.accel, space.machineAt(i));
                expectSameReport(
                    backend->simulate(partition, analysis, bench.profile),
                    backend->simulate(partition, bench.profile));
                ++priced;
            }
        }
    }
    EXPECT_GT(priced, 0);
}

TEST(Artifact, RoundTripsAndFlattensForBenchCompare)
{
    const auto partition = syntheticPartition("TABLA");
    target::WorkloadProfile profile;
    profile.invocations = 10;
    SearchOptions opts;
    opts.space = ConfigSpace::Kind::Small;
    opts.driver = SearchOptions::Driver::Grid;
    const auto study =
        explore("synthetic", "TABLA", {&partition}, profile, opts);

    const DseArtifact artifact = artifactFor(study, opts);
    const std::string text = artifact.json();
    const DseArtifact parsed = DseArtifact::fromJson(text);
    EXPECT_EQ(parsed.json(), text);
    EXPECT_EQ(parsed.seed, artifact.seed);
    EXPECT_EQ(parsed.workloads.size(), 1u);
    EXPECT_EQ(parsed.workloads[0].front.size(), study.front.size());

    // The bench_compare path: flatten both sides and diff at zero
    // tolerance — identical artifacts must gate clean.
    const auto flat = artifact.toBenchArtifact();
    const auto reflat = parsed.toBenchArtifact();
    EXPECT_TRUE(report::compareArtifacts(flat, reflat).ok());
    EXPECT_FALSE(flat.metrics.empty());

    // Foreign schemas are rejected, not misread.
    EXPECT_THROW(DseArtifact::fromJson(
                     "{\"schema\":\"polymath-bench/1\"}"),
                 UserError);
}

} // namespace
} // namespace polymath::dse
