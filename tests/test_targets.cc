/**
 * @file
 * Backend tests: spec registration consistency, cost-model invariants
 * (monotonicity in work, profile scaling, DMA classification), and
 * per-target behaviors (TABLA level scheduling, DECO imbalance,
 * Graphicionado dataset scaling, VTA weight streaming, HyperStreams II=1,
 * CPU/GPU baseline properties), the simulate-call counter under
 * concurrent callers, analyses priced only by the backend that made
 * them, and cost-ledger labels outliving the analyses they view.
 */
#include <gtest/gtest.h>

#include <string_view>
#include <thread>

#include "core/error.h"
#include "dse/config_space.h"
#include "obs/metrics.h"
#include "soc/soc.h"
#include "targets/common/backend.h"
#include "targets/common/cost_ledger.h"
#include "targets/cpu/cpu_model.h"
#include "targets/gpu/gpu_model.h"
#include "workloads/suite.h"

namespace polymath::target {
namespace {

using lower::IrFragment;
using lower::Partition;
using lower::TensorArg;

Partition
syntheticPartition(const std::string &accel, int64_t frags,
                   int64_t flops_each, int64_t io_bytes = 4096)
{
    Partition p;
    p.accel = accel;
    for (int64_t i = 0; i < frags; ++i) {
        IrFragment f;
        f.opcode = "kernel" + std::to_string(i);
        f.flops = flops_each;
        TensorArg in;
        in.name += 't';
        in.name += std::to_string(i);
        in.shape = Shape{8};
        TensorArg out;
        out.name += 't';
        out.name += std::to_string(i + 1);
        out.shape = Shape{8};
        f.inputs.push_back(in);
        f.outputs.push_back(out);
        p.fragments.push_back(std::move(f));
    }
    TensorArg stream;
    stream.name = "x";
    stream.shape = Shape{io_bytes / 8};
    stream.kind = ir::EdgeKind::Input;
    p.loads.push_back(stream);
    return p;
}

TEST(Registry, AllSixBackendsRegistered)
{
    const auto &registry = standardRegistry();
    EXPECT_NE(registry.byName("RoboX"), nullptr);
    EXPECT_NE(registry.byName("Graphicionado"), nullptr);
    EXPECT_NE(registry.byName("TABLA"), nullptr);
    EXPECT_NE(registry.byName("DECO"), nullptr);
    EXPECT_NE(registry.byName("TVM-VTA"), nullptr);
    EXPECT_NE(registry.byName("HyperStreams"), nullptr);
    // Default DA accelerator is TABLA; HyperStreams only via preference.
    EXPECT_EQ(registry.forDomain(lang::Domain::DA)->name, "TABLA");
    EXPECT_EQ(registry.specFor(lang::Domain::DA, ir::Op::intern("black_scholes"))->name,
              "HyperStreams");
    EXPECT_EQ(registry.specFor(lang::Domain::DA, ir::OpCode::Sum)->name, "TABLA");
}

TEST(Registry, EveryDomainHasExactlyOneDefault)
{
    const auto &registry = standardRegistry();
    for (lang::Domain d : {lang::Domain::RBT, lang::Domain::GA,
                           lang::Domain::DSP, lang::Domain::DA,
                           lang::Domain::DL}) {
        EXPECT_NE(registry.forDomain(d), nullptr)
            << lang::toString(d);
    }
}

TEST(AnalysisLevels, DependencyChainsSequence)
{
    // t0 -> k0 -> t1 -> k1 -> t2: two levels of one fragment each.
    const auto p = syntheticPartition("TABLA", 2, 100);
    const auto levels = findBackend("TABLA")->analyze(p).levels;
    ASSERT_EQ(levels.size(), 2u);
    EXPECT_EQ(levels[0].work, 100.0);
    EXPECT_EQ(levels[1].work, 100.0);
}

TEST(AnalysisLevels, IndependentFragmentsShareALevel)
{
    Partition p;
    for (int i = 0; i < 3; ++i) {
        IrFragment f;
        f.opcode = "k";
        f.flops = 10;
        TensorArg in;
        in.name = "shared";
        TensorArg out;
        out.name = "o" + std::to_string(i);
        f.inputs.push_back(in);
        f.outputs.push_back(out);
        p.fragments.push_back(std::move(f));
    }
    const auto levels = findBackend("TABLA")->analyze(p).levels;
    ASSERT_EQ(levels.size(), 1u);
    EXPECT_EQ(levels[0].work, 30.0);
}

TEST(DmaBreakdown, ClassifiesByTypeModifier)
{
    Partition p;
    TensorArg input;
    input.name = "x";
    input.shape = Shape{10};
    input.kind = ir::EdgeKind::Input;
    TensorArg param;
    param.name = "w";
    param.shape = Shape{10};
    param.kind = ir::EdgeKind::Param;
    TensorArg state;
    state.name = "s";
    state.shape = Shape{10};
    state.kind = ir::EdgeKind::State;
    p.loads = {input, param, state};
    const auto dma = dmaBreakdown(p);
    EXPECT_EQ(dma.perRunBytes, 40);   // fp32 accelerator datapath
    EXPECT_EQ(dma.oneTimeBytes, 80);  // param + state placed once
}

class BackendInvariants : public ::testing::TestWithParam<const char *>
{
  protected:
    const Backend *backend() { return findBackend(GetParam()); }
};

TEST_P(BackendInvariants, MoreWorkTakesLonger)
{
    const auto *b = backend();
    ASSERT_NE(b, nullptr);
    WorkloadProfile prof;
    prof.vertices = 1000;
    prof.edges = 8000;
    const auto small = b->simulate(syntheticPartition(b->name(), 4, 1000),
                                   prof);
    const auto large =
        b->simulate(syntheticPartition(b->name(), 4, 100000), prof);
    EXPECT_GT(large.seconds, small.seconds * 0.999);
    EXPECT_GT(large.joules, 0.0);
    EXPECT_GT(small.seconds, 0.0);
}

TEST_P(BackendInvariants, InvocationsScaleTime)
{
    const auto *b = backend();
    ASSERT_NE(b, nullptr);
    WorkloadProfile one;
    one.vertices = 1000;
    one.edges = 8000;
    WorkloadProfile many = one;
    many.invocations = 100;
    const auto p = syntheticPartition(b->name(), 4, 50000);
    const auto t1 = b->simulate(p, one);
    const auto t100 = b->simulate(p, many);
    EXPECT_GT(t100.seconds, t1.seconds * 50.0);
    EXPECT_LE(t100.seconds, t1.seconds * 101.0);
}

TEST_P(BackendInvariants, UtilizationBounded)
{
    const auto *b = backend();
    ASSERT_NE(b, nullptr);
    WorkloadProfile prof;
    prof.vertices = 1000;
    prof.edges = 8000;
    const auto r = b->simulate(syntheticPartition(b->name(), 2, 200000),
                               prof);
    EXPECT_GE(r.utilization, 0.0);
    EXPECT_LE(r.utilization, 1.0 + 1e-9);
    EXPECT_NEAR(r.watts(), b->machine().watts, b->machine().watts + 1.0);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendInvariants,
                         ::testing::Values("RoboX", "TABLA", "DECO",
                                           "TVM-VTA", "HyperStreams",
                                           "Graphicionado"));

TEST(BackendSimulate, RefusesALedgerWithoutLedgerFacts)
{
    // Ledger labels and touched bytes are gathered at analysis; pricing
    // reads them by fragment index, so an analysis made with profiling
    // off cannot be priced with a ledger.
    for (const Backend *backend : standardBackends()) {
        SCOPED_TRACE(backend->name());
        const auto p = syntheticPartition(backend->name(), 4, 1000);
        PartitionAnalysis analysis = backend->analyze(p);
        ASSERT_FALSE(analysis.ledger);
        EXPECT_NO_THROW(backend->simulate(p, analysis, WorkloadProfile{}));
        analysis.ledger = true;
        EXPECT_THROW(backend->simulate(p, analysis, WorkloadProfile{}),
                     InternalError);
    }
}

/** A backend whose pricing reads only the facts every analysis
 *  carries. */
class FlopsOnlyBackend : public Backend
{
  public:
    FlopsOnlyBackend() : Backend("FlopsOnly", lang::Domain::DA, tablaConfig())
    {
    }

    lower::AcceleratorSpec spec() const override { return {}; }

  protected:
    PerfReport simulateImpl(const PartitionAnalysis &analysis,
                            const MachineConfig &m,
                            const WorkloadProfile &) const override
    {
        PerfReport r;
        r.machine = name();
        r.flops = analysis.flops;
        r.seconds = static_cast<double>(analysis.flops) / m.peakFlops();
        return r;
    }
};

TEST(BackendSimulate, RefusesAnAnalysisOfAnotherBackend)
{
    // A backend reads the facts its own analysis filled; another
    // backend's analysis lacks them, or carries facts it would misread.
    const auto p = syntheticPartition("TABLA", 4, 1000);
    const FlopsOnlyBackend flops_only;
    const PartitionAnalysis tabla = findBackend("TABLA")->analyze(p);
    EXPECT_THROW(flops_only.simulate(p, tabla, WorkloadProfile{}),
                 InternalError);
    EXPECT_NO_THROW(
        flops_only.simulate(p, flops_only.analyze(p), WorkloadProfile{}));
    for (const Backend *maker : standardBackends()) {
        const PartitionAnalysis analysis = maker->analyze(p);
        for (const Backend *pricer : standardBackends()) {
            SCOPED_TRACE(maker->name() + " priced by " + pricer->name());
            if (pricer == maker) {
                EXPECT_NO_THROW(
                    pricer->simulate(p, analysis, WorkloadProfile{}));
            } else {
                EXPECT_THROW(
                    pricer->simulate(p, analysis, WorkloadProfile{}),
                    InternalError);
            }
        }
    }
}

TEST(BackendSimulate, CallCounterCountsEveryConcurrentCall)
{
    // The process's one TABLA backend, shared by four threads.
    const Backend *tabla = findBackend("TABLA");
    ASSERT_NE(tabla, nullptr);
    const auto p = syntheticPartition("TABLA", 4, 1000);
    const WorkloadProfile prof;
    const obs::Counter &calls = obs::MetricsRegistry::global().counter(
        "backend.TABLA.simulate_calls");
    const int64_t before = calls.value();

    constexpr int kThreads = 4;
    constexpr int kCallsEach = 200;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < kCallsEach; ++i)
                tabla->simulate(p, prof);
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(calls.value() - before, int64_t{kThreads} * kCallsEach);

    // The autotuner's pattern: several threads price one shared backend,
    // each under its own design points' machines. Each kind's counter
    // must still see every call, and every pricing must equal the same
    // point priced alone on this thread.
    for (const Backend *backend : standardBackends()) {
        const std::string &name = backend->name();
        SCOPED_TRACE(name);
        const auto space =
            dse::ConfigSpace::forBackend(name, dse::ConfigSpace::Kind::Full);
        const auto partition = syntheticPartition(name, 4, 1000);
        const PartitionAnalysis analysis = backend->analyze(partition);
        std::vector<double> alone;
        for (int64_t i = 0; i < space.size(); ++i) {
            alone.push_back(backend
                                ->simulate(partition, analysis, prof,
                                           space.machineAt(i))
                                .seconds);
        }
        const obs::Counter &kind_calls =
            obs::MetricsRegistry::global().counter(
                "backend." + name + ".simulate_calls");
        const int64_t kind_before = kind_calls.value();

        std::vector<int64_t> mismatches(kThreads, 0);
        threads.clear();
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&, t] {
                // Thread t walks the space from its own offset, so the
                // threads price different machines at the same time.
                for (int64_t k = 0; k < space.size(); ++k) {
                    const int64_t i =
                        (k + t * space.size() / kThreads) % space.size();
                    const auto report = backend->simulate(
                        partition, analysis, prof, space.machineAt(i));
                    if (report.seconds != alone[static_cast<size_t>(i)])
                        ++mismatches[static_cast<size_t>(t)];
                }
            });
        }
        for (auto &thread : threads)
            thread.join();
        EXPECT_EQ(kind_calls.value() - kind_before,
                  int64_t{kThreads} * space.size());
        for (int t = 0; t < kThreads; ++t)
            EXPECT_EQ(mismatches[static_cast<size_t>(t)], 0) << "thread " << t;
    }
}

TEST(TransferKind, ReductionNamedLikeATransferIsPricedAsCompute)
{
    // A transfer is a fragment kind, not an opcode spelling: a user
    // reduction named `tload` or `tstore` keeps its ledger entry and is
    // priced exactly as the same reduction under any other name.
    auto program = [](const std::string &name) {
        return "reduction " + name +
               "(a, b) = a < b ? a : b;\n"
               "main(input float x[64][64], output float m[64]) {\n"
               "    index i[0:63], j[0:63];\n"
               "    m[i] = " + name + "[j](x[i][j]);\n"
               "}\n";
    };
    const auto &registry = standardRegistry();
    for (const lang::Domain dom : {lang::Domain::DA, lang::Domain::RBT}) {
        const auto plain =
            wl::compileBenchmark(program("mymin"), {}, registry, dom);
        for (const std::string alias : {"tload", "tstore"}) {
            SCOPED_TRACE(lang::toString(dom) + " " + alias);
            const auto aliased =
                wl::compileBenchmark(program(alias), {}, registry, dom);
            ASSERT_EQ(aliased.partitions.size(), plain.partitions.size());
            for (size_t i = 0; i < plain.partitions.size(); ++i) {
                const Partition &p = plain.partitions[i];
                const Partition &a = aliased.partitions[i];
                const Backend &b = *findBackend(p.accel);
                const ProfilingScope profiling;
                const PerfReport rp = b.simulate(p, b.analyze(p), {});
                const PerfReport ra = b.simulate(a, b.analyze(a), {});
                EXPECT_EQ(ra.seconds, rp.seconds);
                EXPECT_EQ(ra.joules, rp.joules);
                EXPECT_EQ(ra.flops, rp.flops);
                ASSERT_NE(rp.ledger, nullptr);
                ASSERT_NE(ra.ledger, nullptr);
                ASSERT_EQ(ra.ledger->entries.size(),
                          rp.ledger->entries.size());
                for (size_t k = 0; k < rp.ledger->entries.size(); ++k) {
                    std::string label(rp.ledger->entries[k].label);
                    if (label.rfind("mymin(", 0) == 0)
                        label.replace(0, 5, alias);
                    EXPECT_EQ(ra.ledger->entries[k].label, label);
                    EXPECT_EQ(ra.ledger->entries[k].seconds,
                              rp.ledger->entries[k].seconds);
                }
            }
        }
    }
}

TEST(FragmentWork, CountsFlopsPlusMoveElements)
{
    lower::IrFragment frag;
    frag.flops = 100;
    EXPECT_EQ(fragmentWork(frag), 100);
    frag.attrs.moveElems = 40;
    EXPECT_EQ(fragmentWork(frag), 140);
}

TEST(InvariantFragments, ParamDerivedChainsMarkedTransitively)
{
    Partition p;
    TensorArg param;
    param.name = "W";
    param.shape = Shape{8};
    param.kind = ir::EdgeKind::Param;
    TensorArg state;
    state.name = "S";
    state.shape = Shape{8};
    state.kind = ir::EdgeKind::State;
    TensorArg input;
    input.name = "x";
    input.shape = Shape{8};
    input.kind = ir::EdgeKind::Input;
    p.loads = {param, state, input};

    auto frag = [](std::string in, std::string out) {
        IrFragment f;
        f.opcode = "k";
        f.flops = 1;
        TensorArg a;
        a.name = std::move(in);
        TensorArg b;
        b.name = std::move(out);
        f.inputs.push_back(a);
        f.outputs.push_back(b);
        return f;
    };
    p.fragments.push_back(frag("W", "w2"));   // param-derived: invariant
    p.fragments.push_back(frag("w2", "w3"));  // transitively invariant
    p.fragments.push_back(frag("S", "s2"));   // state is mutable: not
    p.fragments.push_back(frag("x", "y"));    // input: not
    p.fragments.push_back(frag("w3", "z"));   // invariant again
    const auto marks = invariantFragments(p);
    ASSERT_EQ(marks.size(), 5u);
    EXPECT_TRUE(marks[0]);
    EXPECT_TRUE(marks[1]);
    EXPECT_FALSE(marks[2]);
    EXPECT_FALSE(marks[3]);
    EXPECT_TRUE(marks[4]);
}

TEST(InvariantFragments, RoboxChargesThemOnce)
{
    const auto *robox = findBackend("RoboX");
    Partition p;
    IrFragment concat;
    concat.opcode = "identity";
    concat.flops = 0;
    concat.attrs.moveElems = 100000;
    TensorArg w;
    w.name = "W";
    w.shape = Shape{100000};
    w.kind = ir::EdgeKind::Param;
    TensorArg out;
    out.name = "wcat";
    out.shape = Shape{100000};
    concat.inputs.push_back(w);
    concat.outputs.push_back(out);
    p.fragments.push_back(concat);
    p.loads.push_back(w);

    WorkloadProfile one;
    WorkloadProfile thousand;
    thousand.invocations = 1000;
    const auto t1 = robox->simulate(p, one);
    const auto t1000 = robox->simulate(p, thousand);
    // The concat of a param runs once: compute time must not scale with
    // invocations (only per-invocation dispatch overhead does).
    EXPECT_LT(t1000.computeSeconds, t1.computeSeconds * 2.0);
}

TEST(Deco, ImbalancePenalizesLopsidedStages)
{
    const Backend &deco = *findBackend("DECO");
    WorkloadProfile prof;
    // Equal totals (200k), different stage balance.
    auto balanced = syntheticPartition("DECO", 4, 50000);
    auto lopsided = syntheticPartition("DECO", 4, 50000);
    lopsided.fragments[0].flops = 10000;
    lopsided.fragments[1].flops = 20000;
    lopsided.fragments[2].flops = 150000;
    lopsided.fragments[3].flops = 20000;
    EXPECT_NEAR(deco.analyze(balanced).stageImbalance, 1.0, 1e-9);
    EXPECT_GT(deco.analyze(lopsided).stageImbalance, 2.0);
    const auto tb = deco.simulate(balanced, prof);
    const auto tl = deco.simulate(lopsided, prof);
    EXPECT_GT(tl.computeSeconds, tb.computeSeconds);
}

TEST(Graphicionado, ScalesWithDatasetNotInstance)
{
    const auto *g = findBackend("Graphicionado");
    ASSERT_NE(g, nullptr);
    // Same compiled instance, two dataset profiles.
    Partition p;
    IrFragment process;
    process.opcode = "process_edges/sum";
    process.attrs.dims = {48, 48};
    process.attrs.reduceExtent = 48;
    process.flops = 48 * 48 * 3;
    p.fragments.push_back(process);

    WorkloadProfile small;
    small.vertices = 1 << 16;
    small.edges = 1 << 20;
    WorkloadProfile big = small;
    big.edges = 1 << 24;
    const auto ts = g->simulate(p, small);
    const auto tb = g->simulate(p, big);
    EXPECT_GT(tb.seconds, ts.seconds * 4.0);
}

TEST(Vta, ResidentWeightsAmortizeStreaming)
{
    const auto *vta = findBackend("TVM-VTA");
    ASSERT_NE(vta, nullptr);
    auto layer = [](int64_t weight_elems) {
        Partition p;
        IrFragment f;
        f.opcode = "conv2d";
        f.flops = 1000000;
        TensorArg w;
        w.name = "w";
        w.shape = Shape{weight_elems};
        w.kind = ir::EdgeKind::Param;
        f.inputs.push_back(w);
        TensorArg out;
        out.name = "y";
        out.shape = Shape{64};
        f.outputs.push_back(out);
        p.fragments.push_back(std::move(f));
        return p;
    };
    WorkloadProfile many;
    many.invocations = 100;
    const auto small = vta->simulate(layer(1000), many);
    const auto huge = vta->simulate(layer(30000000), many);
    // Oversized weights re-stream every run: DRAM traffic scales ~100x.
    EXPECT_GT(huge.dramBytes, small.dramBytes * 100);
}

TEST(HyperStreams, InitiationIntervalOne)
{
    const auto *hs = findBackend("HyperStreams");
    ASSERT_NE(hs, nullptr);
    auto batch = [](int64_t options) {
        Partition p;
        IrFragment f;
        f.opcode = "pipeline/black_scholes";
        f.attrs.elements = options;
        f.flops = options * 24;
        p.fragments.push_back(std::move(f));
        return p;
    };
    WorkloadProfile prof;
    const auto t1 = hs->simulate(batch(10000), prof);
    const auto t2 = hs->simulate(batch(20000), prof);
    // Pipelined: doubling options less-than-doubles time only by the
    // fill; compute time ratio stays close to 2 but well below a
    // per-option non-pipelined cost model.
    EXPECT_NEAR(t2.computeSeconds / t1.computeSeconds, 2.0, 0.1);
    const double cycles =
        t1.computeSeconds * hs->machine().freqGhz * 1e9;
    EXPECT_LT(cycles, 10000.0 * 1.2); // ~1 option/cycle
}

TEST(CpuModel, RooflineAndEfficiencyOverride)
{
    CpuModel cpu;
    WorkloadCost cost;
    cost.domain = lang::Domain::DA;
    cost.flops = 1000000000;
    cost.bytes = 1000;
    const auto base = cpu.simulate(cost);
    cost.cpuEff = CpuModel::domainEfficiency(lang::Domain::DA, false) / 2;
    const auto slower = cpu.simulate(cost);
    EXPECT_NEAR(slower.seconds / base.seconds, 2.0, 1e-6);

    // Memory roof.
    cost.cpuEff = 0.0;
    cost.bytes = 100ll * 1000 * 1000 * 1000;
    const auto bound = cpu.simulate(cost);
    EXPECT_GT(bound.memorySeconds, bound.computeSeconds);
    EXPECT_EQ(bound.seconds, bound.memorySeconds);
}

TEST(GpuModel, OccupancyThrottlesSmallKernels)
{
    const auto titan = GpuModel::titanXp();
    WorkloadCost cost;
    cost.domain = lang::Domain::DA;
    cost.flops = 100000000;
    cost.bytes = 1000;
    cost.parallelWidth = 64; // tiny kernel
    const auto small = titan.simulate(cost);
    cost.parallelWidth = 1e7; // saturating
    const auto big = titan.simulate(cost);
    EXPECT_GT(small.seconds, big.seconds * 10);
}

TEST(GpuModel, JetsonSaturatesEarlierThanTitan)
{
    WorkloadCost cost;
    cost.domain = lang::Domain::DL;
    cost.flops = 1000000000;
    cost.bytes = 1000;
    cost.parallelWidth = 4096;
    const auto titan = GpuModel::titanXp().simulate(cost);
    const auto jetson = GpuModel::jetson().simulate(cost);
    // At this width Jetson is fully occupied while Titan is not, so the
    // per-flop gap narrows well below the 9x peak ratio.
    EXPECT_LT(titan.seconds, jetson.seconds);
    EXPECT_GT(titan.seconds, jetson.seconds / 9.0);
}

/** FNV-1a 64 of @p bytes. */
uint64_t
fnv1a(std::string_view bytes)
{
    uint64_t hash = 0xcbf29ce484222325ull;
    for (const unsigned char c : bytes) {
        hash ^= c;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

TEST(CostLedger, LabelsOutliveTheirAnalysesAndReports)
{
    // A ledger entry's label views its analysis's ledger facts. Every
    // analysis here is a temporary inside SocRuntime::execute, and the
    // programs and per-run reports are gone before rendering: the merged
    // ledger alone must keep every label alive. The digests are of the
    // renders made when labels were still owned strings.
    constexpr uint64_t kTable = 0x272ef20e02526e35ull;
    constexpr uint64_t kJson = 0xe289eac451137663ull;
    PerfReport merged;
    for (const auto &bench : wl::tableIII()) {
        const auto program = wl::compileBenchmark(
            bench.source, bench.buildOpts, standardRegistry(), bench.domain);
        soc::SocResult result;
        {
            const ProfilingScope profiling;
            result = soc::SocRuntime().execute(program, bench.profile);
        }
        for (const auto &part : result.partitions)
            merged += part;
    }
    ASSERT_NE(merged.ledger, nullptr);
    EXPECT_GT(merged.ledger->labelSources.size(), 1u);
    const std::string table = profileTable(merged, 0);
    const std::string json = profileJson(merged);
    EXPECT_EQ(fnv1a(table), kTable) << std::hex << "0x" << fnv1a(table);
    EXPECT_EQ(fnv1a(json), kJson) << std::hex << "0x" << fnv1a(json);
}

TEST(PartitionAnalysis, ComparesLedgerFactsByValue)
{
    const Backend *tabla = findBackend("TABLA");
    const auto p = syntheticPartition("TABLA", 4, 1000);
    const auto q = syntheticPartition("TABLA", 5, 1000);
    PartitionAnalysis a, b, c;
    {
        const ProfilingScope profiling;
        a = tabla->analyze(p);
        b = tabla->analyze(p);
        c = tabla->analyze(q);
    }
    ASSERT_NE(a.ledgerFacts, b.ledgerFacts);
    EXPECT_TRUE(a == b);
    EXPECT_FALSE(a == c);
    PartitionAnalysis plain = tabla->analyze(p);
    EXPECT_FALSE(a == plain);
    plain.ledger = true;
    EXPECT_FALSE(a == plain) << "null facts equal non-null ones";
}

TEST(PerfReport, SpeedupEnergyAndPpwHelpers)
{
    PerfReport a;
    a.seconds = 2.0;
    a.joules = 100.0;
    PerfReport b;
    b.seconds = 1.0;
    b.joules = 10.0;
    EXPECT_DOUBLE_EQ(speedup(a, b), 2.0);
    EXPECT_DOUBLE_EQ(energyReduction(a, b), 10.0);
    EXPECT_DOUBLE_EQ(ppwImprovement(a, b), 10.0);
    PerfReport sum = a;
    sum += b;
    EXPECT_DOUBLE_EQ(sum.seconds, 3.0);
    EXPECT_DOUBLE_EQ(sum.joules, 110.0);
}

} // namespace
} // namespace polymath::target
