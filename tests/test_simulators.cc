/**
 * @file
 * Tests for the high-fidelity simulation engines (the trace-driven
 * Graphicionado pipeline and the TABLA list scheduler) and for srDFG JSON
 * serialization.
 */
#include <gtest/gtest.h>

#include "interp/interpreter.h"
#include "core/rng.h"
#include "srdfg/builder.h"
#include "srdfg/printer.h"
#include "srdfg/serialize.h"
#include "targets/common/backend.h"
#include "targets/graphicionado/pipeline_sim.h"
#include "targets/deco/chain_mapper.h"
#include "targets/tabla/scheduler.h"
#include "targets/vta/tiler.h"
#include "workloads/datasets.h"
#include "workloads/programs.h"
#include "workloads/suite.h"

namespace polymath {
namespace {

// --- Graphicionado trace simulator ------------------------------------------

TEST(TraceSim, DeterministicAndCountsEdges)
{
    const auto graph = wl::rmatGraph(1 << 12, 1 << 15, 99);
    target::TraceConfig config;
    const auto a = target::simulateEdgeStream(graph.edgeList,
                                              graph.vertices, 4, config);
    const auto b = target::simulateEdgeStream(graph.edgeList,
                                              graph.vertices, 4, config);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.bankConflicts, b.bankConflicts);
    EXPECT_EQ(a.edgesProcessed, graph.edges() * 4);
}

TEST(TraceSim, ConflictFreeTraceHitsPeakThroughput)
{
    // Destinations strided across banks: zero conflicts, 1 edge per pipe
    // per cycle.
    target::TraceConfig config;
    std::vector<std::pair<int32_t, int32_t>> edges;
    for (int32_t i = 0; i < 8192; ++i)
        edges.push_back({0, i % (config.pipes * config.banksPerPipe)});
    const auto r =
        target::simulateEdgeStream(edges, 1 << 16, 1, config);
    EXPECT_EQ(r.bankConflicts, 0);
    // Sweep cycles ~ edges / pipes (+ apply phase).
    EXPECT_LE(r.cycles,
              static_cast<int64_t>(edges.size()) / config.pipes +
                  (int64_t{1} << 16) / config.pipes + 16);
}

TEST(TraceSim, AllSameBankSerializesButCoalescesSameVertex)
{
    target::TraceConfig config;
    const int banks = config.pipes * config.banksPerPipe;

    // Same bank, distinct vertices: every group serializes pipes-1 edges.
    std::vector<std::pair<int32_t, int32_t>> conflicting;
    for (int32_t i = 0; i < 800; ++i)
        conflicting.push_back({0, static_cast<int32_t>((i % 7) * banks)});
    const auto serial = target::simulateEdgeStream(conflicting, 1 << 12, 1,
                                                   config);
    EXPECT_GT(serial.bankConflicts, 500);

    // Same vertex everywhere: the atomic-update unit coalesces.
    std::vector<std::pair<int32_t, int32_t>> hub(
        800, {0, 42});
    const auto coalesced =
        target::simulateEdgeStream(hub, 1 << 12, 1, config);
    EXPECT_EQ(coalesced.bankConflicts, 0);
    EXPECT_LT(coalesced.cycles, serial.cycles);
}

TEST(TraceSim, ScratchpadOverflowCostsMisses)
{
    const auto graph = wl::rmatGraph(1 << 10, 1 << 13, 7);
    target::TraceConfig config;
    config.scratchpadBytes = 1 << 20; // fits
    const auto resident = target::simulateEdgeStream(
        graph.edgeList, graph.vertices, 1, config);
    EXPECT_TRUE(resident.scratchpadResident);
    EXPECT_EQ(resident.vertexMisses, 0);

    config.scratchpadBytes = 1 << 10; // does not fit
    const auto missing = target::simulateEdgeStream(
        graph.edgeList, graph.vertices, 1, config);
    EXPECT_FALSE(missing.scratchpadResident);
    EXPECT_GT(missing.vertexMisses, 0);
    EXPECT_GT(missing.cycles, resident.cycles);
    EXPECT_GT(missing.dramBytes, resident.dramBytes);
}

TEST(TraceSim, WithinBandOfAnalyticModel)
{
    const auto &bench = wl::benchmarkById("Wiki-BFS");
    const auto &registry = target::standardRegistry();
    const auto *gcn = target::findBackend("Graphicionado");
    const auto compiled = wl::compileBenchmark(
        bench.source, bench.buildOpts, registry, bench.domain);
    const auto analytic =
        gcn->simulate(compiled.partitions.front(), bench.profile);

    const auto graph =
        wl::rmatGraph(bench.profile.vertices, bench.profile.edges, 1234);
    auto config = target::TraceConfig::fromMachine(gcn->machine());
    const auto trace = target::simulateEdgeStream(
        graph.edgeList, graph.vertices, bench.profile.invocations, config);
    const double ratio =
        trace.toReport(config).seconds / analytic.seconds;
    EXPECT_GT(ratio, 0.5);
    EXPECT_LT(ratio, 2.5);
}

// --- TABLA list scheduler -----------------------------------------------------

lower::Partition
chain(int64_t n, int64_t flops_each)
{
    lower::Partition p;
    for (int64_t i = 0; i < n; ++i) {
        lower::IrFragment f;
        f.opcode = "k" + std::to_string(i);
        f.flops = flops_each;
        lower::TensorArg in;
        in.name = "t" + std::to_string(i);
        in.shape = Shape{64};
        lower::TensorArg out;
        out.name = "t" + std::to_string(i + 1);
        out.shape = Shape{64};
        f.inputs.push_back(in);
        f.outputs.push_back(out);
        p.fragments.push_back(std::move(f));
    }
    return p;
}

TEST(Scheduler, ChainSerializesIndependentWorkParallelizes)
{
    target::ScheduleConfig config;
    config.pes = 64;
    const auto serial = target::listSchedule(chain(4, 6400), config);

    lower::Partition parallel;
    for (int i = 0; i < 4; ++i) {
        lower::IrFragment f;
        f.opcode = "k";
        f.flops = 6400;
        lower::TensorArg in;
        in.name = "x" + std::to_string(i);
        in.shape = Shape{64};
        lower::TensorArg out;
        out.name = "y" + std::to_string(i);
        out.shape = Shape{64};
        f.inputs.push_back(in);
        f.outputs.push_back(out);
        parallel.fragments.push_back(std::move(f));
    }
    const auto wide = target::listSchedule(parallel, config);
    EXPECT_LT(wide.cycles, serial.cycles);
    EXPECT_GT(wide.peOccupancy, serial.peOccupancy * 0.9);
}

TEST(Scheduler, MakespanRespectsDependencies)
{
    target::ScheduleConfig config;
    const auto result = target::listSchedule(chain(5, 1000), config);
    ASSERT_EQ(result.fragments.size(), 5u);
    for (size_t i = 1; i < result.fragments.size(); ++i) {
        EXPECT_GE(result.fragments[i].startCycle,
                  result.fragments[i - 1].finishCycle);
    }
    EXPECT_GT(result.cycles, 0);
    EXPECT_LE(result.peOccupancy, 1.0 + 1e-9);
}

TEST(Scheduler, BusChargesEachTensorOnce)
{
    lower::Partition p;
    for (int i = 0; i < 3; ++i) {
        lower::IrFragment f;
        f.opcode = "k";
        f.flops = 100;
        lower::TensorArg shared;
        shared.name = "x"; // same big operand three times
        shared.shape = Shape{100000};
        f.inputs.push_back(shared);
        lower::TensorArg out;
        out.name = "y" + std::to_string(i);
        out.shape = Shape{1};
        f.outputs.push_back(out);
        p.fragments.push_back(std::move(f));
    }
    target::ScheduleConfig config;
    const auto r = target::listSchedule(p, config);
    // 100000 words / 64 per cycle = 1563 cycles, charged once.
    EXPECT_LT(r.busCycles, 2000);
}

TEST(Scheduler, RealWorkloadSchedulesAndBoundsAnalytic)
{
    const auto &registry = target::standardRegistry();
    const auto &bench = wl::benchmarkById("MovieL-100K");
    const auto compiled = wl::compileBenchmark(
        bench.source, bench.buildOpts, registry, bench.domain);
    target::ScheduleConfig config;
    const auto r =
        target::listSchedule(compiled.partitions.front(), config);
    EXPECT_GT(r.cycles, 0);
    EXPECT_GT(r.fragments.size(), 5u);
    EXPECT_FALSE(r.str().empty());
}

// --- DECO chain mapper -----------------------------------------------------------

TEST(ChainMapper, FusesLinearElementwisePipelines)
{
    // a -> mul -> add -> sigmoid over the same element count: one chain.
    lower::Partition p;
    auto frag = [](const char *op, const char *in, const char *out,
                   int64_t elems) {
        lower::IrFragment f;
        f.opcode = op;
        f.flops = elems;
        f.attrs["dim0"] = elems;
        lower::TensorArg a;
        a.name = in;
        lower::TensorArg b;
        b.name = out;
        f.inputs.push_back(a);
        f.outputs.push_back(b);
        return f;
    };
    p.fragments.push_back(frag("mul", "x", "t1", 512));
    p.fragments.push_back(frag("add", "t1", "t2", 512));
    p.fragments.push_back(frag("sigmoid", "t2", "y", 512));
    const auto map = target::mapChains(p, {});
    ASSERT_EQ(map.chains.size(), 1u);
    EXPECT_EQ(map.chains[0].ops.size(), 3u);
    EXPECT_EQ(map.waves, 1);
    // II=1: ~512 cycles regardless of chain depth.
    EXPECT_LE(map.cycles, 512);
}

TEST(ChainMapper, DifferentExtentsBreakChains)
{
    lower::Partition p;
    auto frag = [](const char *in, const char *out, int64_t elems) {
        lower::IrFragment f;
        f.opcode = "k";
        f.flops = elems;
        f.attrs["dim0"] = elems;
        lower::TensorArg a;
        a.name = in;
        lower::TensorArg b;
        b.name = out;
        f.inputs.push_back(a);
        f.outputs.push_back(b);
        return f;
    };
    p.fragments.push_back(frag("x", "t", 512));
    p.fragments.push_back(frag("t", "y", 64)); // reduction-like shrink
    const auto map = target::mapChains(p, {});
    EXPECT_EQ(map.chains.size(), 2u);
    EXPECT_EQ(map.waves, 2);
}

TEST(ChainMapper, RealDspWorkloadsMapCompletely)
{
    const auto &registry = target::standardRegistry();
    for (const char *id : {"FFT-8192", "DCT-1024"}) {
        const auto &bench = wl::benchmarkById(id);
        const auto compiled = wl::compileBenchmark(
            bench.source, bench.buildOpts, registry, bench.domain);
        const auto map =
            target::mapChains(compiled.partitions.front(), {});
        EXPECT_GT(map.chains.size(), 0u) << id;
        EXPECT_GT(map.cycles, 0) << id;
        EXPECT_LE(map.dspUtilization, 1.0) << id;
        EXPECT_FALSE(map.str().empty()) << id;
        // Every compute fragment lands in exactly one chain.
        size_t mapped_ops = 0;
        for (const auto &chain : map.chains)
            mapped_ops += chain.ops.size();
        size_t compute_frags = 0;
        for (const auto &frag : compiled.partitions.front().fragments) {
            compute_frags +=
                frag.opcode != "tload" && frag.opcode != "tstore" &&
                (frag.flops > 0 || frag.attrs.count("move_elems"));
        }
        EXPECT_EQ(mapped_ops, compute_frags) << id;
    }
}

// --- VTA tiler -----------------------------------------------------------------

TEST(VtaTiler, PlansEveryResnetLayer)
{
    const target::VtaTileConfig config;
    for (const auto &layer : target::resnet18Layers()) {
        const auto plan = target::planLayer(layer, config);
        EXPECT_GT(plan.totalCycles, 0) << layer.name;
        EXPECT_GT(plan.tiles, 0) << layer.name;
        EXPECT_GT(plan.utilization, 0.0) << layer.name;
        EXPECT_LE(plan.utilization, 1.0 + 1e-9) << layer.name;
        // The tile working set honors the buffers.
        const int64_t reduce =
            layer.inChannels * layer.kernel * layer.kernel;
        EXPECT_LE(plan.tileRows * reduce, config.inputBufBytes)
            << layer.name;
        EXPECT_LE(plan.tileCols * reduce, config.weightBufBytes)
            << layer.name;
    }
}

TEST(VtaTiler, BiggerBuffersNeverHurt)
{
    target::VtaTileConfig small;
    small.inputBufBytes = 96 * 1024;
    small.weightBufBytes = 96 * 1024;
    small.accumBufBytes = 32 * 1024;
    target::VtaTileConfig big;
    for (const auto &layer : target::resnet18Layers()) {
        const auto a = target::planLayer(layer, small);
        const auto b = target::planLayer(layer, big);
        EXPECT_GE(a.totalCycles, b.totalCycles) << layer.name;
    }
}

TEST(VtaTiler, PartialTilesLowerUtilization)
{
    target::VtaTileConfig config;
    target::LayerShape ragged;
    ragged.name = "ragged";
    ragged.inChannels = 64;
    ragged.outChannels = 17; // not a multiple of the GEMM core
    ragged.outHeight = 9;
    ragged.outWidth = 9;
    ragged.kernel = 3;
    const auto plan = target::planLayer(ragged, config);
    EXPECT_LT(plan.utilization, 0.95);
}

TEST(VtaTiler, ResnetTotalsMatchKnownMacs)
{
    double total = 0;
    for (const auto &layer : target::resnet18Layers())
        total += static_cast<double>(layer.macs());
    EXPECT_NEAR(total, 1.82e9, 0.1e9); // published ResNet-18 MAC count
}

// --- serialization --------------------------------------------------------------

TEST(Serialize, RoundTripPreservesStructureAndSemantics)
{
    auto g = ir::compileToSrdfg(wl::mobileRobotProgram());
    const auto json = ir::toJson(*g);
    auto restored = ir::fromJson(json, g->context);

    EXPECT_EQ(restored->liveNodeCount(), g->liveNodeCount());
    EXPECT_EQ(restored->scalarOpCount(), g->scalarOpCount());
    EXPECT_EQ(restored->inputs.size(), g->inputs.size());
    EXPECT_EQ(ir::printGraph(*restored), ir::printGraph(*g));

    // Same functional behavior.
    Rng rng(5);
    std::map<std::string, Tensor> in;
    for (ir::ValueId v : g->inputs) {
        const auto &md = g->value(v).md;
        Tensor t(DType::Float, md.shape);
        for (int64_t i = 0; i < t.numel(); ++i)
            t.at(i) = rng.gaussian() * 0.1;
        in[md.name] = t;
    }
    const auto a = interp::evaluate(*g, in);
    const auto b = interp::evaluate(*restored, in);
    for (const auto &[name, tensor] : a)
        EXPECT_LT(Tensor::maxAbsDiff(tensor, b.at(name)), 1e-15) << name;
}

TEST(Serialize, RoundTripWithGuardsAndCustomReductions)
{
    auto g = ir::compileToSrdfg(
        "reduction mymax(a, b) = a > b ? a : b;"
        "main(input float A[4][4], output float s, output float m) {"
        " index i[0:3], j[0:3];"
        " s = sum[i][j: j != i](A[i][j]);"
        " m = mymax[i][j](A[i][j]); }");
    auto restored = ir::fromJson(ir::toJson(*g), g->context);
    Tensor a(DType::Float, Shape{4, 4});
    Rng rng(8);
    for (int64_t i = 0; i < 16; ++i)
        a.at(i) = rng.uniform(-3, 3);
    const auto x = interp::evaluate(*g, {{"A", a}});
    const auto y = interp::evaluate(*restored, {{"A", a}});
    EXPECT_EQ(x.at("s").scalarValue(), y.at("s").scalarValue());
    EXPECT_EQ(x.at("m").scalarValue(), y.at("m").scalarValue());
}

TEST(Serialize, IndexOperandAccessesSurvive)
{
    auto g = ir::compileToSrdfg(
        "main(input float x[6], output float y[6], output float s) {"
        " index i[0:5];"
        " y[i] = x[i]*i;"
        " s = sum[i](x[i]*(i+1)); }");
    auto restored = ir::fromJson(ir::toJson(*g), g->context);
    const Tensor x = Tensor::vec({1, 1, 1, 1, 1, 1});
    const auto a = interp::evaluate(*g, {{"x", x}});
    const auto b = interp::evaluate(*restored, {{"x", x}});
    EXPECT_EQ(b.at("y").at(int64_t{4}), 4.0);
    EXPECT_EQ(a.at("s").scalarValue(), b.at("s").scalarValue());
    EXPECT_EQ(b.at("s").scalarValue(), 21.0);
}

TEST(Serialize, RejectsMalformedInput)
{
    EXPECT_THROW(ir::fromJson("{", nullptr), UserError);
    EXPECT_THROW(ir::fromJson("[1,2,3]", nullptr), UserError);
    EXPECT_THROW(ir::fromJson("{\"name\":\"x\"}", nullptr), UserError);
}

TEST(Serialize, ComplexProgramsSurvive)
{
    auto g = ir::compileToSrdfg(wl::fftProgram(64));
    auto restored = ir::fromJson(ir::toJson(*g), g->context);
    const auto signal = wl::complexSignal(64, 3);
    const auto tw = wl::twiddleTable(64);
    const auto a =
        interp::evaluate(*g, {{"x", signal}, {"tw", tw}});
    const auto b =
        interp::evaluate(*restored, {{"x", signal}, {"tw", tw}});
    EXPECT_LT(Tensor::maxAbsDiff(a.at("y"), b.at("y")), 1e-15);
}

} // namespace
} // namespace polymath
