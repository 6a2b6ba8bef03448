/**
 * @file
 * Algorithm 1/2 tests: component splicing, granularity-targeted lowering
 * against per-domain Ot sets, compile failure on unsupported ops,
 * translation to fragments, boundary load/store insertion, partitioning,
 * and multi-accelerator domain splitting.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string_view>

#include "core/strings.h"
#include "interp/interpreter.h"
#include "lower/compile.h"
#include "lower/lower.h"
#include "srdfg/builder.h"
#include "srdfg/traversal.h"
#include "targets/common/backend.h"
#include "targets/common/op_sets.h"
#include "workloads/programs.h"
#include "workloads/suite.h"

namespace polymath {
namespace {

using lang::Domain;
using lower::AcceleratorRegistry;
using lower::AcceleratorSpec;

const char *const kTwoLevel = R"(
scale(input float x[n], param float f, output float y[n]) {
    index i[0:n-1];
    y[i] = x[i]*f;
}
main(input float a[4], param float f, output float b[4]) {
    DSP: scale(a, f, b);
}
)";

TEST(Splice, InlinesSubgraphAndPreservesSemantics)
{
    auto g = ir::compileToSrdfg(kTwoLevel);
    ASSERT_EQ(ir::recursionDepth(*g), 2);
    ir::NodeId comp = -1;
    for (const auto &node : g->nodePool()) {
        if (node.live() && node.kind == ir::NodeKind::Component)
            comp = node.id;
    }
    ASSERT_GE(comp, 0);
    lower::spliceComponent(*g, comp);
    g->validate();
    EXPECT_EQ(ir::recursionDepth(*g), 1);

    auto out = interp::evaluate(*g, {{"a", Tensor::vec({1, 2, 3, 4})},
                                     {"f", Tensor::scalar(2.0)}});
    EXPECT_EQ(out.at("b").at(int64_t{3}), 8.0);
}

TEST(Splice, PassThroughStateAliases)
{
    auto g = ir::compileToSrdfg(R"(
peek(state float s[2], output float y) {
    y = s[0];
}
main(state float s[2], output float y) {
    RBT: peek(s, y);
}
)");
    for (const auto &node : g->nodePool()) {
        if (node.live() && node.kind == ir::NodeKind::Component) {
            lower::spliceComponent(*g, node.id);
            break;
        }
    }
    g->validate();
    auto out = interp::evaluate(*g, {{"s", Tensor::vec({42, 0})}});
    EXPECT_EQ(out.at("y").scalarValue(), 42.0);
    EXPECT_EQ(out.at("s").at(int64_t{0}), 42.0); // state passes through
}

TEST(Lower, SplicesOnlyUnsupportedComponents)
{
    // A target accepting `scale` whole keeps it; one accepting only ALU
    // ops splices it.
    auto keep = ir::compileToSrdfg(kTwoLevel);
    lower::SupportedOps om;
    om[Domain::DSP] = {ir::Op::intern("scale"), ir::OpCode::Const};
    lower::lowerGraph(*keep, om);
    EXPECT_EQ(ir::recursionDepth(*keep), 2);

    auto splice = ir::compileToSrdfg(kTwoLevel);
    om[Domain::DSP] = target::scalarAluOps();
    lower::lowerGraph(*splice, om);
    EXPECT_EQ(ir::recursionDepth(*splice), 1);
}

TEST(Lower, FailsOnUnsupportedOp)
{
    auto g = ir::compileToSrdfg(
        "main(input float x[2], output float y[2]) {"
        " index i[0:1]; y[i] = sigmoid(x[i]); }");
    lower::SupportedOps om;
    om[Domain::None] = target::scalarAluOps(); // no sigmoid
    EXPECT_THROW(lower::lowerGraph(*g, om), UserError);
}

TEST(Lower, CustomReductionAdmittedByWildcard)
{
    auto g = ir::compileToSrdfg(
        "reduction mymin(a, b) = a < b ? a : b;"
        "main(input float x[4], output float m) {"
        " index i[0:3]; m = mymin[i](x[i]); }");
    lower::SupportedOps om;
    om[Domain::None] = target::scalarAluOps();
    EXPECT_THROW(lower::lowerGraph(*g, om), UserError);

    auto g2 = ir::compileToSrdfg(
        "reduction mymin(a, b) = a < b ? a : b;"
        "main(input float x[4], output float m) {"
        " index i[0:3]; m = mymin[i](x[i]); }");
    om[Domain::None].insert("@custom_reduce");
    EXPECT_NO_THROW(lower::lowerGraph(*g2, om));
}

TEST(Lower, DnnStaysAtLayerGranularityForVta)
{
    const auto &registry = target::standardRegistry();
    auto g = ir::compileToSrdfg(wl::mobilenetProgram());
    lower::lowerGraph(*g, registry.supportedOpsByDomain(), Domain::DL);
    // VTA consumes whole layers: conv components survive lowering.
    int64_t convs = 0;
    for (const auto &node : g->nodePool()) {
        if (node.live() && node.kind == ir::NodeKind::Component)
            convs += node.op == ir::Op::intern("conv2d") ||
                     node.op == ir::Op::intern("conv2d_dw");
    }
    EXPECT_GT(convs, 10);
}

TEST(Lower, SameProgramFullyFlattensForTabla)
{
    const auto &registry = target::standardRegistry();
    auto g = ir::compileToSrdfg(wl::lrmfProgram(6, 8, 3));
    lower::lowerGraph(*g, registry.supportedOpsByDomain(), Domain::DA);
    EXPECT_EQ(ir::recursionDepth(*g), 1);
}

// --- Algorithm 2 -------------------------------------------------------------

TEST(Compile, FragmentsCarryOperandsAndStats)
{
    const auto &registry = target::standardRegistry();
    const auto compiled = wl::compileBenchmark(
        "main(input float A[4][3], input float x[3], output float y[4]) {"
        " index i[0:2], j[0:3]; y[j] = sum[i](A[j][i]*x[i]); }",
        {}, registry, Domain::DA);
    ASSERT_EQ(compiled.partitions.size(), 1u);
    const auto &part = compiled.partitions.front();
    EXPECT_EQ(part.accel, "TABLA");
    EXPECT_EQ(part.flops(), 20); // 12 multiplies + 4 x (3-1) adds

    bool has_reduce = false;
    for (const auto &frag : part.fragments) {
        if (frag.opcode == "sum") {
            has_reduce = true;
            EXPECT_EQ(frag.attrs.reduceExtent, 3);
            EXPECT_EQ(frag.flops, 8); // 4 outputs x (3-1)
        }
    }
    EXPECT_TRUE(has_reduce);
}

TEST(Compile, LoadsAndStoresAtBoundary)
{
    const auto &registry = target::standardRegistry();
    const auto compiled = wl::compileBenchmark(
        "main(input float x[8], param float p[8], state float s[8]) {"
        " index i[0:7]; s[i] = s[i] + x[i]*p[i]; }",
        {}, registry, Domain::DA);
    const auto &part = compiled.partitions.front();
    const auto dma = target::dmaBreakdown(part);
    // x streams per run (fp32: 8*4); p and s place once (8*4 each + the
    // state store-back also classified as state).
    EXPECT_EQ(dma.perRunBytes, 32);
    EXPECT_GT(dma.oneTimeBytes, 0);
}

TEST(Compile, CrossDomainTransfersInserted)
{
    const auto &registry = target::standardRegistry();
    const auto compiled = wl::compileBenchmark(R"(
stage1(input float x[8], output float y[8]) {
    index i[0:7];
    y[i] = x[i]*2;
}
stage2(input float y[8], output float z) {
    index i[0:7];
    z = sum[i](y[i]);
}
main(input float x[8], output float z) {
    float y[8];
    DSP: stage1(x, y);
    DA: stage2(y, z);
}
)",
                                               {}, registry, Domain::None);
    // Two partitions with a dependency and a stored/loaded tensor y.
    ASSERT_EQ(compiled.partitions.size(), 2u);
    const auto &second = compiled.partitions[1];
    ASSERT_EQ(second.deps.size(), 1u);
    EXPECT_EQ(second.deps[0], 0);
    bool y_stored = false;
    for (const auto &s : compiled.partitions[0].stores)
        y_stored |= s.tensor.name == "y";
    EXPECT_TRUE(y_stored);
    EXPECT_GT(compiled.transferBytes(), 0);
}

TEST(Compile, AffinityKeepsDomainsContiguous)
{
    const auto &registry = target::standardRegistry();
    const auto compiled = wl::compileBenchmark(wl::brainStimulProgram(), {},
                                               registry, Domain::None);
    // The three-domain app may split RoboX around the TABLA dependency but
    // must not shatter into per-node partitions.
    EXPECT_LE(compiled.partitions.size(), 5u);
    EXPECT_GE(compiled.partitions.size(), 3u);
}

TEST(Compile, PreferredComponentSplitsDataAnalytics)
{
    const auto &registry = target::standardRegistry();
    const auto compiled = wl::compileBenchmark(wl::optionPricingProgram(),
                                               {}, registry, Domain::None);
    std::set<std::string> accels;
    for (const auto &part : compiled.partitions)
        accels.insert(part.accel);
    EXPECT_TRUE(accels.count("TABLA"));
    EXPECT_TRUE(accels.count("HyperStreams"));
    // Black-Scholes arrives whole at HyperStreams.
    bool pipeline_frag = false;
    for (const auto &part : compiled.partitions) {
        for (const auto &frag : part.fragments)
            pipeline_frag |= frag.opcode == "pipeline/black_scholes";
    }
    EXPECT_TRUE(pipeline_frag);
}

TEST(Compile, NoRegisteredDomainIsUserError)
{
    AcceleratorRegistry empty;
    auto g = ir::compileToSrdfg(
        "main(input float x, output float y) { y = x; }");
    EXPECT_THROW(lower::compileProgram(*g, empty, Domain::DA), UserError);
}

TEST(Compile, ProgramRenderingIsStable)
{
    const auto &registry = target::standardRegistry();
    const auto compiled = wl::compileBenchmark(
        "main(input float x[4], output float y[4]) {"
        " index i[0:3]; y[i] = x[i]+1; }",
        {}, registry, Domain::DSP);
    const auto text = compiled.str();
    EXPECT_NE(text.find("DECO"), std::string::npos);
    EXPECT_NE(text.find("tload"), std::string::npos);
    EXPECT_NE(text.find("tstore"), std::string::npos);
}


// The listing renderer as it was written before it appended in place and
// before πd became a view of the partitions: one temporary per operand,
// attribute and line, attributes through a string-keyed map, and each πd
// replayed in Algorithm 2's emission order. Kept as the byte-level
// reference for IrFragment::str() and CompiledProgram::render().
std::string
referenceFragmentStr(const lower::IrFragment &f, const std::string &tag = "")
{
    std::string out = tag;
    if (f.kind == lower::FragmentKind::Load)
        out += "tload";
    else if (f.kind == lower::FragmentKind::Store)
        out += "tstore";
    else
        out += f.opcode;
    out += "(";
    bool first = true;
    for (const auto &in : f.inputs) {
        if (!first)
            out += ", ";
        first = false;
        out += in.name + in.shape.str();
    }
    out += " -> ";
    first = true;
    for (const auto &o : f.outputs) {
        if (!first)
            out += ", ";
        first = false;
        out += o.name + o.shape.str();
    }
    out += ")";
    const lower::FragmentAttrs &a = f.attrs;
    std::map<std::string, int64_t> attrs;
    if (a.bytes)
        attrs["bytes"] = *a.bytes;
    if (a.constBits)
        attrs["const_bits"] = *a.constBits;
    for (size_t i = 0; i < a.dims.size(); ++i)
        attrs["dim" + std::to_string(i)] = a.dims[i];
    if (a.elements)
        attrs["elements"] = *a.elements;
    if (a.guarded)
        attrs["guarded"] = 1;
    if (a.moveElems)
        attrs["move_elems"] = *a.moveElems;
    if (a.reduceExtent)
        attrs["reduce_extent"] = *a.reduceExtent;
    for (const auto &[k, v] : attrs)
        out += " " + k + "=" + std::to_string(v);
    if (f.flops)
        out += format(" flops=%lld", static_cast<long long>(f.flops));
    return out;
}

std::string
referenceRender(const lower::CompiledProgram &cp)
{
    // Replays emission: a store lands in its producer's πd just before the
    // fragment of the consumer it was emitted for; graph outputs last, in
    // graph.outputs order. A πd takes the domain of its first partition.
    struct Program
    {
        Domain domain = Domain::None;
        std::vector<std::string> lines;
    };
    std::map<std::string, Program> programs;
    auto emit = [&](const lower::Partition &p, const std::string &line) {
        auto [it, fresh] = programs.try_emplace(p.accel);
        if (fresh)
            it->second.domain = p.domain;
        it->second.lines.push_back(line);
    };
    auto emit_stores = [&](int consumer, int at) {
        for (const auto &p : cp.partitions) {
            for (const auto &s : p.stores) {
                if (s.consumer != consumer || s.at != at)
                    continue;
                lower::IrFragment store;
                store.kind = lower::FragmentKind::Store;
                store.outputs = {s.tensor};
                store.attrs.bytes = s.tensor.bytes();
                emit(p, referenceFragmentStr(store));
            }
        }
    };
    int outputs = 0;
    for (size_t q = 0; q < cp.partitions.size(); ++q) {
        const auto &p = cp.partitions[q];
        for (size_t j = 0; j < p.fragments.size(); ++j) {
            emit_stores(static_cast<int>(q), static_cast<int>(j));
            const auto &f = p.fragments[j];
            emit(p, referenceFragmentStr(
                        f, p.listingTag && f.kind == lower::FragmentKind::Compute
                               ? std::string(p.listingTag(f))
                               : ""));
        }
        for (const auto &s : p.stores) {
            if (s.consumer == lower::StoredTensor::kGraphOutput)
                outputs = std::max(outputs, s.at + 1);
        }
    }
    for (int k = 0; k < outputs; ++k)
        emit_stores(lower::StoredTensor::kGraphOutput, k);

    std::string out;
    for (const auto &[accel, prog] : programs) {
        out += "program " + lang::toString(prog.domain) + " on " + accel +
               " (" + std::to_string(prog.lines.size()) + " fragments)\n";
        for (const auto &line : prog.lines)
            out += "  " + line + "\n";
    }
    out += format("schedule: %zu partitions, %lld boundary bytes\n",
                  cp.partitions.size(),
                  static_cast<long long>(cp.transferBytes()));
    for (size_t i = 0; i < cp.partitions.size(); ++i) {
        const auto &p = cp.partitions[i];
        out += format("  [%zu] %s %s: %zu frags, load %lld B, store %lld B,"
                      " deps:",
                      i, lang::toString(p.domain).c_str(), p.accel.c_str(),
                      p.fragments.size(),
                      static_cast<long long>(p.loadBytes()),
                      static_cast<long long>(p.storeBytes()));
        for (int d : p.deps) {
            out += ' '; // `" " + to_string` trips GCC 12's -Wrestrict
            out += std::to_string(d);
        }
        out += "\n";
    }
    return out;
}

/** A test listing rule: tags reductions, leaves the rest bare. */
std::string_view
reduceTag(const lower::IrFragment &f)
{
    return f.attrs.reduceExtent ? "r/" : "";
}

TEST(CompiledProgram, RenderMatchesReference)
{
    const auto &registry = target::standardRegistry();
    for (const auto &bench : wl::tableIII()) {
        SCOPED_TRACE(bench.id);
        const auto compiled = wl::compileBenchmark(
            bench.source, bench.buildOpts, registry, bench.domain);
        EXPECT_EQ(compiled.render(), referenceRender(compiled));
        EXPECT_EQ(compiled.str(), referenceRender(compiled));
    }
    for (const auto &app : wl::tableIV()) {
        SCOPED_TRACE(app.id);
        const auto compiled = wl::compileBenchmark(
            app.source, app.buildOpts, registry, Domain::None);
        EXPECT_EQ(compiled.render(), referenceRender(compiled));
    }

    // Hand-built fragments over the corners the suite may not reach:
    // every attribute, extreme values, and eleven dims (dim10 sorts
    // before dim2, as the string-keyed map ordered them).
    lower::IrFragment none;
    none.opcode = "const";
    none.outputs.push_back({"c", Shape(), DType::Float, {}});
    lower::IrFragment rank3;
    rank3.kind = lower::FragmentKind::Load;
    rank3.inputs.push_back({"base", Shape({2, 30, 400}), DType::Int, {}});
    rank3.inputs.push_back({"s", Shape(), DType::Float, {}});
    rank3.outputs.push_back({"%17", Shape({2, 30, 400}), DType::Int, {}});
    rank3.outputs.push_back({"t", Shape({0}), DType::Complex, {}});
    rank3.attrs.bytes = INT64_MIN;
    rank3.attrs.constBits = -7;
    rank3.attrs.dims = {2, 30, 400, 0, -1, 5, 6, 7, 8, 9, INT64_MAX};
    rank3.attrs.elements = 0;
    rank3.attrs.guarded = true;
    rank3.attrs.moveElems = INT64_MAX;
    rank3.attrs.reduceExtent = 2;
    rank3.flops = int64_t{1} << 40;
    lower::IrFragment reduce = rank3;
    reduce.kind = lower::FragmentKind::Compute;
    reduce.opcode = "sum";
    lower::IrFragment empty;
    empty.flops = -3;
    for (const auto *f : {&none, &rank3, &reduce, &empty})
        EXPECT_EQ(f->str(), referenceFragmentStr(*f));
    EXPECT_NE(rank3.str().find(" dim1=30 dim10=9223372036854775807 dim2=400"),
              std::string::npos);

    // πd over partitions: X's second run lists under X's first domain, a
    // store precedes the fragment it feeds, graph outputs come last in
    // their order whichever partition made them, and the tag marks only
    // compute fragments.
    lower::CompiledProgram cp;
    cp.partitions.resize(3);
    cp.partitions[0].accel = "X";
    cp.partitions[0].domain = Domain::DSP;
    cp.partitions[0].fragments = {none, rank3, reduce, empty};
    cp.partitions[0].listingTag = reduceTag;
    cp.partitions[0].loads = rank3.inputs;
    cp.partitions[0].stores = {{rank3.outputs[0], 1, 1},
                               {rank3.outputs[1], 2, 0},
                               {none.outputs[0],
                                lower::StoredTensor::kGraphOutput, 1}};
    cp.partitions[1].accel = lower::kHostAccel;
    cp.partitions[1].fragments = {empty, rank3};
    cp.partitions[1].stores = {
        {rank3.inputs[1], lower::StoredTensor::kGraphOutput, 0}};
    cp.partitions[1].deps = {0, 0};
    cp.partitions[2].accel = "X";
    cp.partitions[2].domain = Domain::DL;
    cp.partitions[2].fragments = {rank3, reduce};
    cp.partitions[2].listingTag = reduceTag;
    cp.partitions[2].deps = {0};
    EXPECT_EQ(cp.render(), referenceRender(cp));
    EXPECT_EQ(cp.str(), referenceRender(cp));
    EXPECT_EQ(cp.render().rfind("program DSP on X (9 fragments)", 0), 0u);
}

} // namespace
} // namespace polymath
