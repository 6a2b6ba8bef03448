/**
 * @file
 * srDFG tests: IndexExpr arithmetic, graph construction from PMLang
 * (structure, metadata, recursion, SSA/state versioning), traversal,
 * scalar materialization, and printers.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "interp/interpreter.h"
#include "pmlang/parser.h"
#include "srdfg/builder.h"
#include "srdfg/expand.h"
#include "srdfg/index_expr.h"
#include "srdfg/printer.h"
#include "srdfg/serialize.h"
#include "srdfg/traversal.h"

namespace polymath::ir {
namespace {

using IE = IndexExpr;

TEST(IndexExpr, EvalArithmetic)
{
    // (i + 1) * h  with h = 10
    const auto e = IE::binary(IE::Kind::Mul,
                              IE::binary(IE::Kind::Add, IE::var(0),
                                         IE::constant(1)),
                              IE::constant(10));
    const int64_t env[] = {3};
    EXPECT_EQ(e.eval(env), 40);
}

TEST(IndexExpr, EvalDivModAndSelect)
{
    // (i / 4) % 2 ? i : -i
    const auto cond = IE::binary(
        IE::Kind::Mod,
        IE::binary(IE::Kind::Div, IE::var(0), IE::constant(4)),
        IE::constant(2));
    const auto e = IE::select(cond, IE::var(0),
                              IE::unary(IE::Kind::Neg, IE::var(0)));
    int64_t env[] = {5};
    EXPECT_EQ(e.eval(env), 5);
    env[0] = 2;
    EXPECT_EQ(e.eval(env), -2);
}

TEST(IndexExpr, DivisionByZeroIsUserError)
{
    const auto e = IE::binary(IE::Kind::Div, IE::var(0), IE::constant(0));
    const int64_t env[] = {1};
    EXPECT_THROW(e.eval(env), UserError);
}

TEST(IndexExpr, ConstDetectionAndVarCount)
{
    EXPECT_TRUE(IE::constant(3).isConst());
    EXPECT_FALSE(IE::var(2).isConst());
    EXPECT_EQ(IE::var(2).varCount(), 3);
    const auto e = IE::binary(IE::Kind::Add, IE::var(1), IE::constant(4));
    EXPECT_EQ(e.varCount(), 2);
}

TEST(IndexExpr, Remapping)
{
    const auto e = IE::binary(IE::Kind::Add, IE::var(0), IE::var(1));
    const int map[] = {2, 0};
    const auto r = e.remapped(map);
    const int64_t env[] = {7, 0, 5};
    EXPECT_EQ(r.eval(env), 12);
}

TEST(IndexExpr, IdentityVarDetection)
{
    EXPECT_TRUE(IE::var(3).isIdentityVar(3));
    EXPECT_FALSE(IE::var(3).isIdentityVar(2));
    EXPECT_FALSE(IE::constant(3).isIdentityVar(3));
}

TEST(IndexExpr, Rendering)
{
    const std::vector<std::string> names = {"i", "j"};
    const auto e = IE::binary(IE::Kind::Mul,
                              IE::binary(IE::Kind::Add, IE::var(0),
                                         IE::constant(1)),
                              IE::var(1));
    EXPECT_EQ(e.str(names), "((i + 1)*j)");
}

// --- builder ---------------------------------------------------------------

TEST(Builder, MvmulStructureAndMetadata)
{
    auto g = compileToSrdfg(R"(
mvmul(input float A[m][n], input float B[n], output float C[m]) {
    index i[0:n-1], j[0:m-1];
    C[j] = sum[i](A[j][i]*B[i]);
}
main(input float A[2][3], input float x[3], output float y[2]) {
    DA: mvmul(A, x, y);
}
)");
    ASSERT_EQ(g->liveNodeCount(), 1);
    const Node *call = g->node(0);
    ASSERT_EQ(call->kind, NodeKind::Component);
    EXPECT_EQ(call->op, ir::Op::intern("mvmul"));
    EXPECT_EQ(call->domain, lang::Domain::DA);
    ASSERT_NE(call->subgraph, nullptr);
    EXPECT_EQ(call->subgraph->domain, lang::Domain::DA);

    // Boundary metadata carries the type modifiers.
    EXPECT_EQ(g->value(g->inputs[0]).md.kind, EdgeKind::Input);
    EXPECT_EQ(g->value(g->inputs[0]).md.shape, (Shape{2, 3}));
    EXPECT_EQ(g->value(g->outputs[0]).md.kind, EdgeKind::Output);
    EXPECT_EQ(g->value(g->outputs[0]).md.name, "y");

    // Inner granularity: one mul map + one sum reduce (store fused).
    const Graph &sub = *call->subgraph;
    int muls = 0;
    int reduces = 0;
    for (const auto &node : sub.nodePool()) {
        if (!node.live())
            continue;
        muls += node.kind == NodeKind::Map && node.op == ir::OpCode::Mul;
        reduces += node.kind == NodeKind::Reduce;
    }
    EXPECT_EQ(muls, 1);
    EXPECT_EQ(reduces, 1);
    EXPECT_EQ(recursionDepth(*g), 2);
}

TEST(Builder, RefusesAProgramSemaHasNotResolved)
{
    // Names resolve in lang::analyze(); the builder only reads its slots.
    const auto program = std::make_shared<const lang::Program>(lang::parse(
        "main(input float x[2], output float y[2]) {"
        " index i[0:1]; y[i] = x[i]; }"));
    EXPECT_THROW(buildSrdfg(program), InternalError);
    EXPECT_NO_THROW(compileToSrdfg(program));
}

TEST(Builder, StatementContextOrdersIndicesByNameThenBySubscript)
{
    // Within one LHS subscript a statement's index variables are ordered
    // by name; across subscripts, by first appearance.
    const auto g = compileToSrdfg(
        "main(input float x[2][3], output float y[6][2],"
        " output float z[2][6]) {"
        " index j[0:2], i[0:1], k[0:1];"
        " y[j*2 + i][k] = x[i][j] + k;"
        " z[k][j*2 + i] = x[i][j] * k; }");
    const std::string ir = printGraph(*g);
    EXPECT_NE(ir.find("add{i:2,j:3,k:2}"), std::string::npos) << ir;
    EXPECT_NE(ir.find("mul{k:2,i:2,j:3}"), std::string::npos) << ir;
}

TEST(Builder, ScalarOpCountIsExact)
{
    auto g = compileToSrdfg(R"(
main(input float A[4][5], input float x[5], output float y[4]) {
    index i[0:4], j[0:3];
    y[j] = sum[i](A[j][i]*x[i]);
}
)");
    // 20 multiplies + 4*(5-1) adds = 36 (the fused store is free).
    EXPECT_EQ(g->scalarOpCount(), 36);
}

TEST(Builder, NestedReduceDomainsAreMinimal)
{
    auto g = compileToSrdfg(R"(
main(input float w[3], input float x[8][3], input float y[8],
     output float gr[3]) {
    index n[0:7], d[0:2], j[0:2];
    gr[j] = sum[n]((sigmoid(sum[d](w[d]*x[n][d])) - y[n]) * x[n][j]);
}
)");
    // Inner dot product must iterate (n, d) only — not j. Exact count:
    // inner mul 24 + inner sum 8*2=16 + sigmoid 8 + sub 8 + outer mul 24
    // + outer sum 3*7=21 = 101.
    EXPECT_EQ(g->scalarOpCount(), 101);
}

TEST(Builder, StateMakesCycleThroughVersions)
{
    auto g = compileToSrdfg(R"(
main(state float acc[2], input float x[2]) {
    index i[0:1];
    acc[i] = acc[i] + x[i];
}
)");
    // State appears as an input and (a new version) as an output.
    ASSERT_EQ(g->inputs.size(), 2u);
    ASSERT_EQ(g->outputs.size(), 1u);
    EXPECT_EQ(g->value(g->inputs[0]).md.kind, EdgeKind::State);
    EXPECT_EQ(g->value(g->outputs[0]).md.kind, EdgeKind::State);
    EXPECT_EQ(g->value(g->outputs[0]).md.name, "acc");
    EXPECT_NE(g->outputs[0], g->inputs[0]); // SSA: new version
}

TEST(Builder, ParamConstsFoldIntoIndexArithmetic)
{
    BuildOptions opts;
    opts.paramConsts["stride"] = 3;
    auto g = compileToSrdfg(R"(
main(input float x[12], param int stride, output float y[4]) {
    index i[0:3];
    y[i] = x[i*stride];
}
)",
                            opts);
    // The param is compile-time: not a runtime input.
    EXPECT_EQ(g->inputs.size(), 1u);
    auto out = interp::evaluate(
        *g, {{"x", Tensor::vec({0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})}});
    EXPECT_EQ(out.at("y").at(int64_t{2}), 6.0);
}

TEST(Builder, MissingParamConstIsUserError)
{
    EXPECT_THROW(compileToSrdfg(R"(
main(input float x[12], param int stride, output float y[4]) {
    index i[0:3];
    y[i] = x[i*stride];
}
)"),
                 UserError);
}

TEST(Builder, SymbolicDimMismatchIsUserError)
{
    EXPECT_THROW(compileToSrdfg(R"(
mvmul(input float A[m][n], input float B[n], output float C[m]) {
    index i[0:n-1], j[0:m-1];
    C[j] = sum[i](A[j][i]*B[i]);
}
main(input float A[2][3], input float x[4], output float y[2]) {
    DA: mvmul(A, x, y);
}
)"),
                 UserError);
}

/** Compiles @p source and returns the UserError it must raise. */
UserError
builderError(const std::string &source)
{
    try {
        compileToSrdfg(source);
    } catch (const UserError &e) {
        return e;
    }
    ADD_FAILURE() << "expected a UserError";
    return UserError("");
}

TEST(Builder, ConstantModuloByAFractionIsAUserError)
{
    // '%' truncates its operands, so 0.5 is a zero divisor.
    const UserError e = builderError(
        "main(input float x[4], output float y[4]) {\n"
        "    index i[0:(5 % 0.5)];\n"
        "    y[i] = x[i];\n"
        "}\n");
    EXPECT_EQ(e.message(), "modulo by zero in constant expression");
    EXPECT_EQ(e.loc().str(), "2:18");
}

TEST(Builder, ConstantModuloTakesAnyTruncatedOperands)
{
    // INT64_MIN % -1 traps and 1e30 has no int64_t: neither may reach
    // C's '%'. The ranges have extents 4 and 6 (1e30 % 7 == 5).
    const auto g = compileToSrdfg(
        "main(input float x[4], input float z[6], output float y,\n"
        "     output float w) {\n"
        "    index i[0:(-9223372036854775808 % -1) + 3], j[0:(1e30 % 7)];\n"
        "    y = sum[i](x[i]);\n"
        "    w = sum[j](z[j]);\n"
        "}\n");
    EXPECT_EQ(g->scalarOpCount(), 3 + 5);
}

TEST(Builder, IndexArithmeticNamesTheRejectedOperator)
{
    const UserError e = builderError(
        "main(input float A[16], output float y[4]) {\n"
        "    index i[0:3];\n"
        "    y[i] = A[i ^ 2];\n"
        "}\n");
    EXPECT_EQ(e.message(), "operator '^' not allowed in index arithmetic");
    EXPECT_EQ(e.loc().str(), "3:16");
}

TEST(Builder, ConstantExpressionNamesTheRejectedOperator)
{
    const UserError e = builderError(
        "main(input float x[4], output float y[4]) {\n"
        "    index i[0:(3 < 4)];\n"
        "    y[i] = x[i];\n"
        "}\n");
    EXPECT_EQ(e.message(),
              "operator '<' not allowed in constant expression");
    EXPECT_EQ(e.loc().str(), "2:18");
}

TEST(Builder, FusedStoreKeepsTheDeclaredDtype)
{
    // A total write fuses into its producer; the stored value keeps the
    // target's declared type, as an explicit store node would.
    const auto g = compileToSrdfg(
        "main(input float x[4], output float y, output float z[4],\n"
        "     output int w) {\n"
        "    index i[0:3];\n"
        "    y = 1;\n"
        "    z[i] = x[i] < 2;\n"
        "    w = sum[i](x[i]);\n"
        "}\n");
    ASSERT_EQ(g->outputs.size(), 3u);
    EXPECT_EQ(g->value(g->outputs[0]).md.dtype, DType::Float);
    EXPECT_EQ(g->value(g->outputs[1]).md.dtype, DType::Float);
    EXPECT_EQ(g->value(g->outputs[2]).md.dtype, DType::Int);
}

TEST(Builder, EachInstantiationGetsItsOwnSubgraph)
{
    auto g = compileToSrdfg(R"(
twice(input float x[n], output float y[n]) {
    index i[0:n-1];
    y[i] = x[i]*2;
}
main(input float a[2], input float b[5], output float c[2],
     output float d[5]) {
    DSP: twice(a, c);
    DSP: twice(b, d);
}
)");
    std::vector<const Node *> calls;
    for (const auto &node : g->nodePool()) {
        if (node.live() && node.kind == NodeKind::Component)
            calls.push_back(&node);
    }
    ASSERT_EQ(calls.size(), 2u);
    EXPECT_NE(calls[0]->subgraph.get(), calls[1]->subgraph.get());
    // Context-sensitive shapes: 2 vs 5.
    EXPECT_EQ(calls[0]->subgraph->value(calls[0]->subgraph->inputs[0])
                  .md.shape,
              (Shape{2}));
    EXPECT_EQ(calls[1]->subgraph->value(calls[1]->subgraph->inputs[0])
                  .md.shape,
              (Shape{5}));
}

TEST(Builder, PartialWritesChainThroughBase)
{
    auto g = compileToSrdfg(R"(
main(input float x[4], output float y[8]) {
    index i[0:3];
    y[2*i] = x[i];
    y[2*i+1] = -x[i];
}
)");
    auto out = interp::evaluate(*g, {{"x", Tensor::vec({1, 2, 3, 4})}});
    const auto &y = out.at("y");
    EXPECT_EQ(y.at(int64_t{0}), 1.0);
    EXPECT_EQ(y.at(int64_t{1}), -1.0);
    EXPECT_EQ(y.at(int64_t{6}), 4.0);
    EXPECT_EQ(y.at(int64_t{7}), -4.0);
}

TEST(Builder, EdgesViewMatchesPaperForm)
{
    auto g = compileToSrdfg(R"(
main(input float x[3], output float y[3]) {
    index i[0:2];
    y[i] = x[i] + 1;
}
)");
    const auto edges = g->edges();
    // x -> add, const -> add, add(out y) -> boundary.
    bool input_edge = false;
    bool boundary_edge = false;
    for (const auto &e : edges) {
        input_edge |= e.src == -1 && e.dst >= 0;
        boundary_edge |= e.dst == -1 && e.src >= 0;
    }
    EXPECT_TRUE(input_edge);
    EXPECT_TRUE(boundary_edge);
}

TEST(Builder, ValidateAcceptsAllWorkloadStructures)
{
    // Exercised heavily elsewhere; spot-check validate() rejects a
    // corrupted graph.
    auto g = compileToSrdfg("main(input float x[2], output float y[2]) {"
                            " index i[0:1]; y[i] = x[i]; }");
    g->validate();
    for (auto &node : g->nodePool()) {
        if (!node.live() || g->ins(node).empty() ||
            !g->ins(node)[0].hasCoords()) {
            continue;
        }
        // Corrupt the first input's coord span: widen it past the rank it
        // was interned with (and potentially past the arena).
        Access broken = g->ins(node)[0];
        broken.coords.len += 7;
        g->setInput(node, 0, broken);
        break;
    }
    EXPECT_THROW(g->validate(), InternalError);
}

TEST(Builder, RejectsEmptyIndexRange)
{
    EXPECT_THROW(compileToSrdfg("main(input float x[4], output float y) {"
                                " index i[3:1]; y = sum[i](x[i]); }"),
                 UserError);
}

TEST(Builder, EntryDimsMustBeCompileTime)
{
    // Symbolic dims are fine on inner components but the entry must be
    // concrete.
    EXPECT_THROW(compileToSrdfg(
                     "main(input float x[n], output float y) {"
                     " y = x[0]; }"),
                 UserError);
}

TEST(Builder, AlternativeEntryComponent)
{
    BuildOptions opts;
    opts.entry = "affine";
    auto g = compileToSrdfg(R"(
affine(input float x[4], param float a, output float y[4]) {
    index i[0:3];
    y[i] = x[i]*a;
}
main(input float x[4], param float a, output float y[4]) {
    DA: affine(x, a, y);
}
)",
                            opts);
    EXPECT_EQ(g->name, "affine");
    auto out = interp::evaluate(*g, {{"x", Tensor::vec({1, 2, 3, 4})},
                                     {"a", Tensor::scalar(3.0)}});
    EXPECT_EQ(out.at("y").at(int64_t{2}), 9.0);
}

TEST(Builder, DomainInheritanceAcrossNesting)
{
    auto g = compileToSrdfg(R"(
inner(input float x[2], output float y[2]) {
    index i[0:1];
    y[i] = x[i]*2;
}
outer(input float x[2], output float y[2]) {
    float t[2];
    inner(x, t);
    index i[0:1];
    y[i] = t[i] + 1;
}
main(input float a[2], output float b[2]) {
    DSP: outer(a, b);
}
)");
    // Every node at every level inherits DSP from the annotated call.
    ir::forEachNodeRecursive(
        static_cast<const Graph &>(*g),
        [](const Graph &, const Node &node) {
            EXPECT_EQ(node.domain, lang::Domain::DSP) << node.op;
        });
}

// --- traversal --------------------------------------------------------------

TEST(Traversal, TopoOrderRespectsDataflow)
{
    auto g = compileToSrdfg(R"(
main(input float x[2], output float y[2]) {
    index i[0:1];
    float a[2], b[2];
    a[i] = x[i] + 1;
    b[i] = a[i] * 2;
    y[i] = b[i] - a[i];
}
)");
    const auto order = topoOrder(*g);
    std::map<NodeId, size_t> position;
    for (size_t i = 0; i < order.size(); ++i)
        position[order[i]] = i;
    for (const auto &node : g->nodePool()) {
        if (!node.live())
            continue;
        for (const auto &in : g->ins(node)) {
            if (in.isIndexOperand())
                continue;
            const auto producer = g->value(in.value).producer;
            if (producer >= 0) {
                EXPECT_LT(position[producer], position[node.id]);
            }
        }
    }
}

TEST(Traversal, DeadValuesFindsOrphans)
{
    auto g = compileToSrdfg(R"(
main(input float x[2], output float y[2]) {
    index i[0:1];
    float unused[2];
    unused[i] = x[i] * 3;
    y[i] = x[i];
}
)");
    EXPECT_FALSE(deadValues(*g).empty());
}

// --- scalar materialization --------------------------------------------------

TEST(Expand, MapMaterializationMatchesNodeSemantics)
{
    auto g = compileToSrdfg("main(input float x[3], input float z[3],"
                            " output float y[3]) {"
                            " index i[0:2]; y[i] = x[i]*z[i]; }");
    const Node *mul = nullptr;
    for (const auto &node : g->nodePool()) {
        if (node.live() && node.op == ir::OpCode::Mul)
            mul = &node;
    }
    ASSERT_NE(mul, nullptr);
    auto scalar = materializeScalar(*g, *mul);
    // 3 multiplies + 3 scatter stores.
    EXPECT_EQ(scalar->liveNodeCount(), 6);

    interp::Interpreter interp(*scalar);
    interp.setInput("x", Tensor::vec({1, 2, 3}));
    interp.setInput("z", Tensor::vec({4, 5, 6}));
    interp.run();
    const auto &out_name =
        scalar->value(scalar->outputs[0]).md.name;
    EXPECT_EQ(interp.output(out_name).at(int64_t{2}), 18.0);
}

TEST(Expand, ReduceMaterializationFoldsCombinerChain)
{
    auto g = compileToSrdfg("main(input float x[4], output float s) {"
                            " index i[0:3]; s = sum[i](x[i]); }");
    const Node *red = nullptr;
    for (const auto &node : g->nodePool()) {
        if (node.live() && node.kind == NodeKind::Reduce)
            red = &node;
    }
    ASSERT_NE(red, nullptr);
    auto scalar = materializeScalar(*g, *red);
    interp::Interpreter interp(*scalar);
    interp.setInput("x", Tensor::vec({1, 2, 3, 4}));
    interp.run();
    const auto &name = scalar->value(scalar->outputs[0]).md.name;
    EXPECT_EQ(interp.output(name).scalarValue(), 10.0);
}

TEST(Expand, BudgetIsEnforced)
{
    auto g = compileToSrdfg("main(input float x[100], output float y[100]) {"
                            " index i[0:99]; y[i] = x[i]+1; }");
    const Node *add = nullptr;
    for (const auto &node : g->nodePool()) {
        if (node.live() && node.op == ir::OpCode::Add)
            add = &node;
    }
    ASSERT_NE(add, nullptr);
    EXPECT_THROW(materializeScalar(*g, *add, 10), UserError);
}

TEST(Expand, CombinerOpMapping)
{
    EXPECT_EQ(combinerOp(ir::OpCode::Sum), ir::Op(ir::OpCode::Add));
    EXPECT_EQ(combinerOp(ir::OpCode::Prod), ir::Op(ir::OpCode::Mul));
    EXPECT_EQ(combinerOp(ir::OpCode::Min), ir::Op(ir::OpCode::Min));
    EXPECT_THROW(combinerOp(ir::Op::intern("mymin")), UserError);
}

// --- use lists ---------------------------------------------------------------

// From-scratch recomputation of the use multiset of one value, the
// reference the incremental cache must agree with.
std::vector<NodeId>
rawUses(const Graph &g, ValueId v)
{
    std::vector<NodeId> out;
    for (const auto &node : g.nodePool()) {
        if (!node.live())
            continue;
        for (const auto &in : g.ins(node)) {
            if (in.value == v)
                out.push_back(node.id);
        }
        if (node.base == v)
            out.push_back(node.id);
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<NodeId>
sortedUses(const Graph &g, ValueId v)
{
    const auto span = g.uses(v);
    std::vector<NodeId> out(span.begin(), span.end());
    std::sort(out.begin(), out.end());
    return out;
}

TEST(UseLists, OneEntryPerReferencingAccess)
{
    auto g = compileToSrdfg("main(input float x[2], output float y[2]) {"
                            " index i[0:1]; y[i] = x[i] + x[i]; }");
    // The add references x twice, so its node appears twice in x's list.
    const ValueId x = g->findValueByName("x");
    ASSERT_GE(x, 0);
    EXPECT_EQ(g->uses(x).size(), 2u);
    EXPECT_TRUE(g->usesCached());
    for (const auto &v : g->values)
        EXPECT_EQ(sortedUses(*g, v.id), rawUses(*g, v.id));
    g->validate();
}

TEST(UseLists, EraseNodeMaintainsCacheIncrementally)
{
    auto g = compileToSrdfg(R"(
main(input float x[2], output float y[2]) {
    index i[0:1];
    float a[2], b[2];
    a[i] = x[i] + 1;
    b[i] = a[i] * 2;
    y[i] = b[i] - a[i];
}
)");
    const ValueId a = g->findValueByName("a");
    ASSERT_GE(a, 0);
    (void)g->uses(a); // build the cache
    ASSERT_TRUE(g->usesCached());

    const NodeId sub = g->value(g->findValueByName("y")).producer;
    ASSERT_GE(sub, 0);
    g->eraseNode(sub);

    // Still cached — eraseNode maintains the lists instead of dropping
    // them — and still consistent with a recomputation.
    EXPECT_TRUE(g->usesCached());
    for (const auto &v : g->values)
        EXPECT_EQ(sortedUses(*g, v.id), rawUses(*g, v.id));
}

TEST(UseLists, MutationHelpersKeepCacheLive)
{
    auto g = compileToSrdfg(R"(
main(input float x[2], output float y[2]) {
    index i[0:1];
    float a[2], b[2];
    a[i] = x[i] + 1;
    b[i] = a[i] * 2;
    y[i] = b[i] - a[i];
}
)");
    const ValueId a = g->findValueByName("a");
    const ValueId b = g->findValueByName("b");
    ASSERT_GE(a, 0);
    ASSERT_GE(b, 0);
    (void)g->uses(a);
    ASSERT_TRUE(g->usesCached());

    // Repoint the subtract's b-operand at a through setInput: b loses a
    // user, a gains one, and the cache never has to be rebuilt.
    Node *sub = g->node(g->value(g->findValueByName("y")).producer);
    ASSERT_NE(sub, nullptr);
    const size_t uses_of_a = g->uses(a).size();
    const size_t uses_of_b = g->uses(b).size();
    const auto sub_ins = g->ins(*sub);
    for (size_t slot = 0; slot < sub_ins.size(); ++slot) {
        if (sub_ins[slot].value == b)
            g->setInput(*sub, slot, Access{a, sub_ins[slot].coords});
    }
    EXPECT_TRUE(g->usesCached());
    EXPECT_EQ(g->uses(a).size(), uses_of_a + 1);
    EXPECT_EQ(g->uses(b).size(), uses_of_b - 1);
    for (const auto &v : g->values)
        EXPECT_EQ(sortedUses(*g, v.id), rawUses(*g, v.id));
    g->validate();
}

TEST(UseLists, TouchUsesInvalidatesAfterRawSurgery)
{
    auto g = compileToSrdfg(R"(
main(input float x[2], output float y[2]) {
    index i[0:1];
    float a[2], b[2];
    a[i] = x[i] + 1;
    b[i] = a[i] * 2;
    y[i] = b[i] - a[i];
}
)");
    const ValueId a = g->findValueByName("a");
    const ValueId b = g->findValueByName("b");
    (void)g->uses(a);
    ASSERT_TRUE(g->usesCached());

    // Raw write past the helpers, then the escape hatch: the cache is
    // dropped and the next uses() call rebuilds a consistent view.
    Node *sub = g->node(g->value(g->findValueByName("y")).producer);
    ASSERT_NE(sub, nullptr);
    for (auto &in : g->insMut(*sub)) {
        if (in.value == b)
            in.value = a;
    }
    g->touchUses();
    EXPECT_FALSE(g->usesCached());
    for (const auto &v : g->values)
        EXPECT_EQ(sortedUses(*g, v.id), rawUses(*g, v.id));
    EXPECT_TRUE(g->usesCached());
    g->validate();
}

TEST(UseLists, ValidateCatchesStaleCache)
{
    auto g = compileToSrdfg(R"(
main(input float x[2], output float y[2]) {
    index i[0:1];
    float a[2], b[2];
    a[i] = x[i] + 1;
    b[i] = a[i] * 2;
    y[i] = b[i] - a[i];
}
)");
    const ValueId a = g->findValueByName("a");
    const ValueId b = g->findValueByName("b");
    (void)g->uses(a);
    ASSERT_TRUE(g->usesCached());

    // The same raw write with no touchUses(): the graph itself is still
    // well-formed, so only the use-cache cross-check can catch it.
    Node *sub = g->node(g->value(g->findValueByName("y")).producer);
    ASSERT_NE(sub, nullptr);
    for (auto &in : g->insMut(*sub)) {
        if (in.value == b)
            in.value = a;
    }
    EXPECT_THROW(g->validate(), InternalError);
}

TEST(UseLists, ConsumersAgreesWithUsesCache)
{
    auto g = compileToSrdfg(R"(
main(input float x[2], output float y[2]) {
    index i[0:1];
    float a[2], b[2];
    a[i] = x[i] + x[i];
    b[i] = a[i] * 2;
    y[i] = b[i] - a[i];
}
)");
    // From-scratch path first (no cache yet).
    ASSERT_FALSE(g->usesCached());
    const auto cold = g->consumers();

    // Warm the incremental cache, then derive consumers from it. The two
    // views must agree cell by cell, and both must match a raw walk:
    // every cell sorted ascending by node id, one entry per referencing
    // access.
    (void)g->uses(g->findValueByName("a"));
    ASSERT_TRUE(g->usesCached());
    const auto warm = g->consumers();
    ASSERT_EQ(cold.size(), warm.size());
    for (const auto &v : g->values) {
        const auto idx = static_cast<size_t>(v.id);
        EXPECT_EQ(cold[idx], warm[idx]) << "value " << v.id;
        EXPECT_EQ(warm[idx], rawUses(*g, v.id)) << "value " << v.id;
        EXPECT_EQ(sortedUses(*g, v.id), rawUses(*g, v.id))
            << "value " << v.id;
    }
}

// --- flat storage ------------------------------------------------------------

TEST(Storage, CompactIsInvisibleToPrintAndSerialize)
{
    auto g = compileToSrdfg(R"(
main(input float x[4], output float y[4]) {
    index i[0:3];
    float a[4], b[4];
    a[i] = x[i] + 1;
    b[i] = a[i] * 2;
    y[i] = b[i] - a[i];
}
)");
    // Tombstone a node so the arenas hold garbage worth retiring.
    const NodeId dead = g->value(g->findValueByName("b")).producer;
    ASSERT_GE(dead, 0);
    g->eraseNode(dead);

    const std::string text_before = printGraph(*g);
    const std::string json_before = toJson(*g);
    const size_t arena_before = g->arenaBytes();

    g->compact();
    g->validate();

    // Ids are stable across compact(), so both renderings must be
    // byte-identical; only the arena footprint may shrink.
    EXPECT_EQ(printGraph(*g), text_before);
    EXPECT_EQ(toJson(*g), json_before);
    EXPECT_LE(g->arenaBytes(), arena_before);
}

TEST(Storage, CloneOfCloneIsByteIdentical)
{
    auto g = compileToSrdfg(R"(
inner(input float v[3], output float w[3]) {
    index i[0:2];
    w[i] = v[i] * v[i];
}
main(input float x[3], output float y[3]) {
    inner(x, y);
}
)");
    const auto c1 = g->clone();
    const auto c2 = c1->clone();
    EXPECT_EQ(toJson(*c1), toJson(*g));
    EXPECT_EQ(toJson(*c2), toJson(*g));
    EXPECT_EQ(printGraph(*c2), printGraph(*g));

    // The clone is deep: growing the copy leaves the original untouched.
    const int64_t live_before = g->liveNodeCount();
    Node &extra = *c2->node(c2->addNode(NodeKind::Constant, OpCode::Const));
    extra.cval = 7.0;
    EdgeMeta md;
    md.dtype = DType::Float;
    md.kind = EdgeKind::Internal;
    c2->addOutput(extra, Access{c2->addValue(md, extra.id), {}});
    EXPECT_EQ(g->liveNodeCount(), live_before);
    EXPECT_EQ(c2->liveNodeCount(), live_before + 1);
    EXPECT_EQ(toJson(*g), toJson(*c1));
}

TEST(Storage, ArenaBytesTracksPools)
{
    auto g = compileToSrdfg(R"(
main(input float x[4][4], output float y[4][4]) {
    index i[0:3], j[0:3];
    y[i][j] = x[i][j] + x[j][i];
}
)");
    // A graph with coords, accesses, and domain vars must report a
    // nonzero arena footprint, and a compact() of a garbage-free graph
    // must not grow it.
    const size_t before = g->arenaBytes();
    EXPECT_GT(before, 0u);
    g->compact();
    EXPECT_LE(g->arenaBytes(), before);
    g->validate();
}

// --- printing ----------------------------------------------------------------

TEST(Printer, TextShowsAllLevelsAndMetadata)
{
    auto g = compileToSrdfg(R"(
inner(input float x[2], output float y[2]) {
    index i[0:1];
    y[i] = x[i]*2;
}
main(input float a[2], output float b[2]) {
    DSP: inner(a, b);
}
)");
    const auto text = printGraph(*g);
    EXPECT_NE(text.find("graph main"), std::string::npos);
    EXPECT_NE(text.find("graph inner <DSP>"), std::string::npos);
    EXPECT_NE(text.find("in  input float a[2]"), std::string::npos);
    EXPECT_NE(text.find("mul"), std::string::npos);

    const auto depth_limited = printGraph(*g, PrintOptions{1, true});
    EXPECT_EQ(depth_limited.find("graph inner"), std::string::npos);
}

TEST(Printer, MetadataCanBeSuppressed)
{
    auto g = compileToSrdfg("main(input float x[2], output float y[2]) {"
                            " index i[0:1]; y[i] = x[i]+1; }");
    PrintOptions opts;
    opts.showMetadata = false;
    const auto text = printGraph(*g, opts);
    EXPECT_EQ(text.find("in  input"), std::string::npos);
    EXPECT_NE(text.find("add"), std::string::npos);
}

TEST(Printer, DotOutputIsWellFormed)
{
    auto g = compileToSrdfg("main(input float x[2], output float y[2]) {"
                            " index i[0:1]; y[i] = x[i]+1; }");
    const auto dot = toDot(*g);
    EXPECT_EQ(dot.find("digraph"), 0u);
    EXPECT_NE(dot.find("->"), std::string::npos);
}

TEST(Printer, StatsSummary)
{
    auto g = compileToSrdfg("main(input float x[2], output float y[2]) {"
                            " index i[0:1]; y[i] = x[i]+1; }");
    const auto stats = graphStats(*g);
    EXPECT_NE(stats.find("depth=1"), std::string::npos);
    EXPECT_NE(stats.find("scalar_ops=2"), std::string::npos);
}

} // namespace
} // namespace polymath::ir
