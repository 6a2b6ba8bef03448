#include "interp/interpreter.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <vector>

#include "pmlang/builtins.h"
#include "srdfg/ops.h"
#include "srdfg/traversal.h"

namespace polymath::interp {

namespace {

using ir::Access;
using ir::Graph;
using ir::Node;
using ir::NodeKind;
using ir::ValueId;

/** Evaluates a custom-reduction body over (a, b). */
double
evalKernel(const lang::Expr &e, double a, double b,
           const lang::ReductionDecl &red)
{
    using lang::ExprKind;
    switch (e.kind) {
      case ExprKind::Number:
        return e.value;
      case ExprKind::Ref:
        return e.name == red.paramA ? a : b;
      case ExprKind::Unary: {
        const double x = evalKernel(*e.lhs, a, b, red);
        return e.unaryOp == lang::UnaryOp::Neg ? -x
                                               : (x == 0.0 ? 1.0 : 0.0);
      }
      case ExprKind::Binary: {
        const double l = evalKernel(*e.lhs, a, b, red);
        const double r = evalKernel(*e.rhs, a, b, red);
        return lang::applyBinaryOp(e.binaryOp, l, r);
      }
      case ExprKind::Ternary:
        return evalKernel(*e.lhs, a, b, red) != 0.0
                   ? evalKernel(*e.rhs, a, b, red)
                   : evalKernel(*e.third, a, b, red);
      case ExprKind::Call: {
        if (e.args.size() == 1) {
            return lang::evalBuiltin1(e.name,
                                      evalKernel(*e.args[0], a, b, red));
        }
        return lang::evalBuiltin2(e.name,
                                  evalKernel(*e.args[0], a, b, red),
                                  evalKernel(*e.args[1], a, b, red));
      }
      case ExprKind::Reduce:
        break;
    }
    panic("bad kernel expression");
}

/** Advances a mixed-radix counter; returns false after the last point. */
bool
nextPoint(std::vector<int64_t> *idx, std::span<const int64_t> extents)
{
    for (size_t i = idx->size(); i-- > 0;) {
        if (++(*idx)[i] < extents[i])
            return true;
        (*idx)[i] = 0;
    }
    return false;
}

/** Executes one graph level given tensors for its input values. */
class GraphRunner
{
  public:
    explicit GraphRunner(const Graph &graph, ExecStats *stats = nullptr)
        : graph_(graph), stats_(stats)
    {
        env_.resize(graph.values.size());
        have_.assign(graph.values.size(), false);
    }

    void bindInput(ValueId v, Tensor t)
    {
        env_[static_cast<size_t>(v)] = std::move(t);
        have_[static_cast<size_t>(v)] = true;
    }

    void run();

    const Tensor &tensorOf(ValueId v) const
    {
        if (!have_[static_cast<size_t>(v)])
            panic("value " + std::to_string(v) + " not computed");
        return env_[static_cast<size_t>(v)];
    }

  private:
    void execConstant(const Node &node);
    void execMap(const Node &node);
    void execReduce(const Node &node);
    void execComponent(const Node &node);

    /** Reads one element through an access at a domain point. */
    double readReal(const Access &a, std::span<const int64_t> point) const;
    std::complex<double> readComplex(const Access &a,
                                     std::span<const int64_t> point) const;

    int64_t flatIndex(const Tensor &t, const Access &a,
                      std::span<const int64_t> point) const;

    void store(ValueId v, Tensor t)
    {
        env_[static_cast<size_t>(v)] = std::move(t);
        have_[static_cast<size_t>(v)] = true;
    }

    const Graph &graph_;
    ExecStats *stats_;
    std::vector<Tensor> env_;
    std::vector<bool> have_;
};

int64_t
GraphRunner::flatIndex(const Tensor &t, const Access &a,
                       std::span<const int64_t> point) const
{
    const auto cs = graph_.coords(a);
    if (cs.empty()) {
        if (t.numel() != 1)
            panic("whole-tensor access used as scalar");
        return 0;
    }
    int64_t flat = 0;
    const auto &dims = t.shape().dims();
    if (cs.size() != dims.size()) {
        panic("access arity " + std::to_string(cs.size()) +
              " vs tensor rank " + std::to_string(dims.size()) +
              " in graph '" + graph_.name + "'");
    }
    for (size_t d = 0; d < cs.size(); ++d) {
        const int64_t c = cs[d].eval(point);
        if (c < 0 || c >= dims[d]) {
            fatal("index " + std::to_string(c) + " out of bounds for dim " +
                  std::to_string(d) + " of " + t.shape().str() +
                  " while executing graph '" + graph_.name + "'");
        }
        flat = flat * dims[d] + c;
    }
    return flat;
}

double
GraphRunner::readReal(const Access &a, std::span<const int64_t> point) const
{
    if (a.isIndexOperand())
        return static_cast<double>(graph_.coords(a)[0].eval(point));
    const Tensor &t = tensorOf(a.value);
    if (t.isComplex())
        fatal("complex operand in a real context");
    return t.at(flatIndex(t, a, point));
}

std::complex<double>
GraphRunner::readComplex(const Access &a,
                         std::span<const int64_t> point) const
{
    if (a.isIndexOperand())
        return {static_cast<double>(graph_.coords(a)[0].eval(point)), 0.0};
    const Tensor &t = tensorOf(a.value);
    return t.asComplex(flatIndex(t, a, point));
}

void
GraphRunner::execConstant(const Node &node)
{
    const ValueId out_v = graph_.outs(node)[0].value;
    const auto &md = graph_.value(out_v).md;
    Tensor t(md.dtype == DType::Complex ? DType::Complex : md.dtype,
             Shape{});
    if (t.isComplex())
        t.cat(0) = {node.cval, 0.0};
    else
        t.at(0) = node.cval;
    store(out_v, std::move(t));
}

void
GraphRunner::execMap(const Node &node)
{
    const ir::ScalarOp op = ir::resolveScalarOp(node.op);
    const auto ins = graph_.ins(node);
    const Access out_access = graph_.outs(node)[0];
    const auto &out_md = graph_.value(out_access.value).md;
    Tensor out(out_md.dtype, out_md.shape);

    // Seed with the base version (partial writes) or zeros.
    if (node.base >= 0) {
        const Tensor &base = tensorOf(node.base);
        out = base.cast(out_md.dtype);
    }

    bool complex_path = out.isComplex();
    for (const auto &in : ins) {
        if (!in.isIndexOperand() && tensorOf(in.value).isComplex())
            complex_path = true;
    }

    std::vector<int64_t> extents;
    for (const auto &v : graph_.domainVars(node))
        extents.push_back(v.extent);
    std::vector<int64_t> point(extents.size(), 0);

    const bool int_out = out_md.dtype == DType::Int;
    const bool bin_out = out_md.dtype == DType::Bin;
    if (stats_) {
        if (node.op == ir::OpCode::Identity)
            stats_->moveElems += node.domainSize(graph_);
        else
            stats_->mapOps += node.domainSize(graph_);
    }
    do {
        const int64_t out_flat = flatIndex(out, out_access, point);
        if (complex_path) {
            std::complex<double> args[3];
            for (size_t i = 0; i < ins.size(); ++i)
                args[i] = readComplex(ins[i], point);
            const auto r = ir::applyScalarOpComplex(
                op, std::span<const std::complex<double>>(args, ins.size()));
            if (out.isComplex())
                out.cat(out_flat) = r;
            else
                out.at(out_flat) = r.real();
        } else {
            double args[3];
            for (size_t i = 0; i < ins.size(); ++i)
                args[i] = readReal(ins[i], point);
            double r = ir::applyScalarOp(
                op, std::span<const double>(args, ins.size()));
            if (int_out)
                r = std::trunc(r);
            else if (bin_out)
                r = r != 0.0 ? 1.0 : 0.0;
            out.at(out_flat) = r;
        }
    } while (nextPoint(&point, extents));

    store(out_access.value, std::move(out));
}

void
GraphRunner::execReduce(const Node &node)
{
    const auto ins = graph_.ins(node);
    const Access out_access = graph_.outs(node)[0];
    const auto &out_md = graph_.value(out_access.value).md;
    Tensor out(out_md.dtype, out_md.shape);

    const bool builtin = ir::isBuiltinReductionOp(node.op);
    const ir::OpCode rcode = node.op.code();
    const lang::ReductionDecl *custom = nullptr;
    if (!builtin) {
        auto it = graph_.context->reductions.find(node.op.str());
        if (it == graph_.context->reductions.end())
            panic("unknown reduction '" + node.op.str() + "'");
        custom = it->second;
    }

    const bool complex_in =
        !ins[0].isIndexOperand() && tensorOf(ins[0].value).isComplex();
    if (complex_in && rcode != ir::OpCode::Sum &&
        rcode != ir::OpCode::Prod) {
        fatal("only sum/prod reductions are defined on complex data");
    }

    std::vector<int64_t> extents;
    for (const auto &v : graph_.domainVars(node))
        extents.push_back(v.extent);
    std::vector<int64_t> point(extents.size(), 0);

    std::vector<bool> touched(static_cast<size_t>(out.numel()), false);
    std::vector<std::complex<double>> cacc;
    if (complex_in && out.isComplex())
        cacc.assign(static_cast<size_t>(out.numel()),
                    {rcode == ir::OpCode::Prod ? 1.0 : 0.0, 0.0});

    if (builtin && !complex_in) {
        const double init = lang::reductionIdentity(node.op.str());
        for (int64_t i = 0; i < out.numel(); ++i)
            out.at(i) = init;
    }

    do {
        if (node.hasPredicate) {
            if (stats_)
                ++stats_->guardEvals;
            if (node.predicate.eval(point) == 0)
                continue;
        }
        const int64_t out_flat = flatIndex(out, out_access, point);
        // Tree-equivalent combine count: ops beyond the first element.
        if (stats_ && touched[static_cast<size_t>(out_flat)])
            ++stats_->reduceCombines;
        if (complex_in) {
            const auto x = readComplex(ins[0], point);
            if (rcode == ir::OpCode::Sum)
                cacc[static_cast<size_t>(out_flat)] += x;
            else
                cacc[static_cast<size_t>(out_flat)] *= x;
            touched[static_cast<size_t>(out_flat)] = true;
            continue;
        }
        const double x = readReal(ins[0], point);
        double &acc = out.at(out_flat);
        if (builtin) {
            // The combiner dispatches on the resolved opcode once per
            // element — no string comparison in the reduction loop.
            switch (rcode) {
              case ir::OpCode::Sum: acc += x; break;
              case ir::OpCode::Prod: acc *= x; break;
              case ir::OpCode::Max: acc = acc > x ? acc : x; break;
              case ir::OpCode::Min: acc = acc < x ? acc : x; break;
              default: panic("unhandled builtin reduction");
            }
        } else if (!touched[static_cast<size_t>(out_flat)]) {
            acc = x;
        } else {
            acc = evalKernel(*custom->body, acc, x, *custom);
        }
        touched[static_cast<size_t>(out_flat)] = true;
    } while (nextPoint(&point, extents));

    if (complex_in) {
        for (int64_t i = 0; i < out.numel(); ++i) {
            out.cat(i) = touched[static_cast<size_t>(i)]
                             ? cacc[static_cast<size_t>(i)]
                             : std::complex<double>{0.0, 0.0};
        }
    } else {
        // Guarded-out (or empty custom) cells read as zero.
        for (int64_t i = 0; i < out.numel(); ++i) {
            if (!touched[static_cast<size_t>(i)] && !builtin)
                out.at(i) = 0.0;
            if (!touched[static_cast<size_t>(i)] && builtin &&
                (rcode == ir::OpCode::Max || rcode == ir::OpCode::Min)) {
                out.at(i) = 0.0;
            }
        }
        if (out_md.dtype == DType::Int) {
            for (int64_t i = 0; i < out.numel(); ++i)
                out.at(i) = std::trunc(out.at(i));
        }
    }

    store(out_access.value, std::move(out));
}

void
GraphRunner::execComponent(const Node &node)
{
    GraphRunner inner(*node.subgraph, stats_);
    const auto ins = graph_.ins(node);
    const auto outs = graph_.outs(node);
    for (size_t i = 0; i < ins.size(); ++i)
        inner.bindInput(node.subgraph->inputs[i], tensorOf(ins[i].value));
    inner.run();
    for (size_t i = 0; i < outs.size(); ++i)
        store(outs[i].value, inner.tensorOf(node.subgraph->outputs[i]));
}

void
GraphRunner::run()
{
    for (ir::NodeId id : ir::topoOrder(graph_)) {
        const Node &node = *graph_.node(id);
        switch (node.kind) {
          case NodeKind::Constant: execConstant(node); break;
          case NodeKind::Map: execMap(node); break;
          case NodeKind::Reduce: execReduce(node); break;
          case NodeKind::Component: execComponent(node); break;
        }
    }
}

} // namespace

Interpreter::Interpreter(const ir::Graph &graph) : graph_(graph) {}

void
Interpreter::setInput(const std::string &name, Tensor tensor)
{
    // The name index resolves the binding in O(1); inputs are created
    // before any internal value, so a named input is always the first
    // value carrying its name.
    const ValueId v = graph_.findValueByName(name);
    const bool is_input =
        v >= 0 && std::find(graph_.inputs.begin(), graph_.inputs.end(), v) !=
                      graph_.inputs.end();
    if (!is_input) {
        fatal("graph '" + graph_.name + "' has no input named '" + name +
              "'");
    }
    const auto &md = graph_.value(v).md;
    if (!(md.shape == tensor.shape())) {
        fatal("input '" + name + "' expects shape " + md.shape.str() +
              ", got " + tensor.shape().str());
    }
    bindings_[name] = std::move(tensor);
}

bool
Interpreter::ready() const
{
    for (ValueId v : graph_.inputs) {
        if (!bindings_.count(graph_.value(v).md.name))
            return false;
    }
    return true;
}

void
Interpreter::run()
{
    GraphRunner runner(graph_, &stats_);
    for (ValueId v : graph_.inputs) {
        const auto &md = graph_.value(v).md;
        auto it = bindings_.find(md.name);
        if (it == bindings_.end())
            fatal("input '" + md.name + "' is unbound");
        runner.bindInput(v, it->second);
    }
    runner.run();
    results_.clear();
    for (ValueId v : graph_.outputs) {
        const auto &md = graph_.value(v).md;
        results_[md.name] = runner.tensorOf(v);
        // State carry-over: updated versions feed the next invocation.
        if (md.kind == ir::EdgeKind::State)
            bindings_[md.name] = results_[md.name];
    }
    ++invocations_;
}

const Tensor &
Interpreter::output(const std::string &name) const
{
    auto it = results_.find(name);
    if (it == results_.end())
        fatal("no output named '" + name + "' (did run() happen?)");
    return it->second;
}

std::map<std::string, Tensor>
evaluate(const ir::Graph &graph, const std::map<std::string, Tensor> &inputs,
         ExecStats *stats)
{
    Interpreter interp(graph);
    for (const auto &[name, tensor] : inputs)
        interp.setInput(name, tensor);
    interp.run();
    if (stats)
        *stats = interp.stats();
    std::map<std::string, Tensor> out;
    for (ValueId v : graph.outputs)
        out[graph.value(v).md.name] = interp.output(graph.value(v).md.name);
    return out;
}

} // namespace polymath::interp
