#include "srdfg/builder.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <string_view>
#include <vector>

#include "core/flat_map.h"
#include "obs/trace.h"
#include "pmlang/builtins.h"
#include "pmlang/parser.h"
#include "pmlang/sema.h"

namespace polymath::ir {

namespace {

using lang::ComponentDecl;
using lang::Expr;
using lang::ExprKind;
using lang::Modifier;
using lang::Stmt;
using lang::StmtKind;

/**
 * Small sorted set of variable names, viewing into the AST's strings
 * (which outlive every build). Iterates in the same lexicographic order
 * std::set<std::string> would, but with one flat buffer instead of a
 * node allocation per name — usedVars() runs on every interior
 * expression node, so this is on the frontend's hot path.
 */
struct VarSet
{
    std::vector<std::string_view> names;

    void insert(std::string_view s)
    {
        const auto it =
            std::lower_bound(names.begin(), names.end(), s);
        if (it == names.end() || *it != s)
            names.insert(it, s);
    }

    void erase(std::string_view s)
    {
        const auto it =
            std::lower_bound(names.begin(), names.end(), s);
        if (it != names.end() && *it == s)
            names.erase(it);
    }

    bool contains(std::string_view s) const
    {
        const auto it =
            std::lower_bound(names.begin(), names.end(), s);
        return it != names.end() && *it == s;
    }

    auto begin() const { return names.begin(); }
    auto end() const { return names.end(); }
    size_t size() const { return names.size(); }
};

/** What a name is bound to inside one component instantiation. */
struct Binding
{
    enum class Kind {
        Tensor, ///< runtime data: an SSA value in the frame's graph
        Const,  ///< compile-time scalar (literal-bound param / dim symbol)
    };

    Kind kind = Kind::Tensor;
    ValueId value = -1; ///< current SSA version; -1 for unwritten outputs
    Shape shape;
    DType dtype = DType::Float;
    EdgeKind ekind = EdgeKind::Internal;
    double cval = 0.0;
    bool isIntegral = false;
};

/** A declared index variable's inclusive range. */
struct IndexRange
{
    int64_t lo = 0;
    int64_t hi = -1;

    int64_t extent() const { return hi - lo + 1; }
};

/** Scope maps are flat sorted vectors viewing into AST strings; see
 *  core/flat_map.h for the lifetime contract. */
template <class T>
using FlatEnv = FlatStringMap<T>;

/** Active iteration context for one statement: ordered variables. */
struct VarContext
{
    std::vector<std::string> names;
    std::vector<IndexRange> ranges;

    int slotOf(const std::string &name) const
    {
        for (size_t i = 0; i < names.size(); ++i) {
            if (names[i] == name)
                return static_cast<int>(i);
        }
        return -1;
    }
};

/** An argument passed to a component instantiation. */
struct ActualArg
{
    bool isConst = false;
    // Tensor case
    std::string name;
    ValueId value = -1;
    Shape shape;
    DType dtype = DType::Float;
    // Const case
    double cval = 0.0;
    bool isIntegral = false;
};

/** Per-instantiation build state. */
struct Frame
{
    Graph *graph = nullptr;
    const ComponentDecl *comp = nullptr;
    FlatEnv<Binding> env;
    FlatEnv<IndexRange> ranges;
    Domain dom = Domain::None;
};

/** A detached access under construction: coords as an owned vector,
 *  interned into the graph's coord arena only when attached to a node
 *  (emitted operands get remapped in place before attachment). */
struct AccessSpec
{
    ValueId value = -1;
    std::vector<IndexExpr> coords;

    bool isIndexOperand() const { return value == Access::kIndexOperand; }
};

/** Interns @p spec into @p g's arenas as an attachable access. */
Access
intern(Graph &g, const AccessSpec &spec)
{
    return g.makeAccess(spec.value, spec.coords);
}

/** Result of emitting an expression: an access relative to the emitting
 *  statement's full variable context. */
struct Operand
{
    AccessSpec access;
    DType dtype = DType::Float;
};

class GraphBuilder
{
  public:
    GraphBuilder(std::shared_ptr<const lang::Program> program,
                 std::shared_ptr<IrContext> context)
        : program_(std::move(program)), context_(std::move(context))
    {
    }

    std::unique_ptr<Graph> buildEntry(const std::string &entry,
                                      const std::map<std::string, int64_t>
                                          &param_consts);

  private:
    std::unique_ptr<Graph> buildComponent(const ComponentDecl &comp,
                                          std::vector<ActualArg> actuals,
                                          Domain dom);
    void buildBody(Frame &frame);
    void buildAssign(Frame &frame, const Stmt &stmt);
    void buildCall(Frame &frame, const Stmt &stmt);

    Operand emitExpr(Frame &frame, const Expr &e, const VarContext &ctx);
    Operand emitMapOp(Frame &frame, Op op,
                      std::vector<Operand> operands, DType dtype,
                      const VarContext &ctx, const VarSet &used);
    Operand emitReduce(Frame &frame, const Expr &e, const VarContext &ctx);
    Operand emitConstant(Frame &frame, double value, DType dtype);

    /** Translates PMLang index arithmetic to an IndexExpr over @p ctx. */
    IndexExpr translateIndex(const Frame &frame, const Expr &e,
                             const VarContext &ctx) const;

    /** Constant-evaluates an expression of params/dims/literals. */
    int64_t evalConstInt(const Frame &frame, const Expr &e) const;
    double evalConstScalar(const Frame &frame, const Expr &e) const;

    /** Index variables of the active context used in @p e (subtracting
     *  inner reduction axes). */
    void usedVars(const Frame &frame, const Expr &e, VarSet *out) const;

    /** Resolves formal dims against an actual shape, binding symbols. */
    void unifyDims(Frame &callee_frame, const lang::ArgDecl &formal,
                   const Shape &actual_shape) const;

    Shape resolveDims(const Frame &frame,
                      const std::vector<lang::ExprPtr> &dims) const;

    std::shared_ptr<const lang::Program> program_;
    std::shared_ptr<IrContext> context_;

    /** Memoized component instantiations. A subgraph depends only on the
     *  callee declaration, the instantiation domain, and each actual's
     *  constant value or tensor shape (outer names and value ids never
     *  cross the boundary), so repeated instantiations — DNN layers with
     *  identical shapes, per-axis controller blocks — are served by a
     *  Graph::clone() of the first build instead of a re-walk of the
     *  body. */
    std::map<std::string, std::unique_ptr<Graph>> subCache_;
};

/** Builds the memoization key for one instantiation. Constants are keyed
 *  by their exact bit pattern; tensors by their extents (the formal fixes
 *  rank and dtype). */
std::string
instantiationKey(const ComponentDecl &comp,
                 const std::vector<ActualArg> &actuals, Domain dom)
{
    std::string key;
    key.reserve(comp.name.size() + 2 + actuals.size() * 10);
    key += comp.name;
    key += '\x1f';
    key += static_cast<char>('0' + static_cast<int>(dom));
    for (const auto &a : actuals) {
        if (a.isConst) {
            key += a.isIntegral ? 'c' : 'f';
            uint64_t bits = 0;
            static_assert(sizeof(bits) == sizeof(a.cval));
            std::memcpy(&bits, &a.cval, sizeof(bits));
            key.append(reinterpret_cast<const char *>(&bits), sizeof(bits));
        } else {
            key += 't';
            for (const int64_t d : a.shape.dims()) {
                key += ':';
                key += std::to_string(d);
            }
        }
    }
    return key;
}

/** Maps a PMLang binary operator to its srDFG op code. */
OpCode
mapBinaryOp(lang::BinaryOp op)
{
    switch (op) {
      case lang::BinaryOp::Add: return OpCode::Add;
      case lang::BinaryOp::Sub: return OpCode::Sub;
      case lang::BinaryOp::Mul: return OpCode::Mul;
      case lang::BinaryOp::Div: return OpCode::Div;
      case lang::BinaryOp::Mod: return OpCode::Mod;
      case lang::BinaryOp::Pow: return OpCode::Pow;
      case lang::BinaryOp::Lt: return OpCode::Lt;
      case lang::BinaryOp::Le: return OpCode::Le;
      case lang::BinaryOp::Gt: return OpCode::Gt;
      case lang::BinaryOp::Ge: return OpCode::Ge;
      case lang::BinaryOp::Eq: return OpCode::Eq;
      case lang::BinaryOp::Ne: return OpCode::Ne;
      case lang::BinaryOp::And: return OpCode::And;
      case lang::BinaryOp::Or: return OpCode::Or;
    }
    panic("unhandled BinaryOp");
}

bool
isComparison(OpCode op)
{
    switch (op) {
      case OpCode::Lt:
      case OpCode::Le:
      case OpCode::Gt:
      case OpCode::Ge:
      case OpCode::Eq:
      case OpCode::Ne:
      case OpCode::And:
      case OpCode::Or:
      case OpCode::Not:
        return true;
      default:
        return false;
    }
}

std::unique_ptr<Graph>
GraphBuilder::buildEntry(const std::string &entry,
                         const std::map<std::string, int64_t> &param_consts)
{
    const ComponentDecl *comp = program_->findComponent(entry);
    if (!comp)
        fatal("entry component '" + entry + "' not found");

    // Synthesize actuals for the entry from its own signature: every
    // runtime argument becomes a graph input of the top-level srDFG.
    std::vector<ActualArg> actuals;
    for (const auto &arg : comp->args) {
        ActualArg actual;
        auto it = param_consts.find(arg.name);
        if (it != param_consts.end()) {
            if (arg.mod != Modifier::Param || !arg.dims.empty()) {
                fatal("paramConsts binding '" + arg.name +
                      "' must target a scalar param");
            }
            actual.isConst = true;
            actual.cval = static_cast<double>(it->second);
            actual.isIntegral = true;
        } else {
            actual.name = arg.name;
            actual.dtype = arg.type;
            // Dims must be compile-time constants at the entry. A frame
            // with no bindings suffices: only literals are resolvable.
            Frame empty;
            empty.comp = comp;
            std::vector<int64_t> dims;
            for (const auto &d : arg.dims)
                dims.push_back(evalConstInt(empty, *d));
            actual.shape = Shape(dims);
        }
        actuals.push_back(std::move(actual));
    }
    auto graph = buildComponent(*comp, std::move(actuals), Domain::None);
    graph->validate();
    return graph;
}

std::unique_ptr<Graph>
GraphBuilder::buildComponent(const ComponentDecl &comp,
                             std::vector<ActualArg> actuals, Domain dom)
{
    if (actuals.size() != comp.args.size())
        panic("actual/formal count mismatch for " + comp.name);

    auto graph = std::make_unique<Graph>();
    graph->name = comp.name;
    graph->domain = dom;
    graph->context = context_;

    Frame frame;
    frame.graph = graph.get();
    frame.comp = &comp;
    frame.dom = dom;

    // Bind formals. Two passes: constants/dim symbols first so tensor dims
    // that reference them resolve.
    for (size_t i = 0; i < comp.args.size(); ++i) {
        const auto &formal = comp.args[i];
        const auto &actual = actuals[i];
        if (actual.isConst) {
            Binding b;
            b.kind = Binding::Kind::Const;
            b.cval = actual.cval;
            b.isIntegral = actual.isIntegral;
            b.dtype = formal.type;
            frame.env[formal.name] = b;
        } else {
            unifyDims(frame, formal, actual.shape);
        }
    }
    for (size_t i = 0; i < comp.args.size(); ++i) {
        const auto &formal = comp.args[i];
        const auto &actual = actuals[i];
        if (actual.isConst)
            continue;
        Binding b;
        b.kind = Binding::Kind::Tensor;
        b.shape = actual.shape;
        b.dtype = formal.type;
        b.ekind = edgeKindFor(formal.mod);
        if (formal.mod == Modifier::Output) {
            b.value = -1; // produced by the body
        } else {
            EdgeMeta md;
            md.dtype = formal.type;
            md.kind = b.ekind;
            md.shape = actual.shape;
            md.name = formal.name;
            b.value = graph->addValue(md);
            graph->inputs.push_back(b.value);
        }
        frame.env[formal.name] = b;
    }

    buildBody(frame);

    // Boundary outputs: output formals then updated state versions. The
    // final SSA version takes on the formal's boundary role (an edge that
    // is `state` at the instantiation boundary was `internal` while the
    // body produced it — Section III-B's modifier change across levels).
    for (const auto &formal : comp.args) {
        if (formal.mod != Modifier::Output)
            continue;
        const Binding &b = frame.env[formal.name];
        if (b.value < 0)
            fatal("output '" + formal.name + "' never assigned",
                  formal.loc);
        graph->value(b.value).md.kind = EdgeKind::Output;
        graph->outputs.push_back(b.value);
    }
    for (const auto &formal : comp.args) {
        if (formal.mod != Modifier::State)
            continue;
        const ValueId v = frame.env[formal.name].value;
        graph->value(v).md.kind = EdgeKind::State;
        graph->outputs.push_back(v);
    }
    return graph;
}

void
GraphBuilder::unifyDims(Frame &frame, const lang::ArgDecl &formal,
                        const Shape &actual_shape) const
{
    if (static_cast<int>(formal.dims.size()) != actual_shape.rank()) {
        fatal("argument '" + formal.name + "' of '" + frame.comp->name +
                  "' expects rank " + std::to_string(formal.dims.size()) +
                  ", got " + actual_shape.str(),
              formal.loc);
    }
    for (size_t d = 0; d < formal.dims.size(); ++d) {
        const Expr &dim = *formal.dims[d];
        const int64_t extent = actual_shape.dim(static_cast<int>(d));
        if (dim.kind == ExprKind::Ref && dim.args.empty() &&
            !frame.env.count(dim.name)) {
            // Unbound symbolic dimension: bind it.
            Binding b;
            b.kind = Binding::Kind::Const;
            b.cval = static_cast<double>(extent);
            b.isIntegral = true;
            b.dtype = DType::Int;
            frame.env[dim.name] = b;
            continue;
        }
        const int64_t expected = evalConstInt(frame, dim);
        if (expected != extent) {
            fatal("dimension mismatch for '" + formal.name + "': declared " +
                      std::to_string(expected) + ", actual " +
                      std::to_string(extent),
                  formal.loc);
        }
    }
}

Shape
GraphBuilder::resolveDims(const Frame &frame,
                          const std::vector<lang::ExprPtr> &dims) const
{
    std::vector<int64_t> extents;
    for (const auto &d : dims)
        extents.push_back(evalConstInt(frame, *d));
    return Shape(extents);
}

void
GraphBuilder::buildBody(Frame &frame)
{
    for (const auto &stmt : frame.comp->body) {
        switch (stmt->kind) {
          case StmtKind::IndexDecl:
            for (const auto &spec : stmt->indexSpecs) {
                IndexRange r;
                r.lo = evalConstInt(frame, *spec.lo);
                r.hi = evalConstInt(frame, *spec.hi);
                if (r.extent() <= 0) {
                    fatal("index '" + spec.name + "' has empty range [" +
                              std::to_string(r.lo) + ":" +
                              std::to_string(r.hi) + "]",
                          spec.loc);
                }
                frame.ranges[spec.name] = r;
            }
            break;
          case StmtKind::VarDecl:
            for (const auto &decl : stmt->locals) {
                Binding b;
                b.kind = Binding::Kind::Tensor;
                b.shape = resolveDims(frame, decl.dims);
                b.dtype = stmt->declType;
                b.ekind = EdgeKind::Internal;
                b.value = -1;
                frame.env[decl.name] = b;
            }
            break;
          case StmtKind::Assign:
            buildAssign(frame, *stmt);
            break;
          case StmtKind::Call:
            buildCall(frame, *stmt);
            break;
        }
    }
}

void
GraphBuilder::buildAssign(Frame &frame, const Stmt &stmt)
{
    Binding &target = frame.env.at(stmt.target);

    // Statement iteration context: index variables in order of first
    // appearance in the LHS subscripts.
    VarContext ctx;
    VarSet seen;
    for (const auto &ix : stmt.targetIndices) {
        VarSet vars;
        usedVars(frame, *ix, &vars);
        // usedVars is sorted per subscript; dedup across subscripts while
        // keeping subscript order for the context.
        for (const auto &name : vars) {
            if (!seen.contains(name)) {
                seen.insert(name);
                ctx.names.emplace_back(name);
                ctx.ranges.push_back(frame.ranges.at(ctx.names.back()));
            }
        }
    }

    Operand rhs = emitExpr(frame, *stmt.value, ctx);

    // Full-write detection: every LHS subscript is a distinct bare index
    // variable covering its whole dimension.
    bool full_write = true;
    std::vector<IndexExpr> scatter;
    for (size_t d = 0; d < stmt.targetIndices.size(); ++d) {
        const Expr &ix = *stmt.targetIndices[d];
        IndexExpr translated = translateIndex(frame, ix, ctx);
        const bool bare =
            ix.kind == ExprKind::Ref && ix.args.empty() &&
            frame.ranges.count(ix.name) &&
            frame.ranges.at(ix.name).lo == 0 &&
            frame.ranges.at(ix.name).extent() ==
                target.shape.dim(static_cast<int>(d));
        if (!bare)
            full_write = false;
        scatter.push_back(std::move(translated));
    }
    if (full_write) {
        // Bare vars must also be pairwise distinct and cover the context.
        VarSet names;
        for (const auto &ix : stmt.targetIndices)
            names.insert(ix->name);
        full_write = names.size() == stmt.targetIndices.size() &&
                     names.size() == ctx.names.size();
    }
    if (stmt.targetIndices.empty())
        full_write = true; // scalar target

    EdgeMeta md;
    md.dtype = target.dtype;
    md.kind = EdgeKind::Internal;
    md.shape = target.shape;
    md.name = stmt.target;

    // Fuse the store into the producing node when the write is total and
    // the producer is a fresh intermediate over the same context.
    if (full_write && !rhs.access.isIndexOperand() && rhs.access.value >= 0) {
        Value &rv = frame.graph->value(rhs.access.value);
        if (rv.md.kind == EdgeKind::Internal && rv.md.name.empty() &&
            rv.producer >= 0) {
            Node *producer = frame.graph->node(rv.producer);
            const auto pouts =
                producer ? frame.graph->outs(*producer)
                         : std::span<const Access>{};
            const bool same_domain =
                producer && pouts.size() == 1 &&
                pouts[0].value == rhs.access.value &&
                producer->domainVarNames(*frame.graph) == ctx.names &&
                rv.md.shape == md.shape;
            bool identity_coords =
                static_cast<int>(rhs.access.coords.size()) ==
                md.shape.rank();
            for (size_t i = 0; identity_coords && i < rhs.access.coords.size();
                 ++i) {
                identity_coords =
                    rhs.access.coords[i].isIdentityVar(static_cast<int>(i));
            }
            if (same_domain && identity_coords) {
                md.dtype = rv.md.dtype; // copy before addValue invalidates rv
                const ValueId nv =
                    frame.graph->addValue(md, producer->id);
                // The fresh intermediate is orphaned; unlink its producer.
                frame.graph->value(rhs.access.value).producer = -1;
                frame.graph->outsMut(*producer)[0].value = nv;
                target.value = nv;
                target.dtype = md.dtype;
                return;
            }
        }
    }

    // Otherwise emit an explicit store node (gather+scatter move).
    Graph &g = *frame.graph;
    Node &store = *g.node(g.addNode(NodeKind::Map, OpCode::Identity));
    store.domain = frame.dom;
    for (size_t i = 0; i < ctx.names.size(); ++i) {
        g.addDomainVar(store,
                       IndexVar{ctx.names[i], ctx.ranges[i].extent(), false});
    }
    g.addInput(store, intern(g, rhs.access));
    if (!full_write)
        store.base = target.value; // may be -1: unwritten points read zero
    const ValueId nv = g.addValue(md, store.id);
    g.addOutput(store, g.makeAccess(nv, scatter));
    target.value = nv;
}

void
GraphBuilder::buildCall(Frame &frame, const Stmt &stmt)
{
    const ComponentDecl *callee = program_->findComponent(stmt.callee);
    if (!callee)
        panic("sema admitted unknown component " + stmt.callee);
    const Domain dom = stmt.domain != Domain::None ? stmt.domain : frame.dom;

    std::vector<ActualArg> actuals;
    std::vector<std::string> outer_names(callee->args.size());
    for (size_t i = 0; i < callee->args.size(); ++i) {
        const Expr &actual_expr = *stmt.callArgs[i];
        ActualArg actual;
        if (actual_expr.kind == ExprKind::Ref && actual_expr.args.empty() &&
            frame.env.count(actual_expr.name)) {
            const Binding &b = frame.env.at(actual_expr.name);
            if (b.kind == Binding::Kind::Const) {
                actual.isConst = true;
                actual.cval = b.cval;
                actual.isIntegral = b.isIntegral;
            } else {
                actual.name = actual_expr.name;
                actual.value = b.value;
                actual.shape = b.shape;
                actual.dtype = b.dtype;
                outer_names[i] = actual_expr.name;
            }
        } else {
            actual.isConst = true;
            if (callee->args[i].type == DType::Int) {
                actual.cval =
                    static_cast<double>(evalConstInt(frame, actual_expr));
                actual.isIntegral = true;
            } else {
                actual.cval = evalConstScalar(frame, actual_expr);
                actual.isIntegral =
                    actual.cval == std::floor(actual.cval);
            }
        }
        actuals.push_back(std::move(actual));
    }

    std::unique_ptr<Graph> sub;
    std::string key = instantiationKey(*callee, actuals, dom);
    if (const auto it = subCache_.find(key); it == subCache_.end()) {
        // First sighting: build, and leave a marker so a repeat knows to
        // populate the cache. Caching eagerly would charge every
        // single-use instantiation a clone that is never amortized.
        sub = buildComponent(*callee, actuals, dom);
        subCache_.emplace(std::move(key), nullptr);
    } else if (!it->second) {
        sub = buildComponent(*callee, actuals, dom);
        it->second = sub->clone();
    } else {
        sub = it->second->clone();
    }

    Node &call = *frame.graph->node(frame.graph->addNode(
        NodeKind::Component, Op::intern(callee->name)));
    call.domain = dom;

    // Bind outer values to subgraph inputs, positionally.
    size_t sub_in = 0;
    for (size_t i = 0; i < callee->args.size(); ++i) {
        const auto &formal = callee->args[i];
        if (actuals[i].isConst || formal.mod == Modifier::Output)
            continue;
        if (sub_in >= sub->inputs.size())
            panic("subgraph input underflow");
        const Binding &b = frame.env.at(outer_names[i]);
        if (b.value < 0) {
            fatal("'" + outer_names[i] + "' is read before assignment",
                  stmt.loc);
        }
        frame.graph->addInput(call, Access{b.value, {}});
        ++sub_in;
    }

    // Subgraph outputs: output formals in order, then state formals.
    auto bind_result = [&](const lang::ArgDecl &formal, size_t arg_pos) {
        Binding &outer = frame.env.at(outer_names[arg_pos]);
        EdgeMeta md;
        md.dtype = formal.type;
        md.kind = outer.ekind;
        md.shape = outer.shape;
        md.name = outer_names[arg_pos];
        const ValueId nv = frame.graph->addValue(md, call.id);
        frame.graph->addOutput(call, Access{nv, {}});
        outer.value = nv;
        outer.dtype = formal.type;
    };
    for (size_t i = 0; i < callee->args.size(); ++i) {
        if (callee->args[i].mod == Modifier::Output)
            bind_result(callee->args[i], i);
    }
    for (size_t i = 0; i < callee->args.size(); ++i) {
        if (callee->args[i].mod == Modifier::State)
            bind_result(callee->args[i], i);
    }
    call.subgraph = std::move(sub);
}

Operand
GraphBuilder::emitConstant(Frame &frame, double value, DType dtype)
{
    Node &node =
        *frame.graph->node(frame.graph->addNode(NodeKind::Constant,
                                                OpCode::Const));
    node.cval = value;
    EdgeMeta md;
    md.dtype = dtype;
    md.kind = EdgeKind::Internal;
    const ValueId v = frame.graph->addValue(md, node.id);
    frame.graph->addOutput(node, Access{v, {}});
    Operand op;
    op.access.value = v;
    op.dtype = dtype;
    return op;
}

Operand
GraphBuilder::emitExpr(Frame &frame, const Expr &e, const VarContext &ctx)
{
    switch (e.kind) {
      case ExprKind::Number:
        return emitConstant(frame, e.value,
                            e.isIntLit ? DType::Int : DType::Float);
      case ExprKind::Ref: {
        auto range_it = frame.ranges.find(e.name);
        if (range_it != frame.ranges.end()) {
            // Index variable used as data.
            const int slot = ctx.slotOf(e.name);
            if (slot < 0)
                fatal("index '" + e.name + "' unbound here", e.loc);
            IndexExpr ix = IndexExpr::var(slot);
            if (range_it->second.lo != 0) {
                ix = IndexExpr::binary(
                    IndexExpr::Kind::Add, std::move(ix),
                    IndexExpr::constant(range_it->second.lo));
            }
            Operand op;
            op.access.value = Access::kIndexOperand;
            op.access.coords.push_back(std::move(ix));
            op.dtype = DType::Int;
            return op;
        }
        const Binding &b = frame.env.at(e.name);
        if (b.kind == Binding::Kind::Const)
            return emitConstant(frame, b.cval,
                                b.isIntegral ? DType::Int : DType::Float);
        if (b.value < 0)
            fatal("'" + e.name + "' is read before assignment", e.loc);
        Operand op;
        op.access.value = b.value;
        for (const auto &ix : e.args)
            op.access.coords.push_back(translateIndex(frame, *ix, ctx));
        op.dtype = b.dtype;
        return op;
      }
      case ExprKind::Unary: {
        VarSet used;
        usedVars(frame, e, &used);
        std::vector<Operand> operands;
        operands.push_back(emitExpr(frame, *e.lhs, ctx));
        const bool is_neg = e.unaryOp == lang::UnaryOp::Neg;
        const OpCode op = is_neg ? OpCode::Neg : OpCode::Not;
        DType dt = is_neg ? operands[0].dtype : DType::Bin;
        return emitMapOp(frame, op, std::move(operands), dt, ctx, used);
      }
      case ExprKind::Binary: {
        VarSet used;
        usedVars(frame, e, &used);
        std::vector<Operand> operands;
        operands.push_back(emitExpr(frame, *e.lhs, ctx));
        operands.push_back(emitExpr(frame, *e.rhs, ctx));
        const OpCode op = mapBinaryOp(e.binaryOp);
        DType dt;
        if (isComparison(op)) {
            dt = DType::Bin;
        } else {
            dt = promote(operands[0].dtype, operands[1].dtype);
            if (op == OpCode::Div && dt == DType::Int)
                dt = DType::Float; // PMLang '/' is real division on data
        }
        return emitMapOp(frame, op, std::move(operands), dt, ctx, used);
      }
      case ExprKind::Ternary: {
        VarSet used;
        usedVars(frame, e, &used);
        std::vector<Operand> operands;
        operands.push_back(emitExpr(frame, *e.lhs, ctx));
        operands.push_back(emitExpr(frame, *e.rhs, ctx));
        operands.push_back(emitExpr(frame, *e.third, ctx));
        const DType dt = promote(operands[1].dtype, operands[2].dtype);
        return emitMapOp(frame, OpCode::Select, std::move(operands), dt,
                         ctx, used);
      }
      case ExprKind::Call: {
        VarSet used;
        usedVars(frame, e, &used);
        std::vector<Operand> operands;
        for (const auto &a : e.args)
            operands.push_back(emitExpr(frame, *a, ctx));
        DType dt = operands[0].dtype;
        for (const auto &o : operands)
            dt = promote(dt, o.dtype);
        if (dt == DType::Int || dt == DType::Bin)
            dt = DType::Float; // transcendental results are real
        // re/im/abs project complex operands onto the reals.
        if (dt == DType::Complex &&
            (e.name == "re" || e.name == "im" || e.name == "abs")) {
            dt = DType::Float;
        }
        return emitMapOp(frame, Op::intern(e.name), std::move(operands),
                         dt, ctx, used);
      }
      case ExprKind::Reduce:
        return emitReduce(frame, e, ctx);
    }
    panic("unhandled ExprKind");
}

Operand
GraphBuilder::emitMapOp(Frame &frame, Op op,
                        std::vector<Operand> operands, DType dtype,
                        const VarContext &ctx, const VarSet &used)
{
    // The node's domain is the subset of the context its subtree uses,
    // in context order (keeps op counts exact, e.g. the inner dot product
    // of a logistic-regression update does not iterate the outer axes).
    Graph &g = *frame.graph;
    Node &node = *g.node(g.addNode(NodeKind::Map, op));
    node.domain = frame.dom;
    std::vector<int> remap(ctx.names.size(), -1);
    std::vector<int64_t> extents;
    int nvars = 0;
    for (size_t i = 0; i < ctx.names.size(); ++i) {
        if (!used.contains(ctx.names[i]))
            continue;
        remap[i] = nvars++;
        g.addDomainVar(node,
                       IndexVar{ctx.names[i], ctx.ranges[i].extent(), false});
        extents.push_back(ctx.ranges[i].extent());
    }
    for (auto &operand : operands) {
        AccessSpec a = std::move(operand.access);
        for (auto &c : a.coords)
            c = c.remapped(remap);
        g.addInput(node, intern(g, a));
    }

    EdgeMeta md;
    md.dtype = dtype;
    md.kind = EdgeKind::Internal;
    md.shape = Shape(extents);
    const ValueId v = g.addValue(md, node.id);
    std::vector<IndexExpr> out_coords;
    for (int i = 0; i < nvars; ++i)
        out_coords.push_back(IndexExpr::var(i));
    g.addOutput(node, g.makeAccess(v, out_coords));

    // The consumer sees this intermediate through identity coords over the
    // node's variables, expressed in the consumer's (full) context.
    Operand out;
    out.access.value = v;
    for (size_t i = 0; i < ctx.names.size(); ++i) {
        if (remap[i] >= 0)
            out.access.coords.push_back(
                IndexExpr::var(static_cast<int>(i)));
    }
    // Coordinates must be ordered by the node's own variable order, which
    // matches context order by construction.
    out.dtype = dtype;
    return out;
}

Operand
GraphBuilder::emitReduce(Frame &frame, const Expr &e, const VarContext &ctx)
{
    // Extended context: outer vars plus this reduction's axes.
    VarContext inner = ctx;
    for (const auto &axis : e.axes) {
        if (inner.slotOf(axis.index) >= 0)
            fatal("axis '" + axis.index + "' already bound", axis.loc);
        inner.names.push_back(axis.index);
        inner.ranges.push_back(frame.ranges.at(axis.index));
    }

    Operand body = emitExpr(frame, *e.body, inner);

    // Node domain: used free vars (in ctx order) then all axes.
    VarSet used;
    usedVars(frame, *e.body, &used);
    for (const auto &axis : e.axes) {
        used.insert(axis.index);
        if (axis.cond)
            usedVars(frame, *axis.cond, &used);
    }

    Graph &g = *frame.graph;
    Node &node = *g.node(g.addNode(NodeKind::Reduce, Op::intern(e.name)));
    node.domain = frame.dom;
    std::vector<int> remap(inner.names.size(), -1);
    VarSet axis_names;
    for (const auto &axis : e.axes)
        axis_names.insert(axis.index);
    std::vector<int64_t> free_extents;
    std::vector<bool> slot_reduced;
    for (size_t i = 0; i < inner.names.size(); ++i) {
        if (!used.contains(inner.names[i]))
            continue;
        const bool reduced = axis_names.contains(inner.names[i]);
        remap[i] = static_cast<int>(slot_reduced.size());
        slot_reduced.push_back(reduced);
        g.addDomainVar(node, IndexVar{inner.names[i],
                                      inner.ranges[i].extent(), reduced});
        if (!reduced)
            free_extents.push_back(inner.ranges[i].extent());
    }
    AccessSpec in = std::move(body.access);
    for (auto &c : in.coords)
        c = c.remapped(remap);
    g.addInput(node, intern(g, in));

    // Guard: conjunction of axis conditions.
    bool has_pred = false;
    IndexExpr pred;
    for (const auto &axis : e.axes) {
        if (!axis.cond)
            continue;
        IndexExpr c = translateIndex(frame, *axis.cond, inner);
        c = c.remapped(remap);
        pred = has_pred
                   ? IndexExpr::binary(IndexExpr::Kind::And, std::move(pred),
                                       std::move(c))
                   : std::move(c);
        has_pred = true;
    }
    node.predicate = std::move(pred);
    node.hasPredicate = has_pred;

    DType dt = body.dtype;
    if (dt == DType::Bin)
        dt = DType::Int; // counting semantics for sums of booleans

    EdgeMeta md;
    md.dtype = dt;
    md.kind = EdgeKind::Internal;
    md.shape = Shape(free_extents);
    const ValueId v = g.addValue(md, node.id);
    std::vector<IndexExpr> out_coords;
    for (size_t i = 0; i < slot_reduced.size(); ++i) {
        if (!slot_reduced[i])
            out_coords.push_back(IndexExpr::var(static_cast<int>(i)));
    }
    g.addOutput(node, g.makeAccess(v, out_coords));

    Operand out;
    out.access.value = v;
    for (size_t i = 0; i < ctx.names.size(); ++i) {
        if (static_cast<size_t>(i) < remap.size() && remap[i] >= 0 &&
            !axis_names.contains(ctx.names[i])) {
            out.access.coords.push_back(IndexExpr::var(static_cast<int>(i)));
        }
    }
    out.dtype = dt;
    return out;
}

IndexExpr
GraphBuilder::translateIndex(const Frame &frame, const Expr &e,
                             const VarContext &ctx) const
{
    switch (e.kind) {
      case ExprKind::Number:
        if (!e.isIntLit && e.value != std::floor(e.value))
            fatal("non-integer literal in index arithmetic", e.loc);
        return IndexExpr::constant(static_cast<int64_t>(e.value));
      case ExprKind::Ref: {
        auto range_it = frame.ranges.find(e.name);
        if (range_it != frame.ranges.end()) {
            const int slot = ctx.slotOf(e.name);
            if (slot < 0)
                fatal("index '" + e.name + "' unbound here", e.loc);
            IndexExpr v = IndexExpr::var(slot);
            if (range_it->second.lo != 0) {
                v = IndexExpr::binary(IndexExpr::Kind::Add, std::move(v),
                                      IndexExpr::constant(
                                          range_it->second.lo));
            }
            return v;
        }
        const auto it = frame.env.find(e.name);
        if (it == frame.env.end())
            fatal("unknown name '" + e.name + "' in index arithmetic",
                  e.loc);
        if (it->second.kind != Binding::Kind::Const ||
            !it->second.isIntegral) {
            fatal("'" + e.name +
                      "' is not a compile-time integer; bind it via a "
                      "literal param or paramConsts",
                  e.loc);
        }
        return IndexExpr::constant(static_cast<int64_t>(it->second.cval));
      }
      case ExprKind::Unary: {
        const auto kind = e.unaryOp == lang::UnaryOp::Neg
                              ? IndexExpr::Kind::Neg
                              : IndexExpr::Kind::Not;
        return IndexExpr::unary(kind, translateIndex(frame, *e.lhs, ctx));
      }
      case ExprKind::Binary: {
        IndexExpr::Kind kind;
        switch (e.binaryOp) {
          case lang::BinaryOp::Add: kind = IndexExpr::Kind::Add; break;
          case lang::BinaryOp::Sub: kind = IndexExpr::Kind::Sub; break;
          case lang::BinaryOp::Mul: kind = IndexExpr::Kind::Mul; break;
          case lang::BinaryOp::Div: kind = IndexExpr::Kind::Div; break;
          case lang::BinaryOp::Mod: kind = IndexExpr::Kind::Mod; break;
          case lang::BinaryOp::Lt: kind = IndexExpr::Kind::Lt; break;
          case lang::BinaryOp::Le: kind = IndexExpr::Kind::Le; break;
          case lang::BinaryOp::Gt: kind = IndexExpr::Kind::Gt; break;
          case lang::BinaryOp::Ge: kind = IndexExpr::Kind::Ge; break;
          case lang::BinaryOp::Eq: kind = IndexExpr::Kind::Eq; break;
          case lang::BinaryOp::Ne: kind = IndexExpr::Kind::Ne; break;
          case lang::BinaryOp::And: kind = IndexExpr::Kind::And; break;
          case lang::BinaryOp::Or: kind = IndexExpr::Kind::Or; break;
          default:
            fatal("operator '" + lang::toString(e.binaryOp) +
                      "' not allowed in index arithmetic",
                  e.loc);
        }
        return IndexExpr::binary(kind, translateIndex(frame, *e.lhs, ctx),
                                 translateIndex(frame, *e.rhs, ctx));
      }
      case ExprKind::Ternary:
        return IndexExpr::select(translateIndex(frame, *e.lhs, ctx),
                                 translateIndex(frame, *e.rhs, ctx),
                                 translateIndex(frame, *e.third, ctx));
      case ExprKind::Call:
      case ExprKind::Reduce:
        fatal("function calls are not allowed in index arithmetic", e.loc);
    }
    panic("unhandled ExprKind");
}

int64_t
GraphBuilder::evalConstInt(const Frame &frame, const Expr &e) const
{
    const double v = evalConstScalar(frame, e);
    if (v != std::floor(v))
        fatal("expected integer constant", e.loc);
    return static_cast<int64_t>(v);
}

double
GraphBuilder::evalConstScalar(const Frame &frame, const Expr &e) const
{
    switch (e.kind) {
      case ExprKind::Number:
        return e.value;
      case ExprKind::Ref: {
        const auto it = frame.env.find(e.name);
        if (it == frame.env.end() ||
            it->second.kind != Binding::Kind::Const) {
            fatal("'" + e.name + "' is not a compile-time constant", e.loc);
        }
        return it->second.cval;
      }
      case ExprKind::Unary:
        if (e.unaryOp == lang::UnaryOp::Neg)
            return -evalConstScalar(frame, *e.lhs);
        return evalConstScalar(frame, *e.lhs) == 0.0 ? 1.0 : 0.0;
      case ExprKind::Binary: {
        const double a = evalConstScalar(frame, *e.lhs);
        const double b = evalConstScalar(frame, *e.rhs);
        switch (e.binaryOp) {
          case lang::BinaryOp::Add: return a + b;
          case lang::BinaryOp::Sub: return a - b;
          case lang::BinaryOp::Mul: return a * b;
          case lang::BinaryOp::Div:
            if (b == 0.0)
                fatal("division by zero in constant expression", e.loc);
            // Integer semantics when both sides are integral.
            if (a == std::floor(a) && b == std::floor(b))
                return std::trunc(a / b);
            return a / b;
          case lang::BinaryOp::Mod:
            if (b == 0.0)
                fatal("modulo by zero in constant expression", e.loc);
            return static_cast<double>(static_cast<int64_t>(a) %
                                       static_cast<int64_t>(b));
          case lang::BinaryOp::Pow: return std::pow(a, b);
          default:
            fatal("operator '" + lang::toString(e.binaryOp) +
                      "' not allowed in constant expression",
                  e.loc);
        }
      }
      case ExprKind::Ternary:
        return evalConstScalar(frame, *e.lhs) != 0.0
                   ? evalConstScalar(frame, *e.rhs)
                   : evalConstScalar(frame, *e.third);
      case ExprKind::Call:
      case ExprKind::Reduce:
        fatal("calls are not allowed in constant expressions", e.loc);
    }
    panic("unhandled ExprKind");
}

void
GraphBuilder::usedVars(const Frame &frame, const Expr &e, VarSet *out) const
{
    switch (e.kind) {
      case ExprKind::Number:
        return;
      case ExprKind::Ref:
        if (e.args.empty() && frame.ranges.count(e.name)) {
            out->insert(e.name);
            return;
        }
        for (const auto &ix : e.args)
            usedVars(frame, *ix, out);
        return;
      case ExprKind::Unary:
        usedVars(frame, *e.lhs, out);
        return;
      case ExprKind::Binary:
        usedVars(frame, *e.lhs, out);
        usedVars(frame, *e.rhs, out);
        return;
      case ExprKind::Ternary:
        usedVars(frame, *e.lhs, out);
        usedVars(frame, *e.rhs, out);
        usedVars(frame, *e.third, out);
        return;
      case ExprKind::Call:
        for (const auto &a : e.args)
            usedVars(frame, *a, out);
        return;
      case ExprKind::Reduce: {
        VarSet inner;
        usedVars(frame, *e.body, &inner);
        for (const auto &axis : e.axes) {
            if (axis.cond)
                usedVars(frame, *axis.cond, &inner);
            inner.erase(axis.index);
        }
        for (const auto &name : inner)
            out->insert(name);
        return;
      }
    }
    panic("unhandled ExprKind");
}

} // namespace

std::unique_ptr<Graph>
buildSrdfg(std::shared_ptr<const lang::Program> program,
           const BuildOptions &options)
{
    obs::Span span("srdfg:build", "frontend");
    span.arg("entry", options.entry);
    auto context = std::make_shared<IrContext>();
    context->program = program;
    for (const auto &red : program->reductions)
        context->reductions[red.name] = &red;
    GraphBuilder builder(std::move(program), context);
    return builder.buildEntry(options.entry, options.paramConsts);
}

std::unique_ptr<Graph>
compileToSrdfg(std::shared_ptr<const lang::Program> program,
               const BuildOptions &options)
{
    lang::analyze(*program, options.entry);
    return buildSrdfg(std::move(program), options);
}

std::unique_ptr<Graph>
compileToSrdfg(const std::string &source, const BuildOptions &options)
{
    return compileToSrdfg(
        std::make_shared<const lang::Program>(lang::parse(source)),
        options);
}

} // namespace polymath::ir
