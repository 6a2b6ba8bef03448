#include "srdfg/builder.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

#include "obs/trace.h"
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

/** A declared index variable's inclusive range. */
struct IndexRange
{
    int64_t lo = 0;
    int64_t hi = -1;

    int64_t extent() const { return hi - lo + 1; }
};

/** What one symbol slot (see lang::analyze()) is bound to inside one
 *  component instantiation. */
struct Binding
{
    enum class Kind {
        Unbound, ///< not declared yet, or a dim symbol no shape fixed
        Tensor,  ///< runtime data: an SSA value in the frame's graph
        Const,   ///< compile-time scalar (literal-bound param / dim symbol)
        Index,   ///< index variable
    };

    Kind kind = Kind::Unbound;
    ValueId value = -1; ///< current SSA version; -1 for unwritten outputs
    Shape shape;
    DType dtype = DType::Float;
    EdgeKind ekind = EdgeKind::Internal;
    double cval = 0.0;
    bool isIntegral = false;

    // Index
    IndexRange range;
    const std::string *name = nullptr; ///< the declaration's, in the AST
    int pos = -1; ///< position in the active statement context, or -1
};

/** Active iteration context of one statement: the slots of its index
 *  variables, in order. Var(k) in an operand's coords is ctx[k]. */
using VarContext = std::vector<int>;

/** An argument passed to a component instantiation. */
struct ActualArg
{
    bool isConst = false;
    Shape shape; ///< tensor case
    // Const case
    double cval = 0.0;
    bool isIntegral = false;
};

/** Per-instantiation build state. */
struct Frame
{
    Graph *graph = nullptr;
    const ComponentDecl *comp = nullptr;
    std::vector<Binding> slots; ///< by the component's symbol slot
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

/** Memoization key of one instantiation: a subgraph depends only on the
 *  callee declaration, the instantiation domain, and each actual's
 *  constant value or tensor shape. */
struct InstantiationKey
{
    const ComponentDecl *comp = nullptr;
    Domain dom = Domain::None;
    /** Per actual: -1 (integral) or -2, then the constant's exact bit
     *  pattern; or a tensor's rank, then its extents. */
    std::vector<int64_t> actuals;

    auto operator<=>(const InstantiationKey &) const = default;
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

    /** Emits @p e over @p ctx and marks in @p used (one entry per
     *  context position; see markIndexUses()) the context variables its
     *  value depends on. */
    Operand emitExpr(Frame &frame, const Expr &e, const VarContext &ctx,
                     std::vector<int> &used);
    Operand emitRef(Frame &frame, const Expr &e, std::vector<int> &used);
    /** Emits a Map node over the context variables @p vars marks (which
     *  it turns into the remap onto the node's own variables). */
    Operand emitMapOp(Frame &frame, Op op,
                      std::vector<Operand> operands, DType dtype,
                      const VarContext &ctx, std::vector<int> &vars,
                      std::vector<int> &used);
    Operand emitReduce(Frame &frame, const Expr &e, const VarContext &ctx,
                       std::vector<int> &used);
    Operand emitConstant(Frame &frame, double value, DType dtype);

    /** Translates PMLang index arithmetic to an IndexExpr over the active
     *  statement context. */
    IndexExpr translateIndex(const Frame &frame, const Expr &e) const;

    /** Constant-evaluates an expression of params/dims/literals. */
    int64_t evalConstInt(const Frame &frame, const Expr &e) const;
    double evalConstScalar(const Frame &frame, const Expr &e) const;

    /** Resolves formal dims against an actual shape, binding symbols. */
    void unifyDims(Frame &callee_frame, const lang::ArgDecl &formal,
                   const Shape &actual_shape) const;

    Shape resolveDims(const Frame &frame,
                      const std::vector<lang::ExprPtr> &dims) const;

    std::shared_ptr<const lang::Program> program_;
    std::shared_ptr<IrContext> context_;

    /** Memoized component instantiations. Outer names and value ids
     *  never cross the boundary, so repeated instantiations — DNN layers
     *  with identical shapes, per-axis controller blocks — are served by
     *  a Graph::clone() of the first build instead of a re-walk of the
     *  body. */
    std::map<InstantiationKey, std::unique_ptr<Graph>> subCache_;
};

InstantiationKey
instantiationKey(const ComponentDecl &comp,
                 const std::vector<ActualArg> &actuals, Domain dom)
{
    InstantiationKey key{&comp, dom, {}};
    for (const auto &a : actuals) {
        if (a.isConst) {
            key.actuals.push_back(a.isIntegral ? -1 : -2);
            key.actuals.push_back(std::bit_cast<int64_t>(a.cval));
        } else {
            key.actuals.push_back(a.shape.rank());
            for (const int64_t d : a.shape.dims())
                key.actuals.push_back(d);
        }
    }
    return key;
}

/** The context variable an index binding names, offset by the lower
 *  bound of its range (iteration variables count from zero). */
IndexExpr
contextVar(const Binding &b)
{
    IndexExpr v = IndexExpr::var(b.pos);
    if (b.range.lo != 0) {
        v = IndexExpr::binary(IndexExpr::Kind::Add, std::move(v),
                              IndexExpr::constant(b.range.lo));
    }
    return v;
}

/** Marks the context variables index arithmetic @p e names, setting
 *  used[k] = 0 for position k (unused positions stay -1). Sema admits
 *  only literals, unsubscripted names and operators there. */
void
markIndexUses(const Frame &frame, const Expr &e, std::vector<int> &used)
{
    if (e.kind == ExprKind::Ref) {
        const Binding &b = frame.slots[e.slot];
        if (b.kind == Binding::Kind::Index)
            used[static_cast<size_t>(b.pos)] = 0;
    }
    for (const Expr *child : {e.lhs.get(), e.rhs.get(), e.third.get()}) {
        if (child)
            markIndexUses(frame, *child, used);
    }
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
    if (comp->slotCount < 0)
        panic("srDFG build of a program lang::analyze() has not resolved");

    // Synthesize actuals for the entry from its own signature: every
    // runtime argument becomes a graph input of the top-level srDFG. Its
    // dims must be compile-time constants: a frame with no bindings
    // suffices, as only literals are resolvable.
    Frame empty;
    empty.comp = comp;
    empty.slots.resize(static_cast<size_t>(comp->slotCount));
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
    frame.slots.resize(static_cast<size_t>(comp.slotCount));
    frame.dom = dom;

    // Bind formals (arg i has slot i). Two passes: constants/dim symbols
    // first so tensor dims that reference them resolve.
    for (size_t i = 0; i < comp.args.size(); ++i) {
        const auto &formal = comp.args[i];
        const auto &actual = actuals[i];
        if (actual.isConst) {
            Binding &b = frame.slots[i];
            b.kind = Binding::Kind::Const;
            b.cval = actual.cval;
            b.isIntegral = actual.isIntegral;
            b.dtype = formal.type;
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
        frame.slots[i] = std::move(b);
    }

    buildBody(frame);

    // Boundary outputs: output formals then updated state versions (sema
    // proved every output assigned). The final SSA version takes on the
    // formal's boundary role (an edge that is `state` at the
    // instantiation boundary was `internal` while the body produced it —
    // Section III-B's modifier change across levels).
    for (size_t i = 0; i < comp.args.size(); ++i) {
        if (comp.args[i].mod != Modifier::Output)
            continue;
        const ValueId v = frame.slots[i].value;
        graph->value(v).md.kind = EdgeKind::Output;
        graph->outputs.push_back(v);
    }
    for (size_t i = 0; i < comp.args.size(); ++i) {
        if (comp.args[i].mod != Modifier::State)
            continue;
        const ValueId v = frame.slots[i].value;
        graph->value(v).md.kind = EdgeKind::State;
        graph->outputs.push_back(v);
    }
    return graph;
}

void
GraphBuilder::unifyDims(Frame &frame, const lang::ArgDecl &formal,
                        const Shape &actual_shape) const
{
    // Sema matched the actual's rank to the formal's dims.
    for (size_t d = 0; d < formal.dims.size(); ++d) {
        const Expr &dim = *formal.dims[d];
        const int64_t extent = actual_shape.dim(static_cast<int>(d));
        if (dim.kind == ExprKind::Ref && dim.args.empty() &&
            frame.slots[dim.slot].kind == Binding::Kind::Unbound) {
            // Unbound symbolic dimension: bind it.
            Binding &b = frame.slots[dim.slot];
            b.kind = Binding::Kind::Const;
            b.cval = static_cast<double>(extent);
            b.isIntegral = true;
            b.dtype = DType::Int;
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
                Binding &b = frame.slots[spec.slot];
                b.kind = Binding::Kind::Index;
                b.range = r;
                b.name = &spec.name;
            }
            break;
          case StmtKind::VarDecl:
            for (const auto &decl : stmt->locals) {
                Binding &b = frame.slots[decl.slot];
                b.kind = Binding::Kind::Tensor;
                b.shape = resolveDims(frame, decl.dims);
                b.dtype = stmt->declType;
                b.ekind = EdgeKind::Internal;
                b.value = -1;
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
    Binding &target = frame.slots[stmt.targetSlot];

    // Statement iteration context: the index variables the LHS binds.
    const VarContext &ctx = stmt.contextSlots;
    for (size_t k = 0; k < ctx.size(); ++k)
        frame.slots[ctx[k]].pos = static_cast<int>(k);

    std::vector<int> used(ctx.size(), -1);
    Operand rhs = emitExpr(frame, *stmt.value, ctx, used);

    // Full-write detection: every LHS subscript is a bare index variable
    // covering its whole dimension, and they are pairwise distinct (each
    // binds its own context variable).
    bool full_write = ctx.size() == stmt.targetIndices.size();
    std::vector<IndexExpr> scatter;
    for (size_t d = 0; d < stmt.targetIndices.size(); ++d) {
        const Expr &ix = *stmt.targetIndices[d];
        if (ix.kind != ExprKind::Ref) {
            full_write = false;
        } else {
            const Binding &b = frame.slots[ix.slot];
            full_write = full_write && b.kind == Binding::Kind::Index &&
                         b.range.lo == 0 &&
                         b.range.extent() ==
                             target.shape.dim(static_cast<int>(d));
        }
        scatter.push_back(translateIndex(frame, ix));
    }
    for (const int slot : ctx)
        frame.slots[slot].pos = -1;

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
            bool identity_coords =
                static_cast<int>(rhs.access.coords.size()) ==
                md.shape.rank();
            for (size_t i = 0; identity_coords && i < rhs.access.coords.size();
                 ++i) {
                identity_coords =
                    rhs.access.coords[i].isIdentityVar(static_cast<int>(i));
            }
            // Identity coords over a full write use every context
            // variable, and a producer iterates the variables its output
            // uses (plus a reduction's axes), so it iterates exactly the
            // context when it iterates as many variables.
            const bool same_domain =
                producer && pouts.size() == 1 &&
                pouts[0].value == rhs.access.value &&
                frame.graph->domainVars(*producer).size() == ctx.size() &&
                rv.md.shape == md.shape;
            if (same_domain && identity_coords) {
                const ValueId nv =
                    frame.graph->addValue(md, producer->id);
                // The fresh intermediate is orphaned; unlink its producer.
                frame.graph->value(rhs.access.value).producer = -1;
                frame.graph->outsMut(*producer)[0].value = nv;
                target.value = nv;
                return;
            }
        }
    }

    // Otherwise emit an explicit store node (gather+scatter move).
    Graph &g = *frame.graph;
    Node &store = *g.node(g.addNode(NodeKind::Map, OpCode::Identity));
    store.domain = frame.dom;
    for (const int slot : ctx) {
        const Binding &v = frame.slots[slot];
        g.addDomainVar(store, IndexVar{*v.name, v.range.extent(), false});
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

    // A bare-name actual passes its binding; any other actual is a
    // constant expression (sema admits those only for param formals).
    std::vector<ActualArg> actuals;
    for (size_t i = 0; i < callee->args.size(); ++i) {
        const Expr &actual_expr = *stmt.callArgs[i];
        const Binding *b = actual_expr.kind == ExprKind::Ref &&
                                   actual_expr.args.empty()
                               ? &frame.slots[actual_expr.slot]
                               : nullptr;
        ActualArg actual;
        if (b && b->kind == Binding::Kind::Tensor) {
            actual.shape = b->shape;
        } else if (b && b->kind == Binding::Kind::Const) {
            actual.isConst = true;
            actual.cval = b->cval;
            actual.isIntegral = b->isIntegral;
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
    InstantiationKey key = instantiationKey(*callee, actuals, dom);
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
        // Sema proved the actual written before this read.
        const ValueId v = frame.slots[stmt.callArgs[i]->slot].value;
        frame.graph->addInput(call, Access{v, {}});
        ++sub_in;
    }

    // Subgraph outputs: output formals in order, then state formals.
    auto bind_result = [&](const lang::ArgDecl &formal, size_t arg_pos) {
        const Expr &actual_expr = *stmt.callArgs[arg_pos];
        Binding &outer = frame.slots[actual_expr.slot];
        EdgeMeta md;
        md.dtype = formal.type;
        md.kind = outer.ekind;
        md.shape = outer.shape;
        md.name = actual_expr.name;
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
GraphBuilder::emitExpr(Frame &frame, const Expr &e, const VarContext &ctx,
                       std::vector<int> &used)
{
    switch (e.kind) {
      case ExprKind::Number:
        return emitConstant(frame, e.value,
                            e.isIntLit ? DType::Int : DType::Float);
      case ExprKind::Ref:
        return emitRef(frame, e, used);
      case ExprKind::Reduce:
        return emitReduce(frame, e, ctx, used);
      default:
        break;
    }

    // An operator: a Map node over the variables its operands use.
    std::vector<int> vars(ctx.size(), -1);
    std::vector<Operand> operands;
    const auto emit = [&](const Expr &operand) {
        operands.push_back(emitExpr(frame, operand, ctx, vars));
        return operands.back().dtype;
    };
    switch (e.kind) {
      case ExprKind::Unary: {
        const DType dt = emit(*e.lhs);
        const bool is_neg = e.unaryOp == lang::UnaryOp::Neg;
        return emitMapOp(frame, is_neg ? OpCode::Neg : OpCode::Not,
                         std::move(operands), is_neg ? dt : DType::Bin, ctx,
                         vars, used);
      }
      case ExprKind::Binary: {
        const DType lt = emit(*e.lhs);
        const DType rt = emit(*e.rhs);
        const OpCode op = mapBinaryOp(e.binaryOp);
        DType dt;
        if (isComparison(op)) {
            dt = DType::Bin;
        } else {
            dt = promote(lt, rt);
            if (op == OpCode::Div && dt == DType::Int)
                dt = DType::Float; // PMLang '/' is real division on data
        }
        return emitMapOp(frame, op, std::move(operands), dt, ctx, vars,
                         used);
      }
      case ExprKind::Ternary: {
        emit(*e.lhs);
        const DType tt = emit(*e.rhs);
        const DType et = emit(*e.third);
        return emitMapOp(frame, OpCode::Select, std::move(operands),
                         promote(tt, et), ctx, vars, used);
      }
      case ExprKind::Call: {
        DType dt = DType::Bin;
        for (const auto &a : e.args)
            dt = promote(dt, emit(*a));
        if (dt == DType::Int || dt == DType::Bin)
            dt = DType::Float; // transcendental results are real
        // re/im/abs project complex operands onto the reals.
        if (dt == DType::Complex &&
            (e.name == "re" || e.name == "im" || e.name == "abs")) {
            dt = DType::Float;
        }
        return emitMapOp(frame, Op::intern(e.name), std::move(operands),
                         dt, ctx, vars, used);
      }
      default:
        break;
    }
    panic("unhandled ExprKind");
}

Operand
GraphBuilder::emitRef(Frame &frame, const Expr &e, std::vector<int> &used)
{
    const Binding &b = frame.slots[e.slot];
    Operand op;
    if (b.kind == Binding::Kind::Index) { // index variable used as data
        used[static_cast<size_t>(b.pos)] = 0;
        op.access.value = Access::kIndexOperand;
        op.access.coords.push_back(contextVar(b));
        op.dtype = DType::Int;
        return op;
    }
    // Sema proved a constant (rank 0) unsubscripted, and a tensor
    // written before this read.
    if (b.kind == Binding::Kind::Const)
        return emitConstant(frame, b.cval,
                            b.isIntegral ? DType::Int : DType::Float);
    op.access.value = b.value;
    for (const auto &ix : e.args) {
        markIndexUses(frame, *ix, used);
        op.access.coords.push_back(translateIndex(frame, *ix));
    }
    op.dtype = b.dtype;
    return op;
}

Operand
GraphBuilder::emitMapOp(Frame &frame, Op op,
                        std::vector<Operand> operands, DType dtype,
                        const VarContext &ctx, std::vector<int> &vars,
                        std::vector<int> &used)
{
    // The node's domain is the subset of the context its operands use,
    // in context order (keeps op counts exact, e.g. the inner dot product
    // of a logistic-regression update does not iterate the outer axes).
    Graph &g = *frame.graph;
    Node &node = *g.node(g.addNode(NodeKind::Map, op));
    node.domain = frame.dom;
    std::vector<int64_t> extents;
    int nvars = 0;
    for (size_t i = 0; i < ctx.size(); ++i) {
        if (vars[i] < 0)
            continue;
        vars[i] = nvars++;
        used[i] = 0;
        const Binding &v = frame.slots[ctx[i]];
        g.addDomainVar(node, IndexVar{*v.name, v.range.extent(), false});
        extents.push_back(v.range.extent());
    }
    for (auto &operand : operands) {
        AccessSpec a = std::move(operand.access);
        for (auto &c : a.coords)
            c = c.remapped(vars);
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
    for (size_t i = 0; i < ctx.size(); ++i) {
        if (vars[i] >= 0)
            out.access.coords.push_back(
                IndexExpr::var(static_cast<int>(i)));
    }
    // Coordinates must be ordered by the node's own variable order, which
    // matches context order by construction.
    out.dtype = dtype;
    return out;
}

Operand
GraphBuilder::emitReduce(Frame &frame, const Expr &e, const VarContext &ctx,
                         std::vector<int> &used)
{
    // Extended context: outer vars plus this reduction's axes.
    VarContext inner = ctx;
    for (const auto &axis : e.axes) {
        frame.slots[axis.slot].pos = static_cast<int>(inner.size());
        inner.push_back(axis.slot);
    }

    // Node domain: the free vars body and guards use (in ctx order), then
    // all axes.
    std::vector<int> remap(inner.size(), -1);
    Operand body = emitExpr(frame, *e.body, inner, remap);
    std::vector<IndexExpr> guards;
    for (const auto &axis : e.axes) {
        if (!axis.cond)
            continue;
        markIndexUses(frame, *axis.cond, remap);
        guards.push_back(translateIndex(frame, *axis.cond));
    }
    for (const auto &axis : e.axes)
        frame.slots[axis.slot].pos = -1;
    std::fill(remap.begin() + static_cast<std::ptrdiff_t>(ctx.size()),
              remap.end(), 0);

    Graph &g = *frame.graph;
    Node &node = *g.node(g.addNode(NodeKind::Reduce, Op::intern(e.name)));
    node.domain = frame.dom;
    std::vector<int64_t> free_extents;
    std::vector<bool> slot_reduced;
    for (size_t i = 0; i < inner.size(); ++i) {
        if (remap[i] < 0)
            continue;
        const bool reduced = i >= ctx.size();
        const Binding &v = frame.slots[inner[i]];
        remap[i] = static_cast<int>(slot_reduced.size());
        slot_reduced.push_back(reduced);
        g.addDomainVar(node, IndexVar{*v.name, v.range.extent(), reduced});
        if (!reduced)
            free_extents.push_back(v.range.extent());
    }
    AccessSpec in = std::move(body.access);
    for (auto &c : in.coords)
        c = c.remapped(remap);
    g.addInput(node, intern(g, in));

    // Guard: conjunction of axis conditions.
    bool has_pred = false;
    IndexExpr pred;
    for (const auto &guard : guards) {
        IndexExpr c = guard.remapped(remap);
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
    for (size_t i = 0; i < ctx.size(); ++i) {
        if (remap[i] < 0)
            continue;
        used[i] = 0;
        out.access.coords.push_back(IndexExpr::var(static_cast<int>(i)));
    }
    out.dtype = dt;
    return out;
}

IndexExpr
GraphBuilder::translateIndex(const Frame &frame, const Expr &e) const
{
    switch (e.kind) {
      case ExprKind::Number:
        return IndexExpr::constant(static_cast<int64_t>(e.value));
      case ExprKind::Ref: {
        const Binding &b = frame.slots[e.slot];
        if (b.kind == Binding::Kind::Index)
            return contextVar(b);
        if (b.kind != Binding::Kind::Const || !b.isIntegral) {
            fatal("'" + e.name +
                      "' is not a compile-time integer; bind it via a "
                      "literal param or paramConsts",
                  e.loc);
        }
        return IndexExpr::constant(static_cast<int64_t>(b.cval));
      }
      case ExprKind::Unary: {
        const auto kind = e.unaryOp == lang::UnaryOp::Neg
                              ? IndexExpr::Kind::Neg
                              : IndexExpr::Kind::Not;
        return IndexExpr::unary(kind, translateIndex(frame, *e.lhs));
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
          default: panic("sema admitted '^' in index arithmetic");
        }
        return IndexExpr::binary(kind, translateIndex(frame, *e.lhs),
                                 translateIndex(frame, *e.rhs));
      }
      case ExprKind::Ternary:
        return IndexExpr::select(translateIndex(frame, *e.lhs),
                                 translateIndex(frame, *e.rhs),
                                 translateIndex(frame, *e.third));
      default: // sema admits no call in index arithmetic
        break;
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
      case ExprKind::Ref:
        if (frame.slots[e.slot].kind != Binding::Kind::Const)
            fatal("'" + e.name + "' is not a compile-time constant", e.loc);
        return frame.slots[e.slot].cval;
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
          case lang::BinaryOp::Mod: // on the operands truncated
            if (std::trunc(b) == 0.0)
                fatal("modulo by zero in constant expression", e.loc);
            // fmod is C's '%' without its traps (INT64_MIN % -1) or its
            // range; + 0.0 turns a -0 remainder into 0.
            return std::fmod(std::trunc(a), std::trunc(b)) + 0.0;
          case lang::BinaryOp::Pow: return std::pow(a, b);
          default: panic("sema admitted a comparison in a constant");
        }
      }
      case ExprKind::Ternary:
        return evalConstScalar(frame, *e.lhs) != 0.0
                   ? evalConstScalar(frame, *e.rhs)
                   : evalConstScalar(frame, *e.third);
      default: // sema admits no call in a constant expression
        break;
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
