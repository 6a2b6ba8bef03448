#include "srdfg/serialize.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <limits>
#include <map>
#include <string_view>
#include <variant>
#include <vector>

#include "core/json.h"
#include "core/strings.h"

namespace polymath::ir {

namespace {

// The JSON value/parser and locale-independent number emission live
// in core/json (shared with the bench artifact pipeline); local
// aliases keep the serializer body unchanged.
using JsonValue = json::Value;
using JsonArray = json::Array;
using JsonObject = json::Object;
using json::numberFromJson;
using json::numberToJson;
using json::appendQuoted;

// --------------------------------------------------------------------------
// Emission.
// --------------------------------------------------------------------------

const char *
exprKindName(IndexExpr::Kind kind)
{
    switch (kind) {
      case IndexExpr::Kind::Const: return "const";
      case IndexExpr::Kind::Var: return "var";
      case IndexExpr::Kind::Add: return "add";
      case IndexExpr::Kind::Sub: return "sub";
      case IndexExpr::Kind::Mul: return "mul";
      case IndexExpr::Kind::Div: return "div";
      case IndexExpr::Kind::Mod: return "mod";
      case IndexExpr::Kind::Neg: return "neg";
      case IndexExpr::Kind::Lt: return "lt";
      case IndexExpr::Kind::Le: return "le";
      case IndexExpr::Kind::Gt: return "gt";
      case IndexExpr::Kind::Ge: return "ge";
      case IndexExpr::Kind::Eq: return "eq";
      case IndexExpr::Kind::Ne: return "ne";
      case IndexExpr::Kind::And: return "and";
      case IndexExpr::Kind::Or: return "or";
      case IndexExpr::Kind::Not: return "not";
      case IndexExpr::Kind::Select: return "select";
    }
    panic("unhandled IndexExpr kind");
}

IndexExpr::Kind
exprKindFromName(const std::string &name)
{
    static const std::map<std::string, IndexExpr::Kind> table = {
        {"const", IndexExpr::Kind::Const}, {"var", IndexExpr::Kind::Var},
        {"add", IndexExpr::Kind::Add},     {"sub", IndexExpr::Kind::Sub},
        {"mul", IndexExpr::Kind::Mul},     {"div", IndexExpr::Kind::Div},
        {"mod", IndexExpr::Kind::Mod},     {"neg", IndexExpr::Kind::Neg},
        {"lt", IndexExpr::Kind::Lt},       {"le", IndexExpr::Kind::Le},
        {"gt", IndexExpr::Kind::Gt},       {"ge", IndexExpr::Kind::Ge},
        {"eq", IndexExpr::Kind::Eq},       {"ne", IndexExpr::Kind::Ne},
        {"and", IndexExpr::Kind::And},     {"or", IndexExpr::Kind::Or},
        {"not", IndexExpr::Kind::Not},
        {"select", IndexExpr::Kind::Select},
    };
    auto it = table.find(name);
    if (it == table.end())
        fatal("json: unknown index-expr kind '" + name + "'");
    return it->second;
}

/** Appends @p prefix, the punctuation and key before a string value,
 *  then @p value as a JSON string. */
void
emitString(std::string *out, const char *prefix, std::string_view value)
{
    *out += prefix;
    appendQuoted(*out, value);
}

void
emitIndexExpr(const IndexExpr &e, std::string *out)
{
    emitString(out, "{\"k\":", exprKindName(e.kind()));
    if (e.kind() == IndexExpr::Kind::Const) {
        *out += format(",\"v\":%lld",
                       static_cast<long long>(e.constValue()));
    } else if (e.kind() == IndexExpr::Kind::Var) {
        *out += format(",\"s\":%d", e.varSlot());
    } else {
        *out += ",\"c\":[";
        for (size_t i = 0; i < e.children().size(); ++i) {
            if (i)
                *out += ",";
            emitIndexExpr(e.children()[i], out);
        }
        *out += "]";
    }
    *out += "}";
}

IndexExpr
readIndexExpr(const JsonValue &v)
{
    const auto kind = exprKindFromName(v.at("k").str());
    switch (kind) {
      case IndexExpr::Kind::Const:
        return IndexExpr::constant(v.at("v").asInt());
      case IndexExpr::Kind::Var:
        return IndexExpr::var(static_cast<int>(v.at("s").asInt()));
      case IndexExpr::Kind::Neg:
      case IndexExpr::Kind::Not:
        return IndexExpr::unary(kind, readIndexExpr(v.at("c").arr().at(0)));
      case IndexExpr::Kind::Select:
        return IndexExpr::select(readIndexExpr(v.at("c").arr().at(0)),
                                 readIndexExpr(v.at("c").arr().at(1)),
                                 readIndexExpr(v.at("c").arr().at(2)));
      default:
        return IndexExpr::binary(kind,
                                 readIndexExpr(v.at("c").arr().at(0)),
                                 readIndexExpr(v.at("c").arr().at(1)));
    }
}

void
emitAccess(const Graph &graph, const Access &a, std::string *out)
{
    *out += format("{\"v\":%d,\"coords\":[", a.value);
    const auto cs = graph.coords(a);
    for (size_t i = 0; i < cs.size(); ++i) {
        if (i)
            *out += ",";
        emitIndexExpr(cs[i], out);
    }
    *out += "]}";
}

/** Reads an access, interning its coords into @p graph. */
Access
readAccess(Graph &graph, const JsonValue &v)
{
    std::vector<IndexExpr> coords;
    for (const auto &c : v.at("coords").arr())
        coords.push_back(readIndexExpr(c));
    return graph.makeAccess(static_cast<ValueId>(v.at("v").asInt()),
                            coords);
}

const char *
nodeKindName(NodeKind kind)
{
    switch (kind) {
      case NodeKind::Constant: return "constant";
      case NodeKind::Map: return "map";
      case NodeKind::Reduce: return "reduce";
      case NodeKind::Component: return "component";
    }
    panic("unhandled NodeKind");
}

NodeKind
nodeKindFromName(const std::string &name)
{
    if (name == "constant") return NodeKind::Constant;
    if (name == "map") return NodeKind::Map;
    if (name == "reduce") return NodeKind::Reduce;
    if (name == "component") return NodeKind::Component;
    fatal("json: unknown node kind '" + name + "'");
}

const char *
edgeKindName(EdgeKind kind)
{
    switch (kind) {
      case EdgeKind::Input: return "input";
      case EdgeKind::Output: return "output";
      case EdgeKind::State: return "state";
      case EdgeKind::Param: return "param";
      case EdgeKind::Internal: return "internal";
    }
    panic("unhandled EdgeKind");
}

EdgeKind
edgeKindFromName(const std::string &name)
{
    if (name == "input") return EdgeKind::Input;
    if (name == "output") return EdgeKind::Output;
    if (name == "state") return EdgeKind::State;
    if (name == "param") return EdgeKind::Param;
    if (name == "internal") return EdgeKind::Internal;
    fatal("json: unknown edge kind '" + name + "'");
}

void
emitGraph(const Graph &graph, std::string *out)
{
    emitString(out, "{\"name\":", graph.name);
    emitString(out, ",\"domain\":", lang::toString(graph.domain));
    *out += ",\"values\":[";
    for (size_t i = 0; i < graph.values.size(); ++i) {
        const auto &v = graph.values[i];
        if (i)
            *out += ",";
        emitString(out, "{\"dtype\":", toString(v.md.dtype));
        emitString(out, ",\"kind\":", edgeKindName(v.md.kind));
        emitString(out, ",\"name\":", v.md.name);
        *out += format(",\"producer\":%d", v.producer);
        *out += ",\"shape\":[";
        for (int d = 0; d < v.md.shape.rank(); ++d) {
            if (d)
                *out += ",";
            *out += format("%lld",
                           static_cast<long long>(v.md.shape.dim(d)));
        }
        *out += "]}";
    }
    *out += "],\"inputs\":[";
    for (size_t i = 0; i < graph.inputs.size(); ++i) {
        if (i)
            *out += ",";
        *out += format("%d", graph.inputs[i]);
    }
    *out += "],\"outputs\":[";
    for (size_t i = 0; i < graph.outputs.size(); ++i) {
        if (i)
            *out += ",";
        *out += format("%d", graph.outputs[i]);
    }
    *out += "],\"nodes\":[";
    const auto pool = graph.nodePool();
    for (size_t i = 0; i < pool.size(); ++i) {
        const Node &node = pool[i];
        if (i)
            *out += ",";
        if (!node.live()) {
            *out += "null";
            continue;
        }
        emitString(out, "{\"kind\":", nodeKindName(node.kind));
        emitString(out, ",\"op\":", node.op.str());
        emitString(out, ",\"domain\":", lang::toString(node.domain));
        *out += ",\"vars\":[";
        const auto dvars = graph.domainVars(node);
        for (size_t d = 0; d < dvars.size(); ++d) {
            const auto &var = dvars[d];
            if (d)
                *out += ",";
            emitString(out, "{\"name\":", var.name);
            *out += format(",\"extent\":%lld,\"reduced\":%s",
                           static_cast<long long>(var.extent),
                           var.reduced ? "true" : "false");
            *out += "}";
        }
        *out += "],\"ins\":[";
        const auto ins = graph.ins(node);
        for (size_t a = 0; a < ins.size(); ++a) {
            if (a)
                *out += ",";
            emitAccess(graph, ins[a], out);
        }
        *out += "],\"outs\":[";
        const auto outs = graph.outs(node);
        for (size_t a = 0; a < outs.size(); ++a) {
            if (a)
                *out += ",";
            emitAccess(graph, outs[a], out);
        }
        *out += format("],\"base\":%d", node.base);
        *out += ",\"cval\":" + numberToJson(node.cval);
        if (node.hasPredicate) {
            *out += ",\"pred\":";
            emitIndexExpr(node.predicate, out);
        }
        if (node.subgraph) {
            *out += ",\"subgraph\":";
            emitGraph(*node.subgraph, out);
        }
        *out += "}";
    }
    *out += "]}";
}

std::unique_ptr<Graph>
readGraph(const JsonValue &v, const std::shared_ptr<IrContext> &context)
{
    auto graph = std::make_unique<Graph>();
    graph->name = v.at("name").str();
    graph->context = context;
    const std::string domain = v.at("domain").str();
    for (lang::Domain d :
         {lang::Domain::None, lang::Domain::RBT, lang::Domain::GA,
          lang::Domain::DSP, lang::Domain::DA, lang::Domain::DL}) {
        if (lang::toString(d) == domain)
            graph->domain = d;
    }
    for (const auto &jv : v.at("values").arr()) {
        Value value;
        value.id = static_cast<ValueId>(graph->values.size());
        const auto dtype = dtypeFromString(jv.at("dtype").str());
        if (!dtype)
            fatal("json: bad dtype");
        value.md.dtype = *dtype;
        value.md.kind = edgeKindFromName(jv.at("kind").str());
        value.md.name = jv.at("name").str();
        value.producer = static_cast<NodeId>(jv.at("producer").asInt());
        std::vector<int64_t> dims;
        for (const auto &d : jv.at("shape").arr())
            dims.push_back(d.asInt());
        value.md.shape = Shape(dims);
        graph->values.push_back(std::move(value));
    }
    for (const auto &jv : v.at("inputs").arr())
        graph->inputs.push_back(static_cast<ValueId>(jv.asInt()));
    for (const auto &jv : v.at("outputs").arr())
        graph->outputs.push_back(static_cast<ValueId>(jv.asInt()));
    for (const auto &jn : v.at("nodes").arr()) {
        if (jn.isNull()) {
            // Tombstoned slot: reserve the id so numbering round-trips.
            graph->eraseNode(
                graph->addNode(NodeKind::Map, OpCode::Identity));
            continue;
        }
        const NodeId id =
            graph->addNode(nodeKindFromName(jn.at("kind").str()),
                           Op::intern(jn.at("op").str()));
        Node &node = *graph->node(id);
        node.domain = lang::Domain::None;
        const std::string node_domain = jn.at("domain").str();
        for (lang::Domain d :
             {lang::Domain::None, lang::Domain::RBT, lang::Domain::GA,
              lang::Domain::DSP, lang::Domain::DA, lang::Domain::DL}) {
            if (lang::toString(d) == node_domain)
                node.domain = d;
        }
        for (const auto &jvar : jn.at("vars").arr()) {
            IndexVar var;
            var.name = jvar.at("name").str();
            var.extent = jvar.at("extent").asInt();
            var.reduced =
                std::get<bool>(jvar.at("reduced").data);
            graph->addDomainVar(node, std::move(var));
        }
        for (const auto &ja : jn.at("ins").arr())
            graph->addInput(node, readAccess(*graph, ja));
        for (const auto &ja : jn.at("outs").arr())
            graph->addOutput(node, readAccess(*graph, ja));
        node.base = static_cast<ValueId>(jn.at("base").asInt());
        node.cval = numberFromJson(jn.at("cval"));
        if (jn.obj().count("pred")) {
            node.predicate = readIndexExpr(jn.at("pred"));
            node.hasPredicate = true;
        }
        if (jn.obj().count("subgraph"))
            node.subgraph = readGraph(jn.at("subgraph"), context);
    }
    return graph;
}

} // namespace

std::string
toJson(const Graph &graph)
{
    std::string out;
    emitGraph(graph, &out);
    return out;
}

std::unique_ptr<Graph>
fromJson(const std::string &json, std::shared_ptr<IrContext> context)
{
    if (!context)
        context = std::make_shared<IrContext>();
    auto graph = readGraph(json::parse(json), context);
    graph->validate();
    return graph;
}

} // namespace polymath::ir
