#include "srdfg/printer.h"

#include <map>

#include "core/strings.h"
#include "srdfg/traversal.h"

namespace polymath::ir {

namespace {

std::string
accessStr(const Graph &graph, const Access &a,
          std::span<const std::string> var_names)
{
    const auto cs = graph.coords(a);
    if (a.isIndexOperand())
        return "#(" + cs[0].str(var_names) + ")";
    const Value &v = graph.value(a.value);
    std::string out =
        v.md.name.empty() ? "%" + std::to_string(v.id) : v.md.name;
    if (!v.md.name.empty())
        out += "@" + std::to_string(v.id);
    for (const auto &c : cs) {
        out += '[';
        out += c.str(var_names);
        out += ']';
    }
    return out;
}

void
printLevel(const Graph &graph, const PrintOptions &opts, int depth,
           std::string *out)
{
    const std::string pad(static_cast<size_t>(depth) * 2, ' ');
    *out += pad + "graph " + graph.name;
    if (graph.domain != Domain::None)
        *out += " <" + lang::toString(graph.domain) + ">";
    *out += " {\n";
    if (opts.showMetadata) {
        for (ValueId v : graph.inputs) {
            const Value &val = graph.value(v);
            *out += pad + "  in  " + toString(val.md.kind) + " " +
                    toString(val.md.dtype) + " " + val.md.name +
                    val.md.shape.str() + "\n";
        }
    }
    for (NodeId id : topoOrder(graph)) {
        const Node &node = *graph.node(id);
        const auto names = node.domainVarNames(graph);
        const auto ins = graph.ins(node);
        const auto outs = graph.outs(node);
        const auto dvars = graph.domainVars(node);
        *out += pad + "  ";
        switch (node.kind) {
          case NodeKind::Constant:
            *out += accessStr(graph, outs[0], names) + " = const " +
                    formatG(node.cval, 6);
            break;
          case NodeKind::Map:
          case NodeKind::Reduce: {
            *out += accessStr(graph, outs[0], names) + " = " +
                    node.op.str();
            if (!dvars.empty()) {
                *out += "{";
                for (size_t i = 0; i < dvars.size(); ++i) {
                    if (i)
                        *out += ",";
                    *out += dvars[i].name;
                    if (dvars[i].reduced)
                        *out += "!";
                    *out += ':';
                    *out += std::to_string(dvars[i].extent);
                }
                *out += "}";
            }
            if (node.hasPredicate)
                *out += " if(" + node.predicate.str(names) + ")";
            *out += "(";
            for (size_t i = 0; i < ins.size(); ++i) {
                if (i)
                    *out += ", ";
                *out += accessStr(graph, ins[i], names);
            }
            *out += ")";
            if (node.base >= 0)
                *out += " base=" + accessStr(graph, Access{node.base, {}},
                                             names);
            break;
          }
          case NodeKind::Component: {
            *out += "(";
            for (size_t i = 0; i < outs.size(); ++i) {
                if (i)
                    *out += ", ";
                *out += accessStr(graph, outs[i], names);
            }
            *out += ") = " + node.op.str();
            if (node.domain != Domain::None)
                *out += " <" + lang::toString(node.domain) + ">";
            *out += "(";
            for (size_t i = 0; i < ins.size(); ++i) {
                if (i)
                    *out += ", ";
                *out += accessStr(graph, ins[i], names);
            }
            *out += ")";
            break;
          }
        }
        *out += "\n";
        if (node.subgraph &&
            (opts.maxDepth < 0 || depth + 1 < opts.maxDepth)) {
            printLevel(*node.subgraph, opts, depth + 2, out);
        }
    }
    if (opts.showMetadata) {
        for (ValueId v : graph.outputs) {
            const Value &val = graph.value(v);
            *out += pad + "  out " + toString(val.md.kind) + " " +
                    toString(val.md.dtype) + " " + val.md.name +
                    val.md.shape.str() + " = %" + std::to_string(v) + "\n";
        }
    }
    *out += pad + "}\n";
}

void
dotLevel(const Graph &graph, int depth, int max_depth,
         const std::string &prefix, std::string *out)
{
    const std::string pad(static_cast<size_t>(depth) * 2 + 2, ' ');
    for (const Node &node : graph.nodePool()) {
        if (!node.live())
            continue;
        const std::string id = prefix + "n" + std::to_string(node.id);
        if (node.subgraph && depth + 1 < max_depth) {
            *out += pad + "subgraph cluster_" + id + " {\n";
            *out += pad + "  label=\"" + node.op.str() + "\";\n";
            dotLevel(*node.subgraph, depth + 1, max_depth, id + "_", out);
            *out += pad + "}\n";
        } else {
            *out += pad + id + " [label=\"" + node.op.str() + "\"];\n";
        }
    }
    // Edges at this level (value producer -> consumer).
    const auto cons = graph.consumers();
    for (const auto &v : graph.values) {
        if (v.producer < 0 || !graph.node(v.producer))
            continue;
        for (NodeId dst : cons[static_cast<size_t>(v.id)]) {
            *out += pad + prefix + "n" + std::to_string(v.producer) +
                    " -> " + prefix + "n" + std::to_string(dst);
            if (!v.md.name.empty())
                *out += " [label=\"" + v.md.name + "\"]";
            *out += ";\n";
        }
    }
}

} // namespace

std::string
printGraph(const Graph &graph, const PrintOptions &opts)
{
    std::string out;
    printLevel(graph, opts, 0, &out);
    return out;
}

std::string
toDot(const Graph &graph, int maxDepth)
{
    std::string out = "digraph srdfg {\n  compound=true;\n";
    dotLevel(graph, 0, maxDepth, "", &out);
    out += "}\n";
    return out;
}

std::string
graphStats(const Graph &graph)
{
    std::map<NodeKind, int64_t> counts;
    int64_t total = 0;
    forEachNodeRecursive(graph,
                         [&](const Graph &, const Node &node) {
                             ++counts[node.kind];
                             ++total;
                         });
    return format("nodes=%lld (const=%lld map=%lld reduce=%lld comp=%lld) "
                  "depth=%d scalar_ops=%lld arena_bytes=%lld",
                  static_cast<long long>(total),
                  static_cast<long long>(counts[NodeKind::Constant]),
                  static_cast<long long>(counts[NodeKind::Map]),
                  static_cast<long long>(counts[NodeKind::Reduce]),
                  static_cast<long long>(counts[NodeKind::Component]),
                  recursionDepth(graph),
                  static_cast<long long>(graph.scalarOpCount()),
                  static_cast<long long>(graph.arenaBytes()));
}

} // namespace polymath::ir
