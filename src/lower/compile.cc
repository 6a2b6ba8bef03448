#include "lower/compile.h"

#include <set>

#include "core/strings.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "srdfg/traversal.h"

namespace polymath::lower {

using ir::Graph;
using ir::Node;
using ir::NodeId;
using ir::ValueId;

int64_t
Partition::loadBytes() const
{
    int64_t n = 0;
    for (const auto &t : loads)
        n += t.bytes();
    return n;
}

int64_t
Partition::storeBytes() const
{
    int64_t n = 0;
    for (const auto &t : stores)
        n += t.bytes();
    return n;
}

int64_t
Partition::flops() const
{
    int64_t n = 0;
    for (const auto &f : fragments)
        n += f.flops;
    return n;
}

int64_t
CompiledProgram::transferBytes() const
{
    int64_t n = 0;
    for (const auto &p : partitions)
        n += p.loadBytes() + p.storeBytes();
    return n;
}

std::string
CompiledProgram::render() const
{
    std::string out;
    for (const auto &[accel, prog] : programs) {
        out += "program ";
        out += lang::toString(prog.domain);
        out += " on ";
        out += accel;
        out += " (";
        appendInt(out, static_cast<int64_t>(prog.fragments.size()));
        out += " fragments)\n";
        for (const auto &f : prog.fragments) {
            out += "  ";
            f.appendTo(out);
            out += '\n';
        }
    }
    out += "schedule: ";
    appendInt(out, static_cast<int64_t>(partitions.size()));
    out += " partitions, ";
    appendInt(out, transferBytes());
    out += " boundary bytes\n";
    for (size_t i = 0; i < partitions.size(); ++i) {
        const auto &p = partitions[i];
        out += "  [";
        appendInt(out, static_cast<int64_t>(i));
        out += "] ";
        out += lang::toString(p.domain);
        out += ' ';
        out += p.accel;
        out += ": ";
        appendInt(out, static_cast<int64_t>(p.fragments.size()));
        out += " frags, load ";
        appendInt(out, p.loadBytes());
        out += " B, store ";
        appendInt(out, p.storeBytes());
        out += " B, deps:";
        for (const int d : p.deps) {
            out += ' ';
            appendInt(out, d);
        }
        out += '\n';
    }
    return out;
}

namespace {

TensorArg
argOf(const Graph &graph, ValueId v)
{
    const auto &md = graph.value(v).md;
    TensorArg arg;
    if (md.name.empty()) {
        arg.name += '%';
        arg.name += std::to_string(v);
    } else {
        arg.name = md.name;
    }
    arg.shape = md.shape;
    arg.dtype = md.dtype;
    arg.kind = md.kind;
    return arg;
}

IrFragment
transferFragment(const Graph &graph, ValueId v, bool is_load)
{
    IrFragment frag;
    frag.opcode = is_load ? "tload" : "tstore";
    if (is_load)
        frag.inputs.push_back(argOf(graph, v));
    else
        frag.outputs.push_back(argOf(graph, v));
    frag.attrs["bytes"] = argOf(graph, v).bytes();
    return frag;
}

/**
 * Kahn scheduling with accelerator affinity: among ready nodes, stay on
 * the current accelerator as long as possible so the host manager sees
 * maximal same-target partitions (fewer DMA round-trips).
 */
std::vector<NodeId>
affinitySchedule(const Graph &graph,
                 const std::function<std::string(const Node &)> &accel_of)
{
    std::vector<int> pending(graph.nodeCount(), 0);
    std::vector<std::vector<NodeId>> waiters(graph.values.size());
    std::map<std::string, std::vector<NodeId>> ready;
    auto value_pending = [&](ValueId v) {
        return v >= 0 && graph.value(v).producer >= 0 &&
               graph.node(graph.value(v).producer);
    };
    for (const Node &node : graph.nodePool()) {
        if (!node.live())
            continue;
        int count = 0;
        auto dep = [&](ValueId v) {
            if (value_pending(v)) {
                ++count;
                waiters[static_cast<size_t>(v)].push_back(node.id);
            }
        };
        for (const auto &in : graph.ins(node))
            dep(in.isIndexOperand() ? -1 : in.value);
        dep(node.base);
        pending[static_cast<size_t>(node.id)] = count;
        if (count == 0)
            ready[accel_of(node)].push_back(node.id);
    }
    std::vector<NodeId> order;
    std::string current;
    while (true) {
        auto bucket = ready.find(current);
        if (bucket == ready.end() || bucket->second.empty()) {
            bucket = ready.begin();
            while (bucket != ready.end() && bucket->second.empty())
                ++bucket;
            if (bucket == ready.end())
                break;
            current = bucket->first;
        }
        const NodeId id = bucket->second.back();
        bucket->second.pop_back();
        order.push_back(id);
        for (const auto &o : graph.outs(*graph.node(id))) {
            if (o.value < 0)
                continue;
            for (NodeId w : waiters[static_cast<size_t>(o.value)]) {
                if (--pending[static_cast<size_t>(w)] == 0)
                    ready[accel_of(*graph.node(w))].push_back(w);
            }
        }
    }
    if (static_cast<int64_t>(order.size()) != graph.liveNodeCount())
        panic("affinitySchedule(): dataflow cycle");
    return order;
}

} // namespace

CompiledProgram
compileProgram(const Graph &graph, const AcceleratorRegistry &registry,
               Domain default_domain, DiagnosticEngine *diag)
{
    auto &recorder = obs::TraceRecorder::global();
    obs::Span compile_span("lower:compile", "compile");
    CompiledProgram out;

    // Degraded execution target for domains with no registered
    // accelerator: generic translation, host-CPU execution on the SoC.
    AcceleratorSpec host_spec;
    host_spec.name = kHostAccel;
    std::set<Domain> degraded_domains;

    // Producer partition per value (graph inputs: -1).
    std::vector<int> partition_of_value(graph.values.size(), -1);

    Partition *current = nullptr;
    int current_index = -1;

    // Per-partition compile spans: each maximal same-accelerator run of
    // the schedule gets a wall-clock span covering its translation.
    int64_t partition_span_start = 0;
    auto close_partition_span = [&]() {
        if (!recorder.enabled() || !current)
            return;
        const int64_t now = recorder.nowMicros();
        recorder.completeReal(
            format("compile:partition[%d] %s", current_index,
                   current->accel.c_str()),
            "compile", partition_span_start, now - partition_span_start,
            {obs::TraceArg::str("accel", current->accel),
             obs::TraceArg::num(
                 "fragments",
                 static_cast<int64_t>(current->fragments.size()))});
    };
    auto open_partition = [&](Domain dom, const AcceleratorSpec &spec) {
        close_partition_span();
        if (recorder.enabled())
            partition_span_start = recorder.nowMicros();
        out.partitions.push_back(Partition{});
        current = &out.partitions.back();
        current_index = static_cast<int>(out.partitions.size()) - 1;
        current->domain = dom;
        current->accel = spec.name;
    };

    auto domain_name = [](Domain dom) {
        return lang::toString(dom).empty() ? "<none>" : lang::toString(dom);
    };
    auto accel_of = [&](const Node &node) -> std::string {
        const Domain dom =
            node.domain != Domain::None ? node.domain : default_domain;
        const AcceleratorSpec *spec = registry.specFor(dom, node.op);
        if (!spec && diag)
            return host_spec.name;
        return spec ? spec->name : "";
    };
    for (NodeId id : affinitySchedule(graph, accel_of)) {
        const Node &node = *graph.node(id);
        const Domain dom =
            node.domain != Domain::None ? node.domain : default_domain;
        const AcceleratorSpec *spec = registry.specFor(dom, node.op);
        if (!spec) {
            if (!diag) {
                fatal("no accelerator registered for domain " +
                      domain_name(dom));
            }
            if (degraded_domains.insert(dom).second) {
                diag->warning("no accelerator registered for domain " +
                              domain_name(dom) +
                              "; degrading its nodes to a host-CPU "
                              "partition");
            }
            host_spec.domain = dom;
            spec = &host_spec;
        }

        if (!current || current->accel != spec->name)
            open_partition(dom, *spec);

        // Cross-boundary loads: operands produced outside this partition.
        auto needs_load = [&](ValueId v) {
            if (v < 0)
                return false;
            return partition_of_value[static_cast<size_t>(v)] !=
                   current_index;
        };
        std::set<ValueId> loaded;
        auto add_load = [&](ValueId v) {
            if (!needs_load(v) || !loaded.insert(v).second)
                return;
            bool already = false;
            for (const auto &l : current->loads)
                already = already || l.name == argOf(graph, v).name;
            if (already)
                return;
            current->loads.push_back(argOf(graph, v));
            const int src = partition_of_value[static_cast<size_t>(v)];
            if (src >= 0) {
                bool dep_known = false;
                for (int d : current->deps)
                    dep_known = dep_known || d == src;
                if (!dep_known)
                    current->deps.push_back(src);
                // The producing partition must store the value out.
                auto &producer = out.partitions[static_cast<size_t>(src)];
                bool stored = false;
                for (const auto &s : producer.stores)
                    stored = stored || s.name == argOf(graph, v).name;
                if (!stored) {
                    producer.stores.push_back(argOf(graph, v));
                    out.programs[producer.accel].fragments.push_back(
                        transferFragment(graph, v, false));
                }
            }
            out.programs[spec->name].fragments.push_back(
                transferFragment(graph, v, true));
            current->fragments.push_back(transferFragment(graph, v, true));
        };
        for (const auto &in : graph.ins(node)) {
            if (!in.isIndexOperand())
                add_load(in.value);
        }
        if (node.base >= 0)
            add_load(node.base);

        // Translate the node: spec override or the generic translator.
        auto &prog = out.programs[spec->name];
        if (prog.accel.empty()) {
            prog.accel = spec->name;
            prog.domain = dom;
        }
        IrFragment frag;
        auto t = spec->translators.find(node.op);
        if (t != spec->translators.end())
            frag = t->second(graph, node);
        else
            frag = genericTranslate(graph, node);
        if (spec->combine)
            spec->combine(prog, frag);
        else
            prog.fragments.push_back(frag);
        current->fragments.push_back(std::move(frag));
        current->ops.insert(node.op);

        for (const auto &o : graph.outs(node))
            partition_of_value[static_cast<size_t>(o.value)] =
                current_index;
    }

    close_partition_span();

    // Graph outputs leave the last producing partitions.
    for (ValueId v : graph.outputs) {
        const int src = partition_of_value[static_cast<size_t>(v)];
        if (src < 0)
            continue;
        auto &producer = out.partitions[static_cast<size_t>(src)];
        bool stored = false;
        for (const auto &s : producer.stores)
            stored = stored || s.name == argOf(graph, v).name;
        if (!stored) {
            producer.stores.push_back(argOf(graph, v));
            out.programs[producer.accel].fragments.push_back(
                transferFragment(graph, v, false));
        }
    }

    auto &metrics = obs::MetricsRegistry::global();
    metrics.counter("compile.runs").add(1);
    metrics.counter("compile.partitions")
        .add(static_cast<int64_t>(out.partitions.size()));
    metrics.counter("compile.boundary_bytes").add(out.transferBytes());
    // IR storage footprint of the graph just compiled: live nodes across
    // all recursion levels and the flat-pool arena bytes backing them.
    // Gauges (last-write-wins) — surfaced by `pmc --stats` and the
    // daemon's `metrics` verb.
    int64_t live_nodes = 0;
    ir::forEachNodeRecursive(graph, [&](const ir::Graph &,
                                        const ir::Node &) { ++live_nodes; });
    metrics.gauge("ir.nodes.live").set(static_cast<double>(live_nodes));
    metrics.gauge("ir.arena.bytes")
        .set(static_cast<double>(graph.arenaBytes()));
    compile_span.arg("partitions",
                     static_cast<int64_t>(out.partitions.size()));
    compile_span.arg("boundary_bytes", out.transferBytes());
    return out;
}

} // namespace polymath::lower
