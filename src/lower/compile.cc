#include "lower/compile.h"

#include <algorithm>
#include <cstdint>
#include <map>
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

namespace {

/** The tload (@p kind Load) or tstore (Store) fragment of @p tensor. */
IrFragment
transferFragment(FragmentKind kind, TensorArg tensor)
{
    IrFragment frag;
    frag.kind = kind;
    frag.attrs.bytes = tensor.bytes();
    (kind == FragmentKind::Load ? frag.inputs : frag.outputs)
        .push_back(std::move(tensor));
    return frag;
}

} // namespace

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
    for (const auto &s : stores)
        n += s.tensor.bytes();
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
    // Every tstore at the point Algorithm 2 emitted it: (q, j) just before
    // fragment j of partition q, (partitions.size(), k) for graph output
    // k, after every partition.
    struct StoreLine
    {
        std::pair<size_t, size_t> at;
        const Partition *producer;
        const TensorArg *tensor;
    };
    std::vector<StoreLine> stores;
    for (const auto &p : partitions) {
        for (const auto &s : p.stores) {
            const size_t q = s.consumer == StoredTensor::kGraphOutput
                                 ? partitions.size()
                                 : static_cast<size_t>(s.consumer);
            stores.push_back({{q, static_cast<size_t>(s.at)}, &p, &s.tensor});
        }
    }
    std::sort(stores.begin(), stores.end(),
              [](const StoreLine &a, const StoreLine &b) {
                  return a.at < b.at;
              });

    // Replays the emission into πd per accelerator, which takes the
    // domain of its first partition and prints in name order.
    struct Program
    {
        Domain domain = Domain::None;
        int64_t fragments = 0;
        std::string body;
    };
    std::map<std::string_view, Program> programs;
    const auto list = [&](const Partition &p, const IrFragment &f) {
        Program &prog = programs.try_emplace(p.accel, Program{p.domain, 0, {}})
                            .first->second;
        ++prog.fragments;
        prog.body += "  ";
        f.appendTo(prog.body, p.listingTag && !f.isTransfer()
                                  ? p.listingTag(f)
                                  : std::string_view());
        prog.body += '\n';
    };
    auto next = stores.begin();
    const auto list_stores_through = [&](std::pair<size_t, size_t> at) {
        for (; next != stores.end() && next->at <= at; ++next)
            list(*next->producer,
                 transferFragment(FragmentKind::Store, *next->tensor));
    };
    for (size_t q = 0; q < partitions.size(); ++q) {
        for (size_t j = 0; j < partitions[q].fragments.size(); ++j) {
            list_stores_through({q, j});
            list(partitions[q], partitions[q].fragments[j]);
        }
    }
    list_stores_through({partitions.size(), SIZE_MAX});

    std::string out;
    for (const auto &[accel, prog] : programs) {
        out += "program ";
        out += lang::toString(prog.domain);
        out += " on ";
        out += accel;
        out += " (";
        appendInt(out, prog.fragments);
        out += " fragments)\n";
        out += prog.body;
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
        current->listingTag = spec.listingTag;
    };

    // The producing partition stores each value out once, by name.
    auto store_once = [&](Partition &producer, const TensorArg &tensor,
                          int consumer, size_t at) {
        for (const auto &s : producer.stores) {
            if (s.tensor.name == tensor.name)
                return;
        }
        producer.stores.push_back(
            StoredTensor{tensor, consumer, static_cast<int>(at)});
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
            TensorArg arg = tensorArg(graph, v);
            for (const auto &l : current->loads) {
                if (l.name == arg.name)
                    return;
            }
            current->loads.push_back(arg);
            const int src = partition_of_value[static_cast<size_t>(v)];
            if (src >= 0) {
                bool dep_known = false;
                for (int d : current->deps)
                    dep_known = dep_known || d == src;
                if (!dep_known)
                    current->deps.push_back(src);
                store_once(out.partitions[static_cast<size_t>(src)], arg,
                           current_index, current->fragments.size());
            }
            current->fragments.push_back(
                transferFragment(FragmentKind::Load, std::move(arg)));
        };
        for (const auto &in : graph.ins(node)) {
            if (!in.isIndexOperand())
                add_load(in.value);
        }
        if (node.base >= 0)
            add_load(node.base);

        // Translate the node: spec override or the generic translator.
        auto t = spec->translators.find(node.op);
        current->fragments.push_back(t != spec->translators.end()
                                         ? t->second(graph, node)
                                         : genericTranslate(graph, node));
        current->ops.insert(node.op);

        for (const auto &o : graph.outs(node))
            partition_of_value[static_cast<size_t>(o.value)] =
                current_index;
    }

    close_partition_span();

    // Graph outputs leave the last producing partitions.
    for (size_t k = 0; k < graph.outputs.size(); ++k) {
        const ValueId v = graph.outputs[k];
        const int src = partition_of_value[static_cast<size_t>(v)];
        if (src >= 0) {
            store_once(out.partitions[static_cast<size_t>(src)],
                       tensorArg(graph, v), StoredTensor::kGraphOutput, k);
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
