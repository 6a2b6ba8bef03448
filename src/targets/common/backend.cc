#include "targets/common/backend.h"

#include <algorithm>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "core/error.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "targets/common/cost_ledger.h"
#include "targets/deco/deco.h"
#include "targets/graphicionado/graphicionado.h"
#include "targets/hyperstreams/hyperstreams.h"
#include "targets/robox/robox.h"
#include "targets/tabla/tabla.h"
#include "targets/vta/vta.h"

namespace polymath::target {

Backend::Backend(std::string name, lang::Domain domain,
                 MachineConfig machine)
    : name_(std::move(name)), domain_(domain),
      machine_(std::move(machine)),
      simulate_calls_(obs::MetricsRegistry::global().counter(
          "backend." + name_ + ".simulate_calls"))
{
    machine_.validate();
}

namespace {

/** Each fragment's dependence level, -1 for tload/tstore; @p count
 *  receives the number of levels. */
std::vector<int>
levelOfFragments(const lower::Partition &partition, size_t &count)
{
    // Dataflow by tensor name: a fragment depends on the latest earlier
    // fragment writing any of its inputs.
    std::unordered_map<std::string_view, size_t> last_writer_level;
    std::vector<int> level_of(partition.fragments.size(), -1);
    count = 0;
    for (size_t i = 0; i < partition.fragments.size(); ++i) {
        const lower::IrFragment &frag = partition.fragments[i];
        if (frag.isTransfer())
            continue;
        size_t level = 0;
        for (const auto &in : frag.inputs) {
            auto it = last_writer_level.find(in.name);
            if (it != last_writer_level.end())
                level = std::max(level, it->second + 1);
        }
        level_of[i] = static_cast<int>(level);
        count = std::max(count, level + 1);
        for (const auto &out : frag.outputs) {
            auto [it, inserted] = last_writer_level.emplace(out.name, level);
            if (!inserted)
                it->second = std::max(it->second, level);
        }
    }
    return level_of;
}

} // namespace

bool
PartitionAnalysis::operator==(const PartitionAnalysis &other) const
{
    const bool same_facts =
        ledgerFacts == other.ledgerFacts ||
        (ledgerFacts && other.ledgerFacts &&
         *ledgerFacts == *other.ledgerFacts);
    return same_facts && backend == other.backend &&
           ledger == other.ledger &&
           fragmentCount == other.fragmentCount &&
           fragments == other.fragments && levels == other.levels &&
           invariantWorks == other.invariantWorks &&
           taskWorks == other.taskWorks &&
           invariantTaskWorks == other.invariantTaskWorks &&
           layers == other.layers && dma == other.dma &&
           flops == other.flops && weightBytes == other.weightBytes &&
           activationBytes == other.activationBytes &&
           opsPerEdge == other.opsPerEdge &&
           opsPerVertex == other.opsPerVertex &&
           stageImbalance == other.stageImbalance;
}

PartitionAnalysis
Backend::analyze(const lower::Partition &partition) const
{
    PartitionAnalysis a;
    a.backend = this;
    a.ledger = profilingEnabled() || ProfilingScope::active();
    a.fragmentCount = partition.fragments.size();
    a.dma = dmaBreakdown(partition);
    a.flops = partition.flops();
    a.fragments.resize(partition.fragments.size());
    std::shared_ptr<std::vector<LedgerFacts>> facts;
    if (a.ledger) {
        facts = std::make_shared<std::vector<LedgerFacts>>(
            partition.fragments.size());
    }
    for (size_t i = 0; i < partition.fragments.size(); ++i) {
        const lower::IrFragment &frag = partition.fragments[i];
        PartitionAnalysis::Fragment &f = a.fragments[i];
        f.flops = frag.flops;
        f.move = frag.isTransfer();
        if (facts) {
            LedgerFacts &l = (*facts)[i];
            l.label = frag.mnemonic();
            if (!frag.outputs.empty()) {
                l.label += '(';
                l.label += frag.outputs.front().name;
                l.label += ')';
            }
            for (const auto &in : frag.inputs)
                l.touchedBytes += static_cast<double>(in.accelBytes());
            for (const auto &out : frag.outputs)
                l.touchedBytes += static_cast<double>(out.accelBytes());
        }
    }
    a.ledgerFacts = std::move(facts);
    analyzeImpl(partition, a);
    return a;
}

PerfReport
Backend::simulate(const lower::Partition &partition,
                  const PartitionAnalysis &analysis,
                  const WorkloadProfile &profile,
                  const MachineConfig &machine) const
{
    // Pricing indexes the analysis by fragment and reads the facts its
    // own analyzeImpl() filled: refuse one built for another partition
    // or by another backend.
    if (analysis.backend != this ||
        analysis.fragmentCount != partition.fragments.size())
    {
        panic(name() + ": simulate() given an analysis of another "
                       "partition or backend");
    }
    if (analysis.ledger &&
        (!analysis.ledgerFacts ||
         analysis.ledgerFacts->size() != analysis.fragmentCount))
        panic(name() + ": simulate() asked for a ledger of an analysis "
                       "made without ledger facts");
    simulate_calls_.add(1);
    obs::Span span("backend:simulate", "backend");
    if (span.active()) {
        span.arg("accel", name());
        span.arg("fragments",
                 static_cast<int64_t>(partition.fragments.size()));
        span.arg("invocations", profile.invocations);
    }
    PerfReport report = simulateImpl(analysis, machine, profile);
    // Every profiled simulation must hand back a ledger whose column sums
    // reproduce the report totals — catch attribution bugs loudly here,
    // at the one point all six backends pass through.
    verifyLedger(report);
    return report;
}

DmaBreakdown
dmaBreakdown(const lower::Partition &partition)
{
    DmaBreakdown out;
    auto account = [&](const lower::TensorArg &t) {
        if (t.kind == ir::EdgeKind::Param || t.kind == ir::EdgeKind::State)
            out.oneTimeBytes += t.accelBytes();
        else
            out.perRunBytes += t.accelBytes();
    };
    for (const auto &t : partition.loads)
        account(t);
    for (const auto &s : partition.stores)
        account(s.tensor);
    return out;
}

WorkloadCost
hostPartitionCost(const lower::Partition &partition,
                  const WorkloadProfile &profile)
{
    WorkloadCost cost;
    cost.domain = partition.domain;
    cost.kernels = static_cast<int64_t>(partition.fragments.size());
    cost.invocations = profile.invocations;
    cost.parallelWidth = profile.parallelWidth;
    cost.irregular = profile.edges > 0;
    cost.bytes = partition.loadBytes() + partition.storeBytes();
    double flops =
        static_cast<double>(partition.flops()) * profile.scale;
    if (profile.edges > 0) {
        // Per-edge/per-vertex op rates from the compiled instance,
        // applied to the deployed dataset — the same derivation the
        // Graphicionado model uses (graphicionado.cc).
        double per_edge = 0.0;
        double per_vertex = 0.0;
        for (const auto &frag : partition.fragments) {
            if (frag.isTransfer())
                continue;
            (isEdgeDomain(frag) ? per_edge : per_vertex) +=
                opsPerPoint(frag);
        }
        const double edges = static_cast<double>(profile.edges);
        const double vertices = static_cast<double>(profile.vertices);
        flops = per_edge * edges + per_vertex * vertices;
        // 8 B per edge streamed each sweep, 16 B of properties per vertex.
        cost.bytes =
            static_cast<int64_t>(edges * 8.0 + vertices * 16.0);
    }
    cost.flops = static_cast<int64_t>(flops);
    return cost;
}

std::vector<bool>
invariantFragments(const lower::Partition &partition)
{
    // A tensor name is invariant when it is a read-only param or is
    // written only by invariant fragments. State is on-chip resident but
    // mutable across invocations, so it does not seed invariance.
    std::unordered_set<std::string_view> invariant_names;
    for (const auto &t : partition.loads) {
        if (t.kind == ir::EdgeKind::Param)
            invariant_names.insert(t.name);
    }
    std::vector<bool> out(partition.fragments.size(), false);
    for (size_t i = 0; i < partition.fragments.size(); ++i) {
        const auto &frag = partition.fragments[i];
        if (frag.isTransfer())
            continue;
        bool invariant = true;
        for (const auto &in : frag.inputs)
            invariant = invariant && invariant_names.count(in.name) > 0;
        // Constants have no inputs but also no work; mark them invariant.
        out[i] = invariant;
        if (invariant) {
            for (const auto &o : frag.outputs)
                invariant_names.insert(o.name);
        }
    }
    return out;
}

std::vector<double>
analyzeLevels(const lower::Partition &partition, PartitionAnalysis &a)
{
    size_t count = 0;
    const std::vector<int> level_of = levelOfFragments(partition, count);
    a.levels.resize(count);
    std::vector<double> level_work(count, 0.0);
    std::vector<std::pair<int, double>> invariant;
    for (size_t i = 0; i < a.fragments.size(); ++i) {
        if (level_of[i] < 0)
            continue;
        const PartitionAnalysis::Fragment &f = a.fragments[i];
        const auto l = static_cast<size_t>(level_of[i]);
        PartitionAnalysis::Level &level = a.levels[l];
        const auto work = static_cast<double>(f.work);
        if (f.invariant) {
            level.invariantWork += work;
            invariant.emplace_back(level_of[i], work);
        } else {
            level.work += work;
        }
        level.reduce = level.reduce || f.reduce;
        level_work[l] += work;
    }
    std::stable_sort(invariant.begin(), invariant.end(),
                     [](const auto &x, const auto &y) {
                         return x.first < y.first;
                     });
    a.invariantWorks.reserve(invariant.size());
    for (const auto &[l, work] : invariant) {
        a.invariantWorks.push_back(work);
        a.levels[static_cast<size_t>(l)].invariantEnd =
            a.invariantWorks.size();
    }
    // A level without invariant fragments ends its (empty) run where
    // the previous level's ended.
    for (size_t l = 1; l < count; ++l) {
        a.levels[l].invariantEnd = std::max(a.levels[l].invariantEnd,
                                            a.levels[l - 1].invariantEnd);
    }
    return level_work;
}


bool
isEdgeDomain(const lower::IrFragment &frag)
{
    return frag.attrs.dims.size() > 1 || frag.attrs.reduceExtent;
}

double
opsPerPoint(const lower::IrFragment &frag)
{
    double points = 1.0;
    for (const int64_t extent : frag.attrs.dims)
        points *= static_cast<double>(extent);
    if (points <= 0)
        return 0.0;
    return static_cast<double>(frag.flops) / points;
}

const std::vector<const Backend *> &
standardBackends()
{
    static const RoboxBackend robox;
    static const GraphicionadoBackend graphicionado;
    static const TablaBackend tabla;
    static const DecoBackend deco;
    static const VtaBackend vta;
    static const HyperstreamsBackend hyperstreams;
    static const std::vector<const Backend *> backends = {
        &robox, &graphicionado, &tabla, &deco, &vta, &hyperstreams};
    return backends;
}

const Backend *
findBackend(std::string_view name)
{
    for (const Backend *backend : standardBackends()) {
        if (backend->name() == name)
            return backend;
    }
    return nullptr;
}

const lower::AcceleratorRegistry &
standardRegistry()
{
    static const lower::AcceleratorRegistry registry = [] {
        lower::AcceleratorRegistry r;
        for (const Backend *backend : standardBackends())
            r.add(backend->spec());
        return r;
    }();
    return registry;
}

} // namespace polymath::target
