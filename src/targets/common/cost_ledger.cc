#include "targets/common/cost_ledger.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>

#include "core/error.h"
#include "core/json.h"
#include "core/strings.h"
#include "report/report.h"
#include "targets/common/backend.h"

namespace polymath::target {

namespace {

std::atomic<bool> g_profiling{false};

/** Open ProfilingScopes on this thread. */
thread_local int t_profiling_scopes = 0;

} // namespace

bool
profilingEnabled()
{
    return g_profiling.load(std::memory_order_relaxed);
}

void
setProfilingEnabled(bool on)
{
    g_profiling.store(on, std::memory_order_relaxed);
}

ProfilingScope::ProfilingScope()
{
    ++t_profiling_scopes;
}

ProfilingScope::~ProfilingScope()
{
    --t_profiling_scopes;
}

bool
ProfilingScope::active()
{
    return t_profiling_scopes > 0;
}

const char *
toString(BoundClass bound)
{
    switch (bound) {
      case BoundClass::Compute: return "compute";
      case BoundClass::Memory: return "memory";
      case BoundClass::Overhead: return "overhead";
    }
    return "?";
}

const char *
toString(CostPhase phase)
{
    switch (phase) {
      case CostPhase::Compute: return "compute";
      case CostPhase::Dma: return "dma";
      case CostPhase::Overhead: return "overhead";
    }
    return "?";
}

double
CostEntry::intensity() const
{
    if (touchedBytes <= 0) {
        return flops > 0 ? std::numeric_limits<double>::infinity() : 0.0;
    }
    return flops / touchedBytes;
}

CostEntry &
CostLedger::add(std::string_view label, CostPhase phase, int fragment)
{
    CostEntry &entry = entries.emplace_back();
    entry.label = label;
    entry.phase = phase;
    entry.fragment = fragment;
    return entry;
}

CostEntry &
CostLedger::addFragment(const PartitionAnalysis &analysis, size_t index,
                        double flops, double raw_seconds)
{
    const LedgerFacts &facts = (*analysis.ledgerFacts)[index];
    CostEntry &entry =
        add(facts.label, CostPhase::Compute, static_cast<int>(index));
    entry.seconds = raw_seconds;
    entry.flops = flops;
    entry.touchedBytes = facts.touchedBytes;
    return entry;
}

void
CostLedger::addComputeResidual(const char *label, double raw_seconds)
{
    // Tiny negative residues from floating-point cancellation are normal;
    // only record a real scheduling cost.
    if (raw_seconds <= 0)
        return;
    CostEntry &entry = add(label, CostPhase::Compute);
    entry.seconds = raw_seconds;
    entry.bound = BoundClass::Overhead;
}

void
CostLedger::addDma(double one_time_bytes, double per_run_bytes,
                   double dram_gbs)
{
    const double bw = dram_gbs * 1e9;
    if (one_time_bytes > 0) {
        CostEntry &once = add("dma:param/state placement", CostPhase::Dma);
        once.dramBytes = one_time_bytes;
        once.seconds = bw > 0 ? one_time_bytes / bw : 0.0;
        once.bound = BoundClass::Memory;
    }
    if (per_run_bytes > 0) {
        CostEntry &stream = add("dma:per-run streams", CostPhase::Dma);
        stream.dramBytes = per_run_bytes;
        stream.seconds = bw > 0 ? per_run_bytes / bw : 0.0;
        stream.bound = BoundClass::Memory;
    }
}

void
CostLedger::addOverhead(double raw_seconds)
{
    if (raw_seconds <= 0)
        return;
    CostEntry &entry = add("launch/dispatch", CostPhase::Overhead);
    entry.seconds = raw_seconds;
    entry.bound = BoundClass::Overhead;
}

CostLedger::Totals
CostLedger::totals() const
{
    Totals t;
    for (const auto &e : entries) {
        t.seconds += e.seconds;
        t.joules += e.joules;
        t.dramBytes += e.dramBytes;
        t.flops += e.flops;
    }
    return t;
}

void
CostLedger::append(const CostLedger &other)
{
    const int base = partitionCount;
    for (const CostEntry &entry : other.entries) {
        entries.push_back(entry);
        entries.back().partition = base + std::max(0, entry.partition);
    }
    for (const auto &source : other.labelSources) {
        if (std::find(labelSources.begin(), labelSources.end(), source) ==
            labelSources.end())
            labelSources.push_back(source);
    }
    partitionCount += std::max(1, other.partitionCount);
}

CostLedger *
beginLedger(PerfReport &report, const PartitionAnalysis &analysis)
{
    if (!analysis.ledger)
        return nullptr;
    report.ledger = std::make_shared<CostLedger>();
    report.ledger->machine = report.machine;
    report.ledger->labelSources.push_back(analysis.ledgerFacts);
    // One entry per fragment at most, plus a few phase-level ones.
    report.ledger->entries.reserve(analysis.fragmentCount + 4);
    return report.ledger.get();
}

namespace {

/** Rescales one metric column so it sums exactly to @p total; when the
 *  raw weights are all zero but the total is not, the whole total lands
 *  on @p fallback (so nothing is silently dropped). */
template <class Get>
void
distribute(std::vector<CostEntry> &entries, double total, Get get,
           CostEntry *fallback)
{
    double raw = 0.0;
    for (auto &e : entries)
        raw += *get(e);
    if (raw > 0) {
        const double scale = total / raw;
        for (auto &e : entries)
            *get(e) *= scale;
    } else if (total != 0 && fallback) {
        *get(*fallback) = total;
    }
}

} // namespace

void
finalizeLedger(PerfReport &report, const MachineConfig &machine)
{
    if (!report.ledger)
        return;
    CostLedger &ledger = *report.ledger;
    ledger.peakFlops = machine.peakFlops();
    ledger.dramGBs = machine.dramGBs;

    // A backend that found nothing to attribute (empty partition) still
    // satisfies the invariant via one catch-all entry.
    if (ledger.entries.empty()) {
        CostEntry &all = ledger.add("partition", CostPhase::Compute);
        all.seconds = 1.0; // raw weight; rescaled below
    }
    CostEntry *first = &ledger.entries.front();

    distribute(
        ledger.entries, report.seconds,
        [](CostEntry &e) { return &e.seconds; }, first);
    double raw_flops = 0.0;
    for (const auto &e : ledger.entries)
        raw_flops += e.flops;
    distribute(
        ledger.entries, static_cast<double>(report.flops),
        [](CostEntry &e) { return &e.flops; }, first);
    // touchedBytes stays outside the invariant, but it must scale with
    // the same factor as the flops it divides: arithmetic intensity is a
    // per-execution property and cannot drift with the invocation count.
    if (raw_flops > 0) {
        const double scale = static_cast<double>(report.flops) / raw_flops;
        for (auto &e : ledger.entries)
            e.touchedBytes *= scale;
    }
    distribute(
        ledger.entries, static_cast<double>(report.dramBytes),
        [](CostEntry &e) { return &e.dramBytes; }, first);

    // Energy follows time: every backend prices the partition at a flat
    // active power, so joules are attributed proportionally to seconds.
    if (report.seconds > 0) {
        for (auto &e : ledger.entries)
            e.joules = report.joules * (e.seconds / report.seconds);
    } else if (report.joules != 0) {
        first->joules = report.joules;
    }

    // Roofline classification of the compute entries: a fragment whose
    // arithmetic intensity (flops per accelerator-side operand byte)
    // falls left of the machine ridge point is bandwidth-limited even
    // when the schedule is busy. DMA/overhead entries keep the class
    // their population site assigned.
    const double bw = machine.dramGBs * 1e9;
    const double ridge = bw > 0 ? ledger.peakFlops / bw : 0.0;
    for (auto &e : ledger.entries) {
        if (e.fragment < 0)
            continue;
        if (e.flops <= 0)
            e.bound = BoundClass::Overhead; // identity moves, constants
        else
            e.bound = e.intensity() < ridge ? BoundClass::Memory
                                            : BoundClass::Compute;
    }
}

void
verifyLedger(const PerfReport &report)
{
    if (!report.ledger)
        return;
    const CostLedger::Totals sums = report.ledger->totals();
    constexpr double kRelTol = 1e-9;
    auto check = [&](const char *metric, double sum, double total) {
        const double scale = std::max(std::abs(sum), std::abs(total));
        const double diff = std::abs(sum - total);
        if (diff > kRelTol * std::max(scale, 1.0)) {
            panic(format("cost ledger for %s violates the sums-to-totals "
                         "invariant: %s entries sum to %.17g but the "
                         "report total is %.17g (rel err %.3g)",
                         report.machine.c_str(), metric, sum, total,
                         scale > 0 ? diff / scale : diff));
        }
    };
    check("seconds", sums.seconds, report.seconds);
    check("joules", sums.joules, report.joules);
    check("dramBytes", sums.dramBytes,
          static_cast<double>(report.dramBytes));
    check("flops", sums.flops, static_cast<double>(report.flops));
}

// ---------------------------------------------------------------------------
// Rendering.
// ---------------------------------------------------------------------------

namespace {

/** Achieved fraction of the roofline-attainable rate at this entry's
 *  intensity; 0 when unknowable (no time attributed / no roofline). */
double
rooflinePosition(const CostEntry &e, const CostLedger &ledger)
{
    if (e.seconds <= 0 || e.flops <= 0 || ledger.peakFlops <= 0)
        return 0.0;
    const double achieved = e.flops / e.seconds;
    const double attainable = std::min(
        ledger.peakFlops,
        std::isinf(e.intensity())
            ? ledger.peakFlops
            : e.intensity() * ledger.dramGBs * 1e9);
    // Clamped: proportional attribution of overlapped (max(compute,
    // memory)) time can leave a fragment less wall time than its raw
    // issue cost, pushing the apparent rate past the roof.
    return attainable > 0 ? std::min(1.0, achieved / attainable) : 0.0;
}

std::string
entryLabel(const CostEntry &e, const CostLedger &ledger)
{
    std::string label;
    if (ledger.partitionCount > 0 && e.partition >= 0) {
        label += 'p';
        label += std::to_string(e.partition);
        label += ':';
    }
    if (e.fragment >= 0) {
        label += '#';
        label += std::to_string(e.fragment);
        label += ' ';
    }
    label += e.label;
    return label;
}

} // namespace

std::string
profileTable(const PerfReport &report, int top_n)
{
    if (!report.ledger)
        return "(no cost ledger: profiling was disabled)\n";
    const CostLedger &ledger = *report.ledger;

    std::vector<const CostEntry *> ranked;
    ranked.reserve(ledger.entries.size());
    for (const auto &e : ledger.entries)
        ranked.push_back(&e);
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const CostEntry *a, const CostEntry *b) {
                         return a->seconds > b->seconds;
                     });
    if (top_n > 0 && ranked.size() > static_cast<size_t>(top_n))
        ranked.resize(static_cast<size_t>(top_n));

    report::Table table({"hotspot", "phase", "time%", "energy%", "flops",
                         "AI(flop/B)", "bound", "roofline%"});
    for (const CostEntry *e : ranked) {
        const double tpct =
            report.seconds > 0 ? e->seconds / report.seconds : 0.0;
        const double epct =
            report.joules > 0 ? e->joules / report.joules : 0.0;
        const double ai = e->intensity();
        table.addRow({entryLabel(*e, ledger), toString(e->phase),
                      report::percent(tpct), report::percent(epct),
                      formatG(e->flops, 4),
                      std::isinf(ai) ? "-" : formatG(ai, 3),
                      toString(e->bound),
                      report::percent(rooflinePosition(*e, ledger))});
    }
    std::string out = report.machine + " profile (" +
                      std::to_string(ledger.entries.size()) +
                      " ledger entries, top " +
                      std::to_string(ranked.size()) + "):\n";
    out += "  " + report.str() + "\n";
    out += table.str();
    return out;
}

std::string
profileJson(const PerfReport &report)
{
    std::string out = "{\"schema\":\"polymath-profile/1\"";
    out += ",\"machine\":" + json::quote(report.machine);
    out += ",\"report\":{";
    out += "\"seconds\":" + json::numberToJson(report.seconds);
    out += ",\"joules\":" + json::numberToJson(report.joules);
    out += ",\"computeSeconds\":" + json::numberToJson(report.computeSeconds);
    out += ",\"memorySeconds\":" + json::numberToJson(report.memorySeconds);
    out +=
        ",\"overheadSeconds\":" + json::numberToJson(report.overheadSeconds);
    out += ",\"flops\":" + std::to_string(report.flops);
    out += ",\"dramBytes\":" + std::to_string(report.dramBytes);
    out += ",\"utilization\":" + json::numberToJson(report.utilization);
    out += "}";
    if (report.ledger) {
        const CostLedger &ledger = *report.ledger;
        out += ",\"roofline\":{\"peakFlops\":" +
               json::numberToJson(ledger.peakFlops) +
               ",\"dramGBs\":" + json::numberToJson(ledger.dramGBs) + "}";
        out += ",\"entries\":[";
        for (size_t i = 0; i < ledger.entries.size(); ++i) {
            const CostEntry &e = ledger.entries[i];
            if (i)
                out += ",";
            out += "{\"label\":" + json::quote(e.label);
            out += ",\"phase\":" + json::quote(toString(e.phase));
            out += ",\"fragment\":" + std::to_string(e.fragment);
            if (ledger.partitionCount > 0)
                out += ",\"partition\":" + std::to_string(e.partition);
            out += ",\"bound\":" + json::quote(toString(e.bound));
            out += ",\"seconds\":" + json::numberToJson(e.seconds);
            out += ",\"joules\":" + json::numberToJson(e.joules);
            out += ",\"dramBytes\":" + json::numberToJson(e.dramBytes);
            out += ",\"flops\":" + json::numberToJson(e.flops);
            out += ",\"touchedBytes\":" + json::numberToJson(e.touchedBytes);
            out += "}";
        }
        out += "]";
    }
    return out + "}";
}

} // namespace polymath::target
