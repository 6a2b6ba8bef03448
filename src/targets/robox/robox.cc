#include "targets/robox/robox.h"

#include <algorithm>
#include <cmath>

#include "targets/common/cost_ledger.h"
#include "targets/common/op_sets.h"

namespace polymath::target {

lower::AcceleratorSpec
RoboxBackend::spec() const
{
    lower::AcceleratorSpec s;
    s.name = name();
    s.domain = domain();
    using ir::OpCode;
    ir::OpSet extra = {OpCode::Sin,     OpCode::Cos,  OpCode::Tan,
                       OpCode::Sqrt,    OpCode::Exp,  OpCode::Ln,
                       OpCode::Log,     OpCode::Pow,  OpCode::Sigmoid,
                       OpCode::Tanh,    OpCode::Gauss, OpCode::Sum};
    extra.insert("@custom_reduce");
    s.supportedOps = opsUnion(scalarAluOps(), extra);
    s.supportedOps.merge(groupOps());

    // RoboX consumes vector/group macro-ops; its listing tags them.
    s.listingTag = [](const lower::IrFragment &frag) -> std::string_view {
        if (frag.attrs.reduceExtent)
            return "group/";
        if (!frag.attrs.dims.empty())
            return "vector/";
        return frag.opcode == "const" ? "" : "scalar/";
    };
    return s;
}

void
RoboxBackend::analyzeImpl(const lower::Partition &partition,
                          PartitionAnalysis &a) const
{
    // The sequencer issues each non-move fragment with work as one task.
    const std::vector<bool> invariant = invariantFragments(partition);
    size_t tasks = 0, invariant_tasks = 0;
    for (size_t i = 0; i < a.fragments.size(); ++i) {
        PartitionAnalysis::Fragment &f = a.fragments[i];
        f.work = fragmentWork(partition.fragments[i]);
        f.invariant = invariant[i];
        if (!f.move && f.work > 0)
            ++(f.invariant ? invariant_tasks : tasks);
    }
    a.taskWorks.reserve(tasks);
    a.invariantTaskWorks.reserve(invariant_tasks);
    for (const PartitionAnalysis::Fragment &f : a.fragments) {
        if (!f.move && f.work > 0) {
            (f.invariant ? a.invariantTaskWorks : a.taskWorks)
                .push_back(static_cast<double>(f.work));
        }
    }
}

PerfReport
RoboxBackend::simulateImpl(const PartitionAnalysis &analysis,
                           const MachineConfig &m,
                           const WorkloadProfile &profile) const
{
    PerfReport r;
    r.machine = name();

    // The macro-DFG sequencer issues one fragment (task op) at a time;
    // each spreads its elements across the 256 lanes.
    const double lanes = static_cast<double>(m.computeUnits);
    // Param/state-derived fragments (e.g. hoisted concatenations of cost
    // matrices) run once and stay in local memory.
    double cycles = 0.0;
    double once_cycles = 0.0;
    for (const double work : analysis.taskWorks)
        cycles += std::ceil(work / lanes) + 8.0;
    for (const double work : analysis.invariantTaskWorks)
        once_cycles += std::ceil(work / lanes) + 8.0;
    cycles *= profile.scale;

    const double hz = m.freqGhz * 1e9;
    const double invocations = static_cast<double>(profile.invocations);
    r.computeSeconds = (cycles * invocations + once_cycles) / hz;

    const DmaBreakdown &dma = analysis.dma;
    r.dramBytes = dma.oneTimeBytes +
                  static_cast<int64_t>(dma.perRunBytes * invocations);
    r.memorySeconds = static_cast<double>(r.dramBytes) / (m.dramGBs * 1e9);
    r.overheadSeconds = m.launchOverheadUs * 1e-6 * invocations;

    // Control loops are latency-critical: sensor I/O and compute serialize.
    r.seconds = r.computeSeconds + r.memorySeconds + r.overheadSeconds;
    r.flops = static_cast<int64_t>(
        static_cast<double>(analysis.flops) * profile.scale *
        invocations);
    r.utilization =
        r.seconds > 0
            ? static_cast<double>(r.flops) / (m.peakFlops() * r.seconds)
            : 0.0;
    r.joules = m.watts * r.seconds;

    if (CostLedger *ledger = beginLedger(r, analysis)) {
        // The sequencer is serial, so the per-fragment issue cost
        // (ceil(work/lanes) + 8 sequencer cycles) is exact — no residual.
        for (size_t i = 0; i < analysis.fragments.size(); ++i) {
            const auto &f = analysis.fragments[i];
            if (f.move || f.work <= 0)
                continue;
            const double c =
                std::ceil(static_cast<double>(f.work) / lanes) + 8.0;
            const double raw =
                (f.invariant ? c : c * profile.scale * invocations) / hz;
            ledger->addFragment(analysis, i, static_cast<double>(f.flops),
                                raw);
        }
        ledger->addDma(static_cast<double>(dma.oneTimeBytes),
                       static_cast<double>(dma.perRunBytes) * invocations,
                       m.dramGBs);
        ledger->addOverhead(r.overheadSeconds);
        finalizeLedger(r, m);
    }
    return r;
}

} // namespace polymath::target
