#include "targets/tabla/tabla.h"

#include <algorithm>
#include <cmath>

#include "targets/common/cost_ledger.h"
#include "targets/common/op_sets.h"

namespace polymath::target {

lower::AcceleratorSpec
TablaBackend::spec() const
{
    lower::AcceleratorSpec s;
    s.name = name();
    s.domain = domain();
    using ir::OpCode;
    ir::OpSet extra = {OpCode::Sigmoid, OpCode::Gauss, OpCode::Sqrt,
                       OpCode::Exp,     OpCode::Ln,    OpCode::Log,
                       OpCode::Relu,    OpCode::Tanh,  OpCode::Pow,
                       OpCode::Sum};
    extra.insert("@custom_reduce");
    s.supportedOps = opsUnion(scalarAluOps(), extra);
    s.supportedOps.merge(groupOps());
    return s;
}

void
TablaBackend::analyzeImpl(const lower::Partition &partition,
                          PartitionAnalysis &a) const
{
    const std::vector<bool> invariant = invariantFragments(partition);
    for (size_t i = 0; i < a.fragments.size(); ++i) {
        const lower::IrFragment &frag = partition.fragments[i];
        PartitionAnalysis::Fragment &f = a.fragments[i];
        f.work = fragmentWork(frag);
        f.invariant = invariant[i];
        f.reduce = frag.attrs.count("reduce_extent") > 0;
    }
    analyzeLevels(partition, a);
}

PerfReport
TablaBackend::simulateImpl(const PartitionAnalysis &analysis,
                           const MachineConfig &m,
                           const WorkloadProfile &profile) const
{
    PerfReport r;
    r.machine = name();

    // List schedule: each dependency level spreads its scalar work over
    // the PE array; group reductions pay a log-depth tree latency.
    // Param/state-derived fragments run once; their results stay in the
    // PEs' register files / on-chip buffers.
    double cycles = 0.0;
    double once_cycles = 0.0;
    const double pes = static_cast<double>(m.computeUnits);
    const double reduce_tree = std::log2(pes); // PU reduction-tree latency
    // Bus turnaround between dependence levels: 4 cycles at the baseline
    // 64-words/cycle operand bus, scaling inversely with bus width
    // (exactly 4.0 at the Table VI default).
    const double turnaround =
        4.0 * (64.0 / static_cast<double>(m.busWordsPerCycle));
    for (const auto &level : analysis.levels) {
        once_cycles += std::ceil(level.invariantWork / pes);
        if (level.work <= 0)
            continue;
        cycles += std::ceil(level.work / pes);
        if (level.reduce)
            cycles += reduce_tree;
        cycles += turnaround;
    }
    cycles *= profile.scale;

    const double hz = m.freqGhz * 1e9;
    const double invocations = static_cast<double>(profile.invocations);
    r.computeSeconds = (cycles * invocations + once_cycles) / hz;

    const DmaBreakdown &dma = analysis.dma;
    r.dramBytes = dma.oneTimeBytes +
                  static_cast<int64_t>(dma.perRunBytes * invocations);
    r.memorySeconds = static_cast<double>(r.dramBytes) / (m.dramGBs * 1e9);
    r.overheadSeconds = m.launchOverheadUs * 1e-6 * invocations;

    // FPGA execution overlaps AXI streaming with compute.
    r.seconds = std::max(r.computeSeconds, r.memorySeconds) +
                r.overheadSeconds;
    r.flops = static_cast<int64_t>(
        static_cast<double>(analysis.flops) * profile.scale *
        invocations);
    r.utilization =
        r.seconds > 0
            ? static_cast<double>(r.flops) / (m.peakFlops() * r.seconds)
            : 0.0;
    r.joules = m.watts * r.seconds;

    if (CostLedger *ledger = beginLedger(r, analysis)) {
        // Raw per-fragment weight: its share of the PE array's issue
        // slots, in (pre-overlap) seconds. The ceil() rounding, the PU
        // reduction trees, and the inter-level bus turnarounds are level
        // costs, not fragment costs — they land in one residual entry.
        double attributed = 0.0;
        for (size_t i = 0; i < analysis.fragments.size(); ++i) {
            const auto &f = analysis.fragments[i];
            if (f.move)
                continue;
            const double slots = static_cast<double>(f.work) / pes / hz;
            const double raw =
                f.invariant ? slots : slots * profile.scale * invocations;
            ledger->addFragment(analysis, i, static_cast<double>(f.flops),
                                raw);
            attributed += raw;
        }
        ledger->addComputeResidual("reduce-tree+bus turnaround",
                                   r.computeSeconds - attributed);
        ledger->addDma(static_cast<double>(dma.oneTimeBytes),
                       static_cast<double>(dma.perRunBytes) * invocations,
                       m.dramGBs);
        ledger->addOverhead(r.overheadSeconds);
        finalizeLedger(r, m);
    }
    return r;
}

} // namespace polymath::target
