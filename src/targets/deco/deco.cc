#include "targets/deco/deco.h"

#include <algorithm>
#include <cmath>

#include "targets/common/cost_ledger.h"
#include "targets/common/op_sets.h"

namespace polymath::target {

namespace {

/** Max/mean of the positive entries of @p level_work; 1.0 when none
 *  is positive. */
double
stageImbalance(const std::vector<double> &level_work)
{
    double max_work = 0.0;
    double total = 0.0;
    int64_t stages = 0;
    for (const double w : level_work) {
        if (w <= 0)
            continue;
        max_work = std::max(max_work, w);
        total += w;
        ++stages;
    }
    if (stages == 0 || total <= 0)
        return 1.0;
    return max_work / (total / static_cast<double>(stages));
}

} // namespace

lower::AcceleratorSpec
DecoBackend::spec() const
{
    lower::AcceleratorSpec s;
    s.name = name();
    s.domain = domain();
    using ir::OpCode;
    ir::OpSet extra = {OpCode::Sin,  OpCode::Cos, OpCode::Tan,
                       OpCode::Sqrt, OpCode::Exp, OpCode::Ln,
                       OpCode::Log,  OpCode::Pow, OpCode::Re,
                       OpCode::Im,   OpCode::Conj, OpCode::Sum,
                       OpCode::Prod};
    extra.insert("@custom_reduce");
    s.supportedOps = opsUnion(scalarAluOps(), extra);
    s.supportedOps.merge(groupOps());
    return s;
}

void
DecoBackend::analyzeImpl(const lower::Partition &partition,
                         PartitionAnalysis &a) const
{
    const std::vector<bool> invariant = invariantFragments(partition);
    for (size_t i = 0; i < a.fragments.size(); ++i) {
        a.fragments[i].work = fragmentWork(partition.fragments[i]);
        a.fragments[i].invariant = invariant[i];
    }
    a.stageImbalance = stageImbalance(analyzeLevels(partition, a));
}

PerfReport
DecoBackend::simulateImpl(const PartitionAnalysis &analysis,
                          const MachineConfig &m,
                          const WorkloadProfile &profile) const
{
    PerfReport r;
    r.machine = name();

    constexpr double kPipelineDepth = 24.0; // DSP chain fill latency

    // Stage-based execution: every dependence level streams its elements
    // through the DSP columns; the slowest stage bounds the pipeline, so
    // imbalance stretches total cycles.
    const double lanes = static_cast<double>(m.computeUnits);
    double cycles = 0.0;
    double fill_cycles = 0.0;
    size_t next_invariant = 0;
    for (const auto &level : analysis.levels) {
        for (; next_invariant < level.invariantEnd; ++next_invariant) {
            fill_cycles += std::ceil(
                analysis.invariantWorks[next_invariant] / lanes);
        }
        if (level.work <= 0)
            continue;
        cycles += std::ceil(level.work / lanes);
        fill_cycles += kPipelineDepth;
    }
    const double imbalance = analysis.stageImbalance;
    // Stalls from unbalanced stages: linear penalty above balanced.
    cycles *= 1.0 + 0.3 * (std::min(imbalance, 3.0) - 1.0);
    cycles *= profile.scale;

    const double hz = m.freqGhz * 1e9;
    const double invocations = static_cast<double>(profile.invocations);
    // Streaming execution: the chain fills once; back-to-back frames keep
    // the pipelines primed.
    r.computeSeconds = (cycles * invocations + fill_cycles) / hz;

    const DmaBreakdown &dma = analysis.dma;
    r.dramBytes = dma.oneTimeBytes +
                  static_cast<int64_t>(dma.perRunBytes * invocations);
    r.memorySeconds = static_cast<double>(r.dramBytes) / (m.dramGBs * 1e9);
    r.overheadSeconds = m.launchOverheadUs * 1e-6 * invocations;

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
        // Raw fragment weight: its DSP-column issue slots. The stage
        // imbalance penalty, the per-level ceil() rounding, and the
        // chain-fill latency are schedule-level costs -> one residual.
        double attributed = 0.0;
        for (size_t i = 0; i < analysis.fragments.size(); ++i) {
            const auto &f = analysis.fragments[i];
            if (f.move)
                continue;
            const double slots = static_cast<double>(f.work) / lanes / hz;
            const double raw =
                f.invariant ? slots : slots * profile.scale * invocations;
            ledger->addFragment(analysis, i, static_cast<double>(f.flops),
                                raw);
            attributed += raw;
        }
        ledger->addComputeResidual("stage-imbalance+pipeline-fill",
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
