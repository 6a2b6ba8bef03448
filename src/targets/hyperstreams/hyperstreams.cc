#include "targets/hyperstreams/hyperstreams.h"

#include <algorithm>
#include <cmath>

#include "targets/common/cost_ledger.h"
#include "targets/common/op_sets.h"

namespace polymath::target {

lower::AcceleratorSpec
HyperstreamsBackend::spec() const
{
    lower::AcceleratorSpec s;
    s.name = name();
    s.domain = domain();
    // Registered after TABLA for DA: only chosen for its preferred
    // component, which it accepts whole (coarsest granularity).
    const ir::Op bs = ir::Op::intern("black_scholes");
    s.supportedOps = {bs};
    s.preferredComponents = {bs};
    s.translators[bs] =
        [](const ir::Graph &g, const ir::Node &n) {
            auto frag = lower::genericTranslate(g, n);
            frag.opcode = "pipeline/black_scholes";
            // Elements streamed = extent of the option batch.
            int64_t options = 0;
            for (const auto &in : frag.inputs) {
                if (in.shape.rank() >= 1)
                    options = std::max(options, in.shape.dim(0));
            }
            frag.attrs.elements = options;
            return frag;
        };
    return s;
}

void
HyperstreamsBackend::analyzeImpl(const lower::Partition &partition,
                                 PartitionAnalysis &a) const
{
    for (size_t i = 0; i < a.fragments.size(); ++i) {
        if (const auto &elements = partition.fragments[i].attrs.elements)
            a.fragments[i].elements = *elements;
    }
}

PerfReport
HyperstreamsBackend::simulateImpl(const PartitionAnalysis &analysis,
                                  const MachineConfig &m,
                                  const WorkloadProfile &profile) const
{
    PerfReport r;
    r.machine = name();

    constexpr double kPipelineDepth = 180.0; // exp/ln/sqrt/erf chain

    const double units = static_cast<double>(m.computeUnits);
    // II = 1: one option per cycle once the pipeline fills; anything
    // else retires over the pipeline stages.
    const auto fragment_cycles = [&](const PartitionAnalysis::Fragment &f) {
        return f.elements > 0
                   ? static_cast<double>(f.elements) + kPipelineDepth
                   : std::ceil(static_cast<double>(f.flops) / units);
    };
    double cycles = 0.0;
    for (const auto &f : analysis.fragments) {
        if (!f.move)
            cycles += fragment_cycles(f);
    }
    cycles *= profile.scale;

    const double hz = m.freqGhz * 1e9;
    const double invocations = static_cast<double>(profile.invocations);
    r.computeSeconds = cycles / hz * invocations;

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
        // Per-fragment cycles (elements + fill, or flops over stages)
        // are computed independently and summed, so attribution is exact.
        for (size_t i = 0; i < analysis.fragments.size(); ++i) {
            const auto &f = analysis.fragments[i];
            if (f.move)
                continue;
            const double raw =
                fragment_cycles(f) * profile.scale * invocations / hz;
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
