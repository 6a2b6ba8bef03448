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
            frag.attrs["elements"] = options;
            return frag;
        };
    return s;
}

obs::Counter &
HyperstreamsBackend::simulateCalls() const
{
    static obs::Counter &calls = simulateCallsCounter(name());
    return calls;
}

PerfReport
HyperstreamsBackend::simulateImpl(const lower::Partition &partition,
                                  const PartitionAnalysis &analysis,
                                  const WorkloadProfile &profile) const
{
    const MachineConfig &m = machine();
    PerfReport r;
    r.machine = name();

    constexpr double kPipelineDepth = 180.0; // exp/ln/sqrt/erf chain

    double cycles = 0.0;
    for (const auto &frag : partition.fragments) {
        if (frag.opcode == "tload" || frag.opcode == "tstore")
            continue;
        auto it = frag.attrs.find("elements");
        if (it != frag.attrs.end() && it->second > 0) {
            // II = 1: one option per cycle once the pipeline fills.
            cycles += static_cast<double>(it->second) + kPipelineDepth;
        } else {
            // Anything else retires over the pipeline stages.
            cycles += std::ceil(
                static_cast<double>(frag.flops) /
                static_cast<double>(m.computeUnits));
        }
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
        static_cast<double>(partition.flops()) * profile.scale *
        invocations);
    r.utilization =
        r.seconds > 0
            ? static_cast<double>(r.flops) / (m.peakFlops() * r.seconds)
            : 0.0;
    r.joules = m.watts * r.seconds;

    if (CostLedger *ledger = beginLedger(r, analysis)) {
        // Per-fragment cycles (elements + fill, or flops over stages)
        // are computed independently and summed, so attribution is exact.
        size_t i = 0;
        for (const auto &frag : partition.fragments) {
            const size_t index = i++;
            if (frag.opcode == "tload" || frag.opcode == "tstore")
                continue;
            double frag_cycles = 0.0;
            auto it = frag.attrs.find("elements");
            if (it != frag.attrs.end() && it->second > 0) {
                frag_cycles =
                    static_cast<double>(it->second) + kPipelineDepth;
            } else {
                frag_cycles = std::ceil(
                    static_cast<double>(frag.flops) /
                    static_cast<double>(m.computeUnits));
            }
            const double raw =
                frag_cycles * profile.scale * invocations / hz;
            const auto &f = analysis.fragments[index];
            ledger->addFragment(static_cast<int>(index), f.label,
                                static_cast<double>(frag.flops),
                                f.touchedBytes, raw);
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
