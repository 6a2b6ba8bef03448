/**
 * @file
 * HyperStreams backend: deeply pipelined FPGA arithmetic for option
 * pricing (Morris & Aubury, FPL'07). The whole Black-Scholes formula is
 * compiled into one initiation-interval-1 pipeline; PolyMath keeps the
 * `black_scholes` component at its coarsest granularity and hands it over
 * whole, the way a hand-written HyperStreams design would consume it.
 */
#ifndef POLYMATH_TARGETS_HYPERSTREAMS_HYPERSTREAMS_H_
#define POLYMATH_TARGETS_HYPERSTREAMS_HYPERSTREAMS_H_

#include <utility>

#include "targets/common/backend.h"

namespace polymath::target {

class HyperstreamsBackend : public Backend
{
  public:
    HyperstreamsBackend() : Backend(hyperstreamsConfig()) {}
    explicit HyperstreamsBackend(MachineConfig machine)
        : Backend(std::move(machine))
    {
    }

    std::string name() const override { return "HyperStreams"; }
    lang::Domain domain() const override { return lang::Domain::DA; }
    lower::AcceleratorSpec spec() const override;

  protected:
    obs::Counter &simulateCalls() const override;
    AnalysisNeeds analysisNeeds() const override
    {
        return {.elements = true};
    }
    PerfReport simulateImpl(const PartitionAnalysis &analysis,
                            const WorkloadProfile &profile) const override;
};

} // namespace polymath::target

#endif // POLYMATH_TARGETS_HYPERSTREAMS_HYPERSTREAMS_H_
