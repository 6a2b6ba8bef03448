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

#include "targets/common/backend.h"

namespace polymath::target {

class HyperstreamsBackend : public Backend
{
  public:
    HyperstreamsBackend()
        : Backend("HyperStreams", lang::Domain::DA, hyperstreamsConfig())
    {
    }

    lower::AcceleratorSpec spec() const override;

  protected:
    void analyzeImpl(const lower::Partition &partition,
                     PartitionAnalysis &analysis) const override;
    PerfReport simulateImpl(const PartitionAnalysis &analysis,
                            const MachineConfig &machine,
                            const WorkloadProfile &profile) const override;
};

} // namespace polymath::target

#endif // POLYMATH_TARGETS_HYPERSTREAMS_HYPERSTREAMS_H_
