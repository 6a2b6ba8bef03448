/**
 * @file
 * DECO backend: a DSP-block-based FPGA overlay with low-overhead
 * interconnect (Jain et al., FCCM'16). Computation is organized as
 * stage-based pipelines of DSP columns; throughput is one result per lane
 * per cycle when the dataflow graph is balanced, degrading with stage
 * imbalance — which is exactly the overhead PolyMath-translated graphs
 * exhibit relative to hand-balanced implementations (Fig. 9).
 */
#ifndef POLYMATH_TARGETS_DECO_DECO_H_
#define POLYMATH_TARGETS_DECO_DECO_H_

#include "targets/common/backend.h"

namespace polymath::target {

class DecoBackend : public Backend
{
  public:
    DecoBackend() : Backend("DECO", lang::Domain::DSP, decoConfig()) {}

    lower::AcceleratorSpec spec() const override;

  protected:
    void analyzeImpl(const lower::Partition &partition,
                     PartitionAnalysis &analysis) const override;
    PerfReport simulateImpl(const PartitionAnalysis &analysis,
                            const MachineConfig &machine,
                            const WorkloadProfile &profile) const override;
};

} // namespace polymath::target

#endif // POLYMATH_TARGETS_DECO_DECO_H_
