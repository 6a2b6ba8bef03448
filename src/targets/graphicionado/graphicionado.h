/**
 * @file
 * Graphicionado backend: a pipelined vertex-programming ASIC for graph
 * analytics (Ham et al., MICRO'16). Translated programs take the
 * process/reduce/apply pipeline-block form of Fig. 6 in the PolyMath
 * paper; the simulator streams the dataset's edges through the parallel
 * pipelines, with vertex properties held in the eDRAM scratchpad when
 * they fit.
 */
#ifndef POLYMATH_TARGETS_GRAPHICIONADO_GRAPHICIONADO_H_
#define POLYMATH_TARGETS_GRAPHICIONADO_GRAPHICIONADO_H_

#include "targets/common/backend.h"

namespace polymath::target {

class GraphicionadoBackend : public Backend
{
  public:
    GraphicionadoBackend()
        : Backend("Graphicionado", lang::Domain::GA, graphicionadoConfig())
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

#endif // POLYMATH_TARGETS_GRAPHICIONADO_GRAPHICIONADO_H_
