/**
 * @file
 * TVM-VTA backend: the open deep-learning FPGA accelerator behind TVM
 * (Moreau et al., IEEE Micro'19). It consumes layer-granularity operators
 * — PolyMath lowers DNN srDFGs only to the component level, the coarsest
 * granularity any backend uses, demonstrating the multi-granular IR. The
 * simulator models the 16x16 GEMM core with explicit weight/activation
 * streaming and per-layer instruction overhead.
 */
#ifndef POLYMATH_TARGETS_VTA_VTA_H_
#define POLYMATH_TARGETS_VTA_VTA_H_

#include "targets/common/backend.h"

namespace polymath::target {

class VtaBackend : public Backend
{
  public:
    VtaBackend() : Backend("TVM-VTA", lang::Domain::DL, vtaConfig()) {}

    lower::AcceleratorSpec spec() const override;

  protected:
    void analyzeImpl(const lower::Partition &partition,
                     PartitionAnalysis &analysis) const override;
    PerfReport simulateImpl(const PartitionAnalysis &analysis,
                            const MachineConfig &machine,
                            const WorkloadProfile &profile) const override;
};

} // namespace polymath::target

#endif // POLYMATH_TARGETS_VTA_VTA_H_
