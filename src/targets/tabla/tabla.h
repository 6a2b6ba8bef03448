/**
 * @file
 * TABLA backend: a template-based FPGA accelerator for statistical machine
 * learning (Mahajan et al., HPCA'16). Its IR is a single-operation dataflow
 * graph executed by an array of processing engines (PEs) grouped into
 * processing units with a shared bus; group sums ride the PEs' reduction
 * tree. The simulator list-schedules the translated fragment DAG onto the
 * PE array.
 */
#ifndef POLYMATH_TARGETS_TABLA_TABLA_H_
#define POLYMATH_TARGETS_TABLA_TABLA_H_

#include "targets/common/backend.h"

namespace polymath::target {

class TablaBackend : public Backend
{
  public:
    TablaBackend() : Backend("TABLA", lang::Domain::DA, tablaConfig()) {}

    lower::AcceleratorSpec spec() const override;

  protected:
    void analyzeImpl(const lower::Partition &partition,
                     PartitionAnalysis &analysis) const override;
    PerfReport simulateImpl(const PartitionAnalysis &analysis,
                            const MachineConfig &machine,
                            const WorkloadProfile &profile) const override;
};

} // namespace polymath::target

#endif // POLYMATH_TARGETS_TABLA_TABLA_H_
