/**
 * @file
 * RoboX backend: an end-to-end programmable ASIC for MPC-based autonomous
 * control (Sacks et al., ISCA'18). Its macro dataflow graph organizes the
 * robot program as System -> Task -> vector/scalar/group operations; the
 * simulator sequences the translated fragments through the 256-lane
 * compute array, one control step per invocation.
 */
#ifndef POLYMATH_TARGETS_ROBOX_ROBOX_H_
#define POLYMATH_TARGETS_ROBOX_ROBOX_H_

#include "targets/common/backend.h"

namespace polymath::target {

class RoboxBackend : public Backend
{
  public:
    RoboxBackend() : Backend("RoboX", lang::Domain::RBT, roboxConfig()) {}

    lower::AcceleratorSpec spec() const override;

  protected:
    void analyzeImpl(const lower::Partition &partition,
                     PartitionAnalysis &analysis) const override;
    PerfReport simulateImpl(const PartitionAnalysis &analysis,
                            const MachineConfig &machine,
                            const WorkloadProfile &profile) const override;
};

} // namespace polymath::target

#endif // POLYMATH_TARGETS_ROBOX_ROBOX_H_
