/**
 * @file
 * Multi-accelerator SoC runtime (Section V-A3, "Multi-acceleration").
 *
 * All accelerators are cascaded on one SoC with shared DRAM and a
 * light-weight host manager that honors data dependencies between
 * partitions and initiates DMA between DRAM and each accelerator's local
 * memory. Partitions may selectively run on their domain accelerator or
 * fall back to the host CPU — which is how the Fig. 10/11 sweeps over
 * "which kernels are accelerated" are produced.
 *
 * SocRuntime prices one partition at a time (runPartition) and closes a
 * job's bill (finalizeTotals). The host manager that orders partitions
 * is one event engine (stream.cc): execute() and estimate() run it as a
 * stream of one job arriving at t=0, soc::StreamScheduler as a stream of
 * many (stream.h).
 */
#ifndef POLYMATH_SOC_SOC_H_
#define POLYMATH_SOC_SOC_H_

#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "lower/compile.h"
#include "soc/fault.h"
#include "targets/common/backend.h"
#include "targets/cpu/cpu_model.h"

namespace polymath::soc {

using target::Backend;
using target::PerfReport;
using target::WorkloadProfile;

/** Outcome of one end-to-end execution. */
struct SocResult
{
    PerfReport total; ///< end-to-end, including transfers and host

    /** Per-partition reports, in schedule order. */
    std::vector<PerfReport> partitions;

    double transferSeconds = 0.0;
    double transferJoules = 0.0;

    /** DRAM<->local bytes the SoC's DMA moved, the transfers of wasted
     *  watchdog re-runs included; what `soc.dma.bytes` counts. */
    int64_t dmaBytes = 0;

    /** Fault/degradation accounting; all-zero when no fault model is
     *  active (the resilience layer is zero-cost when disabled). */
    ReliabilityReport reliability;

    /** Fraction of end-to-end runtime spent moving data. */
    double communicationFraction() const
    {
        return total.seconds > 0 ? transferSeconds / total.seconds : 0.0;
    }

    /** Fraction of end-to-end energy spent on DRAM/DMA + host. */
    double communicationEnergyFraction() const
    {
        return total.joules > 0 ? transferJoules / total.joules : 0.0;
    }

    /** Records this result's totals as the reliability report's actual
     *  run and @p fault_free as the fault-free reference it is priced
     *  against. */
    void setFaultFreeBaseline(const PerfReport &fault_free)
    {
        reliability.actualSeconds = total.seconds;
        reliability.actualJoules = total.joules;
        reliability.faultFreeSeconds = fault_free.seconds;
        reliability.faultFreeJoules = fault_free.joules;
    }
};

/** The cascaded-accelerator system. */
class SocRuntime
{
  public:
    /**
     * A runtime over @p backends, which it does not own: the process's
     * standard backends unless a caller cascades its own list (and keeps
     * it alive while the runtime prices). Constructing one costs a
     * config copy.
     * @throws UserError when @p config fails SocConfig::validate().
     */
    explicit SocRuntime(
        target::SocConfig config = target::socConfig(),
        FaultModel faults = {},
        std::span<const Backend *const> backends =
            target::standardBackends());

    /** Installs (or clears, with a default FaultModel) fault injection for
     *  subsequent execute() calls. */
    void setFaultModel(FaultModel faults) { faults_ = std::move(faults); }
    const FaultModel &faultModel() const { return faults_; }

    /**
     * Executes @p program under @p profile. Partitions whose accelerator
     * name is in @p accelerated run on their backend; the rest run on the
     * host CPU (with no DMA). An empty set means "accelerate everything".
     * @p host_eff optionally calibrates the host library efficiency per
     * partition accel-name (see WorkloadCost::cpuEff).
     *
     * The run is a stream of one job arriving at t=0 that draws from the
     * runtime's FaultModel unsalted. With an enabled fault model, injected
     * faults are handled per the configured DegradationPolicy (retry with
     * exponential DMA backoff, host fallback, an outage and migration on
     * accelerator loss, or Abort => UserError) and SocResult::reliability
     * reports the damage against estimate(); with faults disabled the
     * result is bit-identical to estimate().
     */
    SocResult execute(const lower::CompiledProgram &program,
                      const WorkloadProfile &profile,
                      const std::set<std::string> &accelerated = {},
                      const std::map<std::string, double> &host_eff = {})
        const;

    /** Fault-free reference execution: the cost/deadline estimator used
     *  by the streaming scheduler. Bit-identical to a fault-free
     *  execute(). It adds no `soc:execute` span, no virtual timeline and
     *  no `soc.*` metrics; the backends it prices still count their
     *  `backend.<name>.simulate_calls` and open `backend:simulate`
     *  spans. */
    SocResult estimate(const lower::CompiledProgram &program,
                       const WorkloadProfile &profile,
                       const std::set<std::string> &accelerated = {},
                       const std::map<std::string, double> &host_eff = {})
        const;

    std::span<const Backend *const> backends() const { return backends_; }

    const target::SocConfig &config() const { return config_; }

    // runPartition() and finalizeTotals() are the whole pricing model;
    // the event engine in stream.cc calls them for every job it runs.

    /** One partition's priced run. */
    struct PartitionRun
    {
        PerfReport part; ///< includes DMA, backoff and wasted re-runs
        double transferSeconds = 0.0;
        double transferJoules = 0.0;
        /** DRAM<->local traffic the SoC moved, wasted watchdog re-runs
         *  included. */
        int64_t movedBytes = 0;
        /** Set when a DegradationPolicy::Abort fault fired; the run is
         *  then unpriced and the caller fails the job. */
        std::optional<FaultClass> aborted;
    };

    /**
     * Prices partition @p index of a job on @p backend, DMA included; a
     * null @p backend runs the host library, @p degraded the portable
     * host fallback (SocConfig::hostFallbackEff). Under @p faults, DMA
     * failures retry with capped exponential backoff and watchdog
     * overruns re-execute, charging every wasted run, until a budget or
     * a HostFallback policy degrades to the host. Faults, retries,
     * fallbacks and FaultEvents land in @p rel; accelerator loss and
     * offloadAttempts are the caller's.
     */
    PartitionRun runPartition(const lower::Partition &partition, int index,
                              const Backend *backend,
                              const WorkloadProfile &profile,
                              const std::map<std::string, double> &host_eff,
                              const FaultModel &faults,
                              ReliabilityReport &rel, bool degraded) const;

    /** End-of-job tail accounting: per-invocation host glue and the host
     *  manager's energy while the job ran. */
    void finalizeTotals(SocResult &result, const WorkloadProfile &profile,
                        bool any_offload) const;

  private:
    /** Host execution of one partition's kernels. A *deliberate* host
     *  placement runs the calibrated native library (host_eff); a
     *  fault-triggered degradation runs the compiler's portable host
     *  lowering instead, at SocConfig::hostFallbackEff of that
     *  efficiency. */
    PerfReport hostPartitionRun(
        const lower::Partition &partition, const WorkloadProfile &profile,
        const std::map<std::string, double> &host_eff, bool degraded) const;

    /** One accelerator run of a partition plus the serialized DMA between
     *  DRAM and the accelerator's local memory. */
    PartitionRun accelPartitionRun(const lower::Partition &partition,
                                   const Backend &backend,
                                   const WorkloadProfile &profile) const;

    std::span<const Backend *const> backends_;
    target::SocConfig config_;
    target::CpuModel host_;
    FaultModel faults_;
};

} // namespace polymath::soc

#endif // POLYMATH_SOC_SOC_H_
