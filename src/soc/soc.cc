#include "soc/soc.h"

#include "targets/common/cost_ledger.h"

namespace polymath::soc {

SocRuntime::SocRuntime(target::SocConfig config, FaultModel faults,
                       std::span<const Backend *const> backends)
    : backends_(backends), config_(config), faults_(std::move(faults))
{
    config_.validate();
}

PerfReport
SocRuntime::hostPartitionRun(const lower::Partition &partition,
                             const WorkloadProfile &profile,
                             const std::map<std::string, double> &host_eff,
                             bool degraded) const
{
    target::WorkloadCost cost =
        target::hostPartitionCost(partition, profile);
    auto eff = host_eff.find(partition.accel);
    if (eff != host_eff.end())
        cost.cpuEff = eff->second;
    if (degraded) {
        const double native =
            cost.cpuEff > 0
                ? cost.cpuEff
                : target::CpuModel::domainEfficiency(cost.domain,
                                                     cost.irregular);
        cost.cpuEff = native * config_.hostFallbackEff;
    }
    return host_.simulate(cost);
}

// Param and state tensors are placed once; inputs/outputs move every
// invocation. The backend already overlaps streaming with compute; the
// SoC adds the DMA setup + transfer. Transfer *bandwidth* is already the
// backend's DRAM model (memorySeconds); the host adds DMA setup latency
// per invocation plus the one-time param/state placement.
SocRuntime::PartitionRun
SocRuntime::accelPartitionRun(const lower::Partition &partition,
                              const Backend &backend,
                              const WorkloadProfile &profile) const
{
    const double invocations = static_cast<double>(profile.invocations);
    PartitionRun run;
    const target::PartitionAnalysis analysis = backend.analyze(partition);
    run.part = backend.simulate(partition, analysis, profile);
    const target::DmaBreakdown &dma = analysis.dma;
    const double per_run_s = config_.perTransferUs * 1e-6;
    const double once_s =
        static_cast<double>(dma.oneTimeBytes) / (config_.dmaGBs * 1e9);
    run.transferSeconds = once_s + per_run_s * invocations;
    run.movedBytes =
        dma.oneTimeBytes +
        static_cast<int64_t>(
            static_cast<double>(dma.perRunBytes) * invocations);
    run.transferJoules = static_cast<double>(run.movedBytes) *
                         config_.dramPjPerByte * 1e-12;
    run.part.seconds += run.transferSeconds;
    run.part.joules += run.transferJoules;
    if (run.part.ledger) {
        // Keep the ledger's sums-to-totals invariant across the SoC's
        // additions. Safe to mutate: `run.part` owns the only alias of
        // this ledger until the run is copied out. The moved bytes are
        // already attributed to the backend's own dma entries, so this
        // entry carries time and energy only.
        auto &e = run.part.ledger->add("soc:dma setup+placement",
                                       target::CostPhase::Dma);
        e.seconds = run.transferSeconds;
        e.joules = run.transferJoules;
        e.bound = target::BoundClass::Memory;
    }
    return run;
}

SocRuntime::PartitionRun
SocRuntime::runPartition(const lower::Partition &partition, int index,
                         const Backend *backend,
                         const WorkloadProfile &profile,
                         const std::map<std::string, double> &host_eff,
                         const FaultModel &faults, ReliabilityReport &rel,
                         bool degraded) const
{
    PartitionRun run;
    if (!backend || degraded) {
        run.part = hostPartitionRun(partition, profile, host_eff, degraded);
        return run;
    }

    // A disabled model never fires, so the fault-free run takes this path
    // too and adds zero overhead.
    const FaultConfig &fc = faults.config();
    bool fall_back = false;
    double overhead_s = 0.0;
    double overhead_j = 0.0;
    int64_t overhead_bytes = 0;

    // One fault class's retry loop: draw attempts until the class stops
    // firing, its policy aborts, or its budget runs out (then degrade).
    // Every spent retry is charged through @p charge.
    auto retry = [&](FaultClass fault, int64_t &count, int budget,
                     auto fires, auto charge) {
        const DegradationPolicy policy = fc.policyFor(fault);
        int attempt = 0;
        for (; fires(attempt); ++attempt) {
            ++rel.faultsInjected;
            ++count;
            if (policy == DegradationPolicy::Abort) {
                run.aborted = fault;
                return;
            }
            if (policy == DegradationPolicy::HostFallback ||
                attempt >= budget) {
                fall_back = true;
                break;
            }
            charge(attempt);
            ++rel.retriesSpent;
        }
        if (attempt > 0 || fall_back) {
            rel.addEvent(FaultEvent{fault, index, partition.accel, attempt,
                                    fall_back});
        }
    };

    // Transient DMA failures: the backoff is latency the host manager
    // waits out before each retry.
    retry(FaultClass::DmaFailure, rel.dmaFaults, fc.maxDmaRetries,
          [&](int attempt) { return faults.dmaFails(index, attempt); },
          [&](int attempt) { overhead_s += faults.backoffSeconds(attempt); });
    if (run.aborted)
        return run;

    // Watchdog overruns: each re-execution repeats the whole partition
    // (compute + DMA), so the wasted runs stay in the bill even if the
    // partition ultimately degrades.
    if (!fall_back) {
        PartitionRun accel = accelPartitionRun(partition, *backend, profile);
        auto waste = [&](int) {
            overhead_s += accel.part.seconds;
            overhead_j += accel.part.joules;
            overhead_bytes += accel.movedBytes;
        };
        retry(FaultClass::WatchdogTimeout, rel.watchdogFaults,
              fc.maxReexecutions,
              [&](int attempt) {
                  return faults.watchdogFires(index, attempt);
              },
              waste);
        if (run.aborted)
            return run;
        if (fall_back)
            waste(0); // the overrun that exhausted the budget
        else
            run = std::move(accel);
    }

    if (fall_back) {
        ++rel.hostFallbacks;
        run.part = hostPartitionRun(partition, profile, host_eff,
                                    /*degraded=*/true);
    }
    run.part.seconds += overhead_s;
    run.part.joules += overhead_j;
    run.part.overheadSeconds += overhead_s;
    run.movedBytes += overhead_bytes;
    return run;
}

void
SocRuntime::finalizeTotals(SocResult &result,
                           const WorkloadProfile &profile,
                           bool any_offload) const
{
    // Host glue (marshaling, I/O): runs on the host CPU every invocation,
    // at full CPU power when the whole app is on the CPU, at a marshaling
    // share of it when kernels are offloaded.
    if (profile.hostGlueSeconds > 0) {
        const double glue_s =
            profile.hostGlueSeconds *
            static_cast<double>(profile.invocations);
        result.total.seconds += glue_s;
        result.total.joules +=
            glue_s * (any_offload ? config_.glueOffloadWatts
                                  : config_.glueCpuWatts);
    }

    // Host manager: dependency tracking + DMA initiation while running.
    const double host_j = config_.hostWatts * result.total.seconds;
    result.total.joules += host_j;
    result.transferJoules += host_j * 0.5; // manager mostly drives DMA
}

} // namespace polymath::soc
