/**
 * @file
 * SoC fault injection and graceful degradation (docs/RESILIENCE.md).
 *
 * Real heterogeneous platforms lose accelerators, drop DMA transfers, and
 * hit partition watchdogs; the paper's multi-acceleration story assumes
 * none of that ever happens. The FaultModel injects three fault classes
 * into the SoC's jobs deterministically (stateless seeded draws, so a
 * given seed always produces the same fault pattern), and a per-class
 * DegradationPolicy decides whether the host manager retries, transparently
 * reruns the partition on the host CPU, or fail-stops. The resulting
 * ReliabilityReport quantifies availability and the latency/energy overhead
 * versus the fault-free execution.
 */
#ifndef POLYMATH_SOC_FAULT_H_
#define POLYMATH_SOC_FAULT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace polymath::soc {

/** Fault classes the SoC fault model can inject. */
enum class FaultClass : uint8_t {
    /** Permanent for the run: the partition's accelerator is down. */
    AcceleratorUnavailable,
    /** Transient: one DMA transfer attempt fails. */
    DmaFailure,
    /** The partition overran its watchdog and must be re-executed. */
    WatchdogTimeout,
};

std::string toString(FaultClass fault);

/** What the host manager does when a fault class fires. */
enum class DegradationPolicy : uint8_t {
    /** Retry up to the configured budget, then rerun on the host CPU. */
    RetryThenHostFallback,
    /** Immediately rerun the partition on the host CPU. */
    HostFallback,
    /** Fail-stop: propagate a UserError. */
    Abort,
};

std::string toString(DegradationPolicy policy);

/** Fault distribution and per-class responses. */
struct FaultConfig
{
    uint64_t seed = 0x5eed;

    /** Per-partition probability its accelerator is down for the run. */
    double accelUnavailableRate = 0.0;
    /** Per-attempt probability a partition's DMA bundle fails. */
    double dmaFailureRate = 0.0;
    /** Per-attempt probability a partition execution trips the watchdog. */
    double watchdogRate = 0.0;

    /** DMA retry budget per partition (beyond the first attempt). */
    int maxDmaRetries = 3;
    /** Latency of the first DMA retry; doubles with each further retry. */
    double dmaRetryBackoffUs = 50.0;
    /** Ceiling on one retry's backoff latency: the exponential series
     *  clamps here instead of growing without bound (large retry budgets
     *  used to overflow 2^attempt into absurd virtual latencies). */
    double maxBackoffUs = 10000.0;
    /** Watchdog re-execution budget before degrading. */
    int maxReexecutions = 2;

    DegradationPolicy accelPolicy = DegradationPolicy::HostFallback;
    DegradationPolicy dmaPolicy = DegradationPolicy::RetryThenHostFallback;
    DegradationPolicy watchdogPolicy =
        DegradationPolicy::RetryThenHostFallback;

    DegradationPolicy policyFor(FaultClass fault) const;

    /** What `--fault-rate r` means everywhere: DMA failures at @p rate,
     *  watchdog timeouts at rate/2 and accelerator loss at rate/5, drawn
     *  from @p seed. */
    static FaultConfig forRate(double rate, uint64_t seed);

    bool anyFaults() const
    {
        return accelUnavailableRate > 0.0 || dmaFailureRate > 0.0 ||
               watchdogRate > 0.0;
    }

    /** @throws UserError on rates outside [0, 1] or negative budgets. */
    void validate() const;
};

/** The fault seed of job @p index of a stream (or workload @p index of
 *  a sweep). Draws are keyed by partition, class and attempt only, so
 *  without this salt every job would fault in lockstep. */
uint64_t jobSeed(uint64_t seed, uint64_t index);

/** One injected fault and how the runtime responded. */
struct FaultEvent
{
    FaultClass fault = FaultClass::DmaFailure;
    int partition = 0;
    std::string accel;
    int retries = 0;       ///< retries / re-executions spent on this event
    bool fellBack = false; ///< the partition ended up on the host CPU

    std::string str() const;
};

/** Reliability accounting attached to SocResult. */
struct ReliabilityReport
{
    /** Event-log bound: a long stream would otherwise accumulate events
     *  without limit. addEvent() keeps the first kMaxEvents and counts
     *  the rest in droppedEvents so str() stays honest. */
    static constexpr size_t kMaxEvents = 256;

    int64_t faultsInjected = 0;
    int64_t accelFaults = 0;
    int64_t dmaFaults = 0;
    int64_t watchdogFaults = 0;

    /** DMA retries plus watchdog re-executions actually spent. */
    int64_t retriesSpent = 0;
    /** Partitions that degraded from their accelerator to the host. */
    int64_t hostFallbacks = 0;
    /** Partitions that wanted (and had) an accelerator. */
    int64_t offloadAttempts = 0;

    double actualSeconds = 0.0;    ///< faulty end-to-end runtime
    double faultFreeSeconds = 0.0; ///< same execution with no faults
    double actualJoules = 0.0;
    double faultFreeJoules = 0.0;

    std::vector<FaultEvent> events;

    /** Events addEvent() refused to append once kMaxEvents was hit. */
    int64_t droppedEvents = 0;

    /** Appends @p event, honoring the kMaxEvents bound. */
    void addEvent(FaultEvent event);

    /** Accumulates another report (stream-level rollups): counters and
     *  the actual/fault-free totals sum; events merge under the same
     *  kMaxEvents bound. */
    ReliabilityReport &operator+=(const ReliabilityReport &other);

    /** Fraction of offload attempts that completed on their accelerator. */
    double availability() const;

    /** End-to-end slowdown versus the fault-free execution. */
    double slowdown() const;

    /** Energy overhead versus the fault-free execution (ratio). */
    double energyOverhead() const;

    std::string str() const;
};

/**
 * Deterministic, seeded fault source. Every draw is a stateless hash of
 * (seed, partition, fault class, attempt), so the fault pattern does not
 * depend on query order and the same seed reproduces the same
 * ReliabilityReport bit-for-bit across runs.
 */
class FaultModel
{
  public:
    FaultModel() = default;

    /** @throws UserError when @p config fails validate(). */
    explicit FaultModel(FaultConfig config);

    const FaultConfig &config() const { return config_; }
    bool enabled() const { return config_.anyFaults(); }

    bool acceleratorUnavailable(int partition) const;
    bool dmaFails(int partition, int attempt) const;
    bool watchdogFires(int partition, int attempt) const;

    /** Backoff latency charged for the @p attempt-th DMA retry
     *  (exponential: dmaRetryBackoffUs * 2^attempt). */
    double backoffSeconds(int attempt) const;

  private:
    double draw(int partition, FaultClass fault, int attempt) const;

    FaultConfig config_;
};

} // namespace polymath::soc

#endif // POLYMATH_SOC_FAULT_H_
