/**
 * @file
 * Streaming SoC orchestrator (docs/RESILIENCE.md, "Online rescheduling
 * & load shedding").
 *
 * Real deployments run the SoC as a service, with jobs arriving
 * continuously and the host manager time-sharing the six accelerators
 * between them. StreamScheduler offers such a stream to the SoC's one
 * event engine (stream.cc; SocRuntime::execute offers it a single job):
 * compiled jobs arrive under an open-loop (Poisson) or closed-loop arrival
 * model, an admission controller bounds the number of jobs in the system
 * (arrivals beyond the bound are load-shed with full accounting), and the
 * host CPU and each backend serve their partition queues FIFO. Every
 * service is priced by SocRuntime::runPartition; an AcceleratorUnavailable
 * draw takes its backend down for a bounded window of virtual time, and
 * the partitions on it migrate to a compatible accelerator or degrade to
 * the host CPU.
 *
 * Everything is deterministic: arrivals come from one seeded Rng, fault
 * draws are stateless per-job salted hashes (jobSeed), and the event loop
 * is strict serial with (time, sequence) ordering — the same seed and
 * config reproduce the same StreamReport byte-for-byte at any worker
 * count. Queueing and dispatch delay are charged to a job's *stream
 * latency* only, never to its PerfReport.
 */
#ifndef POLYMATH_SOC_STREAM_H_
#define POLYMATH_SOC_STREAM_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "soc/soc.h"

namespace polymath::soc {

/** How jobs arrive at the SoC. */
enum class ArrivalModel : uint8_t {
    /** Open loop: Poisson process at StreamConfig::arrivalRate jobs/s,
     *  independent of completions (models external request traffic). */
    Poisson,
    /** Closed loop: StreamConfig::clients concurrent clients, each
     *  resubmitting thinkSeconds after its previous job finishes. */
    ClosedLoop,
};

std::string toString(ArrivalModel model);

/** What happens to a job that runs past its deadline. */
enum class DeadlinePolicy : uint8_t {
    Continue, ///< finish anyway; the miss is only counted
    Shed,     ///< stop working on it (the client has gone away)
    Abort,    ///< treat as a per-job failure
};

std::string toString(DeadlinePolicy policy);

/** Streaming-run parameters. */
struct StreamConfig
{
    ArrivalModel arrival = ArrivalModel::ClosedLoop;

    /** Total jobs offered to the stream. */
    int jobs = 64;

    /** Poisson arrival rate in jobs/second. */
    double arrivalRate = 100.0;

    /** Closed-loop client count and per-client think time. */
    int clients = 4;
    double thinkSeconds = 0.0;

    /** Seeds the arrival process; also the base of each job's fault
     *  salt, so two streams with the same seed see the same faults. */
    uint64_t seed = 0x5eed;

    /** Fault injection for the whole stream (all-zero rates = off). */
    FaultConfig faults;

    /** Admission bound override; 0 uses SocConfig::streamMaxPending. */
    int maxPending = 0;

    /** Per-job deadline: explicit seconds after arrival when positive;
     *  otherwise deadlineFactor times the job's fault-free estimate
     *  (0 for both = no deadlines). */
    double deadlineSeconds = 0.0;
    double deadlineFactor = 0.0;
    DeadlinePolicy deadlinePolicy = DeadlinePolicy::Continue;

    /** @throws UserError on non-positive jobs, bad rates/counts, or a
     *  FaultConfig that fails its own validate(). */
    void validate() const;
};

/** One job template: a compiled program plus its execution context.
 *  Streams cycle over the template list round-robin (job i runs
 *  template i mod N). */
struct StreamJob
{
    std::string name;
    const lower::CompiledProgram *program = nullptr;
    WorkloadProfile profile;
    std::set<std::string> accelerated;      ///< empty = everything
    std::map<std::string, double> hostEff;  ///< per-accel cpuEff overlay
};

/** Terminal state of one offered job. */
enum class JobOutcome : uint8_t {
    Completed,
    Shed,     ///< deadline-shed mid-stream or at completion
    Aborted,  ///< fault or deadline policy Abort (this job only)
    Rejected, ///< load-shed at admission (queue full)
};

std::string toString(JobOutcome outcome);

/** Per-job rollup, indexed by arrival order. */
struct StreamJobResult
{
    int jobIndex = 0;
    int templateIndex = 0;
    JobOutcome outcome = JobOutcome::Completed;

    double arrivalSeconds = 0.0;
    double finishSeconds = 0.0; ///< completion / shed / abort instant

    /** finish - arrival; includes queueing + dispatch + service. */
    double latencySeconds = 0.0;

    /** Absolute deadline instant; 0 when the job had none. */
    double deadlineSeconds = 0.0;
    bool missedDeadline = false;

    /** Partitions rescheduled away from their home backend. */
    int64_t migrations = 0;

    /** Execution accounting (partial for shed/aborted jobs; empty for
     *  rejected ones). Without accelerator loss, bit-identical to
     *  SocRuntime::execute under the job's salted fault model. */
    SocResult result;

    /** Abort reason when outcome == Aborted. */
    std::string error;
};

/** Stream-level rollup. */
struct StreamReport
{
    int64_t offered = 0;
    int64_t admitted = 0;
    int64_t rejected = 0;  ///< load-shed at admission
    int64_t completed = 0;
    int64_t shed = 0;      ///< deadline-shed after admission
    int64_t aborted = 0;
    int64_t deadlineMisses = 0;
    int64_t migrations = 0;

    /** Virtual time when the last job left the system. */
    double makespanSeconds = 0.0;

    /** Completed-job latency percentiles in seconds, from an
     *  obs::LatencyHistogram over whole microseconds — bounded-error
     *  (< 0.4% relative) nearest-rank quantiles, O(1) memory at any
     *  stream length. */
    double p50LatencySeconds = 0.0;
    double p99LatencySeconds = 0.0;
    double p999LatencySeconds = 0.0;

    /** Sum of per-job reliability reports (availability etc.). */
    ReliabilityReport reliability;

    std::vector<StreamJobResult> jobs;

    double throughputJobsPerSecond() const
    {
        return makespanSeconds > 0.0
                   ? static_cast<double>(completed) / makespanSeconds
                   : 0.0;
    }

    std::string str() const;
};

/**
 * Event-driven virtual-time scheduler over a SocRuntime's backends.
 *
 * run() admits StreamConfig::jobs jobs cycling over @p templates,
 * time-shares the backends between concurrent jobs (partitions within a
 * job stay sequential; different jobs overlap), reschedules around
 * injected faults, enforces deadlines and the admission bound, and
 * returns the full accounting. The conservation invariants
 *
 *     completed + shed + aborted == admitted
 *     admitted + rejected == offered
 *
 * are enforced in-code (panic on violation) — no job is ever silently
 * dropped.
 */
class StreamScheduler
{
  public:
    /** @p runtime must outlive the scheduler.
     *  @throws UserError when @p config fails validate(). */
    StreamScheduler(const SocRuntime &runtime, StreamConfig config);

    const StreamConfig &config() const { return config_; }

    /** @throws UserError on an empty or null-program template list. */
    StreamReport run(const std::vector<StreamJob> &templates) const;

  private:
    const SocRuntime *runtime_;
    StreamConfig config_;
};

} // namespace polymath::soc

#endif // POLYMATH_SOC_STREAM_H_
