/**
 * @file
 * StreamScheduler tests: config validation, a contended job equal to the
 * same job run alone (queueing never enters its PerfReport), the SoC
 * counters a stream feeds, byte-identical
 * reports across worker counts and reruns, the conservation invariants
 * under a chaos sweep of all three fault classes, admission-control load
 * shedding, deadline policies, per-job Abort isolation, and migration on
 * accelerator outage.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/error.h"
#include "obs/metrics.h"
#include "soc/stream.h"
#include "targets/common/backend.h"
#include "workloads/suite.h"

namespace polymath {
namespace {

using soc::ArrivalModel;
using soc::DeadlinePolicy;
using soc::DegradationPolicy;
using soc::FaultConfig;
using soc::JobOutcome;
using soc::SocRuntime;
using soc::StreamConfig;
using soc::StreamJob;
using soc::StreamReport;
using soc::StreamScheduler;

class StreamFixture : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        const auto &app = wl::tableIV().front(); // BrainStimul
        registry_ = target::standardRegistry();
        compiled_ = wl::compileBenchmark(app.source, app.buildOpts,
                                         registry_, lang::Domain::None);
        profile_ = app.profile;
        for (const auto &kernel : app.kernels)
            hostEff_[kernel.accel] = kernel.cpuEff;
    }

    StreamJob makeJob(const std::string &name) const
    {
        StreamJob job;
        job.name = name;
        job.program = &compiled_;
        job.profile = profile_;
        job.hostEff = hostEff_;
        return job;
    }

    static FaultConfig chaosConfig(uint64_t seed)
    {
        // All three fault classes at 10%, per the chaos-sweep invariant.
        FaultConfig fc;
        fc.seed = seed;
        fc.accelUnavailableRate = 0.1;
        fc.dmaFailureRate = 0.1;
        fc.watchdogRate = 0.1;
        return fc;
    }

    /** Checks the conservation invariants and that the per-job outcomes
     *  agree with the report-level tallies. */
    static void expectConserved(const StreamReport &report)
    {
        EXPECT_EQ(report.completed + report.shed + report.aborted,
                  report.admitted);
        EXPECT_EQ(report.admitted + report.rejected, report.offered);
        int64_t completed = 0, shed = 0, aborted = 0, rejected = 0;
        for (const auto &job : report.jobs) {
            switch (job.outcome) {
              case JobOutcome::Completed: ++completed; break;
              case JobOutcome::Shed: ++shed; break;
              case JobOutcome::Aborted: ++aborted; break;
              case JobOutcome::Rejected: ++rejected; break;
            }
        }
        EXPECT_EQ(completed, report.completed);
        EXPECT_EQ(shed, report.shed);
        EXPECT_EQ(aborted, report.aborted);
        EXPECT_EQ(rejected, report.rejected);
    }

    lower::AcceleratorRegistry registry_;
    lower::CompiledProgram compiled_;
    target::WorkloadProfile profile_;
    std::map<std::string, double> hostEff_;
};

// ---------------------------------------------------------------------------
// Validation.
// ---------------------------------------------------------------------------

TEST_F(StreamFixture, ConfigValidationRejectsBadFields)
{
    const SocRuntime runtime;
    StreamConfig good;
    EXPECT_NO_THROW(StreamScheduler(runtime, good));

    StreamConfig bad = good;
    bad.jobs = 0;
    EXPECT_THROW(StreamScheduler(runtime, bad), UserError);
    bad = good;
    bad.arrival = ArrivalModel::Poisson;
    bad.arrivalRate = 0.0;
    EXPECT_THROW(StreamScheduler(runtime, bad), UserError);
    bad = good;
    bad.arrival = ArrivalModel::ClosedLoop;
    bad.clients = 0;
    EXPECT_THROW(StreamScheduler(runtime, bad), UserError);
    bad = good;
    bad.thinkSeconds = -1.0;
    EXPECT_THROW(StreamScheduler(runtime, bad), UserError);
    bad = good;
    bad.maxPending = -1;
    EXPECT_THROW(StreamScheduler(runtime, bad), UserError);
    bad = good;
    bad.deadlineFactor = -2.0;
    EXPECT_THROW(StreamScheduler(runtime, bad), UserError);
    bad = good;
    bad.deadlineFactor = std::nan("");
    EXPECT_THROW(StreamScheduler(runtime, bad), UserError);
    bad = good;
    bad.deadlineSeconds = std::nan("");
    EXPECT_THROW(StreamScheduler(runtime, bad), UserError);
    bad = good;
    bad.thinkSeconds = std::nan("");
    EXPECT_THROW(StreamScheduler(runtime, bad), UserError);
    bad = good;
    bad.faults.watchdogRate = std::nan("");
    EXPECT_THROW(StreamScheduler(runtime, bad), UserError);
    bad = good;
    bad.faults.dmaFailureRate = 1.5;
    EXPECT_THROW(StreamScheduler(runtime, bad), UserError);
}

TEST_F(StreamFixture, RunRejectsEmptyAndNullTemplates)
{
    const SocRuntime runtime;
    const StreamScheduler scheduler(runtime, StreamConfig{});
    EXPECT_THROW(scheduler.run({}), UserError);
    StreamJob null_job;
    null_job.name = "null";
    EXPECT_THROW(scheduler.run({null_job}), UserError);
}

// ---------------------------------------------------------------------------
// Queueing never enters a job's PerfReport.
// ---------------------------------------------------------------------------

TEST_F(StreamFixture, ContendedJobEqualsTheSameJobRunAlone)
{
    // Three clients time-share the backends, so jobs queue behind each
    // other. Queueing and dispatch go to a job's stream latency only:
    // job i must equal execute() of the same program under job i's
    // salted fault model, counter for counter. Accelerator loss stays
    // off; its outages are shared between the jobs of a stream.
    FaultConfig faulted;
    faulted.seed = 0xfa17;
    faulted.dmaFailureRate = 0.4;
    faulted.watchdogRate = 0.4;
    for (const FaultConfig &faults : {FaultConfig{}, faulted}) {
        StreamConfig config;
        config.arrival = ArrivalModel::ClosedLoop;
        config.jobs = 8;
        config.clients = 3;
        config.faults = faults;
        const SocRuntime runtime;
        const auto report =
            StreamScheduler(runtime, config).run({makeJob("brainstimul")});
        ASSERT_EQ(report.completed, config.jobs);
        expectConserved(report);
        if (faults.anyFaults()) {
            EXPECT_GT(report.reliability.dmaFaults, 0);
            EXPECT_GT(report.reliability.watchdogFaults, 0);
            EXPECT_GT(report.reliability.hostFallbacks, 0);
        }

        bool queued = false;
        for (const auto &job : report.jobs) {
            FaultConfig fc = faults;
            fc.seed = soc::jobSeed(faults.seed,
                                   static_cast<uint64_t>(job.jobIndex));
            const SocRuntime alone(target::socConfig(), soc::FaultModel(fc));
            const auto expected =
                alone.execute(compiled_, profile_, {}, hostEff_);
            const auto &got = job.result;

            // Exact equality, not near.
            EXPECT_EQ(got.total.seconds, expected.total.seconds);
            EXPECT_EQ(got.total.joules, expected.total.joules);
            EXPECT_EQ(got.total.overheadSeconds,
                      expected.total.overheadSeconds);
            EXPECT_EQ(got.transferSeconds, expected.transferSeconds);
            EXPECT_EQ(got.transferJoules, expected.transferJoules);
            EXPECT_EQ(got.dmaBytes, expected.dmaBytes);
            ASSERT_EQ(got.partitions.size(), expected.partitions.size());
            for (size_t p = 0; p < expected.partitions.size(); ++p) {
                EXPECT_EQ(got.partitions[p].seconds,
                          expected.partitions[p].seconds);
                EXPECT_EQ(got.partitions[p].joules,
                          expected.partitions[p].joules);
                EXPECT_EQ(got.partitions[p].overheadSeconds,
                          expected.partitions[p].overheadSeconds);
                EXPECT_EQ(got.partitions[p].machine,
                          expected.partitions[p].machine);
            }

            const auto &a = got.reliability;
            const auto &b = expected.reliability;
            EXPECT_EQ(a.faultsInjected, b.faultsInjected);
            EXPECT_EQ(a.accelFaults, b.accelFaults);
            EXPECT_EQ(a.dmaFaults, b.dmaFaults);
            EXPECT_EQ(a.watchdogFaults, b.watchdogFaults);
            EXPECT_EQ(a.retriesSpent, b.retriesSpent);
            EXPECT_EQ(a.hostFallbacks, b.hostFallbacks);
            EXPECT_EQ(a.offloadAttempts, b.offloadAttempts);
            EXPECT_EQ(a.actualSeconds, b.actualSeconds);
            EXPECT_EQ(a.faultFreeSeconds, b.faultFreeSeconds);
            EXPECT_EQ(a.actualJoules, b.actualJoules);
            EXPECT_EQ(a.faultFreeJoules, b.faultFreeJoules);
            EXPECT_EQ(a.droppedEvents, b.droppedEvents);
            EXPECT_EQ(a.str(), b.str()) << "job " << job.jobIndex;

            // The stream latency carries dispatch and queueing on top.
            EXPECT_GT(job.latencySeconds, got.total.seconds);
            queued = queued || job.latencySeconds > got.total.seconds +
                                                        1e-3;
        }
        EXPECT_TRUE(queued) << "no job waited behind another";
    }
}

// ---------------------------------------------------------------------------
// Determinism across reruns.
// ---------------------------------------------------------------------------

TEST_F(StreamFixture, ReportByteIdenticalAcrossReruns)
{
    StreamConfig config;
    config.arrival = ArrivalModel::Poisson;
    config.jobs = 12;
    config.arrivalRate = 10.0;
    config.seed = 0xabc;
    config.faults = chaosConfig(0xabc);
    config.deadlineFactor = 20.0;
    config.deadlinePolicy = DeadlinePolicy::Shed;

    auto run = [&] {
        const SocRuntime runtime;
        return StreamScheduler(runtime, config).run({makeJob("brainstimul")});
    };
    const auto first = run();
    const auto again = run();

    EXPECT_EQ(first.str(), again.str());
    ASSERT_EQ(first.jobs.size(), again.jobs.size());
    for (size_t i = 0; i < first.jobs.size(); ++i) {
        EXPECT_EQ(first.jobs[i].outcome, again.jobs[i].outcome);
        EXPECT_EQ(first.jobs[i].arrivalSeconds, again.jobs[i].arrivalSeconds);
        EXPECT_EQ(first.jobs[i].latencySeconds, again.jobs[i].latencySeconds);
        EXPECT_EQ(first.jobs[i].migrations, again.jobs[i].migrations);
    }
}

// ---------------------------------------------------------------------------
// Conservation under chaos.
// ---------------------------------------------------------------------------

TEST_F(StreamFixture, ConservationHoldsUnderChaosSweep)
{
    for (const uint64_t seed : {1ull, 2ull, 3ull}) {
        for (const ArrivalModel arrival :
             {ArrivalModel::Poisson, ArrivalModel::ClosedLoop}) {
            StreamConfig config;
            config.arrival = arrival;
            config.jobs = 24;
            config.arrivalRate = 50.0;
            config.clients = 4;
            config.seed = seed;
            config.faults = chaosConfig(seed);
            config.deadlineFactor = 4.0;
            config.deadlinePolicy = DeadlinePolicy::Shed;
            config.maxPending = 8;
            const SocRuntime runtime;
            const StreamScheduler scheduler(runtime, config);
            const auto report =
                scheduler.run({makeJob("brainstimul")});
            EXPECT_EQ(report.offered, 24) << toString(arrival);
            expectConserved(report);
            EXPECT_LE(report.p50LatencySeconds,
                      report.p99LatencySeconds);
            EXPECT_LE(report.p99LatencySeconds,
                      report.p999LatencySeconds);
        }
    }
}

// ---------------------------------------------------------------------------
// Admission control.
// ---------------------------------------------------------------------------

TEST_F(StreamFixture, AdmissionBoundShedsAndAccountsRejections)
{
    StreamConfig config;
    config.arrival = ArrivalModel::ClosedLoop;
    config.jobs = 16;
    config.clients = 8;
    config.maxPending = 1;
    const SocRuntime runtime;
    const StreamScheduler scheduler(runtime, config);
    const auto report = scheduler.run({makeJob("brainstimul")});

    // Everything beyond the single admitted job arrives at t=0 (zero
    // think time) against a full queue, so it is load-shed at admission.
    EXPECT_EQ(report.offered, 16);
    EXPECT_EQ(report.admitted, 1);
    EXPECT_EQ(report.rejected, 15);
    EXPECT_EQ(report.completed, 1);
    expectConserved(report);
    for (const auto &job : report.jobs) {
        if (job.outcome != JobOutcome::Rejected)
            continue;
        // Rejected jobs never execute: no partitions, no latency.
        EXPECT_TRUE(job.result.partitions.empty());
        EXPECT_EQ(job.finishSeconds, job.arrivalSeconds);
    }
}

// ---------------------------------------------------------------------------
// Deadline policies.
// ---------------------------------------------------------------------------

TEST_F(StreamFixture, DeadlinePoliciesContinueShedAbort)
{
    StreamConfig config;
    config.arrival = ArrivalModel::ClosedLoop;
    config.jobs = 4;
    config.clients = 2;
    // Tighter than the dispatch latency, so every job crosses its
    // deadline before its first partition is placed.
    config.deadlineSeconds = 1e-9;

    const SocRuntime runtime;
    config.deadlinePolicy = DeadlinePolicy::Continue;
    const auto keep =
        StreamScheduler(runtime, config).run({makeJob("b")});
    EXPECT_EQ(keep.completed, 4);
    EXPECT_EQ(keep.deadlineMisses, 4);
    for (const auto &job : keep.jobs)
        EXPECT_TRUE(job.missedDeadline);

    config.deadlinePolicy = DeadlinePolicy::Shed;
    const auto shed =
        StreamScheduler(runtime, config).run({makeJob("b")});
    EXPECT_EQ(shed.shed, 4);
    EXPECT_EQ(shed.completed, 0);
    expectConserved(shed);

    config.deadlinePolicy = DeadlinePolicy::Abort;
    const auto abort =
        StreamScheduler(runtime, config).run({makeJob("b")});
    EXPECT_EQ(abort.aborted, 4);
    EXPECT_EQ(abort.completed, 0);
    for (const auto &job : abort.jobs)
        EXPECT_FALSE(job.error.empty());
}

// ---------------------------------------------------------------------------
// Fault isolation: Abort hits one job, the stream continues.
// ---------------------------------------------------------------------------

TEST_F(StreamFixture, AbortPolicyFaultAbortsOnlyTheAffectedJob)
{
    StreamConfig config;
    config.arrival = ArrivalModel::ClosedLoop;
    config.jobs = 12;
    config.clients = 3;
    config.seed = 0x5eed;
    config.faults.seed = 0x5eed;
    config.faults.accelUnavailableRate = 0.15;
    config.faults.accelPolicy = DegradationPolicy::Abort;
    const SocRuntime runtime;
    const StreamScheduler scheduler(runtime, config);
    const auto report = scheduler.run({makeJob("brainstimul")});

    // Per-job salted fault streams: some jobs trip the Abort, the rest
    // run to completion — a mid-stream abort never takes down the
    // scheduler or its neighbors.
    EXPECT_GT(report.aborted, 0);
    EXPECT_GT(report.completed, 0);
    expectConserved(report);
    for (const auto &job : report.jobs) {
        if (job.outcome == JobOutcome::Aborted) {
            EXPECT_NE(job.error.find("unavailable"), std::string::npos)
                << job.error;
        } else {
            EXPECT_EQ(job.outcome, JobOutcome::Completed);
            EXPECT_TRUE(job.error.empty());
        }
    }
}

// ---------------------------------------------------------------------------
// Online rescheduling on accelerator outage.
// ---------------------------------------------------------------------------

TEST_F(StreamFixture, OutageMigratesInFlightAndQueuedWork)
{
    StreamConfig config;
    config.arrival = ArrivalModel::ClosedLoop;
    config.jobs = 8;
    config.clients = 4; // queue depth behind the tripping partition
    config.seed = 0x5eed;
    config.faults.seed = 0x5eed;
    config.faults.accelUnavailableRate = 1.0; // every home draw fails
    const SocRuntime runtime;
    const StreamScheduler scheduler(runtime, config);
    const auto report = scheduler.run({makeJob("brainstimul")});

    // Every job still finishes: partitions migrate to a compatible
    // backend or degrade to the host instead of failing.
    EXPECT_EQ(report.completed, 8);
    expectConserved(report);
    EXPECT_GT(report.migrations, 0);
    EXPECT_GT(report.reliability.accelFaults, 0);
    int64_t per_job = 0;
    for (const auto &job : report.jobs)
        per_job += job.migrations;
    EXPECT_EQ(per_job, report.migrations);
}

// ---------------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------------

TEST_F(StreamFixture, StreamCountersAdvanceWithTheReport)
{
    const auto before = obs::MetricsRegistry::global().snapshot();
    StreamConfig config;
    config.arrival = ArrivalModel::ClosedLoop;
    config.jobs = 5;
    config.clients = 2;
    const SocRuntime runtime;
    const auto report =
        StreamScheduler(runtime, config).run({makeJob("b")});
    const auto after = obs::MetricsRegistry::global().snapshot();

    EXPECT_EQ(after.counter("soc.stream.offered") -
                  before.counter("soc.stream.offered"),
              report.offered);
    EXPECT_EQ(after.counter("soc.stream.completed") -
                  before.counter("soc.stream.completed"),
              report.completed);
    EXPECT_EQ(after.counter("soc.stream.runs") -
                  before.counter("soc.stream.runs"),
              1);
}

TEST_F(StreamFixture, StreamFaultsReachTheSocCounters)
{
    // A stream feeds the per-job counters execute() feeds: every
    // admitted job's faults, partitions and DMA bytes.
    const auto before = obs::MetricsRegistry::global().snapshot();
    StreamConfig config;
    config.arrival = ArrivalModel::ClosedLoop;
    config.jobs = 12;
    config.clients = 3;
    config.maxPending = 2; // some arrivals are rejected
    config.faults = FaultConfig::forRate(0.5, 0xc0de);
    const SocRuntime runtime;
    const auto report =
        StreamScheduler(runtime, config).run({makeJob("brainstimul")});
    const auto after = obs::MetricsRegistry::global().snapshot();
    const auto delta = [&](const char *name) {
        return after.counter(name) - before.counter(name);
    };

    const auto &rel = report.reliability;
    ASSERT_GT(rel.faultsInjected, 0);
    EXPECT_GT(report.rejected, 0);
    EXPECT_EQ(delta("soc.faults.injected"), rel.faultsInjected);
    EXPECT_EQ(delta("soc.faults.retries"), rel.retriesSpent);
    EXPECT_EQ(delta("soc.faults.host_fallbacks"), rel.hostFallbacks);
    EXPECT_EQ(delta("soc.faults.offload_attempts"), rel.offloadAttempts);
    int64_t partitions = 0;
    int64_t dma_bytes = 0;
    for (const auto &job : report.jobs) {
        partitions += static_cast<int64_t>(job.result.partitions.size());
        dma_bytes += job.result.dmaBytes;
    }
    EXPECT_GT(dma_bytes, 0);
    EXPECT_EQ(delta("soc.executions"), report.admitted);
    EXPECT_EQ(delta("soc.partitions"), partitions);
    EXPECT_EQ(delta("soc.dma.bytes"), dma_bytes);
}

} // namespace
} // namespace polymath
