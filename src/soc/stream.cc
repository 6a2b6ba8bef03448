#include "soc/stream.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <queue>

#include "core/error.h"
#include "core/rng.h"
#include "core/strings.h"
#include "core/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace polymath::soc {

std::string
toString(ArrivalModel model)
{
    switch (model) {
      case ArrivalModel::Poisson: return "poisson";
      case ArrivalModel::ClosedLoop: return "closed";
    }
    return "arrival";
}

std::string
toString(DeadlinePolicy policy)
{
    switch (policy) {
      case DeadlinePolicy::Continue: return "continue";
      case DeadlinePolicy::Shed: return "shed";
      case DeadlinePolicy::Abort: return "abort";
    }
    return "policy";
}

std::string
toString(JobOutcome outcome)
{
    switch (outcome) {
      case JobOutcome::Completed: return "completed";
      case JobOutcome::Shed: return "shed";
      case JobOutcome::Aborted: return "aborted";
      case JobOutcome::Rejected: return "rejected";
    }
    return "outcome";
}

void
StreamConfig::validate() const
{
    if (jobs <= 0)
        fatal(format("StreamConfig.jobs must be positive (got %d)", jobs));
    if (arrival == ArrivalModel::Poisson && !(arrivalRate > 0.0)) {
        fatal(format("StreamConfig.arrivalRate must be positive for "
                     "poisson arrivals (got %g)",
                     arrivalRate));
    }
    if (arrival == ArrivalModel::ClosedLoop && clients <= 0) {
        fatal(format("StreamConfig.clients must be positive for "
                     "closed-loop arrivals (got %d)",
                     clients));
    }
    // `!(x >= 0.0)` rather than `x < 0.0`: NaN must fail the check too.
    if (!(thinkSeconds >= 0.0)) {
        fatal(format("StreamConfig.thinkSeconds must be non-negative "
                     "(got %g)",
                     thinkSeconds));
    }
    if (maxPending < 0) {
        fatal(format("StreamConfig.maxPending must be non-negative "
                     "(got %d; 0 = SocConfig default)",
                     maxPending));
    }
    if (!(deadlineSeconds >= 0.0) || !(deadlineFactor >= 0.0))
        fatal("StreamConfig deadlines must be non-negative");
    if (workers < 0)
        fatal("StreamConfig.workers must be non-negative (0 = all cores)");
    faults.validate();
}

std::string
StreamReport::str() const
{
    std::string out = format(
        "stream: %lld offered, %lld admitted (%lld rejected), "
        "%lld completed, %lld shed, %lld aborted",
        static_cast<long long>(offered), static_cast<long long>(admitted),
        static_cast<long long>(rejected),
        static_cast<long long>(completed), static_cast<long long>(shed),
        static_cast<long long>(aborted));
    out += "\n  makespan " + formatF(makespanSeconds, 6) + " s, " +
           formatF(throughputJobsPerSecond(), 3) + " jobs/s";
    out += "\n  latency p50 " + formatF(p50LatencySeconds * 1e3, 3) +
           " ms, p99 " + formatF(p99LatencySeconds * 1e3, 3) +
           " ms, p999 " + formatF(p999LatencySeconds * 1e3, 3) + " ms";
    out += format("\n  deadline misses %lld, migrations %lld",
                  static_cast<long long>(deadlineMisses),
                  static_cast<long long>(migrations));
    out += "\n  " + reliability.str();
    return out;
}

namespace {

/** One entry waiting in (or at the head of) a resource's FIFO queue. */
struct QueueEntry
{
    int job = 0;
    bool degraded = false; ///< run the host-fallback pricing
    bool migrated = false; ///< rescheduled away from its home backend
};

/** A backend (or the host CPU) as a serially-reusable resource. */
struct Resource
{
    std::string name;
    const Backend *backend = nullptr; ///< null = host CPU
    ir::OpSet supported;              ///< backend spec's op set
    double outageUntil = 0.0;
    bool busy = false;
    /** Total virtual seconds spent serving; busySeconds / makespan is
     *  the backend's occupancy, exported as a gauge after the run. */
    double busySeconds = 0.0;
    std::deque<QueueEntry> queue;
    int64_t vtrack = 0;
};

/** A service in progress: all costs are fixed at service start. */
struct Service
{
    QueueEntry entry;
    double start = 0.0;
    SocRuntime::PartitionRun run;

    double seconds() const { return run.part.seconds; }
};

struct JobState
{
    int index = 0;
    int tmpl = 0;
    bool terminal = false;
    double arrival = 0.0;
    double deadline = 0.0; ///< absolute; 0 = none
    size_t next = 0;       ///< next partition to run
    bool anyOffload = false;
    FaultModel faults;     ///< salted per job; disabled = fault-free
    StreamJobResult out;
};

struct Event
{
    double time = 0.0;
    int64_t seq = 0;
    enum Kind : uint8_t { Arrival, Ready, Done } kind = Arrival;
    int arg = 0; ///< job (Ready) or resource (Done)
};

struct EventAfter
{
    bool operator()(const Event &a, const Event &b) const
    {
        if (a.time != b.time)
            return a.time > b.time;
        return a.seq > b.seq;
    }
};

constexpr int kHostResource = 0;

/** The whole simulation state; run() drives it. */
struct Sim
{
    const SocRuntime &rt;
    const StreamConfig &cfg;
    const std::vector<StreamJob> &templates;
    const std::vector<SocResult> &estimates;

    int maxPending = 0;
    double dispatchSeconds = 0.0;

    std::vector<Resource> resources; ///< [0] = host, then backends
    std::vector<Service> inService;  ///< indexed like resources
    std::vector<JobState> states;    ///< indexed by arrival order
    std::priority_queue<Event, std::vector<Event>, EventAfter> heap;
    int64_t nextSeq = 0;
    int offersScheduled = 0;
    int64_t pending = 0;
    int64_t dmaBytes = 0;
    StreamReport report;

    obs::TraceRecorder &recorder = obs::TraceRecorder::global();
    bool trace = false;
    int64_t adminTrack = 0;

    Sim(const SocRuntime &runtime, const StreamConfig &config,
        const std::vector<StreamJob> &tmpls,
        const std::vector<SocResult> &ests)
        : rt(runtime), cfg(config), templates(tmpls), estimates(ests)
    {
        const target::SocConfig &soc = rt.config();
        maxPending =
            cfg.maxPending > 0 ? cfg.maxPending : soc.streamMaxPending;
        dispatchSeconds = soc.streamDispatchUs * 1e-6;

        trace = recorder.enabled();
        if (trace) {
            adminTrack = recorder.newVirtualTrack();
            recorder.nameVirtualTrack(adminTrack, "stream: admission");
        }
        Resource host;
        host.name = lower::kHostAccel;
        resources.push_back(std::move(host));
        for (const auto &backend : rt.backends()) {
            Resource r;
            r.name = backend->name();
            r.backend = backend.get();
            r.supported = backend->spec().supportedOps;
            resources.push_back(std::move(r));
        }
        for (auto &r : resources) {
            if (trace) {
                r.vtrack = recorder.newVirtualTrack();
                recorder.nameVirtualTrack(r.vtrack, "stream: " + r.name);
            }
        }
        inService.resize(resources.size());
    }

    void schedule(double t, Event::Kind kind, int arg)
    {
        heap.push(Event{t, nextSeq++, kind, arg});
    }

    /** Closed loop: a terminal outcome lets the client resubmit. */
    void clientNext(double t)
    {
        if (cfg.arrival != ArrivalModel::ClosedLoop)
            return;
        if (offersScheduled >= cfg.jobs)
            return;
        ++offersScheduled;
        schedule(t + cfg.thinkSeconds, Event::Arrival, 0);
    }

    void missDeadline(JobState &job)
    {
        if (job.out.missedDeadline)
            return;
        job.out.missedDeadline = true;
        ++report.deadlineMisses;
    }

    void finishJob(JobState &job, double t, JobOutcome outcome,
                   std::string error = "")
    {
        if (job.terminal)
            panic("StreamScheduler: job finished twice");
        job.terminal = true;
        job.out.outcome = outcome;
        job.out.finishSeconds = t;
        job.out.latencySeconds = t - job.arrival;
        job.out.error = std::move(error);
        switch (outcome) {
          case JobOutcome::Completed: ++report.completed; break;
          case JobOutcome::Shed: ++report.shed; break;
          case JobOutcome::Aborted: ++report.aborted; break;
          case JobOutcome::Rejected:
            panic("StreamScheduler: rejected jobs are terminal at "
                  "admission");
        }
        --pending;
        report.makespanSeconds = std::max(report.makespanSeconds, t);
        if (trace) {
            recorder.virtualInstant(
                format("job%d %s", job.index,
                       toString(outcome).c_str()),
                "stream", adminTrack, t,
                {obs::TraceArg::num("job", job.index),
                 obs::TraceArg::str("template",
                                    templates[static_cast<size_t>(
                                                  job.tmpl)]
                                        .name)});
        }
        clientNext(t);
    }

    /** Picks the resource for the job's next partition. Prefers the home
     *  backend; during an outage the partition migrates to the first
     *  compatible accelerator (registration order) or degrades to the
     *  host. */
    std::pair<int, QueueEntry> chooseResource(JobState &job, double t)
    {
        const StreamJob &tmpl = templates[static_cast<size_t>(job.tmpl)];
        const auto &partition = tmpl.program->partitions[job.next];
        const bool offload = offloads(partition, tmpl.accelerated);
        QueueEntry entry;
        entry.job = job.index;
        int home = -1;
        for (size_t ri = 1; ri < resources.size(); ++ri) {
            if (offload && resources[ri].name == partition.accel)
                home = static_cast<int>(ri);
        }
        if (home < 0)
            return {kHostResource, entry};
        if (resources[static_cast<size_t>(home)].outageUntil <= t)
            return {home, entry};

        // Online rescheduling: the home backend is down. Any other
        // healthy backend whose spec covers the partition's source ops
        // can absorb it; otherwise the host runs the portable lowering.
        entry.migrated = true;
        ++job.out.migrations;
        ++report.migrations;
        for (size_t ri = 1; ri < resources.size(); ++ri) {
            Resource &r = resources[ri];
            if (static_cast<int>(ri) == home || r.outageUntil > t)
                continue;
            if (!r.supported.containsAll(partition.ops))
                continue;
            if (trace) {
                recorder.virtualInstant(
                    format("migrate job%d/p%zu -> %s", job.index,
                           job.next, r.name.c_str()),
                    "fault", r.vtrack, t,
                    {obs::TraceArg::num("job", job.index)});
            }
            return {static_cast<int>(ri), entry};
        }
        entry.degraded = true;
        if (job.faults.enabled())
            ++job.out.result.reliability.hostFallbacks;
        return {kHostResource, entry};
    }

    /** First placement of the job's next partition: per-partition
     *  bookkeeping mirroring SocRuntime::executeInternal, then the
     *  resource choice. */
    void placePartition(JobState &job, double t)
    {
        const StreamJob &tmpl = templates[static_cast<size_t>(job.tmpl)];
        const auto &partition = tmpl.program->partitions[job.next];
        const bool offload = offloads(partition, tmpl.accelerated);
        job.anyOffload = job.anyOffload || offload;
        if (offload && job.faults.enabled() &&
            target::findBackend(rt.backends(), partition.accel))
            ++job.out.result.reliability.offloadAttempts;

        if (job.deadline > 0.0 && t > job.deadline &&
            cfg.deadlinePolicy != DeadlinePolicy::Continue) {
            missDeadline(job);
            if (cfg.deadlinePolicy == DeadlinePolicy::Shed) {
                finishJob(job, t, JobOutcome::Shed);
            } else {
                finishJob(job, t, JobOutcome::Aborted,
                          format("job %d exceeded its deadline before "
                                 "partition %zu",
                                 job.index, job.next));
            }
            return;
        }
        auto [ri, entry] = chooseResource(job, t);
        resources[static_cast<size_t>(ri)].queue.push_back(entry);
        kick(ri, t);
    }

    /**
     * Prices one service through SocRuntime::runPartition, the same
     * pricing execute() uses. DMA backoff and watchdog re-runs are
     * virtual time: they lengthen the service and count against the
     * job's deadline. Returns false when a DegradationPolicy::Abort
     * fault fired — the job aborts, the stream continues.
     */
    bool makeService(JobState &job, const QueueEntry &entry, Resource &r,
                     double t, Service &service, std::string &error)
    {
        const StreamJob &tmpl = templates[static_cast<size_t>(job.tmpl)];
        const auto &partition = tmpl.program->partitions[job.next];
        const int p = static_cast<int>(job.next);
        service.entry = entry;
        service.start = t;
        service.run = rt.runPartition(partition, p, r.backend, tmpl.profile,
                                      tmpl.hostEff, job.faults,
                                      job.out.result.reliability,
                                      entry.degraded);
        if (service.run.aborted) {
            error = format("%s job %d partition %d (%s)",
                           service.run.abortText(), job.index, p,
                           partition.accel.c_str());
            return false;
        }
        return true;
    }

    /** Starts the next service on @p ri if it is idle. Handles the
     *  AcceleratorUnavailable draw at service start: the backend goes
     *  into a bounded outage and everything on it — the tripping
     *  partition and the queue behind it — reschedules elsewhere. */
    void kick(int ri, double t)
    {
        Resource &r = resources[static_cast<size_t>(ri)];
        while (!r.busy && !r.queue.empty()) {
            QueueEntry entry = r.queue.front();
            JobState &job = states[static_cast<size_t>(entry.job)];
            const StreamJob &tmpl =
                templates[static_cast<size_t>(job.tmpl)];
            const auto &partition = tmpl.program->partitions[job.next];
            const int p = static_cast<int>(job.next);

            // A queued job can cross its deadline before being served.
            if (job.deadline > 0.0 && t > job.deadline &&
                cfg.deadlinePolicy != DeadlinePolicy::Continue) {
                r.queue.pop_front();
                missDeadline(job);
                if (cfg.deadlinePolicy == DeadlinePolicy::Shed) {
                    finishJob(job, t, JobOutcome::Shed);
                } else {
                    finishJob(job, t, JobOutcome::Aborted,
                              format("job %d exceeded its deadline in "
                                     "the %s queue",
                                     job.index, r.name.c_str()));
                }
                continue;
            }

            // Accelerator loss is drawn once, at service start on the
            // partition's home backend (migration targets and the host
            // do not re-fail for the same partition).
            if (r.backend && !entry.migrated && !entry.degraded &&
                job.faults.acceleratorUnavailable(p)) {
                ReliabilityReport &rel = job.out.result.reliability;
                ++rel.faultsInjected;
                ++rel.accelFaults;
                r.queue.pop_front();
                if (job.faults.config().accelPolicy ==
                    DegradationPolicy::Abort) {
                    rel.addEvent(
                        FaultEvent{FaultClass::AcceleratorUnavailable, p,
                                   partition.accel, 0, false});
                    finishJob(job, t, JobOutcome::Aborted,
                              format("accelerator '%s' unavailable for "
                                     "job %d partition %d",
                                     partition.accel.c_str(), job.index,
                                     p));
                    continue;
                }
                r.outageUntil = t + rt.config().streamOutageSeconds;
                if (trace) {
                    recorder.virtualSpan(
                        "outage " + r.name, "fault", r.vtrack, t,
                        rt.config().streamOutageSeconds,
                        {obs::TraceArg::num("job", job.index),
                         obs::TraceArg::num("partition", p)});
                }
                // Reschedule the tripping partition, then drain the
                // queue behind it onto healthy resources.
                auto [nri, nentry] = chooseResource(job, t);
                rel.addEvent(FaultEvent{
                    FaultClass::AcceleratorUnavailable, p,
                    partition.accel, 0, nri == kHostResource});
                std::deque<QueueEntry> displaced;
                displaced.swap(r.queue);
                resources[static_cast<size_t>(nri)].queue.push_back(
                    nentry);
                kick(nri, t);
                for (const QueueEntry &moved : displaced) {
                    JobState &mjob =
                        states[static_cast<size_t>(moved.job)];
                    auto [mri, mentry] = chooseResource(mjob, t);
                    resources[static_cast<size_t>(mri)].queue.push_back(
                        mentry);
                    kick(mri, t);
                }
                continue;
            }

            Service service;
            std::string error;
            if (!makeService(job, entry, r, t, service, error)) {
                r.queue.pop_front();
                finishJob(job, t, JobOutcome::Aborted, std::move(error));
                continue;
            }
            r.queue.pop_front();
            r.busy = true;
            inService[static_cast<size_t>(ri)] = std::move(service);
            schedule(t + inService[static_cast<size_t>(ri)].seconds(),
                     Event::Done, ri);
        }
    }

    void onArrival(double t)
    {
        const int index = static_cast<int>(states.size());
        ++report.offered;
        states.push_back(JobState{});
        JobState &job = states.back();
        job.index = index;
        job.tmpl = index % static_cast<int>(templates.size());
        job.arrival = t;
        job.out.jobIndex = index;
        job.out.templateIndex = job.tmpl;
        job.out.arrivalSeconds = t;

        if (pending >= maxPending) {
            // Load shedding at admission: accounted, never silent.
            ++report.rejected;
            job.terminal = true;
            job.out.outcome = JobOutcome::Rejected;
            job.out.finishSeconds = t;
            report.makespanSeconds = std::max(report.makespanSeconds, t);
            if (trace) {
                recorder.virtualInstant(format("job%d rejected", index),
                                        "stream", adminTrack, t,
                                        {obs::TraceArg::num("job", index)});
            }
            clientNext(t);
            return;
        }

        ++report.admitted;
        ++pending;
        job.out.result.total.machine = "PolyMath SoC";
        if (cfg.faults.anyFaults()) {
            FaultConfig fc = cfg.faults;
            fc.seed = cfg.faults.seed ^
                      ((static_cast<uint64_t>(index) + 1) *
                       0x9e3779b97f4a7c15ull);
            job.faults = FaultModel(fc);
        }
        if (cfg.deadlineSeconds > 0.0) {
            job.deadline = t + cfg.deadlineSeconds;
        } else if (cfg.deadlineFactor > 0.0) {
            job.deadline =
                t + cfg.deadlineFactor *
                        estimates[static_cast<size_t>(job.tmpl)]
                            .total.seconds;
        }
        job.out.deadlineSeconds = job.deadline;
        if (trace) {
            recorder.virtualInstant(
                format("job%d arrives", index), "stream", adminTrack, t,
                {obs::TraceArg::num("job", index),
                 obs::TraceArg::str(
                     "template",
                     templates[static_cast<size_t>(job.tmpl)].name)});
        }
        // Admission + dispatch is queueing delay: it pushes the first
        // partition's start (and the deadline clock keeps running) but
        // never enters the job's PerfReport.
        schedule(t + dispatchSeconds, Event::Ready, index);
    }

    void onReady(int j, double t)
    {
        JobState &job = states[static_cast<size_t>(j)];
        const StreamJob &tmpl = templates[static_cast<size_t>(job.tmpl)];
        if (tmpl.program->partitions.empty()) {
            rt.finalizeTotals(job.out.result, tmpl.profile,
                              /*any_offload=*/false);
            finishJob(job, t, JobOutcome::Completed);
            return;
        }
        placePartition(job, t);
    }

    void onDone(int ri, double t)
    {
        Resource &r = resources[static_cast<size_t>(ri)];
        Service service = std::move(inService[static_cast<size_t>(ri)]);
        r.busy = false;
        r.busySeconds += service.seconds();
        JobState &job = states[static_cast<size_t>(service.entry.job)];
        const StreamJob &tmpl = templates[static_cast<size_t>(job.tmpl)];

        job.out.result.partitions.push_back(service.run.part);
        job.out.result.total += service.run.part;
        job.out.result.transferSeconds += service.run.transferSeconds;
        job.out.result.transferJoules += service.run.transferJoules;
        dmaBytes += service.run.movedBytes;
        if (trace) {
            recorder.virtualSpan(
                format("job%d/p%zu %s", job.index, job.next,
                       r.name.c_str()),
                "stream", r.vtrack, service.start, service.seconds(),
                {obs::TraceArg::num("job", job.index),
                 obs::TraceArg::num("partition",
                                    static_cast<int64_t>(job.next)),
                 obs::TraceArg::num("migrated",
                                    service.entry.migrated ? 1 : 0),
                 obs::TraceArg::num("degraded",
                                    service.entry.degraded ? 1 : 0)});
        }

        ++job.next;
        if (job.next <
            tmpl.program->partitions.size()) {
            placePartition(job, t);
        } else {
            rt.finalizeTotals(job.out.result, tmpl.profile,
                              job.anyOffload);
            if (job.faults.enabled()) {
                job.out.result.setFaultFreeBaseline(
                    estimates[static_cast<size_t>(job.tmpl)].total);
            }
            // The host glue runs after the last partition, so the job
            // leaves the system glue-time later than the partition did.
            const double glue_s =
                tmpl.profile.hostGlueSeconds *
                static_cast<double>(tmpl.profile.invocations);
            const double done = t + glue_s;
            if (job.deadline > 0.0 && done > job.deadline) {
                missDeadline(job);
                if (cfg.deadlinePolicy == DeadlinePolicy::Shed) {
                    finishJob(job, done, JobOutcome::Shed);
                } else if (cfg.deadlinePolicy == DeadlinePolicy::Abort) {
                    finishJob(job, done, JobOutcome::Aborted,
                              format("job %d finished past its deadline",
                                     job.index));
                } else {
                    finishJob(job, done, JobOutcome::Completed);
                }
            } else {
                finishJob(job, done, JobOutcome::Completed);
            }
        }
        kick(ri, t);
    }

    StreamReport run()
    {
        if (cfg.arrival == ArrivalModel::Poisson) {
            Rng rng(cfg.seed);
            double t = 0.0;
            for (int i = 0; i < cfg.jobs; ++i) {
                t += -std::log(1.0 - rng.uniform()) / cfg.arrivalRate;
                schedule(t, Event::Arrival, 0);
            }
            offersScheduled = cfg.jobs;
        } else {
            const int initial = std::min(cfg.clients, cfg.jobs);
            for (int i = 0; i < initial; ++i)
                schedule(0.0, Event::Arrival, 0);
            offersScheduled = initial;
        }

        while (!heap.empty()) {
            const Event ev = heap.top();
            heap.pop();
            switch (ev.kind) {
              case Event::Arrival: onArrival(ev.time); break;
              case Event::Ready: onReady(ev.arg, ev.time); break;
              case Event::Done: onDone(ev.arg, ev.time); break;
            }
        }
        if (pending != 0)
            panic("StreamScheduler: stream drained with jobs in flight");

        // Bounded-error percentiles from a log-linear histogram of
        // whole microseconds: O(1) memory regardless of stream length,
        // no sort barrier, deterministic at any -jN (observe order
        // cannot change a bucket count), < 0.4% relative error.
        obs::LatencyHistogram latency_hist;
        for (JobState &job : states) {
            if (!job.terminal)
                panic("StreamScheduler: job never reached a terminal "
                      "state");
            if (job.out.outcome == JobOutcome::Completed)
                latency_hist.observe(static_cast<int64_t>(
                    std::llround(job.out.latencySeconds * 1e6)));
            report.reliability += job.out.result.reliability;
            report.jobs.push_back(std::move(job.out));
        }
        report.p50LatencySeconds = latency_hist.quantile(0.50) / 1e6;
        report.p99LatencySeconds = latency_hist.quantile(0.99) / 1e6;
        report.p999LatencySeconds = latency_hist.quantile(0.999) / 1e6;

        // Conservation: every offered job is exactly one of completed,
        // shed, aborted, or rejected — nothing is silently dropped.
        if (report.completed + report.shed + report.aborted !=
            report.admitted) {
            panic("StreamScheduler: completed + shed + aborted != "
                  "admitted");
        }
        if (report.admitted + report.rejected != report.offered)
            panic("StreamScheduler: admitted + rejected != offered");

        auto &metrics = obs::MetricsRegistry::global();
        metrics.counter("soc.stream.runs").add(1);
        metrics.counter("soc.stream.offered").add(report.offered);
        metrics.counter("soc.stream.admitted").add(report.admitted);
        metrics.counter("soc.stream.rejected").add(report.rejected);
        metrics.counter("soc.stream.completed").add(report.completed);
        metrics.counter("soc.stream.shed").add(report.shed);
        metrics.counter("soc.stream.aborted").add(report.aborted);
        metrics.counter("soc.stream.migrations").add(report.migrations);
        metrics.counter("soc.stream.deadline_misses")
            .add(report.deadlineMisses);
        metrics.counter("soc.stream.dma.bytes").add(dmaBytes);
        // Per-backend occupancy over the run's virtual-time makespan:
        // last-run gauges the service's metrics verb exports alongside
        // its sliding-window rates.
        for (const Resource &r : resources) {
            const double occupancy =
                report.makespanSeconds > 0.0
                    ? r.busySeconds / report.makespanSeconds
                    : 0.0;
            metrics.gauge("soc.stream.occupancy." + r.name)
                .set(occupancy);
        }
        return std::move(report);
    }
};

} // namespace

StreamScheduler::StreamScheduler(const SocRuntime &runtime,
                                 StreamConfig config)
    : runtime_(&runtime), config_(std::move(config))
{
    config_.validate();
}

StreamReport
StreamScheduler::run(const std::vector<StreamJob> &templates) const
{
    if (templates.empty())
        fatal("StreamScheduler::run: no job templates");
    for (const StreamJob &tmpl : templates) {
        if (!tmpl.program)
            fatal("StreamScheduler::run: template '" + tmpl.name +
                  "' has no compiled program");
    }
    obs::Span span("soc:stream", "soc");
    if (span.active()) {
        span.arg("jobs", static_cast<int64_t>(config_.jobs));
        span.arg("arrival", toString(config_.arrival));
        span.arg("templates", static_cast<int64_t>(templates.size()));
    }

    // Fault-free per-template estimates feed deadlines and per-job
    // overhead attribution. parallelMap is index-ordered, so the report
    // is byte-identical at any worker count; the event loop itself is
    // strictly serial.
    const std::vector<SocResult> estimates = core::parallelMap(
        config_.workers, static_cast<int64_t>(templates.size()),
        [&](int64_t i) {
            const StreamJob &tmpl = templates[static_cast<size_t>(i)];
            return runtime_->estimate(*tmpl.program, tmpl.profile,
                                      tmpl.accelerated, tmpl.hostEff);
        });

    Sim sim(*runtime_, config_, templates, estimates);
    return sim.run();
}

} // namespace polymath::soc
