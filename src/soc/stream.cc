#include "soc/stream.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <list>
#include <queue>
#include <span>
#include <string_view>

#include "core/error.h"
#include "core/rng.h"
#include "core/strings.h"
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

/** Whether @p partition runs on its accelerator when the kernels named in
 *  @p accelerated are offloaded (an empty set offloads everything). */
bool
offloads(const lower::Partition &partition,
         const std::set<std::string> &accelerated)
{
    return accelerated.empty() || accelerated.count(partition.accel) > 0;
}

/** One job template as the engine reads it. Views, so a one-job run
 *  copies none of execute()'s arguments. */
struct JobSpec
{
    std::string_view name;
    const lower::CompiledProgram *program = nullptr;
    const WorkloadProfile *profile = nullptr;
    const std::set<std::string> *accelerated = nullptr;
    const std::map<std::string, double> *hostEff = nullptr;
};

/** One entry waiting in (or at the head of) a resource's FIFO queue. */
struct QueueEntry
{
    int job = 0;
    bool degraded = false; ///< run the host-fallback pricing
    bool migrated = false; ///< rescheduled away from its home backend
};

/** A service in progress: all costs are fixed at service start. */
struct Service
{
    QueueEntry entry;
    int resource = 0;
    double start = 0.0;
    SocRuntime::PartitionRun run;

    double seconds() const { return run.part.seconds; }
};

/** Resource slot of the host CPU; slot k >= 1 is the runtime's backend
 *  k-1. */
constexpr int kHostResource = 0;

/** A backend (or the host CPU) as a serially-reusable resource. */
struct Resource
{
    int slot = kHostResource;
    /** lower::kHostAccel or the backend's name, owned by the backend. */
    const char *name = lower::kHostAccel;
    const Backend *backend = nullptr; ///< null = host CPU
    double outageUntil = 0.0;
    bool busy = false;
    /** Total virtual seconds spent serving; busySeconds / makespan is
     *  the backend's occupancy, exported as a gauge after a stream. */
    double busySeconds = 0.0;
    /** A list, not a deque: an idle resource allocates nothing. */
    std::list<QueueEntry> queue;
    int64_t vtrack = -1; ///< virtual track, made on first use
};

struct JobState
{
    int index = 0;
    int tmpl = 0;
    bool terminal = false;
    size_t next = 0; ///< next partition to run
    bool anyOffload = false;
    FaultModel faults; ///< disabled = fault-free
    /** The job's partition in service; a job runs one at a time. */
    Service service;
    StreamJobResult out;
};

/** Ordered by (time, seq); seq is unique, so the order is total. */
struct Event
{
    double time = 0.0;
    int64_t seq = 0;
    enum Kind : uint8_t { Arrival, Ready, Done } kind = Arrival;
    int arg = 0; ///< the job (Ready, Done)

    auto operator<=>(const Event &) const = default;
};

/**
 * The SoC's one execution engine: jobs arrive over virtual time, each
 * job's partitions run in order, and the host CPU and every backend
 * serve their partition queues FIFO. execute() and estimate() run it
 * with one job arriving at t=0; StreamScheduler::run() with a stream,
 * and rolls its jobs up afterwards.
 */
struct Engine
{
    const SocRuntime &rt;
    const StreamConfig &cfg;
    std::span<const JobSpec> templates;
    /** Fault-free result per template; empty unless a deadline factor
     *  or a fault model needs them. */
    std::span<const SocResult> estimates;
    /** Non-null: every job draws from this model unsalted (execute()).
     *  Null: job i draws from cfg.faults salted by jobSeed(). */
    const FaultModel *sharedFaults = nullptr;

    int maxPending = 0;
    double dispatchSeconds = 0.0;

    /** The resources the run has used, built on first use (resource()):
     *  a one-job run builds only those its partitions touch. */
    std::vector<Resource> resources;
    int slots = 0; ///< the host and the runtime's backends
    std::vector<JobState> states;    ///< indexed by arrival order
    std::priority_queue<Event, std::vector<Event>, std::greater<>> heap;
    int64_t nextSeq = 0;
    int offersScheduled = 0;
    int64_t pending = 0;
    /** The stream's tallies; its jobs and percentiles are the rollup's. */
    StreamReport report;

    obs::TraceRecorder &recorder = obs::TraceRecorder::global();
    bool trace = false;
    int64_t adminTrack = -1;

    Engine(const SocRuntime &runtime, const StreamConfig &config,
           std::span<const JobSpec> tmpls, std::span<const SocResult> ests,
           const FaultModel *shared, bool timeline)
        : rt(runtime), cfg(config), templates(tmpls), estimates(ests),
          sharedFaults(shared)
    {
        const target::SocConfig &soc = rt.config();
        maxPending =
            cfg.maxPending > 0 ? cfg.maxPending : soc.streamMaxPending;
        dispatchSeconds = soc.streamDispatchUs * 1e-6;
        trace = timeline && recorder.enabled();

        slots = static_cast<int>(rt.backends().size()) + 1;
        // Never reallocated: a reference to a resource stays valid while
        // another is built.
        resources.reserve(static_cast<size_t>(slots));
    }

    /** Slot @p ri's resource if the run has built it, else null. */
    const Resource *built(int ri) const
    {
        for (const Resource &r : resources) {
            if (r.slot == ri)
                return &r;
        }
        return nullptr;
    }

    /** lower::kHostAccel or the name of slot @p ri's backend. */
    const char *slotName(int ri) const
    {
        return ri == kHostResource
                   ? lower::kHostAccel
                   : rt.backends()[static_cast<size_t>(ri - 1)]
                         ->name()
                         .c_str();
    }

    /** Slot @p ri's resource, built on first use. */
    Resource &resource(int ri)
    {
        for (Resource &r : resources) {
            if (r.slot == ri)
                return r;
        }
        Resource &r = resources.emplace_back();
        r.slot = ri;
        r.name = slotName(ri);
        if (ri != kHostResource)
            r.backend = rt.backends()[static_cast<size_t>(ri - 1)];
        return r;
    }

    /** End of slot @p ri's outage; a resource not built has had none. */
    double outageUntil(int ri) const
    {
        const Resource *r = built(ri);
        return r ? r->outageUntil : 0.0;
    }

    /** Virtual track of @p r, named on first use so a trace holds
     *  tracks only for the resources a run used. */
    int64_t track(Resource &r)
    {
        if (r.vtrack < 0) {
            r.vtrack = recorder.newVirtualTrack();
            recorder.nameVirtualTrack(r.vtrack,
                                      std::string("soc: ") + r.name);
        }
        return r.vtrack;
    }

    void admissionInstant(std::string name, double t, const JobState &job)
    {
        if (adminTrack < 0) {
            adminTrack = recorder.newVirtualTrack();
            recorder.nameVirtualTrack(adminTrack, "soc: admission");
        }
        recorder.virtualInstant(
            std::move(name), "stream", adminTrack, t,
            {obs::TraceArg::num("job", job.index),
             obs::TraceArg::str("template",
                                std::string(specOf(job).name))});
    }

    /** Marks the fault events @p rel logged since @p from on @p r's
     *  track at @p t. */
    void faultInstants(Resource &r, const ReliabilityReport &rel,
                       size_t from, double t)
    {
        for (size_t ei = from; ei < rel.events.size(); ++ei) {
            const FaultEvent &ev = rel.events[ei];
            recorder.virtualInstant(
                "fault:" + toString(ev.fault), "fault", track(r), t,
                {obs::TraceArg::num("partition", ev.partition),
                 obs::TraceArg::str("accel", ev.accel),
                 obs::TraceArg::num("retries", ev.retries),
                 obs::TraceArg::num("fell_back", ev.fellBack ? 1 : 0)});
        }
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
            panic("SoC engine: job finished twice");
        job.terminal = true;
        job.out.outcome = outcome;
        job.out.finishSeconds = t;
        job.out.latencySeconds = t - job.out.arrivalSeconds;
        job.out.error = std::move(error);
        switch (outcome) {
          case JobOutcome::Completed: ++report.completed; break;
          case JobOutcome::Shed: ++report.shed; break;
          case JobOutcome::Aborted: ++report.aborted; break;
          case JobOutcome::Rejected:
            panic("SoC engine: rejected jobs are terminal at admission");
        }
        --pending;
        report.makespanSeconds = std::max(report.makespanSeconds, t);
        if (trace) {
            admissionInstant(format("job%d %s", job.index,
                                    toString(outcome).c_str()),
                             t, job);
        }
        clientNext(t);
    }

    /** Applies a non-Continue deadline policy to a job past its
     *  deadline; false when the job goes on. @p where names the spot
     *  for the abort message. */
    template <typename Where>
    bool enforceDeadline(JobState &job, double t, Where where)
    {
        const double deadline = job.out.deadlineSeconds;
        if (deadline <= 0.0 || t <= deadline ||
            cfg.deadlinePolicy == DeadlinePolicy::Continue)
            return false;
        missDeadline(job);
        if (cfg.deadlinePolicy == DeadlinePolicy::Shed) {
            finishJob(job, t, JobOutcome::Shed);
        } else {
            finishJob(job, t, JobOutcome::Aborted,
                      format("job %d exceeded its deadline %s", job.index,
                             where().c_str()));
        }
        return true;
    }

    const JobSpec &specOf(const JobState &job) const
    {
        return templates[static_cast<size_t>(job.tmpl)];
    }

    /** Resource index of the backend that @p partition offloads to, or
     *  -1 when it runs on the host by choice or has no backend. */
    int homeOf(const lower::Partition &partition, bool offload) const
    {
        if (offload) {
            const auto backends = rt.backends();
            for (size_t k = 0; k < backends.size(); ++k) {
                if (backends[k]->name() == partition.accel)
                    return static_cast<int>(k) + 1;
            }
        }
        return -1;
    }

    /** Picks the resource for the job's next partition. Prefers the home
     *  backend; during an outage the partition migrates to the first
     *  compatible accelerator (registration order) or degrades to the
     *  host. */
    std::pair<int, QueueEntry> chooseResource(JobState &job, double t)
    {
        const JobSpec &spec = specOf(job);
        const auto &partition = spec.program->partitions[job.next];
        QueueEntry entry;
        entry.job = job.index;
        const int home = homeOf(partition,
                                offloads(partition, *spec.accelerated));
        if (home < 0)
            return {kHostResource, entry};
        if (outageUntil(home) <= t)
            return {home, entry};

        // Online rescheduling: the home backend is down. Any other
        // healthy backend whose spec covers the partition's source ops
        // can absorb it; otherwise the host runs the portable lowering.
        entry.migrated = true;
        ++job.out.migrations;
        ++report.migrations;
        for (int ri = 1; ri < slots; ++ri) {
            // Specs are built here, not per run: only a migration
            // reads them.
            if (ri == home || outageUntil(ri) > t ||
                !rt.backends()[static_cast<size_t>(ri - 1)]
                     ->spec()
                     .supportedOps.containsAll(partition.ops))
                continue;
            if (trace) {
                Resource &r = resource(ri);
                recorder.virtualInstant(
                    format("migrate job%d/p%zu -> %s", job.index,
                           job.next, r.name),
                    "fault", track(r), t,
                    {obs::TraceArg::num("job", job.index)});
            }
            return {ri, entry};
        }
        entry.degraded = true;
        if (job.faults.enabled())
            ++job.out.result.reliability.hostFallbacks;
        return {kHostResource, entry};
    }

    void enqueue(JobState &job, double t)
    {
        auto [ri, entry] = chooseResource(job, t);
        resource(ri).queue.push_back(entry);
        kick(ri, t);
    }

    /** First placement of the job's next partition: the offload
     *  bookkeeping, the deadline check, then the resource choice. */
    void placePartition(JobState &job, double t)
    {
        const JobSpec &spec = specOf(job);
        const auto &partition = spec.program->partitions[job.next];
        const bool offload = offloads(partition, *spec.accelerated);
        job.anyOffload = job.anyOffload || offload;
        if (job.faults.enabled() && homeOf(partition, offload) >= 0)
            ++job.out.result.reliability.offloadAttempts;
        if (!enforceDeadline(job, t, [&] {
                return format("before partition %zu", job.next);
            }))
            enqueue(job, t);
    }

    /**
     * Starts the next service on @p ri while it is idle. Prices each
     * service through SocRuntime::runPartition: DMA backoff and watchdog
     * re-runs lengthen the service and count against the job's
     * deadline; a DegradationPolicy::Abort fault aborts the job only.
     * Accelerator loss is drawn at service start on the partition's home
     * backend: the backend goes into a bounded outage and everything on
     * it, the tripping partition and the queue behind it, reschedules.
     */
    void kick(int ri, double t)
    {
        Resource &r = resource(ri);
        while (!r.busy && !r.queue.empty()) {
            const QueueEntry entry = r.queue.front();
            r.queue.pop_front();
            JobState &job = states[static_cast<size_t>(entry.job)];
            const JobSpec &spec = specOf(job);
            const auto &partition = spec.program->partitions[job.next];
            const int p = static_cast<int>(job.next);
            ReliabilityReport &rel = job.out.result.reliability;

            // A queued job can cross its deadline before being served.
            if (enforceDeadline(job, t, [&] {
                    return format("in the %s queue", r.name);
                }))
                continue;

            // Migration targets and the host do not re-draw the loss
            // for the same partition.
            if (r.backend && !entry.migrated && !entry.degraded &&
                job.faults.acceleratorUnavailable(p)) {
                ++rel.faultsInjected;
                ++rel.accelFaults;
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
                const size_t events_before = rel.events.size();
                auto [nri, nentry] = chooseResource(job, t);
                rel.addEvent(FaultEvent{
                    FaultClass::AcceleratorUnavailable, p,
                    partition.accel, 0, nri == kHostResource});
                if (trace) {
                    recorder.virtualSpan(
                        std::string("outage ") + r.name, "fault",
                        track(r), t,
                        rt.config().streamOutageSeconds,
                        {obs::TraceArg::num("job", job.index),
                         obs::TraceArg::num("partition", p)});
                    faultInstants(r, rel, events_before, t);
                }
                // Reschedule the tripping partition, then drain the
                // queue behind it onto healthy resources.
                std::list<QueueEntry> displaced;
                displaced.swap(r.queue);
                resource(nri).queue.push_back(nentry);
                kick(nri, t);
                for (const QueueEntry &moved : displaced)
                    enqueue(states[static_cast<size_t>(moved.job)], t);
                continue;
            }

            Service &service = job.service;
            const size_t events_before = rel.events.size();
            service.entry = entry;
            service.resource = ri;
            service.start = t;
            service.run = rt.runPartition(partition, p, r.backend,
                                          *spec.profile, *spec.hostEff,
                                          job.faults, rel, entry.degraded);
            if (trace)
                faultInstants(r, rel, events_before, t);
            if (service.run.aborted) {
                finishJob(job, t, JobOutcome::Aborted,
                          format("%s job %d partition %d (%s)",
                                 *service.run.aborted ==
                                         FaultClass::DmaFailure
                                     ? "DMA transfer failed for"
                                     : "watchdog timeout on",
                                 job.index, p, partition.accel.c_str()));
                continue;
            }
            r.busy = true;
            schedule(t + service.seconds(), Event::Done, job.index);
        }
    }

    void onArrival(double t)
    {
        const int index = static_cast<int>(states.size());
        ++report.offered;
        JobState &job = states.emplace_back();
        job.index = index;
        job.tmpl = index % static_cast<int>(templates.size());
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
            if (trace)
                admissionInstant(format("job%d rejected", index), t, job);
            clientNext(t);
            return;
        }

        ++report.admitted;
        ++pending;
        job.out.result.total.machine = "PolyMath SoC";
        if (sharedFaults) {
            job.faults = *sharedFaults;
        } else if (cfg.faults.anyFaults()) {
            FaultConfig fc = cfg.faults;
            fc.seed = jobSeed(cfg.faults.seed, static_cast<uint64_t>(index));
            job.faults = FaultModel(fc);
        }
        if (cfg.deadlineSeconds > 0.0) {
            job.out.deadlineSeconds = t + cfg.deadlineSeconds;
        } else if (cfg.deadlineFactor > 0.0) {
            job.out.deadlineSeconds =
                t + cfg.deadlineFactor *
                        estimates[static_cast<size_t>(job.tmpl)]
                            .total.seconds;
        }
        if (trace)
            admissionInstant(format("job%d arrives", index), t, job);
        // Admission + dispatch is queueing delay: it pushes the first
        // partition's start (and the deadline clock keeps running) but
        // never enters the job's PerfReport.
        schedule(t + dispatchSeconds, Event::Ready, index);
    }

    /** The job's last partition is done: tail accounting, then its
     *  outcome once the host glue has run. */
    void completeJob(JobState &job, double t)
    {
        const JobSpec &spec = specOf(job);
        rt.finalizeTotals(job.out.result, *spec.profile, job.anyOffload);
        if (job.faults.enabled() && !estimates.empty()) {
            job.out.result.setFaultFreeBaseline(
                estimates[static_cast<size_t>(job.tmpl)].total);
        }
        const double done =
            t + spec.profile->hostGlueSeconds *
                    static_cast<double>(spec.profile->invocations);
        if (job.out.deadlineSeconds > 0.0 && done > job.out.deadlineSeconds)
            missDeadline(job); // a Continue policy counts the miss too
        if (!enforceDeadline(job, done,
                             [] { return std::string("by completion"); }))
            finishJob(job, done, JobOutcome::Completed);
    }

    void onReady(int j, double t)
    {
        JobState &job = states[static_cast<size_t>(j)];
        if (specOf(job).program->partitions.empty())
            completeJob(job, t);
        else
            placePartition(job, t);
    }

    void onDone(int j, double t)
    {
        JobState &job = states[static_cast<size_t>(j)];
        Service &service = job.service;
        const int ri = service.resource;
        Resource &r = resource(ri);
        r.busy = false;
        r.busySeconds += service.seconds();
        const auto &partition = specOf(job).program->partitions[job.next];
        SocResult &result = job.out.result;

        if (trace) {
            // DMA occupies the service's head, compute the rest.
            const double transfer = service.run.transferSeconds;
            const PerfReport &part = service.run.part;
            if (transfer > 0.0) {
                recorder.virtualSpan(
                    format("dma[%zu] %s", job.next,
                           partition.accel.c_str()),
                    "dma", track(r), service.start, transfer,
                    {obs::TraceArg::num("job", job.index),
                     obs::TraceArg::num("bytes", service.run.movedBytes)});
            }
            recorder.virtualSpan(
                format("compute[%zu] %s", job.next,
                       part.machine.empty() ? partition.accel.c_str()
                                            : part.machine.c_str()),
                "compute", track(r), service.start + transfer,
                std::max(0.0, part.seconds - transfer),
                {obs::TraceArg::num("job", job.index),
                 obs::TraceArg::str("accel", partition.accel),
                 obs::TraceArg::num(
                     "fragments",
                     static_cast<int64_t>(partition.fragments.size())),
                 obs::TraceArg::num("migrated",
                                    service.entry.migrated ? 1 : 0),
                 obs::TraceArg::num("degraded",
                                    service.entry.degraded ? 1 : 0)});
        }
        result.total += service.run.part;
        result.transferSeconds += service.run.transferSeconds;
        result.transferJoules += service.run.transferJoules;
        result.dmaBytes += service.run.movedBytes;
        result.partitions.push_back(std::move(service.run.part));

        ++job.next;
        if (job.next < specOf(job).program->partitions.size())
            placePartition(job, t);
        else
            completeJob(job, t);
        kick(ri, t); // the job's next service may have replaced `service`
    }

    /** Offers the jobs and drains the event loop. */
    void run()
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
            panic("SoC engine: drained with jobs in flight");
    }
};

/** Adds one job the SoC ran to the per-job counters; soc.faults.* only
 *  for a job with an enabled fault model. The counters are looked up
 *  once: every simulate request runs a job. */
void
countJob(const SocResult &result, bool faulted)
{
    auto &m = obs::MetricsRegistry::global();
    static obs::Counter &executions = m.counter("soc.executions"),
                        &partitions = m.counter("soc.partitions"),
                        &dma_bytes = m.counter("soc.dma.bytes");
    executions.add(1);
    partitions.add(static_cast<int64_t>(result.partitions.size()));
    dma_bytes.add(result.dmaBytes);
    if (!faulted)
        return;
    static obs::Counter &injected = m.counter("soc.faults.injected"),
                        &retries = m.counter("soc.faults.retries"),
                        &fallbacks = m.counter("soc.faults.host_fallbacks"),
                        &attempts = m.counter("soc.faults.offload_attempts");
    injected.add(result.reliability.faultsInjected);
    retries.add(result.reliability.retriesSpent);
    fallbacks.add(result.reliability.hostFallbacks);
    attempts.add(result.reliability.offloadAttempts);
}

/** Runs @p spec as a stream of one job arriving at t=0, drawing from
 *  @p faults unsalted. */
StreamJobResult
runOneJob(const SocRuntime &rt, const JobSpec &spec,
          const FaultModel &faults, std::span<const SocResult> fault_free,
          bool timeline)
{
    static const StreamConfig kOneJob = [] {
        StreamConfig c; // closed loop: the one job arrives at t=0
        c.jobs = 1;
        return c;
    }();
    Engine engine(rt, kOneJob, {&spec, 1}, fault_free, &faults, timeline);
    // A lone job has no admission queue to be dispatched from: its first
    // partition starts at t=0.
    engine.dispatchSeconds = 0.0;
    engine.run();
    return std::move(engine.states.front().out);
}

} // namespace

SocResult
SocRuntime::execute(const lower::CompiledProgram &program,
                    const WorkloadProfile &profile,
                    const std::set<std::string> &accelerated,
                    const std::map<std::string, double> &host_eff) const
{
    obs::Span span("soc:execute", "soc");
    if (span.active()) {
        span.arg("partitions",
                 static_cast<int64_t>(program.partitions.size()));
        span.arg("invocations", profile.invocations);
        span.arg("faults", faults_.enabled() ? int64_t{1} : int64_t{0});
    }
    const bool faulted = faults_.enabled();
    std::optional<SocResult> fault_free;
    if (faulted)
        fault_free = estimate(program, profile, accelerated, host_eff);
    StreamJobResult job = runOneJob(
        *this, JobSpec{{}, &program, &profile, &accelerated, &host_eff},
        faults_,
        fault_free ? std::span<const SocResult>(&*fault_free, 1)
                   : std::span<const SocResult>(),
        /*timeline=*/true);
    countJob(job.result, faulted);
    if (job.outcome == JobOutcome::Aborted)
        fatal("SoC: " + job.error);
    return std::move(job.result);
}

SocResult
SocRuntime::estimate(const lower::CompiledProgram &program,
                     const WorkloadProfile &profile,
                     const std::set<std::string> &accelerated,
                     const std::map<std::string, double> &host_eff) const
{
    return runOneJob(*this,
                     JobSpec{{}, &program, &profile, &accelerated,
                             &host_eff},
                     FaultModel{}, {}, /*timeline=*/false)
        .result;
}

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
    std::vector<JobSpec> specs;
    specs.reserve(templates.size());
    for (const StreamJob &tmpl : templates) {
        if (!tmpl.program)
            fatal("StreamScheduler::run: template '" + tmpl.name +
                  "' has no compiled program");
        specs.push_back(JobSpec{tmpl.name, tmpl.program, &tmpl.profile,
                                &tmpl.accelerated, &tmpl.hostEff});
    }
    obs::Span span("soc:stream", "soc");
    if (span.active()) {
        span.arg("jobs", static_cast<int64_t>(config_.jobs));
        span.arg("arrival", toString(config_.arrival));
        span.arg("templates", static_cast<int64_t>(templates.size()));
    }

    // Fault-free per-template estimates feed deadlines and per-job
    // overhead attribution.
    std::vector<SocResult> estimates;
    if (config_.deadlineFactor > 0.0 || config_.faults.anyFaults()) {
        estimates.reserve(templates.size());
        for (const StreamJob &tmpl : templates) {
            estimates.push_back(runtime_->estimate(
                *tmpl.program, tmpl.profile, tmpl.accelerated,
                tmpl.hostEff));
        }
    }

    Engine engine(*runtime_, config_, specs, estimates, nullptr,
                  /*timeline=*/true);
    engine.run();
    StreamReport report = std::move(engine.report);

    // Bounded-error percentiles from a log-linear histogram of whole
    // microseconds: O(1) memory regardless of stream length, no sort
    // barrier, deterministic at any -jN (observe order cannot change a
    // bucket count), < 0.4% relative error.
    obs::LatencyHistogram latency_hist;
    report.jobs.reserve(engine.states.size());
    for (JobState &job : engine.states) {
        if (!job.terminal)
            panic("StreamScheduler: job never reached a terminal state");
        if (job.out.outcome == JobOutcome::Completed)
            latency_hist.observe(static_cast<int64_t>(
                std::llround(job.out.latencySeconds * 1e6)));
        if (job.out.outcome != JobOutcome::Rejected)
            countJob(job.out.result, job.faults.enabled());
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
        panic("StreamScheduler: completed + shed + aborted != admitted");
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
    // Per-backend occupancy over the run's virtual-time makespan:
    // last-run gauges the service's metrics verb exports alongside its
    // sliding-window rates, for every slot, used or not.
    for (int ri = 0; ri < engine.slots; ++ri) {
        const Resource *r = engine.built(ri);
        const double occupancy =
            r && report.makespanSeconds > 0.0
                ? r->busySeconds / report.makespanSeconds
                : 0.0;
        metrics.gauge(std::string("soc.stream.occupancy.") +
                      engine.slotName(ri))
            .set(occupancy);
    }
    return report;
}

} // namespace polymath::soc
