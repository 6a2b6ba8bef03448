/**
 * @file
 * The two kinds of stack-benchmark run and what they report.
 *
 *   runEndToEnd  drives the real pmc/pmcd binaries as a caller would
 *                and reports the end-to-end metrics (no tracing);
 *   runTraced    replays the same seeded stream in-process, timing the
 *                calls into each module's public functions, and reports
 *                the per-layer metrics plus a Chrome-trace file.
 */
#ifndef STACKBENCH_BENCH_H_
#define STACKBENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "proc.h"
#include "service/protocol.h"
#include "streams.h"

namespace stackbench {

/** Everything one run needs. */
struct RunOptions
{
    const Workload *workload = nullptr;
    uint64_t seed = 1;
    double seconds = 10;    ///< length of the measured window
    std::string pmc;        ///< absolute path of the pmc binary
    std::string pmcd;       ///< absolute path of the pmcd binary
    std::string workDir;    ///< private work dir (sockets, inputs)
    const Expected *expected = nullptr;
    std::string tracePath;  ///< runTraced: Chrome-trace output
    /** runTraced: requests replayed at the least, and kept as spans. */
    int64_t tracedRequests = 2000;
};

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** What a run reports: the last stdout line is this as JSON. */
struct RunResult
{
    bool correct = true;
    int64_t attempted = 0;
    int64_t failed = 0;
    std::vector<Metric> metrics;

    void add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }

    /** Counts a failed operation (and the run as incorrect), with its
     *  reason on stderr. */
    void fail(const std::string &why);
};

RunResult runEndToEnd(const RunOptions &options);
RunResult runTraced(const RunOptions &options);

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/** Nearest-rank quantile @p q in [0,1] of @p values (0 when empty). */
double quantile(std::vector<double> values, double q);

/** Client connections of the pmcd workloads, and pmcd's -j: nproc of
 *  the 4-vCPU machine the benchmark was sized for. */
inline constexpr size_t kClients = 4;

/** Set-up is measured this many times per run; setup_s is the median. */
inline constexpr int kSetupTrials = 50;

/** One completed request of a timed window. */
struct Sample
{
    double doneAt = 0;     ///< seconds since the window opened
    double latencyUs = 0;  ///< client-side send -> reply (spawn -> exit)
    double cpuSeconds = 0; ///< pmc children only (from rusage)
};

/** A reply kept for the local byte-for-byte recheck. */
struct Kept
{
    size_t index = 0; ///< template
    polymath::service::Response remote;
};

/** What closed-loop clients saw over a running pmcd. */
struct Drive
{
    std::vector<Sample> samples;  ///< requests sent inside the window
    std::vector<double> cpuMarks; ///< daemon CPU s at window boundaries
    int64_t sent = 0;             ///< work requests sent
    std::vector<Kept> kept;       ///< replies kept for the recheck
};

/** Windows a timed run is cut into for throughput and CPU medians. */
inline constexpr int kWindows = 5;

/** Sends the workload's warm-up requests, unmeasured, on one
 *  connection; returns how many. Replies are checked as below. */
int64_t warmUp(const RunOptions &options, const Daemon &daemon,
               RunResult &result);

/**
 * Runs kClients closed-loop connections over the workload's
 * seeded stream for @p seconds. Every reply is checked against
 * expected.json; failures land in @p result. With @p keepEvery > 0,
 * every keepEvery-th reply is kept.
 */
Drive driveDaemon(const RunOptions &options, const Daemon &daemon,
                  double seconds, int64_t keepEvery, RunResult &result);

/** pmcd flags: -j kClients, unbounded admission, the workload's cache
 *  bound, and the given flight-recorder size (0 = telemetry off). */
std::vector<std::string> daemonFlags(size_t cacheEntries,
                                     size_t flightEntries);

/** Writes the seventeen programs as <id>.pm into @p dir. */
void writePrograms(const std::string &dir);

/** `pmc <flags of template index> <file>` run in @p dir, with its
 *  output checked; failures land in @p result. */
ChildResult runPmc(const RunOptions &options, const std::string &dir,
                   size_t index, RunResult &result);

} // namespace stackbench

#endif // STACKBENCH_BENCH_H_
