/**
 * @file
 * Child processes for the stack benchmark: one-shot pmc runs with their
 * wall time and rusage, and a pmcd daemon with its CPU time and peak
 * RSS read from /proc. Every child is reaped before its owner returns.
 */
#ifndef STACKBENCH_PROC_H_
#define STACKBENCH_PROC_H_

#include <sys/types.h>

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace stackbench {

using Clock = std::chrono::steady_clock;

/** Seconds from @p a to @p b. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Outcome of one child run to completion. */
struct ChildResult
{
    int exitCode = -1;      ///< -1 when killed by a signal
    std::string out;        ///< everything the child wrote to stdout
    double wallSeconds = 0; ///< spawn to reap
    double cpuSeconds = 0;  ///< user + sys, from wait4's rusage
    double maxRssMiB = 0;   ///< ru_maxrss
};

/**
 * Runs @p argv (argv[0] is a path) in directory @p cwd with @p input on
 * stdin, capturing stdout; stderr is discarded.
 * @throws UserError when the child cannot be started.
 */
ChildResult runChild(const std::vector<std::string> &argv,
                     const std::string &cwd, const std::string &input = {});

/** A pmcd process serving on a Unix socket. */
class Daemon
{
  public:
    /** Spawns `@p pmcd --socket @p socket @p flags`. */
    Daemon(const std::string &pmcd, const std::string &socket,
           const std::vector<std::string> &flags);

    /** Kills and reaps the daemon if it is still running. */
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /**
     * Blocks until the daemon answers a `stats` request and returns the
     * seconds from spawn to that answer.
     * @throws UserError when it exits or does not answer within 30 s.
     */
    double waitReady();

    /** User + sys CPU seconds of the daemon so far (/proc/<pid>/stat). */
    double cpuSeconds() const;

    /** Peak resident set so far (VmHWM of /proc/<pid>/status). */
    double peakRssMiB() const;

    /** Sends `shutdown`, reaps the process, and returns the counters of
     *  the shutdown response. @throws UserError when it fails. */
    std::map<std::string, double> shutdown();

    const std::string &socket() const { return socket_; }

  private:
    std::string socket_;
    pid_t pid_ = -1;
    Clock::time_point spawnedAt_;
};

/** Removes @p path and everything under it; missing paths are fine. */
void removeTree(const std::string &path);

} // namespace stackbench

#endif // STACKBENCH_PROC_H_
