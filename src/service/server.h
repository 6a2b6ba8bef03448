/**
 * @file
 * The pmcd compile-service server loop (docs/SERVICE.md).
 *
 * A long-running Unix-domain-socket server sharing one process-wide
 * CompileCache and Op interner across every request. Architecture:
 *
 *   accept thread ── one reader thread per connection ── worker pool
 *
 * Readers parse JSON-line requests and answer some inline (stats,
 * malformed lines, admission rejections — all cheap). An admitted work
 * request is keyed and looked up once, on its reader
 * (lookupRequest). A compile that hits a *finished* cache entry, on a
 * connection with nothing queued or in flight, runs right there on the
 * reader: no hand-off, no worker wake-up. A dse request on such a
 * connection also runs on its reader, if nothing is queued anywhere and
 * one of the `jobs` compute slots is free; it holds that slot while it
 * searches. Everything else — misses, in-flight entries,
 * simulate/profile requests (which compute even on a hit), dse requests
 * that find no free slot, and requests behind queued work on their own
 * connection — is enqueued onto its connection's queue and executed on
 * the core::ThreadPool, each under a compute slot. Each enqueue submits
 * one pool task, and the task pulls the *next request round-robin across
 * connections*, so a chatty client that pipelines thousands of
 * requests cannot starve a neighbor: queue depth costs only its own
 * latency. Inline and pooled requests share one execute() body.
 *
 * Admission control bounds the total queued backlog (maxPending) and
 * is decided before the lookup, so it treats a hit like any other
 * request; past the bound, requests are rejected immediately with an
 * accounted, structured response. The conservation law
 *
 *     completed + rejected == offered        (after drain)
 *
 * is the server's correctness spine: every offered work request is
 * eventually answered exactly once, including through shutdown (which
 * drains queued + in-flight work before the shutdown response leaves).
 */
#ifndef POLYMATH_SERVICE_SERVER_H_
#define POLYMATH_SERVICE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/net.h"
#include "core/thread_pool.h"
#include "lower/compile_cache.h"
#include "obs/metrics.h"
#include "obs/request.h"
#include "service/exec.h"
#include "service/protocol.h"

namespace polymath::service {

/** Server construction knobs. */
struct ServerConfig
{
    std::string socketPath;

    /** Compute slots and worker threads (core::resolveJobs semantics:
     *  0 = all hardware threads). They bound everything that computes:
     *  misses, simulations, profiles and dse searches, whether a worker
     *  or a reader runs it. A compile that hits the cache runs on its
     *  connection's reader without a slot. */
    int jobs = 1;

    /** Admission bound on the total queued (not yet executing) request
     *  backlog across all clients; 0 = unbounded. */
    int maxPending = 256;

    /** When > 0, bounds the shared CompileCache to this many entries
     *  (LRU) before serving. 0 leaves the cache's capacity untouched. */
    size_t cacheEntries = 0;

    /** Cache to serve from; nullptr = CompileCache::global(). */
    lower::CompileCache *cache = nullptr;

    /**
     * Flight-recorder capacity: keep the last N completed request
     * records for the dump verb / SIGUSR1 / shutdown dumps. 0 (the
     * library default) disables request telemetry entirely — no
     * request ids on the wire, no clock reads, byte-identical
     * responses to the pre-telemetry server. The pmcd CLI defaults
     * this to 256 (docs/SERVICE.md).
     */
    size_t flightEntries = 0;

    /** Retain the full span trace of requests whose execute time
     *  exceeds this many microseconds (0 = retain none). Only
     *  meaningful with flightEntries > 0. */
    int64_t slowTraceUs = 0;
};

/** Counters exposed by the stats verb (work verbs only; stats/shutdown
 *  and malformed lines are accounted separately). */
struct ServerStats
{
    int64_t offered = 0;   ///< work requests received
    int64_t accepted = 0;  ///< admitted to a queue
    int64_t rejected = 0;  ///< refused by admission control / shutdown
    int64_t completed = 0; ///< executed and answered
    int64_t malformed = 0; ///< unparsable or unknown-verb lines
    int64_t pending = 0;   ///< queued right now
    int64_t executing = 0; ///< running right now (pool or reader)
    int64_t connections = 0; ///< currently open connections

    /** Flat map for the stats response (includes cache counters). */
    std::map<std::string, double> toMap(
        const lower::CompileCache &cache) const;
};

/** The compile-service server. */
class Server
{
  public:
    explicit Server(ServerConfig config);

    /** Stops (draining) and joins if still running. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Binds the socket and spawns the accept thread + worker pool.
     *  @throws UserError when the socket cannot be bound. */
    void start();

    /**
     * Programmatic shutdown, equivalent to receiving a shutdown verb:
     * stop admitting, drain queued + in-flight work, close the
     * listener and every connection. Blocks until drained. Idempotent.
     */
    void requestStop();

    /** Blocks until the server has fully stopped (shutdown verb or
     *  requestStop()) and joins every thread. */
    void wait();

    /** Snapshot of the counters. */
    ServerStats stats() const;

    const std::string &socketPath() const
    {
        return config_.socketPath;
    }

    lower::CompileCache &cache() const { return *cache_; }

    /** True when the server records per-request telemetry. */
    bool telemetryEnabled() const
    {
        return config_.flightEntries > 0;
    }

    /** Flight-recorder dump as JSON, "" when telemetry is disabled
     *  (used by the dump verb, SIGUSR1, and the shutdown dump). */
    std::string flightDumpJson() const;

  private:
    /** One admitted work request with its cache step and its
     *  admission-time telemetry. */
    struct Pending
    {
        Request req;
        RequestLookup lookup;         ///< key + lookup, done on the reader
        int64_t enqueuedAtMicros = 0; ///< 0 when telemetry is off
        int64_t bytesIn = 0;          ///< request line bytes
    };

    /** Per-connection state; shared between its reader, the workers
     *  executing its requests, and the reaper. */
    struct Conn
    {
        int fd = -1;
        std::mutex writeMutex;   ///< serializes response lines
        std::deque<Pending> queue; ///< guarded by Server::mutex_
        int inFlight = 0;          ///< guarded by Server::mutex_
        bool open = true;          ///< guarded by Server::mutex_
        std::thread reader;
    };

    void acceptLoop();
    void readerLoop(const std::shared_ptr<Conn> &conn);
    void slotTask();
    /** Runs @p item, answers it on @p conn, and accounts it; the caller
     *  has already moved it from pending_ to executing_ and bumped
     *  conn.inFlight. @p slot: the caller took a compute slot
     *  (computing_) for it, which this frees. */
    void execute(Conn &conn, Pending &item, bool slot);
    void handleShutdown(Conn &conn, const Request &req);
    void beginStop();
    /** Erases finished connections, then joins their readers and
     *  closes their fds outside mutex_. Accept thread only. */
    void reapConnections();
    /** Writes one response line; returns the bytes written. */
    size_t writeResponse(Conn &conn, const Response &resp);
    void sendLine(Conn &conn, const std::string &line);
    Response statsResponse(int64_t request_id) const;
    Response dumpResponse(const Request &req) const;
    Response metricsResponse(const Request &req);
    /** Assigns (or passes through) the attribution id; "" when
     *  telemetry is disabled. */
    std::string assignRequestId(const std::string &client_supplied);
    /** Global-registry snapshot + server/cache/rate synthetics. */
    obs::MetricsSnapshot metricsSnapshot() const;

    ServerConfig config_;
    lower::CompileCache *cache_ = nullptr;

    mutable std::mutex mutex_;
    std::condition_variable drained_;
    std::condition_variable slotFreed_; ///< computing_ fell below jobs
    std::vector<std::shared_ptr<Conn>> conns_;
    size_t rrCursor_ = 0;
    bool started_ = false;
    bool stopping_ = false; ///< no longer admitting work
    bool stopped_ = false;  ///< listener + connections closed

    int64_t offered_ = 0;
    int64_t accepted_ = 0;
    int64_t rejected_ = 0;
    int64_t completed_ = 0;
    int64_t malformed_ = 0;
    int64_t pending_ = 0;
    int64_t executing_ = 0;
    int64_t queued_ = 0;    ///< requests in the connections' queues
    int64_t computing_ = 0; ///< compute slots taken, at most jobs

    core::UnixListener listener_;
    std::unique_ptr<core::ThreadPool> pool_;
    std::thread acceptThread_;

    // --- telemetry (inert when config_.flightEntries == 0) ---
    obs::FlightRecorder flight_;
    std::atomic<int64_t> nextRequestId_{1};
    obs::RateWindow completedRate_;
    obs::RateWindow rejectedRate_;
    /** Baseline of the last delta scrape (metricsDelta); guarded by
     *  its own mutex so scrapes never contend with the work path. */
    std::mutex scrapeMutex_;
    obs::MetricsSnapshot lastScrape_;
    bool haveLastScrape_ = false;
};

} // namespace polymath::service

#endif // POLYMATH_SERVICE_SERVER_H_
