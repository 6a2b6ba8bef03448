#include "service/server.h"

#include <sys/socket.h>

#include <chrono>

#include "core/error.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace polymath::service {

namespace {

/** Wait after a failed accept: a freed descriptor is used within this,
 *  and a lasting shortage costs 100 retries a second, not a busy loop. */
constexpr std::chrono::milliseconds kAcceptBackoff{10};

} // namespace

std::map<std::string, double>
ServerStats::toMap(const lower::CompileCache &cache) const
{
    return {
        {"offered", static_cast<double>(offered)},
        {"accepted", static_cast<double>(accepted)},
        {"rejected", static_cast<double>(rejected)},
        {"completed", static_cast<double>(completed)},
        {"malformed", static_cast<double>(malformed)},
        {"pending", static_cast<double>(pending)},
        {"executing", static_cast<double>(executing)},
        {"connections", static_cast<double>(connections)},
        {"cacheHits", static_cast<double>(cache.hits())},
        {"cacheMisses", static_cast<double>(cache.misses())},
        {"cacheCoalesced", static_cast<double>(cache.coalesced())},
        {"cacheEvictions", static_cast<double>(cache.evictions())},
        {"cacheEntries", static_cast<double>(cache.size())},
        {"cacheCapacity", static_cast<double>(cache.capacity())},
        {"cacheHitRate", cache.hitRate()},
    };
}

Server::Server(ServerConfig config)
    : config_(std::move(config)),
      cache_(config_.cache != nullptr ? config_.cache
                                      : &lower::CompileCache::global()),
      flight_(config_.flightEntries)
{
    if (config_.cacheEntries > 0)
        cache_->setCapacity(config_.cacheEntries);
    config_.jobs = core::resolveJobs(config_.jobs);
}

Server::~Server()
{
    try {
        requestStop();
        wait();
    } catch (...) {
        // Destructors must not throw; the process is going away anyway.
    }
}

void
Server::start()
{
    listener_.listen(config_.socketPath);
    pool_ = std::make_unique<core::ThreadPool>(config_.jobs);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        started_ = true;
        stopping_ = false;
        stopped_ = false;
    }
    acceptThread_ = std::thread([this] { acceptLoop(); });
}

void
Server::acceptLoop()
{
    static obs::Counter &accept_errors =
        obs::MetricsRegistry::global().counter("service.accept_errors");
    for (;;) {
        const int fd = listener_.accept();
        if (fd < 0) {
            if (!listener_.listening())
                return; // listener closed: shutdown path
            // The listener still works; the process is short of
            // descriptors or buffers (EMFILE, ENFILE, ENOBUFS, ENOMEM)
            // or a client left before its accept (ECONNABORTED). Free
            // the descriptors of finished connections, which are
            // otherwise closed only after a successful accept, then
            // wait briefly and retry: returning would leave the daemon
            // running but deaf.
            accept_errors.add(1);
            reapConnections();
            std::this_thread::sleep_for(kAcceptBackoff);
            continue;
        }
        auto conn = std::make_shared<Conn>();
        conn->fd = fd;
        bool admit = false;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (!stopped_) {
                conns_.push_back(conn);
                admit = true;
            }
        }
        if (!admit) {
            core::closeFd(fd);
            continue;
        }
        conn->reader = std::thread([this, conn] { readerLoop(conn); });
        // Opportunistic cleanup of finished connections so a long-lived
        // daemon's connection table does not grow without bound.
        reapConnections();
    }
}

void
Server::reapConnections()
{
    // A connection is dead once its reader exited, its queue drained,
    // and no worker still holds it for a response write. The join and
    // fd close happen outside the lock (the reader's last act is to
    // take mutex_ and mark itself closed — joining under the lock
    // would deadlock against that).
    std::vector<std::shared_ptr<Conn>> dead;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = conns_.begin();
        while (it != conns_.end()) {
            auto &c = *it;
            if (!c->open && c->queue.empty() && c->inFlight == 0) {
                dead.push_back(c);
                it = conns_.erase(it);
            } else {
                ++it;
            }
        }
    }
    for (auto &c : dead) {
        if (c->reader.joinable())
            c->reader.join();
        core::closeFd(c->fd);
    }
}

void
Server::readerLoop(const std::shared_ptr<Conn> &conn)
{
    core::LineReader reader(conn->fd);
    std::string line;
    while (reader.readLine(line)) {
        if (line.empty())
            continue; // blank keep-alive lines are tolerated
        Request req;
        try {
            req = Request::fromJson(line);
        } catch (const std::exception &e) {
            // A malformed or truncated request line gets a structured
            // error, never a dropped connection or a crash.
            {
                std::lock_guard<std::mutex> lock(mutex_);
                ++malformed_;
            }
            Response resp;
            resp.ok = false;
            resp.code = 2;
            resp.error = std::string("request error: ") + e.what() + "\n";
            writeResponse(*conn, resp);
            continue;
        }
        if (req.verb == Verb::Stats) {
            Response resp = statsResponse(req.id);
            resp.requestId = assignRequestId(req.requestId);
            writeResponse(*conn, resp);
            continue;
        }
        if (req.verb == Verb::Dump) {
            Response resp = dumpResponse(req);
            resp.requestId = assignRequestId(req.requestId);
            writeResponse(*conn, resp);
            continue;
        }
        if (req.verb == Verb::Metrics) {
            Response resp = metricsResponse(req);
            resp.requestId = assignRequestId(req.requestId);
            writeResponse(*conn, resp);
            continue;
        }
        if (req.verb == Verb::Shutdown) {
            handleShutdown(*conn, req);
            break;
        }
        // Work verb: admission control first, so a rejected request
        // touches no cache counter. The rejection response is written
        // inline by this reader — cheap, and it keeps the pool free for
        // admitted work.
        const int64_t request_id = req.id;
        req.requestId = assignRequestId(req.requestId);
        const std::string attribution = req.requestId;
        const int64_t now_us =
            telemetryEnabled()
                ? obs::TraceRecorder::global().nowMicros()
                : 0;
        const char *reject_reason = nullptr;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++offered_;
            if (stopping_) {
                reject_reason = "server shutting down";
            } else if (config_.maxPending > 0 &&
                       pending_ >= config_.maxPending) {
                reject_reason = "admission queue full";
            } else {
                ++accepted_;
                ++pending_; // until it runs here or leaves the queue
            }
            if (reject_reason != nullptr)
                ++rejected_;
        }
        if (reject_reason != nullptr) {
            static obs::Counter &rejected =
                obs::MetricsRegistry::global().counter("service.rejected");
            rejected.add(1);
            if (telemetryEnabled())
                rejectedRate_.mark(now_us);
            Response resp;
            resp.id = request_id;
            resp.requestId = attribution;
            resp.ok = false;
            resp.rejected = true;
            resp.code = 3;
            resp.error = std::string(reject_reason) + "\n";
            writeResponse(*conn, resp);
            continue;
        }
        // The request's one cache step. A compile that hits a finished
        // entry, on a connection with nothing queued or in flight, runs
        // right here, as stats does: it only renders the cached
        // listing, it cannot overtake an earlier request of its own
        // connection, and it skips the pool hand-off. So does a dse
        // request on such a connection, under a compute slot, when one
        // is free and nothing waits in any queue (so it overtakes
        // nobody): its search is long enough that which CPU this reader
        // and its client share hardly matters, while through the pool
        // each run of them took seconds to reach full rate. Everything
        // else that computes goes to the pool: misses, in-flight
        // entries, and simulate and profile requests even on a hit,
        // which also keeps their throughput steady (docs/SERVICE.md,
        // "The hit path").
        Pending item{std::move(req), {}, now_us,
                     static_cast<int64_t>(line.size()) + 1};
        item.lookup = lookupRequest(item.req, *cache_);
        const bool compile_hit =
            item.lookup.hit && item.req.verb == Verb::Compile;
        bool run_here = false;
        bool slot = false;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (conn->queue.empty() && conn->inFlight == 0) {
                slot = item.req.verb == Verb::Dse && queued_ == 0 &&
                       computing_ < config_.jobs;
                run_here = compile_hit || slot;
            }
            if (run_here) {
                --pending_;
                ++executing_;
                ++conn->inFlight;
                if (slot)
                    ++computing_;
            } else {
                conn->queue.push_back(std::move(item));
                ++queued_;
            }
        }
        if (run_here)
            execute(*conn, item, slot);
        else
            pool_->submit([this] { slotTask(); });
    }
    std::lock_guard<std::mutex> lock(mutex_);
    conn->open = false;
}

void
Server::slotTask()
{
    // One slot is submitted per queued request, but a slot does not
    // execute "its" request: it pulls the next request round-robin
    // across connections, which is what keeps one chatty client from
    // starving the others — backlog depth costs only its own latency.
    std::shared_ptr<Conn> conn;
    Pending item;
    {
        // Readers running dse requests hold compute slots too, so a
        // worker may have to wait for one of theirs.
        std::unique_lock<std::mutex> lock(mutex_);
        slotFreed_.wait(lock,
                        [this] { return computing_ < config_.jobs; });
        const size_t n = conns_.size();
        for (size_t k = 0; k < n; ++k) {
            auto &c = conns_[(rrCursor_ + k) % n];
            if (c->queue.empty())
                continue;
            item = std::move(c->queue.front());
            c->queue.pop_front();
            --queued_;
            --pending_;
            ++executing_;
            ++computing_;
            ++c->inFlight;
            conn = c;
            rrCursor_ = (rrCursor_ + k + 1) % n;
            break;
        }
    }
    if (!conn)
        return; // queued == slots, so this only races a drain
    execute(*conn, item, true);
}

void
Server::execute(Conn &conn, Pending &item, bool slot)
{
    static obs::Counter &completed =
        obs::MetricsRegistry::global().counter("service.completed");
    Response resp;
    bool accounted = false; // completed_ already counted pre-send?
    if (telemetryEnabled()) {
        static obs::LatencyHistogram &queue_wait =
            obs::MetricsRegistry::global().latency("service.queue_wait_us");
        static obs::LatencyHistogram &execute_us =
            obs::MetricsRegistry::global().latency("service.execute_us");
        static obs::Counter &bytes_in =
            obs::MetricsRegistry::global().counter("service.bytes_in");
        static obs::Counter &bytes_out =
            obs::MetricsRegistry::global().counter("service.bytes_out");
        RequestTelemetry telem;
        telem.requestId = item.req.requestId;
        telem.captureTrace = true;
        const int64_t dispatched_us =
            obs::TraceRecorder::global().nowMicros();
        const int64_t queue_wait_us =
            dispatched_us - item.enqueuedAtMicros;
        resp = runRequestGuarded(item.req, *cache_, std::move(item.lookup),
                                 &telem);
        resp.requestId = item.req.requestId;
        // Account *before* the response leaves: once a client holds
        // its response, a dump/metrics request — answered inline on a
        // reader thread — must already see this request's record and
        // counters (read-your-own-writes attribution). The line is
        // rendered first so bytesOut is exact.
        std::string line = resp.json();
        line += '\n';
        const auto line_bytes = static_cast<int64_t>(line.size());
        queue_wait.observe(queue_wait_us);
        execute_us.observe(telem.executeMicros);
        bytes_in.add(item.bytesIn);
        bytes_out.add(line_bytes);
        const int64_t finished_us =
            obs::TraceRecorder::global().nowMicros();
        obs::RequestRecord record;
        record.requestId = telem.requestId;
        record.verb = toString(item.req.verb);
        record.backends = telem.backends;
        record.exitCode = resp.code;
        record.cacheHits = telem.cacheHits;
        record.cacheMisses = telem.cacheMisses;
        record.queueWaitMicros = queue_wait_us;
        record.executeMicros = telem.executeMicros;
        record.bytesIn = item.bytesIn;
        record.bytesOut = line_bytes;
        record.finishedAtMicros = finished_us;
        if (config_.slowTraceUs > 0 &&
            telem.executeMicros >= config_.slowTraceUs)
            record.trace = std::move(telem.trace);
        flight_.push(std::move(record));
        completedRate_.mark(finished_us);
        {
            // Only completed_ moves early; executing_ stays held until
            // the line is on the wire so the shutdown drain cannot
            // close this connection under an unsent response.
            std::lock_guard<std::mutex> lock(mutex_);
            ++completed_;
        }
        completed.add(1);
        accounted = true;
        sendLine(conn, line);
    } else {
        resp = runRequestGuarded(item.req, *cache_, std::move(item.lookup));
        writeResponse(conn, resp);
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!accounted)
            ++completed_;
        --executing_;
        --conn.inFlight;
        if (slot) {
            --computing_;
            slotFreed_.notify_one();
        }
        if (pending_ == 0 && executing_ == 0)
            drained_.notify_all();
    }
    if (!accounted)
        completed.add(1);
}

void
Server::handleShutdown(Conn &conn, const Request &req)
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        stopping_ = true;
        // Drain: every admitted request is answered before the
        // shutdown response leaves. New work is rejected (accounted)
        // while this waits, so the wait terminates.
        drained_.wait(lock, [&] {
            return pending_ == 0 && executing_ == 0;
        });
    }
    Response resp = statsResponse(req.id);
    resp.requestId = assignRequestId(req.requestId);
    writeResponse(conn, resp);
    beginStop();
}

void
Server::requestStop()
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (!started_)
            return;
        stopping_ = true;
        drained_.wait(lock, [&] {
            return stopped_ || (pending_ == 0 && executing_ == 0);
        });
    }
    beginStop();
}

void
Server::beginStop()
{
    std::vector<std::shared_ptr<Conn>> conns;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopped_)
            return;
        stopped_ = true;
        conns = conns_;
    }
    listener_.close();
    // Wake every reader blocked in recv; their loops exit on EOF.
    for (auto &c : conns)
        ::shutdown(c->fd, SHUT_RDWR);
    std::lock_guard<std::mutex> lock(mutex_);
    drained_.notify_all();
}

void
Server::wait()
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (!started_)
            return;
        drained_.wait(lock, [&] { return stopped_; });
    }
    if (acceptThread_.joinable())
        acceptThread_.join();
    std::vector<std::shared_ptr<Conn>> conns;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        conns.swap(conns_);
    }
    for (auto &c : conns) {
        if (c->reader.joinable())
            c->reader.join();
        core::closeFd(c->fd);
    }
    pool_.reset(); // drains (already empty) and joins the workers
    std::lock_guard<std::mutex> lock(mutex_);
    started_ = false;
}

ServerStats
Server::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    ServerStats s;
    s.offered = offered_;
    s.accepted = accepted_;
    s.rejected = rejected_;
    s.completed = completed_;
    s.malformed = malformed_;
    s.pending = pending_;
    s.executing = executing_;
    for (const auto &c : conns_)
        s.connections += c->open ? 1 : 0;
    return s;
}

Response
Server::statsResponse(int64_t request_id) const
{
    Response resp;
    resp.id = request_id;
    resp.ok = true;
    resp.code = 0;
    resp.stats = stats().toMap(*cache_);
    return resp;
}

std::string
Server::assignRequestId(const std::string &client_supplied)
{
    if (!telemetryEnabled())
        return std::string();
    if (!client_supplied.empty())
        return client_supplied;
    return "r" + std::to_string(nextRequestId_.fetch_add(
                     1, std::memory_order_relaxed));
}

std::string
Server::flightDumpJson() const
{
    return telemetryEnabled() ? flight_.json() : std::string();
}

Response
Server::dumpResponse(const Request &req) const
{
    Response resp;
    resp.id = req.id;
    if (!telemetryEnabled()) {
        resp.ok = false;
        resp.code = 1;
        resp.error = "flight recorder disabled (start pmcd with "
                     "--flight-entries > 0)\n";
        return resp;
    }
    resp.ok = true;
    resp.code = 0;
    resp.output = flight_.json() + "\n";
    return resp;
}

obs::MetricsSnapshot
Server::metricsSnapshot() const
{
    obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
    // Server and cache state join the scrape as synthetic instruments:
    // lifetime totals as counters, instantaneous values as gauges. The
    // per-backend soc.stream.occupancy gauges set by the stream
    // scheduler arrive via the registry snapshot itself.
    const ServerStats s = stats();
    snap.counters["service.server.offered"] = s.offered;
    snap.counters["service.server.accepted"] = s.accepted;
    snap.counters["service.server.rejected"] = s.rejected;
    snap.counters["service.server.completed"] = s.completed;
    snap.counters["service.server.malformed"] = s.malformed;
    snap.gauges["service.server.pending"] =
        static_cast<double>(s.pending);
    snap.gauges["service.server.executing"] =
        static_cast<double>(s.executing);
    snap.gauges["service.server.connections"] =
        static_cast<double>(s.connections);
    snap.counters["service.cache.hits"] = cache_->hits();
    snap.counters["service.cache.misses"] = cache_->misses();
    snap.counters["service.cache.coalesced"] = cache_->coalesced();
    snap.counters["service.cache.evictions"] = cache_->evictions();
    snap.gauges["service.cache.entries"] =
        static_cast<double>(cache_->size());
    snap.gauges["service.cache.hit_rate"] = cache_->hitRate();
    const int64_t now_us = obs::TraceRecorder::global().nowMicros();
    snap.gauges["service.rate.completed_per_s"] =
        completedRate_.ratePerSecond(now_us);
    snap.gauges["service.rate.rejected_per_s"] =
        rejectedRate_.ratePerSecond(now_us);
    return snap;
}

namespace {

/**
 * Delta scrape: counters and latency count/sum/underflow become
 * since-last differences; gauges stay instantaneous and quantiles stay
 * cumulative (a log-linear histogram cannot be subtracted without the
 * full bucket arrays, and cumulative quantiles are what Prometheus
 * summaries report anyway).
 */
obs::MetricsSnapshot
diffSnapshot(const obs::MetricsSnapshot &current,
             const obs::MetricsSnapshot &last)
{
    obs::MetricsSnapshot delta = current;
    for (auto &[name, value] : delta.counters) {
        const auto it = last.counters.find(name);
        if (it != last.counters.end())
            value -= it->second;
    }
    for (auto &[name, l] : delta.latencies) {
        const auto it = last.latencies.find(name);
        if (it == last.latencies.end())
            continue;
        l.count -= it->second.count;
        l.sum -= it->second.sum;
        l.underflow -= it->second.underflow;
    }
    return delta;
}

} // namespace

Response
Server::metricsResponse(const Request &req)
{
    Response resp;
    resp.id = req.id;
    resp.ok = true;
    resp.code = 0;
    const obs::MetricsSnapshot snap = metricsSnapshot();
    if (req.metricsDelta) {
        std::lock_guard<std::mutex> lock(scrapeMutex_);
        const obs::MetricsSnapshot shown =
            haveLastScrape_ ? diffSnapshot(snap, lastScrape_) : snap;
        lastScrape_ = snap;
        haveLastScrape_ = true;
        resp.output = obs::prometheusText(shown);
        resp.metricsJson = shown.json();
    } else {
        resp.output = obs::prometheusText(snap);
        resp.metricsJson = snap.json();
    }
    return resp;
}

size_t
Server::writeResponse(Conn &conn, const Response &resp)
{
    std::string line = resp.json();
    line += '\n';
    sendLine(conn, line);
    return line.size();
}

void
Server::sendLine(Conn &conn, const std::string &line)
{
    std::lock_guard<std::mutex> lock(conn.writeMutex);
    // A vanished client (EPIPE, thanks to MSG_NOSIGNAL) just loses its
    // response; the request still counts as completed — conservation
    // is about work done, not deliveries.
    core::writeAll(conn.fd, line);
}

} // namespace polymath::service
