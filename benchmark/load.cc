/**
 * @file
 * End-to-end runs: the real pmc and pmcd binaries driven from this
 * process as a caller drives them, closed loop (each client waits for
 * its reply before sending the next request).
 */
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <thread>

#include "bench.h"
#include "core/error.h"
#include "core/net.h"
#include "core/strings.h"
#include "lower/compile_cache.h"
#include "service/exec.h"

namespace stackbench {

using polymath::fatal;
using polymath::service::Request;
using polymath::service::Response;

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0;
    const auto rank = static_cast<size_t>(
        std::clamp(std::ceil(q * static_cast<double>(values.size())), 1.0,
                   static_cast<double>(values.size())) -
        1);
    std::nth_element(values.begin(),
                     values.begin() + static_cast<std::ptrdiff_t>(rank),
                     values.end());
    return values[rank];
}

void
writePrograms(const std::string &dir)
{
    std::filesystem::create_directories(dir);
    for (const auto &p : programs()) {
        std::ofstream file(dir + "/" + p.id + ".pm", std::ios::binary);
        if (!(file << p.source))
            fatal("cannot write " + dir + "/" + p.id + ".pm");
    }
}

ChildResult
runPmc(const RunOptions &options, const std::string &dir, size_t index,
       RunResult &result)
{
    const Template &t = templates()[index];
    std::vector<std::string> argv = {options.pmc};
    const auto flags = t.pmcFlags();
    argv.insert(argv.end(), flags.begin(), flags.end());
    argv.push_back(t.fileName());
    auto child = runChild(argv, dir);
    ++result.attempted;
    if (child.exitCode != 0 || !options.expected->matches(index, child.out))
        result.fail("pmc output differs for " + t.name());
    return child;
}

std::vector<std::string>
daemonFlags(size_t cacheEntries, size_t flightEntries)
{
    std::vector<std::string> flags = {
        "-j", std::to_string(kClients), "--max-pending", "0",
        "--flight-entries", std::to_string(flightEntries)};
    if (cacheEntries > 0)
        flags.insert(flags.end(),
                     {"--cache-entries", std::to_string(cacheEntries)});
    return flags;
}

namespace {

/** One serve-miss response in this many is re-run locally. */
constexpr int64_t kRecheckEvery = 97;
/**
 * Seconds of the workload's own stream run, unmeasured, right before
 * the timed window (never longer than the window itself). On the
 * 4-vCPU VM this benchmark was tuned on, idle vCPUs come back slowly:
 * four busy processes ran at a quarter speed for their first second.
 * The burn keeps that ramp out of the window.
 */
double
burnSeconds(const RunOptions &o)
{
    return std::min(2.0, o.seconds);
}

/** The one-statement program whose `pmc --stats -` is cli-cold set-up. */
constexpr const char *kTinyProgram =
    "main(input float x, output float y) { y = x*2; }\n";

/** One client connection exchanging raw request/response lines. */
class Connection
{
  public:
    explicit Connection(const std::string &socket)
        : fd_(polymath::core::connectUnix(socket)), reader_(fd_)
    {
    }
    ~Connection() { polymath::core::closeFd(fd_); }
    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    /** Sends @p line ('\n'-terminated) and reads the reply line. */
    bool roundTrip(const std::string &line, std::string &reply)
    {
        return polymath::core::writeAll(fd_, line) &&
               reader_.readLine(reply);
    }

  private:
    int fd_;
    polymath::core::LineReader reader_;
};

/** Each template's request as its wire line, rendered once. */
const std::vector<std::string> &
requestLines()
{
    static const std::vector<std::string> lines = [] {
        std::vector<std::string> out;
        for (const auto &t : templates())
            out.push_back(t.request().json() + "\n");
        return out;
    }();
    return lines;
}

/** Sends template @p index and checks the reply against its pinned
 *  output. @throws UserError when the connection is gone. */
bool
exchange(const RunOptions &o, Connection &conn, size_t index,
         Response &resp)
{
    std::string reply;
    if (!conn.roundTrip(requestLines()[index], reply))
        fatal("pmcd closed the connection");
    resp = Response::fromJson(reply);
    return resp.ok && !resp.rejected &&
           o.expected->matches(index, resp.output);
}

/** Completions per window of width seconds/kWindows. */
std::vector<double>
windowCounts(const std::vector<Sample> &samples, double seconds)
{
    const double width = seconds / kWindows;
    std::vector<double> counts(kWindows, 0);
    for (const auto &s : samples) {
        const auto w = static_cast<size_t>(s.doneAt / width);
        if (w < kWindows)
            counts[w] += 1;
    }
    return counts;
}

/** Latency percentiles and throughput, common to every workload. */
void
addLatencyMetrics(RunResult &result, const std::vector<Sample> &samples,
                  double seconds)
{
    std::vector<double> latencies;
    latencies.reserve(samples.size());
    for (const auto &s : samples)
        latencies.push_back(s.latencyUs / 1e3);
    result.add("latency_p50_ms", quantile(latencies, 0.50), "ms");
    result.add("latency_p90_ms", quantile(latencies, 0.90), "ms");
    std::vector<double> rates = windowCounts(samples, seconds);
    std::string shown;
    for (auto &r : rates) {
        r /= seconds / kWindows;
        shown += " " + std::to_string(static_cast<int64_t>(r));
    }
    result.add("throughput_rps", median(rates), "req/s");
    std::fprintf(stderr,
                 "stackbench: %zu latency samples; req/s per window:%s\n",
                 samples.size(), shown.c_str());
}

RunResult
runCliCold(const RunOptions &o)
{
    RunResult result;
    std::vector<double> setup;
    for (int i = 0; i < kSetupTrials; ++i) {
        const auto child = runChild({o.pmc, "--stats", "-"}, o.workDir,
                                    kTinyProgram);
        if (child.exitCode != 0 || child.out.empty())
            result.fail("pmc --stats - failed during set-up");
        setup.push_back(child.wallSeconds);
    }

    const std::string dir = o.workDir + "/programs";
    writePrograms(dir);
    for (const size_t index : warmupTemplates(Kind::CliCold))
        runPmc(o, dir, index, result);
    {
        Stream burn(Kind::CliCold, o.seed + 1);
        const auto start = Clock::now();
        while (secondsBetween(start, Clock::now()) < burnSeconds(o))
            runPmc(o, dir, burn.next(), result);
    }

    // One pmc at a time, as a build or an editor runs it.
    Stream stream(Kind::CliCold, o.seed);
    std::vector<Sample> samples;
    double peak_rss = 0;
    const auto start = Clock::now();
    while (secondsBetween(start, Clock::now()) < o.seconds) {
        const auto child = runPmc(o, dir, stream.next(), result);
        samples.push_back({secondsBetween(start, Clock::now()),
                           child.wallSeconds * 1e6, child.cpuSeconds});
        peak_rss = std::max(peak_rss, child.maxRssMiB);
    }

    const double width = o.seconds / kWindows;
    std::vector<double> cpu(kWindows, 0);
    for (const auto &s : samples) {
        const auto w = static_cast<size_t>(s.doneAt / width);
        if (w < kWindows)
            cpu[w] += s.cpuSeconds;
    }
    const auto counts = windowCounts(samples, o.seconds);
    std::vector<double> cpu_per_req;
    for (size_t w = 0; w < kWindows; ++w) {
        if (counts[w] > 0)
            cpu_per_req.push_back(cpu[w] * 1e6 / counts[w]);
    }
    result.add("setup_s", median(setup), "s");
    addLatencyMetrics(result, samples, o.seconds);
    result.add("cpu_us_per_req", median(cpu_per_req), "us");
    result.add("peak_rss_mb", peak_rss, "MiB");
    return result;
}

/** The stats verb's counters. */
std::map<std::string, double>
statsOf(const Daemon &daemon)
{
    Request stats;
    stats.verb = polymath::service::Verb::Stats;
    Connection conn(daemon.socket());
    std::string reply;
    if (!conn.roundTrip(stats.json() + "\n", reply))
        fatal("pmcd closed the connection on a stats request");
    return Response::fromJson(reply).stats;
}

RunResult
runServe(const RunOptions &o)
{
    RunResult result;
    const Workload &w = *o.workload;
    const auto flags = daemonFlags(w.cacheEntries, 0);

    std::vector<double> setup;
    for (int i = 0; i < kSetupTrials; ++i) {
        Daemon trial(o.pmcd, o.workDir + "/setup.sock", flags);
        setup.push_back(trial.waitReady());
        trial.shutdown();
    }

    Daemon daemon(o.pmcd, o.workDir + "/pmcd.sock", flags);
    daemon.waitReady();
    const int64_t warm =
        warmUp(o, daemon, result) +
        driveDaemon(o, daemon, burnSeconds(o), 0, result).sent;
    const auto before = statsOf(daemon);
    Drive drive = driveDaemon(o, daemon, o.seconds,
                              w.kind == Kind::ServeMiss ? kRecheckEvery : 0,
                              result);
    const auto after = statsOf(daemon);
    const double peak_rss = daemon.peakRssMiB();
    const auto final_stats = daemon.shutdown();

    // Conservation: every offered work request was answered.
    const double offered = final_stats.at("offered");
    if (offered != final_stats.at("completed") +
                       final_stats.at("rejected") ||
        final_stats.at("rejected") != 0 ||
        offered != static_cast<double>(warm + drive.sent))
        result.fail(polymath::format(
            "conservation: offered %.0f completed %.0f rejected %.0f "
            "sent %lld",
            offered, final_stats.at("completed"),
            final_stats.at("rejected"),
            static_cast<long long>(warm + drive.sent)));

    // The cache did what the workload is named for.
    const double hits = after.at("cacheHits") - before.at("cacheHits");
    const double misses =
        after.at("cacheMisses") - before.at("cacheMisses");
    const double hit_ratio = hits + misses > 0 ? hits / (hits + misses) : 0;
    std::fprintf(stderr,
                 "stackbench: cache hit ratio %.4f (%.0f hits, %.0f "
                 "misses)\n",
                 hit_ratio, hits, misses);
    if (w.kind == Kind::ServeHit && hit_ratio < 0.999)
        result.fail("serve-hit hit ratio below 0.999");
    if (w.kind == Kind::ServeMiss && std::abs(hit_ratio - 0.2) > 0.05)
        result.fail("serve-miss hit ratio outside 0.20 +- 0.05");

    // remote == local, byte for byte, on the kept replies.
    polymath::lower::CompileCache local_cache;
    for (const auto &k : drive.kept) {
        ++result.attempted;
        const Response local = polymath::service::runRequestGuarded(
            templates()[k.index].request(), local_cache);
        if (local.ok != k.remote.ok || local.code != k.remote.code ||
            local.output != k.remote.output ||
            local.error != k.remote.error ||
            local.profileJson != k.remote.profileJson)
            result.fail("remote reply differs from local execution for " +
                        templates()[k.index].name());
    }

    const auto counts = windowCounts(drive.samples, o.seconds);
    std::vector<double> cpu_per_req;
    for (size_t k = 0; k < kWindows; ++k) {
        if (counts[k] > 0)
            cpu_per_req.push_back(
                (drive.cpuMarks[k + 1] - drive.cpuMarks[k]) * 1e6 /
                counts[k]);
    }
    result.add("setup_s", median(setup), "s");
    addLatencyMetrics(result, drive.samples, o.seconds);
    result.add("cpu_us_per_req", median(cpu_per_req), "us");
    result.add("peak_rss_mb", peak_rss, "MiB");
    return result;
}

} // namespace

int64_t
warmUp(const RunOptions &o, const Daemon &daemon, RunResult &result)
{
    Connection conn(daemon.socket());
    int64_t sent = 0;
    for (const size_t index : warmupTemplates(o.workload->kind)) {
        Response resp;
        ++sent;
        ++result.attempted;
        if (!exchange(o, conn, index, resp))
            result.fail("warm-up reply differs for " +
                        templates()[index].name());
    }
    return sent;
}

Drive
driveDaemon(const RunOptions &o, const Daemon &daemon, double seconds,
            int64_t keepEvery, RunResult &result)
{
    Drive drive;
    std::mutex mutex; // guards result, stream, and drive.sent/kept
    Stream stream(o.workload->kind, o.seed);
    std::vector<std::vector<Sample>> per_client(kClients);
    const auto client = [&](size_t c, Clock::time_point start) {
        try {
            Connection conn(daemon.socket());
            while (secondsBetween(start, Clock::now()) < seconds) {
                size_t index = 0;
                int64_t seq = 0;
                {
                    std::lock_guard<std::mutex> lock(mutex);
                    index = stream.next();
                    seq = drive.sent++;
                }
                Response resp;
                const auto begin = Clock::now();
                const bool ok = exchange(o, conn, index, resp);
                const auto end = Clock::now();
                per_client[c].push_back(
                    {secondsBetween(start, end),
                     std::chrono::duration<double, std::micro>(end - begin)
                         .count(),
                     0});
                std::lock_guard<std::mutex> lock(mutex);
                ++result.attempted;
                if (!ok)
                    result.fail("reply differs for " +
                                templates()[index].name());
                if (keepEvery > 0 && seq % keepEvery == 0)
                    drive.kept.push_back({index, std::move(resp)});
            }
        } catch (const std::exception &e) {
            std::lock_guard<std::mutex> lock(mutex);
            result.fail(std::string("client: ") + e.what());
        }
    };

    // Every started client stops by itself when the window closes, so
    // joining them all is safe on the error path too. This thread sends
    // nothing: it samples the daemon's CPU time at the window boundaries.
    std::vector<std::thread> clients;
    std::exception_ptr error;
    try {
        const auto start = Clock::now();
        for (size_t c = 0; c < kClients; ++c)
            clients.emplace_back(client, c, start);
        const double width = seconds / kWindows;
        for (int k = 0; k <= kWindows; ++k) {
            std::this_thread::sleep_until(
                start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(k * width)));
            drive.cpuMarks.push_back(daemon.cpuSeconds());
        }
    } catch (...) {
        error = std::current_exception();
    }
    for (auto &t : clients)
        t.join();
    if (error)
        std::rethrow_exception(error);
    for (const auto &s : per_client)
        drive.samples.insert(drive.samples.end(), s.begin(), s.end());
    return drive;
}

RunResult
runEndToEnd(const RunOptions &options)
{
    return options.workload->kind == Kind::CliCold ? runCliCold(options)
                                                   : runServe(options);
}

} // namespace stackbench
