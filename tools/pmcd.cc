/**
 * @file
 * pmcd — the PolyMath compile-service daemon (docs/SERVICE.md).
 *
 * Serves compile/simulate/profile requests over a Unix-domain socket,
 * sharing one process-wide CompileCache and Op interner across every
 * request so the pipeline cost of a repeated source is paid once per
 * daemon lifetime instead of once per process. `pmc --connect <socket>`
 * is the matching client; bench_service is the load generator.
 *
 * The daemon runs until it receives a `shutdown` request (which drains
 * all queued and in-flight work first). `pmcd --shutdown` sends one.
 *
 * Telemetry (docs/OBSERVABILITY.md §"Service telemetry") is on by
 * default: the last --flight-entries completed requests are kept in the
 * flight recorder (dump verb / `pmc --connect <s> --dump`), requests
 * slower than --slow-trace-us retain their full span trace, and SIGUSR1
 * dumps the flight recorder to stderr without disturbing the server —
 * as does shutdown. `--flight-entries 0` turns all of it off and the
 * wire protocol is byte-identical to the pre-telemetry daemon.
 */
#include <pthread.h>
#include <signal.h>

#include <atomic>
#include <charconv>
#include <cstdio>
#include <string>
#include <thread>

#include "core/error.h"
#include "core/thread_pool.h"
#include "service/client.h"
#include "service/server.h"

namespace {

using namespace polymath;

void
usage()
{
    std::fputs(
        "usage: pmcd --socket <path> [options]\n"
        "\n"
        "  --socket <path>       Unix-domain socket to listen on\n"
        "                        (required)\n"
        "  -j, --jobs <n>        worker threads, and how many misses,\n"
        "                        simulations, profiles and dse searches\n"
        "                        run at once (a search on an idle\n"
        "                        connection may run on its reader); a\n"
        "                        compile that hits the cache runs on\n"
        "                        its connection's reader instead\n"
        "                        (0 = all hardware threads; default\n"
        "                        POLYMATH_JOBS or 1)\n"
        "  --max-pending <n>     admission bound on the queued request\n"
        "                        backlog across all clients; past it\n"
        "                        requests are rejected with an\n"
        "                        accounted, structured response\n"
        "                        (default 256; 0 = unbounded)\n"
        "  --cache-entries <n>   LRU-bound the shared compile cache to\n"
        "                        n programs (default unbounded)\n"
        "  --flight-entries <n>  keep the last n request records for\n"
        "                        the dump verb / SIGUSR1 / shutdown\n"
        "                        dumps (default 256; 0 disables\n"
        "                        request telemetry entirely)\n"
        "  --slow-trace-us <n>   retain the full span trace of\n"
        "                        requests that execute longer than n\n"
        "                        microseconds (default 0 = none)\n"
        "  --shutdown            act as a client instead: send a\n"
        "                        shutdown request to the daemon at\n"
        "                        --socket, print its final stats, exit\n",
        stderr);
}

int64_t
parseCount(const std::string &flag, const std::string &text)
{
    int64_t value = 0;
    const char *begin = text.data();
    const char *end = begin + text.size();
    const auto [ptr, ec] = std::from_chars(begin, end, value);
    if (ec != std::errc{} || ptr != end || value < 0)
        fatal(flag + " expects a non-negative integer (got '" + text +
              "')");
    return value;
}

int
run(int argc, char **argv)
{
    service::ServerConfig config;
    config.jobs = core::defaultJobs();
    config.flightEntries = 256; // service-grade default; 0 disables
    bool shutdown = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (++i >= argc)
                fatal("missing value after " + arg);
            // A following option means the value was forgotten:
            // `pmcd --socket --shutdown` must not listen on a socket
            // file literally named "--shutdown" (it once did, leaving
            // a stray socket in the working directory).
            const std::string value = argv[i];
            if (value.rfind("--", 0) == 0)
                fatal("missing value after " + arg + " (got option '" +
                      value + "')");
            return value;
        };
        if (arg == "--socket") {
            config.socketPath = next();
        } else if (arg == "-j" || arg == "--jobs") {
            config.jobs =
                static_cast<int>(parseCount("--jobs", next()));
        } else if (arg == "--max-pending") {
            config.maxPending =
                static_cast<int>(parseCount("--max-pending", next()));
        } else if (arg == "--cache-entries") {
            config.cacheEntries = static_cast<size_t>(
                parseCount("--cache-entries", next()));
        } else if (arg == "--flight-entries") {
            config.flightEntries = static_cast<size_t>(
                parseCount("--flight-entries", next()));
        } else if (arg == "--slow-trace-us") {
            config.slowTraceUs = parseCount("--slow-trace-us", next());
        } else if (arg == "--shutdown") {
            shutdown = true;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            fatal("unknown option " + arg);
        }
    }
    if (config.socketPath.empty()) {
        usage();
        return 2;
    }

    if (shutdown) {
        service::Client client(config.socketPath);
        service::Request request;
        request.verb = service::Verb::Shutdown;
        const auto response = client.call(request);
        for (const auto &[name, value] : response.stats)
            std::fprintf(stderr, "pmcd: %-16s %.6g\n", name.c_str(),
                         value);
        return response.ok ? 0 : 1;
    }

    // SIGUSR1 => dump the flight recorder to stderr, live. Handled on
    // a dedicated sigwait thread: the signal is blocked process-wide
    // first (worker/reader threads inherit the mask), so the dump runs
    // in a normal thread context — no async-signal-safety gymnastics.
    sigset_t usr1;
    sigemptyset(&usr1);
    sigaddset(&usr1, SIGUSR1);
    pthread_sigmask(SIG_BLOCK, &usr1, nullptr);

    service::Server server(config);
    server.start();

    std::atomic<bool> exiting{false};
    std::thread dumper([&server, &exiting, usr1] {
        for (;;) {
            int sig = 0;
            if (sigwait(&usr1, &sig) != 0)
                return;
            if (exiting.load(std::memory_order_acquire))
                return; // self-signal below: time to join
            const std::string dump = server.flightDumpJson();
            if (dump.empty()) {
                std::fputs("pmcd: flight recorder disabled\n", stderr);
            } else {
                std::fprintf(stderr, "pmcd: flight dump\n%s\n",
                             dump.c_str());
            }
        }
    });

    std::fprintf(stderr,
                 "pmcd: listening on %s (jobs=%d, max-pending=%d, "
                 "flight-entries=%zu, slow-trace-us=%lld)\n",
                 config.socketPath.c_str(), config.jobs,
                 config.maxPending, config.flightEntries,
                 static_cast<long long>(config.slowTraceUs));
    server.wait();
    exiting.store(true, std::memory_order_release);
    pthread_kill(dumper.native_handle(), SIGUSR1);
    dumper.join();
    const std::string dump = server.flightDumpJson();
    if (!dump.empty())
        std::fprintf(stderr, "pmcd: flight dump\n%s\n", dump.c_str());
    const auto stats = server.stats();
    std::fprintf(stderr,
                 "pmcd: shut down; offered=%lld completed=%lld "
                 "rejected=%lld malformed=%lld\n",
                 static_cast<long long>(stats.offered),
                 static_cast<long long>(stats.completed),
                 static_cast<long long>(stats.rejected),
                 static_cast<long long>(stats.malformed));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const polymath::UserError &e) {
        std::fprintf(stderr, "pmcd: error: %s\n", e.message().c_str());
        return 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "pmcd: internal error: %s\n", e.what());
        return 2;
    }
}
