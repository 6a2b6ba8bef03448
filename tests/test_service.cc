/**
 * @file
 * Tests for the pmcd compile service (src/service/, docs/SERVICE.md) and
 * the CompileCache behaviors it depends on: wire-protocol round-trips,
 * server responses byte-identical to direct execution, structured errors
 * for malformed (and too deeply nested) request lines and too deep
 * expressions, round-robin fairness across client connections,
 * admission-control accounting
 * (completed + rejected == offered), drain-before-shutdown, the failed-compile eviction race
 * regression, the LRU bound (in-flight entries never dropped), lookup()
 * semantics, and the cache-hit path (byte-identical replies, syntax
 * errors first and never cached).
 *
 * tools/check.sh runs this binary under ThreadSanitizer as well: the
 * server's reader threads, pool workers, and shutdown path all race
 * here by construction.
 */
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/error.h"
#include "core/json.h"
#include "core/net.h"
#include "lower/compile_cache.h"
#include "pmlang/parser.h"
#include "service/client.h"
#include "service/exec.h"
#include "service/protocol.h"
#include "service/server.h"
#include "workloads/suite.h"

namespace polymath {
namespace {

/** Unique socket path per test (the listener unlinks it on close). */
std::string
testSocket(const std::string &tag)
{
    return "/tmp/pm_test_service_" + std::to_string(::getpid()) + "_" +
           tag + ".sock";
}

/** A tiny single-statement program, distinct per @p k. */
std::string
tinySource(int k)
{
    return "main(input float x, output float y) { y = x*" +
           std::to_string(k + 2) + "; }";
}

/**
 * A wider program (one statement, many scalar ops), distinct per @p k —
 * heavy enough that compiling it dominates the microseconds it takes a
 * reader thread to enqueue a burst of requests.
 */
std::string
wideSource(int k)
{
    std::string expr = "x*" + std::to_string(k + 2);
    for (int i = 0; i < 80; ++i)
        expr += " + x*" + std::to_string(k * 100 + i + 3);
    return "main(input float x, output float y) { y = " + expr + "; }";
}

service::Request
compileRequest(const std::string &source, int64_t id)
{
    service::Request req;
    req.id = id;
    req.verb = service::Verb::Compile;
    req.file = "<test>";
    req.source = source;
    req.target = "DA";
    return req;
}

// ---------------------------------------------------------------------
// Wire protocol

TEST(ServiceProtocol, RequestRoundTripsThroughJson)
{
    service::Request req;
    req.id = 42;
    req.verb = service::Verb::Profile;
    req.file = "dir/with \"quotes\"\nand newline.pm";
    req.source = "main() { }\n\tweird \x01 bytes";
    req.entry = "start";
    req.params = {{"n", 128}, {"m", -7}};
    req.optimize = true;
    req.target = "DSP";
    req.schedule = true;
    req.invocations = 1000;
    req.faultRate = 0.25;
    req.faultSeed = (1ull << 60) + 12345; // beyond double precision
    req.profileTop = 3;
    req.profileDoc = true;
    req.requestId = "client-7";
    req.metricsDelta = true;

    const std::string line = req.json();
    // JSON-line framing: the document must never contain a raw newline.
    EXPECT_EQ(line.find('\n'), std::string::npos);

    const auto back = service::Request::fromJson(line);
    EXPECT_EQ(back.id, req.id);
    EXPECT_EQ(back.verb, req.verb);
    EXPECT_EQ(back.file, req.file);
    EXPECT_EQ(back.source, req.source);
    EXPECT_EQ(back.entry, req.entry);
    EXPECT_EQ(back.params, req.params);
    EXPECT_EQ(back.optimize, req.optimize);
    EXPECT_EQ(back.target, req.target);
    EXPECT_EQ(back.schedule, req.schedule);
    EXPECT_EQ(back.invocations, req.invocations);
    EXPECT_DOUBLE_EQ(back.faultRate, req.faultRate);
    EXPECT_EQ(back.faultSeed, req.faultSeed);
    EXPECT_EQ(back.profileTop, req.profileTop);
    EXPECT_EQ(back.profileDoc, req.profileDoc);
    EXPECT_EQ(back.requestId, req.requestId);
    EXPECT_EQ(back.metricsDelta, req.metricsDelta);
    // A second rendering is byte-stable.
    EXPECT_EQ(back.json(), line);

    // The attribution fields are opt-in on the wire: a request without
    // them serializes exactly as before they existed.
    service::Request plain;
    plain.verb = service::Verb::Compile;
    EXPECT_EQ(plain.json().find("requestId"), std::string::npos);
    EXPECT_EQ(plain.json().find("metricsDelta"), std::string::npos);
}

TEST(ServiceProtocol, ResponseRoundTripsThroughJson)
{
    service::Response resp;
    resp.id = 7;
    resp.ok = true;
    resp.code = 0;
    resp.cacheHit = true;
    resp.output = "line one\nline two\ttab\n";
    resp.error = "warn: \"quoted\"\n";
    resp.profileJson = "{\"schema\":\"polymath-profile/1\"}\n";
    resp.stats = {{"offered", 12}, {"cacheHitRate", 0.5}};
    resp.requestId = "r17";
    resp.metricsJson = "{\"counters\":{}}";

    const std::string line = resp.json();
    EXPECT_EQ(line.find('\n'), std::string::npos);
    const auto back = service::Response::fromJson(line);
    EXPECT_EQ(back.id, resp.id);
    EXPECT_EQ(back.ok, resp.ok);
    EXPECT_EQ(back.rejected, resp.rejected);
    EXPECT_EQ(back.code, resp.code);
    EXPECT_EQ(back.cacheHit, resp.cacheHit);
    EXPECT_EQ(back.output, resp.output);
    EXPECT_EQ(back.error, resp.error);
    EXPECT_EQ(back.profileJson, resp.profileJson);
    EXPECT_EQ(back.stats, resp.stats);
    EXPECT_EQ(back.requestId, resp.requestId);
    EXPECT_EQ(back.metricsJson, resp.metricsJson);

    // Telemetry off the wire: no attribution fields, byte-identical
    // rendering to the pre-telemetry protocol.
    service::Response plain;
    plain.id = 1;
    plain.ok = true;
    EXPECT_EQ(plain.json().find("requestId"), std::string::npos);
    EXPECT_EQ(plain.json().find("metricsJson"), std::string::npos);
}

TEST(ServiceProtocol, RejectsBadRequests)
{
    EXPECT_THROW(service::Request::fromJson("not json"), UserError);
    EXPECT_THROW(service::Request::fromJson("{\"id\":1}"), UserError);
    EXPECT_THROW(service::Request::fromJson("{\"verb\":\"bogus\"}"),
                 UserError);
    EXPECT_THROW(
        service::Request::fromJson(
            "{\"verb\":\"compile\",\"invocations\":0}"),
        UserError);
    EXPECT_THROW(
        service::Request::fromJson(
            "{\"verb\":\"compile\",\"faultSeed\":\"-1\"}"),
        UserError);
}

// ---------------------------------------------------------------------
// Server behavior over the real socket

TEST(ServiceServer, ResponsesMatchDirectExecution)
{
    lower::CompileCache server_cache;
    service::ServerConfig config;
    config.socketPath = testSocket("echo");
    config.jobs = 2;
    config.cache = &server_cache;
    service::Server server(config);
    server.start();

    // compile, simulate, profile, and a program with a syntax error:
    // each response must carry the bytes runRequestGuarded produces.
    std::vector<service::Request> requests;
    requests.push_back(compileRequest(tinySource(0), 0));
    {
        auto req = compileRequest(tinySource(1), 1);
        req.verb = service::Verb::Simulate;
        req.invocations = 10;
        req.faultRate = 0.2;
        req.faultSeed = 99;
        requests.push_back(req);
    }
    {
        auto req = compileRequest(tinySource(2), 2);
        req.verb = service::Verb::Profile;
        req.profileTop = 2;
        requests.push_back(req);
    }
    requests.push_back(compileRequest("main( { broken", 3));

    service::Client client(config.socketPath);
    for (const auto &req : requests) {
        const auto remote = client.call(req);
        lower::CompileCache local_cache;
        const auto local = service::runRequestGuarded(req, local_cache);
        EXPECT_EQ(remote.id, req.id);
        EXPECT_EQ(remote.ok, local.ok);
        EXPECT_EQ(remote.code, local.code);
        EXPECT_EQ(remote.output, local.output);
        EXPECT_EQ(remote.error, local.error);
        EXPECT_EQ(remote.profileJson, local.profileJson);
    }

    // Repeating a request is served from the shared cache.
    const auto again = client.call(requests[0]);
    EXPECT_TRUE(again.ok);
    EXPECT_TRUE(again.cacheHit);

    server.requestStop();
    server.wait();
}

TEST(ServiceServer, MalformedLinesGetStructuredErrors)
{
    service::ServerConfig config;
    config.socketPath = testSocket("malformed");
    config.jobs = 1;
    service::Server server(config);
    server.start();

    service::Client client(config.socketPath);
    const std::vector<std::string> bad = {
        "garbage",
        "{\"id\":5}",                       // no verb
        "{\"verb\":\"nope\"}",              // unknown verb
        "{\"verb\":\"compile\",\"id\":",    // truncated JSON
    };
    for (const auto &line : bad) {
        ASSERT_TRUE(core::writeAll(client.fd(), line + "\n"));
        service::Response resp;
        ASSERT_TRUE(client.recv(resp)) << line;
        EXPECT_FALSE(resp.ok) << line;
        EXPECT_EQ(resp.code, 2) << line;
        EXPECT_FALSE(resp.error.empty()) << line;
    }

    // The connection survives; a valid request still works, and the
    // malformed lines were counted.
    const auto good = client.call(compileRequest(tinySource(0), 9));
    EXPECT_TRUE(good.ok);
    service::Request stats;
    stats.verb = service::Verb::Stats;
    const auto snap = client.call(stats);
    EXPECT_DOUBLE_EQ(snap.stats.at("malformed"),
                     static_cast<double>(bad.size()));

    // A truncated *final* line (no terminator, then EOF) must not crash
    // the server or poison later connections.
    {
        const int fd = core::connectUnix(config.socketPath);
        ASSERT_TRUE(core::writeAll(fd, "{\"verb\":\"comp"));
        core::closeFd(fd);
    }
    const auto after = client.call(compileRequest(tinySource(1), 10));
    EXPECT_TRUE(after.ok);

    server.requestStop();
    server.wait();
}

TEST(ServiceServer, DeeplyNestedLineGetsAnErrorAndTheConnectionLives)
{
    service::ServerConfig config;
    config.socketPath = testSocket("deep");
    config.jobs = 1;
    service::Server server(config);
    server.start();

    // 200k nested arrays once overflowed the reader thread's stack and
    // took the daemon down with every client.
    service::Client client(config.socketPath);
    ASSERT_TRUE(
        core::writeAll(client.fd(), std::string(200000, '[') + "\n"));
    service::Response resp;
    ASSERT_TRUE(client.recv(resp));
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.code, 2);
    EXPECT_NE(resp.error.find("json: nesting deeper than"),
              std::string::npos)
        << resp.error;

    service::Request stats;
    stats.verb = service::Verb::Stats;
    const auto snap = client.call(stats);
    EXPECT_TRUE(snap.ok);
    EXPECT_DOUBLE_EQ(snap.stats.at("malformed"), 1.0);

    server.requestStop();
    server.wait();
}

TEST(ServiceServer, DeepExpressionGetsAnErrorAndTheConnectionLives)
{
    service::ServerConfig config;
    config.socketPath = testSocket("deepexpr");
    config.jobs = 1;
    service::Server server(config);
    server.start();

    // A flat sum of n terms is a left spine n levels deep. 200k terms
    // once took the daemon down in the first tree walk after parsing.
    const auto flatSum = [](int terms) {
        std::string expr = "x";
        for (int i = 1; i < terms; ++i)
            expr += "+x";
        return "main(input float x, output float y) { y = " + expr + "; }";
    };
    service::Client client(config.socketPath);
    const auto resp = client.call(compileRequest(flatSum(200000), 1));
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.code, 1);
    EXPECT_NE(resp.error.find("expression nested deeper than"),
              std::string::npos)
        << resp.error;
    EXPECT_TRUE(
        client.call(compileRequest(flatSum(lang::kMaxExprDepth), 2)).ok);

    service::Request stats;
    stats.verb = service::Verb::Stats;
    const auto snap = client.call(stats);
    EXPECT_TRUE(snap.ok);
    EXPECT_DOUBLE_EQ(snap.stats.at("malformed"), 0.0);

    server.requestStop();
    server.wait();
}

TEST(ServiceServer, RoundRobinKeepsSmallClientsAhead)
{
    using Clock = std::chrono::steady_clock;
    lower::CompileCache cache;
    service::ServerConfig config;
    config.socketPath = testSocket("fairness");
    config.jobs = 1; // serial executor makes fairness observable
    config.cache = &cache;
    service::Server server(config);
    server.start();

    constexpr int kBacklog = 48;
    Clock::time_point heavy_done;
    Clock::time_point light_done;

    std::thread heavy([&] {
        service::Client client(config.socketPath);
        for (int i = 0; i < kBacklog; ++i)
            client.send(compileRequest(wideSource(i), i));
        for (int i = 0; i < kBacklog; ++i) {
            service::Response resp;
            ASSERT_TRUE(client.recv(resp));
            EXPECT_TRUE(resp.ok) << resp.error;
        }
        heavy_done = Clock::now();
    });

    // The light client connects while the heavy backlog drains. With
    // FIFO dispatch its lone request would wait behind all of the
    // backlog; round-robin pulls it within ~one slot.
    std::thread light([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        service::Client client(config.socketPath);
        const auto resp =
            client.call(compileRequest(wideSource(1000), 0));
        EXPECT_TRUE(resp.ok) << resp.error;
        light_done = Clock::now();
    });

    heavy.join();
    light.join();
    EXPECT_LT(light_done.time_since_epoch().count(),
              heavy_done.time_since_epoch().count())
        << "single-request client waited behind another client's "
           "entire backlog";

    server.requestStop();
    server.wait();
}

TEST(ServiceServer, AdmissionRejectionIsAccounted)
{
    lower::CompileCache cache;
    service::ServerConfig config;
    config.socketPath = testSocket("admission");
    config.jobs = 1;
    config.maxPending = 1;
    config.cache = &cache;
    service::Server server(config);
    server.start();

    constexpr int kBurst = 32;
    int64_t rejected = 0;
    int64_t completed = 0;
    {
        service::Client client(config.socketPath);
        for (int i = 0; i < kBurst; ++i)
            client.send(compileRequest(wideSource(i), i));
        for (int i = 0; i < kBurst; ++i) {
            service::Response resp;
            ASSERT_TRUE(client.recv(resp));
            if (resp.rejected) {
                ++rejected;
                EXPECT_EQ(resp.code, 3);
                EXPECT_FALSE(resp.ok);
                EXPECT_FALSE(resp.error.empty());
            } else {
                ++completed;
                EXPECT_TRUE(resp.ok) << resp.error;
            }
        }
    }
    // A burst of 32 against an admission bound of 1 must shed load...
    EXPECT_GT(rejected, 0);
    EXPECT_EQ(rejected + completed, kBurst);

    // ...and the server's books must agree exactly with the client's:
    // conservation (completed + rejected == offered), checked on the
    // post-drain shutdown stats.
    service::Client control(config.socketPath);
    service::Request shutdown_req;
    shutdown_req.verb = service::Verb::Shutdown;
    const auto bye = control.call(shutdown_req);
    EXPECT_TRUE(bye.ok);
    EXPECT_DOUBLE_EQ(bye.stats.at("offered"),
                     static_cast<double>(kBurst));
    EXPECT_DOUBLE_EQ(bye.stats.at("rejected"),
                     static_cast<double>(rejected));
    EXPECT_DOUBLE_EQ(bye.stats.at("completed"),
                     static_cast<double>(completed));
    EXPECT_DOUBLE_EQ(bye.stats.at("pending"), 0.0);
    EXPECT_DOUBLE_EQ(bye.stats.at("executing"), 0.0);
    server.wait();
}

TEST(ServiceServer, ShutdownDrainsQueuedWorkFirst)
{
    lower::CompileCache cache;
    service::ServerConfig config;
    config.socketPath = testSocket("shutdown");
    config.jobs = 2;
    config.cache = &cache;
    service::Server server(config);
    server.start();

    constexpr int kWork = 5;
    service::Client client(config.socketPath);
    for (int i = 0; i < kWork; ++i)
        client.send(compileRequest(wideSource(i), i));
    service::Request shutdown_req;
    shutdown_req.verb = service::Verb::Shutdown;
    shutdown_req.id = 999;
    client.send(shutdown_req);

    // Every queued request is answered before the shutdown response:
    // the shutdown line must arrive last, after all five work replies.
    std::vector<bool> seen(kWork, false);
    for (int i = 0; i < kWork; ++i) {
        service::Response resp;
        ASSERT_TRUE(client.recv(resp));
        ASSERT_GE(resp.id, 0);
        ASSERT_LT(resp.id, kWork);
        EXPECT_FALSE(seen[static_cast<size_t>(resp.id)]);
        seen[static_cast<size_t>(resp.id)] = true;
        EXPECT_TRUE(resp.ok) << resp.error;
    }
    service::Response bye;
    ASSERT_TRUE(client.recv(bye));
    EXPECT_EQ(bye.id, 999);
    EXPECT_TRUE(bye.ok);
    EXPECT_DOUBLE_EQ(bye.stats.at("completed"),
                     static_cast<double>(kWork));
    EXPECT_DOUBLE_EQ(bye.stats.at("pending"), 0.0);
    EXPECT_DOUBLE_EQ(bye.stats.at("executing"), 0.0);

    server.wait();
    // Fully stopped: the socket is gone, new connections fail.
    EXPECT_THROW(service::Client{config.socketPath}, UserError);
}

// ---------------------------------------------------------------------
// CompileCache regressions the service exposed

TEST(CompileCacheRace, FailedOwnerEvictsOnlyItsOwnEntry)
{
    lower::CompileCache cache;
    std::mutex m;
    std::condition_variable cv;
    bool t1_entered = false, t1_release = false;
    bool t2_entered = false, t2_release = false;

    // T1 becomes the owner for "k", blocks inside its compile fn, and
    // will eventually throw.
    std::thread t1([&] {
        EXPECT_THROW(
            cache.getOrCompile(
                "k",
                [&]() -> lower::CompiledProgram {
                    std::unique_lock<std::mutex> lock(m);
                    t1_entered = true;
                    cv.notify_all();
                    cv.wait(lock, [&] { return t1_release; });
                    throw std::runtime_error("compile failed");
                }),
            std::runtime_error);
    });
    {
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [&] { return t1_entered; });
    }

    // T1's entry is dropped while it is still compiling, and T2 becomes
    // the *new* owner for the same key.
    cache.clear();
    std::thread t2([&] {
        const auto program = cache.getOrCompile("k", [&] {
            std::unique_lock<std::mutex> lock(m);
            t2_entered = true;
            cv.notify_all();
            cv.wait(lock, [&] { return t2_release; });
            return lower::CompiledProgram{};
        });
        EXPECT_NE(program, nullptr);
    });
    {
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [&] { return t2_entered; });
    }

    // T1 fails now. Before the generation guard, its unconditional
    // erase(key) removed T2's fresh in-flight entry here, orphaning
    // T2's coalescing point and forcing later callers to recompile.
    {
        std::lock_guard<std::mutex> lock(m);
        t1_release = true;
        cv.notify_all();
    }
    t1.join();
    EXPECT_EQ(cache.size(), 1u) << "failed owner evicted another "
                                   "thread's in-flight entry";

    {
        std::lock_guard<std::mutex> lock(m);
        t2_release = true;
        cv.notify_all();
    }
    t2.join();

    // A third caller must be served from T2's entry, not recompile.
    bool compiled = false;
    const auto program = cache.getOrCompile("k", [&] {
        compiled = true;
        return lower::CompiledProgram{};
    });
    EXPECT_NE(program, nullptr);
    EXPECT_FALSE(compiled);
}

TEST(CompileCacheLru, BoundedCacheEvictsLeastRecentlyUsed)
{
    lower::CompileCache cache;
    cache.setCapacity(2);
    EXPECT_EQ(cache.capacity(), 2u);
    const auto compile = [] { return lower::CompiledProgram{}; };
    cache.getOrCompile("a", compile);
    cache.getOrCompile("b", compile);
    EXPECT_EQ(cache.evictions(), 0);
    cache.getOrCompile("c", compile); // evicts "a" (least recent)
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.evictions(), 1);

    // "b" and "c" are still resident...
    bool compiled = false;
    cache.getOrCompile("b", [&] {
        compiled = true;
        return lower::CompiledProgram{};
    });
    EXPECT_FALSE(compiled);
    // ...and re-requesting "a" is a miss that evicts the LRU ("c": the
    // "b" hit just refreshed its recency).
    cache.getOrCompile("a", [&] {
        compiled = true;
        return lower::CompiledProgram{};
    });
    EXPECT_TRUE(compiled);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.evictions(), 2);
    compiled = false;
    cache.getOrCompile("c", [&] {
        compiled = true;
        return lower::CompiledProgram{};
    });
    EXPECT_TRUE(compiled) << "expected 'c' to have been evicted";
}

TEST(CompileCacheLru, InFlightEntriesAreNeverDropped)
{
    lower::CompileCache cache;
    cache.setCapacity(1);
    std::mutex m;
    std::condition_variable cv;
    bool entered = false, release = false;

    std::thread slow([&] {
        const auto program = cache.getOrCompile("slow", [&] {
            std::unique_lock<std::mutex> lock(m);
            entered = true;
            cv.notify_all();
            cv.wait(lock, [&] { return release; });
            return lower::CompiledProgram{};
        });
        EXPECT_NE(program, nullptr);
    });
    {
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [&] { return entered; });
    }

    // Over capacity while "slow" is in flight: the finished entry is
    // the one evicted, never the in-flight one.
    cache.getOrCompile("fast", [] { return lower::CompiledProgram{}; });
    EXPECT_EQ(cache.evictions(), 1);
    EXPECT_EQ(cache.size(), 1u);

    {
        std::lock_guard<std::mutex> lock(m);
        release = true;
        cv.notify_all();
    }
    slow.join();

    // "slow" survived to become the resident entry.
    bool compiled = false;
    cache.getOrCompile("slow", [&] {
        compiled = true;
        return lower::CompiledProgram{};
    });
    EXPECT_FALSE(compiled);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(CompileCacheLookup, FinishedEntryCountsOneHitAndRefreshesLru)
{
    lower::CompileCache cache;
    cache.setCapacity(2);
    EXPECT_EQ(cache.lookup("a"), nullptr); // absent: counts nothing
    EXPECT_EQ(cache.hits() + cache.misses() + cache.coalesced(), 0);

    const auto compile = [] { return lower::CompiledProgram{}; };
    const auto a = cache.getOrCompile("a", compile);
    cache.getOrCompile("b", compile);
    EXPECT_EQ(cache.lookup("a"), a);
    EXPECT_EQ(cache.hits(), 1);
    EXPECT_EQ(cache.misses(), 2);
    EXPECT_EQ(cache.coalesced(), 0);

    // The lookup made "a" the most recent, so "c" evicts "b".
    cache.getOrCompile("c", compile);
    EXPECT_EQ(cache.evictions(), 1);
    EXPECT_EQ(cache.lookup("b"), nullptr);
    EXPECT_EQ(cache.lookup("a"), a);
}

TEST(CompileCacheLookup, InFlightEntryIsAMissThatCountsNothing)
{
    lower::CompileCache cache;
    std::mutex m;
    std::condition_variable cv;
    bool entered = false, release = false;
    std::thread owner([&] {
        cache.getOrCompile("k", [&] {
            std::unique_lock<std::mutex> lock(m);
            entered = true;
            cv.notify_all();
            cv.wait(lock, [&] { return release; });
            return lower::CompiledProgram{};
        });
    });
    {
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [&] { return entered; });
    }

    // Its owner may still fail, so an in-flight entry is not a hit.
    EXPECT_EQ(cache.lookup("k"), nullptr);
    EXPECT_EQ(cache.hits(), 0);
    EXPECT_EQ(cache.misses(), 1);
    EXPECT_EQ(cache.coalesced(), 0);

    {
        std::lock_guard<std::mutex> lock(m);
        release = true;
        cv.notify_all();
    }
    owner.join();
    EXPECT_NE(cache.lookup("k"), nullptr);
    EXPECT_EQ(cache.hits(), 1);
}

// ---------------------------------------------------------------------
// The cache-hit path of runRequestGuarded

/** compile, simulate and profile requests for every Table III/IV
 *  program, shaped like the ones the pmcd clients send. */
std::vector<service::Request>
suiteRequests()
{
    std::vector<service::Request> out;
    const auto add = [&](const std::string &id, const std::string &source,
                         const ir::BuildOptions &build,
                         const std::string &target) {
        for (const auto verb : {service::Verb::Compile,
                                service::Verb::Simulate,
                                service::Verb::Profile}) {
            service::Request req;
            req.verb = verb;
            req.file = id + ".pm";
            req.source = source;
            req.entry = build.entry;
            req.params = build.paramConsts;
            req.optimize = true;
            req.target = target;
            out.push_back(req);
        }
    };
    for (const auto &bench : wl::tableIII())
        add(bench.id, bench.source, bench.buildOpts,
            lang::toString(bench.domain));
    for (const auto &app : wl::tableIV())
        add(app.id, app.source, app.buildOpts, "ALL");
    return out;
}

TEST(ServiceHitPath, HitRepliesAreByteIdenticalToCompiledOnes)
{
    for (const auto &req : suiteRequests()) {
        SCOPED_TRACE(req.file + " " +
                     std::string(service::toString(req.verb)));
        lower::CompileCache cache;
        const auto miss = service::runRequestGuarded(req, cache);
        const auto hit = service::runRequestGuarded(req, cache);
        EXPECT_EQ(cache.misses(), 1);
        EXPECT_EQ(cache.hits(), 1);
        EXPECT_FALSE(miss.cacheHit);
        EXPECT_TRUE(hit.cacheHit);

        lower::CompileCache fresh;
        const auto uncached = service::runRequest(req, fresh);
        EXPECT_EQ(uncached.program->str(), uncached.program->render());
        for (const auto *resp : {&miss, &hit}) {
            EXPECT_EQ(resp->code, 0);
            EXPECT_EQ(resp->error, "");
            EXPECT_EQ(resp->output, uncached.out);
            EXPECT_EQ(resp->profileJson, uncached.profileJson);
        }
    }
}

TEST(ServiceHitPath, SyntaxErrorsStayFirstAndNeverEnterTheCache)
{
    auto req = compileRequest("main( { broken", 0);
    std::string diagnostics;
    ASSERT_TRUE(service::preflightDiagnostics(req.source, diagnostics));

    // An unknown target skips the lookup: the syntax errors still win.
    req.target = "XX";
    lower::CompileCache cache;
    auto resp = service::runRequestGuarded(req, cache);
    EXPECT_EQ(resp.code, 1);
    EXPECT_EQ(resp.error, diagnostics);

    // With a known target the lookup misses, preflight rejects the
    // source, and nothing is compiled or cached — twice over.
    req.target = "DA";
    for (int i = 0; i < 2; ++i) {
        resp = service::runRequestGuarded(req, cache);
        EXPECT_EQ(resp.code, 1);
        EXPECT_EQ(resp.error, diagnostics);
    }
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.hits() + cache.misses(), 0);
}

} // namespace
} // namespace polymath
