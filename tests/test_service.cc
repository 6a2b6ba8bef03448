/**
 * @file
 * Tests for the pmcd compile service (src/service/, docs/SERVICE.md) and
 * the CompileCache behaviors it depends on: wire-protocol round-trips,
 * server responses byte-identical to direct execution, structured errors
 * for malformed (and too deeply nested) request lines and too deep
 * expressions, round-robin fairness across client connections,
 * admission-control accounting with hits in the mix
 * (completed + rejected == offered, one cache count per completed
 * request), compile hits answered on their reader while the pool is
 * busy but never ahead of their own connection's earlier work,
 * simulate hits kept on the pool, dse searches on their reader bounded
 * by the same compute slots as the pool,
 * drain-before-shutdown, accepting again after descriptor exhaustion,
 * the failed-compile eviction race
 * regression, the LRU bound (in-flight entries never dropped), lookup()
 * semantics, the cache-hit path (byte-identical replies, syntax errors
 * first and never cached), the one-parse miss (the program preflight
 * parsed compiles to the same graph and reply), and cost ledgers kept
 * to the profile/dse request that wants them (no request leaves them on
 * for later requests or for other threads).
 *
 * tools/check.sh runs this binary under ThreadSanitizer as well: the
 * server's reader threads, pool workers, and shutdown path all race
 * here by construction.
 */
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/error.h"
#include "core/json.h"
#include "core/net.h"
#include "lower/compile_cache.h"
#include "obs/metrics.h"
#include "pmlang/parser.h"
#include "service/client.h"
#include "service/exec.h"
#include "service/protocol.h"
#include "service/server.h"
#include "soc/soc.h"
#include "srdfg/builder.h"
#include "srdfg/serialize.h"
#include "targets/common/cost_ledger.h"
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
 * A wider program (@p statements statements of many scalar ops each),
 * distinct per @p k — heavy enough that compiling it dominates the
 * microseconds it takes a reader thread to enqueue a burst of requests.
 */
std::string
wideSource(int k, int statements = 1)
{
    std::string outputs = "output float y";
    std::string body;
    for (int s = 0; s < statements; ++s) {
        const std::string y = s == 0 ? "y" : "y" + std::to_string(s);
        if (s > 0)
            outputs += ", output float " + y;
        std::string expr = "x*" + std::to_string(k + 2);
        for (int i = 0; i < 80; ++i)
            expr += " + x*" + std::to_string(k * 100 + i + 3 + s);
        body += " " + y + " = " + expr + ";";
    }
    return "main(input float x, " + outputs + ") {" + body + " }";
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

TEST(ServiceProtocol, RepeatedKeysKeepTheFirstAndUnknownKeysAreIgnored)
{
    const auto req = service::Request::fromJson(
        R"({"source":"a","verb":"simulate","future":[1,{"x":2}],)"
        R"("source":"b","id":4,"verb":"bogus","id":"five"})");
    EXPECT_EQ(req.source, "a");
    EXPECT_EQ(req.verb, service::Verb::Simulate);
    EXPECT_EQ(req.id, 4);
    const auto resp = service::Response::fromJson(
        R"({"output":"x","ok":true,"output":"y","extra":null})");
    EXPECT_EQ(resp.output, "x");
    EXPECT_TRUE(resp.ok);
    // A syntax error anywhere wins over a bad field before it.
    try {
        service::Request::fromJson(R"({"verb":"bogus","id":1,)");
        FAIL() << "expected UserError";
    } catch (const UserError &e) {
        EXPECT_EQ(std::string(e.what()).find("json:"), 0u) << e.what();
    }
}

TEST(ServiceProtocol, OutOfRangeNumbersAreRejected)
{
    // A double past int64 used to be cast anyway (undefined behaviour;
    // 1e300 echoed as id -9223372036854775808).
    for (const std::string &line :
         {std::string(R"({"verb":"compile","id":1e300})"),
          std::string(R"({"verb":"compile","id":-9007199254740994})"),
          std::string(R"({"verb":"compile","invocations":1e19})"),
          std::string(R"({"verb":"compile","params":{"n":1e30}})"),
          std::string(R"({"verb":"compile","params":{"n":0.5}})")}) {
        EXPECT_THROW(service::Request::fromJson(line), UserError) << line;
    }
    EXPECT_THROW(service::Response::fromJson(R"({"id":1e300})"), UserError);

    // The ends of the exact range round-trip.
    for (const int64_t id : {json::kMaxExactInt, -json::kMaxExactInt}) {
        service::Request req;
        req.id = id;
        req.params = {{"n", id}};
        const auto back = service::Request::fromJson(req.json());
        EXPECT_EQ(back.id, id);
        EXPECT_EQ(back.params, req.params);
        service::Response resp;
        resp.id = id;
        EXPECT_EQ(service::Response::fromJson(resp.json()).id, id);
    }
    EXPECT_EQ(service::Request::fromJson(
                  R"({"verb":"compile","id":9007199254740992})")
                  .id,
              int64_t{1} << 53);
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
    std::promise<void> draining;

    std::thread heavy([&] {
        service::Client client(config.socketPath);
        for (int i = 0; i < kBacklog; ++i)
            client.send(compileRequest(wideSource(i), i));
        for (int i = 0; i < kBacklog; ++i) {
            service::Response resp;
            const bool received = client.recv(resp);
            if (i == 0)
                draining.set_value();
            ASSERT_TRUE(received);
            EXPECT_TRUE(resp.ok) << resp.error;
        }
        heavy_done = Clock::now();
    });

    // The light client connects once the heavy backlog has started to
    // drain (its first reply is in), so the check does not depend on how
    // fast a compile is. With FIFO dispatch its lone request would wait
    // behind the rest of the backlog; round-robin pulls it within ~one
    // slot.
    std::thread light([&] {
        draining.get_future().wait();
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

    // One warm source, so the burst mixes hits into its misses.
    const auto warm = compileRequest(tinySource(7), 1000);
    {
        service::Client client(config.socketPath);
        const auto resp = client.call(warm);
        ASSERT_TRUE(resp.ok) << resp.error;
        EXPECT_FALSE(resp.cacheHit);
    }

    // Connection A pipelines misses with a hit every fourth request;
    // its hits sit behind A's own queued work, so they queue too.
    // Connection B meanwhile sends hits one at a time, which its idle
    // connection may run inline. Both face the same admission bound.
    constexpr int kBurst = 32;
    constexpr int kSideHits = 16;
    int64_t rejected = 0;
    int64_t completed = 0;
    std::mutex tally_mutex;
    const auto tally = [&](const service::Response &resp) {
        std::lock_guard<std::mutex> lock(tally_mutex);
        if (resp.rejected) {
            ++rejected;
            EXPECT_EQ(resp.code, 3);
            EXPECT_FALSE(resp.ok);
            EXPECT_FALSE(resp.error.empty());
        } else {
            ++completed;
            EXPECT_TRUE(resp.ok) << resp.error;
        }
    };
    std::thread side([&] {
        service::Client client(config.socketPath);
        for (int i = 0; i < kSideHits; ++i) {
            auto req = warm;
            req.id = 2000 + i;
            const auto resp = client.call(req);
            EXPECT_EQ(resp.id, req.id);
            EXPECT_TRUE(resp.rejected || resp.cacheHit);
            tally(resp);
        }
    });
    {
        service::Client client(config.socketPath);
        for (int i = 0; i < kBurst; ++i) {
            if (i % 4 == 3) {
                auto req = warm;
                req.id = i;
                client.send(req);
            } else {
                client.send(compileRequest(wideSource(i), i));
            }
        }
        for (int i = 0; i < kBurst; ++i) {
            service::Response resp;
            if (!client.recv(resp)) {
                ADD_FAILURE() << "connection closed after " << i
                              << " replies";
                break;
            }
            tally(resp);
        }
    }
    side.join();
    // A burst of 32 against an admission bound of 1 must shed load...
    EXPECT_GT(rejected, 0);
    EXPECT_EQ(rejected + completed, kBurst + kSideHits);

    // ...and the server's books must agree exactly with the client's:
    // conservation (completed + rejected == offered), checked on the
    // post-drain shutdown stats. Each admitted request was looked up
    // once and a rejected one touched no cache counter, so the cache's
    // hits and misses add up to exactly the completed requests.
    service::Client control(config.socketPath);
    service::Request shutdown_req;
    shutdown_req.verb = service::Verb::Shutdown;
    const auto bye = control.call(shutdown_req);
    EXPECT_TRUE(bye.ok);
    EXPECT_DOUBLE_EQ(bye.stats.at("offered"),
                     static_cast<double>(1 + kBurst + kSideHits));
    EXPECT_DOUBLE_EQ(bye.stats.at("rejected"),
                     static_cast<double>(rejected));
    EXPECT_DOUBLE_EQ(bye.stats.at("completed"),
                     static_cast<double>(1 + completed));
    EXPECT_DOUBLE_EQ(bye.stats.at("offered"),
                     bye.stats.at("completed") + bye.stats.at("rejected"));
    EXPECT_DOUBLE_EQ(bye.stats.at("cacheHits") + bye.stats.at("cacheMisses"),
                     bye.stats.at("completed"));
    EXPECT_DOUBLE_EQ(bye.stats.at("pending"), 0.0);
    EXPECT_DOUBLE_EQ(bye.stats.at("executing"), 0.0);
    server.wait();
}

TEST(ServiceServer, HitIsAnsweredWhileThePoolIsBusy)
{
    using Clock = std::chrono::steady_clock;
    lower::CompileCache cache;
    service::ServerConfig config;
    config.socketPath = testSocket("busy_pool");
    config.jobs = 1; // the one worker is what the slow miss occupies
    config.cache = &cache;
    service::Server server(config);
    server.start();

    const auto warm = compileRequest(tinySource(3), 1);
    service::Client hitter(config.socketPath);
    ASSERT_TRUE(hitter.call(warm).ok);

    // Connection A's slow miss takes the only worker...
    Clock::time_point miss_done;
    service::Client slow(config.socketPath);
    slow.send(compileRequest(wideSource(42, 32), 2));
    std::thread waiter([&] {
        // Stamped at the reply's first byte: parsing the long listing
        // must not count against the miss.
        char first = 0;
        ASSERT_EQ(::recv(slow.fd(), &first, 1, MSG_PEEK), 1);
        miss_done = Clock::now();
        service::Response resp;
        ASSERT_TRUE(slow.recv(resp));
        EXPECT_TRUE(resp.ok) << resp.error;
        EXPECT_FALSE(resp.cacheHit);
    });
    // Admitted, dequeued, and the only thing running: the warm-up may
    // still hold `executing` for a moment after its reply went out.
    for (;;) {
        const auto stats = server.stats();
        if (stats.accepted == 2 && stats.pending == 0 &&
            stats.executing == 1)
            break;
        std::this_thread::yield();
    }

    // ...and connection B's hit does not wait for it: its reader
    // answers it without the pool.
    const auto hit = hitter.call(warm);
    const Clock::time_point hit_done = Clock::now();
    EXPECT_TRUE(hit.ok) << hit.error;
    EXPECT_TRUE(hit.cacheHit);
    waiter.join();
    EXPECT_LT(hit_done.time_since_epoch().count(),
              miss_done.time_since_epoch().count())
        << "a cache hit waited behind another connection's miss";

    server.requestStop();
    server.wait();
}

TEST(ServiceServer, PipelinedHitNeverOvertakesItsConnection)
{
    lower::CompileCache cache;
    service::ServerConfig config;
    config.socketPath = testSocket("no_overtake");
    config.jobs = 1;
    config.cache = &cache;
    service::Server server(config);
    server.start();

    const auto warm = compileRequest(tinySource(5), 1);
    service::Client client(config.socketPath);
    ASSERT_TRUE(client.call(warm).ok);

    // A hit pipelined behind a miss on the same connection is answered
    // after that miss, never before it.
    client.send(compileRequest(wideSource(43), 2));
    auto again = warm;
    again.id = 3;
    client.send(again);
    service::Response first;
    service::Response second;
    ASSERT_TRUE(client.recv(first));
    ASSERT_TRUE(client.recv(second));
    EXPECT_EQ(first.id, 2);
    EXPECT_FALSE(first.cacheHit);
    EXPECT_EQ(second.id, 3);
    EXPECT_TRUE(second.cacheHit);

    server.requestStop();
    server.wait();
}

TEST(ServiceServer, SimulateHitTakesThePool)
{
    lower::CompileCache cache;
    service::ServerConfig config;
    config.socketPath = testSocket("simulate_pool");
    config.jobs = 1; // the one worker is what the slow miss occupies
    config.cache = &cache;
    service::Server server(config);
    server.start();

    auto simulate = compileRequest(tinySource(4), 1);
    simulate.verb = service::Verb::Simulate;
    simulate.invocations = 10;
    service::Client hitter(config.socketPath);
    const auto warm = hitter.call(simulate);
    ASSERT_TRUE(warm.ok) << warm.error;
    EXPECT_FALSE(warm.cacheHit);

    service::Client slow(config.socketPath);
    slow.send(compileRequest(wideSource(44, 16), 2));
    for (;;) {
        const auto stats = server.stats();
        if (stats.accepted == 2 && stats.pending == 0 &&
            stats.executing == 1)
            break;
        std::this_thread::yield();
    }

    // A simulation computes even on a hit, so it is not run on its
    // reader: it waits for the one worker, which answers the miss
    // first.
    simulate.id = 3;
    const auto hit = hitter.call(simulate);
    EXPECT_TRUE(hit.ok) << hit.error;
    EXPECT_TRUE(hit.cacheHit);
    char first = 0;
    EXPECT_EQ(::recv(slow.fd(), &first, 1, MSG_PEEK | MSG_DONTWAIT), 1)
        << "a simulate hit ran while the miss held the only worker";
    service::Response resp;
    ASSERT_TRUE(slow.recv(resp));
    EXPECT_TRUE(resp.ok) << resp.error;
    EXPECT_FALSE(resp.cacheHit);

    server.requestStop();
    server.wait();
}

/** A dse request (TABLA's small space) over @p source. */
service::Request
dseRequest(const std::string &source, int64_t id)
{
    auto req = compileRequest(source, id);
    req.verb = service::Verb::Dse;
    return req;
}

TEST(ServiceServer, DseWaitsForAComputeSlot)
{
    lower::CompileCache cache;
    service::ServerConfig config;
    config.socketPath = testSocket("dse_slot");
    config.jobs = 1; // the one slot is what the slow miss occupies
    config.cache = &cache;
    service::Server server(config);
    server.start();

    auto search = dseRequest(tinySource(6), 1);
    service::Client searcher(config.socketPath);
    const auto warm = searcher.call(search);
    ASSERT_TRUE(warm.ok) << warm.error;

    service::Client slow(config.socketPath);
    slow.send(compileRequest(wideSource(45, 16), 2));
    for (;;) {
        const auto stats = server.stats();
        if (stats.accepted == 2 && stats.pending == 0 &&
            (stats.executing == 1 || stats.completed == 2))
            break;
        std::this_thread::yield();
    }

    // An idle connection's dse runs on its reader only with a free
    // slot; the miss holds the only one, so the search waits for it.
    search.id = 3;
    const auto searched = searcher.call(search);
    EXPECT_TRUE(searched.ok) << searched.error;
    EXPECT_EQ(searched.output, warm.output);
    char first = 0;
    EXPECT_EQ(::recv(slow.fd(), &first, 1, MSG_PEEK | MSG_DONTWAIT), 1)
        << "a dse ran while a miss held the only compute slot";
    service::Response resp;
    ASSERT_TRUE(slow.recv(resp));
    EXPECT_TRUE(resp.ok) << resp.error;

    server.requestStop();
    server.wait();
}

TEST(ServiceServer, PooledWorkWaitsForADseOnItsReader)
{
    lower::CompileCache cache;
    service::ServerConfig config;
    config.socketPath = testSocket("dse_reader");
    config.jobs = 1;
    config.cache = &cache;
    service::Server server(config);
    server.start();

    // On an idle server the search takes the only slot on its reader;
    // compiling its wide program first keeps it there for a while.
    service::Client searcher(config.socketPath);
    searcher.send(dseRequest(wideSource(46, 32), 1));
    for (;;) {
        const auto stats = server.stats();
        if (stats.accepted == 1 &&
            (stats.executing == 1 || stats.completed == 1))
            break;
        std::this_thread::yield();
    }

    // A miss on another connection goes to the pool, whose worker waits
    // for the reader's slot: the tiny compile is answered second.
    service::Client other(config.socketPath);
    const auto compiled = other.call(compileRequest(tinySource(9), 2));
    EXPECT_TRUE(compiled.ok) << compiled.error;
    EXPECT_FALSE(compiled.cacheHit);
    char first = 0;
    EXPECT_EQ(::recv(searcher.fd(), &first, 1, MSG_PEEK | MSG_DONTWAIT), 1)
        << "a pooled miss ran while a dse held the only compute slot";
    service::Response searched;
    ASSERT_TRUE(searcher.recv(searched));
    EXPECT_TRUE(searched.ok) << searched.error;

    server.requestStop();
    server.wait();
}

TEST(ServiceServer, ConcurrentDseRepliesMatchDirectExecution)
{
    lower::CompileCache cache;
    service::ServerConfig config;
    config.socketPath = testSocket("dse_concurrent");
    config.jobs = 2; // fewer slots than connections: some searches queue
    config.cache = &cache;
    service::Server server(config);
    server.start();

    // Four closed-loop connections: three search, one compiles misses.
    // Readers and workers share the two slots; every reply must still
    // be the bytes of a local run, and the books must balance.
    constexpr int kRounds = 6;
    std::vector<service::Request> searches;
    for (int k = 0; k < 3; ++k)
        searches.push_back(dseRequest(tinySource(20 + k), k));
    std::vector<std::string> expected;
    for (const auto &req : searches) {
        lower::CompileCache local_cache;
        const auto local = service::runRequestGuarded(req, local_cache);
        ASSERT_TRUE(local.ok) << local.error;
        expected.push_back(local.output);
    }
    std::vector<std::thread> clients;
    for (size_t k = 0; k < searches.size(); ++k) {
        clients.emplace_back([&, k] {
            service::Client client(config.socketPath);
            for (int round = 0; round < kRounds; ++round) {
                const auto resp = client.call(searches[k]);
                EXPECT_TRUE(resp.ok) << resp.error;
                EXPECT_EQ(resp.output, expected[k]);
            }
        });
    }
    clients.emplace_back([&] {
        service::Client client(config.socketPath);
        for (int round = 0; round < kRounds; ++round) {
            const auto resp =
                client.call(compileRequest(wideSource(200 + round), round));
            EXPECT_TRUE(resp.ok) << resp.error;
        }
    });
    for (auto &client : clients)
        client.join();

    service::Client control(config.socketPath);
    service::Request shutdown_req;
    shutdown_req.verb = service::Verb::Shutdown;
    const auto bye = control.call(shutdown_req);
    EXPECT_TRUE(bye.ok);
    const double sent = 4.0 * kRounds;
    EXPECT_DOUBLE_EQ(bye.stats.at("offered"), sent);
    EXPECT_DOUBLE_EQ(bye.stats.at("completed"), sent);
    EXPECT_DOUBLE_EQ(bye.stats.at("cacheHits") + bye.stats.at("cacheMisses"),
                     sent);
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

/** Polls @p done every millisecond for up to five seconds. */
template <typename Pred>
bool
eventually(Pred done)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!done()) {
        if (std::chrono::steady_clock::now() > deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
}

/** Lowers this process's RLIMIT_NOFILE soft limit; restores it on
 *  destruction. */
class FdLimit
{
  public:
    explicit FdLimit(rlim_t soft)
    {
        ok_ = ::getrlimit(RLIMIT_NOFILE, &saved_) == 0;
        rlimit low = saved_;
        low.rlim_cur = soft;
        ok_ = ok_ && ::setrlimit(RLIMIT_NOFILE, &low) == 0;
    }
    ~FdLimit() { ::setrlimit(RLIMIT_NOFILE, &saved_); }
    FdLimit(const FdLimit &) = delete;
    FdLimit &operator=(const FdLimit &) = delete;

    bool ok() const { return ok_; }

  private:
    rlimit saved_{};
    bool ok_ = false;
};

/** Descriptor numbers below @p limit that are not open. */
int
freeFdsBelow(int limit)
{
    int free = 0;
    for (int fd = 0; fd < limit; ++fd)
        free += ::fcntl(fd, F_GETFD) == -1 ? 1 : 0;
    return free;
}

TEST(ServiceServer, AcceptsAgainAfterDescriptorExhaustion)
{
    service::ServerConfig config;
    config.socketPath = testSocket("emfile");
    config.jobs = 1;
    service::Server server(config);
    server.start();
    const obs::Counter &accept_errors =
        obs::MetricsRegistry::global().counter("service.accept_errors");
    const int64_t errors_before = accept_errors.value();

    // The clients share the server's descriptor table; a low limit lets
    // a few of them fill it. Linux's accept() takes a descriptor before
    // it waits, so a server blocked in accept holds one. With an even
    // number of free slots, each client and its accepted connection
    // take two, and the server's next accept finds none: EMFILE. (With
    // an odd number the server could hold the last slot and the client
    // fail first.)
    const int lowest_free = ::open("/dev/null", O_RDONLY);
    ASSERT_GE(lowest_free, 0);
    ::close(lowest_free);
    int limit = lowest_free + 24;
    while (freeFdsBelow(limit) % 2 != 0)
        ++limit;
    std::vector<std::unique_ptr<service::Client>> clients;
    {
        FdLimit low(static_cast<rlim_t>(limit));
        ASSERT_TRUE(low.ok());
        for (int i = 0; i < limit; ++i) {
            try {
                clients.push_back(
                    std::make_unique<service::Client>(config.socketPath));
            } catch (const UserError &) {
                break; // EMFILE in the client: the table is full
            }
            ASSERT_TRUE(eventually([&] {
                return server.stats().connections ==
                           static_cast<int64_t>(clients.size()) ||
                       accept_errors.value() > errors_before;
            }));
        }
        ASSERT_LT(clients.size(), static_cast<size_t>(limit));
        ASSERT_TRUE(eventually(
            [&] { return accept_errors.value() > errors_before; }));
        // Connections already accepted are served meanwhile.
        EXPECT_TRUE(
            clients.back()->call(compileRequest(tinySource(1), 2)).ok);

        // A client in another process frees only its own descriptor when
        // it leaves. Model that with dup2, which closes the oldest
        // client's socket and fills its slot in one step: the server
        // must close the dead connection's descriptor itself, though it
        // cannot accept.
        ASSERT_GE(clients.size(), 2u);
        ASSERT_EQ(::dup2(clients[1]->fd(), clients[0]->fd()),
                  clients[0]->fd());
        EXPECT_EQ(freeFdsBelow(limit), 0);
        EXPECT_TRUE(eventually([&] { return freeFdsBelow(limit) > 0; }));

        clients.clear();
        service::Client fresh(config.socketPath);
        const timeval timeout{5, 0};
        ASSERT_EQ(::setsockopt(fresh.fd(), SOL_SOCKET, SO_RCVTIMEO,
                               &timeout, sizeof(timeout)),
                  0);
        service::Request stats;
        stats.verb = service::Verb::Stats;
        fresh.send(stats);
        service::Response resp;
        ASSERT_TRUE(fresh.recv(resp)) << "no reply within 5 s";
        EXPECT_DOUBLE_EQ(resp.stats.at("offered"),
                         resp.stats.at("completed") +
                             resp.stats.at("rejected"));
    }

    // Back at the old limit, the daemon still serves.
    service::Client client(config.socketPath);
    EXPECT_TRUE(client.call(compileRequest(tinySource(0), 1)).ok);
    server.requestStop();
    server.wait();
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

TEST(ServiceHitPath, MissCompilesThePreflightProgram)
{
    for (const auto &req : suiteRequests()) {
        SCOPED_TRACE(req.file + " " +
                     std::string(service::toString(req.verb)));
        std::string diagnostics;
        std::shared_ptr<const lang::Program> parsed;
        ASSERT_FALSE(
            service::preflightDiagnostics(req.source, diagnostics, &parsed));
        EXPECT_EQ(diagnostics, "");
        ASSERT_NE(parsed, nullptr);
        if (req.verb == service::Verb::Compile) {
            ir::BuildOptions build;
            build.entry = req.entry;
            build.paramConsts = req.params;
            EXPECT_EQ(ir::toJson(*ir::compileToSrdfg(parsed, build)),
                      ir::toJson(*ir::compileToSrdfg(req.source, build)));
        }

        lower::CompileCache cache;
        const auto miss = service::runRequestGuarded(req, cache);
        lower::CompileCache fresh;
        const auto uncached = service::runRequest(req, fresh);
        EXPECT_EQ(cache.misses(), 1);
        EXPECT_FALSE(miss.cacheHit);
        EXPECT_EQ(miss.code, 0);
        EXPECT_EQ(miss.error, "");
        EXPECT_EQ(miss.output, uncached.out);
        EXPECT_EQ(miss.profileJson, uncached.profileJson);
    }

    // A source with errors hands back no program.
    std::string diagnostics;
    std::shared_ptr<const lang::Program> parsed;
    EXPECT_TRUE(service::preflightDiagnostics("main( { broken", diagnostics,
                                              &parsed));
    EXPECT_EQ(parsed, nullptr);
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

// ---------------------------------------------------------------------
// Cost ledgers are per request

/** A Table III program's @p verb request (a small-space grid for dse). */
service::Request
tableIIIRequest(service::Verb verb)
{
    const auto &bench = wl::tableIII().front();
    service::Request req;
    req.verb = verb;
    req.file = bench.id + ".pm";
    req.source = bench.source;
    req.entry = bench.buildOpts.entry;
    req.params = bench.buildOpts.paramConsts;
    req.optimize = true;
    req.target = lang::toString(bench.domain);
    return req;
}

/** Whether any partition of a SoC run of @p program carries a ledger. */
bool
simulationHasLedger(const lower::CompiledProgram &program)
{
    soc::SocRuntime runtime;
    const auto sim = runtime.execute(program, target::WorkloadProfile{});
    for (const auto &partition : sim.partitions) {
        if (partition.ledger)
            return true;
    }
    return sim.total.ledger != nullptr;
}

TEST(ServiceProfiling, ProfileAndDseRequestsLeaveLedgersOff)
{
    ASSERT_FALSE(target::profilingEnabled());
    lower::CompileCache cache;
    const auto profiled = service::runRequest(
        tableIIIRequest(service::Verb::Profile), cache);
    EXPECT_NE(profiled.profileJson.find("\"entries\""), std::string::npos);
    EXPECT_FALSE(target::profilingEnabled());
    EXPECT_FALSE(target::ProfilingScope::active());

    const auto searched =
        service::runRequest(tableIIIRequest(service::Verb::Dse), cache);
    EXPECT_NE(searched.out.find("best configs:"), std::string::npos);
    EXPECT_FALSE(target::profilingEnabled());
    EXPECT_FALSE(target::ProfilingScope::active());

    const auto simulated = service::runRequest(
        tableIIIRequest(service::Verb::Simulate), cache);
    EXPECT_NE(simulated.out.find("simulated: "), std::string::npos);
    EXPECT_FALSE(simulationHasLedger(*simulated.program));
}

TEST(ServiceProfiling, ProfileRequestLeavesOtherThreadsWithoutLedgers)
{
    ASSERT_FALSE(target::profilingEnabled());
    lower::CompileCache cache;
    const auto program =
        service::runRequest(tableIIIRequest(service::Verb::Simulate), cache)
            .program;
    ASSERT_NE(program, nullptr);

    // One thread serves profile requests while the other simulates; the
    // simulating thread keeps going until the profiler is done, then
    // simulates once more.
    std::atomic<bool> profiling_done{false};
    int ledgers_seen = 0; // read after the join
    std::thread simulator([&] {
        bool last = false;
        while (!last) {
            last = profiling_done.load();
            if (simulationHasLedger(*program))
                ++ledgers_seen;
        }
    });
    for (int i = 0; i < 20; ++i) {
        const auto profiled = service::runRequest(
            tableIIIRequest(service::Verb::Profile), cache);
        EXPECT_NE(profiled.profileJson.find("\"entries\""),
                  std::string::npos);
    }
    profiling_done = true;
    simulator.join();
    EXPECT_EQ(ledgers_seen, 0);
    EXPECT_FALSE(target::profilingEnabled());
}

} // namespace
} // namespace polymath
