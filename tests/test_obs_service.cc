/**
 * @file
 * Tests for service-grade telemetry (docs/OBSERVABILITY.md §"Service
 * telemetry"): the log-linear LatencyHistogram's bounded-error
 * quantiles and underflow bucket, the FlightRecorder ring,
 * RateWindow sliding rates, Prometheus text rendering, request-scoped
 * span routing, and — over the real socket — request-id attribution,
 * the dump/metrics verbs, one record and one count per cache hit
 * answered on its reader thread, slow-trace retention, and
 * concurrent-request span isolation (each retained trace holds exactly
 * its own spans, with deterministic span counts at any worker count).
 *
 * tools/check.sh runs this binary under ThreadSanitizer too: the
 * per-request thread-local trace sinks, the shared flight recorder, and
 * the metrics registry all race here by construction.
 */
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/json.h"
#include "core/strings.h"
#include "lower/compile_cache.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/request.h"
#include "obs/trace.h"
#include "service/client.h"
#include "service/exec.h"
#include "service/protocol.h"
#include "service/server.h"

namespace polymath {
namespace {

/** Unique socket path per test (the listener unlinks it on close). */
std::string
testSocket(const std::string &tag)
{
    return "/tmp/pm_test_obs_service_" + std::to_string(::getpid()) +
           "_" + tag + ".sock";
}

/** A tiny single-statement program, distinct per @p k. */
std::string
tinySource(int k)
{
    return "main(input float x, output float y) { y = x*" +
           std::to_string(k + 2) + "; }";
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
// LatencyHistogram

TEST(LatencyHistogram, ExactBelowTheLinearLimit)
{
    obs::LatencyHistogram hist;
    for (int64_t v = 1; v <= 100; ++v)
        hist.observe(v);
    EXPECT_EQ(hist.count(), 100);
    // Nearest-rank over 1..100 is exact in the linear range.
    EXPECT_DOUBLE_EQ(hist.quantile(0.50), 50.0);
    EXPECT_DOUBLE_EQ(hist.quantile(0.99), 99.0);
    EXPECT_DOUBLE_EQ(hist.quantile(1.0), 100.0);
    const auto stats = hist.stats();
    EXPECT_EQ(stats.count, 100);
    EXPECT_EQ(stats.sum, 5050);
    EXPECT_EQ(stats.min, 1);
    EXPECT_EQ(stats.max, 100);
    EXPECT_EQ(stats.underflow, 0);
    EXPECT_DOUBLE_EQ(stats.mean(), 50.5);
}

TEST(LatencyHistogram, BoundedRelativeErrorEverywhere)
{
    // Midpoint representation error is at most half a sub-bucket:
    // 1 / (2 * kSubBuckets) < 0.4% relative, at any magnitude.
    const double bound =
        1.0 / (2.0 * obs::LatencyHistogram::kSubBuckets) + 1e-12;
    for (int64_t v = 1; v < (int64_t{1} << 40); v = v * 3 + 7) {
        const int index = obs::LatencyHistogram::bucketIndex(v);
        const int64_t mid = obs::LatencyHistogram::bucketValue(index);
        const double rel = std::abs(static_cast<double>(mid - v)) /
                           static_cast<double>(v);
        EXPECT_LE(rel, bound) << "value " << v << " -> bucket " << index
                              << " midpoint " << mid;
    }
}

TEST(LatencyHistogram, BucketIndexIsMonotonic)
{
    int previous = -1;
    for (int64_t v = 1; v < (int64_t{1} << 24); v = v * 2 - v / 3 + 1) {
        const int index = obs::LatencyHistogram::bucketIndex(v);
        EXPECT_GE(index, previous) << "value " << v;
        EXPECT_LT(index, obs::LatencyHistogram::kBucketCount);
        previous = index;
    }
}

TEST(LatencyHistogram, UnderflowWalksAsZero)
{
    obs::LatencyHistogram hist;
    hist.observe(0);
    hist.observe(-17);
    hist.observe(1000);
    const auto stats = hist.stats();
    EXPECT_EQ(stats.count, 3);
    EXPECT_EQ(stats.underflow, 2);
    // Rank 1 and 2 of 3 are the underflow samples (quantile 0), rank 3
    // is the real one.
    EXPECT_DOUBLE_EQ(hist.quantile(0.5), 0.0);
    const double p999 = hist.quantile(0.999);
    EXPECT_NEAR(p999, 1000.0, 1000.0 * 0.004);
    hist.reset();
    EXPECT_EQ(hist.count(), 0);
    EXPECT_DOUBLE_EQ(hist.quantile(0.5), 0.0);
}

// ---------------------------------------------------------------------
// FlightRecorder / RateWindow

TEST(FlightRecorder, RingKeepsTheLastNOldestFirst)
{
    obs::FlightRecorder recorder(4);
    for (int i = 0; i < 10; ++i) {
        obs::RequestRecord record;
        record.requestId = format("r%d", i);
        recorder.push(std::move(record));
    }
    EXPECT_EQ(recorder.totalPushed(), 10u);
    const auto records = recorder.snapshot();
    ASSERT_EQ(records.size(), 4u);
    EXPECT_EQ(records[0].requestId, "r6");
    EXPECT_EQ(records[3].requestId, "r9");
    const auto dump = json::parse(recorder.json());
    EXPECT_EQ(dump.at("capacity").num(), 4.0);
    // "recorded" counts every push, including the six the ring dropped.
    EXPECT_EQ(dump.at("recorded").num(), 10.0);
    EXPECT_EQ(dump.at("records").arr().size(), 4u);
}

TEST(FlightRecorder, ZeroCapacityDisablesRecording)
{
    obs::FlightRecorder recorder(0);
    recorder.push(obs::RequestRecord{});
    EXPECT_TRUE(recorder.snapshot().empty());
}

TEST(RateWindow, SlidingWindowRate)
{
    obs::RateWindow window(10'000'000); // 10 s
    window.mark(0, 5);
    window.mark(0, 5); // coalesces with the previous mark
    EXPECT_DOUBLE_EQ(window.ratePerSecond(0), 1.0); // 10 events / 10 s
    window.mark(5'000'000, 10);
    EXPECT_DOUBLE_EQ(window.ratePerSecond(5'000'000), 2.0);
    // The t=0 marks age out of [t - 10s, t] past t = 10s.
    EXPECT_DOUBLE_EQ(window.ratePerSecond(10'000'001), 1.0);
    EXPECT_DOUBLE_EQ(window.ratePerSecond(15'000'001), 0.0);
}

// ---------------------------------------------------------------------
// Prometheus rendering

TEST(PrometheusText, RendersEveryInstrumentKind)
{
    obs::MetricsRegistry registry;
    registry.counter("service.server.completed").add(3);
    registry.gauge("service.cache.hit_rate").set(0.5);
    registry.latency("soc.partitions").observe(7);
    auto &lat = registry.latency("service.execute_us");
    lat.observe(100);
    lat.observe(200);
    const std::string text =
        obs::prometheusText(registry.snapshot());

    EXPECT_NE(text.find("# TYPE polymath_service_server_completed "
                        "counter\n"
                        "polymath_service_server_completed 3\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE polymath_service_cache_hit_rate gauge"),
              std::string::npos);
    EXPECT_NE(text.find("polymath_service_cache_hit_rate 0.5"),
              std::string::npos);
    EXPECT_NE(text.find("polymath_soc_partitions_count 1"),
              std::string::npos);
    EXPECT_NE(text.find("polymath_soc_partitions_sum 7"),
              std::string::npos);
    EXPECT_NE(
        text.find("polymath_service_execute_us{quantile=\"0.5\"}"),
        std::string::npos);
    EXPECT_NE(text.find("polymath_service_execute_us_count 2"),
              std::string::npos);
    EXPECT_NE(text.find("polymath_service_execute_us_sum 300"),
              std::string::npos);

    // Exposition-format hygiene: every line is a comment or
    // `name value` with a [a-zA-Z_:][a-zA-Z0-9_:]* name (labels aside).
    size_t start = 0;
    while (start < text.size()) {
        size_t end = text.find('\n', start);
        ASSERT_NE(end, std::string::npos) << "unterminated last line";
        const std::string line = text.substr(start, end - start);
        start = end + 1;
        if (line.empty() || line[0] == '#')
            continue;
        const size_t name_end = line.find_first_of(" {");
        ASSERT_NE(name_end, std::string::npos) << line;
        const std::string name = line.substr(0, name_end);
        EXPECT_EQ(name.rfind("polymath_", 0), 0u) << line;
        for (const char c : name)
            EXPECT_TRUE((c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == ':')
                << line;
    }
}

// ---------------------------------------------------------------------
// Request-scoped span routing

TEST(RequestTrace, ScopeRoutesSpansAndRestoresOnExit)
{
    // The global recorder stays disabled: only the installed
    // RequestTrace may see these spans.
    obs::RequestTrace outer("outer");
    {
        obs::RequestTraceScope outer_scope(outer);
        { obs::Span span("span:outer", "test"); }
        obs::RequestTrace inner("inner");
        {
            obs::RequestTraceScope inner_scope(inner);
            { obs::Span span("span:inner", "test"); }
        }
        // The outer sink is restored after the nested scope exits.
        { obs::Span span("span:outer2", "test"); }
        ASSERT_EQ(inner.events().size(), 1u);
        EXPECT_EQ(inner.events()[0].name, "span:inner");
    }
    ASSERT_EQ(outer.events().size(), 2u);
    EXPECT_EQ(outer.events()[0].name, "span:outer");
    EXPECT_EQ(outer.events()[1].name, "span:outer2");
    // No scope installed: the span is inactive and records nowhere.
    {
        obs::Span span("span:orphan", "test");
        EXPECT_FALSE(span.active());
    }
    EXPECT_EQ(outer.events().size(), 2u);
}

// ---------------------------------------------------------------------
// Attribution and the dump/metrics verbs, over the real socket

TEST(ServiceTelemetry, EveryResponseCarriesItsRequestId)
{
    service::ServerConfig config;
    config.socketPath = testSocket("ids");
    config.jobs = 2;
    config.flightEntries = 16;
    service::Server server(config);
    server.start();

    service::Client client(config.socketPath);
    std::set<std::string> seen;
    for (int i = 0; i < 4; ++i) {
        const auto resp = client.call(compileRequest(tinySource(i), i));
        EXPECT_TRUE(resp.ok);
        ASSERT_FALSE(resp.requestId.empty());
        // Server-assigned ids are unique per request.
        EXPECT_TRUE(seen.insert(resp.requestId).second)
            << resp.requestId;
    }
    // A client-supplied id is echoed verbatim, on work and non-work
    // verbs alike.
    auto tagged = compileRequest(tinySource(99), 99);
    tagged.requestId = "client-tag-1";
    EXPECT_EQ(client.call(tagged).requestId, "client-tag-1");
    service::Request stats_req;
    stats_req.verb = service::Verb::Stats;
    stats_req.requestId = "stats-tag";
    EXPECT_EQ(client.call(stats_req).requestId, "stats-tag");

    server.requestStop();
    server.wait();
}

TEST(ServiceTelemetry, DisabledTelemetryKeepsWireBytesIdentical)
{
    lower::CompileCache server_cache;
    service::ServerConfig config;
    config.socketPath = testSocket("plain");
    config.jobs = 2;
    config.cache = &server_cache;
    ASSERT_EQ(config.flightEntries, 0u); // library default: disabled
    service::Server server(config);
    server.start();

    service::Client client(config.socketPath);
    const auto req = compileRequest(tinySource(0), 5);
    const auto remote = client.call(req);
    EXPECT_TRUE(remote.requestId.empty());

    // The server writes exactly Response::json() + "\n"; rendering is
    // byte-stable, so comparing renderings compares wire bytes.
    lower::CompileCache local_cache;
    auto expected = service::runRequestGuarded(req, local_cache);
    expected.id = req.id;
    EXPECT_EQ(remote.json(), expected.json());

    server.requestStop();
    server.wait();
}

TEST(ServiceTelemetry, DumpRetainsSlowTracesWithOnlyOwnSpans)
{
    // A private cold cache: every request actually compiles (the
    // process-global cache may already hold sources other tests used,
    // and a sub-microsecond cache hit would not cross the slow-trace
    // threshold).
    lower::CompileCache server_cache;
    service::ServerConfig config;
    config.socketPath = testSocket("dump");
    config.jobs = 4;
    config.cache = &server_cache;
    config.flightEntries = 64;
    config.slowTraceUs = 1; // everything is "slow"
    service::Server server(config);
    server.start();

    // Two clients pipeline distinct sources so several requests compile
    // concurrently on the 4 workers; each retained trace must still
    // contain exactly the spans of its own request.
    constexpr int kPerClient = 8;
    std::map<std::string, int64_t> sent; // requestId -> req.id
    {
        service::Client a(config.socketPath);
        service::Client b(config.socketPath);
        for (int i = 0; i < kPerClient; ++i) {
            auto ra = compileRequest(tinySource(i), i);
            ra.requestId = "a" + std::to_string(i);
            a.send(ra);
            auto rb = compileRequest(tinySource(100 + i), i);
            rb.requestId = "b" + std::to_string(i);
            b.send(rb);
        }
        for (int i = 0; i < kPerClient; ++i) {
            service::Response ra;
            service::Response rb;
            ASSERT_TRUE(a.recv(ra));
            ASSERT_TRUE(b.recv(rb));
            EXPECT_TRUE(ra.ok);
            EXPECT_TRUE(rb.ok);
        }
    }

    service::Client control(config.socketPath);
    service::Request dump_req;
    dump_req.verb = service::Verb::Dump;
    const auto dump_resp = control.call(dump_req);
    ASSERT_TRUE(dump_resp.ok);
    const auto dump = json::parse(dump_resp.output);
    const auto &records = dump.at("records").arr();
    ASSERT_EQ(records.size(), 2u * kPerClient);

    // Every record retained its trace, and every trace contains exactly
    // one frontend pipeline — the same deterministic span-name counts
    // for every request, regardless of which worker ran it or what ran
    // concurrently. A leaked span from another request would break the
    // counts.
    std::map<std::string, int64_t> expected_counts;
    for (size_t r = 0; r < records.size(); ++r) {
        const auto &record = records[r];
        const std::string id = record.at("id").str();
        EXPECT_EQ(record.at("exit").num(), 0.0) << id;
        const auto &trace = record.at("trace").arr();
        ASSERT_FALSE(trace.empty()) << id;
        std::map<std::string, int64_t> counts;
        for (const auto &event : trace)
            ++counts[event.at("name").str()];
        EXPECT_EQ(counts["pmlang:parse"], 1) << id;
        EXPECT_EQ(counts["lower:compile"], 1) << id;
        if (r == 0)
            expected_counts = counts;
        else
            EXPECT_EQ(counts, expected_counts) << id;
    }

    server.requestStop();
    server.wait();
}

TEST(ServiceTelemetry, FastRequestsKeepOnlyTheScalarSummary)
{
    lower::CompileCache server_cache; // cold: the compile really runs
    service::ServerConfig config;
    config.socketPath = testSocket("fast");
    config.jobs = 1;
    config.cache = &server_cache;
    config.flightEntries = 8;
    ASSERT_EQ(config.slowTraceUs, 0); // default: retain no traces
    service::Server server(config);
    server.start();

    service::Client client(config.socketPath);
    EXPECT_TRUE(client.call(compileRequest(tinySource(0), 0)).ok);
    service::Request dump_req;
    dump_req.verb = service::Verb::Dump;
    const auto dump = json::parse(client.call(dump_req).output);
    const auto &records = dump.at("records").arr();
    ASSERT_EQ(records.size(), 1u);
    EXPECT_TRUE(records[0].at("trace").arr().empty());
    EXPECT_GT(records[0].at("execute_us").num(), 0.0);
    EXPECT_GT(records[0].at("bytes_out").num(), 0.0);
    EXPECT_EQ(records[0].at("backends").str(), "TABLA");

    server.requestStop();
    server.wait();
}

TEST(ServiceTelemetry, InlineHitsKeepTheirRecordsAndCounters)
{
    lower::CompileCache server_cache;
    service::ServerConfig config;
    config.socketPath = testSocket("inline_hits");
    config.jobs = 1;
    config.cache = &server_cache;
    config.flightEntries = 64;
    service::Server server(config);
    server.start();

    auto &registry = obs::MetricsRegistry::global();
    const int64_t completed_before =
        registry.counter("service.completed").value();
    const int64_t executed_before =
        registry.latency("service.execute_us").count();

    // One miss warms the cache; every later request on this idle
    // connection is a finished-entry hit its reader answers itself.
    constexpr int kHits = 8;
    service::Client client(config.socketPath);
    auto warm = compileRequest(tinySource(0), 0);
    warm.requestId = "warm";
    EXPECT_FALSE(client.call(warm).cacheHit);
    for (int i = 0; i < kHits; ++i) {
        auto req = compileRequest(tinySource(0), i + 1);
        req.requestId = "hit" + std::to_string(i);
        const auto resp = client.call(req);
        EXPECT_TRUE(resp.ok) << resp.error;
        EXPECT_TRUE(resp.cacheHit);
        EXPECT_EQ(resp.requestId, req.requestId);
    }

    EXPECT_EQ(registry.counter("service.completed").value() -
                  completed_before,
              kHits + 1);
    EXPECT_EQ(registry.latency("service.execute_us").count() -
                  executed_before,
              kHits + 1);

    service::Request dump_req;
    dump_req.verb = service::Verb::Dump;
    const auto dump = json::parse(client.call(dump_req).output);
    EXPECT_EQ(dump.at("recorded").num(), kHits + 1.0);
    std::map<std::string, int> records;
    for (const auto &record : dump.at("records").arr()) {
        const std::string id = record.at("id").str();
        ++records[id];
        EXPECT_EQ(record.at("exit").num(), 0.0) << id;
        EXPECT_EQ(record.at("backends").str(), "TABLA") << id;
        if (id != "warm") {
            EXPECT_EQ(record.at("cache_hits").num(), 1.0) << id;
            EXPECT_EQ(record.at("cache_misses").num(), 0.0) << id;
        }
    }
    EXPECT_EQ(records["warm"], 1);
    for (int i = 0; i < kHits; ++i)
        EXPECT_EQ(records["hit" + std::to_string(i)], 1) << i;
    EXPECT_EQ(records.size(), static_cast<size_t>(kHits + 1));

    server.requestStop();
    server.wait();
}

TEST(ServiceTelemetry, DseOnAnIdleConnectionRunsOnItsReader)
{
    lower::CompileCache server_cache;
    service::ServerConfig config;
    config.socketPath = testSocket("dse_reader");
    config.jobs = 1;
    config.cache = &server_cache;
    config.flightEntries = 16;
    config.slowTraceUs = 1; // keep every request's spans
    service::Server server(config);
    server.start();

    // On one idle connection: a dse (a miss), a simulate hit, and a
    // dse hit. The searches take a free slot on the connection's
    // reader; the simulation takes the pool's worker. Each retained
    // trace shows the thread that ran its request.
    service::Client client(config.socketPath);
    const std::vector<std::pair<std::string, service::Verb>> sent = {
        {"search", service::Verb::Dse},
        {"simulate", service::Verb::Simulate},
        {"again", service::Verb::Dse}};
    for (const auto &[id, verb] : sent) {
        auto req = compileRequest(tinySource(7), 0);
        req.verb = verb;
        req.requestId = id;
        const auto resp = client.call(req);
        ASSERT_TRUE(resp.ok) << resp.error;
        // A worker accounts its request just after the reply leaves;
        // until then the connection is not idle.
        while (server.stats().executing != 0)
            std::this_thread::yield();
    }

    service::Request dump_req;
    dump_req.verb = service::Verb::Dump;
    const auto dump = json::parse(client.call(dump_req).output);
    std::map<std::string, std::set<int64_t>> threads;
    for (const auto &record : dump.at("records").arr()) {
        for (const auto &event : record.at("trace").arr()) {
            threads[record.at("id").str()].insert(
                static_cast<int64_t>(event.at("tid").num()));
        }
    }
    ASSERT_EQ(threads.size(), 3u);
    ASSERT_EQ(threads["search"].size(), 1u);
    EXPECT_EQ(threads["again"], threads["search"]);
    EXPECT_NE(threads["simulate"], threads["search"])
        << "the searches ran on the pool's worker, not on their reader";

    server.requestStop();
    server.wait();
}

TEST(ServiceTelemetry, MetricsVerbExportsPrometheusAndJson)
{
    service::ServerConfig config;
    config.socketPath = testSocket("metrics");
    config.jobs = 2;
    config.flightEntries = 8;
    service::Server server(config);
    server.start();

    service::Client client(config.socketPath);
    EXPECT_TRUE(client.call(compileRequest(tinySource(0), 0)).ok);
    EXPECT_TRUE(client.call(compileRequest(tinySource(1), 1)).ok);

    service::Request metrics_req;
    metrics_req.verb = service::Verb::Metrics;
    const auto resp = client.call(metrics_req);
    ASSERT_TRUE(resp.ok);
    EXPECT_NE(resp.output.find("# TYPE polymath_service_server_"
                               "completed counter"),
              std::string::npos);
    EXPECT_NE(resp.output.find("polymath_service_server_completed 2"),
              std::string::npos);
    ASSERT_FALSE(resp.metricsJson.empty());
    const auto snapshot = json::parse(resp.metricsJson);
    EXPECT_EQ(snapshot.at("counters")
                  .at("service.server.completed")
                  .num(),
              2.0);
    // Inline verbs (stats/dump/metrics) are answered without entering
    // the work queue, so only the two compiles were offered.
    EXPECT_EQ(snapshot.at("counters").at("service.server.offered").num(),
              2.0);
    // Occupancy-style gauges are present and sane.
    EXPECT_GE(snapshot.at("gauges").at("service.rate.completed_per_s")
                  .num(),
              0.0);

    // Delta scrape: nothing completed since the scrape above, so the
    // completed-counter delta is zero while gauges stay instantaneous.
    service::Request delta_req;
    delta_req.verb = service::Verb::Metrics;
    delta_req.metricsDelta = true;
    EXPECT_TRUE(client.call(delta_req).ok); // baseline scrape
    const auto delta = json::parse(client.call(delta_req).metricsJson);
    EXPECT_EQ(delta.at("counters").at("service.server.completed").num(),
              0.0);

    server.requestStop();
    server.wait();
}

TEST(ServiceTelemetry, DumpWhenDisabledIsAStructuredError)
{
    service::ServerConfig config;
    config.socketPath = testSocket("nodump");
    config.jobs = 1;
    service::Server server(config);
    server.start();

    service::Client client(config.socketPath);
    service::Request dump_req;
    dump_req.verb = service::Verb::Dump;
    const auto resp = client.call(dump_req);
    EXPECT_FALSE(resp.ok);
    EXPECT_NE(resp.error.find("flight recorder disabled"),
              std::string::npos);

    server.requestStop();
    server.wait();
}

} // namespace
} // namespace polymath
