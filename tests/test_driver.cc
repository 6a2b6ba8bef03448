/**
 * @file
 * Suite-driver tests: thread-pool parallel map semantics, the
 * content-addressed compile cache (memoization, single-flight coalescing,
 * failure eviction), and the two properties the bench harness depends on:
 * -j1 and -jN runs produce byte-identical reports, and a repeated
 * workload hits the cache at >= 50%.
 */
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <gtest/gtest.h>
#include <thread>
#include <vector>

#include "core/strings.h"
#include "core/thread_pool.h"
#include "driver.h"
#include "lower/compile_cache.h"
#include "soc/soc.h"
#include "targets/common/backend.h"
#include "workloads/suite.h"

namespace polymath {
namespace {

// --- thread pool / parallel map ---------------------------------------------

TEST(ThreadPool, ParallelMapPreservesIndexOrder)
{
    for (const int jobs : {1, 2, 8}) {
        const auto out =
            core::parallelMap(jobs, 100, [](int64_t i) { return i * i; });
        ASSERT_EQ(out.size(), 100u) << "jobs=" << jobs;
        for (int64_t i = 0; i < 100; ++i)
            EXPECT_EQ(out[static_cast<size_t>(i)], i * i)
                << "jobs=" << jobs;
    }
}

TEST(ThreadPool, ParallelMapRunsEmptyAndSingleton)
{
    EXPECT_TRUE(
        core::parallelMap(4, 0, [](int64_t i) { return i; }).empty());
    const auto one = core::parallelMap(4, 1, [](int64_t) { return 7; });
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0], 7);
}

TEST(ThreadPool, ParallelMapPropagatesExceptions)
{
    EXPECT_THROW(core::parallelMap(4, 16,
                                   [](int64_t i) {
                                       if (i == 11)
                                           fatal("boom");
                                       return i;
                                   }),
                 UserError);
}

TEST(ThreadPool, ResolveJobsSemantics)
{
    EXPECT_GE(core::resolveJobs(0), 1);  // 0 = all hardware threads
    EXPECT_GE(core::resolveJobs(-3), 1);
    EXPECT_EQ(core::resolveJobs(4), 4);  // oversubscription allowed
    EXPECT_EQ(core::resolveJobs(1 << 20), core::kMaxJobs);
}

TEST(ThreadPool, DefaultJobsReadsEnvironment)
{
    const char *saved = std::getenv("POLYMATH_JOBS");
    const std::string restore = saved ? saved : "";

    ::setenv("POLYMATH_JOBS", "7", 1);
    EXPECT_EQ(core::defaultJobs(), 7);
    ::setenv("POLYMATH_JOBS", "0", 1); // 0 = all hardware threads
    EXPECT_GE(core::defaultJobs(), 1);
    ::setenv("POLYMATH_JOBS", "not-a-number", 1); // malformed => serial
    EXPECT_EQ(core::defaultJobs(), 1);
    ::unsetenv("POLYMATH_JOBS");
    EXPECT_EQ(core::defaultJobs(), 1);

    if (saved)
        ::setenv("POLYMATH_JOBS", restore.c_str(), 1);
}

TEST(Driver, ParsesJobsFlags)
{
    const char *saved = std::getenv("POLYMATH_JOBS");
    ::unsetenv("POLYMATH_JOBS");

    auto parse = [](std::vector<const char *> argv) {
        argv.insert(argv.begin(), "bench");
        return bench::parseDriverArgs(
            static_cast<int>(argv.size()),
            const_cast<char **>(argv.data()));
    };
    EXPECT_EQ(parse({}).jobs, 1);
    EXPECT_EQ(parse({"-j", "4"}).jobs, 4);
    EXPECT_EQ(parse({"-j8"}).jobs, 8);
    EXPECT_EQ(parse({"--jobs", "3"}).jobs, 3);
    EXPECT_EQ(parse({"--jobs=5"}).jobs, 5);
    EXPECT_GE(parse({"-j0"}).jobs, 1); // 0 = all hardware threads
    EXPECT_FALSE(parse({"-j2"}).stats);
    EXPECT_TRUE(parse({"--driver-stats"}).stats);
    EXPECT_THROW(parse({"-j", "x"}), UserError);
    EXPECT_THROW(parse({"--jobs=-2"}), UserError);

    if (saved)
        ::setenv("POLYMATH_JOBS", saved, 1);
}

// --- compile cache -----------------------------------------------------------

TEST(CompileCache, KeyCapturesAllCompilationInputs)
{
    const auto &registry = target::standardRegistry();
    const std::string src =
        "main(input float x, output float y) { y = x + 1; }";
    const ir::BuildOptions opts;

    const auto base =
        lower::compileCacheKey(src, opts, lang::Domain::None, registry);
    EXPECT_EQ(base,
              lower::compileCacheKey(src, opts, lang::Domain::None,
                                     registry));

    ir::BuildOptions other_entry = opts;
    other_entry.entry = "other";
    ir::BuildOptions other_params = opts;
    other_params.paramConsts["n"] = 4;
    const std::string keys[] = {
        lower::compileCacheKey(src + " ", opts, lang::Domain::None,
                               registry),
        lower::compileCacheKey(src, other_entry, lang::Domain::None,
                               registry),
        lower::compileCacheKey(src, other_params, lang::Domain::None,
                               registry),
        lower::compileCacheKey(src, opts, lang::Domain::DSP, registry),
    };
    for (const auto &key : keys) {
        EXPECT_NE(key, base);
        EXPECT_NE(lower::contentHash(key), lower::contentHash(base));
    }
}

TEST(CompileCache, FreshRegistryIsSafeToShareAcrossThreads)
{
    // Om and the key text are built in add(); a lazily filled Om was
    // written by whichever thread read it first (TSan preset races it).
    const auto &registry = target::standardRegistry();
    const std::string src =
        "main(input float x, output float y) { y = x + 1; }";
    constexpr size_t kThreads = 8;
    std::vector<std::string> seen(kThreads);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            std::string om;
            for (const auto &[domain, ops] : registry.supportedOpsByDomain())
                om += lang::toString(domain) + ":" +
                      std::to_string(ops.sortedNames().size()) + ";";
            seen[t] = om + lower::compileCacheKey(src, {}, lang::Domain::DA,
                                                  registry);
        });
    }
    for (auto &thread : threads)
        thread.join();
    for (const auto &s : seen)
        EXPECT_EQ(s, seen.front());
    EXPECT_EQ(registry.supportedOpsByDomain().size(), 5u); // RBT GA DA DSP DL
}

TEST(CompileCache, SharedProgramRendersItsListingOnceAcrossThreads)
{
    // Cache hits hand every request the same program; the first str()
    // renders the listing and every thread must get those same bytes
    // (TSan preset races the lazy render).
    lower::CompileCache cache;
    const auto &registry = target::standardRegistry();
    const auto &bench = wl::tableIII().front();
    const auto program = wl::compileBenchmarkCached(
        bench.source, bench.buildOpts, registry, bench.domain, cache);
    constexpr size_t kThreads = 8;
    std::vector<const std::string *> seen(kThreads);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] { seen[t] = &program->str(); });
    for (auto &thread : threads)
        thread.join();
    for (const auto *listing : seen)
        EXPECT_EQ(listing, seen.front()); // one shared string
    EXPECT_EQ(*seen.front(), program->render());
}

TEST(CompileCache, SecondCompileReturnsMemoizedArtifact)
{
    lower::CompileCache cache;
    const auto &registry = target::standardRegistry();
    const auto &bench = wl::tableIII().front();

    const auto first = wl::compileBenchmarkCached(
        bench.source, bench.buildOpts, registry, bench.domain, cache);
    const auto second = wl::compileBenchmarkCached(
        bench.source, bench.buildOpts, registry, bench.domain, cache);

    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first.get(), second.get()); // the same artifact, not a copy
    EXPECT_EQ(cache.hits(), 1);
    EXPECT_EQ(cache.misses(), 1);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_GE(cache.hitRate(), 0.5);
}

TEST(CompileCache, RepeatedSuiteHitsAtLeastHalf)
{
    // The acceptance bar for the driver: running the same workload suite
    // twice must serve >= 50% of compilations from the cache.
    lower::CompileCache cache;
    const auto &registry = target::standardRegistry();
    for (int round = 0; round < 2; ++round) {
        for (const auto &bench : wl::tableIII()) {
            ASSERT_NE(wl::compileBenchmarkCached(bench.source,
                                                 bench.buildOpts, registry,
                                                 bench.domain, cache),
                      nullptr);
        }
    }
    // <= rather than ==: workloads sharing (source, opts, domain) — e.g.
    // two configs of one kernel — legitimately share one cache entry.
    EXPECT_LE(cache.size(), wl::tableIII().size());
    EXPECT_GE(cache.size(), wl::tableIII().size() / 2);
    EXPECT_GE(cache.hitRate(), 0.5);
}

TEST(CompileCache, ConcurrentRequestsCoalesce)
{
    lower::CompileCache cache;
    std::atomic<int> compiles{0};
    const auto results = core::parallelMap(8, 16, [&](int64_t) {
        return cache.getOrCompile("the-key", [&] {
            compiles.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            return lower::CompiledProgram{};
        });
    });
    EXPECT_EQ(compiles.load(), 1); // single-flight
    for (const auto &r : results)
        EXPECT_EQ(r.get(), results.front().get());
    EXPECT_EQ(cache.hits() + cache.misses(), 16);
    EXPECT_EQ(cache.misses(), 1);
}

TEST(CompileCache, FailedCompileIsEvictedAndRetryable)
{
    lower::CompileCache cache;
    const auto fail = [&]() -> lower::CompiledProgram { fatal("bad"); };
    EXPECT_THROW(cache.getOrCompile("k", fail), UserError);
    EXPECT_THROW(cache.getOrCompile("k", fail), UserError); // re-runs
    const auto ok =
        cache.getOrCompile("k", [] { return lower::CompiledProgram{}; });
    EXPECT_NE(ok, nullptr);
    EXPECT_EQ(cache.size(), 1u);
}

// --- -j1 vs -jN determinism --------------------------------------------------

/** Compiles + simulates the Table III suite with @p jobs workers through
 *  @p cache and renders a high-precision textual report. */
std::string
suiteReport(int jobs, lower::CompileCache &cache)
{
    const auto &registry = target::standardRegistry();
    const auto &table = wl::tableIII();
    const soc::SocRuntime runtime;
    const auto rows = core::parallelMap(
        jobs, static_cast<int64_t>(table.size()), [&](int64_t i) {
            const auto &bench = table[static_cast<size_t>(i)];
            const auto program = wl::compileBenchmarkCached(
                bench.source, bench.buildOpts, registry, bench.domain,
                cache);
            const auto result = runtime.execute(*program, bench.profile);
            return format("%s|%.17g|%.17g|%s", bench.id.c_str(),
                          result.total.seconds, result.total.joules,
                          result.total.str().c_str());
        });
    std::string report;
    for (const auto &row : rows)
        report += row + "\n";
    return report;
}

TEST(DriverDeterminism, SerialAndParallelReportsAreByteIdentical)
{
    lower::CompileCache serial_cache;
    lower::CompileCache parallel_cache;
    const auto serial = suiteReport(1, serial_cache);
    const auto parallel = suiteReport(4, parallel_cache);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
    // Fresh caches on both sides: every workload compiled exactly once.
    EXPECT_EQ(serial_cache.size(), parallel_cache.size());
    EXPECT_EQ(parallel_cache.misses(), serial_cache.misses());
}

TEST(DriverDeterminism, DriverMapTableIIIMatchesAcrossJobs)
{
    const auto &registry = target::standardRegistry();
    const auto render = [&](int jobs) {
        bench::DriverOptions options;
        options.jobs = jobs;
        const bench::Driver driver(options);
        const auto rows = driver.mapTableIII(
            registry, [](const wl::Benchmark &bench,
                         const lower::CompiledProgram &program) {
                std::string ops;
                for (const auto &partition : program.partitions)
                    ops += partition.accel + ";";
                return bench.id + "|" + ops;
            });
        std::string report;
        for (const auto &row : rows)
            report += row + "\n";
        return report;
    };
    // The second run is served from the process-global cache; memoized
    // artifacts must render identically to freshly compiled ones.
    EXPECT_EQ(render(1), render(4));
}

} // namespace
} // namespace polymath
