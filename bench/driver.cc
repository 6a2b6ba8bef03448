#include "driver.h"

#include <charconv>
#include <cstdio>
#include <cstring>
#include <exception>

#include "core/error.h"
#include "core/strings.h"
#include "obs/export.h"
#include "report/artifact.h"

namespace polymath::bench {

namespace {

int
parseJobsValue(const char *text)
{
    int value = 0;
    const char *end = text + std::strlen(text);
    const auto [ptr, ec] = std::from_chars(text, end, value);
    if (ec != std::errc{} || ptr != end || value < 0)
        fatal(std::string("-j/--jobs expects a non-negative integer "
                          "(got '") +
              text + "')");
    return value;
}

} // namespace

DriverOptions
parseDriverArgs(int argc, char **argv)
{
    DriverOptions opts;
    opts.jobs = core::defaultJobs();
    if (argc > 0 && argv[0] != nullptr) {
        std::string name = argv[0];
        const size_t slash = name.find_last_of('/');
        if (slash != std::string::npos)
            name.erase(0, slash + 1);
        if (name.rfind("bench_", 0) == 0)
            name.erase(0, 6);
        opts.benchName = name;
    }
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "-j") == 0 ||
            std::strcmp(arg, "--jobs") == 0) {
            if (i + 1 >= argc)
                fatal(std::string("missing value after ") + arg);
            opts.jobs = parseJobsValue(argv[++i]);
        } else if (std::strncmp(arg, "-j", 2) == 0 && arg[2] != '\0') {
            opts.jobs = parseJobsValue(arg + 2); // -jN combined form
        } else if (std::strncmp(arg, "--jobs=", 7) == 0) {
            opts.jobs = parseJobsValue(arg + 7);
        } else if (std::strcmp(arg, "--driver-stats") == 0) {
            opts.stats = true;
        } else if (std::strcmp(arg, "--trace") == 0) {
            if (i + 1 >= argc)
                fatal("missing value after --trace");
            opts.tracePath = argv[++i];
        } else if (std::strncmp(arg, "--trace=", 8) == 0) {
            opts.tracePath = arg + 8;
        } else if (std::strcmp(arg, "--json") == 0) {
            if (i + 1 >= argc)
                fatal("missing value after --json");
            opts.jsonPath = argv[++i];
        } else if (std::strncmp(arg, "--json=", 7) == 0) {
            opts.jsonPath = arg + 7;
        }
    }
    opts.jobs = core::resolveJobs(opts.jobs);
    return opts;
}

Driver::Driver(DriverOptions options)
    : options_(std::move(options)), cache_(lower::CompileCache::global())
{
    options_.jobs = core::resolveJobs(options_.jobs);
    if (!options_.tracePath.empty())
        obs::TraceRecorder::global().setEnabled(true);
}

Driver::Driver(int argc, char **argv)
    : Driver(parseDriverArgs(argc, argv))
{
}

Driver::~Driver()
{
    reportStats();
    // Destructors must not throw; a failed trace/artifact write is a
    // warning, not a bench failure (the report already went to stdout).
    if (!options_.jsonPath.empty()) {
        try {
            report::BenchArtifact artifact;
            artifact.name = options_.benchName;
            artifact.git = report::buildGitDescribe();
            artifact.config = report::buildConfig();
            artifact.jobs = options_.jobs;
            {
                std::lock_guard<std::mutex> lock(artifactMutex_);
                for (const auto &[bench, metric, value] : artifactRows_)
                    artifact.add(bench, metric, value);
            }
            artifact.write(options_.jsonPath);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "warn: driver: cannot write artifact: %s\n",
                         e.what());
        }
    }
    if (options_.tracePath.empty())
        return;
    try {
        obs::writeChromeTrace(obs::TraceRecorder::global(),
                              options_.tracePath);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "warn: driver: cannot write trace: %s\n",
                     e.what());
    }
}

void
Driver::record(const std::string &benchmark, const std::string &metric,
               double value) const
{
    if (options_.jsonPath.empty())
        return;
    std::lock_guard<std::mutex> lock(artifactMutex_);
    artifactRows_.emplace_back(benchmark, metric, value);
}

std::vector<CompiledBenchmark>
Driver::compileTableIII(const lower::AcceleratorRegistry &registry) const
{
    const auto &table = wl::tableIII();
    auto programs = map(
        static_cast<int64_t>(table.size()), [&](int64_t i) {
            const auto &b = table[static_cast<size_t>(i)];
            return wl::compileBenchmarkCached(b.source, b.buildOpts,
                                              registry, b.domain, cache_);
        });
    std::vector<CompiledBenchmark> out;
    out.reserve(table.size());
    for (size_t i = 0; i < table.size(); ++i)
        out.push_back(CompiledBenchmark{&table[i], std::move(programs[i])});
    return out;
}

std::vector<CompiledApp>
Driver::compileTableIV(const lower::AcceleratorRegistry &registry) const
{
    const auto &table = wl::tableIV();
    auto programs = map(
        static_cast<int64_t>(table.size()), [&](int64_t i) {
            const auto &a = table[static_cast<size_t>(i)];
            return wl::compileBenchmarkCached(a.source, a.buildOpts,
                                              registry, lang::Domain::None,
                                              cache_);
        });
    std::vector<CompiledApp> out;
    out.reserve(table.size());
    for (size_t i = 0; i < table.size(); ++i)
        out.push_back(CompiledApp{&table[i], std::move(programs[i])});
    return out;
}

std::string
Driver::statsLine() const
{
    return format("driver: jobs=%d cache: %lld hits (%lld coalesced), "
                  "%lld misses (",
                  options_.jobs, static_cast<long long>(cache_.hits()),
                  static_cast<long long>(cache_.coalesced()),
                  static_cast<long long>(cache_.misses())) +
           formatF(cache_.hitRate() * 100.0, 0) +
           format("%% hit rate, %zu programs)", cache_.size());
}

void
Driver::reportStats(std::FILE *out) const
{
    if (options_.stats)
        std::fprintf(out, "%s\n", statsLine().c_str());
}

} // namespace polymath::bench
