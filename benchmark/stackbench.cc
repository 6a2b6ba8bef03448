/**
 * @file
 * stackbench — the PolyMath stack benchmark (benchmark/README.md).
 *
 *   stackbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *              [--artifact <out.json>] [--trace-out <trace.json>]
 *   stackbench --smoke
 *   stackbench --write-expected <benchmark/expected.json>
 *
 * A run prints each metric as `workload metric value unit`, then, as the
 * last line, one JSON object {correct, attempted, failed, metrics}. With
 * --trace 0 the metrics are the end-to-end ones, measured on the real
 * pmc/pmcd binaries; with --trace 1 they are the per-layer ones of the
 * traced run. Each run also writes a polymath-bench/1 artifact
 * (benchmark = workload, metric = name) that tools/bench_compare diffs.
 *
 * Run it from the repository root: inputs are checked against
 * benchmark/expected.json, and --smoke reads BENCHMARK.json. pmc and
 * pmcd are taken from the build tree this binary lives in.
 */
#include <unistd.h>

#include <charconv>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench.h"
#include "core/error.h"
#include "core/json.h"
#include "report/artifact.h"

namespace stackbench {

void
RunResult::fail(const std::string &why)
{
    // Report the first few reasons; a systematic failure would repeat
    // the same line for every request.
    if (failed < 5)
        std::fprintf(stderr, "stackbench: FAILED: %s\n", why.c_str());
    ++failed;
    correct = false;
}

} // namespace stackbench

namespace {

namespace fs = std::filesystem;
namespace pm = polymath;
using namespace stackbench;

void
usage()
{
    std::fputs(
        "usage: stackbench --workload <name> --seed <n> --seconds <s>\n"
        "                  --trace <0|1> [--artifact <out.json>]\n"
        "                  [--trace-out <trace.json>]\n"
        "       stackbench --smoke\n"
        "       stackbench --write-expected <path>\n"
        "\n"
        "workloads: cli-cold serve-hit serve-miss dse-search\n"
        "Run from the repository root (reads benchmark/expected.json).\n",
        stderr);
}

int64_t
parseInt(const std::string &flag, const std::string &text)
{
    int64_t value = 0;
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc{} || ptr != text.data() + text.size() || value < 0)
        pm::fatal(flag + " expects a non-negative integer (got '" + text +
                  "')");
    return value;
}

double
parseSeconds(const std::string &text)
{
    double value = 0;
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc{} || ptr != text.data() + text.size() ||
        !(value > 0) || value > 3600)
        pm::fatal("--seconds expects a number in (0, 3600] (got '" + text +
                  "')");
    return value;
}

/** The build tree: the directory holding this executable. */
fs::path
buildDir()
{
    return fs::read_symlink("/proc/self/exe").parent_path();
}

/** A private work directory, removed with this object. */
class WorkDir
{
  public:
    WorkDir()
        : path_(buildDir() / ("work-" + std::to_string(::getpid())))
    {
        fs::create_directories(path_);
    }
    ~WorkDir() { removeTree(path_.string()); }
    WorkDir(const WorkDir &) = delete;
    WorkDir &operator=(const WorkDir &) = delete;

    std::string str() const { return path_.string(); }

  private:
    fs::path path_;
};

RunOptions
baseOptions(const Expected &expected, const WorkDir &work)
{
    RunOptions o;
    const fs::path tools = buildDir() / "polymath" / "tools";
    o.pmc = (tools / "pmc").string();
    o.pmcd = (tools / "pmcd").string();
    for (const auto &binary : {o.pmc, o.pmcd}) {
        if (::access(binary.c_str(), X_OK) != 0)
            pm::fatal("missing " + binary +
                      " (build the pmc and pmcd targets)");
    }
    o.workDir = work.str();
    o.expected = &expected;
    return o;
}

/** `workload metric value unit` lines, then the JSON result line. */
void
printResult(const std::string &workload, const RunResult &r)
{
    std::string json = "{\"correct\": ";
    json += r.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(r.attempted);
    json += ", \"failed\": " + std::to_string(r.failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const auto &m : r.metrics) {
        std::printf("%s %s %s %s\n", workload.c_str(), m.name.c_str(),
                    pm::json::numberToJson(m.value).c_str(),
                    m.unit.c_str());
        json += first ? "" : ", ";
        first = false;
        json += pm::json::quote(m.name) +
                ": {\"value\": " + pm::json::numberToJson(m.value) +
                ", \"unit\": " + pm::json::quote(m.unit) + "}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

void
writeArtifact(const std::string &path, const std::string &workload,
              const RunResult &r)
{
    pm::report::BenchArtifact artifact;
    artifact.name = "stackbench";
    artifact.git = pm::report::buildGitDescribe();
    artifact.config = pm::report::buildConfig();
    for (const auto &m : r.metrics)
        artifact.add(workload, m.name, m.value);
    const fs::path dir = fs::path(path).parent_path();
    if (!dir.empty())
        fs::create_directories(dir);
    artifact.write(path);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        pm::fatal("cannot read '" + path + "'");
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/**
 * The benchmark's self-test: every workload at a tiny length, then one
 * short traced run; each BENCHMARK.json metric must be printed with its
 * unit, and the artifacts and the trace must parse. The trace path is
 * printed last so a caller can hand it to another JSON reader.
 */
int
smoke(const Expected &expected)
{
    const auto spec = pm::json::parse(readFile("BENCHMARK.json"));
    const auto check = [](const pm::json::Value &declared,
                          const RunResult &r, const std::string &what) {
        std::map<std::string, std::string> printed;
        for (const auto &m : r.metrics)
            printed[m.name] = m.unit;
        bool ok = r.correct;
        for (const auto &metric : declared.arr()) {
            const std::string &name = metric.at("name").str();
            const auto it = printed.find(name);
            if (it == printed.end() ||
                it->second != metric.at("unit").str()) {
                std::fprintf(stderr, "smoke: %s lacks %s (%s)\n",
                             what.c_str(), name.c_str(),
                             metric.at("unit").str().c_str());
                ok = false;
            }
            printed.erase(name);
        }
        for (const auto &[name, unit] : printed) {
            std::fprintf(stderr, "smoke: %s prints %s, which "
                                 "BENCHMARK.json does not declare\n",
                         what.c_str(), name.c_str());
            ok = false;
        }
        return ok;
    };

    WorkDir work;
    bool ok = true;
    const double seconds =
        spec.at("run_seconds").num() / 100.0; // 1% of a run
    for (const auto &w : workloads()) {
        RunOptions o = baseOptions(expected, work);
        o.workload = &w;
        o.seconds = seconds;
        const RunResult r = runEndToEnd(o);
        printResult(w.name, r);
        const std::string artifact = work.str() + "/" + w.name + ".json";
        writeArtifact(artifact, w.name, r);
        pm::report::BenchArtifact::read(artifact);
        ok &= check(spec.at("end_to_end"), r, w.name);
    }
    RunOptions o = baseOptions(expected, work);
    o.workload = &workloadByName("serve-miss");
    o.seconds = seconds;
    o.tracedRequests = 200;
    const fs::path trace = buildDir() / "smoke-trace.json";
    o.tracePath = trace.string();
    const RunResult r = runTraced(o);
    printResult("serve-miss", r);
    ok &= check(spec.at("per_layer"), r, "traced serve-miss");
    pm::json::parse(readFile(o.tracePath));
    std::printf("smoke: %s, trace %s\n", ok ? "ok" : "FAILED",
                o.tracePath.c_str());
    return ok ? 0 : 1;
}

int
run(int argc, char **argv)
{
    std::string workload, artifact, trace_out;
    int64_t seed = -1, trace = -1;
    double seconds = 0;
    bool smoke_mode = false;
    std::string write_expected;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> std::string {
            if (++i >= argc)
                pm::fatal("missing value after " + arg);
            return argv[i];
        };
        if (arg == "--workload") {
            workload = next();
        } else if (arg == "--seed") {
            seed = parseInt(arg, next());
        } else if (arg == "--seconds") {
            seconds = parseSeconds(next());
        } else if (arg == "--trace") {
            trace = parseInt(arg, next());
            if (trace > 1)
                pm::fatal("--trace expects 0 or 1");
        } else if (arg == "--artifact") {
            artifact = next();
        } else if (arg == "--trace-out") {
            trace_out = next();
        } else if (arg == "--smoke") {
            smoke_mode = true;
        } else if (arg == "--write-expected") {
            write_expected = next();
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            pm::fatal("unknown option " + arg);
        }
    }
    if (!write_expected.empty()) {
        Expected::generate().write(write_expected);
        return 0;
    }
    const Expected expected = Expected::load("benchmark/expected.json");
    if (smoke_mode)
        return smoke(expected);
    if (workload.empty() || seed < 0 || seconds <= 0 || trace < 0) {
        usage();
        return 2;
    }

    WorkDir work;
    RunOptions o = baseOptions(expected, work);
    o.workload = &workloadByName(workload);
    o.seed = static_cast<uint64_t>(seed);
    o.seconds = seconds;
    // Artifacts are small and kept per seed; a trace is megabytes, so
    // only the latest one per workload is kept.
    const fs::path results = buildDir() / "results";
    const std::string stem =
        (results / workload).string() + "-seed" + std::to_string(seed);
    if (trace == 1)
        o.tracePath = trace_out.empty()
                          ? (results / workload).string() + "-trace.json"
                          : trace_out;
    if (!o.tracePath.empty() &&
        !fs::path(o.tracePath).parent_path().empty())
        fs::create_directories(fs::path(o.tracePath).parent_path());
    const RunResult r = trace == 1 ? runTraced(o) : runEndToEnd(o);
    writeArtifact(artifact.empty()
                      ? stem + (trace == 1 ? "-layers.json" : ".json")
                      : artifact,
                  workload, r);
    printResult(workload, r);
    return r.correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    // Child pipes and sockets report a vanished peer as EPIPE.
    std::signal(SIGPIPE, SIG_IGN);
    try {
        return run(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "stackbench: %s\n", e.what());
        return 2;
    }
}
