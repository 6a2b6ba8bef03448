/**
 * @file
 * pmc — the PolyMath compiler driver.
 *
 * Compiles one or more PMLang files through any prefix of the stack and
 * prints the result: the srDFG at all granularities, Graphviz, statistics,
 * the per-accelerator IR after Algorithms 1/2, or a simulated execution on
 * the SoC. With several inputs the files compile in parallel (`-j N` /
 * `POLYMATH_JOBS`), but stdout/stderr are emitted in input order so output
 * never depends on the jobs count. `pmc --help` documents the flags;
 * examples/pmlang/ has inputs.
 *
 * With `--connect <socket>` pmc turns into a client of the pmcd compile
 * service (docs/SERVICE.md): each input becomes one request, and the
 * printed bytes are identical to local execution — both sides run the
 * same service::runRequest().
 */
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/diagnostics.h"
#include "core/error.h"
#include "core/json.h"
#include "core/strings.h"
#include "core/thread_pool.h"
#include "lower/compile_cache.h"
#include "lower/lower.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pmlang/format.h"
#include "pmlang/parser.h"
#include "pmlang/sema.h"
#include "passes/pass.h"
#include "service/client.h"
#include "service/exec.h"
#include "soc/soc.h"
#include "soc/stream.h"
#include "targets/common/cost_ledger.h"
#include "srdfg/builder.h"
#include "srdfg/printer.h"
#include "srdfg/serialize.h"
#include "workloads/suite.h"

namespace {

using namespace polymath;

struct Options
{
    std::vector<std::string> files;
    std::string entry = "main";
    std::map<std::string, int64_t> params;
    bool printIr = false;
    bool dot = false;
    bool json = false;
    bool formatSource = false;
    bool stats = false;
    bool optimize = false;
    std::string target;   // domain keyword, e.g. "DA"
    bool simulate = false;
    bool schedule = false;
    bool profile = false;
    bool dse = false;
    std::string dseSpace = "small";
    std::string dseSearch = "auto";
    int64_t dseSamples = 48;
    int64_t dseRounds = 3;
    uint64_t dseSeed = 0x5eed;
    std::string profileJsonPath;
    int64_t profileTopN = 10;
    int64_t invocations = 1;
    bool listTargets = false;
    double faultRate = 0.0;
    uint64_t faultSeed = 0x5eed;
    int jobs = 1;
    std::string tracePath;
    std::string connectPath; ///< pmcd socket; empty = local execution
    bool dump = false;       ///< --connect: fetch the flight recorder
    bool metrics = false;    ///< --connect: scrape live metrics
    bool metricsJson = false;  ///< print the JSON snapshot instead
    bool metricsDelta = false; ///< since-last-scrape deltas
    std::string requestId;   ///< --connect: client-chosen attribution id
    int64_t streamJobs = 0; ///< 0 = sequential --simulate
    std::string arrival = "closed:4";
    int64_t streamMaxPending = 0;
    double deadlineFactor = 0.0;
    std::string deadlinePolicy = "continue";
};

void
usage()
{
    std::fputs(
        "usage: pmc [options] <file.pm ... | ->\n"
        "\n"
        "  --entry <name>        entry component (default: main)\n"
        "  --param <name>=<int>  bind a scalar param at compile time\n"
        "                        (repeatable)\n"
        "  --print-ir            print the srDFG (all recursion levels)\n"
        "  --dot                 print Graphviz for the top levels\n"
        "  --json                print the srDFG as JSON\n"
        "  --format              pretty-print the program canonically\n"
        "  --stats               print node/depth/op statistics\n"
        "  --optimize            run the standard pass pipeline first\n"
        "  --target <DOMAIN>     lower + translate for the domain's\n"
        "                        accelerator (RBT|GA|DSP|DA|DL, or ALL to\n"
        "                        honor per-statement annotations) and\n"
        "                        print the accelerator program(s)\n"
        "  --simulate            with --target: simulate on the SoC\n"
        "  --schedule            with --target DA/DSP: print the PE list\n"
        "                        schedule / DSP chain mapping\n"
        "  --profile             with --target: simulate with per-fragment\n"
        "                        cost ledgers and print a hotspot/roofline\n"
        "                        table per partition (implies --simulate)\n"
        "  --profile-top <n>     rows per hotspot table (default 10)\n"
        "  --profile-json <out>  write the full profile (report totals +\n"
        "                        every ledger entry) as JSON; single input\n"
        "                        only\n"
        "  --dse                 with --target: autotune the machine\n"
        "                        configs of the compiled accelerators and\n"
        "                        print the Pareto fronts (docs/DSE.md)\n"
        "  --dse-space <kind>    with --dse: small|full (default small)\n"
        "  --dse-search <drv>    with --dse: auto|grid|random\n"
        "  --dse-samples <n>     with --dse: random-search sample budget\n"
        "  --dse-rounds <n>      with --dse: successive-halving rounds\n"
        "  --dse-seed <n>        with --dse: non-negative search seed\n"
        "  --invocations <n>     invocation count for --simulate\n"
        "  --fault-rate <r>      with --simulate: inject accelerator/DMA/\n"
        "                        watchdog faults at rate r in [0,1] and\n"
        "                        print the reliability report\n"
        "  --fault-seed <n>      non-negative seed for deterministic\n"
        "                        fault injection\n"
        "  --stream <n>          with --target: stream n jobs of the\n"
        "                        compiled program through the SoC's\n"
        "                        event-driven scheduler (implies\n"
        "                        --simulate) and print the stream report\n"
        "  --arrival <spec>      with --stream: poisson:RATE (jobs/s) or\n"
        "                        closed:CLIENTS[:THINK_S]\n"
        "                        (default closed:4)\n"
        "  --max-pending <n>     with --stream: admission bound override\n"
        "                        (default: SocConfig.streamMaxPending)\n"
        "  --deadline-factor <f> with --stream: per-job deadline = f x the\n"
        "                        job's fault-free estimate (0 = none)\n"
        "  --deadline-policy <p> with --stream: continue|shed|abort\n"
        "                        (default continue)\n"
        "  --connect <socket>    send the work to a pmcd daemon at this\n"
        "                        Unix socket instead of compiling\n"
        "                        locally (requires --target; output is\n"
        "                        byte-identical to local execution)\n"
        "  --dump                with --connect: print the daemon's\n"
        "                        flight recorder (the last N request\n"
        "                        records + retained slow traces) as JSON\n"
        "  --metrics             with --connect: print the daemon's live\n"
        "                        metrics as Prometheus text exposition\n"
        "  --metrics-json        with --connect: print the metrics\n"
        "                        snapshot as JSON instead\n"
        "  --metrics-delta       with --metrics/--metrics-json: report\n"
        "                        deltas since the last delta scrape\n"
        "  --request-id <id>     with --connect: tag the work requests\n"
        "                        with this attribution id (default:\n"
        "                        server-assigned)\n"
        "  -j, --jobs <n>        compile multiple inputs with n worker\n"
        "                        threads (0 = all hardware threads;\n"
        "                        default POLYMATH_JOBS or 1); output stays\n"
        "                        in input order\n"
        "  --trace <out.json>    record a Chrome-trace/Perfetto timeline\n"
        "                        of the run (wall-clock compile spans plus\n"
        "                        the simulated SoC's virtual timeline);\n"
        "                        with --stats and several inputs, also\n"
        "                        print cache and per-pass timing summaries\n"
        "                        to stderr\n"
        "  --list-targets        print the registered accelerators\n",
        stderr);
}

// Numeric flags parse with from_chars: locale-independent by
// specification, unlike the stoll/stod family (DESIGN.md §"Locale").

int64_t
parseInt(const std::string &flag, const std::string &text)
{
    int64_t value = 0;
    const char *begin = text.data();
    const char *end = begin + text.size();
    const auto [ptr, ec] = std::from_chars(begin, end, value);
    if (ec != std::errc{} || ptr != end)
        fatal(flag + " expects an integer (got '" + text + "')");
    return value;
}

double
parseDouble(const std::string &flag, const std::string &text)
{
    double value = 0;
    const char *begin = text.data();
    const char *end = begin + text.size();
    const auto [ptr, ec] = std::from_chars(begin, end, value);
    if (ec != std::errc{} || ptr != end)
        fatal(flag + " expects a number (got '" + text + "')");
    return value;
}

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    opts.jobs = core::defaultJobs();
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (++i >= argc)
                fatal("missing value after " + arg);
            return argv[i];
        };
        if (arg == "--entry") {
            opts.entry = next();
        } else if (arg == "--param") {
            const auto binding = next();
            const auto eq = binding.find('=');
            if (eq == std::string::npos)
                fatal("--param expects name=value");
            opts.params[binding.substr(0, eq)] =
                parseInt("--param", binding.substr(eq + 1));
        } else if (arg == "--print-ir") {
            opts.printIr = true;
        } else if (arg == "--dot") {
            opts.dot = true;
        } else if (arg == "--json") {
            opts.json = true;
        } else if (arg == "--format") {
            opts.formatSource = true;
        } else if (arg == "--stats") {
            opts.stats = true;
        } else if (arg == "--optimize") {
            opts.optimize = true;
        } else if (arg == "--target") {
            opts.target = next();
        } else if (arg == "--simulate") {
            opts.simulate = true;
        } else if (arg == "--schedule") {
            opts.schedule = true;
        } else if (arg == "--profile") {
            opts.profile = true;
        } else if (arg == "--profile-top") {
            opts.profileTopN = parseInt("--profile-top", next());
            if (opts.profileTopN < 1)
                fatal("--profile-top expects a positive integer");
        } else if (arg == "--profile-json") {
            opts.profileJsonPath = next();
        } else if (arg == "--dse") {
            opts.dse = true;
        } else if (arg == "--dse-space") {
            opts.dseSpace = next();
        } else if (arg == "--dse-search") {
            opts.dseSearch = next();
        } else if (arg == "--dse-samples") {
            opts.dseSamples = parseInt("--dse-samples", next());
            if (opts.dseSamples < 1)
                fatal("--dse-samples expects a positive integer");
        } else if (arg == "--dse-rounds") {
            opts.dseRounds = parseInt("--dse-rounds", next());
            if (opts.dseRounds < 1)
                fatal("--dse-rounds expects a positive integer");
        } else if (arg == "--dse-seed") {
            const std::string text = next();
            const int64_t seed = parseInt("--dse-seed", text);
            if (seed < 0)
                fatal("--dse-seed expects a non-negative integer "
                      "(got '" +
                      text + "')");
            opts.dseSeed = static_cast<uint64_t>(seed);
        } else if (arg == "--invocations") {
            opts.invocations = parseInt("--invocations", next());
            if (opts.invocations < 1)
                fatal("--invocations expects a positive integer");
        } else if (arg == "--fault-rate") {
            opts.faultRate = parseDouble("--fault-rate", next());
        } else if (arg == "--fault-seed") {
            // Seeds are uint64, but a bare '-1' silently wrapping to
            // 2^64-1 is a typo, not a request: reject negatives.
            const std::string text = next();
            const int64_t seed = parseInt("--fault-seed", text);
            if (seed < 0)
                fatal("--fault-seed expects a non-negative integer "
                      "(got '" +
                      text + "')");
            opts.faultSeed = static_cast<uint64_t>(seed);
        } else if (arg == "--stream") {
            opts.streamJobs = parseInt("--stream", next());
            if (opts.streamJobs < 1)
                fatal("--stream expects a positive job count");
        } else if (arg == "--arrival") {
            opts.arrival = next();
        } else if (arg == "--max-pending") {
            opts.streamMaxPending = parseInt("--max-pending", next());
            if (opts.streamMaxPending < 0)
                fatal("--max-pending expects a non-negative integer");
        } else if (arg == "--deadline-factor") {
            opts.deadlineFactor =
                parseDouble("--deadline-factor", next());
        } else if (arg == "--deadline-policy") {
            opts.deadlinePolicy = next();
        } else if (arg == "--connect") {
            opts.connectPath = next();
        } else if (arg == "--dump") {
            opts.dump = true;
        } else if (arg == "--metrics") {
            opts.metrics = true;
        } else if (arg == "--metrics-json") {
            opts.metrics = true;
            opts.metricsJson = true;
        } else if (arg == "--metrics-delta") {
            opts.metrics = true;
            opts.metricsDelta = true;
        } else if (arg == "--request-id") {
            opts.requestId = next();
        } else if (arg == "-j" || arg == "--jobs") {
            opts.jobs = static_cast<int>(parseInt("--jobs", next()));
            if (opts.jobs < 0)
                fatal("--jobs expects a non-negative integer");
        } else if (arg.rfind("--jobs=", 0) == 0) {
            opts.jobs =
                static_cast<int>(parseInt("--jobs", arg.substr(7)));
            if (opts.jobs < 0)
                fatal("--jobs expects a non-negative integer");
        } else if (arg.rfind("-j", 0) == 0 && arg.size() > 2) {
            opts.jobs = static_cast<int>(
                parseInt("-j", arg.substr(2))); // -jN combined form
            if (opts.jobs < 0)
                fatal("-j expects a non-negative integer");
        } else if (arg == "--trace") {
            opts.tracePath = next();
        } else if (arg == "--list-targets") {
            opts.listTargets = true;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            std::exit(0);
        } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
            fatal("unknown option " + arg);
        } else {
            opts.files.push_back(arg);
        }
    }
    opts.jobs = core::resolveJobs(opts.jobs);
    if (opts.profile || !opts.profileJsonPath.empty()) {
        if (opts.target.empty())
            fatal("--profile requires --target (profiles are attributed "
                  "over the compiled accelerator partitions)");
        opts.simulate = true;
    }
    if (opts.streamJobs > 0) {
        if (opts.target.empty())
            fatal("--stream requires --target (jobs are compiled "
                  "programs)");
        opts.simulate = true;
    }
    if (opts.dse) {
        if (opts.target.empty())
            fatal("--dse requires --target (the search sweeps the "
                  "compiled accelerator partitions)");
        if (opts.profile || !opts.profileJsonPath.empty() ||
            opts.streamJobs > 0)
            fatal("--dse is its own execution mode; it does not combine "
                  "with --profile/--profile-json/--stream");
    }
    if ((opts.dump || opts.metrics || !opts.requestId.empty()) &&
        opts.connectPath.empty())
        fatal("--dump/--metrics/--request-id are service telemetry "
              "surfaces; they require --connect");
    if ((opts.dump || opts.metrics) && !opts.files.empty())
        fatal("--dump/--metrics are stand-alone admin requests; they do "
              "not take input files");
    if (!opts.connectPath.empty()) {
        if (opts.target.empty() && !opts.dump && !opts.metrics)
            fatal("--connect requires --target (the service executes "
                  "compile/simulate/profile requests)");
        if (opts.formatSource || opts.printIr || opts.dot || opts.json ||
            opts.stats || opts.listTargets)
            fatal("--connect supports only the compile/simulate/profile "
                  "path (no --format/--print-ir/--dot/--json/--stats/"
                  "--list-targets)");
        if (opts.streamJobs > 0)
            fatal("--stream runs locally; it is not available with "
                  "--connect");
        if (!opts.tracePath.empty())
            fatal("--trace records the local pipeline; it is not "
                  "available with --connect");
    }
    return opts;
}

/** Parses "poisson:RATE" / "closed:CLIENTS[:THINK_S]" into @p config. */
void
parseArrival(const std::string &spec, soc::StreamConfig &config)
{
    const auto colon = spec.find(':');
    const std::string kind = spec.substr(0, colon);
    const std::string rest =
        colon == std::string::npos ? "" : spec.substr(colon + 1);
    if (kind == "poisson") {
        config.arrival = soc::ArrivalModel::Poisson;
        if (rest.empty())
            fatal("--arrival poisson:RATE needs a rate in jobs/s");
        config.arrivalRate = parseDouble("--arrival", rest);
    } else if (kind == "closed") {
        config.arrival = soc::ArrivalModel::ClosedLoop;
        if (!rest.empty()) {
            const auto colon2 = rest.find(':');
            config.clients = static_cast<int>(parseInt(
                "--arrival", rest.substr(0, colon2)));
            if (colon2 != std::string::npos) {
                config.thinkSeconds =
                    parseDouble("--arrival", rest.substr(colon2 + 1));
            }
        }
    } else {
        fatal("--arrival expects poisson:RATE or closed:CLIENTS[:THINK] "
              "(got '" +
              spec + "')");
    }
}

soc::DeadlinePolicy
parseDeadlinePolicy(const std::string &word)
{
    if (word == "continue") return soc::DeadlinePolicy::Continue;
    if (word == "shed") return soc::DeadlinePolicy::Shed;
    if (word == "abort") return soc::DeadlinePolicy::Abort;
    fatal("--deadline-policy expects continue|shed|abort (got '" + word +
          "')");
}

std::string
readInput(const std::string &file)
{
    if (file == "-") {
        std::ostringstream buffer;
        buffer << std::cin.rdbuf();
        return buffer.str();
    }
    std::ifstream in(file);
    if (!in)
        fatal("cannot open '" + file + "'");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/**
 * The service request equivalent to this pmc invocation for one input.
 * Local execution and --connect build the *same* request and run it
 * through the *same* service::runRequest(), which is what makes their
 * outputs byte-identical.
 */
service::Request
requestFromOptions(const Options &opts, const std::string &file,
                   std::string source)
{
    service::Request req;
    if (opts.dse) {
        req.verb = service::Verb::Dse;
    } else if (opts.streamJobs > 0) {
        req.verb = service::Verb::Compile; // stream drives the SoC itself
    } else if (opts.profile) {
        req.verb = service::Verb::Profile;
    } else if (opts.simulate) {
        req.verb = service::Verb::Simulate;
    } else {
        req.verb = service::Verb::Compile;
    }
    req.file = file;
    req.source = std::move(source);
    req.entry = opts.entry;
    req.params = opts.params;
    req.optimize = opts.optimize;
    req.target = opts.target;
    req.schedule = opts.schedule;
    req.invocations = opts.invocations;
    req.faultRate = opts.faultRate;
    req.faultSeed = opts.faultSeed;
    req.profileTop = opts.profileTopN;
    req.profileDoc = !opts.profileJsonPath.empty();
    req.dseSpace = opts.dseSpace;
    req.dseSearch = opts.dseSearch;
    req.dseSamples = opts.dseSamples;
    req.dseRounds = opts.dseRounds;
    req.dseSeed = opts.dseSeed;
    return req;
}

/**
 * Shadow full-stack run for --trace: when the user's flags stop short of
 * the SoC (no --target), the rest of the pipeline re-runs purely for the
 * timeline, so a plain `pmc --trace out.json foo.pm` already shows
 * parse -> passes -> lower -> per-partition compile -> virtual-time SoC
 * execution. The program's domain is unknown here, so the common domains
 * are tried in turn and the first that compiles is executed. Output is
 * discarded and failures are swallowed: tracing must never change pmc's
 * observable behavior.
 */
void
traceShadowRun(const Options &opts, const std::string &source)
{
    const auto try_domain = [&](lang::Domain domain) {
        try {
            ir::BuildOptions build;
            build.entry = opts.entry;
            build.paramConsts = opts.params;
            auto graph = ir::compileToSrdfg(source, build);
            pass::standardPipeline().runToFixpoint(*graph);
            const auto registry = target::standardRegistry();
            lower::lowerGraph(*graph, registry.supportedOpsByDomain(),
                              domain);
            const auto compiled =
                lower::compileProgram(*graph, registry, domain);
            target::WorkloadProfile profile;
            profile.invocations = opts.invocations;
            soc::SocRuntime().execute(compiled, profile);
            return true;
        } catch (...) {
            return false;
        }
    };
    using lang::Domain;
    for (const Domain domain : {Domain::DA, Domain::GA, Domain::DSP,
                                Domain::RBT, Domain::DL}) {
        if (try_domain(domain))
            return;
    }
}

/** Writes @p doc to @p path (binary, no transformation). */
void
writeProfileDoc(const std::string &path, const std::string &doc)
{
    std::ofstream json_out(path, std::ios::binary);
    if (!json_out)
        fatal("cannot open '" + path + "' for writing");
    json_out << doc;
}

/**
 * Compiles one input and renders its stdout/stderr into strings, so
 * parallel multi-file runs can replay the streams in input order.
 */
int
runFile(const Options &opts, const std::string &file, std::string &out,
        std::string &err)
{
    const std::string source = readInput(file);

    // Pre-flight syntax check with statement-level error recovery so one
    // run surfaces *every* syntax error, not just the first.
    if (service::preflightDiagnostics(source, err))
        return 1;

    if (opts.formatSource) {
        const auto program = lang::parse(source);
        lang::analyze(program, opts.entry);
        out += lang::formatProgram(program);
        return 0;
    }

    // The display graph (srDFG printing, stats, Graphviz, JSON, and the
    // no-flags fallback) is built only when something consumes it; a
    // pure --target run goes straight through the compile cache without
    // paying a second front-end pass.
    const bool want_display = opts.stats || opts.printIr || opts.dot ||
                              opts.json || opts.target.empty();
    std::unique_ptr<ir::Graph> graph;
    if (want_display) {
        ir::BuildOptions build;
        build.entry = opts.entry;
        build.paramConsts = opts.params;
        graph = ir::compileToSrdfg(source, build);
        if (opts.optimize) {
            auto pipeline = pass::standardPipeline();
            for (const auto &result : pipeline.runToFixpoint(*graph)) {
                if (result.changed)
                    err += format("pmc: pass %s changed the graph\n",
                                  result.name.c_str());
            }
        }
    }

    bool did_something = false;
    if (opts.stats) {
        out += ir::graphStats(*graph) + "\n";
        did_something = true;
    }
    if (opts.printIr) {
        out += ir::printGraph(*graph);
        did_something = true;
    }
    if (opts.dot) {
        out += ir::toDot(*graph);
        did_something = true;
    }
    if (opts.json) {
        out += ir::toJson(*graph) + "\n";
        did_something = true;
    }
    if (!opts.target.empty()) {
        const auto req = requestFromOptions(opts, file, source);
        const auto exec = service::runRequest(
            req, lower::CompileCache::global());
        out += exec.out;
        if (!opts.profileJsonPath.empty() && opts.streamJobs == 0)
            writeProfileDoc(opts.profileJsonPath, exec.profileJson);
        if (opts.simulate && opts.streamJobs > 0) {
            soc::SocRuntime runtime;
            soc::StreamConfig stream;
            stream.jobs = static_cast<int>(opts.streamJobs);
            stream.seed = opts.faultSeed;
            stream.maxPending = static_cast<int>(opts.streamMaxPending);
            stream.deadlineFactor = opts.deadlineFactor;
            stream.deadlinePolicy =
                parseDeadlinePolicy(opts.deadlinePolicy);
            stream.workers = opts.jobs;
            parseArrival(opts.arrival, stream);
            if (opts.faultRate != 0) { // negative => validation error
                stream.faults.seed = opts.faultSeed;
                stream.faults.accelUnavailableRate = opts.faultRate / 5.0;
                stream.faults.dmaFailureRate = opts.faultRate;
                stream.faults.watchdogRate = opts.faultRate / 2.0;
            }
            soc::StreamJob job;
            job.name = file;
            job.program = exec.program.get();
            job.profile.invocations = opts.invocations;
            const soc::StreamScheduler scheduler(runtime, stream);
            const auto report = scheduler.run({job});
            out += report.str() + "\n";
        } else if (!opts.simulate &&
                   obs::TraceRecorder::global().enabled()) {
            // --trace without --simulate: shadow-execute the compiled
            // program so the trace still carries the virtual SoC
            // timeline. Output is discarded and failures are swallowed —
            // tracing must never change pmc's observable behavior.
            try {
                soc::SocRuntime runtime;
                target::WorkloadProfile profile;
                profile.invocations = opts.invocations;
                runtime.execute(*exec.program, profile);
            } catch (...) {
            }
        }
        did_something = true;
    }
    if (!did_something)
        out += ir::printGraph(*graph);
    if (opts.target.empty() && obs::TraceRecorder::global().enabled())
        traceShadowRun(opts, source);
    return 0;
}

/** runFile with the process-level exception policy applied per input. */
int
runFileGuarded(const Options &opts, const std::string &file,
               std::string &out, std::string &err)
{
    // Exit codes: 0 success, 1 user error (bad program/config, printed as
    // a formatted diagnostic with its source location), 2 internal error.
    try {
        return runFile(opts, file, out, err);
    } catch (const UserError &e) {
        const Diagnostic diag{Severity::Error, e.message(), e.loc()};
        err += format("pmc: %s\n", diag.str().c_str());
        return 1;
    } catch (const InternalError &e) {
        err += format("pmc: %s\n", e.what()); // "internal error: …"
        return 2;
    } catch (const std::exception &e) {
        err += format("pmc: internal error: %s\n", e.what());
        return 2;
    }
}

/**
 * Client mode: ship every input to the pmcd daemon over one connection
 * (pipelined), then replay the responses in input order. The daemon
 * runs the same service::runRequest() as local execution, so stdout/
 * stderr bytes and exit codes match a local run exactly.
 */
int
runConnected(const Options &opts)
{
    service::Client client(opts.connectPath);
    const auto n = static_cast<int64_t>(opts.files.size());
    for (int64_t i = 0; i < n; ++i) {
        auto req = requestFromOptions(opts, opts.files[static_cast<size_t>(i)],
                                      readInput(opts.files[static_cast<size_t>(i)]));
        req.id = i;
        // A client-chosen attribution id tags the daemon-side spans and
        // flight record; with several inputs each request gets its own.
        if (!opts.requestId.empty())
            req.requestId = n == 1 ? opts.requestId
                                   : opts.requestId + "." +
                                         std::to_string(i);
        client.send(req);
    }
    std::vector<service::Response> responses(static_cast<size_t>(n));
    std::vector<bool> seen(static_cast<size_t>(n), false);
    for (int64_t remaining = n; remaining > 0;) {
        service::Response resp;
        if (!client.recv(resp))
            fatal("service: connection closed with " +
                  std::to_string(remaining) + " response(s) outstanding");
        if (resp.id < 0 || resp.id >= n || seen[static_cast<size_t>(resp.id)])
            fatal("service: unexpected response id " +
                  std::to_string(resp.id));
        seen[static_cast<size_t>(resp.id)] = true;
        responses[static_cast<size_t>(resp.id)] = std::move(resp);
        --remaining;
    }
    int code = 0;
    for (int64_t i = 0; i < n; ++i) {
        const auto &resp = responses[static_cast<size_t>(i)];
        std::fputs(resp.output.c_str(), stdout);
        if (resp.rejected) {
            std::fprintf(stderr, "pmc: request rejected by server: %s",
                         resp.error.c_str());
            code = std::max(code, 2);
            continue;
        }
        std::fputs(resp.error.c_str(), stderr);
        if (resp.ok && !opts.profileJsonPath.empty())
            writeProfileDoc(opts.profileJsonPath, resp.profileJson);
        code = std::max(code, resp.code);
    }
    return code;
}

/**
 * Admin mode (--dump / --metrics): no work requests, just the daemon's
 * telemetry surfaces. The flight dump and the Prometheus exposition go
 * to stdout verbatim, so `pmc --connect s --metrics | promtool check
 * metrics` and jq over `--dump` both work unmodified.
 */
int
runAdmin(const Options &opts)
{
    service::Client client(opts.connectPath);
    int code = 0;
    if (opts.dump) {
        service::Request req;
        req.verb = service::Verb::Dump;
        req.requestId = opts.requestId;
        const auto resp = client.call(req);
        std::fputs(resp.output.c_str(), stdout);
        std::fputs(resp.error.c_str(), stderr);
        code = std::max(code, resp.code);
    }
    if (opts.metrics) {
        service::Request req;
        req.verb = service::Verb::Metrics;
        req.requestId = opts.requestId;
        req.metricsDelta = opts.metricsDelta;
        const auto resp = client.call(req);
        if (opts.metricsJson) {
            std::fputs(resp.metricsJson.c_str(), stdout);
            std::fputc('\n', stdout);
        } else {
            std::fputs(resp.output.c_str(), stdout);
        }
        std::fputs(resp.error.c_str(), stderr);
        code = std::max(code, resp.code);
    }
    return code;
}

/**
 * Multi-file --stats summary: compile-cache counters plus a per-pass
 * timing table from the metrics registry. Goes to stderr so per-file
 * stdout stays identical to a single-file run.
 */
void
printCompileSummary()
{
    const auto &cache = lower::CompileCache::global();
    std::fprintf(stderr,
                 "pmc: compile cache: %lld hits (%lld coalesced), "
                 "%lld misses, %zu programs\n",
                 static_cast<long long>(cache.hits()),
                 static_cast<long long>(cache.coalesced()),
                 static_cast<long long>(cache.misses()), cache.size());
    const auto snap = obs::MetricsRegistry::global().snapshot();
    const std::string prefix = "pass.";
    const std::string suffix = ".runs";
    bool header = false;
    for (const auto &[name, runs] : snap.counters) {
        if (name.rfind(prefix, 0) != 0 ||
            name.size() <= prefix.size() + suffix.size() ||
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) != 0)
            continue;
        if (!header) {
            std::fprintf(stderr, "pmc: %-24s %6s %12s %10s %8s\n", "pass",
                         "runs", "total_us", "mean_us", "changed");
            header = true;
        }
        const std::string pass_name = name.substr(
            prefix.size(), name.size() - prefix.size() - suffix.size());
        const int64_t micros = snap.counter(prefix + pass_name + ".micros");
        const double mean = runs > 0 ? static_cast<double>(micros) /
                                           static_cast<double>(runs)
                                     : 0.0;
        const int64_t changed =
            snap.counter(prefix + pass_name + ".changed");
        std::fprintf(stderr, "pmc: %-24s %6lld %12lld %10.1f %8lld\n",
                     pass_name.c_str(), static_cast<long long>(runs),
                     static_cast<long long>(micros), mean,
                     static_cast<long long>(changed));
    }
}

int
run(const Options &opts)
{
    if (opts.listTargets) {
        const auto registry = target::standardRegistry();
        for (const auto &spec : registry.specs()) {
            std::printf("%-14s domain %-4s  %zu supported ops\n",
                        spec.name.c_str(),
                        lang::toString(spec.domain).c_str(),
                        spec.supportedOps.size());
        }
        if (opts.files.empty())
            return 0;
    }
    if (opts.dump || opts.metrics)
        return runAdmin(opts);
    if (opts.files.empty()) {
        usage();
        return 2;
    }
    if (!opts.profileJsonPath.empty() && opts.files.size() > 1)
        fatal("--profile-json supports a single input file (the profile "
              "document identifies one program)");
    if (opts.profile || !opts.profileJsonPath.empty())
        target::setProfilingEnabled(true);
    if (!opts.connectPath.empty())
        return runConnected(opts);
    if (!opts.tracePath.empty())
        obs::TraceRecorder::global().setEnabled(true);

    struct FileResult
    {
        std::string out;
        std::string err;
        int code = 0;
    };
    const auto results = core::parallelMap(
        opts.jobs, static_cast<int64_t>(opts.files.size()),
        [&](int64_t i) {
            FileResult r;
            r.code = runFileGuarded(opts, opts.files[static_cast<size_t>(i)],
                                    r.out, r.err);
            return r;
        });

    int code = 0;
    for (const auto &r : results) {
        std::fputs(r.out.c_str(), stdout);
        std::fputs(r.err.c_str(), stderr);
        code = std::max(code, r.code);
    }
    if (!opts.tracePath.empty())
        obs::writeChromeTrace(obs::TraceRecorder::global(),
                              opts.tracePath);
    if (opts.stats && opts.files.size() > 1)
        printCompileSummary();
    return code;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parseArgs(argc, argv));
    } catch (const polymath::UserError &e) {
        const polymath::Diagnostic diag{polymath::Severity::Error,
                                        e.message(), e.loc()};
        std::fprintf(stderr, "pmc: %s\n", diag.str().c_str());
        return 1;
    } catch (const polymath::InternalError &e) {
        std::fprintf(stderr, "pmc: %s\n", e.what()); // "internal error: …"
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "pmc: internal error: %s\n", e.what());
        return 2;
    }
}
