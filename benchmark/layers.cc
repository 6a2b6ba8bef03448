/**
 * @file
 * The traced run: where a workload's time goes, layer by layer.
 *
 * Four phases, all on the workload's own seeded stream:
 *
 *  1. Replay, in this process and on one thread, for half the run and
 *     at least the first options.tracedRequests requests (whose spans
 *     go to the trace file). Each request is decoded, executed by
 *     service::runRequestGuarded (the exact code pmcd runs), and
 *     encoded; then a mirror of that function executes it once more
 *     through the public entry point of every layer, each call in its
 *     own span. The mirror's output must equal the guarded output byte
 *     for byte, and the guarded time minus the mirrored layers is what
 *     the layers fail to account for.
 *  2. Probes: the few layers a workload's stream never calls (the
 *     simulator on cli-cold, DSE on the serving workloads, ...) are
 *     timed on fixed probe requests, so every metric is a measurement.
 *  3. A pmcd with telemetry on, driven like the timed run for three
 *     tenths of the run: server CPU per request, queue wait, execute.
 *  4. Forty pmc processes against the same requests run in-process:
 *     the difference is what a process start costs.
 *
 * Spans live in memory and are written as a Chrome trace at the end; a
 * layer's number is its self time (span minus its child spans). The
 * program's own obs tracing stays off.
 */
#include <fstream>
#include <optional>
#include <set>

#include "bench.h"
#include "core/error.h"
#include "core/json.h"
#include "core/strings.h"
#include "dse/dse.h"
#include "lower/compile_cache.h"
#include "lower/lower.h"
#include "passes/pass.h"
#include "pmlang/lexer.h"
#include "pmlang/parser.h"
#include "pmlang/sema.h"
#include "service/client.h"
#include "service/exec.h"
#include "soc/soc.h"
#include "srdfg/builder.h"
#include "srdfg/traversal.h"
#include "targets/common/backend.h"
#include "targets/common/cost_ledger.h"

namespace stackbench {

namespace pm = polymath;
using pm::service::Request;
using pm::service::Response;
using pm::service::Verb;

namespace {

/** pmc processes timed against in-process execution. */
constexpr int kPmcRuns = 40;
/** Flight-recorder size of the phase-3 daemon (telemetry on). */
constexpr size_t kFlightEntries = 256;

/** Self time and call count of one layer. */
struct Layer
{
    double selfUs = 0;
    int64_t calls = 0;
};

/** Layer aggregates and the counts recorded beside them. */
struct Table
{
    std::map<std::string, Layer> layers;
    std::map<std::string, double> counts;
};

/** A closed span, kept for the trace file. */
struct SpanRecord
{
    std::string name;
    double startUs = 0;
    double durUs = 0;
    std::string request;
};

/**
 * Span stack of the replay thread. A span's self time is attributed to
 * its layer when it closes; spans of requests begun with keep set are
 * also kept for the trace.
 */
class Recorder
{
  public:
    struct Times
    {
        double durUs = 0;
        double childUs = 0; ///< covered by child spans
    };

    /** Directs aggregates to the stream (0) or probe (1) table. */
    void setTable(int table) { table_ = table; }
    const Table &table(int t) const { return tables_[t]; }

    void beginRequest(std::string label, bool keep)
    {
        request_ = std::move(label);
        keep_ = keep;
        open("request");
    }
    void endRequest() { close(); }

    void open(std::string layer)
    {
        stack_.push_back({std::move(layer), now(), 0});
    }

    /** Closes the innermost span, optionally under another layer name
     *  (known only once the call returned, as hit vs. insert is). */
    Times close(const char *rename = nullptr)
    {
        const double end = now();
        Frame frame = std::move(stack_.back());
        stack_.pop_back();
        if (rename != nullptr)
            frame.layer = rename;
        const double dur = end - frame.start;
        attribute(frame.layer, dur - frame.childUs);
        if (!stack_.empty())
            stack_.back().childUs += dur;
        if (keep_)
            spans_.push_back({frame.layer, frame.start, dur, request_});
        return {dur, frame.childUs};
    }

    /** A child of the innermost span whose duration was measured by the
     *  callee (a PassResult); laid out after the earlier children. */
    void child(const std::string &layer, double durUs)
    {
        Frame &parent = stack_.back();
        attribute(layer, durUs);
        if (keep_)
            spans_.push_back(
                {layer, parent.start + parent.childUs, durUs, request_});
        parent.childUs += durUs;
    }

    void count(const std::string &name, double n)
    {
        tables_[table_].counts[name] += n;
    }

    /** Chrome-trace JSON of the kept spans. */
    std::string chromeTrace() const
    {
        std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
        bool first = true;
        for (const auto &s : spans_) {
            out += first ? "\n" : ",\n";
            first = false;
            const size_t dot = s.name.find('.');
            out += "{\"name\":" + pm::json::quote(s.name) +
                   ",\"cat\":" +
                   pm::json::quote(dot == std::string::npos
                                       ? "stackbench"
                                       : s.name.substr(0, dot)) +
                   ",\"ph\":\"X\",\"ts\":" +
                   pm::json::numberToJson(s.startUs) +
                   ",\"dur\":" + pm::json::numberToJson(s.durUs) +
                   ",\"pid\":1,\"tid\":1,\"args\":{\"request\":" +
                   pm::json::quote(s.request) + "}}";
        }
        out += "\n]}\n";
        return out;
    }

  private:
    struct Frame
    {
        std::string layer;
        double start = 0;
        double childUs = 0;
    };

    double now() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         origin_)
            .count();
    }

    void attribute(const std::string &layer, double selfUs)
    {
        Layer &l = tables_[table_].layers[layer];
        l.selfUs += selfUs;
        ++l.calls;
    }

    Clock::time_point origin_ = Clock::now();
    std::vector<Frame> stack_;
    std::vector<SpanRecord> spans_;
    Table tables_[2];
    int table_ = 0;
    std::string request_;
    bool keep_ = false;
};

/** One span that closes when it leaves scope (exceptions included). */
class Scope
{
  public:
    Scope(Recorder &rec, std::string layer) : rec_(rec)
    {
        rec_.open(std::move(layer));
    }
    ~Scope()
    {
        if (!closed_)
            rec_.close();
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    Recorder::Times close(const char *rename = nullptr)
    {
        closed_ = true;
        return rec_.close(rename);
    }

  private:
    Recorder &rec_;
    bool closed_ = false;
};

/** "constant-folding" -> "passes.constant_folding". */
std::string
passLayer(const std::string &pass)
{
    std::string name = "passes." + pass;
    for (char &c : name) {
        if (c == '-')
            c = '_';
    }
    return name;
}

/** The compile function of runRequest, one span per layer call. */
pm::lower::CompiledProgram
compileTraced(Recorder &rec, const Request &req,
              const pm::ir::BuildOptions &build,
              const pm::lower::AcceleratorRegistry &registry,
              pm::lang::Domain domain)
{
    std::vector<pm::lang::Token> tokens;
    {
        Scope s(rec, "pmlang.lex");
        tokens = pm::lang::Lexer(req.source).lexAll();
    }
    rec.count("pmlang.tokens", static_cast<double>(tokens.size()));
    std::shared_ptr<const pm::lang::Program> ast;
    {
        Scope s(rec, "pmlang.parse");
        ast = std::make_shared<const pm::lang::Program>(
            pm::lang::Parser(std::move(tokens)).parseProgram());
    }
    {
        Scope s(rec, "pmlang.sema");
        pm::lang::analyze(*ast, build.entry);
    }
    std::unique_ptr<pm::ir::Graph> graph;
    {
        Scope s(rec, "srdfg.build");
        graph = pm::ir::buildSrdfg(ast, build);
    }
    int64_t nodes = 0;
    pm::ir::forEachNodeRecursive(
        static_cast<const pm::ir::Graph &>(*graph),
        [&](const pm::ir::Graph &, const pm::ir::Node &) { ++nodes; });
    rec.count("srdfg.nodes", static_cast<double>(nodes));
    if (req.optimize) {
        Scope s(rec, "passes.fixpoint");
        const auto pipeline = pm::pass::standardPipeline();
        const auto results = pipeline.runToFixpoint(*graph);
        for (const auto &r : results) {
            rec.child(passLayer(r.name), static_cast<double>(r.micros));
            if (r.changed)
                rec.count(passLayer(r.name) + "_changed", 1);
        }
        rec.count("passes.rounds", static_cast<double>(results.size()) /
                                       static_cast<double>(pipeline.size()));
    }
    {
        Scope s(rec, "lower.lower");
        pm::lower::lowerGraph(*graph, registry.supportedOpsByDomain(),
                              domain);
    }
    Scope s(rec, "lower.translate");
    auto compiled = pm::lower::compileProgram(*graph, registry, domain);
    s.close();
    rec.count("lower.partitions",
              static_cast<double>(compiled.partitions.size()));
    return compiled;
}

/** What the mirror printed. */
struct Mirrored
{
    bool ok = false;
    bool hit = false;
    std::string output;
    std::string profileJson;
};

/**
 * service::runRequestGuarded + runRequest, statement for statement for
 * the fields the templates set (no --schedule, no fault injection),
 * with each call into a layer in its own span. Kept in step with
 * src/service/exec.cc: the replay compares outputs byte for byte.
 */
Mirrored
mirror(Recorder &rec, const Request &req, pm::lower::CompileCache &cache)
{
    Mirrored m;
    {
        std::string err;
        Scope s(rec, "pmlang.preflight");
        if (pm::service::preflightDiagnostics(req.source, err))
            return m;
    }
    const bool simulate =
        req.verb == Verb::Simulate || req.verb == Verb::Profile;
    const bool profile = req.verb == Verb::Profile;
    const bool want_doc = profile || req.profileDoc;
    const auto domain = pm::service::domainFromKeyword(req.target);
    std::optional<pm::lower::AcceleratorRegistry> registry;
    {
        Scope s(rec, "targets.registry");
        registry.emplace(pm::target::standardRegistry());
    }
    pm::ir::BuildOptions build;
    build.entry = req.entry;
    build.paramConsts = req.params;
    std::string key;
    {
        Scope s(rec, "lower.cache_key");
        key = pm::lower::compileCacheKey(req.source, build, domain,
                                         *registry,
                                         req.optimize ? "optimize=1"
                                                      : "optimize=0");
    }
    bool compiled_here = false;
    std::shared_ptr<const pm::lower::CompiledProgram> program;
    {
        Scope s(rec, "lower.cache_lookup");
        program = cache.getOrCompile(key, [&] {
            compiled_here = true;
            return compileTraced(rec, req, build, *registry, domain);
        });
        s.close(compiled_here ? "lower.cache_insert" : nullptr);
    }
    m.hit = !compiled_here;
    const pm::lower::CompiledProgram &compiled = *program;

    if (req.verb == Verb::Dse) {
        pm::dse::SearchOptions opts;
        opts.space = pm::dse::ConfigSpace::kindFromString(req.dseSpace);
        opts.driver =
            pm::dse::SearchOptions::driverFromString(req.dseSearch);
        opts.samples = req.dseSamples;
        opts.rounds = req.dseRounds;
        opts.seed = req.dseSeed;
        opts.jobs = 1;
        pm::target::WorkloadProfile workload;
        workload.invocations = req.invocations;
        std::vector<pm::dse::WorkloadStudy> studies;
        std::set<std::string> swept;
        for (const auto &partition : compiled.partitions) {
            if (!pm::dse::ConfigSpace::searchable(partition.accel) ||
                !swept.insert(partition.accel).second)
                continue;
            Scope s(rec, "dse.explore");
            studies.push_back(pm::dse::explore(
                req.file, partition.accel,
                pm::dse::partitionsFor(compiled, partition.accel),
                workload, opts));
            s.close();
            rec.count("dse.points",
                      static_cast<double>(studies.back().evaluated()));
        }
        if (studies.empty())
            return m;
        Scope s(rec, "dse.render");
        for (const auto &study : studies)
            m.output += pm::dse::frontTable(study) + "\n";
        m.output += "best configs:\n" + pm::dse::bestTable(studies);
        m.ok = true;
        return m;
    }

    {
        Scope s(rec, "lower.render");
        m.output += compiled.str();
    }
    m.ok = true;
    if (!simulate)
        return m;
    if (want_doc)
        pm::target::setProfilingEnabled(true);
    std::optional<pm::soc::SocRuntime> runtime;
    {
        Scope s(rec, "soc.runtime_init");
        runtime.emplace();
    }
    pm::target::WorkloadProfile workload;
    workload.invocations = req.invocations;
    std::optional<pm::soc::SocResult> sim;
    {
        Scope s(rec, "soc.simulate");
        sim.emplace(runtime->execute(compiled, workload));
    }
    m.output += pm::format("simulated: %s\n", sim->total.str().c_str());
    if (!profile && !want_doc)
        return m;
    Scope s(rec, "targets.profile_render");
    if (profile) {
        for (size_t pi = 0; pi < sim->partitions.size(); ++pi) {
            m.output += pm::format("partition %zu ", pi);
            m.output += pm::target::profileTable(
                sim->partitions[pi], static_cast<int>(req.profileTop));
        }
    }
    std::string doc = "{\"schema\":\"polymath-profile/1\"";
    doc += ",\"file\":" + pm::json::quote(req.file);
    doc += ",\"partitions\":[";
    for (size_t pi = 0; pi < sim->partitions.size(); ++pi) {
        if (pi)
            doc += ",";
        doc += pm::target::profileJson(sim->partitions[pi]);
    }
    doc += "],\"total\":" + pm::target::profileJson(sim->total) + "}\n";
    m.profileJson = std::move(doc);
    return m;
}

/** A layer's aggregate from the stream, or from the probes when the
 *  stream never called it. */
struct Pick
{
    const Table *table = nullptr;
    Layer layer;

    double perCall() const
    {
        return layer.calls > 0 ? layer.selfUs / static_cast<double>(
                                                    layer.calls)
                               : 0;
    }
    double countPerCall(const std::string &name) const
    {
        const auto it = table->counts.find(name);
        return it == table->counts.end() || layer.calls == 0
                   ? 0
                   : it->second / static_cast<double>(layer.calls);
    }
};

Pick
pick(const Recorder &rec, const std::string &layer)
{
    for (int t = 0; t < 2; ++t) {
        const auto &layers = rec.table(t).layers;
        const auto it = layers.find(layer);
        if (it != layers.end() && it->second.calls > 0)
            return {&rec.table(t), it->second};
    }
    return {&rec.table(1), {}};
}

/** Delta-scrape latency means of the phase-3 daemon. */
std::pair<double, double>
serviceLatencyMeans(const Daemon &daemon, bool baseline)
{
    Request req;
    req.verb = Verb::Metrics;
    req.metricsDelta = true;
    pm::service::Client client(daemon.socket());
    const Response resp = client.call(req);
    if (baseline)
        return {0, 0};
    const auto snap = pm::json::parse(resp.metricsJson);
    const auto mean = [&](const char *name) {
        const auto &l = snap.at("latencies").at(name);
        const double count = l.at("count").num();
        return count > 0 ? l.at("sum").num() / count : 0.0;
    };
    return {mean("service.queue_wait_us"), mean("service.execute_us")};
}

} // namespace

RunResult
runTraced(const RunOptions &o)
{
    RunResult result;
    const Workload &w = *o.workload;
    const bool cold = w.kind == Kind::CliCold;
    const auto started = Clock::now();

    // ---- 1. replay -----------------------------------------------------
    Recorder rec;
    pm::lower::CompileCache exec_cache;
    pm::lower::CompileCache mirror_cache;
    if (w.cacheEntries > 0) {
        exec_cache.setCapacity(w.cacheEntries);
        mirror_cache.setCapacity(w.cacheEntries);
    }
    std::vector<std::string> lines;
    for (const auto &t : templates())
        lines.push_back(t.request().json());
    const auto warm = warmupTemplates(w.kind);
    Stream stream(w.kind, o.seed);
    int64_t n = 0;
    double exec_us = 0, unattributed_us = 0, request_bytes = 0,
           response_bytes = 0, hits = 0;
    while (n < o.tracedRequests ||
           secondsBetween(started, Clock::now()) < o.seconds * 0.5) {
        const size_t index = static_cast<size_t>(n) < warm.size()
                                 ? warm[static_cast<size_t>(n)]
                                 : stream.next();
        rec.beginRequest(std::string(w.name) + "-" + std::to_string(n),
                         n < o.tracedRequests);
        Scope decode(rec, "service.decode");
        const Request req = Request::fromJson(lines[index]);
        decode.close();
        if (cold) { // every pmc process starts with an empty cache
            exec_cache.clear();
            mirror_cache.clear();
        }
        Scope exec(rec, "service.exec");
        const Response resp =
            pm::service::runRequestGuarded(req, exec_cache);
        const double exec_dur = exec.close().durUs;
        Scope encode(rec, "service.encode");
        const std::string reply = resp.json();
        encode.close();
        Scope mirror_span(rec, "mirror");
        const Mirrored m = mirror(rec, req, mirror_cache);
        const double mirrored = mirror_span.close().childUs;
        rec.endRequest();

        ++result.attempted;
        if (!resp.ok || !o.expected->matches(index, resp.output) ||
            !m.ok || m.output != resp.output ||
            m.profileJson != resp.profileJson)
            result.fail("traced replay differs for " +
                        templates()[index].name());
        exec_us += exec_dur;
        unattributed_us += exec_dur - mirrored;
        request_bytes += static_cast<double>(lines[index].size() + 1);
        response_bytes += static_cast<double>(reply.size() + 1);
        hits += m.hit ? 1 : 0;
        ++n;
    }
    const double requests = static_cast<double>(n);
    const double evictions =
        cold ? 0 : static_cast<double>(mirror_cache.evictions());

    // ---- 2. probes -----------------------------------------------------
    rec.setTable(1);
    {
        pm::lower::CompileCache probe_cache;
        std::vector<size_t> probes;
        for (size_t p = 0; p < programs().size(); ++p) {
            for (const Verb verb :
                 {Verb::Compile, Verb::Simulate, Verb::Profile})
                probes.push_back(templateIndex(p, verb));
        }
        for (const size_t index : warmupTemplates(Kind::DseSearch))
            probes.push_back(index);
        int64_t k = 0;
        for (const size_t index : probes) {
            rec.beginRequest("probe-" + std::to_string(k++), true);
            const Mirrored m =
                mirror(rec, templates()[index].request(), probe_cache);
            rec.endRequest();
            ++result.attempted;
            if (!m.ok || !o.expected->matches(index, m.output))
                result.fail("probe differs for " +
                            templates()[index].name());
        }
    }

    // ---- 3. pmcd with telemetry on ---------------------------------------
    // cli-cold's requests go to a one-entry cache, so that there too
    // every request is a cold compile.
    double cpu_per_req = 0, queue_wait_us = 0, execute_us = 0;
    {
        Daemon daemon(o.pmcd, o.workDir + "/traced.sock",
                      daemonFlags(cold ? 1 : w.cacheEntries, kFlightEntries));
        daemon.waitReady();
        warmUp(o, daemon, result);
        serviceLatencyMeans(daemon, true);
        const Drive drive =
            driveDaemon(o, daemon, o.seconds * 0.3, 0, result);
        std::tie(queue_wait_us, execute_us) =
            serviceLatencyMeans(daemon, false);
        daemon.shutdown();
        if (!drive.samples.empty())
            cpu_per_req = (drive.cpuMarks.back() - drive.cpuMarks.front()) *
                          1e6 / static_cast<double>(drive.samples.size());
    }

    // ---- 4. pmc process start ------------------------------------------
    std::vector<double> startup_ms;
    {
        const std::string dir = o.workDir + "/programs";
        writePrograms(dir);
        Stream pmc_stream(w.kind, o.seed);
        for (int i = 0; i < kPmcRuns; ++i) {
            const size_t index = pmc_stream.next();
            const auto child = runPmc(o, dir, index, result);
            pm::lower::CompileCache fresh;
            const auto begin = Clock::now();
            pm::service::runRequestGuarded(templates()[index].request(),
                                           fresh);
            const double inproc = secondsBetween(begin, Clock::now());
            startup_ms.push_back((child.wallSeconds - inproc) * 1e3);
        }
    }

    if (!o.tracePath.empty()) {
        std::ofstream trace(o.tracePath, std::ios::binary);
        if (!(trace << rec.chromeTrace()))
            pm::fatal("cannot write trace '" + o.tracePath + "'");
    }

    // ---- metrics -------------------------------------------------------
    const auto us = [&](const char *metric, const std::string &layer) {
        result.add(metric, pick(rec, layer).perCall(), "us");
    };
    const auto count = [&](const char *metric, const std::string &layer,
                           const std::string &counter) {
        result.add(metric, pick(rec, layer).countPerCall(counter), "count");
    };
    us("pmlang.lex_us", "pmlang.lex");
    us("pmlang.parse_us", "pmlang.parse");
    us("pmlang.sema_us", "pmlang.sema");
    count("pmlang.tokens", "pmlang.lex", "pmlang.tokens");
    us("pmlang.preflight_us", "pmlang.preflight");
    us("srdfg.build_us", "srdfg.build");
    count("srdfg.nodes", "srdfg.build", "srdfg.nodes");
    us("passes.fixpoint_us", "passes.fixpoint");
    count("passes.rounds", "passes.fixpoint", "passes.rounds");
    for (const char *pass : {"constant_folding", "simplify", "cse",
                             "algebraic_combination", "dce"}) {
        const std::string layer = std::string("passes.") + pass;
        result.add(layer + "_us", pick(rec, layer).perCall(), "us");
        result.add(layer + "_changed",
                   pick(rec, "passes.fixpoint")
                       .countPerCall(layer + "_changed"),
                   "count");
    }
    us("lower.lower_us", "lower.lower");
    us("lower.translate_us", "lower.translate");
    count("lower.partitions", "lower.translate", "lower.partitions");
    us("lower.cache_key_us", "lower.cache_key");
    us("lower.cache_lookup_us", "lower.cache_lookup");
    us("lower.cache_insert_us", "lower.cache_insert");
    result.add("lower.cache_hit_ratio", hits / requests, "ratio");
    result.add("lower.cache_evictions_per_req", evictions / requests,
               "ratio");
    us("lower.render_us", "lower.render");
    us("targets.registry_us", "targets.registry");
    us("targets.profile_render_us", "targets.profile_render");
    us("soc.runtime_init_us", "soc.runtime_init");
    us("soc.simulate_us", "soc.simulate");
    us("dse.explore_us", "dse.explore");
    count("dse.points", "dse.explore", "dse.points");
    const Pick explore = pick(rec, "dse.explore");
    const double points = explore.countPerCall("dse.points");
    result.add("dse.us_per_point",
               points > 0 ? explore.perCall() / points : 0, "us");
    us("dse.render_us", "dse.render");
    us("service.decode_us", "service.decode");
    us("service.encode_us", "service.encode");
    result.add("service.request_bytes", request_bytes / requests, "bytes");
    result.add("service.response_bytes", response_bytes / requests,
               "bytes");
    result.add("service.exec_us", exec_us / requests, "us");
    result.add("service.unattributed_us", unattributed_us / requests, "us");
    result.add("service.overhead_us", cpu_per_req - exec_us / requests,
               "us");
    result.add("service.queue_wait_us", queue_wait_us, "us");
    result.add("service.execute_us", execute_us, "us");
    result.add("pmc.startup_ms", median(startup_ms), "ms");

    std::fprintf(stderr,
                 "stackbench: traced %lld requests; unattributed %.1f%% "
                 "of service.exec_us\n",
                 static_cast<long long>(n),
                 exec_us > 0 ? 100.0 * unattributed_us / exec_us : 0.0);
    return result;
}

} // namespace stackbench
