#include "service/exec.h"

#include <fstream>
#include <optional>
#include <set>

#include "core/diagnostics.h"
#include "core/error.h"
#include "core/json.h"
#include "core/strings.h"
#include "dse/dse.h"
#include "lower/lower.h"
#include "passes/pass.h"
#include "pmlang/parser.h"
#include "soc/soc.h"
#include "srdfg/builder.h"
#include "targets/common/backend.h"
#include "targets/common/cost_ledger.h"
#include "targets/deco/chain_mapper.h"
#include "targets/tabla/scheduler.h"

namespace polymath::service {

namespace {

/** The domain a --target keyword names; nullopt for anything else. */
std::optional<lang::Domain>
domainKeyword(const std::string &word)
{
    if (word == "ALL") return lang::Domain::None; // per-statement tags
    if (word == "RBT") return lang::Domain::RBT;
    if (word == "GA") return lang::Domain::GA;
    if (word == "DSP") return lang::Domain::DSP;
    if (word == "DA") return lang::Domain::DA;
    if (word == "DL") return lang::Domain::DL;
    return std::nullopt;
}

Compilation
compilationOf(const Request &req, lang::Domain domain)
{
    Compilation c;
    c.domain = domain;
    c.build.entry = req.entry;
    c.build.paramConsts = req.params;
    // The key covers (source, build options, domain, registry) but not
    // the pass pipeline, so the optimize flag is salted in to keep
    // optimized and unoptimized programs distinct.
    c.key = lower::compileCacheKey(req.source, c.build, domain,
                                   target::standardRegistry(),
                                   req.optimize ? "optimize=1"
                                                : "optimize=0");
    return c;
}

/**
 * runRequest() once the request is known to be well formed: compiles
 * @p c through @p cache, unless @p hit already holds its program, then
 * renders, simulates or searches it. A miss compiles @p parsed when it
 * is non-null, and parses the source otherwise.
 */
ExecResult
runCompilation(const Request &req, const Compilation &c,
               lower::CompileCache &cache,
               std::shared_ptr<const lower::CompiledProgram> hit,
               std::shared_ptr<const lang::Program> parsed)
{
    const bool simulate =
        req.verb == Verb::Simulate || req.verb == Verb::Profile;
    const bool profile = req.verb == Verb::Profile;
    const bool want_doc = profile || req.profileDoc;

    ExecResult result;
    bool compiled_here = false;
    result.program =
        hit ? std::move(hit) : cache.getOrCompile(c.key, [&] {
            compiled_here = true;
            const auto &registry = target::standardRegistry();
            auto fresh = parsed ? ir::compileToSrdfg(parsed, c.build)
                                : ir::compileToSrdfg(req.source, c.build);
            if (req.optimize)
                pass::standardPipeline().runToFixpoint(*fresh);
            lower::lowerGraph(*fresh, registry.supportedOpsByDomain(),
                              c.domain);
            return lower::compileProgram(*fresh, registry, c.domain);
        });
    result.cacheHit = !compiled_here;
    const lower::CompiledProgram &compiled = *result.program;

    if (req.verb == Verb::Dse) {
        // Design-space search over every searchable accelerator among
        // the compiled partitions (docs/DSE.md). Serial per request: the
        // server's fairness unit is the request.
        dse::SearchOptions opts;
        opts.space = dse::ConfigSpace::kindFromString(req.dseSpace);
        opts.driver =
            dse::SearchOptions::driverFromString(req.dseSearch);
        opts.samples = req.dseSamples;
        opts.rounds = req.dseRounds;
        opts.seed = req.dseSeed;
        target::WorkloadProfile workload;
        workload.invocations = req.invocations;
        std::vector<dse::WorkloadStudy> studies;
        std::set<std::string> swept;
        for (const auto &partition : compiled.partitions) {
            if (!dse::ConfigSpace::searchable(partition.accel) ||
                !swept.insert(partition.accel).second)
                continue;
            studies.push_back(dse::explore(
                req.file, partition.accel,
                dse::partitionsFor(compiled, partition.accel), workload,
                opts));
        }
        if (studies.empty())
            fatal("dse: the compiled program has no partitions on a "
                  "searchable accelerator");
        for (const auto &study : studies)
            result.out += dse::frontTable(study) + "\n";
        result.out += "best configs:\n" + dse::bestTable(studies);
        return result;
    }

    result.out += compiled.str();

    if (req.schedule) {
        for (const auto &partition : compiled.partitions) {
            if (partition.accel == "TABLA") {
                result.out += "TABLA PE schedule:\n" +
                              target::listSchedule(partition, {}).str();
            } else if (partition.accel == "DECO") {
                result.out += "DECO chain mapping:\n" +
                              target::mapChains(partition, {}).str();
            }
        }
    }
    if (!simulate)
        return result;

    // Ledgers for this request's thread only: later requests, and those
    // running beside it, price without them.
    std::optional<target::ProfilingScope> profiling;
    if (want_doc)
        profiling.emplace();
    soc::SocRuntime runtime;
    if (req.faultRate != 0) { // negative => validation error
        runtime.setFaultModel(soc::FaultModel(
            soc::FaultConfig::forRate(req.faultRate, req.faultSeed)));
    }
    target::WorkloadProfile workload;
    workload.invocations = req.invocations;
    const auto sim = runtime.execute(compiled, workload);
    result.out += format("simulated: %s\n", sim.total.str().c_str());
    if (req.faultRate > 0) {
        result.out += format("reliability: %s\n",
                             sim.reliability.str().c_str());
    }
    if (profile) {
        for (size_t pi = 0; pi < sim.partitions.size(); ++pi) {
            result.out += format("partition %zu ", pi);
            result.out += target::profileTable(
                sim.partitions[pi], static_cast<int>(req.profileTop));
        }
    }
    if (want_doc) {
        std::string doc = "{\"schema\":\"polymath-profile/1\"";
        doc += ",\"file\":" + json::quote(req.file);
        doc += ",\"partitions\":[";
        for (size_t pi = 0; pi < sim.partitions.size(); ++pi) {
            if (pi)
                doc += ",";
            doc += target::profileJson(sim.partitions[pi]);
        }
        doc += "],\"total\":" + target::profileJson(sim.total) + "}\n";
        result.profileJson = std::move(doc);
    }
    return result;
}

/** Distinct accelerators of @p program in partition order, joined with
 *  commas — the "backend mix" a request record reports. */
std::string
backendMix(const lower::CompiledProgram &program)
{
    std::string mix;
    std::set<std::string> seen;
    for (const auto &partition : program.partitions) {
        if (!seen.insert(partition.accel).second)
            continue;
        if (!mix.empty())
            mix += ",";
        mix += partition.accel;
    }
    return mix;
}

} // namespace

lang::Domain
domainFromKeyword(const std::string &word)
{
    if (const auto domain = domainKeyword(word))
        return *domain;
    fatal("unknown domain '" + word +
          "' (expected RBT|GA|DSP|DA|DL or ALL)");
}

bool
preflightDiagnostics(const std::string &source, std::string &err,
                     std::shared_ptr<const lang::Program> *parsed)
{
    DiagnosticEngine diag;
    auto program = lang::parseWithRecovery(source, diag);
    if (!diag.empty())
        err += diag.str();
    if (diag.hasErrors()) {
        err += format("pmc: %zu error(s)\n", diag.errorCount());
        return true;
    }
    if (parsed != nullptr)
        *parsed = std::make_shared<const lang::Program>(std::move(program));
    return false;
}

ExecResult
runRequest(const Request &req, lower::CompileCache &cache,
           std::shared_ptr<const lang::Program> parsed)
{
    if (!isWorkVerb(req.verb))
        panic("runRequest called with non-work verb '" +
              std::string(toString(req.verb)) + "'");
    if (req.target.empty())
        fatal("a " + std::string(toString(req.verb)) +
              " request needs a target domain (RBT|GA|DSP|DA|DL|ALL)");
    return runCompilation(
        req, compilationOf(req, domainFromKeyword(req.target)), cache,
        nullptr, std::move(parsed));
}

RequestLookup
lookupRequest(const Request &req, lower::CompileCache &cache)
{
    // A *finished* entry proves its source preflights clean. Preflight
    // reports only syntax errors, and an entry compiles either from a
    // clean preflight's program or through the strict parse, which
    // throws at the first syntax error, so a source with one never
    // finishes compiling. Without a known target the syntax errors must
    // still be reported first, so such a request is not keyed at all.
    RequestLookup lookup;
    const auto domain = isWorkVerb(req.verb) ? domainKeyword(req.target)
                                             : std::nullopt;
    if (domain) {
        lookup.compilation = compilationOf(req, *domain);
        lookup.hit = cache.lookup(lookup.compilation->key);
    }
    return lookup;
}

Response
runRequestGuarded(const Request &req, lower::CompileCache &cache)
{
    return runRequestGuarded(req, cache, lookupRequest(req, cache));
}

Response
runRequestGuarded(const Request &req, lower::CompileCache &cache,
                  RequestLookup lookup, RequestTelemetry *telemetry)
{
    Response resp;
    resp.id = req.id;
    // Request-scoped telemetry: the trace sink is installed for the
    // whole guarded body, so preflight, compile, and simulate spans of
    // *this* request (and no other) are captured even when the global
    // recorder is off. The nullptr path touches nothing.
    obs::RequestTrace rtrace(telemetry != nullptr ? telemetry->requestId
                                                  : std::string());
    std::optional<obs::RequestTraceScope> scope;
    if (telemetry != nullptr && telemetry->captureTrace)
        scope.emplace(rtrace);
    const int64_t begin_us =
        telemetry != nullptr
            ? obs::TraceRecorder::global().nowMicros()
            : 0;
    // Pre-flight syntax check with statement-level error recovery so
    // one response surfaces *every* syntax error, not just the first —
    // exactly the local pmc behavior. A hit skips it (lookupRequest says
    // why), and an in-flight entry or an unkeyed request falls through.
    // A clean preflight hands over its program, so a miss compiles it
    // instead of parsing the source again.
    std::shared_ptr<const lang::Program> parsed;
    if (!lookup.hit &&
        preflightDiagnostics(req.source, resp.error, &parsed)) {
        resp.ok = false;
        resp.code = 1;
        if (telemetry != nullptr) {
            telemetry->executeMicros =
                obs::TraceRecorder::global().nowMicros() - begin_us;
            telemetry->trace = rtrace.take();
        }
        return resp;
    }
    try {
        ExecResult result =
            lookup.compilation
                ? runCompilation(req, *lookup.compilation, cache,
                                 std::move(lookup.hit), std::move(parsed))
                : runRequest(req, cache, std::move(parsed));
        if (telemetry != nullptr) {
            if (result.program)
                telemetry->backends = backendMix(*result.program);
            (result.cacheHit ? telemetry->cacheHits
                             : telemetry->cacheMisses) += 1;
        }
        resp.output = std::move(result.out);
        resp.profileJson = std::move(result.profileJson);
        resp.cacheHit = result.cacheHit;
        resp.ok = true;
        resp.code = 0;
    } catch (const UserError &e) {
        const Diagnostic diag{Severity::Error, e.message(), e.loc()};
        resp.error += format("pmc: %s\n", diag.str().c_str());
        resp.ok = false;
        resp.code = 1;
    } catch (const InternalError &e) {
        resp.error += format("pmc: %s\n", e.what());
        resp.ok = false;
        resp.code = 2;
    } catch (const std::exception &e) {
        resp.error += format("pmc: internal error: %s\n", e.what());
        resp.ok = false;
        resp.code = 2;
    }
    if (telemetry != nullptr) {
        telemetry->executeMicros =
            obs::TraceRecorder::global().nowMicros() - begin_us;
        telemetry->trace = rtrace.take();
    }
    return resp;
}

} // namespace polymath::service
