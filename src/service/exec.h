/**
 * @file
 * Request execution shared by the pmc CLI and the pmcd server.
 *
 * Both front ends funnel compile/simulate/profile work through
 * runRequest(), so a served response is byte-identical to local
 * execution *by construction* — there is exactly one implementation of
 * "what pmc prints for these flags", and the daemon transports its
 * bytes instead of re-deriving them. Compilations go through the shared
 * CompileCache (single-flight, optionally LRU-bounded), which is the
 * whole point of keeping the process alive across requests.
 */
#ifndef POLYMATH_SERVICE_EXEC_H_
#define POLYMATH_SERVICE_EXEC_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "lower/compile_cache.h"
#include "obs/trace.h"
#include "pmlang/ast.h"
#include "service/protocol.h"
#include "srdfg/builder.h"

namespace polymath::service {

/** Maps a --target keyword (RBT|GA|DSP|DA|DL, or ALL for per-statement
 *  annotations) to its domain. @throws UserError on anything else. */
lang::Domain domainFromKeyword(const std::string &word);

/**
 * Statement-level recovery parse of @p source, appending the
 * pmc-canonical diagnostic rendering (every error, not just the first)
 * to @p err. Returns true when errors were found — the caller stops
 * with exit code 1. Otherwise, when @p parsed is non-null, it receives
 * the parsed program: with no errors the recovery parse builds the same
 * AST as lang::parse(), so the caller can compile it instead of parsing
 * @p source again.
 */
bool preflightDiagnostics(const std::string &source, std::string &err,
                          std::shared_ptr<const lang::Program> *parsed =
                              nullptr);

/** What runRequest() produced for one work request. */
struct ExecResult
{
    std::string out; ///< pmc stdout bytes for the compiled program
    std::string profileJson; ///< polymath-profile/1 doc (profile verb)
    bool cacheHit = false;   ///< served (or coalesced) from the cache
    std::shared_ptr<const lower::CompiledProgram> program;
};

/**
 * Executes one compile/simulate/profile request through @p cache.
 * Exceptions (UserError/InternalError) propagate to the caller — the
 * CLI's existing guard and the server's runRequestGuarded() render them
 * identically. @p req.verb must be a work verb. @p parsed, when
 * non-null, is @p req.source as a clean preflightDiagnostics() parsed
 * it; a cache miss compiles that program instead of parsing the source
 * again.
 */
ExecResult runRequest(const Request &req, lower::CompileCache &cache,
                      std::shared_ptr<const lang::Program> parsed = nullptr);

/**
 * Per-request telemetry contract of runRequestGuarded (docs/
 * OBSERVABILITY.md §"Service telemetry"). The caller fills requestId
 * and captureTrace; the callee fills the rest. With captureTrace set,
 * the whole execution runs under an obs::RequestTraceScope, so every
 * span the request closes — and only this request's spans — lands in
 * `trace`, tagged to requestId, whether or not the global recorder is
 * on.
 */
struct RequestTelemetry
{
    std::string requestId;    ///< in: attribution id
    bool captureTrace = false; ///< in: collect the span trace
    int64_t executeMicros = 0; ///< out: wall time inside the guard
    std::string backends;      ///< out: comma-joined backend mix
    int64_t cacheHits = 0;     ///< out: compiles served from cache
    int64_t cacheMisses = 0;   ///< out: compiles done here
    std::vector<obs::TraceEvent> trace; ///< out (captureTrace only)
};

/** What a work request compiles, and the cache key it compiles under. */
struct Compilation
{
    lang::Domain domain = lang::Domain::None;
    ir::BuildOptions build;
    std::string key;
};

/**
 * The cache step of one work request: its key, built once, and the
 * program of the finished entry it names. pmcd runs this step on the
 * connection's reader, after admission, and decides from `hit` and the
 * verb whether the request runs there or goes to the worker pool
 * (docs/SERVICE.md, "The hit path").
 */
struct RequestLookup
{
    /** nullopt when the request is not a work verb or its target names
     *  no domain: nothing is keyed and runRequestGuarded reports why. */
    std::optional<Compilation> compilation;
    /** CompileCache::lookup's program; null on a miss or an in-flight
     *  entry, which proves nothing because its owner may still fail. */
    std::shared_ptr<const lower::CompiledProgram> hit;
};

/**
 * Builds @p req's key and looks it up in @p cache. A hit counts one
 * cache hit, exactly as getOrCompile() would; a miss counts nothing, so
 * the request's later compile is what counts it.
 */
RequestLookup lookupRequest(const Request &req, lower::CompileCache &cache);

/**
 * The server-side wrapper: preflight diagnostics + runRequest with the
 * exception-to-exit-code policy of the pmc process applied, rendered
 * into a Response whose output/error fields carry exactly the bytes
 * local pmc would print. @p lookup is lookupRequest(req, cache). A hit
 * skips preflight: that source compiled, so it has no syntax errors. A
 * miss compiles the program preflight parsed, so its source is parsed
 * once, under the key @p lookup built. @p telemetry, when non-null,
 * scopes the execution to that request id and reports what it did; with
 * nullptr the behavior (and cost) is exactly the pre-telemetry path.
 */
Response runRequestGuarded(const Request &req, lower::CompileCache &cache,
                           RequestLookup lookup,
                           RequestTelemetry *telemetry = nullptr);

/** runRequestGuarded with the lookup done here and no telemetry. */
Response runRequestGuarded(const Request &req, lower::CompileCache &cache);

} // namespace polymath::service

#endif // POLYMATH_SERVICE_EXEC_H_
