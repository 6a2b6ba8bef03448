#include "streams.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <set>
#include <sstream>

#include "core/error.h"
#include "core/json.h"
#include "lower/compile_cache.h"
#include "service/exec.h"
#include "workloads/suite.h"

namespace stackbench {

using polymath::fatal;
using polymath::service::Verb;

namespace {

/** Seeds the random DSE driver draws from: a fixed pool keeps every
 *  dse request one of finitely many templates with a pinned output. */
constexpr uint64_t kDseSeeds[] = {1, 2, 3, 4, 5, 6, 7, 8};
constexpr size_t kDseSeedCount = std::size(kDseSeeds);
/** Per-program work templates: compile, simulate, profile. */
constexpr Verb kWorkVerbs[] = {Verb::Compile, Verb::Simulate, Verb::Profile};
constexpr size_t kWorkVerbCount = std::size(kWorkVerbs);

} // namespace

const std::vector<Program> &
programs()
{
    static const std::vector<Program> all = [] {
        std::vector<Program> out;
        for (const auto &bench : polymath::wl::tableIII()) {
            out.push_back({bench.id, bench.source, bench.buildOpts,
                           polymath::lang::toString(bench.domain), true});
        }
        for (const auto &app : polymath::wl::tableIV())
            out.push_back({app.id, app.source, app.buildOpts, "ALL", false});
        return out;
    }();
    return all;
}

std::string
Template::name() const
{
    const std::string &id = programs()[program].id;
    if (verb != Verb::Dse)
        return std::string(polymath::service::toString(verb)) + "/" + id;
    if (dseSearch == "grid")
        return "dse-grid/" + id;
    return "dse-random-" + std::to_string(dseSeed) + "/" + id;
}

std::string
Template::fileName() const
{
    return programs()[program].id + ".pm";
}

polymath::service::Request
Template::request() const
{
    const Program &p = programs()[program];
    polymath::service::Request req;
    req.verb = verb;
    req.file = fileName();
    req.source = p.source;
    req.entry = p.build.entry;
    req.params = p.build.paramConsts;
    req.optimize = true;
    req.target = p.target;
    if (verb == Verb::Dse) {
        req.dseSpace = "full";
        req.dseSearch = dseSearch;
        req.dseSeed = dseSeed;
    }
    return req;
}

std::vector<std::string>
Template::pmcFlags() const
{
    const Program &p = programs()[program];
    std::vector<std::string> flags = {"--optimize", "--target", p.target};
    if (p.build.entry != "main")
        flags.insert(flags.end(), {"--entry", p.build.entry});
    for (const auto &[name, value] : p.build.paramConsts)
        flags.insert(flags.end(),
                     {"--param", name + "=" + std::to_string(value)});
    switch (verb) {
      case Verb::Simulate:
        flags.push_back("--simulate");
        break;
      case Verb::Profile:
        flags.push_back("--profile");
        break;
      case Verb::Dse:
        flags.insert(flags.end(),
                     {"--dse", "--dse-space", "full", "--dse-search",
                      dseSearch, "--dse-seed", std::to_string(dseSeed)});
        break;
      default:
        break;
    }
    return flags;
}

const std::vector<Template> &
templates()
{
    static const std::vector<Template> all = [] {
        std::vector<Template> out;
        const size_t n = programs().size();
        for (size_t p = 0; p < n; ++p) {
            for (const Verb verb : kWorkVerbs)
                out.push_back({p, verb, "", 0});
        }
        for (size_t p = 0; p < n; ++p) {
            if (!programs()[p].tableIII)
                continue;
            out.push_back({p, Verb::Dse, "grid", 0x5eed});
            for (const uint64_t seed : kDseSeeds)
                out.push_back({p, Verb::Dse, "random", seed});
        }
        return out;
    }();
    return all;
}

size_t
templateIndex(size_t program, Verb verb)
{
    for (size_t v = 0; v < kWorkVerbCount; ++v) {
        if (kWorkVerbs[v] == verb)
            return program * kWorkVerbCount + v;
    }
    polymath::panic("templateIndex: not a per-program work verb");
}

namespace {

/** Index of the first dse template (grid) of Table III program @p p. */
size_t
dseTemplateBase(size_t p)
{
    return programs().size() * kWorkVerbCount + p * (1 + kDseSeedCount);
}

size_t
tableIIICount()
{
    return static_cast<size_t>(std::count_if(
        programs().begin(), programs().end(),
        [](const Program &p) { return p.tableIII; }));
}

} // namespace

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = {
        {"cli-cold", Kind::CliCold, 0},
        {"serve-hit", Kind::ServeHit, 0},
        {"serve-miss", Kind::ServeMiss, 8},
        {"dse-search", Kind::DseSearch, 0},
    };
    return all;
}

const Workload &
workloadByName(const std::string &name)
{
    for (const auto &w : workloads()) {
        if (name == w.name)
            return w;
    }
    fatal("unknown workload '" + name +
          "' (expected cli-cold|serve-hit|serve-miss|dse-search)");
}

Stream::Stream(Kind kind, uint64_t seed)
    : kind_(kind), rng_(seed * 0x9e3779b97f4a7c15ull + 1)
{
}

void
Stream::reshuffle(const std::vector<size_t> &members)
{
    cycle_ = members;
    for (size_t i = cycle_.size(); i > 1; --i) {
        const auto j = static_cast<size_t>(
            rng_.uniformInt(static_cast<int64_t>(i)));
        std::swap(cycle_[i - 1], cycle_[j]);
    }
    pos_ = 0;
}

size_t
Stream::next()
{
    const size_t n = programs().size();
    switch (kind_) {
      case Kind::CliCold: {
        // Rounds over all seventeen programs, each in a fresh order.
        if (pos_ >= cycle_.size()) {
            std::vector<size_t> all(n);
            for (size_t p = 0; p < n; ++p)
                all[p] = templateIndex(p, Verb::Compile);
            reshuffle(all);
        }
        return cycle_[pos_++];
      }
      case Kind::ServeHit: {
        const auto p = static_cast<size_t>(
            rng_.uniformInt(static_cast<int64_t>(n)));
        return templateIndex(p, rng_.uniform() < 0.7 ? Verb::Compile
                                                     : Verb::Simulate);
      }
      case Kind::ServeMiss: {
        // Every fifth request is MobileRobot (index 0), which that reuse
        // keeps resident; the rest walk the other programs round and
        // round in one seeded order, so each reuse distance is 15 and
        // exceeds the 8-entry cache (reshuffling per round would bring
        // repeats closer across the round boundary). Programs whose
        // source repeats an earlier one (Wiki-BFS is Twitter-BFS's
        // program) share a cache key, so only the first of them walks.
        size_t p = 0;
        if (count_++ % 5 != 4) {
            if (cycle_.empty()) {
                std::vector<size_t> others;
                std::set<std::string> sources = {programs()[0].source};
                for (size_t q = 1; q < n; ++q) {
                    if (sources.insert(programs()[q].source).second)
                        others.push_back(q);
                }
                reshuffle(others);
            }
            p = cycle_[pos_++ % cycle_.size()];
        }
        const double u = rng_.uniform();
        const Verb verb = u < 0.6   ? Verb::Compile
                          : u < 0.9 ? Verb::Simulate
                                    : Verb::Profile;
        return templateIndex(p, verb);
      }
      case Kind::DseSearch: {
        const auto p = static_cast<size_t>(
            rng_.uniformInt(static_cast<int64_t>(tableIIICount())));
        // Alternate the two search drivers; the random one draws its
        // seed from the fixed pool.
        const bool grid = (count_++ % 2) == 0;
        const size_t offset =
            grid ? 0
                 : 1 + static_cast<size_t>(rng_.uniformInt(
                           static_cast<int64_t>(kDseSeedCount)));
        return dseTemplateBase(p) + offset;
      }
    }
    polymath::panic("Stream::next: unhandled workload kind");
}

std::vector<size_t>
warmupTemplates(Kind kind)
{
    std::vector<size_t> out;
    const size_t n = programs().size();
    for (size_t p = 0; p < n; ++p) {
        if (kind == Kind::DseSearch) {
            if (programs()[p].tableIII)
                out.push_back(dseTemplateBase(p));
            continue;
        }
        out.push_back(templateIndex(p, Verb::Compile));
        if (kind == Kind::ServeHit)
            out.push_back(templateIndex(p, Verb::Simulate));
    }
    return out;
}

std::vector<Verb>
verbsOf(Kind kind)
{
    switch (kind) {
      case Kind::CliCold: return {Verb::Compile};
      case Kind::ServeHit: return {Verb::Compile, Verb::Simulate};
      case Kind::ServeMiss:
        return {Verb::Compile, Verb::Simulate, Verb::Profile};
      case Kind::DseSearch: return {Verb::Dse};
    }
    polymath::panic("verbsOf: unhandled workload kind");
}

uint64_t
outputDigest(const std::string &output)
{
    return polymath::lower::contentHash(output);
}

namespace {

constexpr const char *kExpectedSchema = "stackbench-expected/1";

std::string
hex(uint64_t value)
{
    char buf[17];
    const auto [end, ec] = std::to_chars(buf, buf + 16, value, 16);
    (void)ec;
    return std::string(16 - static_cast<size_t>(end - buf), '0') +
           std::string(buf, end);
}

} // namespace

Expected
Expected::load(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot read expected digests '" + path + "'");
    std::ostringstream text;
    text << in.rdbuf();
    const auto root = polymath::json::parse(text.str());
    if (!root.has("schema") || root.at("schema").str() != kExpectedSchema)
        fatal("'" + path + "' is not a " + kExpectedSchema + " file");
    Expected expected;
    for (const auto &[name, value] : root.at("digests").obj()) {
        const std::string &digits = value.str();
        uint64_t digest = 0;
        const auto [ptr, ec] = std::from_chars(
            digits.data(), digits.data() + digits.size(), digest, 16);
        if (ec != std::errc{} || ptr != digits.data() + digits.size())
            fatal("'" + path + "': bad digest for " + name);
        expected.digests_[name] = digest;
    }
    expected.index(path);
    return expected;
}

void
Expected::index(const std::string &origin)
{
    byIndex_.clear();
    for (const auto &t : templates()) {
        const auto it = digests_.find(t.name());
        if (it == digests_.end())
            fatal("'" + origin + "' has no digest for " + t.name() +
                  " (regenerate it with stackbench --write-expected)");
        byIndex_.push_back(it->second);
    }
}

Expected
Expected::generate()
{
    Expected expected;
    polymath::lower::CompileCache cache;
    for (const auto &t : templates()) {
        const auto result =
            polymath::service::runRequest(t.request(), cache);
        expected.digests_[t.name()] = outputDigest(result.out);
    }
    expected.index("generated digests");
    return expected;
}

void
Expected::write(const std::string &path) const
{
    std::string out = "{\n  \"schema\": \"";
    out += kExpectedSchema;
    out += "\",\n  \"digests\": {";
    bool first = true;
    for (const auto &[name, digest] : digests_) {
        out += first ? "\n" : ",\n";
        out += "    " + polymath::json::quote(name) + ": \"" + hex(digest) +
               "\"";
        first = false;
    }
    out += "\n  }\n}\n";
    std::ofstream file(path, std::ios::binary);
    if (!file || !(file << out))
        fatal("cannot write '" + path + "'");
}

bool
Expected::matches(size_t index, const std::string &output) const
{
    return byIndex_[index] == outputDigest(output);
}

} // namespace stackbench
