#include "service/protocol.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <initializer_list>
#include <string_view>
#include <utility>

#include "core/error.h"
#include "core/json.h"

namespace polymath::service {

namespace {

/** @p v as an integer; the error names it as @p kind '@p name'. JSON
 *  doubles are exact up to 2^53, far beyond any id/count the protocol
 *  carries, and json::Value::asInt() rejects anything else. */
int64_t
checkedInt(const json::Value &v, const char *kind, std::string_view name)
{
    try {
        return v.asInt();
    } catch (const UserError &) {
        fatal(std::string("service: ") + kind + " '" + std::string(name) +
              "' must be an integer within +/-2^53");
    }
}

/**
 * The members of one wire line that a decoder reads, parsed straight
 * into place by json::parseMembers(), so decoding a line builds and
 * tears down no json::Object (a map node per member).
 * As in json::parse(), the first of a repeated key counts; keys outside
 * @p keys are skipped. Getters move their member out, so each field is
 * read once, after the whole line has parsed.
 */
class Fields
{
  public:
    /** Parses @p line, keeping the members named in @p keys (list them
     *  in the encoder's order). */
    Fields(const std::string &line,
           std::initializer_list<std::string_view> keys)
        : count_(keys.size())
    {
        if (count_ > kMaxKeys)
            panic("service: too many wire fields");
        std::copy(keys.begin(), keys.end(), keys_.begin());
        json::parseMembers(line, [this](std::string &key, json::Value &v) {
            const size_t i = indexOf(key);
            if (i < count_ && !present_[i]) {
                values_[i] = std::move(v);
                present_[i] = true;
            }
        });
        next_ = 0;
    }

    /** Member @p key, or nullptr when the line lacks it. */
    json::Value *find(std::string_view key)
    {
        const size_t i = indexOf(key);
        if (i == count_)
            panic("service: wire field '" + std::string(key) +
                  "' is not among the decoded keys");
        return present_[i] ? &values_[i] : nullptr;
    }

    int64_t getInt(std::string_view key, int64_t dflt)
    {
        const json::Value *v = find(key);
        return v ? checkedInt(*v, "field", key) : dflt;
    }

    double getNum(std::string_view key, double dflt)
    {
        const json::Value *v = find(key);
        return v ? v->num() : dflt;
    }

    bool getBool(std::string_view key, bool dflt)
    {
        const json::Value *v = find(key);
        if (!v)
            return dflt;
        if (!std::holds_alternative<bool>(v->data))
            fatal("service: field '" + std::string(key) +
                  "' must be a boolean");
        return std::get<bool>(v->data);
    }

    std::string getString(std::string_view key, std::string dflt)
    {
        json::Value *v = find(key);
        if (!v)
            return dflt;
        v->str(); // type check
        return std::move(std::get<std::string>(v->data));
    }

    /** Seed field: full uint64 carried as a decimal string (a JSON
     *  double truncates past 2^53). */
    uint64_t getSeed(std::string_view key, uint64_t dflt)
    {
        const std::string seed = getString(key, std::to_string(dflt));
        uint64_t value = 0;
        const char *begin = seed.data();
        const char *end = begin + seed.size();
        const auto [ptr, ec] = std::from_chars(begin, end, value);
        if (ec != std::errc{} || ptr != end)
            fatal("service: field '" + std::string(key) +
                  "' must be a decimal unsigned integer string (got '" +
                  seed + "')");
        return value;
    }

  private:
    static constexpr size_t kMaxKeys = 24;

    /** Index of @p key in keys_, or count_. The search starts after the
     *  last key found and wraps, so members met in the order of keys_ —
     *  the encoder's order, and the getters' — cost one comparison. */
    size_t indexOf(std::string_view key)
    {
        for (size_t n = 0; n < count_; ++n) {
            const size_t i = (next_ + n) % count_;
            if (keys_[i] == key) {
                next_ = i + 1;
                return i;
            }
        }
        return count_;
    }

    size_t count_;
    size_t next_ = 0; ///< where indexOf() starts
    std::array<std::string_view, kMaxKeys> keys_{};
    std::array<json::Value, kMaxKeys> values_{};
    std::array<bool, kMaxKeys> present_{};
};

/** Appends `,"key":"value"` to the document being rendered. */
void
appendString(std::string &doc, std::string_view key, std::string_view value)
{
    doc += ",\"";
    doc += key;
    doc += "\":";
    json::appendQuoted(doc, value);
}

} // namespace

const char *
toString(Verb verb)
{
    switch (verb) {
      case Verb::Compile: return "compile";
      case Verb::Simulate: return "simulate";
      case Verb::Profile: return "profile";
      case Verb::Dse: return "dse";
      case Verb::Stats: return "stats";
      case Verb::Dump: return "dump";
      case Verb::Metrics: return "metrics";
      case Verb::Shutdown: return "shutdown";
    }
    return "?";
}

bool
isWorkVerb(Verb verb)
{
    return verb == Verb::Compile || verb == Verb::Simulate ||
           verb == Verb::Profile || verb == Verb::Dse;
}

namespace {

Verb
verbFromString(const std::string &word)
{
    if (word == "compile") return Verb::Compile;
    if (word == "simulate") return Verb::Simulate;
    if (word == "profile") return Verb::Profile;
    if (word == "dse") return Verb::Dse;
    if (word == "stats") return Verb::Stats;
    if (word == "dump") return Verb::Dump;
    if (word == "metrics") return Verb::Metrics;
    if (word == "shutdown") return Verb::Shutdown;
    fatal("service: unknown verb '" + word +
          "' (expected compile|simulate|profile|dse|stats|dump|"
          "metrics|shutdown)");
}

} // namespace

std::string
Request::json() const
{
    std::string doc;
    doc.reserve(256 + source.size() + source.size() / 8);
    doc += "{\"id\":" + std::to_string(id);
    appendString(doc, "verb", toString(verb));
    if (!requestId.empty())
        appendString(doc, "requestId", requestId);
    if (metricsDelta)
        doc += ",\"metricsDelta\":true";
    appendString(doc, "file", file);
    appendString(doc, "source", source);
    appendString(doc, "entry", entry);
    if (!params.empty()) {
        doc += ",\"params\":{";
        bool first = true;
        for (const auto &[name, value] : params) {
            if (!first)
                doc += ",";
            first = false;
            json::appendQuoted(doc, name);
            doc += ':';
            doc += std::to_string(value);
        }
        doc += "}";
    }
    if (optimize)
        doc += ",\"optimize\":true";
    if (!target.empty())
        appendString(doc, "target", target);
    if (schedule)
        doc += ",\"schedule\":true";
    doc += ",\"invocations\":" + std::to_string(invocations);
    if (faultRate != 0.0)
        doc += ",\"faultRate\":" + json::numberToJson(faultRate);
    // Seeds are full uint64s; a JSON double would truncate past 2^53,
    // so the seed travels as a decimal string.
    appendString(doc, "faultSeed", std::to_string(faultSeed));
    doc += ",\"profileTop\":" + std::to_string(profileTop);
    if (profileDoc)
        doc += ",\"profileDoc\":true";
    if (verb == Verb::Dse) {
        appendString(doc, "dseSpace", dseSpace);
        appendString(doc, "dseSearch", dseSearch);
        doc += ",\"dseSamples\":" + std::to_string(dseSamples);
        doc += ",\"dseRounds\":" + std::to_string(dseRounds);
        // Same uint64-as-decimal-string convention as faultSeed.
        appendString(doc, "dseSeed", std::to_string(dseSeed));
    }
    doc += "}";
    return doc;
}

Request
Request::fromJson(const std::string &line)
{
    Fields fields(line,
                  {"id", "verb", "requestId", "metricsDelta", "file",
                   "source", "entry", "params", "optimize", "target",
                   "schedule", "invocations", "faultRate", "faultSeed",
                   "profileTop", "profileDoc", "dseSpace", "dseSearch",
                   "dseSamples", "dseRounds", "dseSeed"});
    Request req;
    const json::Value *verb = fields.find("verb");
    if (!verb)
        fatal("service: request has no 'verb'");
    req.verb = verbFromString(verb->str());
    req.id = fields.getInt("id", 0);
    req.requestId = fields.getString("requestId", "");
    req.metricsDelta = fields.getBool("metricsDelta", false);
    req.file = fields.getString("file", req.file);
    req.source = fields.getString("source", "");
    req.entry = fields.getString("entry", req.entry);
    if (const json::Value *params = fields.find("params")) {
        for (const auto &[name, value] : params->obj())
            req.params[name] = checkedInt(value, "param", name);
    }
    req.optimize = fields.getBool("optimize", false);
    req.target = fields.getString("target", "");
    req.schedule = fields.getBool("schedule", false);
    req.invocations = fields.getInt("invocations", 1);
    req.faultRate = fields.getNum("faultRate", 0.0);
    req.faultSeed = fields.getSeed("faultSeed", req.faultSeed);
    req.profileTop = fields.getInt("profileTop", 10);
    req.profileDoc = fields.getBool("profileDoc", false);
    req.dseSpace = fields.getString("dseSpace", req.dseSpace);
    req.dseSearch = fields.getString("dseSearch", req.dseSearch);
    req.dseSamples = fields.getInt("dseSamples", req.dseSamples);
    req.dseRounds = fields.getInt("dseRounds", req.dseRounds);
    req.dseSeed = fields.getSeed("dseSeed", req.dseSeed);
    if (req.profileTop < 1)
        fatal("service: field 'profileTop' must be positive");
    if (req.invocations < 1)
        fatal("service: field 'invocations' must be positive");
    if (req.dseSamples < 1)
        fatal("service: field 'dseSamples' must be positive");
    if (req.dseRounds < 1)
        fatal("service: field 'dseRounds' must be positive");
    return req;
}

std::string
Response::json() const
{
    // One buffer for the whole line, its trailing newline included
    // (the server appends it): the large string fields are escaped
    // straight into it.
    size_t bytes = 128 + stats.size() * 48;
    for (const std::string *field :
         {&requestId, &output, &error, &profileJson, &metricsJson})
        bytes += field->size() + field->size() / 8 + 16;
    std::string doc;
    doc.reserve(bytes);
    doc += "{\"id\":" + std::to_string(id);
    doc += ",\"ok\":";
    doc += ok ? "true" : "false";
    if (rejected)
        doc += ",\"rejected\":true";
    doc += ",\"code\":" + std::to_string(code);
    if (cacheHit)
        doc += ",\"cacheHit\":true";
    if (!requestId.empty())
        appendString(doc, "requestId", requestId);
    if (!output.empty())
        appendString(doc, "output", output);
    if (!error.empty())
        appendString(doc, "error", error);
    if (!profileJson.empty())
        appendString(doc, "profileJson", profileJson);
    if (!metricsJson.empty())
        appendString(doc, "metricsJson", metricsJson);
    if (!stats.empty()) {
        doc += ",\"stats\":{";
        bool first = true;
        for (const auto &[name, value] : stats) {
            if (!first)
                doc += ",";
            first = false;
            json::appendQuoted(doc, name);
            doc += ':';
            doc += json::numberToJson(value);
        }
        doc += "}";
    }
    doc += "}";
    return doc;
}

Response
Response::fromJson(const std::string &line)
{
    Fields fields(line, {"id", "ok", "rejected", "code", "cacheHit",
                         "requestId", "output", "error", "profileJson",
                         "metricsJson", "stats"});
    Response resp;
    resp.id = fields.getInt("id", 0);
    resp.ok = fields.getBool("ok", false);
    resp.rejected = fields.getBool("rejected", false);
    resp.code = static_cast<int>(fields.getInt("code", 0));
    resp.cacheHit = fields.getBool("cacheHit", false);
    resp.requestId = fields.getString("requestId", "");
    resp.output = fields.getString("output", "");
    resp.error = fields.getString("error", "");
    resp.profileJson = fields.getString("profileJson", "");
    resp.metricsJson = fields.getString("metricsJson", "");
    if (const json::Value *stats = fields.find("stats")) {
        for (const auto &[name, value] : stats->obj())
            resp.stats[name] = json::numberFromJson(value);
    }
    return resp;
}

} // namespace polymath::service
