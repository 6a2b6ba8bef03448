#include "obs/export.h"

#include <charconv>
#include <fstream>

#include "core/error.h"
#include "core/strings.h"

namespace polymath::obs {

namespace {

/** Minimal JSON string escaping (control chars, quote, backslash). */
std::string
escaped(const std::string &text)
{
    std::string out;
    out.reserve(text.size() + 2);
    for (const char c : text) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += format("\\u%04x", c);
            else
                out += c;
        }
    }
    return out;
}

void
appendEvent(std::string &out, const TraceEvent &ev)
{
    out += "{\"name\":\"" + escaped(ev.name) + "\"";
    if (!ev.cat.empty())
        out += ",\"cat\":\"" + escaped(ev.cat) + "\"";
    out += ",\"ph\":\"";
    out += ev.ph;
    out += "\",\"pid\":" + std::to_string(ev.pid) +
           ",\"tid\":" + std::to_string(ev.tid) +
           ",\"ts\":" + std::to_string(ev.ts);
    if (ev.ph == 'X')
        out += ",\"dur\":" + std::to_string(ev.dur);
    if (ev.ph == 'i')
        out += ",\"s\":\"t\""; // instant scope: thread
    if (!ev.args.empty()) {
        out += ",\"args\":{";
        for (size_t i = 0; i < ev.args.size(); ++i) {
            const auto &arg = ev.args[i];
            out += (i ? "," : "");
            out += '"';
            out += escaped(arg.key);
            out += "\":";
            if (arg.numeric) {
                out += arg.value;
            } else {
                out += '"';
                out += escaped(arg.value);
                out += '"';
            }
        }
        out += "}";
    }
    out += "}";
}

void
appendProcessName(std::string &out, int pid, const char *name)
{
    out += format("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
                  "\"tid\":0,\"args\":{\"name\":\"%s\"}}",
                  pid, name);
}

} // namespace

std::string
traceEventJson(const TraceEvent &event)
{
    std::string out;
    appendEvent(out, event);
    return out;
}

std::string
chromeTraceJson(const TraceRecorder &recorder)
{
    const auto events = recorder.snapshot();
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    appendProcessName(out, kRealPid, "polymath (wall clock)");
    out += ",";
    appendProcessName(out, kVirtualPid, "polymath SoC (virtual time)");
    for (const auto &ev : events) {
        out += ",\n";
        appendEvent(out, ev);
    }
    out += "]}\n";
    return out;
}

namespace {

/** "service.requests.completed" -> "polymath_service_requests_completed". */
std::string
promName(const std::string &name)
{
    std::string out = "polymath_";
    for (const char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == ':';
        out += ok ? c : '_';
    }
    return out;
}

/** Locale-independent number rendering for exposition values. */
std::string
promDouble(double value)
{
    char buf[64];
    const auto [ptr, ec] =
        std::to_chars(buf, buf + sizeof(buf), value,
                      std::chars_format::general, 17);
    return ec == std::errc{} ? std::string(buf, ptr) : std::string("0");
}

} // namespace

std::string
prometheusText(const MetricsSnapshot &snapshot)
{
    std::string out;
    for (const auto &[name, value] : snapshot.counters) {
        const std::string n = promName(name);
        out += "# TYPE " + n + " counter\n";
        out += n + " " + std::to_string(value) + "\n";
    }
    for (const auto &[name, value] : snapshot.gauges) {
        const std::string n = promName(name);
        out += "# TYPE " + n + " gauge\n";
        out += n + " " + promDouble(value) + "\n";
    }
    for (const auto &[name, l] : snapshot.latencies) {
        const std::string n = promName(name);
        out += "# TYPE " + n + " summary\n";
        out += n + "{quantile=\"0.5\"} " + promDouble(l.p50) + "\n";
        out += n + "{quantile=\"0.99\"} " + promDouble(l.p99) + "\n";
        out += n + "{quantile=\"0.999\"} " + promDouble(l.p999) + "\n";
        out += n + "_sum " + std::to_string(l.sum) + "\n";
        out += n + "_count " + std::to_string(l.count) + "\n";
        if (l.underflow > 0)
            out += n + "_underflow " + std::to_string(l.underflow) + "\n";
    }
    return out;
}

void
writeChromeTrace(const TraceRecorder &recorder, const std::string &path)
{
    std::ofstream file(path, std::ios::binary);
    if (!file)
        fatal("cannot open trace file '" + path + "' for writing");
    const std::string json = chromeTraceJson(recorder);
    file.write(json.data(), static_cast<std::streamsize>(json.size()));
    if (!file)
        fatal("failed writing trace file '" + path + "'");
}

} // namespace polymath::obs
