#include "obs/metrics.h"

#include <bit>
#include <charconv>
#include <cmath>

#include "core/strings.h"

namespace polymath::obs {

int
LatencyHistogram::bucketIndex(int64_t value)
{
    // Values below kExactLimit get width-1 buckets; above it, the top
    // kSubBits+1 significant bits pick a linear sub-bucket inside the
    // value's power-of-two octave.
    if (value < kExactLimit)
        return static_cast<int>(value);
    const int width = std::bit_width(static_cast<uint64_t>(value));
    const int octave = width - kSubBits - 1; // >= 1 here
    const int64_t sub = value >> octave;     // in [kSubBuckets, 2*kSubBuckets)
    int index = kExactLimit + (octave - 1) * kSubBuckets +
                static_cast<int>(sub) - kSubBuckets;
    return index < kBucketCount ? index : kBucketCount - 1;
}

int64_t
LatencyHistogram::bucketValue(int index)
{
    if (index < kExactLimit)
        return index;
    const int octave = (index - kExactLimit) / kSubBuckets + 1;
    const int64_t sub =
        (index - kExactLimit) % kSubBuckets + kSubBuckets;
    const int64_t low = sub << octave;
    return low + (int64_t{1} << (octave - 1)); // bucket midpoint
}

void
LatencyHistogram::observe(int64_t value)
{
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    int64_t seen = min_.load(std::memory_order_relaxed);
    while (value < seen &&
           !min_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
    seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
    if (value <= 0) {
        underflow_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    buckets_[bucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
}

double
LatencyHistogram::quantile(double q) const
{
    const int64_t n = count_.load(std::memory_order_relaxed);
    if (n <= 0)
        return 0.0;
    q = q < 0.0 ? 0.0 : (q > 1.0 ? 1.0 : q);
    int64_t rank = static_cast<int64_t>(
        std::ceil(q * static_cast<double>(n)));
    rank = rank < 1 ? 1 : (rank > n ? n : rank);
    int64_t remaining = rank;
    remaining -= underflow_.load(std::memory_order_relaxed);
    if (remaining <= 0)
        return 0.0; // underflow samples quantile-walk as 0
    for (int i = 1; i < kBucketCount; ++i) {
        remaining -= buckets_[i].load(std::memory_order_relaxed);
        if (remaining <= 0)
            return static_cast<double>(bucketValue(i));
    }
    // A racing observe can leave the walk short; the recorded max is
    // the honest answer for the tail in that case.
    return static_cast<double>(max_.load(std::memory_order_relaxed));
}

LatencyStats
LatencyHistogram::stats() const
{
    LatencyStats s;
    s.count = count_.load(std::memory_order_relaxed);
    s.sum = sum_.load(std::memory_order_relaxed);
    s.underflow = underflow_.load(std::memory_order_relaxed);
    if (s.count > 0) {
        s.min = min_.load(std::memory_order_relaxed);
        s.max = max_.load(std::memory_order_relaxed);
        s.p50 = quantile(0.50);
        s.p99 = quantile(0.99);
        s.p999 = quantile(0.999);
    }
    return s;
}

void
LatencyHistogram::reset()
{
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    min_.store(INT64_MAX, std::memory_order_relaxed);
    max_.store(INT64_MIN, std::memory_order_relaxed);
    underflow_.store(0, std::memory_order_relaxed);
    for (auto &b : buckets_)
        b.store(0, std::memory_order_relaxed);
}

int64_t
MetricsSnapshot::counter(const std::string &name) const
{
    const auto it = counters.find(name);
    return it != counters.end() ? it->second : 0;
}

namespace {

/** Locale-independent double rendering (DESIGN.md §"Locale"). */
std::string
doubleText(double value)
{
    char buf[64];
    const auto [ptr, ec] =
        std::to_chars(buf, buf + sizeof(buf), value,
                      std::chars_format::general, 17);
    return ec == std::errc{} ? std::string(buf, ptr) : std::string("0");
}

} // namespace

std::string
MetricsSnapshot::str() const
{
    std::string out;
    for (const auto &[name, value] : counters)
        out += format("%-44s %lld\n", name.c_str(),
                      static_cast<long long>(value));
    for (const auto &[name, value] : gauges)
        out += format("%-44s %s\n", name.c_str(),
                      doubleText(value).c_str());
    for (const auto &[name, l] : latencies) {
        out += format("%-44s count %lld  p50 %s  p99 %s  p999 %s  "
                      "max %lld",
                      name.c_str(), static_cast<long long>(l.count),
                      doubleText(l.p50).c_str(),
                      doubleText(l.p99).c_str(),
                      doubleText(l.p999).c_str(),
                      static_cast<long long>(l.max));
        if (l.underflow > 0)
            out += format("  underflow %lld",
                          static_cast<long long>(l.underflow));
        out += "\n";
    }
    return out;
}

std::string
MetricsSnapshot::json() const
{
    // Metric names are [A-Za-z0-9._-] by convention, so no escaping is
    // needed; keep it that way when adding instruments.
    std::string out = "{\"counters\":{";
    bool first = true;
    for (const auto &[name, value] : counters) {
        out += first ? "" : ",";
        out += '"';
        out += name;
        out += "\":";
        out += std::to_string(value);
        first = false;
    }
    out += "},\"gauges\":{";
    first = true;
    for (const auto &[name, value] : gauges) {
        out += first ? "" : ",";
        out += '"';
        out += name;
        out += "\":";
        out += doubleText(value);
        first = false;
    }
    out += "},\"latencies\":{";
    first = true;
    for (const auto &[name, l] : latencies) {
        out += first ? "" : ",";
        out += '"';
        out += name;
        out += "\":{\"count\":";
        out += std::to_string(l.count);
        out += ",\"sum\":";
        out += std::to_string(l.sum);
        out += ",\"min\":";
        out += std::to_string(l.min);
        out += ",\"max\":";
        out += std::to_string(l.max);
        out += ",\"underflow\":";
        out += std::to_string(l.underflow);
        out += ",\"p50\":";
        out += doubleText(l.p50);
        out += ",\"p99\":";
        out += doubleText(l.p99);
        out += ",\"p999\":";
        out += doubleText(l.p999);
        out += '}';
        first = false;
    }
    out += "}}";
    return out;
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

LatencyHistogram &
MetricsRegistry::latency(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = latencies_[name];
    if (!slot)
        slot = std::make_unique<LatencyHistogram>();
    return *slot;
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    MetricsSnapshot snap;
    for (const auto &[name, c] : counters_)
        snap.counters[name] = c->value();
    for (const auto &[name, g] : gauges_)
        snap.gauges[name] = g->value();
    for (const auto &[name, l] : latencies_)
        snap.latencies[name] = l->stats();
    return snap;
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[name, c] : counters_)
        c->reset();
    for (const auto &[name, g] : gauges_)
        g->reset();
    for (const auto &[name, l] : latencies_)
        l->reset();
}

MetricsRegistry &
MetricsRegistry::global()
{
    static MetricsRegistry registry;
    return registry;
}

} // namespace polymath::obs
