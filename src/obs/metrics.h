/**
 * @file
 * Process-wide metrics registry (docs/OBSERVABILITY.md).
 *
 * Named counters, gauges, and latency histograms with lock-free updates:
 * the registry hands out stable references (instruments are never
 * destroyed, reset() only zeroes them), so hot paths pay one relaxed
 * atomic op per update and can cache the reference across calls. Unlike
 * tracing, metrics are always on — they never print unless a stats dump
 * is requested, so reports stay byte-identical — and they are how layers
 * expose counts the caller would otherwise re-derive: compile-cache
 * hits/misses/coalesces, per-pass run, time and change counts, SoC DMA
 * bytes and partition counts, and the fault-injection retry/fallback
 * tallies of the resilience layer.
 */
#ifndef POLYMATH_OBS_METRICS_H_
#define POLYMATH_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace polymath::obs {

/** Monotonic (well, signed-delta) event count. */
class Counter
{
  public:
    void add(int64_t delta = 1)
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    int64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<int64_t> value_{0};
};

/** Last-write-wins instantaneous value. */
class Gauge
{
  public:
    void set(double value)
    {
        value_.store(value, std::memory_order_relaxed);
    }

    double value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0.0, std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0.0};
};

/** Point-in-time view of a LatencyHistogram, including the bounded-
 *  error percentiles the log-linear buckets exist for. */
struct LatencyStats
{
    int64_t count = 0; ///< includes underflow samples
    int64_t sum = 0;
    int64_t min = 0; ///< 0 when count == 0
    int64_t max = 0;
    int64_t underflow = 0; ///< samples <= 0 (treated as value 0)
    double p50 = 0.0;
    double p99 = 0.0;
    double p999 = 0.0;

    double mean() const
    {
        return count > 0
                   ? static_cast<double>(sum) / static_cast<double>(count)
                   : 0.0;
    }
};

/**
 * Log-linear (HDR-style) histogram of positive integer samples —
 * request latencies in microseconds, byte counts — with bounded-error
 * quantiles: each power-of-two octave is split into 128 linear
 * sub-buckets, so any quantile is off by at most half a sub-bucket
 * width (< 0.4% relative error), values below 256 are exact, and the
 * whole structure is a fixed array of relaxed atomics (lock-free
 * observe, deterministic quantiles for a given sample multiset at any
 * thread count). This replaces sorted-latency vectors (O(n) memory,
 * needs a barrier to sort) wherever p50/p99/p999 matter. At about
 * 57 KiB per instrument it is meant for a few hot latencies; a total
 * that only needs a mean is a pair of counters.
 */
class LatencyHistogram
{
  public:
    /** Sub-bucket resolution: 2^kSubBits linear buckets per octave. */
    static constexpr int kSubBits = 7;
    static constexpr int kSubBuckets = 1 << kSubBits; // 128
    /** Values in [0, 2*kSubBuckets) are exact (width-1 buckets). */
    static constexpr int kExactLimit = 2 * kSubBuckets; // 256
    /** Octaves above the exact range, enough for any int64 sample. */
    static constexpr int kOctaves = 55;
    static constexpr int kBucketCount =
        kExactLimit + kOctaves * kSubBuckets;

    /** Records @p value; values <= 0 land in the underflow bucket and
     *  quantile-walk as 0. */
    void observe(int64_t value);

    int64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    /**
     * Nearest-rank quantile for @p q in [0, 1], as the midpoint of the
     * containing bucket (exact below kExactLimit). 0 when empty.
     */
    double quantile(double q) const;

    LatencyStats stats() const;

    void reset();

    /** Bucket index for a positive @p value (exposed for tests). */
    static int bucketIndex(int64_t value);

    /** Representative (midpoint) value of bucket @p index. */
    static int64_t bucketValue(int index);

  private:
    std::atomic<int64_t> count_{0};
    std::atomic<int64_t> sum_{0};
    std::atomic<int64_t> min_{INT64_MAX};
    std::atomic<int64_t> max_{INT64_MIN};
    std::atomic<int64_t> underflow_{0};
    std::atomic<int64_t> buckets_[kBucketCount] = {};
};

/** Point-in-time copy of every instrument, for printing/asserting. */
struct MetricsSnapshot
{
    std::map<std::string, int64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, LatencyStats> latencies;

    /** Counter value, 0 when absent (snapshots are assert-friendly). */
    int64_t counter(const std::string &name) const;

    /** Flat `name value` text dump, sorted by name. */
    std::string str() const;

    /** JSON object {"counters":{},"gauges":{},"latencies":{}}. */
    std::string json() const;
};

/** Named-instrument registry; all accessors are thread-safe. */
class MetricsRegistry
{
  public:
    /** Finds or creates an instrument. The reference stays valid for the
     *  registry's lifetime (instruments are never removed). */
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    LatencyHistogram &latency(const std::string &name);

    MetricsSnapshot snapshot() const;

    /** Zeroes every instrument, keeping identities (cached references
     *  remain valid). */
    void reset();

    /** The process-wide registry every instrumentation site feeds. */
    static MetricsRegistry &global();

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<LatencyHistogram>> latencies_;
};

} // namespace polymath::obs

#endif // POLYMATH_OBS_METRICS_H_
