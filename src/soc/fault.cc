#include "soc/fault.h"

#include <algorithm>

#include "core/error.h"
#include "core/rng.h"
#include "core/strings.h"

namespace polymath::soc {

std::string
toString(FaultClass fault)
{
    switch (fault) {
      case FaultClass::AcceleratorUnavailable: return "accel-unavailable";
      case FaultClass::DmaFailure: return "dma-failure";
      case FaultClass::WatchdogTimeout: return "watchdog-timeout";
    }
    return "fault";
}

std::string
toString(DegradationPolicy policy)
{
    switch (policy) {
      case DegradationPolicy::RetryThenHostFallback:
        return "retry-then-host-fallback";
      case DegradationPolicy::HostFallback: return "host-fallback";
      case DegradationPolicy::Abort: return "abort";
    }
    return "policy";
}

DegradationPolicy
FaultConfig::policyFor(FaultClass fault) const
{
    switch (fault) {
      case FaultClass::AcceleratorUnavailable: return accelPolicy;
      case FaultClass::DmaFailure: return dmaPolicy;
      case FaultClass::WatchdogTimeout: return watchdogPolicy;
    }
    return accelPolicy;
}

FaultConfig
FaultConfig::forRate(double rate, uint64_t seed)
{
    FaultConfig fc;
    fc.seed = seed;
    fc.dmaFailureRate = rate;
    fc.watchdogRate = rate / 2.0;
    fc.accelUnavailableRate = rate / 5.0;
    return fc;
}

uint64_t
jobSeed(uint64_t seed, uint64_t index)
{
    return seed ^ ((index + 1) * 0x9e3779b97f4a7c15ull);
}

void
FaultConfig::validate() const
{
    // Negated comparisons so NaN, which fails every comparison, is
    // rejected instead of silently disabling a fault class.
    auto rate = [](const char *field, double value) {
        if (!(value >= 0.0 && value <= 1.0)) {
            fatal(format("FaultConfig.%s must be in [0, 1] (got %g)", field,
                         value));
        }
    };
    rate("accelUnavailableRate", accelUnavailableRate);
    rate("dmaFailureRate", dmaFailureRate);
    rate("watchdogRate", watchdogRate);
    if (maxDmaRetries < 0)
        fatal("FaultConfig.maxDmaRetries must be non-negative");
    if (maxReexecutions < 0)
        fatal("FaultConfig.maxReexecutions must be non-negative");
    if (!(dmaRetryBackoffUs >= 0.0))
        fatal("FaultConfig.dmaRetryBackoffUs must be non-negative");
    if (!(maxBackoffUs >= 0.0))
        fatal("FaultConfig.maxBackoffUs must be non-negative");
}

std::string
FaultEvent::str() const
{
    return format("partition %d (%s): %s, %d retries%s", partition,
                  accel.c_str(), toString(fault).c_str(), retries,
                  fellBack ? ", fell back to host" : "");
}

double
ReliabilityReport::availability() const
{
    if (offloadAttempts == 0)
        return 1.0;
    return 1.0 - static_cast<double>(hostFallbacks) /
                     static_cast<double>(offloadAttempts);
}

double
ReliabilityReport::slowdown() const
{
    return faultFreeSeconds > 0.0 ? actualSeconds / faultFreeSeconds : 1.0;
}

double
ReliabilityReport::energyOverhead() const
{
    return faultFreeJoules > 0.0 ? actualJoules / faultFreeJoules : 1.0;
}

void
ReliabilityReport::addEvent(FaultEvent event)
{
    if (events.size() < kMaxEvents)
        events.push_back(std::move(event));
    else
        ++droppedEvents;
}

ReliabilityReport &
ReliabilityReport::operator+=(const ReliabilityReport &other)
{
    faultsInjected += other.faultsInjected;
    accelFaults += other.accelFaults;
    dmaFaults += other.dmaFaults;
    watchdogFaults += other.watchdogFaults;
    retriesSpent += other.retriesSpent;
    hostFallbacks += other.hostFallbacks;
    offloadAttempts += other.offloadAttempts;
    actualSeconds += other.actualSeconds;
    faultFreeSeconds += other.faultFreeSeconds;
    actualJoules += other.actualJoules;
    faultFreeJoules += other.faultFreeJoules;
    for (const auto &event : other.events)
        addEvent(event);
    droppedEvents += other.droppedEvents;
    return *this;
}

std::string
ReliabilityReport::str() const
{
    std::string out =
        format("faults: %lld (accel %lld, dma %lld, watchdog %lld), "
               "retries %lld, fallbacks %lld/%lld, availability ",
               static_cast<long long>(faultsInjected),
               static_cast<long long>(accelFaults),
               static_cast<long long>(dmaFaults),
               static_cast<long long>(watchdogFaults),
               static_cast<long long>(retriesSpent),
               static_cast<long long>(hostFallbacks),
               static_cast<long long>(offloadAttempts)) +
        formatF(availability(), 3) + ", slowdown " +
        formatF(slowdown(), 3) + "x, energy " +
        formatF(energyOverhead(), 3) + "x";
    for (const auto &event : events)
        out += "\n  " + event.str();
    if (droppedEvents > 0) {
        out += format("\n  (+%lld more events dropped; log keeps the "
                      "first %zu)",
                      static_cast<long long>(droppedEvents), kMaxEvents);
    }
    return out;
}

FaultModel::FaultModel(FaultConfig config) : config_(config)
{
    config_.validate();
}

double
FaultModel::draw(int partition, FaultClass fault, int attempt) const
{
    // Stateless draw: hash the coordinates into a one-shot SplitMix64
    // stream. Thresholding the same draw means fault sets are monotone in
    // the rate — raising a rate only ever adds faults for a fixed seed.
    const uint64_t key = (static_cast<uint64_t>(partition) << 24) ^
                         (static_cast<uint64_t>(fault) << 16) ^
                         static_cast<uint64_t>(attempt + 1);
    Rng rng(config_.seed ^ (key * 0x9e3779b97f4a7c15ull));
    rng.next(); // decorrelate nearby keys
    return rng.uniform();
}

bool
FaultModel::acceleratorUnavailable(int partition) const
{
    return config_.accelUnavailableRate > 0.0 &&
           draw(partition, FaultClass::AcceleratorUnavailable, 0) <
               config_.accelUnavailableRate;
}

bool
FaultModel::dmaFails(int partition, int attempt) const
{
    return config_.dmaFailureRate > 0.0 &&
           draw(partition, FaultClass::DmaFailure, attempt) <
               config_.dmaFailureRate;
}

bool
FaultModel::watchdogFires(int partition, int attempt) const
{
    return config_.watchdogRate > 0.0 &&
           draw(partition, FaultClass::WatchdogTimeout, attempt) <
               config_.watchdogRate;
}

double
FaultModel::backoffSeconds(int attempt) const
{
    const double exponential =
        config_.dmaRetryBackoffUs *
        static_cast<double>(1ll << (attempt < 62 ? attempt : 62));
    return std::min(exponential, config_.maxBackoffUs) * 1e-6;
}

} // namespace polymath::soc
