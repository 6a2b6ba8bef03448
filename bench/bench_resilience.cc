/**
 * @file
 * Resilience sweep: end-to-end slowdown vs. injected fault rate across the
 * Table III workloads on the SoC runtime (docs/RESILIENCE.md).
 *
 * For each fault rate r the model injects DMA failures at rate r,
 * watchdog timeouts at r/2, and permanent accelerator losses at r/5,
 * each workload drawing from its own seed-salted fault stream, so the
 * sweep is deterministic and fault sets are monotone in r (raising the
 * rate only adds faults). Reported per rate: geomean slowdown and
 * energy overhead vs. the fault-free run, aggregate availability, and
 * the retry/fallback tallies.
 *
 * Workloads compile through the suite driver's cache and the per-rate
 * sweeps fan out across the pool (-jN); each rate owns its SocRuntime and
 * the fault draws are seed-keyed, so the table is identical at every jobs
 * count.
 */
#include <cmath>
#include <cstdio>

#include "core/strings.h"
#include "driver.h"
#include "obs/metrics.h"
#include "report/report.h"
#include "soc/soc.h"
#include "targets/common/backend.h"
#include "workloads/suite.h"

using namespace polymath;

namespace {

/** One sweep row: rendered cells plus the raw tallies they came from,
 *  kept so the totals can be cross-checked against the SoC runtime's
 *  MetricsRegistry counters after the sweep. */
struct SweepRow
{
    std::vector<std::string> cells;
    int64_t faults = 0;
    int64_t retries = 0;
    int64_t fallbacks = 0;
    int64_t attempts = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    const uint64_t kSeed = 0x5eed;
    const double kRates[] = {0.0, 0.01, 0.05, 0.1, 0.2, 0.5, 0.75, 1.0};
    const int64_t kNumRates =
        static_cast<int64_t>(sizeof(kRates) / sizeof(kRates[0]));

    const bench::Driver driver(argc, argv);
    const auto &registry = target::standardRegistry();
    const auto workloads = driver.compileTableIII(registry);

    const auto rows = driver.map(kNumRates, [&](int64_t ri) {
        const double rate = kRates[ri];
        soc::SocRuntime runtime;
        double log_slowdown = 0.0;
        double log_energy = 0.0;
        SweepRow row;
        int64_t &faults = row.faults;
        int64_t &retries = row.retries;
        int64_t &fallbacks = row.fallbacks;
        int64_t &attempts = row.attempts;
        for (size_t i = 0; i < workloads.size(); ++i) {
            const auto &bench = *workloads[i].bench;
            // Calibrated host-library efficiency for fallback execution.
            const std::map<std::string, double> host_eff{
                {bench.accel, bench.cpuEff}};
            // A salted fault stream per workload, so the single-partition
            // workloads do not fault in lockstep.
            runtime.setFaultModel(soc::FaultModel(
                soc::FaultConfig::forRate(rate, soc::jobSeed(kSeed, i))));
            const auto r = runtime.execute(*workloads[i].program,
                                           bench.profile, {}, host_eff);
            log_slowdown += std::log(rate > 0 ? r.reliability.slowdown()
                                              : 1.0);
            log_energy += std::log(
                rate > 0 ? r.reliability.energyOverhead() : 1.0);
            faults += r.reliability.faultsInjected;
            retries += r.reliability.retriesSpent;
            fallbacks += r.reliability.hostFallbacks;
            attempts += r.reliability.offloadAttempts;
        }
        const double n = static_cast<double>(workloads.size());
        const double geomean = std::exp(log_slowdown / n);
        const double geomean_energy = std::exp(log_energy / n);
        const double availability =
            attempts > 0 ? 1.0 - static_cast<double>(fallbacks) /
                                     static_cast<double>(attempts)
                         : 1.0;
        const std::string rate_id = "rate=" + formatF(rate, 2);
        driver.record(rate_id, "geomean_slowdown", geomean);
        driver.record(rate_id, "geomean_energy", geomean_energy);
        driver.record(rate_id, "availability", availability);
        row.cells = {
            formatF(rate, 2), formatF(geomean, 4) + "x",
            formatF(geomean_energy, 4) + "x", formatF(availability, 3),
            std::to_string(faults), std::to_string(retries),
            std::to_string(fallbacks)};
        return row;
    });

    report::Table table({"Fault rate", "Geomean slowdown",
                         "Geomean energy", "Availability", "Faults",
                         "Retries", "Fallbacks"});
    for (const auto &row : rows)
        table.addRow(row.cells);
    std::printf("Resilience sweep: Table III workloads on the SoC, "
                "seed 0x%llx\n%s\n",
                static_cast<unsigned long long>(kSeed),
                table.str().c_str());
    std::printf("Policies: accel-unavailable => outage, migrate to a "
                "compatible accelerator or host fallback; DMA "
                "failure => retry w/ exponential backoff then host "
                "fallback; watchdog => re-execute then host fallback.\n");

    // Cross-check: the SoC runtime publishes its fault accounting through
    // the MetricsRegistry (soc.faults.*); the totals must agree with the
    // per-row ReliabilityReport tallies summed above. Any disagreement
    // means an instrumentation bug, so fail loudly — on stderr, keeping
    // stdout byte-identical to an unchecked run.
    SweepRow total;
    for (const auto &row : rows) {
        total.faults += row.faults;
        total.retries += row.retries;
        total.fallbacks += row.fallbacks;
        total.attempts += row.attempts;
    }
    const auto snap = obs::MetricsRegistry::global().snapshot();
    const auto check = [](const char *name, int64_t metric,
                          int64_t tallied) {
        if (metric == tallied)
            return true;
        std::fprintf(stderr,
                     "bench_resilience: metric %s = %lld disagrees with "
                     "summed ReliabilityReport tally %lld\n",
                     name, static_cast<long long>(metric),
                     static_cast<long long>(tallied));
        return false;
    };
    bool ok = true;
    ok &= check("soc.faults.injected",
                snap.counter("soc.faults.injected"), total.faults);
    ok &= check("soc.faults.retries", snap.counter("soc.faults.retries"),
                total.retries);
    ok &= check("soc.faults.host_fallbacks",
                snap.counter("soc.faults.host_fallbacks"),
                total.fallbacks);
    ok &= check("soc.faults.offload_attempts",
                snap.counter("soc.faults.offload_attempts"),
                total.attempts);
    return ok ? 0 : 1;
}
