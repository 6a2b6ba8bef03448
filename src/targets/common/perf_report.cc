#include "targets/common/perf_report.h"

#include <cmath>
#include <limits>

#include "core/strings.h"
#include "targets/common/cost_ledger.h"

namespace polymath::target {

PerfReport &
PerfReport::operator+=(const PerfReport &other)
{
    if (machine.empty())
        machine = other.machine;
    const double prior_seconds = seconds;
    seconds += other.seconds;
    joules += other.joules;
    computeSeconds += other.computeSeconds;
    memorySeconds += other.memorySeconds;
    overheadSeconds += other.overheadSeconds;
    flops += other.flops;
    dramBytes += other.dramBytes;
    // Utilization of a sequential composition: time-weighted from the
    // accumulated totals, so chaining any number of partitions is
    // associative and order-independent (a pairwise average is neither).
    if (seconds > 0) {
        utilization = (utilization * prior_seconds +
                       other.utilization * other.seconds) /
                      seconds;
    }
    if (other.ledger) {
        // Merge into a fresh ledger: `ledger` may be aliased by earlier
        // copies of this report (and `other`'s is immutable by contract).
        auto merged = std::make_shared<CostLedger>();
        merged->machine = machine;
        merged->entries.reserve((ledger ? ledger->entries.size() : 0) +
                                other.ledger->entries.size());
        if (ledger)
            merged->append(*ledger);
        else
            merged->partitionCount = 0;
        merged->append(*other.ledger);
        merged->peakFlops = other.ledger->peakFlops;
        merged->dramGBs = other.ledger->dramGBs;
        if (ledger) {
            merged->peakFlops =
                std::max(merged->peakFlops, ledger->peakFlops);
            merged->dramGBs = std::max(merged->dramGBs, ledger->dramGBs);
        }
        ledger = std::move(merged);
    }
    return *this;
}

std::string
PerfReport::str() const
{
    // formatG, not printf %g: report lines must render identically under
    // every locale (the bench tables embed them verbatim).
    return machine + ": " + formatG(seconds * 1e3, 4) + " ms, " +
           formatG(joules * 1e3, 4) + " mJ, " + formatG(watts(), 3) +
           " W, " + std::to_string(flops) + " flops, " +
           std::to_string(dramBytes) + " B dram, util " +
           formatF(utilization * 100.0, 1) + "%";
}

namespace {

/** Shared zero-candidate convention of the improvement ratios: +inf for
 *  a free candidate against a costly baseline, 1.0 for free vs. free. */
double
improvement(double baseline, double candidate)
{
    if (candidate > 0)
        return baseline / candidate;
    return baseline > 0 ? std::numeric_limits<double>::infinity() : 1.0;
}

} // namespace

double
speedup(const PerfReport &baseline, const PerfReport &candidate)
{
    return improvement(baseline.seconds, candidate.seconds);
}

double
energyReduction(const PerfReport &baseline, const PerfReport &candidate)
{
    return improvement(baseline.joules, candidate.joules);
}

double
ppwImprovement(const PerfReport &baseline, const PerfReport &candidate)
{
    // perf-per-watt = (1/t)/W = 1/(t*W); improvement = (t_b*W_b)/(t_c*W_c).
    return improvement(baseline.seconds * baseline.watts(),
                       candidate.seconds * candidate.watts());
}

} // namespace polymath::target
