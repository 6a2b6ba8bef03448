/**
 * @file
 * Pareto-front extraction over the autotuner's two objectives: runtime
 * (seconds, minimized) and efficiency (performance per watt, maximized).
 * A config is on the front iff no other config is at least as good on
 * both objectives and strictly better on one. Exact ties — equal on
 * both objectives — do not dominate each other, so tied configs are all
 * kept: a front of interchangeable designs is information, not noise.
 */
#ifndef POLYMATH_DSE_PARETO_H_
#define POLYMATH_DSE_PARETO_H_

#include <cstddef>
#include <vector>

namespace polymath::dse {

/** One candidate's objective values. */
struct Objective
{
    double seconds = 0.0;     ///< minimized
    double perfPerWatt = 0.0; ///< maximized
};

/** True when @p a dominates @p b: no worse on both objectives and
 *  strictly better on at least one. */
bool dominates(const Objective &a, const Objective &b);

/**
 * Positions of the non-dominated points of @p points, ascending (input
 * order preserved): the same set a pairwise dominates() check over every
 * pair gives, exact ties included, found in O(n log n) by sorting on
 * seconds and sweeping the best perf/W seen so far.
 */
std::vector<size_t> paretoFront(const std::vector<Objective> &points);

} // namespace polymath::dse

#endif // POLYMATH_DSE_PARETO_H_
