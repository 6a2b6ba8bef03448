#include "dse/pareto.h"

#include <algorithm>
#include <cmath>

namespace polymath::dse {

bool
dominates(const Objective &a, const Objective &b)
{
    return a.seconds <= b.seconds && a.perfPerWatt >= b.perfPerWatt &&
           (a.seconds < b.seconds || a.perfPerWatt > b.perfPerWatt);
}

std::vector<size_t>
paretoFront(const std::vector<Objective> &points)
{
    // A point with a NaN objective compares false both ways: it neither
    // dominates nor is dominated, so it is on the front and left out of
    // the sweep.
    std::vector<bool> dominated(points.size(), false);
    std::vector<size_t> order;
    order.reserve(points.size());
    for (size_t i = 0; i < points.size(); ++i) {
        if (!std::isnan(points[i].seconds) &&
            !std::isnan(points[i].perfPerWatt))
            order.push_back(i);
    }
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return points[a].seconds < points[b].seconds;
    });

    // Sweep by ascending seconds, one group of equal seconds at a time.
    // A point is dominated by a faster point with at least its perf/W,
    // or by an equally fast one with strictly more.
    bool any_faster = false;
    double best_faster = 0.0; ///< max perf/W over the faster groups
    for (size_t begin = 0; begin < order.size();) {
        const double seconds = points[order[begin]].seconds;
        size_t end = begin;
        double best_here = points[order[begin]].perfPerWatt;
        for (; end < order.size() && points[order[end]].seconds == seconds;
             ++end)
            best_here = std::max(best_here, points[order[end]].perfPerWatt);
        for (size_t k = begin; k < end; ++k) {
            const double ppw = points[order[k]].perfPerWatt;
            dominated[order[k]] =
                (any_faster && best_faster >= ppw) || best_here > ppw;
        }
        best_faster = any_faster ? std::max(best_faster, best_here)
                                 : best_here;
        any_faster = true;
        begin = end;
    }

    std::vector<size_t> front;
    for (size_t i = 0; i < points.size(); ++i) {
        if (!dominated[i])
            front.push_back(i);
    }
    return front;
}

} // namespace polymath::dse
