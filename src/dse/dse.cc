#include "dse/dse.h"

#include <algorithm>
#include <map>
#include <set>

#include "core/error.h"
#include "core/rng.h"
#include "core/strings.h"
#include "dse/pareto.h"
#include "report/report.h"
#include "targets/common/cost_ledger.h"

namespace polymath::dse {

SearchOptions::Driver
SearchOptions::driverFromString(const std::string &word)
{
    if (word == "auto") return Driver::Auto;
    if (word == "grid") return Driver::Grid;
    if (word == "random") return Driver::Random;
    fatal("dse: unknown search driver '" + word +
          "' (expected auto|grid|random)");
}

const char *
SearchOptions::toString(Driver driver)
{
    switch (driver) {
      case Driver::Auto: return "auto";
      case Driver::Grid: return "grid";
      case Driver::Random: return "random";
    }
    return "?";
}

double
WorkloadStudy::bestSpeedup() const
{
    const double b = best().seconds;
    return b > 0.0 ? baseline().seconds / b : 0.0;
}

double
WorkloadStudy::bestPpwGain() const
{
    const double b = baseline().perfPerWatt;
    return b > 0.0 ? best().perfPerWatt / b : 0.0;
}

namespace {

/** Prices @p partitions (with their @p analyses, made once per explore)
 *  at one space point and attributes phases. */
EvalPoint
evaluatePoint(const ConfigSpace &space, int64_t index,
              const std::vector<const lower::Partition *> &partitions,
              const std::vector<target::PartitionAnalysis> &analyses,
              const target::WorkloadProfile &profile)
{
    const auto backend =
        target::makeBackend(space.backend(), space.machineAt(index));
    target::PerfReport total;
    bool first = true;
    for (size_t i = 0; i < partitions.size(); ++i) {
        auto report =
            backend->simulate(*partitions[i], analyses[i], profile);
        if (first) {
            total = std::move(report);
            first = false;
        } else {
            total += report;
        }
    }

    EvalPoint point;
    point.index = index;
    point.label = space.label(index);
    point.seconds = total.seconds;
    point.joules = total.joules;
    point.perfPerWatt = total.joules > 0.0
                            ? static_cast<double>(total.flops) /
                                  total.joules
                            : 0.0;
    if (total.ledger) {
        const target::CostEntry *top = nullptr;
        for (const auto &entry : total.ledger->entries) {
            if (entry.phase == "compute")
                point.computeSeconds += entry.seconds;
            else if (entry.phase == "dma")
                point.dmaSeconds += entry.seconds;
            else
                point.overheadSeconds += entry.seconds;
            if (!top || entry.seconds > top->seconds)
                top = &entry;
        }
        // Fixed comparison order makes phase ties deterministic.
        point.dominantPhase = "compute";
        double dominant = point.computeSeconds;
        if (point.dmaSeconds > dominant) {
            point.dominantPhase = "dma";
            dominant = point.dmaSeconds;
        }
        if (point.overheadSeconds > dominant)
            point.dominantPhase = "overhead";
        if (top)
            point.topCost = top->label;
    }
    return point;
}

/** Survivor ranking score for successive halving: the energy-delay
 *  product balances both objectives so neither extreme monopolizes the
 *  refinement budget. Ties break on the index for determinism. */
bool
scoreLess(const EvalPoint &a, const EvalPoint &b)
{
    const double sa = a.seconds * a.joules;
    const double sb = b.seconds * b.joules;
    if (sa != sb)
        return sa < sb;
    return a.index < b.index;
}

/** First random-driver round: @p count distinct indices drawn from a
 *  seeded Rng, always containing the base (factory) index. */
std::vector<int64_t>
sampleIndices(const ConfigSpace &space, int64_t count, uint64_t seed)
{
    std::set<int64_t> picked;
    picked.insert(space.baseIndex());
    Rng rng(seed);
    const int64_t n = space.size();
    const int64_t want = std::min(count, n);
    // Bounded rejection sampling: deterministic and cheap because the
    // budget is far below the space size in the regimes that use it.
    int64_t attempts = 0;
    while (static_cast<int64_t>(picked.size()) < want &&
           attempts < 64 * count)
    {
        picked.insert(rng.uniformInt(n));
        ++attempts;
    }
    return {picked.begin(), picked.end()};
}

} // namespace

std::vector<const lower::Partition *>
partitionsFor(const lower::CompiledProgram &program,
              const std::string &backend)
{
    std::vector<const lower::Partition *> out;
    for (const auto &partition : program.partitions) {
        if (partition.accel == backend)
            out.push_back(&partition);
    }
    return out;
}

WorkloadStudy
explore(const std::string &workload_id, const std::string &backend,
        const std::vector<const lower::Partition *> &partitions,
        const target::WorkloadProfile &profile,
        const SearchOptions &options)
{
    if (partitions.empty())
        fatal("dse: workload '" + workload_id +
              "' has no partitions compiled for backend '" + backend +
              "'");
    const ConfigSpace space =
        ConfigSpace::forBackend(backend, options.space);
    if (options.samples < 1)
        fatal("dse: samples must be positive");
    if (options.rounds < 1)
        fatal("dse: rounds must be positive");

    // Phase attribution needs cost ledgers; the switch is sticky and
    // process-wide, and all reports are byte-identical either way.
    target::setProfilingEnabled(true);

    // Analyses are machine-independent: made once here under the factory
    // config, then shared read-only by every point's pricing.
    std::vector<target::PartitionAnalysis> analyses;
    analyses.reserve(partitions.size());
    {
        const auto analyzer = target::makeBackend(
            backend, space.machineAt(space.baseIndex()));
        for (const lower::Partition *partition : partitions)
            analyses.push_back(analyzer->analyze(*partition));
    }

    auto driver = options.driver;
    if (driver == SearchOptions::Driver::Auto) {
        // Grid when the sampling budget would cover the space anyway.
        driver = space.size() <= options.samples
                     ? SearchOptions::Driver::Grid
                     : SearchOptions::Driver::Random;
    }

    WorkloadStudy study;
    study.workload = workload_id;
    study.backend = backend;
    study.spaceSize = space.size();

    std::map<int64_t, EvalPoint> evaluated;
    const auto evaluateRound = [&](const std::vector<int64_t> &indices) {
        for (const int64_t index : indices) {
            evaluated.emplace(index, evaluatePoint(space, index, partitions,
                                                   analyses, profile));
        }
    };

    if (driver == SearchOptions::Driver::Grid) {
        std::vector<int64_t> all(static_cast<size_t>(space.size()));
        for (size_t i = 0; i < all.size(); ++i)
            all[i] = static_cast<int64_t>(i);
        evaluateRound(all);
    } else {
        // Seeded sampling, then successive halving: each round keeps
        // the best half (by energy-delay product) of everything seen so
        // far and explores the unvisited neighbors of the survivors.
        auto frontier =
            sampleIndices(space, options.samples, options.seed);
        for (int64_t round = 0; round < options.rounds; ++round) {
            if (frontier.empty())
                break;
            evaluateRound(frontier);
            if (round + 1 >= options.rounds)
                break;
            std::vector<const EvalPoint *> ranked;
            ranked.reserve(evaluated.size());
            for (const auto &[index, point] : evaluated)
                ranked.push_back(&point);
            std::sort(ranked.begin(), ranked.end(),
                      [](const EvalPoint *a, const EvalPoint *b) {
                          return scoreLess(*a, *b);
                      });
            const auto keep = static_cast<size_t>(std::max<int64_t>(
                2, options.samples >> (round + 1)));
            std::set<int64_t> next;
            for (size_t i = 0; i < ranked.size() && i < keep; ++i) {
                for (const int64_t n :
                     space.neighbors(ranked[i]->index))
                {
                    if (!evaluated.count(n))
                        next.insert(n);
                }
            }
            frontier.assign(next.begin(), next.end());
        }
    }

    study.points.reserve(evaluated.size());
    for (auto &[index, point] : evaluated)
        study.points.push_back(std::move(point));

    std::vector<Objective> objectives;
    objectives.reserve(study.points.size());
    for (const auto &point : study.points)
        objectives.push_back({point.seconds, point.perfPerWatt});
    study.front = paretoFront(objectives);
    std::sort(study.front.begin(), study.front.end(),
              [&](size_t a, size_t b) {
                  const auto &pa = study.points[a];
                  const auto &pb = study.points[b];
                  if (pa.seconds != pb.seconds)
                      return pa.seconds < pb.seconds;
                  return pa.index < pb.index;
              });

    const int64_t base_index = space.baseIndex();
    for (size_t i = 0; i < study.points.size(); ++i) {
        if (study.points[i].index == base_index)
            study.baselinePos = i;
    }

    // Best = the front point with the largest combined gain over the
    // factory config (speedup x perf-per-watt improvement); the product
    // rewards balanced wins over one-objective extremes.
    const EvalPoint &base = study.points[study.baselinePos];
    study.bestPos = study.baselinePos;
    double best_gain = 1.0;
    for (const size_t pos : study.front) {
        const EvalPoint &p = study.points[pos];
        if (p.seconds <= 0.0 || base.perfPerWatt <= 0.0)
            continue;
        const double gain = (base.seconds / p.seconds) *
                            (p.perfPerWatt / base.perfPerWatt);
        const EvalPoint &cur = study.points[study.bestPos];
        if (gain > best_gain ||
            (gain == best_gain && p.index < cur.index))
        {
            best_gain = gain;
            study.bestPos = pos;
        }
    }
    return study;
}

std::string
frontTable(const WorkloadStudy &study)
{
    std::string out = format(
        "%s on %s: %lld of %lld configs evaluated, Pareto front %zu\n",
        study.workload.c_str(), study.backend.c_str(),
        static_cast<long long>(study.evaluated()),
        static_cast<long long>(study.spaceSize), study.front.size());
    report::Table table({"", "Config", "Seconds", "Joules", "Perf/W",
                         "Bound", "Top cost"});
    for (const size_t pos : study.front) {
        const EvalPoint &p = study.points[pos];
        std::string mark;
        if (pos == study.bestPos)
            mark += '*';
        if (pos == study.baselinePos)
            mark += '=';
        table.addRow({mark, p.label, formatG(p.seconds, 4),
                      formatG(p.joules, 4), formatG(p.perfPerWatt, 4),
                      p.dominantPhase, p.topCost});
    }
    out += table.str();
    return out;
}

std::string
bestTable(const std::vector<WorkloadStudy> &studies)
{
    report::Table table({"Workload", "Backend", "Best config", "Speedup",
                         "Perf/W gain", "Bound", "Front", "Evaluated"});
    for (const auto &study : studies) {
        table.addRow({study.workload, study.backend, study.best().label,
                      report::times(study.bestSpeedup()),
                      report::times(study.bestPpwGain()),
                      study.best().dominantPhase,
                      std::to_string(study.front.size()),
                      std::to_string(study.evaluated())});
    }
    return table.str();
}

} // namespace polymath::dse
