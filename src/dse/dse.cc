#include "dse/dse.h"

#include <algorithm>

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

/** Prices @p partitions (with their @p analyses, made once per explore
 *  by @p backend) at one space point. The total carries a merged cost
 *  ledger when the analyses do. */
target::PerfReport
pricePoint(const target::Backend &backend, const ConfigSpace &space,
           int64_t index,
           const std::vector<const lower::Partition *> &partitions,
           const std::vector<target::PartitionAnalysis> &analyses,
           const target::WorkloadProfile &profile)
{
    const target::MachineConfig machine = space.machineAt(index);
    target::PerfReport total;
    bool first = true;
    for (size_t i = 0; i < partitions.size(); ++i) {
        auto report = backend.simulate(*partitions[i], analyses[i],
                                       profile, machine);
        if (first) {
            total = std::move(report);
            first = false;
        } else {
            total += report;
        }
    }
    return total;
}

/** The search's books for one space index: what halving, refinement,
 *  the Pareto front and the best pick read. */
struct Priced
{
    bool evaluated = false;
    double seconds = 0.0;
    double joules = 0.0;
    double perfPerWatt = 0.0; ///< flops / joules
};

Priced
searchPoint(const target::PerfReport &total)
{
    Priced p;
    p.evaluated = true;
    p.seconds = total.seconds;
    p.joules = total.joules;
    p.perfPerWatt = total.joules > 0.0
                        ? static_cast<double>(total.flops) / total.joules
                        : 0.0;
    return p;
}

/** Fills @p point's label and phase attribution from @p ledger, the
 *  merged cost ledger of a re-pricing of that point. */
void
attribute(EvalPoint &point, const ConfigSpace &space,
          const target::CostLedger &ledger)
{
    point.label = space.label(point.index);
    const target::CostEntry *top = nullptr;
    for (const auto &entry : ledger.entries) {
        if (entry.phase == target::CostPhase::Compute)
            point.computeSeconds += entry.seconds;
        else if (entry.phase == target::CostPhase::Dma)
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
        point.topCost.assign(top->label);
}

/** Survivor ranking score for successive halving: the energy-delay
 *  product balances both objectives so neither extreme monopolizes the
 *  refinement budget. Ties break on the index for determinism. */
bool
scoreLess(const std::vector<Priced> &books, int64_t a, int64_t b)
{
    const Priced &pa = books[static_cast<size_t>(a)];
    const Priced &pb = books[static_cast<size_t>(b)];
    const double sa = pa.seconds * pa.joules;
    const double sb = pb.seconds * pb.joules;
    if (sa != sb)
        return sa < sb;
    return a < b;
}

/** First random-driver round: @p count distinct indices drawn from a
 *  seeded Rng, always containing the base (factory) index, ascending. */
std::vector<int64_t>
sampleIndices(const ConfigSpace &space, int64_t count, uint64_t seed)
{
    const int64_t n = space.size();
    std::vector<bool> picked(static_cast<size_t>(n), false);
    picked[static_cast<size_t>(space.baseIndex())] = true;
    int64_t distinct = 1;
    Rng rng(seed);
    const int64_t want = std::min(count, n);
    // Bounded rejection sampling: deterministic and cheap because the
    // budget is far below the space size in the regimes that use it.
    int64_t attempts = 0;
    while (distinct < want && attempts < 64 * count) {
        const auto index = static_cast<size_t>(rng.uniformInt(n));
        if (!picked[index]) {
            picked[index] = true;
            ++distinct;
        }
        ++attempts;
    }
    std::vector<int64_t> out;
    out.reserve(static_cast<size_t>(distinct));
    for (int64_t i = 0; i < n; ++i) {
        if (picked[static_cast<size_t>(i)])
            out.push_back(i);
    }
    return out;
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
    const target::Backend &model = *target::findBackend(backend);
    if (options.samples < 1)
        fatal("dse: samples must be positive");
    if (options.rounds < 1)
        fatal("dse: rounds must be positive");

    // Analyses are machine-independent: made once here, with ledger
    // facts, then shared read-only by every point's pricing. The search
    // prices every point with their ledgers off; only the printed points
    // are priced again with ledgers, for their phase attribution.
    // Ledgers never change report totals.
    std::vector<target::PartitionAnalysis> analyses;
    analyses.reserve(partitions.size());
    {
        const target::ProfilingScope profiling;
        for (const lower::Partition *partition : partitions)
            analyses.push_back(model.analyze(*partition));
    }
    const auto setLedgers = [&](bool on) {
        for (auto &analysis : analyses)
            analysis.ledger = on;
    };
    setLedgers(false);

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

    // The books: one record per space index.
    std::vector<Priced> books(static_cast<size_t>(space.size()));
    int64_t evaluated = 0;
    const auto evaluate = [&](int64_t index) {
        books[static_cast<size_t>(index)] = searchPoint(
            pricePoint(model, space, index, partitions, analyses,
                       profile));
        ++evaluated;
    };

    if (driver == SearchOptions::Driver::Grid) {
        for (int64_t index = 0; index < space.size(); ++index)
            evaluate(index);
    } else {
        // Seeded sampling, then successive halving: each round keeps
        // the best half (by energy-delay product) of everything seen so
        // far and explores the unvisited neighbors of the survivors.
        auto frontier =
            sampleIndices(space, options.samples, options.seed);
        std::vector<int64_t> ranked, near;
        for (int64_t round = 0; round < options.rounds; ++round) {
            if (frontier.empty())
                break;
            for (const int64_t index : frontier)
                evaluate(index);
            if (round + 1 >= options.rounds)
                break;
            ranked.clear();
            for (int64_t index = 0; index < space.size(); ++index) {
                if (books[static_cast<size_t>(index)].evaluated)
                    ranked.push_back(index);
            }
            // Only the survivors need their order: scoreLess is a strict
            // total order, so the first `keep` equal a full sort's.
            const auto keep = std::min(
                ranked.size(), static_cast<size_t>(std::max<int64_t>(
                                   2, options.samples >> (round + 1))));
            std::partial_sort(ranked.begin(),
                              ranked.begin() +
                                  static_cast<std::ptrdiff_t>(keep),
                              ranked.end(), [&](int64_t a, int64_t b) {
                                  return scoreLess(books, a, b);
                              });
            frontier.clear();
            for (size_t i = 0; i < keep; ++i) {
                space.neighbors(ranked[i], near);
                for (const int64_t n : near) {
                    if (!books[static_cast<size_t>(n)].evaluated)
                        frontier.push_back(n);
                }
            }
            std::sort(frontier.begin(), frontier.end());
            frontier.erase(std::unique(frontier.begin(), frontier.end()),
                           frontier.end());
        }
    }

    const int64_t base_index = space.baseIndex();
    study.points.reserve(static_cast<size_t>(evaluated));
    for (int64_t index = 0; index < space.size(); ++index) {
        const Priced &p = books[static_cast<size_t>(index)];
        if (!p.evaluated)
            continue;
        if (index == base_index)
            study.baselinePos = study.points.size();
        EvalPoint &point = study.points.emplace_back();
        point.index = index;
        point.seconds = p.seconds;
        point.joules = p.joules;
        point.perfPerWatt = p.perfPerWatt;
    }

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

    // Attribution of the printed points: the front (which holds the
    // best) and the baseline.
    std::vector<size_t> printed = study.front;
    if (std::find(printed.begin(), printed.end(), study.baselinePos) ==
        printed.end())
        printed.push_back(study.baselinePos);
    setLedgers(true);
    for (const size_t pos : printed) {
        EvalPoint &point = study.points[pos];
        const target::PerfReport total =
            pricePoint(model, space, point.index, partitions, analyses,
                       profile);
        if (!total.ledger || total.seconds != point.seconds ||
            total.joules != point.joules)
        {
            panic("dse: attribution re-priced " + space.label(point.index) +
                  " differently from the search");
        }
        attribute(point, space, *total.ledger);
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
