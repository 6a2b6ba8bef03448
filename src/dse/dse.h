/**
 * @file
 * The design-space autotuner (docs/DSE.md).
 *
 * explore() evaluates points of a backend's ConfigSpace against one
 * compiled workload: the backend's one shared instance
 * (target::findBackend) prices the workload's partitions under each
 * point's machine config, and the search records runtime, energy and
 * performance per watt.
 * The points the tables print (the Pareto front and the baseline) are
 * then priced again with cost ledgers for a phase attribution
 * explaining *why* the point performs as it does ("DMA-bound past 512
 * PEs" is visible as dominantPhase flipping from compute to dma along
 * the units axis).
 *
 * Search is deterministic by construction: the grid driver enumerates
 * indices in order; the random driver draws from a seeded core::Rng and
 * refines survivors by ascending neighbor index; points are evaluated
 * serially and keep no state outside the call. Same seed => same
 * evaluations => byte-identical tables, however many searches run
 * concurrently (the pmcd `dse` verb runs one per request).
 *
 * Entry points: `pmc --dse` and the pmcd `dse` verb (one path, through
 * service::runRequest) search one program; bench_dse sweeps the Table
 * III suite and is the check.sh gate.
 */
#ifndef POLYMATH_DSE_DSE_H_
#define POLYMATH_DSE_DSE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "dse/config_space.h"
#include "lower/compile.h"
#include "targets/common/backend.h"

namespace polymath::dse {

/** Search configuration (defaults match the pmcd `dse` verb). */
struct SearchOptions
{
    enum class Driver
    {
        Auto,   ///< grid when the budget covers the space, else random
        Grid,   ///< exhaustive enumeration
        Random, ///< seeded sampling + successive halving + refinement
    };

    /** @throws UserError on anything but "auto"|"grid"|"random". */
    static Driver driverFromString(const std::string &word);

    ConfigSpace::Kind space = ConfigSpace::Kind::Small;
    Driver driver = Driver::Auto;
    int64_t samples = 48; ///< random driver: first-round sample budget
    int64_t rounds = 3;   ///< random driver: halving/refinement rounds
    uint64_t seed = 0x5eed;
    /** Ignored: points are evaluated serially. Kept only because the
     *  stack benchmark's sources (benchmark/layers.cc) still set it;
     *  remove it together with that assignment. */
    int jobs = 1;
};

/** One evaluated configuration. index, seconds, joules and perfPerWatt
 *  are filled for every point; label and the attribution fields only
 *  for printed points (WorkloadStudy::front and the baseline), and are
 *  empty/zero elsewhere. */
struct EvalPoint
{
    int64_t index = -1; ///< position in the ConfigSpace
    double seconds = 0.0;
    double joules = 0.0;
    double perfPerWatt = 0.0; ///< flops / joules

    // Printed points only.
    std::string label; ///< ConfigSpace::label(index)
    // CostLedger phase attribution (why this point wins or loses).
    double computeSeconds = 0.0;
    double dmaSeconds = 0.0;
    double overheadSeconds = 0.0;
    std::string dominantPhase; ///< "compute" | "dma" | "overhead"
    std::string topCost;       ///< heaviest ledger entry's label
};

/** The autotuning result for one (workload, backend) pair. */
struct WorkloadStudy
{
    std::string workload; ///< benchmark id (or file name)
    std::string backend;
    int64_t spaceSize = 0;

    /** Every evaluated point, ascending by index. */
    std::vector<EvalPoint> points;

    /** Positions (into points) of the Pareto front over seconds vs.
     *  perf-per-watt, ascending by (seconds, index). */
    std::vector<size_t> front;

    /** Position of the factory (Table VI) config — always evaluated. */
    size_t baselinePos = 0;

    /** Position of the chosen best config: the front point maximizing
     *  speedup x perf-per-watt gain over the baseline (ties break to
     *  the lowest index). */
    size_t bestPos = 0;

    int64_t evaluated() const
    {
        return static_cast<int64_t>(points.size());
    }
    const EvalPoint &baseline() const { return points[baselinePos]; }
    const EvalPoint &best() const { return points[bestPos]; }

    /** baseline.seconds / best.seconds (1.0 when baseline is best). */
    double bestSpeedup() const;
    /** best.perfPerWatt / baseline.perfPerWatt. */
    double bestPpwGain() const;
};

/**
 * Autotunes @p backend over its ConfigSpace for one workload: simulates
 * @p partitions (the workload's partitions compiled for that backend)
 * under @p profile at every searched point, without cost ledgers.
 * Then prices the printed points (front and baseline) again with
 * ledgers, under a ProfilingScope of its own, to fill their label and
 * phase attribution; it leaves the global profiling switch alone.
 * @throws UserError when @p backend has no design space or
 * @p partitions is empty.
 */
WorkloadStudy explore(const std::string &workload_id,
                      const std::string &backend,
                      const std::vector<const lower::Partition *> &partitions,
                      const target::WorkloadProfile &profile,
                      const SearchOptions &options);

/** The partitions of @p program compiled for @p backend (schedule
 *  order). */
std::vector<const lower::Partition *> partitionsFor(
    const lower::CompiledProgram &program, const std::string &backend);

// ---------------------------------------------------------------------------
// Rendering (`pmc --dse`, the pmcd `dse` verb, bench_dse).
// ---------------------------------------------------------------------------

/** Pareto-front table of one study ('*' = best, '=' = baseline). */
std::string frontTable(const WorkloadStudy &study);

/** "Best config per workload" summary across studies. */
std::string bestTable(const std::vector<WorkloadStudy> &studies);

} // namespace polymath::dse

#endif // POLYMATH_DSE_DSE_H_
