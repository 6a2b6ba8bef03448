/**
 * @file
 * Backend interface: each domain-specific accelerator pairs its
 * AcceleratorSpec (how PolyMath translates to its IR) with a simulator
 * (how its scheduler/mapper would execute the translated program).
 *
 * The simulators are analytical cost models driven by the *actual compiled
 * IR* — fragment op mix, iteration extents, tensor footprints, and
 * dependency structure — with machine constants from Table VI. They stand
 * in for the physical FPGAs/ASICs of the paper's testbed (see DESIGN.md §1).
 */
#ifndef POLYMATH_TARGETS_COMMON_BACKEND_H_
#define POLYMATH_TARGETS_COMMON_BACKEND_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "lower/compile.h"
#include "targets/common/cost_ledger.h"
#include "targets/common/machine_config.h"
#include "targets/common/perf_report.h"
#include "targets/common/workload_cost.h"

namespace polymath::obs {
class Counter;
} // namespace polymath::obs

namespace polymath::target {

/**
 * Runtime-scale characteristics of a workload that are not visible in the
 * compiled IR: how many times the entry component is invoked, how much
 * larger the deployed problem is than the compiled instance, and dataset
 * statistics for irregular domains.
 */
struct WorkloadProfile
{
    /** Invocations of the entry component (MPC steps, training epochs,
     *  BFS/K-means iterations). */
    int64_t invocations = 1;

    /** Deployed-problem flops divided by compiled-instance flops (1 when
     *  the graph is compiled at full scale). */
    double scale = 1.0;

    /** Graph analytics: dataset size (0 for non-graph workloads). */
    int64_t vertices = 0;
    int64_t edges = 0;

    /** Typical per-kernel parallel width at deployed scale, for GPU
     *  occupancy modeling. 0 = derive from the IR. */
    double parallelWidth = 0.0;

    /** Per-invocation host-side glue (sensor I/O, marshaling, logging)
     *  that no accelerator absorbs — the Amdahl residual of end-to-end
     *  applications. Ignored by kernel backends. */
    double hostGlueSeconds = 0.0;
};

/** DMA traffic of a partition split by type modifier: `param`/`state`
 *  tensors are placed on-chip once (the language-level data semantics the
 *  accelerators exploit — Section II-A), everything else moves every
 *  invocation. */
struct DmaBreakdown
{
    int64_t oneTimeBytes = 0; ///< param + state placement
    int64_t perRunBytes = 0;  ///< input/output/intermediate traffic

    bool operator==(const DmaBreakdown &) const = default;
};

DmaBreakdown dmaBreakdown(const lower::Partition &partition);

class Backend;

/**
 * Machine-independent facts about one partition, computed once per
 * (backend, partition) by Backend::analyze() and read by every pricing of
 * that partition — the design-space autotuner prices one analysis under
 * many MachineConfigs. Immutable once built, so concurrent pricings may
 * share it.
 *
 * Every analysis carries backend, ledger, fragmentCount, fragments'
 * flops and move flags, ledgerFacts, dma and flops; the other fields are
 * filled by the analyzeImpl() of the backends named beside them and stay
 * at their defaults in every other backend's analysis. A pricing loop
 * reads the compact tables (levels, invariantWorks, taskWorks, layers):
 * flat arrays, each entry summed in the order the cost model used to sum
 * it per fragment, so the prices are the same to the bit. Cost-ledger
 * attribution reads the per-fragment facts.
 */
struct PartitionAnalysis
{
    struct Fragment
    {
        int64_t flops = 0;      ///< IrFragment::flops
        int64_t work = 0;       ///< fragmentWork() (RoboX, TABLA, DECO)
        /** The `elements` attribute, 0 when absent (HyperStreams). */
        int64_t elements = 0;
        double opsPerPoint = 0.0; ///< non-move: opsPerPoint() (Graphicionado)
        bool move = false;      ///< tload/tstore: data movement, no compute
        bool invariant = false; ///< invariantFragments() (RoboX, TABLA, DECO)
        bool reduce = false;    ///< carries `reduce_extent` (TABLA)
        /** A non-move fragment that runs on a GEMM core (conv2d,
         *  conv2d_dw, dense) rather than as a vector op (TVM-VTA). */
        bool gemm = false;
        bool edge = false; ///< non-move: isEdgeDomain() (Graphicionado)

        bool operator==(const Fragment &) const = default;
    };

    /** One dependence level (analyzeLevels()), its fragments' facts
     *  summed in fragment order. */
    struct Level
    {
        double work = 0.0;          ///< work of the non-invariant ones
        double invariantWork = 0.0; ///< work of the invariant ones
        bool reduce = false;        ///< one carries `reduce_extent`
        /** End of this level's run in invariantWorks; the run starts
         *  where the previous level's ends. */
        size_t invariantEnd = 0;

        bool operator==(const Level &) const = default;
    };

    /** One non-move fragment as TVM-VTA prices it. */
    struct Layer
    {
        double flops = 0.0;
        bool gemm = false; ///< Fragment::gemm

        bool operator==(const Layer &) const = default;
    };

    /** The backend that made this analysis; only it may price it. */
    const Backend *backend = nullptr;

    /** Whether profiling was on at analysis time: ledgerFacts is set,
     *  and pricing opens a cost ledger (beginLedger) if and only if this
     *  is set. */
    bool ledger = false;

    /** partition.fragments.size() at analysis time. */
    size_t fragmentCount = 0;

    /** Indexed like partition.fragments. */
    std::vector<Fragment> fragments;

    /** Indexed like partition.fragments when profiling was on at
     *  analysis time; null otherwise. Shared, not copied: every cost
     *  ledger priced from this analysis holds it, because its fragment
     *  entries' labels are views into it. */
    std::shared_ptr<const std::vector<LedgerFacts>> ledgerFacts;

    /** The dependence levels in level order (TABLA, DECO). */
    std::vector<Level> levels;

    /** The work of each invariant fragment, by level in level order and
     *  by fragment order within a level (TABLA, DECO). */
    std::vector<double> invariantWorks;

    /** The work of each non-move fragment with positive work, in
     *  fragment order, split into the non-invariant fragments and the
     *  invariant ones (RoboX). */
    std::vector<double> taskWorks;
    std::vector<double> invariantTaskWorks;

    /** The non-move fragments, in fragment order (TVM-VTA). */
    std::vector<Layer> layers;

    DmaBreakdown dma;

    /** partition.flops(). */
    int64_t flops = 0;

    /** Element counts of the non-move fragments' operands and results,
     *  summed in fragment order, split into param operands (weights) and
     *  everything else (activations) (TVM-VTA). */
    double weightBytes = 0.0;
    double activationBytes = 0.0;

    /** opsPerPoint summed, in fragment order, over the non-move
     *  edge-domain and vertex-domain fragments (Graphicionado). */
    double opsPerEdge = 0.0;
    double opsPerVertex = 0.0;

    /** Max/mean work of the levels with work (DECO); 1.0 = perfectly
     *  balanced, and when no level has work. */
    double stageImbalance = 1.0;

    /** Field by field; the ledger facts by value, not by pointer. */
    bool operator==(const PartitionAnalysis &other) const;
};

/**
 * One accelerator backend: spec + simulator.
 *
 * A backend is an immutable cost model. The machine it prices is an
 * argument, not state (DESIGN.md §"Configs are data"): machine() is the
 * Table VI factory config the backend was built with, and the
 * design-space autotuner (src/dse/) prices the same backend under every
 * MachineConfig it sweeps through the 4-argument simulate(). The six
 * standard backends are built once per process (standardBackends()) and
 * shared by every thread.
 *
 * A cost model runs in two stages (docs/ADDING_A_BACKEND.md §2):
 * analyze() reads only the partition, simulateImpl() prices that
 * analysis under a MachineConfig and a WorkloadProfile, without the
 * partition.
 */
class Backend
{
  public:
    /** @throws UserError when @p machine fails MachineConfig::validate().*/
    Backend(std::string name, lang::Domain domain, MachineConfig machine);

    virtual ~Backend() = default;
    Backend(const Backend &) = delete;
    Backend &operator=(const Backend &) = delete;

    const std::string &name() const { return name_; }
    lang::Domain domain() const { return domain_; }

    /** The Table VI machine this backend prices by default. */
    const MachineConfig &machine() const { return machine_; }

    /** Registration for the compilation algorithms (Ot, md, +d). */
    virtual lower::AcceleratorSpec spec() const = 0;

    /**
     * The machine-independent facts this backend's pricing reads about
     * @p partition: the ones every analysis carries, then analyzeImpl()'s.
     * Never reads a machine, so one analysis prices correctly on every
     * configuration. Whether it carries ledger facts is decided here,
     * from profilingEnabled() or a ProfilingScope on the calling thread.
     */
    PartitionAnalysis analyze(const lower::Partition &partition) const;

    /**
     * Prices @p partition, analysed by this backend's analyze(), under
     * @p machine and @p profile; panics on an analysis of another
     * partition or made by another backend. Non-virtual so every
     * scheduler/estimator invocation — from the SoC runtime, the
     * autotuner, the benches, or tests — passes one choke point that
     * feeds the observability layer (a `backend:simulate` span and
     * per-accelerator call counter); backends implement simulateImpl()
     * (and analyzeImpl()). @p machine must be valid
     * (validated where it was made: ConfigSpace::machineAt for the DSE).
     */
    PerfReport simulate(const lower::Partition &partition,
                        const PartitionAnalysis &analysis,
                        const WorkloadProfile &profile,
                        const MachineConfig &machine) const;

    /** simulate(partition, analysis, profile, machine()). */
    PerfReport simulate(const lower::Partition &partition,
                        const PartitionAnalysis &analysis,
                        const WorkloadProfile &profile) const
    {
        return simulate(partition, analysis, profile, machine_);
    }

    /** One-shot form: simulate(partition, analyze(partition), profile).*/
    PerfReport simulate(const lower::Partition &partition,
                        const WorkloadProfile &profile) const
    {
        return simulate(partition, analyze(partition), profile, machine_);
    }

  protected:
    /** Fills the facts of @p analysis that simulateImpl() reads beyond
     *  the ones every analysis carries (PartitionAnalysis), and no
     *  others. The default fills none. */
    virtual void analyzeImpl(const lower::Partition &,
                             PartitionAnalysis &) const
    {
    }

    /** The backend's cost model (docs/ADDING_A_BACKEND.md): prices
     *  @p analysis under @p machine and @p profile. It never sees the
     *  partition: every fact it reads that does not depend on the
     *  machine is in the analysis. */
    virtual PerfReport simulateImpl(const PartitionAnalysis &analysis,
                                    const MachineConfig &machine,
                                    const WorkloadProfile &profile)
        const = 0;

  private:
    std::string name_;
    lang::Domain domain_;
    MachineConfig machine_;
    /** `backend.<name>.simulate_calls`, bumped once per simulate(). */
    obs::Counter &simulate_calls_;
};

/**
 * Host-CPU view of one partition's deployed-scale cost, for partitions
 * the SoC keeps (or degrades onto) the host. Dense domains scale the
 * compiled-instance flops by profile.scale; graph analytics compiles the
 * per-vertex program, so deployed work scales with the dataset's V/E
 * exactly as the Graphicionado model derives it, and the edge stream
 * dominates DRAM traffic. cpuEff is left at 0 (domain default) — callers
 * overlay their calibrated native-library efficiencies.
 */
WorkloadCost hostPartitionCost(const lower::Partition &partition,
                               const WorkloadProfile &profile);

/** Cycle-relevant work of a fragment: scalar flops plus identity-move
 *  elements (copies/concats occupy lanes even though they are not
 *  arithmetic — part of PolyMath's overhead vs. hand-tuned code). */
inline int64_t
fragmentWork(const lower::IrFragment &frag)
{
    return frag.flops + frag.attrs.moveElems.value_or(0);
}

/** Marks fragments whose results derive only from read-only `param`
 *  data (transitively): accelerators compute those once and keep the
 *  result in local memory across invocations, like the operands
 *  themselves. Indexed like partition.fragments. */
std::vector<bool> invariantFragments(const lower::Partition &partition);

/** Fills @p analysis's levels and invariantWorks from its fragments'
 *  work, invariance and reduce flags. Levels group the non-move
 *  fragments by tensor-name dataflow: fragments in one level are
 *  independent and can run concurrently; levels run in order. Returns
 *  each level's total work, summed in fragment order. */
std::vector<double> analyzeLevels(const lower::Partition &partition,
                                  PartitionAnalysis &analysis);

/** Edge-domain fragments iterate a (dst x src) domain or fold neighbors
 *  (a `dim1` or `reduce_extent` attribute); vertex-domain fragments
 *  iterate one vertex axis. */
bool isEdgeDomain(const lower::IrFragment &frag);

/** Scalar ops per domain point of a fragment: its flops over the product
 *  of its `dim*` attributes, 0 when that product is not positive. */
double opsPerPoint(const lower::IrFragment &frag);

/** The six DSA backends, in registration order matching Table V: one
 *  immutable set per process, built on first use and shared by every
 *  thread. */
const std::vector<const Backend *> &standardBackends();

/** The standard backend named @p name ("RoboX", "Graphicionado",
 *  "TABLA", "DECO", "TVM-VTA", "HyperStreams"); nullptr when none is. */
const Backend *findBackend(std::string_view name);

/** The one process-wide AcceleratorRegistry of standardBackends(),
 *  built on first use. Registries are immutable after add(), so it is
 *  safe to share across threads. */
const lower::AcceleratorRegistry &standardRegistry();

} // namespace polymath::target

#endif // POLYMATH_TARGETS_COMMON_BACKEND_H_
