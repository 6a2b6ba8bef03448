/**
 * @file
 * Per-fragment cost attribution for the backend simulators
 * (docs/OBSERVABILITY.md §"Cost ledgers").
 *
 * A PerfReport answers "how long / how much energy"; a CostLedger answers
 * *why*: which srDFG fragments dominate the backend's schedule, how much
 * of the wall time is DMA or launch overhead, and where each fragment sits
 * against the machine's roofline. Backends populate raw entries inside
 * simulateImpl() at the points where they already compute cycles, bytes,
 * and flops; finalizeLedger() then distributes the report's *totals*
 * across the entries proportionally to those raw weights, so the ledger
 * always satisfies the invariant
 *
 *     sum(entry.seconds)   == report.seconds
 *     sum(entry.joules)    == report.joules
 *     sum(entry.dramBytes) == report.dramBytes
 *     sum(entry.flops)     == report.flops
 *
 * within 1e-9 relative tolerance — checked loudly at the non-virtual
 * Backend::simulate choke point (verifyLedger panics on violation).
 *
 * Profiling is off by default, exactly like obs::TraceRecorder: when
 * disabled, Backend::analyze() reads one relaxed atomic and one
 * thread-local, beginLedger() returns nullptr, every instrumentation
 * site is behind one `if (ledger)` branch, and all reports are
 * byte-identical to a build without the subsystem.
 */
#ifndef POLYMATH_TARGETS_COMMON_COST_LEDGER_H_
#define POLYMATH_TARGETS_COMMON_COST_LEDGER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "targets/common/machine_config.h"
#include "targets/common/perf_report.h"

namespace polymath::target {

struct PartitionAnalysis;

/** Global profiling switch (off by default; one relaxed atomic read on
 *  the hot path, mirroring obs::TraceRecorder::enabled). Process-wide
 *  and sticky: for `pmc --profile` and tests. A request that wants
 *  ledgers opens a ProfilingScope instead. */
bool profilingEnabled();
void setProfilingEnabled(bool on);

/**
 * Turns cost ledgers on for the calling thread only, while alive
 * (scopes nest). Backend::analyze() treats profiling as on when either
 * the global switch or a scope on its thread is. The pmcd `profile` and
 * `dse` requests use it, so neither leaves ledgers on for the requests
 * that follow it or that run beside it on other threads.
 */
class ProfilingScope
{
  public:
    ProfilingScope();
    ~ProfilingScope();
    ProfilingScope(const ProfilingScope &) = delete;
    ProfilingScope &operator=(const ProfilingScope &) = delete;

    /** Whether the calling thread is inside a scope. */
    static bool active();
};

/** Roofline classification of one ledger entry. */
enum class BoundClass
{
    Compute,  ///< arithmetic intensity above the machine ridge point
    Memory,   ///< below the ridge point (or pure data movement)
    Overhead, ///< launch / scheduling / pipeline-fill cost, no flops
};

const char *toString(BoundClass bound);

/** What share of the schedule a ledger entry is: a fragment's or the
 *  scheduler's compute, data movement, or launch/dispatch. */
enum class CostPhase : uint8_t
{
    Compute,
    Dma,
    Overhead,
};

/** "compute", "dma" or "overhead": the phase column of the profile
 *  table and the `phase` field of polymath-profile/1. */
const char *toString(CostPhase phase);

/** What a cost ledger entry says about one fragment, gathered by
 *  Backend::analyze() when profiling is on: its label "opcode(first
 *  output)" and the accelerator-side operand plus result footprint. */
struct LedgerFacts
{
    std::string label;
    double touchedBytes = 0.0;

    bool operator==(const LedgerFacts &) const = default;
};

/** One attributed slice of a partition's simulated cost. */
struct CostEntry
{
    /** Human-readable source: "mul(y_next)" for fragments, or the phase
     *  cost it represents ("dma:per-run", "launch", "reduce-tree+bus").
     *  A view, not a copy: it points at a string literal or at a label
     *  in one of its ledger's labelSources, so it stays valid for as
     *  long as the ledger does. */
    std::string_view label;

    CostPhase phase = CostPhase::Compute;

    /** Index into the partition's fragments; -1 for phase-level costs. */
    int fragment = -1;

    /** Schedule position when ledgers of several partitions are merged
     *  via PerfReport::operator+= ; -1 inside a single partition. */
    int partition = -1;

    BoundClass bound = BoundClass::Compute;

    // Attributed shares of the report totals (post-finalize). Before
    // finalizeLedger() runs they hold the backend's *raw* weights.
    double seconds = 0.0;
    double joules = 0.0;
    double dramBytes = 0.0;
    double flops = 0.0;

    /** Accelerator-side tensor footprint this entry touches (operands +
     *  results), the denominator of arithmetic intensity. Not part of
     *  the sums-to-totals invariant: on-chip reuse means touched bytes
     *  legitimately exceed DRAM traffic. */
    double touchedBytes = 0.0;

    /** Arithmetic intensity in flops/byte (infinity when no bytes). */
    double intensity() const;
};

/** The per-partition (or merged per-program) cost breakdown. */
struct CostLedger
{
    std::string machine;

    /** Machine roofline constants, captured by finalizeLedger() so
     *  renderers need no backend handle. */
    double peakFlops = 0.0;
    double dramGBs = 0.0;

    /** Number of partitions merged into this ledger; 0 for a leaf ledger
     *  straight out of one simulateImpl(). */
    int partitionCount = 0;

    std::vector<CostEntry> entries;

    /** The analyses' ledger facts the fragment entries' labels point
     *  into, each held once: the ledger keeps them alive, so it may
     *  outlive the analyses it was priced from. */
    std::vector<std::shared_ptr<const std::vector<LedgerFacts>>>
        labelSources;

    /** Appends a raw entry (backend population API). @p label must be a
     *  string literal or a label in labelSources (CostEntry::label). */
    CostEntry &add(std::string_view label, CostPhase phase,
                   int fragment = -1);

    /** Raw-entry helper for fragment @p index of a partition, labelled
     *  from the ledger facts Backend::analyze() gathered in @p analysis
     *  (its "opcode(first output)" label and accelerator-side
     *  operand/result footprint, touchedBytes), with its flop weight. */
    CostEntry &addFragment(const PartitionAnalysis &analysis, size_t index,
                           double flops, double raw_seconds);

    /** Adds a compute-phase overhead entry (scheduler/pipeline cost not
     *  attributable to a single fragment) when @p raw_seconds > 0. */
    void addComputeResidual(const char *label, double raw_seconds);

    /** Adds dma-phase entries for a partition's one-time (param/state
     *  placement) and per-run streams at @p dram_gbs bandwidth. */
    void addDma(double one_time_bytes, double per_run_bytes,
                double dram_gbs);

    /** Adds the overhead-phase launch/dispatch entry when > 0. */
    void addOverhead(double raw_seconds);

    struct Totals
    {
        double seconds = 0.0;
        double joules = 0.0;
        double dramBytes = 0.0;
        double flops = 0.0;
    };

    /** Column sums over all entries. */
    Totals totals() const;

    /** Merges @p other (used by PerfReport::operator+= for sequential
     *  composition): entries are copied with partition tags offset so a
     *  merged ledger still identifies which schedule slot each entry
     *  came from, and the sums-to-totals invariant is preserved. Takes
     *  a share of @p other's labelSources; copies no label. */
    void append(const CostLedger &other);
};

/**
 * Attaches a fresh ledger (labelled report.machine, holding
 * @p analysis's ledger facts in labelSources) to @p report when
 * @p analysis carries ledger facts — i.e. profiling was enabled when the
 * partition was analysed — and returns it; returns nullptr (and leaves
 * the report untouched) otherwise. Deciding from the analysis, not the
 * live switch, means a concurrent setProfilingEnabled(true) between
 * analysis and pricing cannot produce a ledger without labels. The
 * single hot-path branch of the subsystem.
 */
CostLedger *beginLedger(PerfReport &report,
                        const PartitionAnalysis &analysis);

/**
 * Distributes @p report's totals across the ledger's raw entries
 * (proportionally per metric), classifies each entry against the
 * machine roofline, and captures the roofline constants. No-op when the
 * report carries no ledger. Every simulateImpl() must call this last.
 */
void finalizeLedger(PerfReport &report, const MachineConfig &machine);

/**
 * Checks the sums-to-totals invariant at 1e-9 relative tolerance;
 * panics (InternalError) with the offending metric on violation. Called
 * from the Backend::simulate choke point on every profiled simulation.
 */
void verifyLedger(const PerfReport &report);

// ---------------------------------------------------------------------------
// Rendering (`pmc --profile`).
// ---------------------------------------------------------------------------

/**
 * Top-N hotspot table for one profiled partition: % time, % energy,
 * attributed flops, arithmetic intensity, bound class, and roofline
 * position (achieved fraction of the attainable rate at that
 * intensity). Entries are ranked by attributed seconds.
 */
std::string profileTable(const PerfReport &report, int top_n = 10);

/**
 * The same breakdown as schema-versioned JSON
 * (`"schema": "polymath-profile/1"`): report totals plus every entry,
 * unranked and untruncated. Locale-independent (core/json emission).
 */
std::string profileJson(const PerfReport &report);

} // namespace polymath::target

#endif // POLYMATH_TARGETS_COMMON_COST_LEDGER_H_
