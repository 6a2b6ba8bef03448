/**
 * @file
 * Algorithm 2: compilation from a lowered srDFG to accelerator IR.
 *
 * Walks the lowered graph in dataflow order, applies each node's
 * translation function t from the domain's AcceleratorSpec, accumulates
 * fragments into per-domain programs πd with +d, and inserts tload/tstore
 * fragments wherever an edge crosses a domain boundary (the data-transfer
 * rule at the end of Section IV-C).
 *
 * The result also carries an execution partitioning — maximal same-domain
 * runs of the schedule with their DMA sets — which is what the SoC runtime
 * consumes for multi-acceleration.
 */
#ifndef POLYMATH_LOWER_COMPILE_H_
#define POLYMATH_LOWER_COMPILE_H_

#include <vector>

#include "core/diagnostics.h"
#include "lower/accel_spec.h"

namespace polymath::lower {

/** Accelerator name of partitions degraded to host-CPU execution (the SoC
 *  runtime has no backend of this name, so they always run on the host). */
inline constexpr const char *kHostAccel = "host-cpu";

/** One schedulable unit: a maximal same-domain run of the lowered graph. */
struct Partition
{
    Domain domain = Domain::None;
    std::string accel;
    std::vector<IrFragment> fragments;

    /** Source ops of the srDFG nodes this partition was translated from
     *  (transfer fragments excluded) — the compatibility footprint for
     *  AcceleratorSpec::supportsAll when a partition must migrate to
     *  another accelerator at runtime. */
    ir::OpSet ops;

    /** Tensors DMA'd into the accelerator before launch (graph inputs and
     *  values produced by other partitions). */
    std::vector<TensorArg> loads;

    /** Tensors DMA'd back out (graph outputs and values consumed by later
     *  partitions). */
    std::vector<TensorArg> stores;

    /** Indices of earlier partitions this one consumes data from. */
    std::vector<int> deps;

    int64_t loadBytes() const;
    int64_t storeBytes() const;
    int64_t flops() const;
};

/** The compiled multi-accelerator program: πd1 ... πdn plus schedule. */
struct CompiledProgram
{
    /** Accumulated accelerator programs πd, keyed by accelerator name
     *  (domains normally map 1:1 to accelerators; finance splits DA). */
    std::map<std::string, AccelProgram> programs;

    /** Execution schedule for the SoC host manager. */
    std::vector<Partition> partitions;

    /** render() of the finished program, made once by compileProgram()
     *  as its last step; empty on a default-constructed program. */
    std::string listing;

    /** Total bytes moved across domain boundaries. */
    int64_t transferBytes() const;

    /** Renders the programs and schedule afresh. */
    std::string render() const;

    /** The listing: what render() printed when the program was built. */
    const std::string &str() const { return listing; }
};

/**
 * Algorithm 2 over a lowered top-level graph.
 * @p default_domain is used for untagged nodes (single-domain workloads
 * built without per-statement annotations).
 *
 * Without a DiagnosticEngine, an unregistered accelerator domain throws
 * UserError. With one, the nodes of such a domain degrade gracefully to a
 * kHostAccel partition (generic translation; the SoC runtime executes it
 * on the host CPU) and a warning is recorded per degraded domain.
 */
CompiledProgram compileProgram(const ir::Graph &graph,
                               const AcceleratorRegistry &registry,
                               Domain default_domain = Domain::None,
                               DiagnosticEngine *diag = nullptr);

} // namespace polymath::lower

#endif // POLYMATH_LOWER_COMPILE_H_
