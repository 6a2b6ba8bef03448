/**
 * @file
 * Algorithm 2: compilation from a lowered srDFG to accelerator IR.
 *
 * Walks the lowered graph in dataflow order, applies each node's
 * translation function t from the domain's AcceleratorSpec, and inserts
 * tload/tstore transfers wherever an edge crosses a domain boundary (the
 * data-transfer rule at the end of Section IV-C).
 *
 * Fragments land once, in an execution partitioning — maximal
 * same-domain runs of the schedule with their DMA sets — which is what
 * the SoC runtime consumes for multi-acceleration. The per-accelerator
 * programs πd are a view of the partitions that render() prints.
 */
#ifndef POLYMATH_LOWER_COMPILE_H_
#define POLYMATH_LOWER_COMPILE_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/diagnostics.h"
#include "lower/accel_spec.h"

namespace polymath::lower {

/** Accelerator name of partitions degraded to host-CPU execution (the SoC
 *  runtime has no backend of this name, so they always run on the host). */
inline constexpr const char *kHostAccel = "host-cpu";

/** A tensor DMA'd out of a partition, and where Algorithm 2 emitted its
 *  tstore (render() lists it there): just before fragment `at` of
 *  partition `consumer`, or, when `consumer` is kGraphOutput, as entry
 *  `at` of graph.outputs. */
struct StoredTensor
{
    static constexpr int kGraphOutput = -1;

    TensorArg tensor;
    int consumer = kGraphOutput;
    int at = 0;
};

/** One schedulable unit: a maximal same-domain run of the lowered graph. */
struct Partition
{
    Domain domain = Domain::None;
    std::string accel;

    /** Its computes and tloads, in emission order (tstores are stores). */
    std::vector<IrFragment> fragments;

    /** The accelerator spec's +d listing rule (AcceleratorSpec). */
    ListingTag listingTag = nullptr;

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
    std::vector<StoredTensor> stores;

    /** Indices of earlier partitions this one consumes data from. */
    std::vector<int> deps;

    int64_t loadBytes() const;
    int64_t storeBytes() const;
    int64_t flops() const;
};

/** A string made by the first get() and shared by every later one, across
 *  threads. A copy or an assignment starts empty, so a program copied and
 *  then edited never shows the original's text. */
class RenderOnce
{
  public:
    RenderOnce() = default;
    RenderOnce(const RenderOnce &) {}
    RenderOnce &operator=(const RenderOnce &)
    {
        state_ = std::make_unique<State>();
        return *this;
    }

    template <typename Render>
    const std::string &get(Render &&render) const
    {
        std::call_once(state_->once, [&] { state_->text = render(); });
        return state_->text;
    }

  private:
    struct State
    {
        std::once_flag once;
        std::string text;
    };
    std::unique_ptr<State> state_ = std::make_unique<State>();
};

/** The compiled multi-accelerator program: πd1 ... πdn plus schedule. */
struct CompiledProgram
{
    /** Execution schedule for the SoC host manager. */
    std::vector<Partition> partitions;

    /** str()'s rendering, made on its first call. */
    RenderOnce listing;

    /** Total bytes moved across domain boundaries. */
    int64_t transferBytes() const;

    /** Renders the programs and schedule afresh: one πd per accelerator
     *  name in string order (domains normally map 1:1 to accelerators;
     *  finance splits DA), headed by its first partition's domain, with
     *  its partitions' fragments and tstores in emission order. */
    std::string render() const;

    /** The listing: render() on the first call, then the same string for
     *  every caller, so a cached program renders once however many hits
     *  print it, and callers that never print never pay for it. */
    const std::string &str() const
    {
        return listing.get([this] { return render(); });
    }
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
