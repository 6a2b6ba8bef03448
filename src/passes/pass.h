/**
 * @file
 * The modular pass framework of Section IV-B: target-independent passes
 * take an srDFG and produce a transformed srDFG; a PassManager applies
 * pipelines of passes and records per-pass instrumentation.
 */
#ifndef POLYMATH_PASSES_PASS_H_
#define POLYMATH_PASSES_PASS_H_

#include <memory>
#include <string>
#include <vector>

#include "srdfg/graph.h"

namespace polymath::pass {

/** Base class for srDFG-to-srDFG transformations. */
class Pass
{
  public:
    virtual ~Pass() = default;

    /** Stable pass name for reports. */
    virtual std::string name() const = 0;

    /** Applies the pass to @p graph (all recursion levels).
     *  @return true when anything changed. */
    bool run(ir::Graph &graph);

  protected:
    /** Transforms one recursion level; the framework recurses into
     *  component subgraphs before calling this (bottom-up). */
    virtual bool runOnLevel(ir::Graph &graph) = 0;
};

/** Outcome of one pass application. */
struct PassResult
{
    std::string name;
    bool changed = false;
    int64_t micros = 0;
};

/** Applies a pipeline of passes in order. */
class PassManager
{
  public:
    /** Appends a pass to the pipeline. */
    void add(std::unique_ptr<Pass> pass);

    /** Runs the pipeline once, then validates the graph if any pass
     *  reported a change. Each pass bumps the `pass.<name>.runs` and
     *  `pass.<name>.micros` counters; validation counts as the pass
     *  `validate`.
     *  @return per-pass results, in order. */
    std::vector<PassResult> run(ir::Graph &graph) const;

    /** Runs the pipeline repeatedly until no pass reports a change
     *  (at most @p max_rounds). */
    std::vector<PassResult> runToFixpoint(ir::Graph &graph,
                                          int max_rounds = 8) const;

    size_t size() const { return passes_.size(); }

  private:
    std::vector<std::unique_ptr<Pass>> passes_;
};

/** The default optimization pipeline: constant folding, simplification,
 *  CSE, algebraic combination, dead-node elimination. */
PassManager standardPipeline();

} // namespace polymath::pass

#endif // POLYMATH_PASSES_PASS_H_
