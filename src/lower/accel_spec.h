/**
 * @file
 * Accelerator specifications (Section IV-C).
 *
 * A specification for domain d is the pair (md, +d) of the paper: `md` maps
 * srDFG operation names to translation functions producing accelerator-IR
 * fragments, and `+d` combines fragments into the accumulated program πd.
 * The supported-operation set Ot drives Algorithm 1's lowering.
 *
 * Fragments are a schema-free (opcode, operands, attributes) record: each
 * backend's translate functions produce fragments its own
 * scheduler/simulator understands, so adding an accelerator requires no
 * change to the compilation algorithms.
 */
#ifndef POLYMATH_LOWER_ACCEL_SPEC_H_
#define POLYMATH_LOWER_ACCEL_SPEC_H_

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "srdfg/graph.h"
#include "srdfg/op.h"

namespace polymath::lower {

using lang::Domain;

/** A tensor operand of an accelerator-IR fragment. */
struct TensorArg
{
    std::string name;
    Shape shape;
    DType dtype = DType::Float;
    ir::EdgeKind kind = ir::EdgeKind::Internal;

    /** Host-precision footprint (double / complex<double>). */
    int64_t bytes() const { return shape.numel() * dtypeSize(dtype); }

    /** Accelerator-side footprint: the FPGA/ASIC datapaths compute in
     *  fp32 / complex64 (VTA narrows further to int8 in its own model). */
    int64_t accelBytes() const
    {
        const int64_t elem = dtype == DType::Complex ? 8 : 4;
        return shape.numel() * elem;
    }
};

/** One accelerator-IR fragment: a basic operator plus its arguments. */
struct IrFragment
{
    std::string opcode;
    std::vector<TensorArg> inputs;
    std::vector<TensorArg> outputs;
    std::map<std::string, int64_t> attrs;

    /** Scalar-op work this fragment represents (from the srDFG node). */
    int64_t flops = 0;

    /** Appends "opcode(a[..], b[..] -> c[..]) attr=v flops=n" to @p out:
     *  operands as name plus Shape::str(), attrs in key order, and flops
     *  only when non-zero. Integers go through appendInt(), so a listing
     *  of many fragments grows one buffer instead of a temporary per
     *  operand and attribute. */
    void appendTo(std::string &out) const;

    /** appendTo() into a fresh string. */
    std::string str() const;
};

/** πd: the accumulated accelerator program for one domain. */
struct AccelProgram
{
    std::string accel;
    Domain domain = Domain::None;
    std::vector<IrFragment> fragments;
};

/** Translation function: given the graph and one supported node, produce
 *  the accelerator-IR fragment for it. */
using TranslateFn =
    std::function<IrFragment(const ir::Graph &, const ir::Node &)>;

/** One accelerator's registration. */
struct AcceleratorSpec
{
    std::string name;   ///< e.g. "TABLA"
    Domain domain = Domain::None;

    /** Ot: operations this target's IR accepts directly (bitset over the
     *  interned operation space — membership is O(1)). */
    ir::OpSet supportedOps;

    /** md: per-op translation overrides. Ops in supportedOps without an
     *  entry use the generic structural translator. */
    std::map<ir::Op, TranslateFn> translators;

    /** +d: fragment combiner; default appends. */
    std::function<void(AccelProgram &, IrFragment)> combine;

    /** Component ops this accelerator should be chosen for, when several
     *  accelerators serve the same domain (e.g. Black-Scholes on
     *  HyperStreams while logistic regression stays on TABLA). */
    std::set<ir::Op> preferredComponents;

    bool supports(ir::Op op) const { return supportedOps.contains(op); }

    /** Compatibility query for rescheduling: true when Ot covers every
     *  source op in @p ops — i.e. this accelerator could execute a
     *  partition whose nodes carried those ops (soc::StreamScheduler
     *  uses it to pick online-migration targets). */
    bool supportsAll(const ir::OpSet &ops) const
    {
        return supportedOps.containsAll(ops);
    }
};

/**
 * AccSpec of Algorithm 2: the accelerator chosen for each domain.
 *
 * Immutable after add(): every derived view (Om, the cache-key
 * rendering) is built eagerly there, so the const interface fills no
 * lazy state and one registry may be shared across threads.
 */
class AcceleratorRegistry
{
  public:
    /** Registers @p spec. The first spec registered for a domain is its
     *  default; later ones are selected via preferredComponents. */
    void add(AcceleratorSpec spec);

    /** Default spec for @p domain; nullptr when none registered. */
    const AcceleratorSpec *forDomain(Domain domain) const;

    /** Spec chosen for one node: a same-domain spec preferring @p op,
     *  else the domain default. */
    const AcceleratorSpec *specFor(Domain domain, ir::Op op) const;

    /** Spec by accelerator name; nullptr when absent. */
    const AcceleratorSpec *byName(const std::string &name) const;

    /** The Om map of Algorithm 1: union of supported ops per domain. */
    const std::map<Domain, ir::OpSet> &supportedOpsByDomain() const
    {
        return om_;
    }

    /** Every spec rendered in registration order (name, domain, sorted
     *  op-set, preferred components): the registry field of
     *  compileCacheKey(). */
    const std::string &keyText() const { return keyText_; }

    const std::vector<AcceleratorSpec> &specs() const { return specs_; }

  private:
    std::vector<AcceleratorSpec> specs_;
    std::map<Domain, ir::OpSet> om_;
    std::string keyText_;
};

/** Builds the generic structural fragment for @p node (used when a spec
 *  lists an op as supported without a custom translator). Applies the
 *  argument-assignment steps of Section IV-C: operand tensors become
 *  inputs/outputs with their type modifiers, shapes are attached as
 *  attributes, and state edges are marked for on-chip initialization. */
IrFragment genericTranslate(const ir::Graph &graph, const ir::Node &node);

} // namespace polymath::lower

#endif // POLYMATH_LOWER_ACCEL_SPEC_H_
