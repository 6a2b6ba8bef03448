/**
 * @file
 * Accelerator specifications (Section IV-C).
 *
 * A specification for domain d is the pair (md, +d) of the paper: `md` maps
 * srDFG operation names to translation functions producing accelerator-IR
 * fragments, and `+d` accumulates them into the program πd.
 * The supported-operation set Ot drives Algorithm 1's lowering.
 *
 * A fragment is typed: its kind says whether it computes or moves one
 * tensor across the accelerator boundary (tload/tstore), and its
 * attributes are the fixed FragmentAttrs record (bytes, const_bits, the
 * dims, elements, guarded, move_elems, reduce_extent). A compute
 * fragment's opcode is free text each backend's translate functions
 * choose for its own scheduler/simulator, so adding an accelerator
 * requires no change to the compilation algorithms. +d is a listing
 * rule: each fragment is stored once, in its partition, and
 * CompiledProgram::render() derives πd from the partitions, applying the
 * spec's listingTag to every compute fragment it prints.
 */
#ifndef POLYMATH_LOWER_ACCEL_SPEC_H_
#define POLYMATH_LOWER_ACCEL_SPEC_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
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

/** What a fragment does: compute, or move one tensor across the
 *  accelerator boundary (the data-transfer rule of Section IV-C). */
enum class FragmentKind : uint8_t { Compute, Load, Store };

/** The attributes a fragment carries for its target's scheduler. An absent
 *  value is distinct from a zero one (`elements` may be present as 0). */
struct FragmentAttrs
{
    std::optional<int64_t> bytes;        ///< tload/tstore: bytes moved
    std::optional<int64_t> constBits;    ///< constant: on-chip width
    std::vector<int64_t> dims;           ///< iteration-domain extents
    std::optional<int64_t> elements;     ///< elements streamed
    bool guarded = false;                ///< predicated node
    std::optional<int64_t> moveElems;    ///< identity-move elements
    std::optional<int64_t> reduceExtent; ///< product of reduced extents
};

/** One accelerator-IR fragment: a basic operator plus its arguments. */
struct IrFragment
{
    FragmentKind kind = FragmentKind::Compute;
    /** A compute fragment's operator text; empty for transfers. */
    std::string opcode;
    std::vector<TensorArg> inputs;
    std::vector<TensorArg> outputs;
    FragmentAttrs attrs;

    /** Scalar-op work this fragment represents (from the srDFG node). */
    int64_t flops = 0;

    bool isTransfer() const { return kind != FragmentKind::Compute; }

    /** "tload", "tstore", or a compute fragment's opcode. */
    std::string_view mnemonic() const;

    /** Appends "mnemonic(a[..], b[..] -> c[..]) attr=v flops=n" to @p out,
     *  @p tag before the mnemonic: operands as name plus Shape::str(),
     *  each present attribute in the order of its key's spelling (bytes,
     *  const_bits, dimN with dim10 before dim2, elements, guarded=1,
     *  move_elems, reduce_extent), and flops only when non-zero.
     *  Integers go through appendInt(), so a listing of many fragments
     *  grows one buffer instead of a temporary per operand and
     *  attribute. */
    void appendTo(std::string &out, std::string_view tag = {}) const;

    /** appendTo() into a fresh string. */
    std::string str() const;
};

/** The operand for value @p v of @p graph: its name ('%' and the id when
 *  unnamed), shape, dtype and edge kind. */
TensorArg tensorArg(const ir::Graph &graph, ir::ValueId v);

/** +d as a listing rule: the prefix render() prints before a compute
 *  fragment's opcode in πd (RoboX's "vector/", ...). A function of the
 *  fragment alone; it never reaches pricing or ledger labels. */
using ListingTag = std::string_view (*)(const IrFragment &);

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

    /** +d: the listing tag of this accelerator's fragments; none when
     *  null. */
    ListingTag listingTag = nullptr;

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
 *  inputs/outputs with their type modifiers, the iteration domain is
 *  attached as the dims (and reduce_extent), identity moves carry
 *  move_elems, predicated nodes guarded, and constants const_bits. */
IrFragment genericTranslate(const ir::Graph &graph, const ir::Node &node);

} // namespace polymath::lower

#endif // POLYMATH_LOWER_ACCEL_SPEC_H_
