#include "lower/accel_spec.h"

#include <algorithm>

#include "core/strings.h"

namespace polymath::lower {

namespace {

/** Appends "name[shape], name[shape], ..." for @p args. */
void
appendArgs(std::string &out, const std::vector<TensorArg> &args)
{
    for (size_t i = 0; i < args.size(); ++i) {
        if (i)
            out += ", ";
        out += args[i].name;
        args[i].shape.appendTo(out);
    }
}

/** " key=v" per present attribute, in the order of the keys' spellings. */
void
appendAttrs(std::string &out, const FragmentAttrs &attrs)
{
    const auto put = [&](std::string_view key, int64_t v) {
        out += ' ';
        out += key;
        out += '=';
        appendInt(out, v);
    };
    const auto put_dim = [&](size_t i) {
        out += " dim";
        appendInt(out, static_cast<int64_t>(i));
        out += '=';
        appendInt(out, attrs.dims[i]);
    };
    if (attrs.bytes)
        put("bytes", *attrs.bytes);
    if (attrs.constBits)
        put("const_bits", *attrs.constBits);
    if (attrs.dims.size() <= 10) {
        for (size_t i = 0; i < attrs.dims.size(); ++i)
            put_dim(i);
    } else { // in the order of their spellings: dim10 precedes dim2
        std::vector<std::pair<std::string, size_t>> keyed;
        for (size_t i = 0; i < attrs.dims.size(); ++i)
            keyed.emplace_back(std::to_string(i), i);
        std::sort(keyed.begin(), keyed.end());
        for (const auto &[key, i] : keyed)
            put_dim(i);
    }
    if (attrs.elements)
        put("elements", *attrs.elements);
    if (attrs.guarded)
        put("guarded", 1);
    if (attrs.moveElems)
        put("move_elems", *attrs.moveElems);
    if (attrs.reduceExtent)
        put("reduce_extent", *attrs.reduceExtent);
}

} // namespace

std::string_view
IrFragment::mnemonic() const
{
    if (kind == FragmentKind::Compute)
        return opcode;
    return kind == FragmentKind::Load ? "tload" : "tstore";
}

void
IrFragment::appendTo(std::string &out, std::string_view tag) const
{
    out += tag;
    out += mnemonic();
    out += '(';
    appendArgs(out, inputs);
    out += " -> ";
    appendArgs(out, outputs);
    out += ')';
    appendAttrs(out, attrs);
    if (flops) {
        out += " flops=";
        appendInt(out, flops);
    }
}

std::string
IrFragment::str() const
{
    std::string out;
    appendTo(out);
    return out;
}

TensorArg
tensorArg(const ir::Graph &graph, ir::ValueId v)
{
    const auto &md = graph.value(v).md;
    TensorArg arg;
    if (md.name.empty()) {
        arg.name += '%';
        arg.name += std::to_string(v);
    } else {
        arg.name = md.name;
    }
    arg.shape = md.shape;
    arg.dtype = md.dtype;
    arg.kind = md.kind;
    return arg;
}

void
AcceleratorRegistry::add(AcceleratorSpec spec)
{
    om_[spec.domain].merge(spec.supportedOps);
    // Registration order matters (first spec per domain is the default),
    // so the key text renders specs in order, each with its sorted op-set
    // and preferred components. sortedNames() matches the old
    // std::set<std::string> iteration order, so cache keys survive the
    // interned-op migration.
    keyText_ += spec.name;
    keyText_ += '@';
    keyText_ += lang::toString(spec.domain);
    keyText_ += '[';
    for (const auto &op : spec.supportedOps.sortedNames()) {
        keyText_ += op;
        keyText_ += ',';
    }
    keyText_ += "][";
    for (const auto &comp : spec.preferredComponents) {
        keyText_ += comp.str();
        keyText_ += ',';
    }
    keyText_ += "];";
    specs_.push_back(std::move(spec));
}

const AcceleratorSpec *
AcceleratorRegistry::forDomain(Domain domain) const
{
    for (const auto &spec : specs_) {
        if (spec.domain == domain)
            return &spec;
    }
    return nullptr;
}

const AcceleratorSpec *
AcceleratorRegistry::specFor(Domain domain, ir::Op op) const
{
    for (const auto &spec : specs_) {
        if (spec.domain == domain && spec.preferredComponents.count(op))
            return &spec;
    }
    return forDomain(domain);
}

const AcceleratorSpec *
AcceleratorRegistry::byName(const std::string &name) const
{
    for (const auto &spec : specs_) {
        if (spec.name == name)
            return &spec;
    }
    return nullptr;
}

IrFragment
genericTranslate(const ir::Graph &graph, const ir::Node &node)
{
    IrFragment frag;
    frag.opcode = node.op.str();
    frag.flops = node.scalarOpCount(graph);

    for (const auto &in : graph.ins(node)) {
        if (in.isIndexOperand())
            continue; // compile-time address streams need no operand slot
        frag.inputs.push_back(tensorArg(graph, in.value));
    }
    if (node.base >= 0)
        frag.inputs.push_back(tensorArg(graph, node.base));
    for (const auto &out : graph.outs(node))
        frag.outputs.push_back(tensorArg(graph, out.value));

    // Shape/iteration attributes for the target's scheduler.
    FragmentAttrs &attrs = frag.attrs;
    const auto vars = graph.domainVars(node);
    attrs.dims.reserve(vars.size());
    for (const auto &v : vars) {
        attrs.dims.push_back(v.extent);
        if (v.reduced)
            attrs.reduceExtent = attrs.reduceExtent.value_or(1) * v.extent;
    }
    attrs.guarded = node.hasPredicate;
    if (ir::isMoveOp(node.op))
        attrs.moveElems = node.domainSize(graph);
    if (node.kind == ir::NodeKind::Constant)
        attrs.constBits = 64;
    return frag;
}

} // namespace polymath::lower
