#include "lower/accel_spec.h"

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

} // namespace

void
IrFragment::appendTo(std::string &out) const
{
    out += opcode;
    out += '(';
    appendArgs(out, inputs);
    out += " -> ";
    appendArgs(out, outputs);
    out += ')';
    for (const auto &[k, v] : attrs) {
        out += ' ';
        out += k;
        out += '=';
        appendInt(out, v);
    }
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

    auto arg_of = [&](ir::ValueId v) {
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
    };

    for (const auto &in : graph.ins(node)) {
        if (in.isIndexOperand())
            continue; // compile-time address streams need no operand slot
        frag.inputs.push_back(arg_of(in.value));
    }
    if (node.base >= 0)
        frag.inputs.push_back(arg_of(node.base));
    for (const auto &out : graph.outs(node))
        frag.outputs.push_back(arg_of(out.value));

    // Shape/iteration attributes for the target's scheduler.
    int64_t i = 0;
    for (const auto &v : graph.domainVars(node)) {
        frag.attrs["dim" + std::to_string(i++)] = v.extent;
        if (v.reduced)
            frag.attrs["reduce_extent"] =
                frag.attrs.count("reduce_extent")
                    ? frag.attrs["reduce_extent"] * v.extent
                    : v.extent;
    }
    if (node.hasPredicate)
        frag.attrs["guarded"] = 1;
    if (ir::isMoveOp(node.op))
        frag.attrs["move_elems"] = node.domainSize(graph);
    if (node.kind == ir::NodeKind::Constant)
        frag.attrs["const_bits"] = 64;
    return frag;
}

} // namespace polymath::lower
