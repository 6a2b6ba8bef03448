#include "dse/config_space.h"

#include <cmath>

#include "core/error.h"
#include "core/json.h"
#include "core/strings.h"
#include "targets/common/backend.h"

namespace polymath::dse {

namespace {

/** Scaled integer knob, floored at 1 so rounding can never produce a
 *  degenerate machine. scale == 1.0 returns @p base exactly. */
int64_t
scaleCount(int64_t base, double scale)
{
    const auto scaled = static_cast<int64_t>(
        std::llround(static_cast<double>(base) * scale));
    return scaled > 1 ? scaled : 1;
}

/** @throws UserError unless 0 <= @p index < @p size. */
void
checkIndex(int64_t index, int64_t size)
{
    if (index < 0 || index >= size)
        fatal(format("dse: config index %lld out of range [0, %lld)",
                     static_cast<long long>(index),
                     static_cast<long long>(size)));
}

} // namespace

ConfigSpace::Kind
ConfigSpace::kindFromString(const std::string &word)
{
    if (word == "small") return Kind::Small;
    if (word == "full") return Kind::Full;
    fatal("dse: unknown space '" + word + "' (expected small|full)");
}

bool
ConfigSpace::searchable(const std::string &backend)
{
    return target::findBackend(backend) != nullptr;
}

ConfigSpace
ConfigSpace::forBackend(const std::string &backend, Kind kind)
{
    const target::Backend *model = target::findBackend(backend);
    if (!model) {
        fatal("dse: no design space for backend '" + backend +
              "' (searchable: RoboX|Graphicionado|TABLA|DECO|TVM-VTA|"
              "HyperStreams)");
    }
    ConfigSpace space;
    space.backend_ = backend;
    space.kind_ = kind;
    space.base_ = model->machine();
    if (kind == Kind::Small) {
        // 6 points: cheap enough for an exhaustive CI grid while still
        // containing a real trade-off (wider array vs. faster clock).
        space.axes_ = {{"units", {0.5, 1.0, 2.0}},
                       {"freq", {1.0, 1.25}}};
    } else {
        space.axes_ = {{"units", {0.25, 0.5, 1.0, 2.0, 4.0}},
                       {"freq", {0.5, 0.75, 1.0, 1.25, 1.5}},
                       {"dram", {0.5, 1.0, 2.0}}};
        // Backend-specific microarchitecture knob where the cost model
        // has one; the other backends search the three generic axes
        // only.
        if (backend == "TABLA")
            space.axes_.push_back({"bus", {0.5, 1.0, 2.0}});
        else if (backend == "Graphicionado")
            space.axes_.push_back({"banks", {0.5, 1.0, 2.0}});
    }
    space.resolve();
    return space;
}

void
ConfigSpace::resolve()
{
    // Derived power model: active (and idle) watts follow area (unit
    // count, knob resources) linearly and voltage-frequency scaling
    // quadratically, with a small bandwidth (PHY/IO) term. Every factor
    // is exactly 1.0 at scale 1.0, so the base point's watts are the
    // factory value bit-for-bit.
    resolved_.clear();
    size_ = 1;
    for (const Axis &axis : axes_) {
        ResolvedAxis &r = resolved_.emplace_back();
        if (axis.name == "units")
            r.field = Field::Units;
        else if (axis.name == "freq")
            r.field = Field::Freq;
        else if (axis.name == "dram")
            r.field = Field::Dram;
        else if (axis.name == "bus")
            r.field = Field::Bus;
        else if (axis.name == "banks")
            r.field = Field::Banks;
        else
            panic("dse: unknown axis '" + axis.name + "'");
        for (const double scale : axis.scales) {
            r.labels.push_back(axis.name + 'x' + json::numberToJson(scale));
            Digit &d = r.digits.emplace_back();
            switch (r.field) {
              case Field::Units:
                d.count = scaleCount(base_.computeUnits, scale);
                d.power = 1.0 + 0.65 * (scale - 1.0);
                break;
              case Field::Freq:
                d.value = base_.freqGhz * scale;
                d.power = scale * scale;
                break;
              case Field::Dram:
                d.value = base_.dramGBs * scale;
                d.power = 1.0 + 0.1 * (scale - 1.0);
                break;
              case Field::Bus:
                d.count = scaleCount(base_.busWordsPerCycle, scale);
                d.power = 1.0 + 0.15 * (scale - 1.0);
                break;
              case Field::Banks:
                d.count = scaleCount(base_.banksPerPipe, scale);
                d.power = 1.0 + 0.15 * (scale - 1.0);
                break;
            }
        }
        size_ *= static_cast<int64_t>(axis.scales.size());
    }
}

int64_t
ConfigSpace::size() const
{
    return size_;
}

int64_t
ConfigSpace::baseIndex() const
{
    int64_t index = 0;
    int64_t stride = 1;
    for (const auto &axis : axes_) {
        int digit = 0;
        for (size_t i = 0; i < axis.scales.size(); ++i) {
            if (axis.scales[i] == 1.0)
                digit = static_cast<int>(i);
        }
        index += digit * stride;
        stride *= static_cast<int64_t>(axis.scales.size());
    }
    return index;
}

std::vector<int>
ConfigSpace::coords(int64_t index) const
{
    checkIndex(index, size_);
    std::vector<int> digits;
    digits.reserve(axes_.size());
    for (const auto &axis : axes_) {
        const auto radix = static_cast<int64_t>(axis.scales.size());
        digits.push_back(static_cast<int>(index % radix));
        index /= radix;
    }
    return digits;
}

target::MachineConfig
ConfigSpace::machineAt(int64_t index) const
{
    checkIndex(index, size_);
    target::MachineConfig m = base_;
    // Each axis's power factor; 1.0 for an axis the space lacks.
    double pu = 1.0, pf = 1.0, pd = 1.0, pk = 1.0;
    // Mixed-radix digits, peeled off the index one axis at a time.
    int64_t rest = index;
    for (const ResolvedAxis &axis : resolved_) {
        const auto radix = static_cast<int64_t>(axis.digits.size());
        const Digit &d = axis.digits[static_cast<size_t>(rest % radix)];
        rest /= radix;
        switch (axis.field) {
          case Field::Units:
            m.computeUnits = d.count;
            pu = d.power;
            break;
          case Field::Freq:
            m.freqGhz = d.value;
            pf = d.power;
            break;
          case Field::Dram:
            m.dramGBs = d.value;
            pd = d.power;
            break;
          case Field::Bus:
            m.busWordsPerCycle = d.count;
            pk = d.power;
            break;
          case Field::Banks:
            m.banksPerPipe = d.count;
            pk = d.power;
            break;
        }
    }
    // The derived power model (resolve()), multiplied in its formula's
    // order so the watts are the same to the bit.
    const double watts_scale = pu * pf * pd * pk;
    m.watts = base_.watts * watts_scale;
    m.idleWatts = base_.idleWatts * watts_scale;
    m.validate();
    return m;
}

std::string
ConfigSpace::label(int64_t index) const
{
    checkIndex(index, size_);
    std::string text;
    int64_t rest = index;
    for (const ResolvedAxis &axis : resolved_) {
        const auto radix = static_cast<int64_t>(axis.labels.size());
        if (!text.empty())
            text += ' ';
        text += axis.labels[static_cast<size_t>(rest % radix)];
        rest /= radix;
    }
    return text;
}

void
ConfigSpace::neighbors(int64_t index, std::vector<int64_t> &out) const
{
    checkIndex(index, size_);
    out.clear();
    // The -1 moves, outermost axis (largest stride) first, then the +1
    // moves, innermost first: ascending without a sort.
    int64_t stride = size_;
    for (size_t a = axes_.size(); a-- > 0;) {
        const auto radix = static_cast<int64_t>(axes_[a].scales.size());
        stride /= radix;
        if (index / stride % radix > 0)
            out.push_back(index - stride);
    }
    for (const Axis &axis : axes_) {
        const auto radix = static_cast<int64_t>(axis.scales.size());
        if (index / stride % radix + 1 < radix)
            out.push_back(index + stride);
        stride *= radix;
    }
}

} // namespace polymath::dse
