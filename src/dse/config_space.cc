#include "dse/config_space.h"

#include <algorithm>
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
        return space;
    }
    space.axes_ = {{"units", {0.25, 0.5, 1.0, 2.0, 4.0}},
                   {"freq", {0.5, 0.75, 1.0, 1.25, 1.5}},
                   {"dram", {0.5, 1.0, 2.0}}};
    // Backend-specific microarchitecture knob where the cost model has
    // one; the other backends search the three generic axes only.
    if (backend == "TABLA")
        space.axes_.push_back({"bus", {0.5, 1.0, 2.0}});
    else if (backend == "Graphicionado")
        space.axes_.push_back({"banks", {0.5, 1.0, 2.0}});
    return space;
}

int64_t
ConfigSpace::size() const
{
    int64_t n = 1;
    for (const auto &axis : axes_)
        n *= static_cast<int64_t>(axis.scales.size());
    return n;
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
    checkIndex(index, size());
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
    checkIndex(index, size());
    target::MachineConfig m = base_;
    double su = 1.0, sf = 1.0, sd = 1.0, sk = 1.0;
    // Mixed-radix digits, peeled off the index one axis at a time.
    int64_t rest = index;
    for (const Axis &axis : axes_) {
        const auto radix = static_cast<int64_t>(axis.scales.size());
        const double scale = axis.scales[static_cast<size_t>(rest % radix)];
        rest /= radix;
        if (axis.name == "units") {
            m.computeUnits = scaleCount(base_.computeUnits, scale);
            su = scale;
        } else if (axis.name == "freq") {
            m.freqGhz = base_.freqGhz * scale;
            sf = scale;
        } else if (axis.name == "dram") {
            m.dramGBs = base_.dramGBs * scale;
            sd = scale;
        } else if (axis.name == "bus") {
            m.busWordsPerCycle =
                scaleCount(base_.busWordsPerCycle, scale);
            sk = scale;
        } else if (axis.name == "banks") {
            m.banksPerPipe = scaleCount(base_.banksPerPipe, scale);
            sk = scale;
        } else {
            panic("dse: unknown axis '" + axis.name + "'");
        }
    }
    // Derived power model: active (and idle) watts follow area (unit
    // count, knob resources) linearly and voltage-frequency scaling
    // quadratically, with a small bandwidth (PHY/IO) term. Every factor
    // is exactly 1.0 at scale 1.0, so the base point's watts are the
    // factory value bit-for-bit.
    const double watts_scale = (1.0 + 0.65 * (su - 1.0)) * (sf * sf) *
                               (1.0 + 0.1 * (sd - 1.0)) *
                               (1.0 + 0.15 * (sk - 1.0));
    m.watts = base_.watts * watts_scale;
    m.idleWatts = base_.idleWatts * watts_scale;
    m.validate();
    return m;
}

std::string
ConfigSpace::label(int64_t index) const
{
    const auto digits = coords(index);
    std::string text;
    for (size_t a = 0; a < axes_.size(); ++a) {
        if (!text.empty())
            text += ' ';
        text += axes_[a].name;
        text += 'x';
        text += json::numberToJson(
            axes_[a].scales[static_cast<size_t>(digits[a])]);
    }
    return text;
}

std::vector<int64_t>
ConfigSpace::neighbors(int64_t index) const
{
    checkIndex(index, size());
    std::vector<int64_t> out;
    int64_t stride = 1;
    int64_t rest = index;
    for (const Axis &axis : axes_) {
        const auto radix = static_cast<int64_t>(axis.scales.size());
        const int64_t digit = rest % radix;
        rest /= radix;
        if (digit > 0)
            out.push_back(index - stride);
        if (digit + 1 < radix)
            out.push_back(index + stride);
        stride *= radix;
    }
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace polymath::dse
