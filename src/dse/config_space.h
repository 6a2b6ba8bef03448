/**
 * @file
 * Searchable design spaces over accelerator machine configurations
 * (docs/DSE.md).
 *
 * A ConfigSpace is the cartesian product of a few multiplicative axes
 * around a backend's Table VI factory config: compute units, clock
 * frequency, DRAM bandwidth, and — where the cost model exposes one — a
 * backend-specific microarchitecture knob (TABLA's operand-bus width,
 * Graphicionado's atomic-update banks). Points are addressed by a dense
 * mixed-radix index, so a space is enumerable, sampleable, and has a
 * well-defined neighborhood structure for local refinement.
 *
 * Power is *derived*, not a free axis: watts scale with the unit count,
 * quadratically with frequency, and mildly with bandwidth and knob area.
 * A free watts axis would make the Pareto front degenerate (the lowest
 * wattage trivially dominates perf-per-watt); deriving it keeps the
 * runtime/efficiency trade-off real. Every scale is exactly 1.0 at the
 * base point, so machineAt(baseIndex()) is byte-identical to the factory
 * config — the baseline row of every study is the shipped Table VI
 * machine, not a rounded cousin.
 */
#ifndef POLYMATH_DSE_CONFIG_SPACE_H_
#define POLYMATH_DSE_CONFIG_SPACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "targets/common/machine_config.h"

namespace polymath::dse {

/** One multiplicative search axis. */
struct Axis
{
    std::string name;           ///< "units", "freq", "dram", "bus", "banks"
    std::vector<double> scales; ///< factors on the base config's value
};

/** The indexed design space of one backend. */
class ConfigSpace
{
  public:
    enum class Kind
    {
        Small, ///< units x freq — 6 points, the CI/bench grid
        Full,  ///< units x freq x dram x knob — `--dse-space full`
    };

    /** @throws UserError on anything but "small"|"full". */
    static Kind kindFromString(const std::string &word);
    static const char *toString(Kind kind);

    /** True when @p backend names one of the six searchable DSA
     *  backends (the target::makeBackend vocabulary). */
    static bool searchable(const std::string &backend);

    /** The design space around @p backend's factory config.
     *  @throws UserError on an unknown backend name. */
    static ConfigSpace forBackend(const std::string &backend, Kind kind);

    const std::string &backend() const { return backend_; }
    Kind kind() const { return kind_; }
    const target::MachineConfig &base() const { return base_; }
    const std::vector<Axis> &axes() const { return axes_; }

    /** Number of points (product of axis cardinalities). */
    int64_t size() const;

    /** Index of the all-scales-1.0 point (the factory config). */
    int64_t baseIndex() const;

    /** Mixed-radix decomposition of @p index (one digit per axis). */
    std::vector<int> coords(int64_t index) const;

    /** The machine at @p index: base config with the axis scales
     *  applied and derived power, validated. @throws UserError when the
     *  index is out of range. */
    target::MachineConfig machineAt(int64_t index) const;

    /** Human-readable point label, e.g. "units x2 freq x1.25". */
    std::string label(int64_t index) const;

    /** Indices one axis step away from @p index (the +-1 moves along
     *  every axis), ascending. */
    std::vector<int64_t> neighbors(int64_t index) const;

  private:
    std::string backend_;
    Kind kind_ = Kind::Small;
    target::MachineConfig base_;
    std::vector<Axis> axes_;
};

} // namespace polymath::dse

#endif // POLYMATH_DSE_CONFIG_SPACE_H_
