/**
 * @file
 * Multi-dimensional shapes for PMLang values and srDFG edge metadata.
 */
#ifndef POLYMATH_CORE_SHAPE_H_
#define POLYMATH_CORE_SHAPE_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

namespace polymath {

/**
 * A tensor shape: an ordered list of non-negative extents.
 * A rank-0 shape denotes a scalar.
 *
 * Immutable after construction; the extent list is shared behind a
 * refcount so copying a Shape never allocates (shapes ride on every
 * srDFG value and are copied heavily by Graph::clone()).
 */
class Shape
{
  public:
    Shape() = default;
    Shape(std::initializer_list<int64_t> dims);
    explicit Shape(std::vector<int64_t> dims);

    /** Number of dimensions; 0 for scalars. */
    int rank() const { return static_cast<int>(dims().size()); }

    /** Extent of dimension @p axis (0-based). */
    int64_t dim(int axis) const;

    /** Total element count (1 for scalars). */
    int64_t numel() const;

    /** True iff rank() == 0. */
    bool isScalar() const { return !dims_ || dims_->empty(); }

    /** Row-major strides; empty for scalars. */
    std::vector<int64_t> strides() const;

    /** Row-major flat offset of @p index (must have rank() entries). */
    int64_t flatten(const std::vector<int64_t> &index) const;

    /** Inverse of flatten(). */
    std::vector<int64_t> unflatten(int64_t offset) const;

    const std::vector<int64_t> &dims() const
    {
        static const std::vector<int64_t> kNone;
        return dims_ ? *dims_ : kNone;
    }

    /** "[a][b][c]" rendering; "scalar" for rank 0. */
    std::string str() const;

    /** Appends str()'s rendering to @p out without a temporary. */
    void appendTo(std::string &out) const;

    bool operator==(const Shape &other) const
    {
        return dims_ == other.dims_ || dims() == other.dims();
    }

  private:
    std::shared_ptr<const std::vector<int64_t>> dims_;
};

} // namespace polymath

#endif // POLYMATH_CORE_SHAPE_H_
