#include "core/shape.h"

#include "core/error.h"
#include "core/strings.h"

namespace polymath {

namespace {

std::shared_ptr<const std::vector<int64_t>>
checkedDims(std::vector<int64_t> dims)
{
    if (dims.empty())
        return nullptr; // scalar: allocation-free
    for (int64_t d : dims) {
        if (d < 0)
            panic("negative shape extent");
    }
    return std::make_shared<const std::vector<int64_t>>(std::move(dims));
}

} // namespace

Shape::Shape(std::initializer_list<int64_t> dims)
    : dims_(checkedDims(std::vector<int64_t>(dims)))
{
}

Shape::Shape(std::vector<int64_t> dims) : dims_(checkedDims(std::move(dims)))
{
}

int64_t
Shape::dim(int axis) const
{
    if (axis < 0 || axis >= rank())
        panic("shape axis out of range");
    return dims()[static_cast<size_t>(axis)];
}

int64_t
Shape::numel() const
{
    int64_t n = 1;
    for (int64_t d : dims())
        n *= d;
    return n;
}

std::vector<int64_t>
Shape::strides() const
{
    const auto &ds = dims();
    std::vector<int64_t> s(ds.size());
    int64_t acc = 1;
    for (int i = rank() - 1; i >= 0; --i) {
        s[static_cast<size_t>(i)] = acc;
        acc *= ds[static_cast<size_t>(i)];
    }
    return s;
}

int64_t
Shape::flatten(const std::vector<int64_t> &index) const
{
    if (static_cast<int>(index.size()) != rank())
        panic("flatten(): index rank mismatch");
    const auto &ds = dims();
    int64_t offset = 0;
    int64_t stride = 1;
    for (int i = rank() - 1; i >= 0; --i) {
        const auto ui = static_cast<size_t>(i);
        if (index[ui] < 0 || index[ui] >= ds[ui])
            panic("flatten(): index out of bounds");
        offset += index[ui] * stride;
        stride *= ds[ui];
    }
    return offset;
}

std::vector<int64_t>
Shape::unflatten(int64_t offset) const
{
    const auto &ds = dims();
    std::vector<int64_t> index(ds.size());
    for (int i = rank() - 1; i >= 0; --i) {
        const auto ui = static_cast<size_t>(i);
        index[ui] = offset % ds[ui];
        offset /= ds[ui];
    }
    return index;
}

std::string
Shape::str() const
{
    std::string out;
    appendTo(out);
    return out;
}

void
Shape::appendTo(std::string &out) const
{
    if (isScalar()) {
        out += "scalar";
        return;
    }
    for (const int64_t d : dims()) {
        out += '[';
        appendInt(out, d);
        out += ']';
    }
}

} // namespace polymath
