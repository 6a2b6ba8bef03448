#include "core/tensor.h"

#include <algorithm>
#include <cmath>

#include "core/error.h"

namespace polymath {

Tensor::Tensor(DType dtype, Shape shape)
    : dtype_(dtype), shape_(std::move(shape))
{
    if (!isNumeric(dtype_))
        panic("Tensor only supports numeric dtypes");
    if (dtype_ == DType::Complex)
        cplx_.assign(static_cast<size_t>(shape_.numel()), {0.0, 0.0});
    else
        real_.assign(static_cast<size_t>(shape_.numel()), 0.0);
}

Tensor
Tensor::scalar(double value)
{
    Tensor t(DType::Float, Shape{});
    t.real_[0] = value;
    return t;
}

Tensor
Tensor::scalar(std::complex<double> value)
{
    Tensor t(DType::Complex, Shape{});
    t.cplx_[0] = value;
    return t;
}

Tensor
Tensor::vec(std::vector<double> values)
{
    Tensor t(DType::Float, Shape{static_cast<int64_t>(values.size())});
    t.real_ = std::move(values);
    return t;
}

Tensor
Tensor::fromFlat(Shape shape, std::vector<double> values)
{
    if (static_cast<int64_t>(values.size()) != shape.numel())
        panic("fromFlat(): value count does not match shape");
    Tensor t(DType::Float, std::move(shape));
    t.real_ = std::move(values);
    return t;
}

double
Tensor::at(int64_t offset) const
{
    if (isComplex())
        panic("real at() on complex tensor");
    return real_[static_cast<size_t>(offset)];
}

double &
Tensor::at(int64_t offset)
{
    if (isComplex())
        panic("real at() on complex tensor");
    return real_[static_cast<size_t>(offset)];
}

double
Tensor::at(const std::vector<int64_t> &index) const
{
    return at(shape_.flatten(index));
}

double &
Tensor::at(const std::vector<int64_t> &index)
{
    return at(shape_.flatten(index));
}

std::complex<double>
Tensor::cat(int64_t offset) const
{
    if (!isComplex())
        panic("cat() on real tensor");
    return cplx_[static_cast<size_t>(offset)];
}

std::complex<double> &
Tensor::cat(int64_t offset)
{
    if (!isComplex())
        panic("cat() on real tensor");
    return cplx_[static_cast<size_t>(offset)];
}

std::complex<double>
Tensor::asComplex(int64_t offset) const
{
    if (isComplex())
        return cplx_[static_cast<size_t>(offset)];
    return {real_[static_cast<size_t>(offset)], 0.0};
}

double
Tensor::scalarValue() const
{
    if (numel() != 1)
        panic("scalarValue() on non-scalar tensor");
    if (isComplex())
        return cplx_[0].real();
    return real_[0];
}

Tensor
Tensor::cast(DType target) const
{
    if (target == dtype_)
        return *this;
    Tensor out(target, shape_);
    const int64_t n = numel();
    if (target == DType::Complex) {
        for (int64_t i = 0; i < n; ++i)
            out.cplx_[static_cast<size_t>(i)] = asComplex(i);
        return out;
    }
    for (int64_t i = 0; i < n; ++i) {
        double v = isComplex() ? cplx_[static_cast<size_t>(i)].real()
                               : real_[static_cast<size_t>(i)];
        if (target == DType::Int)
            v = std::trunc(v);
        else if (target == DType::Bin)
            v = (v != 0.0) ? 1.0 : 0.0;
        out.real_[static_cast<size_t>(i)] = v;
    }
    return out;
}

std::string
Tensor::str() const
{
    std::string out = toString(dtype_) + shape_.str() + " {";
    const int64_t n = std::min<int64_t>(numel(), 8);
    for (int64_t i = 0; i < n; ++i) {
        if (i)
            out += ", ";
        if (isComplex()) {
            auto c = cplx_[static_cast<size_t>(i)];
            out += '(';
            out += std::to_string(c.real());
            out += ',';
            out += std::to_string(c.imag());
            out += ')';
        } else {
            out += std::to_string(real_[static_cast<size_t>(i)]);
        }
    }
    if (numel() > n)
        out += ", ...";
    return out + "}";
}

double
Tensor::maxAbsDiff(const Tensor &a, const Tensor &b)
{
    if (a.shape() != b.shape())
        panic("maxAbsDiff(): shape mismatch");
    double worst = 0.0;
    for (int64_t i = 0; i < a.numel(); ++i)
        worst = std::max(worst, std::abs(a.asComplex(i) - b.asComplex(i)));
    return worst;
}

} // namespace polymath
