/**
 * @file
 * Unit tests for the core utilities: DType, Shape, Tensor, Rng, strings.
 */
#include <gtest/gtest.h>

#include "core/dtype.h"
#include "core/error.h"
#include "core/json.h"
#include "core/logging.h"
#include "core/rng.h"
#include "core/shape.h"
#include "core/strings.h"
#include "core/tensor.h"

namespace polymath {
namespace {

TEST(DType, RoundTripsThroughStrings)
{
    for (DType t : {DType::Bin, DType::Int, DType::Float, DType::Str,
                    DType::Complex}) {
        const auto parsed = dtypeFromString(toString(t));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, t);
    }
    EXPECT_FALSE(dtypeFromString("double").has_value());
}

TEST(DType, SizesMatchAcceleratorLayout)
{
    EXPECT_EQ(dtypeSize(DType::Bin), 1);
    EXPECT_EQ(dtypeSize(DType::Int), 8);
    EXPECT_EQ(dtypeSize(DType::Float), 8);
    EXPECT_EQ(dtypeSize(DType::Complex), 16);
    EXPECT_EQ(dtypeSize(DType::Str), 0);
}

TEST(DType, PromotionPicksWiderType)
{
    EXPECT_EQ(promote(DType::Bin, DType::Int), DType::Int);
    EXPECT_EQ(promote(DType::Int, DType::Float), DType::Float);
    EXPECT_EQ(promote(DType::Float, DType::Complex), DType::Complex);
    EXPECT_EQ(promote(DType::Complex, DType::Bin), DType::Complex);
    EXPECT_THROW(promote(DType::Str, DType::Int), InternalError);
}

TEST(Shape, ScalarHasRankZeroAndOneElement)
{
    Shape s;
    EXPECT_TRUE(s.isScalar());
    EXPECT_EQ(s.rank(), 0);
    EXPECT_EQ(s.numel(), 1);
    EXPECT_EQ(s.str(), "scalar");
}

TEST(Shape, NumelAndStrides)
{
    Shape s{2, 3, 4};
    EXPECT_EQ(s.numel(), 24);
    EXPECT_EQ(s.strides(), (std::vector<int64_t>{12, 4, 1}));
    EXPECT_EQ(s.str(), "[2][3][4]");
}

TEST(Shape, FlattenIsRowMajor)
{
    Shape s{2, 3};
    EXPECT_EQ(s.flatten({0, 0}), 0);
    EXPECT_EQ(s.flatten({0, 2}), 2);
    EXPECT_EQ(s.flatten({1, 0}), 3);
    EXPECT_EQ(s.flatten({1, 2}), 5);
}

TEST(Shape, FlattenRejectsOutOfBounds)
{
    Shape s{2, 3};
    EXPECT_THROW(s.flatten({2, 0}), InternalError);
    EXPECT_THROW(s.flatten({0, 3}), InternalError);
    EXPECT_THROW(s.flatten({0}), InternalError);
}

class ShapeRoundTrip : public ::testing::TestWithParam<std::vector<int64_t>>
{
};

TEST_P(ShapeRoundTrip, UnflattenInvertsFlatten)
{
    const Shape s(GetParam());
    for (int64_t off = 0; off < s.numel(); ++off) {
        const auto idx = s.unflatten(off);
        EXPECT_EQ(s.flatten(idx), off);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ShapeRoundTrip,
    ::testing::Values(std::vector<int64_t>{7},
                      std::vector<int64_t>{3, 5},
                      std::vector<int64_t>{2, 3, 4},
                      std::vector<int64_t>{1, 9, 1},
                      std::vector<int64_t>{2, 1, 2, 3}));

TEST(Tensor, ZeroInitialized)
{
    Tensor t(DType::Float, Shape{3, 3});
    for (int64_t i = 0; i < t.numel(); ++i)
        EXPECT_EQ(t.at(i), 0.0);
}

TEST(Tensor, ScalarFactories)
{
    EXPECT_DOUBLE_EQ(Tensor::scalar(2.5).scalarValue(), 2.5);
    const auto c = Tensor::scalar(std::complex<double>{1.0, -2.0});
    EXPECT_TRUE(c.isComplex());
    EXPECT_EQ(c.cat(0), (std::complex<double>{1.0, -2.0}));
}

TEST(Tensor, FromFlatChecksSize)
{
    EXPECT_THROW(Tensor::fromFlat(Shape{2, 2}, {1, 2, 3}), InternalError);
    const auto t = Tensor::fromFlat(Shape{2, 2}, {1, 2, 3, 4});
    EXPECT_EQ(t.at({1, 1}), 4.0);
}

TEST(Tensor, CastTruncatesToInt)
{
    auto t = Tensor::vec({1.9, -2.7, 3.0});
    const auto i = t.cast(DType::Int);
    EXPECT_EQ(i.at(int64_t{0}), 1.0);
    EXPECT_EQ(i.at(int64_t{1}), -2.0);
    EXPECT_EQ(i.at(int64_t{2}), 3.0);
}

TEST(Tensor, CastToBinIsNonZeroTest)
{
    auto t = Tensor::vec({0.0, -0.5, 2.0});
    const auto b = t.cast(DType::Bin);
    EXPECT_EQ(b.at(int64_t{0}), 0.0);
    EXPECT_EQ(b.at(int64_t{1}), 1.0);
    EXPECT_EQ(b.at(int64_t{2}), 1.0);
}

TEST(Tensor, CastRealToComplexAndBack)
{
    auto t = Tensor::vec({1.0, 2.0});
    const auto c = t.cast(DType::Complex);
    EXPECT_EQ(c.cat(1), (std::complex<double>{2.0, 0.0}));
    const auto back = c.cast(DType::Float);
    EXPECT_EQ(back.at(int64_t{1}), 2.0);
}

TEST(Tensor, MaxAbsDiff)
{
    const auto a = Tensor::vec({1.0, 2.0, 3.0});
    const auto b = Tensor::vec({1.0, 2.5, 3.0});
    EXPECT_DOUBLE_EQ(Tensor::maxAbsDiff(a, b), 0.5);
    EXPECT_THROW(Tensor::maxAbsDiff(a, Tensor::vec({1.0})), InternalError);
}

TEST(Tensor, ComplexAccessorsGuardDtype)
{
    Tensor real(DType::Float, Shape{2});
    Tensor cplx(DType::Complex, Shape{2});
    EXPECT_THROW(real.cat(0), InternalError);
    EXPECT_THROW(cplx.at(int64_t{0}), InternalError);
    EXPECT_EQ(real.asComplex(0), (std::complex<double>{0.0, 0.0}));
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, GaussianMoments)
{
    Rng rng(99);
    double sum = 0.0;
    double sum2 = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gaussian();
        sum += g;
        sum2 += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.05);
    EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(Rng, UniformIntBounds)
{
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        const int64_t v = rng.uniformInt(10);
        EXPECT_GE(v, 0);
        EXPECT_LT(v, 10);
    }
    EXPECT_THROW(rng.uniformInt(0), InternalError);
}

TEST(Strings, Format)
{
    EXPECT_EQ(format("%d-%s", 42, "x"), "42-x");
    EXPECT_EQ(format("%.2f", 1.0 / 3.0), "0.33");
}

TEST(Strings, SplitAndJoin)
{
    const auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(join(parts, "/"), "a/b//c");
}

TEST(Strings, Trim)
{
    EXPECT_EQ(trim("  x y \t\n"), "x y");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
}

TEST(Strings, CountCodeLines)
{
    const std::string src = "a = 1\n\n// comment\n  // also\nb = 2\n";
    EXPECT_EQ(countCodeLines(src, "//"), 2);
    EXPECT_EQ(countCodeLines("# only\n# comments\n", "#"), 0);
}

TEST(Logging, LevelGateIsHonored)
{
    const LogLevel saved = logLevel();
    setLogLevel(LogLevel::Silent);
    EXPECT_EQ(logLevel(), LogLevel::Silent);
    inform("suppressed");
    warn("suppressed");
    setLogLevel(LogLevel::Info);
    EXPECT_EQ(logLevel(), LogLevel::Info);
    setLogLevel(saved);
}

TEST(Errors, SourceLocRendering)
{
    EXPECT_EQ(SourceLoc{}.str(), "<unknown>");
    EXPECT_EQ((SourceLoc{3, 7}).str(), "3:7");
}

TEST(Errors, FatalCarriesLocation)
{
    try {
        fatal("bad thing", SourceLoc{2, 5});
        FAIL() << "expected UserError";
    } catch (const UserError &e) {
        EXPECT_EQ(e.loc().line, 2);
        EXPECT_NE(std::string(e.what()).find("2:5"), std::string::npos);
    }
}

TEST(Json, NestingIsBoundedWithAPositionedError)
{
    const auto nested = [](int depth) {
        return std::string(static_cast<size_t>(depth), '[') +
               std::string(static_cast<size_t>(depth), ']');
    };
    EXPECT_EQ(json::parse(nested(json::kMaxDepth)).arr().size(), 1u);
    EXPECT_NO_THROW(json::parse("{\"a\":" + nested(json::kMaxDepth - 1) +
                                "}"));
    // One level past the bound fails at the '[' that opens it, whether
    // the document is shallow overall or a hostile 200k-deep line that
    // would otherwise overflow the stack.
    const std::string expected =
        format("json: nesting deeper than %d at offset %d", json::kMaxDepth,
               json::kMaxDepth);
    for (const std::string &text :
         {nested(json::kMaxDepth + 1), std::string(200000, '[')}) {
        try {
            json::parse(text);
            FAIL() << "expected UserError";
        } catch (const UserError &e) {
            EXPECT_EQ(e.message(), expected);
        }
    }
    // Siblings do not accumulate depth.
    std::string wide = "[";
    for (int i = 0; i < 4 * json::kMaxDepth; ++i) {
        if (i > 0)
            wide += ',';
        wide += nested(8);
    }
    EXPECT_NO_THROW(json::parse(wide + "]"));
}

} // namespace
} // namespace polymath
