#include <gtest/gtest.h>

#include <cmath>

#include "aiwc/base/check.hh"
#include "aiwc/common/rng.hh"
#include "aiwc/stats/ecdf.hh"

namespace aiwc::stats
{
namespace
{

TEST(Ecdf, EmptyBehaviour)
{
    EmpiricalCdf cdf;
    EXPECT_TRUE(cdf.empty());
    EXPECT_DOUBLE_EQ(cdf.at(1.0), 0.0);
    // An empty CDF has no quantiles: NaN, not a fabricated 0.
    EXPECT_TRUE(std::isnan(cdf.quantile(0.5)));
}

TEST(Ecdf, QuantileRejectsLevelsOutsideUnitInterval)
{
    ScopedCheckFailHandler guard;
    const EmpiricalCdf cdf({1.0, 2.0, 3.0});
    EXPECT_THROW(cdf.quantile(-0.01), ContractViolation);
    EXPECT_THROW(cdf.quantile(1.01), ContractViolation);
    EXPECT_THROW(cdf.quantile(42.0), ContractViolation);
}

TEST(Ecdf, CurveOfEmptyCdfIsAContractViolation)
{
    ScopedCheckFailHandler guard;
    const EmpiricalCdf cdf;
    EXPECT_THROW(cdf.curve(11), ContractViolation);
}

TEST(Ecdf, StepFunctionValues)
{
    const EmpiricalCdf cdf({1.0, 2.0, 3.0, 4.0});
    EXPECT_DOUBLE_EQ(cdf.at(0.5), 0.0);
    EXPECT_DOUBLE_EQ(cdf.at(1.0), 0.25);
    EXPECT_DOUBLE_EQ(cdf.at(2.5), 0.5);
    EXPECT_DOUBLE_EQ(cdf.at(4.0), 1.0);
    EXPECT_DOUBLE_EQ(cdf.at(100.0), 1.0);
}

TEST(Ecdf, TailComplementsAt)
{
    const EmpiricalCdf cdf({1.0, 2.0, 3.0, 4.0});
    EXPECT_DOUBLE_EQ(cdf.tail(2.5), 0.5);
    EXPECT_DOUBLE_EQ(cdf.at(2.5) + cdf.tail(2.5), 1.0);
}

TEST(Ecdf, QuantileMatchesPercentile)
{
    const EmpiricalCdf cdf({4.0, 1.0, 3.0, 2.0});
    EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 2.5);
    EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 4.0);
}

TEST(Ecdf, CurveIsMonotone)
{
    Rng rng(5);
    std::vector<double> xs;
    for (int i = 0; i < 500; ++i)
        xs.push_back(rng.gaussian());
    const EmpiricalCdf cdf(std::move(xs));
    const auto curve = cdf.curve(51);
    ASSERT_EQ(curve.size(), 51u);
    for (std::size_t i = 1; i < curve.size(); ++i) {
        EXPECT_GE(curve[i].first, curve[i - 1].first);
        EXPECT_GE(curve[i].second, curve[i - 1].second);
    }
    EXPECT_DOUBLE_EQ(curve.front().second, 0.0);
    EXPECT_DOUBLE_EQ(curve.back().second, 1.0);
}

TEST(Ecdf, KsDistanceOfIdenticalSamplesIsZero)
{
    const EmpiricalCdf a({1.0, 2.0, 3.0});
    const EmpiricalCdf b({1.0, 2.0, 3.0});
    EXPECT_DOUBLE_EQ(a.ksDistance(b), 0.0);
}

TEST(Ecdf, KsDistanceOfDisjointSamplesIsOne)
{
    const EmpiricalCdf a({1.0, 2.0});
    const EmpiricalCdf b({10.0, 20.0});
    EXPECT_DOUBLE_EQ(a.ksDistance(b), 1.0);
}

TEST(Ecdf, KsDistanceDetectsShift)
{
    Rng rng(9);
    std::vector<double> xs, ys;
    for (int i = 0; i < 4000; ++i) {
        xs.push_back(rng.gaussian());
        ys.push_back(rng.gaussian() + 0.5);
    }
    const EmpiricalCdf a(std::move(xs)), b(std::move(ys));
    const double d = a.ksDistance(b);
    // Theoretical KS for a 0.5-sigma shift is ~0.197.
    EXPECT_NEAR(d, 0.197, 0.04);
}

TEST(Ecdf, AtIsRightContinuousCountingTies)
{
    const EmpiricalCdf cdf({2.0, 2.0, 2.0, 5.0});
    EXPECT_DOUBLE_EQ(cdf.at(2.0), 0.75);
    EXPECT_DOUBLE_EQ(cdf.at(1.9999), 0.0);
}

TEST(Ecdf, AtLeftIsTheLeftLimit)
{
    const EmpiricalCdf cdf({2.0, 2.0, 2.0, 5.0});
    EXPECT_DOUBLE_EQ(cdf.atLeft(2.0), 0.0);
    EXPECT_DOUBLE_EQ(cdf.atLeft(5.0), 0.75);
    EXPECT_DOUBLE_EQ(cdf.atLeft(6.0), 1.0);
    EXPECT_DOUBLE_EQ(cdf.atLeft(1.0), 0.0);
}

TEST(Ecdf, KsDistanceComparesLeftLimitsOnIdenticalSupport)
{
    // Both samples step only at {1, 2}, with opposite weights. The
    // right-continuous values agree at x=2 onward and the largest
    // right-side gap is |0.75 - 0.25| = 0.5 at x=1; the left limits
    // at x=2 expose the same 0.5 gap. A ksDistance that looked only
    // at right-side values at the merged points would still be exact
    // here, but must never report *more* than the true supremum.
    const EmpiricalCdf a({1.0, 1.0, 1.0, 2.0});
    const EmpiricalCdf b({1.0, 2.0, 2.0, 2.0});
    EXPECT_DOUBLE_EQ(a.ksDistance(b), 0.5);
    EXPECT_DOUBLE_EQ(b.ksDistance(a), 0.5);
}

TEST(Ecdf, KsDistanceOnSharedSupportCountsTieWeights)
{
    // Identical support {1, 2, 3}; only the tie multiplicities differ.
    // True KS = max over jump points of both value and left-limit
    // gaps: F_a = {.2, .6, 1}, F_b = {.6, .8, 1} -> sup gap 0.4.
    const EmpiricalCdf a({1.0, 2.0, 2.0, 3.0, 3.0});
    const EmpiricalCdf b({1.0, 1.0, 1.0, 2.0, 3.0});
    EXPECT_DOUBLE_EQ(a.ksDistance(b), 0.4);
}

// Property: for samples from U(0,1), quantile(q) ~ q.
class EcdfUniformProperty : public ::testing::TestWithParam<double>
{
};

TEST_P(EcdfUniformProperty, QuantileTracksLevel)
{
    Rng rng(31);
    std::vector<double> xs;
    for (int i = 0; i < 20000; ++i)
        xs.push_back(rng.uniform());
    const EmpiricalCdf cdf(std::move(xs));
    const double q = GetParam();
    EXPECT_NEAR(cdf.quantile(q), q, 0.02);
}

INSTANTIATE_TEST_SUITE_P(Levels, EcdfUniformProperty,
                         ::testing::Values(0.05, 0.25, 0.5, 0.75, 0.95));

} // namespace
} // namespace aiwc::stats
