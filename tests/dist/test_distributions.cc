#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ostream>
#include <vector>

#include "aiwc/common/rng.hh"
#include "aiwc/dist/distributions.hh"
#include "aiwc/stats/descriptive.hh"

namespace aiwc::dist
{
namespace
{

std::vector<double>
sampleMany(const Distribution &d, int n, std::uint64_t seed = 1)
{
    Rng rng(seed);
    std::vector<double> xs;
    xs.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        xs.push_back(d.sample(rng));
    return xs;
}

TEST(NormalQuantile, KnownValues)
{
    EXPECT_NEAR(normalQuantile(0.5), 0.0, 1e-9);
    EXPECT_NEAR(normalQuantile(0.975), 1.959964, 1e-4);
    EXPECT_NEAR(normalQuantile(0.025), -1.959964, 1e-4);
    EXPECT_NEAR(normalQuantile(0.75), 0.674490, 1e-4);
    EXPECT_NEAR(normalQuantile(0.0001), -3.719016, 1e-3);
}

TEST(NormalQuantile, IsOddAroundHalf)
{
    for (double q : {0.6, 0.7, 0.9, 0.99})
        EXPECT_NEAR(normalQuantile(q), -normalQuantile(1.0 - q), 1e-8);
}

TEST(PointMass, AlwaysSame)
{
    const PointMass d(3.5);
    Rng rng(1);
    for (int i = 0; i < 10; ++i)
        EXPECT_DOUBLE_EQ(d.sample(rng), 3.5);
    EXPECT_DOUBLE_EQ(d.mean(), 3.5);
}

TEST(UniformDist, BoundsAndMean)
{
    const Uniform d(2.0, 6.0);
    const auto xs = sampleMany(d, 50000);
    for (double x : xs) {
        EXPECT_GE(x, 2.0);
        EXPECT_LT(x, 6.0);
    }
    EXPECT_NEAR(stats::mean(xs), 4.0, 0.05);
    EXPECT_DOUBLE_EQ(d.mean(), 4.0);
}

TEST(ExponentialDist, MeanMatches)
{
    const Exponential d(0.5);
    const auto xs = sampleMany(d, 100000);
    EXPECT_NEAR(stats::mean(xs), 2.0, 0.05);
    EXPECT_DOUBLE_EQ(d.mean(), 2.0);
}

TEST(LogNormalDist, MedianAndSigma)
{
    const LogNormal d(10.0, 0.5);
    auto xs = sampleMany(d, 100000);
    EXPECT_NEAR(stats::percentile(xs, 0.5), 10.0, 0.3);
    EXPECT_NEAR(d.median(), 10.0, 1e-12);
    EXPECT_NEAR(d.mean(), 10.0 * std::exp(0.125), 1e-9);
}

TEST(LogNormalDist, QuantileFunctionExact)
{
    const LogNormal d(30.0, 2.0);
    EXPECT_NEAR(d.quantile(0.5), 30.0, 1e-9);
    EXPECT_NEAR(d.quantile(0.75), 30.0 * std::exp(2.0 * 0.674490), 0.1);
}

TEST(LogNormalDist, FromQuantilesRoundTrips)
{
    // The paper's GPU runtimes: p50 = 30 min, p75 = 300 min.
    const LogNormal d = LogNormal::fromQuantiles(0.5, 30.0, 0.75, 300.0);
    EXPECT_NEAR(d.quantile(0.5), 30.0, 1e-6);
    EXPECT_NEAR(d.quantile(0.75), 300.0, 1e-6);
    // sigma = ln(10)/z(0.75)
    EXPECT_NEAR(d.sigma(), std::log(10.0) / 0.6744898, 1e-4);
}

TEST(ParetoDist, TailAndMean)
{
    const Pareto d(1.0, 3.0);
    const auto xs = sampleMany(d, 100000);
    for (double x : xs)
        EXPECT_GE(x, 1.0);
    EXPECT_NEAR(stats::mean(xs), 1.5, 0.05);
    EXPECT_DOUBLE_EQ(d.mean(), 1.5);
}

TEST(ParetoDist, InfiniteMeanForSmallAlpha)
{
    const Pareto d(1.0, 0.9);
    EXPECT_TRUE(std::isinf(d.mean()));
}

TEST(WeibullDist, ShapeOneIsExponential)
{
    const Weibull d(1.0, 2.0);
    const auto xs = sampleMany(d, 100000);
    EXPECT_NEAR(stats::mean(xs), 2.0, 0.05);
    EXPECT_NEAR(d.mean(), 2.0, 1e-9);
}

TEST(BetaDist, MeanAndSupport)
{
    const Beta d(2.0, 5.0);
    const auto xs = sampleMany(d, 50000);
    for (double x : xs) {
        EXPECT_GE(x, 0.0);
        EXPECT_LE(x, 1.0);
    }
    EXPECT_NEAR(stats::mean(xs), 2.0 / 7.0, 0.01);
}

TEST(BetaDist, FromMeanSolvesParameters)
{
    const Beta d = Beta::fromMean(0.3, 10.0);
    EXPECT_NEAR(d.mean(), 0.3, 1e-12);
    const auto xs = sampleMany(d, 50000);
    EXPECT_NEAR(stats::mean(xs), 0.3, 0.01);
}

TEST(GammaSampler, MeanEqualsShape)
{
    Rng rng(3);
    for (double shape : {0.3, 1.0, 2.5, 9.0}) {
        double acc = 0.0;
        constexpr int n = 50000;
        for (int i = 0; i < n; ++i) {
            const double g = sampleGamma(rng, shape);
            ASSERT_GT(g, 0.0);
            acc += g;
        }
        EXPECT_NEAR(acc / n, shape, 0.05 * std::max(shape, 1.0));
    }
}

TEST(MixtureDist, WeightsControlComponentFrequency)
{
    const Mixture d({{0.75, make<PointMass>(0.0)},
                     {0.25, make<PointMass>(1.0)}});
    const auto xs = sampleMany(d, 100000);
    EXPECT_NEAR(stats::mean(xs), 0.25, 0.01);
    EXPECT_NEAR(d.mean(), 0.25, 1e-12);
}

TEST(MixtureDist, ZeroWeightComponentNeverDrawn)
{
    const Mixture d({{1.0, make<PointMass>(5.0)},
                     {0.0, make<PointMass>(99.0)}});
    const auto xs = sampleMany(d, 1000);
    for (double x : xs)
        EXPECT_DOUBLE_EQ(x, 5.0);
}

TEST(TruncatedDist, SamplesStayInRange)
{
    const Truncated d(make<LogNormal>(10.0, 2.0), 1.0, 100.0);
    const auto xs = sampleMany(d, 20000);
    for (double x : xs) {
        EXPECT_GE(x, 1.0);
        EXPECT_LE(x, 100.0);
    }
}

TEST(TruncatedDist, DegenerateRangeClampsEventually)
{
    // Inner distribution essentially never lands in [1e9, 2e9]; the
    // fallback clamp must still terminate and respect the bounds.
    const Truncated d(make<PointMass>(5.0), 1e9, 2e9);
    Rng rng(1);
    const double x = d.sample(rng);
    EXPECT_GE(x, 1e9);
    EXPECT_LE(x, 2e9);
}

// Property sweep over log-normal sigmas: the sample CoV should track
// sqrt(exp(sigma^2) - 1) — the basis of the Fig. 6b calibration.
class LogNormalCov : public ::testing::TestWithParam<double>
{
};

TEST_P(LogNormalCov, CovMatchesClosedForm)
{
    const double sigma = GetParam();
    const LogNormal d(5.0, sigma);
    const auto xs = sampleMany(d, 400000, 99);
    const double expected = std::sqrt(std::exp(sigma * sigma) - 1.0);
    EXPECT_NEAR(stats::covPercent(xs) / 100.0, expected,
                0.12 * expected);
}

INSTANTIATE_TEST_SUITE_P(Sigmas, LogNormalCov,
                         ::testing::Values(0.25, 0.5, 0.75, 1.0));

// Property sweep: LogNormal::fromQuantiles reproduces both anchors for
// a grid of quantile pairs.
struct QuantilePair
{
    double q1, v1, q2, v2;
};

class FromQuantiles : public ::testing::TestWithParam<QuantilePair>
{
};

TEST_P(FromQuantiles, AnchorsRoundTrip)
{
    const auto p = GetParam();
    const LogNormal d = LogNormal::fromQuantiles(p.q1, p.v1, p.q2, p.v2);
    EXPECT_NEAR(d.quantile(p.q1), p.v1, 1e-6 * p.v1);
    EXPECT_NEAR(d.quantile(p.q2), p.v2, 1e-6 * p.v2);
}

/**
 * Prints "P25at4_P50at30": each anchor's percentile and value. CTest
 * names each instance after its printed parameter, so this keeps the
 * names readable and the same in every build.
 */
void
PrintTo(const QuantilePair &p, std::ostream *os)
{
    *os << 'P' << std::lround(p.q1 * 100.0) << "at" << std::lround(p.v1)
        << "_P" << std::lround(p.q2 * 100.0) << "at" << std::lround(p.v2);
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, FromQuantiles,
    ::testing::Values(QuantilePair{0.25, 4.0, 0.5, 30.0},
                      QuantilePair{0.5, 30.0, 0.75, 300.0},
                      QuantilePair{0.1, 1.0, 0.9, 1000.0},
                      QuantilePair{0.5, 8.0, 0.9, 100.0}));

} // namespace
} // namespace aiwc::dist
