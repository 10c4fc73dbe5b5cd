#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "aiwc/common/rng.hh"
#include "aiwc/dist/distributions.hh"
#include "aiwc/stats/descriptive.hh"

namespace aiwc::dist
{
namespace
{

template <typename D>
std::vector<double>
sampleMany(const D &d, int n, std::uint64_t seed = 1)
{
    Rng rng(seed);
    std::vector<double> xs;
    xs.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        xs.push_back(d.sample(rng));
    return xs;
}

TEST(LogNormalDist, MedianAndSigma)
{
    const LogNormal d(10.0, 0.5);
    auto xs = sampleMany(d, 100000);
    EXPECT_NEAR(stats::percentile(xs, 0.5), 10.0, 0.3);
    EXPECT_NEAR(stats::mean(xs), 10.0 * std::exp(0.125), 0.1);
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

} // namespace
} // namespace aiwc::dist
