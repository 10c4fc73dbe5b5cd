#include <gtest/gtest.h>

#include <vector>

#include "aiwc/stats/share_curve.hh"

namespace aiwc::stats
{
namespace
{

TEST(TopShare, EqualContributionsAreProportional)
{
    const std::vector<double> xs(100, 1.0);
    EXPECT_NEAR(topShare(xs, 0.20), 0.20, 1e-12);
    EXPECT_NEAR(topShare(xs, 0.05), 0.05, 1e-12);
}

TEST(TopShare, SingleDominatorTakesAll)
{
    std::vector<double> xs(99, 0.0);
    xs.push_back(100.0);
    EXPECT_DOUBLE_EQ(topShare(xs, 0.01), 1.0);
}

TEST(TopShare, RoundsContributorCountUp)
{
    // top 30% of 4 contributors = ceil(1.2) = 2 contributors.
    const std::vector<double> xs = {4.0, 3.0, 2.0, 1.0};
    EXPECT_DOUBLE_EQ(topShare(xs, 0.30), 0.7);
}

TEST(TopShare, EmptyAndZeroTotals)
{
    const std::vector<double> empty;
    EXPECT_DOUBLE_EQ(topShare(empty, 0.5), 0.0);
    const std::vector<double> zeros(5, 0.0);
    EXPECT_DOUBLE_EQ(topShare(zeros, 0.5), 0.0);
}

} // namespace
} // namespace aiwc::stats
