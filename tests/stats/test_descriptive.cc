#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "aiwc/stats/descriptive.hh"

namespace aiwc::stats
{
namespace
{

TEST(Descriptive, MeanOfEmptyIsZero)
{
    const std::vector<double> empty;
    EXPECT_DOUBLE_EQ(mean(empty), 0.0);
}

TEST(Descriptive, MeanBasic)
{
    const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(mean(xs), 2.5);
}

TEST(Descriptive, StddevOfConstantIsZero)
{
    const std::vector<double> xs = {5.0, 5.0, 5.0};
    EXPECT_DOUBLE_EQ(stddev(xs), 0.0);
}

TEST(Descriptive, StddevKnownValue)
{
    const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0,
                                    9.0};
    EXPECT_NEAR(stddev(xs), 2.0, 1e-12);  // classic example
}

TEST(Descriptive, CovPercentDefinition)
{
    const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0,
                                    9.0};
    EXPECT_NEAR(covPercent(xs), 100.0 * 2.0 / 5.0, 1e-9);
}

TEST(Descriptive, CovPercentZeroMeanIsNan)
{
    // A zero-mean series has no meaningful relative variability; the
    // convention is NaN (not 0, which would claim a perfectly steady
    // series) and CDF builders filter non-finite values.
    const std::vector<double> xs = {-1.0, 1.0};
    EXPECT_TRUE(std::isnan(covPercent(xs)));
}

TEST(Descriptive, CovPercentEmptyIsNan)
{
    const std::vector<double> empty;
    EXPECT_TRUE(std::isnan(covPercent(empty)));
}

TEST(Descriptive, CovPercentAllZerosIsNan)
{
    const std::vector<double> xs = {0.0, 0.0, 0.0};
    EXPECT_TRUE(std::isnan(covPercent(xs)));
}

TEST(Descriptive, CovPercentNegativeMeanUsesMagnitude)
{
    const std::vector<double> xs = {-2.0, -4.0, -4.0, -4.0, -5.0, -5.0,
                                    -7.0, -9.0};
    EXPECT_NEAR(covPercent(xs), 100.0 * 2.0 / 5.0, 1e-9);
}

TEST(Descriptive, PercentileInterpolates)
{
    std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 2.5);
    EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 4.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 0.25), 1.75);
}

TEST(Descriptive, PercentileSingleElement)
{
    EXPECT_DOUBLE_EQ(percentile({42.0}, 0.9), 42.0);
}

TEST(Descriptive, PercentileUnsortedInput)
{
    EXPECT_DOUBLE_EQ(percentile({9.0, 1.0, 5.0}, 0.5), 5.0);
}

TEST(BoxStats, QuartilesOfUniformRange)
{
    std::vector<double> xs;
    for (int i = 1; i <= 101; ++i)
        xs.push_back(static_cast<double>(i));
    const BoxStats b = BoxStats::from(xs);
    EXPECT_DOUBLE_EQ(b.median, 51.0);
    EXPECT_DOUBLE_EQ(b.q1, 26.0);
    EXPECT_DOUBLE_EQ(b.q3, 76.0);
    EXPECT_DOUBLE_EQ(b.min, 1.0);
    EXPECT_DOUBLE_EQ(b.max, 101.0);
    EXPECT_EQ(b.n, 101u);
}

TEST(BoxStats, WhiskersClampToFences)
{
    // One extreme outlier: whisker_hi should stay inside 1.5 IQR.
    std::vector<double> xs = {1, 2, 3, 4, 5, 6, 7, 8, 9, 1000};
    const BoxStats b = BoxStats::from(xs);
    EXPECT_LT(b.whisker_hi, 1000.0);
    EXPECT_DOUBLE_EQ(b.max, 1000.0);
}

TEST(BoxStats, EmptyInputIsAllZero)
{
    const BoxStats b = BoxStats::from({});
    EXPECT_EQ(b.n, 0u);
    EXPECT_DOUBLE_EQ(b.median, 0.0);
}

TEST(RunningSummary, TracksMinMeanMax)
{
    RunningSummary s;
    s.add(3.0);
    s.add(1.0);
    s.add(5.0);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 5.0);
    EXPECT_DOUBLE_EQ(s.mean(), 3.0);
    EXPECT_EQ(s.count(), 3u);
}

TEST(RunningSummary, EmptyIsZero)
{
    RunningSummary s;
    EXPECT_DOUBLE_EQ(s.min(), 0.0);
    EXPECT_DOUBLE_EQ(s.max(), 0.0);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningSummary, StddevMatchesBatch)
{
    const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0,
                                    9.0};
    RunningSummary s;
    for (double x : xs)
        s.add(x);
    EXPECT_NEAR(s.stddev(), stddev(xs), 1e-9);
    EXPECT_NEAR(s.covPercent(), covPercent(xs), 1e-9);
}

TEST(RunningSummary, ZeroMeanCovIsNan)
{
    RunningSummary s;
    s.add(-1.0);
    s.add(1.0);
    EXPECT_TRUE(std::isnan(s.covPercent()));
    RunningSummary empty;
    EXPECT_TRUE(std::isnan(empty.covPercent()));
}

// Property sweep: CoV of a two-point distribution {0, x} is always
// 100% regardless of x (the Fig. 14 idle-GPU signature).
class CovTwoPoint : public ::testing::TestWithParam<double>
{
};

TEST_P(CovTwoPoint, IdlePairHasHundredPercentCov)
{
    const std::vector<double> xs = {0.0, GetParam()};
    EXPECT_NEAR(covPercent(xs), 100.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Values, CovTwoPoint,
                         ::testing::Values(0.1, 0.5, 1.0, 10.0, 1e6));

} // namespace
} // namespace aiwc::stats
