#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <vector>

#include "aiwc/common/rng.hh"
#include "aiwc/stats/correlation.hh"

namespace aiwc::stats
{
namespace
{

TEST(Ranks, SimpleOrdering)
{
    const std::vector<double> xs = {30.0, 10.0, 20.0};
    const auto r = averageRanks(xs);
    EXPECT_DOUBLE_EQ(r[0], 3.0);
    EXPECT_DOUBLE_EQ(r[1], 1.0);
    EXPECT_DOUBLE_EQ(r[2], 2.0);
}

TEST(Ranks, TiesGetAverageRank)
{
    const std::vector<double> xs = {1.0, 2.0, 2.0, 3.0};
    const auto r = averageRanks(xs);
    EXPECT_DOUBLE_EQ(r[0], 1.0);
    EXPECT_DOUBLE_EQ(r[1], 2.5);
    EXPECT_DOUBLE_EQ(r[2], 2.5);
    EXPECT_DOUBLE_EQ(r[3], 4.0);
}

TEST(Pearson, PerfectLinearCorrelation)
{
    const std::vector<double> x = {1, 2, 3, 4, 5};
    const std::vector<double> y = {2, 4, 6, 8, 10};
    const auto c = pearson(x, y);
    EXPECT_NEAR(c.coefficient, 1.0, 1e-12);
    EXPECT_LT(c.p_value, 1e-6);
    EXPECT_TRUE(c.significant());
}

TEST(Pearson, PerfectAntiCorrelation)
{
    const std::vector<double> x = {1, 2, 3, 4, 5};
    const std::vector<double> y = {5, 4, 3, 2, 1};
    EXPECT_NEAR(pearson(x, y).coefficient, -1.0, 1e-12);
}

TEST(Pearson, ConstantSeriesGivesZero)
{
    const std::vector<double> x = {1, 2, 3, 4};
    const std::vector<double> y = {7, 7, 7, 7};
    const auto c = pearson(x, y);
    EXPECT_DOUBLE_EQ(c.coefficient, 0.0);
}

TEST(Pearson, TooFewSamples)
{
    const std::vector<double> x = {1, 2};
    const std::vector<double> y = {2, 1};
    const auto c = pearson(x, y);
    EXPECT_DOUBLE_EQ(c.coefficient, 0.0);
    EXPECT_DOUBLE_EQ(c.p_value, 1.0);
}

TEST(Spearman, MonotoneNonlinearIsPerfect)
{
    // Spearman sees through monotone transforms; Pearson does not.
    std::vector<double> x, y;
    for (int i = 1; i <= 20; ++i) {
        x.push_back(i);
        y.push_back(std::exp(0.5 * i));
    }
    EXPECT_NEAR(spearman(x, y).coefficient, 1.0, 1e-12);
    EXPECT_LT(pearson(x, y).coefficient, 0.99);
}

TEST(Spearman, IndependentSeriesNearZero)
{
    Rng rng(77);
    std::vector<double> x, y;
    for (int i = 0; i < 3000; ++i) {
        x.push_back(rng.uniform());
        y.push_back(rng.uniform());
    }
    const auto c = spearman(x, y);
    EXPECT_NEAR(c.coefficient, 0.0, 0.05);
    EXPECT_FALSE(c.significant(0.001));
}

TEST(Spearman, NoisyMonotoneIsStronglyPositive)
{
    Rng rng(78);
    std::vector<double> x, y;
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.uniform();
        x.push_back(v);
        y.push_back(v + 0.3 * rng.gaussian());
    }
    const auto c = spearman(x, y);
    EXPECT_GT(c.coefficient, 0.6);
    EXPECT_TRUE(c.significant());
}

TEST(TTest, PValueSymmetricAndMonotone)
{
    const double p1 = tTestPValue(1.0, 30.0);
    const double p2 = tTestPValue(2.0, 30.0);
    const double p1n = tTestPValue(-1.0, 30.0);
    EXPECT_DOUBLE_EQ(p1, p1n);
    EXPECT_GT(p1, p2);
    EXPECT_GT(p1, 0.0);
    EXPECT_LT(p1, 1.0);
}

TEST(TTest, KnownCriticalValue)
{
    // t = 2.042 at df = 30 is the classic 5% two-sided critical value.
    EXPECT_NEAR(tTestPValue(2.042, 30.0), 0.05, 0.002);
}

TEST(TTest, ZeroStatisticGivesPOne)
{
    EXPECT_NEAR(tTestPValue(0.0, 10.0), 1.0, 1e-9);
}

// Property sweep: spearman(x, f(x)) == 1 for strictly increasing f.
struct Transform
{
    const char *name;
    double (*apply)(double);
};

/**
 * CTest names each instance after its printed parameter; print the
 * transform's name, not the function pointer, so the names are the
 * same in every build.
 */
void
PrintTo(const Transform &t, std::ostream *os)
{
    *os << t.name;
}

class SpearmanMonotone : public ::testing::TestWithParam<Transform>
{
};

TEST_P(SpearmanMonotone, InvariantUnderMonotoneTransforms)
{
    Rng rng(80);
    std::vector<double> x, y;
    for (int i = 0; i < 200; ++i) {
        const double v = rng.uniform(0.1, 10.0);
        x.push_back(v);
        y.push_back(GetParam().apply(v));
    }
    EXPECT_NEAR(spearman(x, y).coefficient, 1.0, 1e-12);
}

double fLog(double v) { return std::log(v); }
double fSqrt(double v) { return std::sqrt(v); }
double fCube(double v) { return v * v * v; }

INSTANTIATE_TEST_SUITE_P(
    Transforms, SpearmanMonotone,
    ::testing::Values(Transform{"Log", &fLog}, Transform{"Sqrt", &fSqrt},
                      Transform{"Cube", &fCube}));

} // namespace
} // namespace aiwc::stats
