#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "aiwc/stats/correlation.hh"
#include "aiwc/workload/user_population.hh"

namespace aiwc::workload
{
namespace
{

UserPopulation
makePopulation(int users = 191, std::uint64_t seed = 1)
{
    static const auto profile = CalibrationProfile::supercloud();
    Rng rng(seed);
    return UserPopulation(profile, rng, users);
}

TEST(UserPopulation, RespectsRequestedSize)
{
    const auto pop = makePopulation(50);
    EXPECT_EQ(pop.size(), 50u);
}

TEST(UserPopulation, ClassMixesAreNormalized)
{
    const auto pop = makePopulation();
    for (const auto &u : pop.users()) {
        double total = 0.0;
        for (double m : u.class_mix) {
            EXPECT_GE(m, 0.0);
            total += m;
        }
        EXPECT_NEAR(total, 1.0, 1e-9);
    }
}

TEST(UserPopulation, TierQuotasApproximatelyHold)
{
    // Average over several populations to beat sampling noise.
    double single = 0.0, medium = 0.0, large = 0.0;
    constexpr int reps = 20;
    for (int r = 0; r < reps; ++r) {
        const auto pop = makePopulation(191, 100 + r);
        for (const auto &u : pop.users()) {
            if (u.tier == GpuTier::SingleOnly)
                single += 1.0;
            else if (u.tier == GpuTier::Medium)
                medium += 1.0;
            else if (u.tier == GpuTier::Large)
                large += 1.0;
        }
    }
    const double n = 191.0 * reps;
    // Cohort-aware quota: light 0.34, heavy 0.34 x 0.3.
    EXPECT_NEAR(single / n, 0.8 * 0.34 + 0.2 * 0.34 * 0.3, 0.04);
    EXPECT_NEAR(medium / n, 0.078, 0.02);
    EXPECT_NEAR(large / n, 0.052, 0.02);
}

TEST(UserPopulation, SingleOnlyUsersHaveZeroMultiProb)
{
    const auto pop = makePopulation();
    for (const auto &u : pop.users()) {
        if (u.tier == GpuTier::SingleOnly) {
            EXPECT_DOUBLE_EQ(u.multi_gpu_prob, 0.0);
            EXPECT_EQ(u.maxBucket(), 0);
        } else {
            EXPECT_GT(u.multi_gpu_prob, 0.0);
            EXPECT_GE(u.maxBucket(), 1);
        }
    }
}

TEST(UserPopulation, MaxBucketMatchesTier)
{
    UserProfile u;
    u.tier = GpuTier::TwoGpu;
    EXPECT_EQ(u.maxBucket(), 1);
    u.tier = GpuTier::Medium;
    EXPECT_EQ(u.maxBucket(), 3);
    u.tier = GpuTier::Large;
    EXPECT_EQ(u.maxBucket(), 5);
}

TEST(UserPopulation, ActivityWeightedSamplingFavorsHeavyUsers)
{
    auto pop = makePopulation(40, 7);
    Rng rng(9);
    std::vector<double> draws(40, 0.0);
    constexpr int n = 200000;
    for (int i = 0; i < n; ++i)
        draws[pop.sampleByActivity(rng).id] += 1.0;
    // Draw frequency must correlate almost perfectly with weight.
    std::vector<double> weights;
    for (const auto &u : pop.users())
        weights.push_back(u.activity_weight);
    const auto c = stats::spearman(draws, weights);
    EXPECT_GT(c.coefficient, 0.95);
}

TEST(UserPopulation, SkillCorrelatesWithActivity)
{
    // The Fig. 12 mechanism at the population level.
    const auto pop = makePopulation(191, 13);
    std::vector<double> log_activity, skill;
    for (const auto &u : pop.users()) {
        log_activity.push_back(std::log(u.activity_weight));
        skill.push_back(u.util_scale);
    }
    EXPECT_GT(stats::spearman(log_activity, skill).coefficient, 0.4);
}

TEST(UserPopulation, RuntimeScaleAntiCorrelatesWithActivity)
{
    const auto pop = makePopulation(191, 17);
    std::vector<double> log_activity, scale;
    for (const auto &u : pop.users()) {
        log_activity.push_back(std::log(u.activity_weight));
        scale.push_back(u.runtime_scale);
    }
    EXPECT_LT(stats::spearman(log_activity, scale).coefficient, -0.1);
}

TEST(UserPopulation, MultiGpuCapableFractionNearTarget)
{
    // Fraction of users whose tier allows multi-GPU jobs.
    double acc = 0.0;
    constexpr int reps = 20;
    for (int r = 0; r < reps; ++r) {
        const auto pop = makePopulation(191, 300 + r);
        const auto users = pop.users();
        acc += static_cast<double>(std::count_if(
                   users.begin(), users.end(),
                   [](const UserProfile &u) {
                       return u.tier != GpuTier::SingleOnly;
                   })) /
               static_cast<double>(users.size());
    }
    EXPECT_NEAR(acc / reps, 0.68, 0.05);
}

TEST(UserPopulation, DeterministicGivenSeed)
{
    const auto a = makePopulation(30, 42);
    const auto b = makePopulation(30, 42);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.users()[i].activity_weight,
                         b.users()[i].activity_weight);
        EXPECT_DOUBLE_EQ(a.users()[i].util_scale,
                         b.users()[i].util_scale);
    }
}

} // namespace
} // namespace aiwc::workload
