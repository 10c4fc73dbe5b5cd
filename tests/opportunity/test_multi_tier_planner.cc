#include <gtest/gtest.h>

#include "../core/record_builder.hh"

#include "aiwc/opportunity/multi_tier_planner.hh"

namespace aiwc::opportunity
{
namespace
{

using core::testing::gpuRecord;

core::Dataset
tierDataset()
{
    core::Dataset ds;
    // 4 mature GPU-hours at decent utilization.
    for (int i = 0; i < 4; ++i)
        ds.add(gpuRecord(static_cast<JobId>(i), 0, 3600.0, 1, 0.4, 0.7,
                         TerminalState::Completed));
    // 2 exploratory hours, 2 IDE hours at ~zero utilization.
    ds.add(gpuRecord(10, 1, 2 * 3600.0, 1, 0.15, 0.4,
                     TerminalState::Cancelled));
    ds.add(gpuRecord(11, 2, 2 * 3600.0, 1, 0.0, 0.01,
                     TerminalState::TimedOut));
    return ds;
}

TEST(MultiTierPlanner, ShiftsOnlyNonMatureClasses)
{
    const MultiTierPlanner planner;
    const auto ds = tierDataset();
    for (const std::uint32_t i : ds.gpuJobIndices()) {
        const core::JobRecord &job = ds.records()[i];
        const bool shifted = planner.shouldShift(job);
        if (job.terminal == TerminalState::Completed)
            EXPECT_FALSE(shifted);
        else
            EXPECT_TRUE(shifted);
    }
}

TEST(MultiTierPlanner, SlowdownFollowsAmdahl)
{
    const MultiTierPlanner planner(/*speed=*/0.5);
    // A job at 0% SM does not slow down at all on a slower GPU.
    const auto idle = gpuRecord(1, 0, 3600.0, 1, 0.0, 0.01);
    EXPECT_NEAR(planner.jobSlowdown(idle), 1.0, 1e-9);
    // A fully GPU-bound job doubles.
    const auto hot = gpuRecord(2, 0, 3600.0, 1, 1.0, 1.0);
    EXPECT_NEAR(planner.jobSlowdown(hot), 2.0, 1e-9);
}

TEST(MultiTierPlanner, PlanQuantifiesTheTrade)
{
    const MultiTierPlanner planner(0.5, 0.35);
    const auto plan = planner.plan(tierDataset());
    EXPECT_NEAR(plan.shifted_hour_fraction, 0.5, 1e-9);  // 4 of 8 hours
    EXPECT_GT(plan.mean_shifted_slowdown, 1.0);
    EXPECT_LT(plan.mean_shifted_slowdown, 1.3);  // low-util jobs
    EXPECT_GT(plan.cost_saving_fraction, 0.2);
    EXPECT_LT(plan.cost_saving_fraction, 0.5);
}

TEST(MultiTierPlanner, NoSavingWhenEconomyCostEqualsPremium)
{
    const MultiTierPlanner planner(1.0, 1.0);
    const auto plan = planner.plan(tierDataset());
    EXPECT_NEAR(plan.cost_saving_fraction, 0.0, 1e-9);
}

TEST(MultiTierPlanner, ShiftedJobsCountedPerClass)
{
    const auto plan = MultiTierPlanner().plan(tierDataset());
    EXPECT_DOUBLE_EQ(
        plan.shifted_jobs[static_cast<int>(Lifecycle::Exploratory)],
        1.0);
    EXPECT_DOUBLE_EQ(plan.shifted_jobs[static_cast<int>(Lifecycle::Ide)],
                     1.0);
    EXPECT_DOUBLE_EQ(
        plan.shifted_jobs[static_cast<int>(Lifecycle::Mature)], 0.0);
}

TEST(MultiTierPlanner, EmptyDataset)
{
    const auto plan = MultiTierPlanner().plan(core::Dataset{});
    EXPECT_DOUBLE_EQ(plan.shifted_hour_fraction, 0.0);
    EXPECT_DOUBLE_EQ(plan.cost_saving_fraction, 0.0);
}

} // namespace
} // namespace aiwc::opportunity
