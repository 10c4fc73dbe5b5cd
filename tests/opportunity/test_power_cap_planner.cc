#include <gtest/gtest.h>

#include "../core/record_builder.hh"

#include "aiwc/opportunity/power_cap_planner.hh"

namespace aiwc::opportunity
{
namespace
{

core::JobRecord
powerRecord(JobId id, double avg_w, double max_w, double hours = 1.0)
{
    core::JobRecord r = core::testing::gpuRecord(id, 0, hours * 3600.0);
    r.per_gpu[0] = core::testing::summaryWith(0.2, 0.5, 0.02, 0.1,
                                              avg_w, max_w);
    return r;
}

TEST(PowerCapPlanner, UnimpactedJobHasUnitSlowdown)
{
    const PowerCapPlanner planner;
    EXPECT_DOUBLE_EQ(planner.jobSlowdown(40.0, 100.0, 150.0), 1.0);
}

TEST(PowerCapPlanner, PersistentThrottlingScalesWithAvg)
{
    const PowerCapPlanner planner;
    EXPECT_NEAR(planner.jobSlowdown(300.0, 300.0, 150.0), 2.0, 1e-9);
}

TEST(PowerCapPlanner, BurstThrottlingIsMild)
{
    const PowerCapPlanner planner(300.0, 0.15);
    const double s = planner.jobSlowdown(100.0, 225.0, 150.0);
    EXPECT_GT(s, 1.0);
    EXPECT_LE(s, 1.15);
}

TEST(PowerCapPlanner, PlanAggregatesImpactFractions)
{
    core::Dataset ds;
    ds.add(powerRecord(1, 40.0, 100.0));
    ds.add(powerRecord(2, 60.0, 180.0));
    ds.add(powerRecord(3, 170.0, 280.0));
    ds.add(powerRecord(4, 30.0, 80.0));
    const auto plans = PowerCapPlanner().plan(ds, {150.0});
    ASSERT_EQ(plans.size(), 1u);
    const auto &p = plans[0];
    EXPECT_NEAR(p.unimpacted, 0.5, 1e-12);
    EXPECT_NEAR(p.impacted_by_avg, 0.25, 1e-12);
    EXPECT_NEAR(p.gpu_multiplier, 2.0, 1e-12);
    EXPECT_GE(p.mean_slowdown, 1.0);
}

TEST(PowerCapPlanner, ThroughputGainPositiveForLowPowerFleet)
{
    // The paper's finding: most jobs draw so little that capping at
    // 150 W and doubling the GPUs is a clear throughput win.
    core::Dataset ds;
    for (int i = 0; i < 30; ++i)
        ds.add(powerRecord(static_cast<JobId>(i), 45.0, 87.0));
    const auto plans = PowerCapPlanner().plan(ds, {150.0});
    EXPECT_NEAR(plans[0].throughput_gain, 1.0, 0.05);  // ~2x GPUs, ~no slowdown
}

TEST(PowerCapPlanner, GainShrinksAtTighterCaps)
{
    core::Dataset ds;
    for (int i = 0; i < 30; ++i)
        ds.add(powerRecord(static_cast<JobId>(i), 140.0, 250.0));
    const auto plans = PowerCapPlanner().plan(ds, {100.0, 200.0});
    // At 100 W every job is persistently throttled 1.4x while GPUs
    // triple: gain exists but per-job slowdown is real.
    EXPECT_GT(plans[0].mean_slowdown, plans[1].mean_slowdown);
}

TEST(PowerCapPlanner, WeightedSlowdownUsesGpuHours)
{
    core::Dataset ds;
    ds.add(powerRecord(1, 300.0, 300.0, /*hours=*/10.0));  // heavy, slow
    ds.add(powerRecord(2, 40.0, 60.0, /*hours=*/0.1));     // light, fine
    const auto plans = PowerCapPlanner().plan(ds, {150.0});
    EXPECT_GT(plans[0].weighted_slowdown, plans[0].mean_slowdown);
}

} // namespace
} // namespace aiwc::opportunity
