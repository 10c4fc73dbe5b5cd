/**
 * @file
 * The multi-tier fleet recommendation of Sec. VIII: instead of buying
 * only the fastest GPUs, mix in cheaper/slower ones and steer
 * exploratory, development, and IDE jobs to them. This planner
 * quantifies the trade: GPU-hours shifted, slowdown of shifted jobs
 * (small — they barely use the GPU), and fleet cost saving at equal
 * delivered capacity.
 */

#pragma once

#include <array>

#include "aiwc/core/lifecycle_classifier.hh"

namespace aiwc::opportunity
{

/** Outcome of a two-tier fleet plan. */
struct MultiTierPlan
{
    /** Relative speed and cost of the economy tier vs. the premium. */
    double economy_speed = 0.5;
    double economy_cost = 0.35;

    /** Fraction of GPU-hours steered to the economy tier. */
    double shifted_hour_fraction = 0.0;
    /** Mean slowdown of shifted jobs (Amdahl over their GPU-bound
     *  share; near 1 for idle-heavy development/IDE jobs). */
    double mean_shifted_slowdown = 1.0;
    /** Fleet cost saving at equal delivered capacity (fraction). */
    double cost_saving_fraction = 0.0;
    /** Jobs shifted per class (diagnostics). */
    std::array<double, num_lifecycles> shifted_jobs{};
};

/** Plans the two-tier split using the lifecycle classifier. */
class MultiTierPlanner
{
  public:
    /**
     * @param economy_speed throughput of the cheap tier vs. premium.
     * @param economy_cost cost of the cheap tier vs. premium.
     */
    MultiTierPlanner(double economy_speed = 0.5,
                     double economy_cost = 0.35)
        : economy_speed_(economy_speed), economy_cost_(economy_cost) {}

    /**
     * Slowdown a job would see on the economy tier, from its mean SM
     * utilization (JobRecord::meanUtilization(Resource::Sm)).
     */
    double jobSlowdown(double sm_mean) const;

    /** True when a job that ended in `terminal` should move tiers. */
    bool shouldShift(TerminalState terminal) const;

    MultiTierPlan plan(const core::Dataset &dataset) const;

  private:
    double economy_speed_;
    double economy_cost_;
    core::LifecycleClassifier classifier_;
};

} // namespace aiwc::opportunity

