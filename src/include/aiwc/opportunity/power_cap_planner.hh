/**
 * @file
 * The power-capping / over-provisioning what-if of Sec. III: the fleet
 * rarely draws its provisioned power, so capping GPUs frees budget to
 * install more of them. This planner quantifies, per cap level, how
 * many extra GPUs the same budget supports and what slowdown the
 * capped jobs would see.
 */

#pragma once

#include <vector>

#include "aiwc/core/dataset.hh"

namespace aiwc::opportunity
{

/** Outcome of one cap level. */
struct PowerCapPlan
{
    double cap_watts = 0.0;
    /** GPUs supportable per original GPU of power budget (TDP/cap). */
    double gpu_multiplier = 0.0;
    /** Fraction of jobs never reaching the cap (unimpacted). */
    double unimpacted = 0.0;
    /** Fraction throttled persistently (average draw above cap). */
    double impacted_by_avg = 0.0;
    /** Mean slowdown across jobs under this cap (>= 1). */
    double mean_slowdown = 1.0;
    /** GPU-hour-weighted mean slowdown. */
    double weighted_slowdown = 1.0;
    /** Net fleet throughput gain: more GPUs vs. slower jobs. */
    double throughput_gain = 0.0;
};

/**
 * Evaluates cap levels against the measured power distribution.
 *
 * Slowdown model: a job whose *average* draw exceeds the cap is
 * compute-bound against the cap and slows by avg/cap; a job whose
 * max exceeds the cap but average does not is throttled only during
 * bursts, modelled as a mild penalty proportional to how far the
 * bursts overshoot.
 */
class PowerCapPlanner
{
  public:
    explicit PowerCapPlanner(double tdp_watts = 300.0,
                             double burst_penalty = 0.15)
        : tdp_watts_(tdp_watts), burst_penalty_(burst_penalty) {}

    /**
     * Slowdown under a cap of one job with this average and max power
     * draw (JobRecord::meanPowerWatts and maxPowerWatts).
     */
    double jobSlowdown(double avg_watts, double max_watts,
                       double cap_watts) const;

    /** Evaluate a list of cap levels over the dataset. */
    std::vector<PowerCapPlan>
    plan(const core::Dataset &dataset,
         const std::vector<double> &caps = {150.0, 200.0, 250.0}) const;

  private:
    double tdp_watts_;
    double burst_penalty_;
};

} // namespace aiwc::opportunity

