/**
 * @file
 * The GPU space-sharing opportunity of Secs. III and VIII: most jobs
 * leave most of the GPU idle, so non-contending jobs could share one
 * GPU. The advisor pairs temporally-overlapping jobs whose combined
 * demand fits, using an interference model to bound the mutual
 * slowdown, and reports how many GPU-hours sharing would reclaim.
 */

#pragma once

#include <vector>

#include "aiwc/core/dataset.hh"
#include "aiwc/stats/ecdf.hh"

namespace aiwc::opportunity
{

/** The mean utilizations (fractions) the interference model reads. */
struct GpuDemand
{
    double sm = 0.0;
    double membw = 0.0;
    double memsize = 0.0;

    /** The job's meanUtilization of each resource. */
    static GpuDemand of(const core::JobRecord &job);
};

/** Interference prediction for two jobs sharing one GPU. */
class InterferenceModel
{
  public:
    /**
     * @param sm_alpha slowdown per unit of SM over-subscription.
     * @param membw_alpha slowdown per unit of memory-BW contention.
     * @param memsize_limit combined memory-size fraction that must fit.
     */
    InterferenceModel(double sm_alpha = 2.0, double membw_alpha = 1.5,
                      double memsize_limit = 0.95)
        : sm_alpha_(sm_alpha), membw_alpha_(membw_alpha),
          memsize_limit_(memsize_limit) {}

    /** Hard feasibility: both working sets must fit in GPU memory. */
    bool fits(const GpuDemand &a, const GpuDemand &b) const;
    bool fits(const core::JobRecord &a, const core::JobRecord &b) const;

    /**
     * Predicted mutual slowdown factor (>= 1) when a and b share a
     * GPU: contention appears only where combined demand exceeds
     * capacity, so complementary (compute + memory) pairs co-run
     * nearly free — the non-contending sharing the paper calls for.
     */
    double pairSlowdown(const GpuDemand &a, const GpuDemand &b) const;
    double pairSlowdown(const core::JobRecord &a,
                        const core::JobRecord &b) const;

  private:
    double sm_alpha_;
    double membw_alpha_;
    double memsize_limit_;
};

/** Fleet-level outcome of greedy co-location. */
struct ColocationReport
{
    std::size_t gpu_jobs = 0;
    /** Share of single-GPU jobs that found a partner. */
    double paired_job_fraction = 0.0;
    /** GPU-hours reclaimed (overlap time of paired jobs) / total. */
    double gpu_hours_saved_fraction = 0.0;
    /** Mean predicted slowdown across paired jobs. */
    double mean_pair_slowdown = 1.0;
    /** Distribution of predicted pair slowdowns. */
    stats::EmpiricalCdf pair_slowdown;
};

/**
 * Greedy online matcher: replays jobs in start order and pairs each
 * arriving single-GPU job with a compatible already-running one
 * (feasible, predicted slowdown under the threshold).
 */
class ColocationAdvisor
{
  public:
    ColocationAdvisor(InterferenceModel model = {},
                      double max_slowdown = 1.10)
        : model_(model), max_slowdown_(max_slowdown) {}

    ColocationReport analyze(const core::Dataset &dataset) const;

    const InterferenceModel &model() const { return model_; }

  private:
    InterferenceModel model_;
    double max_slowdown_;
};

} // namespace aiwc::opportunity

