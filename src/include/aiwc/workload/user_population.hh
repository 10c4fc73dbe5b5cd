/**
 * @file
 * The synthetic user population (Sec. IV): who submits, how much, and
 * with what personal style. Users differ in activity (Pareto-like
 * concentration: top 5% of users submit 44% of jobs), lifecycle mix
 * (Fig. 17), skill (expert users drive utilization up, Fig. 12),
 * preferred job lengths (Fig. 10/11), and multi-GPU reach (Sec. V).
 */

#pragma once

#include <array>
#include <span>
#include <vector>

#include "aiwc/common/rng.hh"
#include "aiwc/workload/calibration.hh"

namespace aiwc::workload
{

/** How far up the GPU-count buckets a user's jobs may reach. */
enum class GpuTier : std::uint8_t
{
    SingleOnly,  //!< never runs multi-GPU (~40% of users)
    TwoGpu,      //!< up to 2 GPUs (~47%)
    Medium,      //!< up to 8 GPUs (~7.8%)
    Large,       //!< up to 32 GPUs (~5.2%)
};

/** One user's persistent behavioural parameters. */
struct UserProfile
{
    UserId id = invalid_id;
    /** Relative submission intensity; jobs ~ weight / sum(weights). */
    double activity_weight = 1.0;
    /** Per-user lifecycle mix (Dirichlet around the global mix). */
    std::array<double, num_lifecycles> class_mix{};
    /** Multiplier on class utilization means (expertise). */
    double util_scale = 1.0;
    /** Multiplier on class runtime medians (personal job length). */
    double runtime_scale = 1.0;
    /** Probability a given job is multi-GPU (0 for SingleOnly). */
    double multi_gpu_prob = 0.0;
    GpuTier tier = GpuTier::SingleOnly;
    /** Probability one of this user's jobs is memory-BW-bound. */
    double membw_intensive_prob = 0.0;
    /** Probability one of this user's jobs nearly fills GPU memory. */
    double large_model_prob = 0.0;

    /** Largest GPU-count bucket index this user may draw. */
    int maxBucket() const;
};

/** Builds and owns the user roster; supports activity-weighted draws. */
class UserPopulation
{
  public:
    /**
     * Sample a roster from the profile.
     * @param num_users override; <= 0 means profile.users.num_users.
     */
    UserPopulation(const CalibrationProfile &profile, Rng &rng,
                   int num_users = 0);

    std::span<const UserProfile> users() const { return users_; }
    std::size_t size() const { return users_.size(); }

    /** Draw a user with probability proportional to activity. */
    const UserProfile &sampleByActivity(Rng &rng) const;

    /** Whether user id belongs to the heavy cohort. */
    bool isHeavy(UserId id) const { return heavy_[id]; }

  private:
    std::vector<UserProfile> users_;
    std::vector<bool> heavy_;
    std::vector<double> cumulative_weight_;
};

} // namespace aiwc::workload

