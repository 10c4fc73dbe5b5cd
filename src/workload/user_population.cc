#include "aiwc/workload/user_population.hh"

#include <algorithm>
#include <cmath>

#include "aiwc/base/logging.hh"
#include "aiwc/dist/distributions.hh"

namespace aiwc::workload
{

int
UserProfile::maxBucket() const
{
    switch (tier) {
      case GpuTier::SingleOnly: return 0;
      case GpuTier::TwoGpu: return 1;
      case GpuTier::Medium: return 3;  // buckets {2, 4, 8}
      case GpuTier::Large: return 5;   // up to 32 GPUs
    }
    return 0;
}

UserPopulation::UserPopulation(const CalibrationProfile &profile, Rng &rng,
                               int num_users)
{
    const UserParams &up = profile.users;
    const int n = num_users > 0 ? num_users : up.num_users;
    AIWC_ASSERT(n >= 1, "population needs at least one user");
    users_.reserve(static_cast<std::size_t>(n));
    cumulative_weight_.reserve(static_cast<std::size_t>(n));

    // First pass: raw draws.
    double sum_log_w = 0.0;
    for (int i = 0; i < n; ++i) {
        UserProfile u;
        u.id = static_cast<UserId>(i);

        // Two-component activity (heavy cohort + light long-tail).
        const bool heavy = rng.chance(up.heavy_user_fraction);
        const double median =
            heavy ? up.heavy_median_jobs : up.light_median_jobs;
        const double sigma = heavy ? up.heavy_sigma : up.light_sigma;
        u.activity_weight = median * std::exp(sigma * rng.gaussian());
        sum_log_w += std::log(u.activity_weight);

        // Per-user lifecycle mix ~ Dirichlet around the cohort centre.
        // Small users scatter across the simplex (Fig. 17: many users
        // are effectively single-class); busy users run balanced
        // workflows — concentration grows with activity, which keeps
        // the fleet mix (dominated by busy users) stable.
        const auto &centre =
            heavy ? up.heavy_class_mix : up.light_class_mix;
        const double concentration =
            up.class_mix_concentration *
            (1.0 + u.activity_weight / up.activity_mix_scale);
        double mix_total = 0.0;
        for (int c = 0; c < num_lifecycles; ++c) {
            const double alpha = concentration *
                                 centre[static_cast<std::size_t>(c)] *
                                 static_cast<double>(num_lifecycles);
            const double g = dist::sampleGamma(rng, std::max(alpha, 0.02));
            u.class_mix[static_cast<std::size_t>(c)] = g;
            mix_total += g;
        }
        for (auto &m : u.class_mix)
            m /= mix_total;

        // GPU tier: quotas from Sec. V, biased toward the heavy
        // cohort (production teams hold the big allocations and are
        // almost never single-GPU-only). The light quotas are solved
        // so the population totals still match the paper.
        const double hf = up.heavy_user_fraction;
        const double bias = up.heavy_tier_bias;
        const double light_factor =
            (1.0 - hf * bias) / (1.0 - hf);  // keeps the mean quota
        const double large_quota =
            up.large_tier_users * (heavy ? bias : light_factor);
        const double medium_quota =
            up.medium_tier_users * (heavy ? bias : light_factor);
        const double single_only_quota =
            up.single_gpu_only_users *
            (heavy ? up.heavy_single_only_factor : 1.0);
        const double roll = rng.uniform();
        if (roll < large_quota) {
            u.tier = GpuTier::Large;
        } else if (roll < large_quota + medium_quota) {
            u.tier = GpuTier::Medium;
        } else if (roll < 1.0 - single_only_quota) {
            u.tier = GpuTier::TwoGpu;
        } else {
            u.tier = GpuTier::SingleOnly;
        }
        if (u.tier != GpuTier::SingleOnly) {
            const double kappa =
                up.multi_gpu_prob_kappa *
                (heavy ? up.heavy_multi_kappa_factor : 1.0);
            const dist::Beta beta =
                dist::Beta::fromMean(up.multi_gpu_prob_mean, kappa);
            u.multi_gpu_prob = beta.sample(rng);
        }

        // Memory-behaviour traits (Fig. 4a tails vs. Fig. 10 medians):
        // a minority of users run bandwidth-bound or near-capacity
        // codes routinely; everyone else only incidentally. Heavy
        // users carry damped trait odds (see UserParams).
        const double membw_trait_prob =
            up.membw_intensive_users *
            (heavy ? up.heavy_membw_trait_factor : 1.0);
        const double large_trait_prob =
            up.large_model_users *
            (heavy ? up.heavy_large_model_factor : 1.0);
        u.membw_intensive_prob = rng.chance(membw_trait_prob)
                                     ? up.membw_intensive_job_prob
                                     : up.membw_casual_job_prob;
        u.large_model_prob = rng.chance(large_trait_prob)
                                 ? up.large_model_job_prob
                                 : up.large_model_casual_prob;
        heavy_.push_back(heavy);
        users_.push_back(u);
    }

    // Second pass: couple skill and job length to (centred)
    // log-activity, producing the Fig. 12 correlation structure —
    // expert users utilize GPUs better; heavy submitters run shorter
    // sweep-style jobs.
    const double mean_log_w = sum_log_w / static_cast<double>(n);
    double acc = 0.0;
    for (std::size_t i = 0; i < users_.size(); ++i) {
        auto &u = users_[i];
        const double centred = std::log(u.activity_weight) - mean_log_w;
        const double skill = up.skill_slope * centred +
                             up.skill_noise * rng.gaussian();
        u.util_scale = std::exp(skill);
        const double sigma = heavy_[i] ? up.heavy_runtime_scale_sigma
                                       : up.runtime_scale_sigma;
        const double len =
            up.runtime_slope * centred + sigma * rng.gaussian();
        u.runtime_scale = std::exp(len);

        acc += u.activity_weight;
        cumulative_weight_.push_back(acc);
    }

    // Renormalize both scales so their *activity-weighted* geometric
    // mean is exactly 1: the fleet-level (job-weighted) runtime and
    // utilization medians then track the class calibration, and the
    // slope/sigma knobs only shape the per-user structure of
    // Figs. 10-12 — never the fleet marginals of Figs. 3-4.
    double total_w = 0.0, log_rt = 0.0, log_util = 0.0;
    for (const auto &u : users_) {
        total_w += u.activity_weight;
        log_rt += u.activity_weight * std::log(u.runtime_scale);
        log_util += u.activity_weight * std::log(u.util_scale);
    }
    const double rt_norm = std::exp(log_rt / total_w);
    const double util_norm = std::exp(log_util / total_w);
    for (auto &u : users_) {
        u.runtime_scale =
            std::clamp(u.runtime_scale / rt_norm, 0.05, 20.0);
        u.util_scale = std::clamp(u.util_scale / util_norm, 0.4, 2.2);
    }
}

const UserProfile &
UserPopulation::sampleByActivity(Rng &rng) const
{
    const double u = rng.uniform() * cumulative_weight_.back();
    const auto it = std::upper_bound(cumulative_weight_.begin(),
                                     cumulative_weight_.end(), u);
    const auto idx = std::min<std::size_t>(
        static_cast<std::size_t>(it - cumulative_weight_.begin()),
        users_.size() - 1);
    return users_[idx];
}

} // namespace aiwc::workload
