#include "aiwc/opportunity/power_cap_planner.hh"

#include <algorithm>

#include "aiwc/base/logging.hh"

namespace aiwc::opportunity
{

double
PowerCapPlanner::jobSlowdown(const core::JobRecord &job,
                             double cap_watts) const
{
    AIWC_ASSERT(cap_watts > 0.0, "cap must be positive");
    const double avg = job.meanPowerWatts();
    const double mx = job.maxPowerWatts();
    if (avg > cap_watts) {
        // Persistent throttling: performance tracks delivered power.
        return avg / cap_watts;
    }
    if (mx > cap_watts) {
        // Burst-only throttling: penalize by the overshoot depth.
        const double overshoot =
            (mx - cap_watts) / std::max(tdp_watts_ - cap_watts, 1.0);
        return 1.0 + burst_penalty_ * std::min(overshoot, 1.0);
    }
    return 1.0;
}

std::vector<PowerCapPlan>
PowerCapPlanner::plan(const core::Dataset &dataset,
                      const std::vector<double> &caps) const
{
    std::vector<PowerCapPlan> plans;
    const auto idx = dataset.gpuJobIndices();
    for (double cap : caps) {
        PowerCapPlan p;
        p.cap_watts = cap;
        p.gpu_multiplier = tdp_watts_ / cap;
        if (idx.empty()) {
            plans.push_back(p);
            continue;
        }
        double unimpacted = 0.0, by_avg = 0.0;
        double slow_sum = 0.0, w_slow_sum = 0.0, w_sum = 0.0;
        for (const std::uint32_t i : idx) {
            const core::JobRecord &job = dataset.records()[i];
            const double s = jobSlowdown(job, cap);
            slow_sum += s;
            const double w = std::max(job.gpuHours(), 1e-9);
            w_slow_sum += s * w;
            w_sum += w;
            if (job.maxPowerWatts() <= cap)
                unimpacted += 1.0;
            if (job.meanPowerWatts() > cap)
                by_avg += 1.0;
        }
        const auto n = static_cast<double>(idx.size());
        p.unimpacted = unimpacted / n;
        p.impacted_by_avg = by_avg / n;
        p.mean_slowdown = slow_sum / n;
        p.weighted_slowdown = w_slow_sum / w_sum;
        // More GPUs at the same power, each job slowed: net gain.
        p.throughput_gain = p.gpu_multiplier / p.weighted_slowdown - 1.0;
        plans.push_back(p);
    }
    return plans;
}

} // namespace aiwc::opportunity
