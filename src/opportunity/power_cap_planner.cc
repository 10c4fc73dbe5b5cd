#include "aiwc/opportunity/power_cap_planner.hh"

#include <algorithm>

#include "aiwc/base/logging.hh"
#include "aiwc/common/parallel.hh"

namespace aiwc::opportunity
{

double
PowerCapPlanner::jobSlowdown(double avg_watts, double max_watts,
                             double cap_watts) const
{
    AIWC_ASSERT(cap_watts > 0.0, "cap must be positive");
    if (avg_watts > cap_watts) {
        // Persistent throttling: performance tracks delivered power.
        return avg_watts / cap_watts;
    }
    if (max_watts > cap_watts) {
        // Burst-only throttling: penalize by the overshoot depth.
        const double overshoot = (max_watts - cap_watts) /
                                 std::max(tdp_watts_ - cap_watts, 1.0);
        return 1.0 + burst_penalty_ * std::min(overshoot, 1.0);
    }
    return 1.0;
}

std::vector<PowerCapPlan>
PowerCapPlanner::plan(const core::Dataset &dataset,
                      const std::vector<double> &caps) const
{
    // meanPowerWatts/maxPowerWatts are the Power utilization columns.
    const core::ColumnTable &cols = dataset.columns();
    const std::span<const double> avg = cols.meanUtil(Resource::Power);
    const std::span<const double> mx = cols.maxUtil(Resource::Power);
    const std::span<const double> hours = cols.gpuHours();
    const auto idx = dataset.gpuJobIndices();

    // Every job's slowdown under every cap, one slot each; the sums
    // below then fold them serially in record order.
    const std::size_t nc = caps.size();
    std::vector<double> slow(idx.size() * nc);
    parallelFor(globalPool(), idx.size(), [&](std::size_t k) {
        const std::uint32_t r = idx[k];
        for (std::size_t c = 0; c < nc; ++c)
            slow[k * nc + c] = jobSlowdown(avg[r], mx[r], caps[c]);
    });

    std::vector<PowerCapPlan> plans;
    for (std::size_t c = 0; c < nc; ++c) {
        const double cap = caps[c];
        PowerCapPlan p;
        p.cap_watts = cap;
        p.gpu_multiplier = tdp_watts_ / cap;
        if (idx.empty()) {
            plans.push_back(p);
            continue;
        }
        double unimpacted = 0.0, by_avg = 0.0;
        double slow_sum = 0.0, w_slow_sum = 0.0, w_sum = 0.0;
        for (std::size_t k = 0; k < idx.size(); ++k) {
            const std::uint32_t r = idx[k];
            const double s = slow[k * nc + c];
            slow_sum += s;
            const double w = std::max(hours[r], 1e-9);
            w_slow_sum += s * w;
            w_sum += w;
            if (mx[r] <= cap)
                unimpacted += 1.0;
            if (avg[r] > cap)
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
