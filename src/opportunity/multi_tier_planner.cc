#include "aiwc/opportunity/multi_tier_planner.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "aiwc/base/logging.hh"
#include "aiwc/common/parallel.hh"

namespace aiwc::opportunity
{

double
MultiTierPlanner::jobSlowdown(double sm_mean) const
{
    // Amdahl over the GPU-bound share: only the part of wall time the
    // job actually leans on the GPU stretches by 1/speed. Mean SM
    // utilization is our proxy for that share.
    const double gpu_bound = std::clamp(sm_mean, 0.0, 1.0);
    return 1.0 + gpu_bound * (1.0 / economy_speed_ - 1.0);
}

bool
MultiTierPlanner::shouldShift(TerminalState terminal) const
{
    const Lifecycle c = classifier_.classify(terminal);
    return c == Lifecycle::Exploratory || c == Lifecycle::Development ||
           c == Lifecycle::Ide;
}

MultiTierPlan
MultiTierPlanner::plan(const core::Dataset &dataset) const
{
    AIWC_ASSERT(economy_speed_ > 0.0 && economy_speed_ <= 1.0,
                "economy speed must be in (0, 1]");
    MultiTierPlan out;
    out.economy_speed = economy_speed_;
    out.economy_cost = economy_cost_;

    // Per job, one slot: its economy-tier slowdown when it shifts, NaN
    // when it stays. The sums then fold serially in record order.
    const core::ColumnTable &cols = dataset.columns();
    const std::span<const double> gpu_hours = cols.gpuHours();
    const std::span<const double> sm = cols.meanUtil(Resource::Sm);
    const std::span<const std::uint8_t> terminal = cols.terminals();
    const auto idx = dataset.gpuJobIndices();
    std::vector<double> slow(idx.size());
    parallelFor(globalPool(), idx.size(), [&](std::size_t k) {
        const std::uint32_t i = idx[k];
        slow[k] = shouldShift(static_cast<TerminalState>(terminal[i]))
                      ? jobSlowdown(sm[i])
                      : std::numeric_limits<double>::quiet_NaN();
    });

    double total_hours = 0.0, shifted_hours = 0.0;
    double slow_sum = 0.0;
    std::size_t shifted = 0;
    for (std::size_t k = 0; k < idx.size(); ++k) {
        const std::uint32_t i = idx[k];
        const double hours = gpu_hours[i];
        total_hours += hours;
        if (std::isnan(slow[k]))
            continue;
        shifted_hours += hours;
        slow_sum += slow[k];
        ++shifted;
        out.shifted_jobs[static_cast<std::size_t>(classifier_.classify(
            static_cast<TerminalState>(terminal[i])))] += 1.0;
    }
    if (total_hours <= 0.0)
        return out;

    out.shifted_hour_fraction = shifted_hours / total_hours;
    out.mean_shifted_slowdown =
        shifted > 0 ? slow_sum / static_cast<double>(shifted) : 1.0;

    // Equal delivered capacity: premium hours stay premium; shifted
    // hours need (slowdown x hours) of economy capacity, at the
    // economy price. Baseline: everything premium at unit price.
    const double premium_hours = total_hours - shifted_hours;
    const double economy_capacity =
        shifted_hours * out.mean_shifted_slowdown;
    const double tiered_cost =
        premium_hours + economy_capacity * economy_cost_;
    out.cost_saving_fraction = 1.0 - tiered_cost / total_hours;
    return out;
}

} // namespace aiwc::opportunity
