#include "aiwc/stream/power.hh"

#include "aiwc/core/dataset.hh"

namespace aiwc::stream
{

void
StreamingPower::observe(const core::JobRecord &rec)
{
    if (!rec.isGpuJob() || rec.runTime() < core::min_gpu_runtime)
        return;
    avg_watts_.add(rec.meanPowerWatts());
    max_watts_.add(rec.maxPowerWatts());
}

void
StreamingPower::merge(const StreamingPower &other)
{
    avg_watts_.merge(other.avg_watts_);
    max_watts_.merge(other.max_watts_);
}

std::vector<core::PowerCapImpact>
StreamingPower::capImpacts() const
{
    std::vector<core::PowerCapImpact> out;
    if (avg_watts_.count() == 0)
        return out;
    out.reserve(power_caps.size());
    for (double cap : power_caps) {
        core::PowerCapImpact impact;
        impact.cap_watts = cap;
        impact.unimpacted = max_watts_.cdf(cap);
        impact.impacted_by_max = 1.0 - max_watts_.cdf(cap);
        impact.impacted_by_avg = 1.0 - avg_watts_.cdf(cap);
        out.push_back(impact);
    }
    return out;
}

std::size_t
StreamingPower::bytes() const
{
    return avg_watts_.bytes() + max_watts_.bytes();
}

} // namespace aiwc::stream
