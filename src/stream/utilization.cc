#include "aiwc/stream/utilization.hh"

#include "aiwc/base/logging.hh"
#include "aiwc/core/dataset.hh"

namespace aiwc::stream
{

namespace
{

/** Axis slot of a sketched resource; the others have no sketch. */
std::size_t
axisOf(Resource r)
{
    switch (r) {
      case Resource::Sm: return 0;
      case Resource::MemoryBw: return 1;
      case Resource::MemorySize: return 2;
      case Resource::PcieTx:
      case Resource::PcieRx:
      case Resource::Power: break;
    }
    panic("no stream utilization sketch for ", toString(r),
          " (power is StreamingPower's)");
}

constexpr std::array<Resource, 3> axes = {
    Resource::Sm, Resource::MemoryBw, Resource::MemorySize};

} // namespace

void
StreamingUtilization::observe(const core::JobRecord &rec)
{
    if (!rec.isGpuJob() || rec.runTime() < core::min_gpu_runtime)
        return;
    for (Resource r : axes)
        pct_[axisOf(r)].add(100.0 * rec.meanUtilization(r));
}

void
StreamingUtilization::merge(const StreamingUtilization &other)
{
    for (std::size_t i = 0; i < num_axes; ++i)
        pct_[i].merge(other.pct_[i]);
}

const sketch::KllSketch &
StreamingUtilization::byResource(Resource r) const
{
    return pct_[axisOf(r)];
}

std::size_t
StreamingUtilization::bytes() const
{
    std::size_t total = 0;
    for (const auto &s : pct_)
        total += s.bytes();
    return total;
}

} // namespace aiwc::stream
