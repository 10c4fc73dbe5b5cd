#include "aiwc/core/job_record.hh"

#include <algorithm>
#include <cmath>

#include "aiwc/base/logging.hh"

namespace aiwc::core
{

const stats::RunningSummary &
GpuUsageSummary::byResource(Resource r) const
{
    switch (r) {
      case Resource::Sm: return sm;
      case Resource::MemoryBw: return membw;
      case Resource::MemorySize: return memsize;
      case Resource::PcieTx: return pcie_tx;
      case Resource::PcieRx: return pcie_rx;
      case Resource::Power: return power_watts;
    }
    panic("unknown resource");
}

stats::RunningSummary &
GpuUsageSummary::byResource(Resource r)
{
    return const_cast<stats::RunningSummary &>(
        static_cast<const GpuUsageSummary &>(*this).byResource(r));
}

bool
GpuUsageSummary::idle(double sm_threshold) const
{
    return sm.mean() <= sm_threshold && membw.mean() <= sm_threshold;
}

double
JobRecord::meanUtilization(Resource r) const
{
    if (per_gpu.empty())
        return 0.0;
    double acc = 0.0;
    for (const auto &g : per_gpu)
        acc += g.byResource(r).mean();
    return acc / static_cast<double>(per_gpu.size());
}

double
JobRecord::maxUtilization(Resource r) const
{
    double m = 0.0;
    for (const auto &g : per_gpu)
        m = std::max(m, g.byResource(r).max());
    return m;
}

double
JobRecord::meanPowerWatts() const
{
    return meanUtilization(Resource::Power);
}

double
JobRecord::maxPowerWatts() const
{
    return maxUtilization(Resource::Power);
}

int
JobRecord::idleGpuCount(double sm_threshold) const
{
    int n = 0;
    for (const auto &g : per_gpu)
        if (g.idle(sm_threshold))
            ++n;
    return n;
}

namespace
{

void
writeIntervals(ByteWriter &w, const std::vector<double> &intervals)
{
    w.u32(static_cast<std::uint32_t>(intervals.size()));
    for (const double v : intervals)
        w.f64(v);
}

bool
readIntervals(ByteReader &r, std::vector<double> &out)
{
    const std::uint32_t n = r.u32();
    if (!r.ok() || r.remaining() < static_cast<std::size_t>(n) * 8)
        return false;
    out.resize(n);
    for (double &v : out) {
        v = r.f64();
        if (!std::isfinite(v) || v < 0.0)
            return false;
    }
    return r.ok();
}

} // namespace

void
writePhaseStats(ByteWriter &w, const PhaseStats &phases)
{
    w.f64(phases.active_fraction);
    w.f64(phases.active_sm_cov);
    w.f64(phases.active_membw_cov);
    w.f64(phases.active_memsize_cov);
    writeIntervals(w, phases.active_intervals);
    writeIntervals(w, phases.idle_intervals);
}

const char *
readPhaseStats(ByteReader &r, PhaseStats &out)
{
    out.active_fraction = r.f64();
    out.active_sm_cov = r.f64();
    out.active_membw_cov = r.f64();
    out.active_memsize_cov = r.f64();
    if (!r.ok() || !std::isfinite(out.active_fraction) ||
        out.active_fraction < 0.0 || out.active_fraction > 1.0)
        return "invalid phase fraction";
    if (!readIntervals(r, out.active_intervals) ||
        !readIntervals(r, out.idle_intervals))
        return "invalid phase intervals";
    return nullptr;
}

} // namespace aiwc::core
