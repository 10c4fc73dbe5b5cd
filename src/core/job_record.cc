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
writeRawState(ByteWriter &w, const stats::RunningSummary &s)
{
    const stats::RunningSummary::RawState state = s.rawState();
    w.u64(state.count);
    w.f64(state.min);
    w.f64(state.max);
    w.f64(state.sum);
    w.f64(state.sum_sq);
}

bool
readRawState(ByteReader &r, stats::RunningSummary &out)
{
    stats::RunningSummary::RawState state;
    state.count = static_cast<std::size_t>(r.u64());
    state.min = r.f64();
    state.max = r.f64();
    state.sum = r.f64();
    state.sum_sq = r.f64();
    if (!r.ok())
        return false;
    if (state.count == 0) {
        // An empty summary stores all-zero accumulators (NaN fails
        // these comparisons, which is the point).
        if (!(state.min == 0.0 && state.max == 0.0 &&
              state.sum == 0.0 && state.sum_sq == 0.0))
            return false;
    } else if (!std::isfinite(state.min) || !std::isfinite(state.max) ||
               !std::isfinite(state.sum) ||
               !std::isfinite(state.sum_sq) || state.min > state.max) {
        return false;
    }
    out = stats::RunningSummary::fromRawState(state);
    return true;
}

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
writeGpuSummary(ByteWriter &w, const GpuUsageSummary &gpu)
{
    for (int i = 0; i < num_resources; ++i)
        writeRawState(w, gpu.byResource(static_cast<Resource>(i)));
}

bool
readGpuSummary(ByteReader &r, GpuUsageSummary &out)
{
    for (int i = 0; i < num_resources; ++i)
        if (!readRawState(r, out.byResource(static_cast<Resource>(i))))
            return false;
    return true;
}

const char *
checkDecodedFields(const JobRecord &rec, std::uint8_t has_timeseries_byte,
                   std::uint64_t gpu_blocks)
{
    if (static_cast<int>(rec.interface) >= num_interfaces ||
        static_cast<int>(rec.terminal) >= num_terminal_states ||
        static_cast<int>(rec.true_class) >= num_lifecycles ||
        has_timeseries_byte > 1)
        return "enum out of range";
    if (!std::isfinite(rec.submit_time) || !std::isfinite(rec.start_time) ||
        !std::isfinite(rec.end_time) || !std::isfinite(rec.walltime_limit) ||
        !std::isfinite(rec.ram_gb))
        return "non-finite time or ram_gb";
    if (rec.gpus < 0 ||
        static_cast<std::uint32_t>(rec.gpus) > max_gpus_per_job ||
        gpu_blocks > max_gpus_per_job)
        return "implausible gpu count";
    if (rec.cpu_slots < 0)  // an int cannot exceed max_cpu_slots
        return "cpu_slots out of range";
    return nullptr;
}

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
