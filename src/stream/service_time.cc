#include "aiwc/stream/service_time.hh"

#include "aiwc/core/dataset.hh"

namespace aiwc::stream
{

void
StreamingServiceTime::observe(const core::JobRecord &rec)
{
    // Same transforms as core::ServiceTimeAnalyzer's foldJob.
    const double runtime_min = rec.runTime() / 60.0;
    const double wait_s = rec.waitTime();
    const double service = rec.serviceTime();
    const double wait_pct =
        service > 0.0 ? 100.0 * wait_s / service : 0.0;
    if (rec.isGpuJob()) {
        if (rec.runTime() < core::min_gpu_runtime)
            return;
        gpu_runtime_min_.add(runtime_min);
        gpu_wait_s_.add(wait_s);
        gpu_wait_pct_.add(wait_pct);
    } else {
        cpu_runtime_min_.add(runtime_min);
        cpu_wait_s_.add(wait_s);
        cpu_wait_pct_.add(wait_pct);
    }
}

void
StreamingServiceTime::merge(const StreamingServiceTime &other)
{
    gpu_runtime_min_.merge(other.gpu_runtime_min_);
    cpu_runtime_min_.merge(other.cpu_runtime_min_);
    gpu_wait_s_.merge(other.gpu_wait_s_);
    cpu_wait_s_.merge(other.cpu_wait_s_);
    gpu_wait_pct_.merge(other.gpu_wait_pct_);
    cpu_wait_pct_.merge(other.cpu_wait_pct_);
}

std::size_t
StreamingServiceTime::bytes() const
{
    return gpu_runtime_min_.bytes() + cpu_runtime_min_.bytes() +
           gpu_wait_s_.bytes() + cpu_wait_s_.bytes() +
           gpu_wait_pct_.bytes() + cpu_wait_pct_.bytes();
}

} // namespace aiwc::stream
