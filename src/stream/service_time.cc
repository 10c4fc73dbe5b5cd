#include "aiwc/stream/service_time.hh"

#include "aiwc/core/dataset.hh"

namespace aiwc::stream
{

void
StreamingServiceTime::observe(const core::JobRecord &rec)
{
    // Same transforms as core::ServiceTimeAnalyzer's foldJob.
    const double runtime_min = rec.runTime() / 60.0;
    if (rec.isGpuJob()) {
        if (rec.runTime() < core::min_gpu_runtime)
            return;
        gpu_runtime_min_.add(runtime_min);
        gpu_wait_s_.add(rec.waitTime());
    } else {
        cpu_runtime_min_.add(runtime_min);
    }
}

void
StreamingServiceTime::merge(const StreamingServiceTime &other)
{
    gpu_runtime_min_.merge(other.gpu_runtime_min_);
    cpu_runtime_min_.merge(other.cpu_runtime_min_);
    gpu_wait_s_.merge(other.gpu_wait_s_);
}

std::size_t
StreamingServiceTime::bytes() const
{
    return gpu_runtime_min_.bytes() + cpu_runtime_min_.bytes() +
           gpu_wait_s_.bytes();
}

} // namespace aiwc::stream
