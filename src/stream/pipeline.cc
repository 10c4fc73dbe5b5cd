#include "aiwc/stream/pipeline.hh"

#include <algorithm>

#include "aiwc/base/check.hh"
#include "aiwc/common/parallel.hh"
#include "aiwc/core/dataset.hh"
#include "aiwc/obs/metrics.hh"
#include "aiwc/obs/trace.hh"

namespace aiwc::stream
{

namespace
{

obs::Counter &
rowsCounter()
{
    static obs::Counter &c =
        obs::MetricsRegistry::global().counter("aiwc.stream.rows_ingested");
    return c;
}

obs::Counter &
mergesCounter()
{
    static obs::Counter &c =
        obs::MetricsRegistry::global().counter("aiwc.stream.merges");
    return c;
}

obs::Counter &
snapshotsCounter()
{
    static obs::Counter &c =
        obs::MetricsRegistry::global().counter("aiwc.stream.snapshots");
    return c;
}

obs::Histogram &
snapshotNsHistogram()
{
    static obs::Histogram &h =
        obs::MetricsRegistry::global().histogram("aiwc.stream.snapshot_ns");
    return h;
}

obs::Gauge &
sketchBytesGauge()
{
    static obs::Gauge &g =
        obs::MetricsRegistry::global().gauge("aiwc.sketch.bytes");
    return g;
}

} // namespace

// The delegating copy constructor pins @p other with a temporary
// MutexLock that lives until the target constructor returns; the
// analysis cannot track a scoped capability held by a temporary, so
// the handoff is exempted and the REQUIRES contract sits on the
// lock-token constructor instead.
StreamPipeline::StreamPipeline(const StreamPipeline &other)
    AIWC_NO_THREAD_SAFETY_ANALYSIS
    : StreamPipeline(other, MutexLock(other.mutex_))
{
}

StreamPipeline::StreamPipeline(const StreamPipeline &other,
                               const MutexLock &)
    : rows_(other.rows_),
      gpu_jobs_(other.gpu_jobs_), cpu_jobs_(other.cpu_jobs_),
      service_time_(other.service_time_),
      utilization_(other.utilization_), power_(other.power_),
      user_behavior_(other.user_behavior_)
{
}

void
StreamPipeline::ingest(const core::JobRecord &rec)
{
    MutexLock lock(mutex_);
    ++rows_;
    rowsCounter().add(1);
    if (!rec.isGpuJob())
        ++cpu_jobs_;
    else if (rec.runTime() >= core::min_gpu_runtime)
        ++gpu_jobs_;
    service_time_.observe(rec);
    utilization_.observe(rec);
    power_.observe(rec);
    user_behavior_.observe(rec);
}

void
StreamPipeline::merge(const StreamPipeline &other)
{
    AIWC_CHECK(this != &other, "pipeline cannot merge with itself");
    MutexLock2 lock(mutex_, other.mutex_);
    mergesCounter().add(1);
    rows_ += other.rows_;
    gpu_jobs_ += other.gpu_jobs_;
    cpu_jobs_ += other.cpu_jobs_;
    service_time_.merge(other.service_time_);
    utilization_.merge(other.utilization_);
    power_.merge(other.power_);
    user_behavior_.merge(other.user_behavior_);
}

SnapshotReport
StreamPipeline::snapshot() const
{
    obs::ScopedTimer timer(snapshotNsHistogram(), "stream.snapshot");
    MutexLock lock(mutex_);
    snapshotsCounter().add(1);
    sketchBytesGauge().set(
        static_cast<std::int64_t>(sketchBytesLocked()));

    SnapshotReport report;
    report.rows = rows_;
    report.gpu_jobs = gpu_jobs_;
    report.cpu_jobs = cpu_jobs_;
    report.sketch_bytes = sketchBytesLocked();

    report.gpu_runtime_min = renderCdf(service_time_.gpuRuntimeMin());
    report.cpu_runtime_min = renderCdf(service_time_.cpuRuntimeMin());
    report.gpu_wait_s = renderCdf(service_time_.gpuWaitS());
    report.sm_pct = renderCdf(utilization_.byResource(Resource::Sm));
    report.membw_pct =
        renderCdf(utilization_.byResource(Resource::MemoryBw));
    report.memsize_pct =
        renderCdf(utilization_.byResource(Resource::MemorySize));
    report.avg_watts = renderCdf(power_.avgWatts());
    report.max_watts = renderCdf(power_.maxWatts());
    report.caps = power_.capImpacts();

    report.epsilon = std::max(
        {service_time_.gpuRuntimeMin().epsilonBound(),
         service_time_.cpuRuntimeMin().epsilonBound(),
         service_time_.gpuWaitS().epsilonBound(),
         utilization_.byResource(Resource::Sm).epsilonBound(),
         power_.avgWatts().epsilonBound(),
         power_.maxWatts().epsilonBound()});

    report.users = user_behavior_.userCount();
    auto users = user_behavior_.aggregates();
    report.user_avg_runtime_min =
        stats::EmpiricalCdf(std::move(users.avg_runtime_min));
    report.user_avg_sm_pct = stats::EmpiricalCdf(std::move(users.avg_sm_pct));
    report.top5_job_share = users.top5_job_share;
    report.top20_job_share = users.top20_job_share;
    report.median_jobs_per_user = users.median_jobs_per_user;
    report.top_users_by_gpu_hours = user_behavior_.topUsersByGpuHours(
        std::min<std::size_t>(5, heavy_hitter_capacity));
    return report;
}

std::uint64_t
StreamPipeline::rows() const
{
    MutexLock lock(mutex_);
    return rows_;
}

std::size_t
StreamPipeline::sketchBytes() const
{
    MutexLock lock(mutex_);
    return sketchBytesLocked();
}

std::size_t
StreamPipeline::sketchBytesLocked() const
{
    return service_time_.bytes() + utilization_.bytes() +
           power_.bytes() + user_behavior_.bytes();
}

StreamPipeline
ingestParallel(std::span<const core::JobRecord> records)
{
    obs::TraceSpan span("stream.ingest_parallel");
    return parallelReduce(
        globalPool(), records.size(), StreamPipeline(),
        [&](StreamPipeline &acc, std::size_t i) {
            acc.ingest(records[i]);
        },
        [](StreamPipeline &into, StreamPipeline &&from) {
            into.merge(from);
        });
}

} // namespace aiwc::stream
