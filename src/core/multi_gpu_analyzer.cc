#include "aiwc/core/multi_gpu_analyzer.hh"

#include <algorithm>
#include <cmath>
#include <span>

#include "aiwc/common/parallel.hh"
#include "aiwc/obs/trace.hh"
#include "aiwc/stats/descriptive.hh"

namespace aiwc::core
{

const char *
sizeBucketName(int bucket)
{
    switch (bucket) {
      case 0: return "1 GPU";
      case 1: return "2 GPUs";
      case 2: return "3-8 GPUs";
      case 3: return ">=9 GPUs";
    }
    return "?";
}

int
sizeBucketOf(int gpus)
{
    if (gpus <= 1)
        return 0;
    if (gpus == 2)
        return 1;
    if (gpus <= 8)
        return 2;
    return 3;
}

namespace
{

/**
 * CoV (%) of per-GPU mean utilization of one resource. `buf` has one
 * slot per GPU of the job and is scratch space.
 */
double
acrossGpuCov(const JobRecord &job, Resource r, bool active_only,
             std::span<double> buf)
{
    std::size_t m = 0;
    for (const auto &gpu : job.per_gpu) {
        if (active_only && gpu.idle())
            continue;
        buf[m++] = gpu.byResource(r).mean();
    }
    if (m < 2)
        return 0.0;
    // A zero-mean series (every GPU fully idle on this resource) has
    // no across-GPU imbalance; map covPercent's NaN back to 0 rather
    // than dropping the job from the imbalance CDF.
    const double cov = stats::covPercent(buf.first(m));
    return std::isfinite(cov) ? cov : 0.0;
}

/** The Fig. 14 series, in MultiGpuReport order: all GPUs, then active. */
constexpr std::array<Resource, 3> cov_resources = {
    Resource::Sm, Resource::MemoryBw, Resource::MemorySize};
constexpr std::size_t num_cov_series = 2 * cov_resources.size();

constexpr auto num_buckets = static_cast<std::size_t>(num_size_buckets);

} // namespace

MultiGpuReport
MultiGpuAnalyzer::analyze(const Dataset &dataset) const
{
    MultiGpuReport report;
    const auto idx = dataset.gpuJobIndices();
    obs::AnalyzerScope scope("multi_gpu", idx.size());
    if (idx.empty())
        return report;

    const ColumnTable &cols = dataset.columns();
    const std::span<const std::int32_t> gpus = cols.gpus();
    const std::span<const double> gpu_hours = cols.gpuHours();
    const std::span<const double> wait = cols.waitS();
    const std::span<const std::uint32_t> user = cols.userIndex();

    // A serial fold over the columns in record order: the float sums
    // keep their order, and each bucket's waits stay in record order.
    std::array<double, num_size_buckets> job_count{};
    std::array<double, num_size_buckets> hours{};
    std::array<std::vector<double>, num_size_buckets> waits;
    std::vector<std::int32_t> user_max_gpus(cols.users().size(), 0);
    std::vector<std::uint32_t> multi;  // rows of multi-GPU jobs
    double total_hours = 0.0;
    for (const std::uint32_t r : idx) {
        const auto b = static_cast<std::size_t>(sizeBucketOf(gpus[r]));
        job_count[b] += 1.0;
        hours[b] += gpu_hours[r];
        total_hours += gpu_hours[r];
        waits[b].push_back(wait[r]);
        std::int32_t &mx = user_max_gpus[user[r]];
        mx = std::max(mx, gpus[r]);
        if (gpus[r] >= 2)
            multi.push_back(r);
    }

    // Per multi-GPU job, one slot: its six across-GPU CoVs (the only
    // reads of per_gpu) and whether half or more of its GPUs idled.
    struct Spread
    {
        std::array<double, num_cov_series> cov{};
        bool half_idle = false;
    };
    std::vector<Spread> spread(multi.size());
    parallelFor(globalPool(), multi.size(), [&](std::size_t k) {
        const JobRecord &job = dataset.records()[multi[k]];
        std::vector<double> buf(job.per_gpu.size());
        Spread &s = spread[k];
        s.half_idle = job.idleGpuCount() * 2 >= job.gpus;
        for (std::size_t j = 0; j < num_cov_series; ++j)
            s.cov[j] = acrossGpuCov(job, cov_resources[j % 3], j >= 3, buf);
    });

    const auto n = static_cast<double>(idx.size());
    for (std::size_t b = 0; b < num_buckets; ++b) {
        report.job_fraction[b] = job_count[b] / n;
        report.hour_fraction[b] =
            total_hours > 0.0 ? hours[b] / total_hours : 0.0;
    }

    double num_users = 0.0, multi_u = 0.0, three_u = 0.0, nine_u = 0.0;
    for (const std::int32_t mx : user_max_gpus) {
        if (mx == 0)
            continue;  // no filtered GPU job
        num_users += 1.0;
        if (mx >= 2)
            multi_u += 1.0;
        if (mx >= 3)
            three_u += 1.0;
        if (mx >= 9)
            nine_u += 1.0;
    }
    report.users_multi = multi_u / num_users;
    report.users_3plus = three_u / num_users;
    report.users_9plus = nine_u / num_users;
    double idle_multi_jobs = 0.0;
    for (const Spread &s : spread)
        if (s.half_idle)
            idle_multi_jobs += 1.0;
    report.idle_gpu_job_fraction =
        multi.empty() ? 0.0
                      : idle_multi_jobs / static_cast<double>(multi.size());

    // Six CoV CDFs and four median waits: ten independent sorts.
    const std::array<stats::EmpiricalCdf *, num_cov_series> cdfs = {
        &report.sm_cov_all_pct,       &report.membw_cov_all_pct,
        &report.memsize_cov_all_pct,  &report.sm_cov_active_pct,
        &report.membw_cov_active_pct, &report.memsize_cov_active_pct};
    parallelFor(globalPool(), num_cov_series + num_buckets,
                [&](std::size_t t) {
                    if (t >= num_cov_series) {
                        const std::size_t b = t - num_cov_series;
                        report.median_wait_s[b] =
                            stats::percentile(std::move(waits[b]), 0.5);
                        return;
                    }
                    std::vector<double> series(spread.size());
                    for (std::size_t k = 0; k < spread.size(); ++k)
                        series[k] = spread[k].cov[t];
                    *cdfs[t] = stats::EmpiricalCdf(std::move(series));
                });
    return report;
}

} // namespace aiwc::core
