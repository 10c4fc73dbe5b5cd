#include "aiwc/core/multi_gpu_analyzer.hh"

#include <cmath>
#include <map>

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

/** CoV (%) of per-GPU mean utilization of one resource. */
double
acrossGpuCov(const JobRecord &job, Resource r, bool active_only)
{
    std::vector<double> means;
    means.reserve(job.per_gpu.size());
    for (const auto &gpu : job.per_gpu) {
        if (active_only && gpu.idle())
            continue;
        means.push_back(gpu.byResource(r).mean());
    }
    if (means.size() < 2)
        return 0.0;
    // A zero-mean series (every GPU fully idle on this resource) has
    // no across-GPU imbalance; map covPercent's NaN back to 0 rather
    // than dropping the job from the imbalance CDF.
    const double cov = stats::covPercent(means);
    return std::isfinite(cov) ? cov : 0.0;
}

} // namespace

MultiGpuReport
MultiGpuAnalyzer::analyze(const Dataset &dataset) const
{
    MultiGpuReport report;
    const auto idx = dataset.gpuJobIndices();
    obs::AnalyzerScope scope("multi_gpu", idx.size());
    if (idx.empty())
        return report;

    std::array<double, num_size_buckets> job_count{};
    std::array<double, num_size_buckets> hours{};
    std::array<std::vector<double>, num_size_buckets> waits;
    std::map<UserId, int> user_max_gpus;

    std::vector<double> sm_all, membw_all, memsize_all;
    std::vector<double> sm_act, membw_act, memsize_act;
    double multi_jobs = 0.0, idle_multi_jobs = 0.0;
    double total_hours = 0.0;

    for (const std::uint32_t i : idx) {
        const JobRecord &job = dataset.records()[i];
        const int bucket = sizeBucketOf(job.gpus);
        const auto b = static_cast<std::size_t>(bucket);
        job_count[b] += 1.0;
        hours[b] += job.gpuHours();
        total_hours += job.gpuHours();
        waits[b].push_back(job.waitTime());

        auto &mx = user_max_gpus[job.user];
        mx = std::max(mx, job.gpus);

        if (job.gpus < 2)
            continue;
        multi_jobs += 1.0;
        if (job.idleGpuCount() * 2 >= job.gpus)
            idle_multi_jobs += 1.0;

        sm_all.push_back(acrossGpuCov(job, Resource::Sm, false));
        membw_all.push_back(acrossGpuCov(job, Resource::MemoryBw, false));
        memsize_all.push_back(
            acrossGpuCov(job, Resource::MemorySize, false));
        sm_act.push_back(acrossGpuCov(job, Resource::Sm, true));
        membw_act.push_back(acrossGpuCov(job, Resource::MemoryBw, true));
        memsize_act.push_back(
            acrossGpuCov(job, Resource::MemorySize, true));
    }

    const auto n = static_cast<double>(idx.size());
    for (int b = 0; b < num_size_buckets; ++b) {
        const auto i = static_cast<std::size_t>(b);
        report.job_fraction[i] = job_count[i] / n;
        report.hour_fraction[i] =
            total_hours > 0.0 ? hours[i] / total_hours : 0.0;
        report.median_wait_s[i] =
            stats::percentile(std::move(waits[i]), 0.5);
    }

    const auto num_users = static_cast<double>(user_max_gpus.size());
    double multi_u = 0.0, three_u = 0.0, nine_u = 0.0;
    for (const auto &[user, mx] : user_max_gpus) {
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
    report.idle_gpu_job_fraction =
        multi_jobs > 0.0 ? idle_multi_jobs / multi_jobs : 0.0;

    report.sm_cov_all_pct = stats::EmpiricalCdf(std::move(sm_all));
    report.membw_cov_all_pct = stats::EmpiricalCdf(std::move(membw_all));
    report.memsize_cov_all_pct =
        stats::EmpiricalCdf(std::move(memsize_all));
    report.sm_cov_active_pct = stats::EmpiricalCdf(std::move(sm_act));
    report.membw_cov_active_pct =
        stats::EmpiricalCdf(std::move(membw_act));
    report.memsize_cov_active_pct =
        stats::EmpiricalCdf(std::move(memsize_act));
    return report;
}

} // namespace aiwc::core
