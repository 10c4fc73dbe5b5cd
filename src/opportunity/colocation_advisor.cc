#include "aiwc/opportunity/colocation_advisor.hh"

#include <algorithm>

namespace aiwc::opportunity
{

bool
InterferenceModel::fits(const core::JobRecord &a,
                        const core::JobRecord &b) const
{
    const double combined =
        a.meanUtilization(Resource::MemorySize) +
        b.meanUtilization(Resource::MemorySize);
    return combined <= memsize_limit_;
}

double
InterferenceModel::pairSlowdown(const core::JobRecord &a,
                                const core::JobRecord &b) const
{
    const double sm =
        a.meanUtilization(Resource::Sm) + b.meanUtilization(Resource::Sm);
    const double membw = a.meanUtilization(Resource::MemoryBw) +
                         b.meanUtilization(Resource::MemoryBw);
    double slowdown = 1.0;
    if (sm > 1.0)
        slowdown += sm_alpha_ * (sm - 1.0);
    if (membw > 1.0)
        slowdown += membw_alpha_ * (membw - 1.0);
    // Mild baseline cost of sharing (context switching, cache churn).
    slowdown += 0.01;
    return slowdown;
}

ColocationReport
ColocationAdvisor::analyze(const core::Dataset &dataset) const
{
    ColocationReport report;

    // Candidates: single-GPU jobs, replayed in start order.
    const std::span<const std::int32_t> gpu_count =
        dataset.columns().gpus();
    const std::span<const double> start = dataset.columns().startTime();
    auto jobs = dataset.gpuJobIndices();
    std::erase_if(jobs, [&](std::uint32_t i) { return gpu_count[i] != 1; });
    std::sort(jobs.begin(), jobs.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  return start[a] < start[b];
              });
    report.gpu_jobs = jobs.size();
    if (jobs.empty())
        return report;

    struct Resident
    {
        const core::JobRecord *job;
        bool paired;
    };
    std::vector<Resident> running;
    std::vector<double> slowdowns;
    double saved_hours = 0.0, total_hours = 0.0;
    std::size_t paired = 0;

    for (const std::uint32_t i : jobs) {
        const core::JobRecord &job = dataset.records()[i];
        total_hours += job.gpuHours();
        // Retire finished residents.
        std::erase_if(running, [&](const Resident &r) {
            return r.job->end_time <= job.start_time;
        });

        // Find the best (lowest-slowdown) unpaired partner.
        Resident *best = nullptr;
        double best_slowdown = max_slowdown_;
        for (auto &r : running) {
            if (r.paired || !model_.fits(*r.job, job))
                continue;
            const double s = model_.pairSlowdown(*r.job, job);
            if (s <= best_slowdown) {
                best = &r;
                best_slowdown = s;
            }
        }
        if (best) {
            best->paired = true;
            paired += 2;
            slowdowns.push_back(best_slowdown);
            // The overlap runs on one GPU instead of two.
            const double overlap =
                std::min(best->job->end_time, job.end_time) -
                job.start_time;
            saved_hours += std::max(overlap, 0.0) / 3600.0;
            // The arriving job rides along; it does not join the pool.
        } else {
            running.push_back(Resident{&job, false});
        }
    }

    report.paired_job_fraction =
        static_cast<double>(paired) / static_cast<double>(jobs.size());
    report.gpu_hours_saved_fraction =
        total_hours > 0.0 ? saved_hours / total_hours : 0.0;
    if (!slowdowns.empty()) {
        double acc = 0.0;
        for (double s : slowdowns)
            acc += s;
        report.mean_pair_slowdown =
            acc / static_cast<double>(slowdowns.size());
    }
    report.pair_slowdown = stats::EmpiricalCdf(std::move(slowdowns));
    return report;
}

} // namespace aiwc::opportunity
