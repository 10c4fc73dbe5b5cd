#include "aiwc/opportunity/colocation_advisor.hh"

#include <algorithm>

#include "aiwc/common/parallel.hh"

namespace aiwc::opportunity
{

GpuDemand
GpuDemand::of(const core::JobRecord &job)
{
    return {job.meanUtilization(Resource::Sm),
            job.meanUtilization(Resource::MemoryBw),
            job.meanUtilization(Resource::MemorySize)};
}

bool
InterferenceModel::fits(const GpuDemand &a, const GpuDemand &b) const
{
    return a.memsize + b.memsize <= memsize_limit_;
}

bool
InterferenceModel::fits(const core::JobRecord &a,
                        const core::JobRecord &b) const
{
    return fits(GpuDemand::of(a), GpuDemand::of(b));
}

double
InterferenceModel::pairSlowdown(const GpuDemand &a, const GpuDemand &b) const
{
    const double sm = a.sm + b.sm;
    const double membw = a.membw + b.membw;
    double slowdown = 1.0;
    if (sm > 1.0)
        slowdown += sm_alpha_ * (sm - 1.0);
    if (membw > 1.0)
        slowdown += membw_alpha_ * (membw - 1.0);
    // Mild baseline cost of sharing (context switching, cache churn).
    slowdown += 0.01;
    return slowdown;
}

double
InterferenceModel::pairSlowdown(const core::JobRecord &a,
                                const core::JobRecord &b) const
{
    return pairSlowdown(GpuDemand::of(a), GpuDemand::of(b));
}

ColocationReport
ColocationAdvisor::analyze(const core::Dataset &dataset) const
{
    ColocationReport report;

    // Candidates: single-GPU jobs, replayed in start order. Every
    // scalar the replay reads comes from the columns.
    const core::ColumnTable &cols = dataset.columns();
    const std::span<const std::int32_t> gpu_count = cols.gpus();
    const std::span<const double> start = cols.startTime();
    const std::span<const double> end = cols.endTime();
    const std::span<const double> hours = cols.gpuHours();
    const std::span<const double> sm = cols.meanUtil(Resource::Sm);
    const std::span<const double> membw = cols.meanUtil(Resource::MemoryBw);
    const std::span<const double> memsize =
        cols.meanUtil(Resource::MemorySize);
    // The sort key travels with its row, so comparisons read no column.
    // Comparing by start alone, this sort makes the same comparisons
    // and moves as a sort of bare rows through start[], so ties land
    // in the same order.
    std::vector<std::pair<double, std::uint32_t>> jobs;
    for (const std::uint32_t i : dataset.gpuJobIndices())
        if (gpu_count[i] == 1)
            jobs.emplace_back(start[i], i);
    std::sort(jobs.begin(), jobs.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    report.gpu_jobs = jobs.size();
    if (jobs.empty())
        return report;

    // Each arrival's columns, gathered into its own slot, so the
    // serial replay below reads them in order.
    struct Arrival
    {
        double start, end, hours;
        GpuDemand demand;
    };
    std::vector<Arrival> arrivals(jobs.size());
    parallelFor(globalPool(), jobs.size(), [&](std::size_t k) {
        const auto [t, i] = jobs[k];
        arrivals[k] = {t, end[i], hours[i], {sm[i], membw[i], memsize[i]}};
    });

    // Unpaired jobs still running, in the order they arrived. A paired
    // job never pairs again, so it leaves the pool at once.
    struct Resident
    {
        double end;
        GpuDemand demand;
    };
    std::vector<Resident> running;
    std::vector<double> slowdowns;
    double saved_hours = 0.0, total_hours = 0.0;
    std::size_t paired = 0;

    for (const Arrival &job : arrivals) {
        total_hours += job.hours;
        // One pass retires finished residents and finds the best
        // (lowest-slowdown, latest on ties) partner among the rest.
        std::size_t kept = 0;
        std::size_t best = running.size();
        double best_slowdown = max_slowdown_;
        for (const Resident &r : running) {
            if (r.end <= job.start)
                continue;
            if (model_.fits(r.demand, job.demand)) {
                const double s = model_.pairSlowdown(r.demand, job.demand);
                if (s <= best_slowdown) {
                    best = kept;
                    best_slowdown = s;
                }
            }
            running[kept++] = r;
        }
        running.resize(kept);
        if (best < kept) {
            paired += 2;
            slowdowns.push_back(best_slowdown);
            // The overlap runs on one GPU instead of two.
            const double overlap =
                std::min(running[best].end, job.end) - job.start;
            saved_hours += std::max(overlap, 0.0) / 3600.0;
            // The arriving job rides along; it does not join the pool.
            running.erase(running.begin() +
                          static_cast<std::ptrdiff_t>(best));
        } else {
            running.push_back(Resident{job.end, job.demand});
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
