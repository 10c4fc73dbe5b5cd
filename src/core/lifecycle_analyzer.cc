#include "aiwc/core/lifecycle_analyzer.hh"

#include <map>

#include "aiwc/common/parallel.hh"
#include "aiwc/obs/trace.hh"

namespace aiwc::core
{

double
LifecycleReport::usersWithMatureJobShareBelow(double frac) const
{
    if (users.empty())
        return 0.0;
    std::size_t n = 0;
    for (const auto &u : users)
        if (u.job_share[static_cast<std::size_t>(Lifecycle::Mature)] <
            frac)
            ++n;
    return static_cast<double>(n) / static_cast<double>(users.size());
}

double
LifecycleReport::usersWithMatureHourShareBelow(double frac) const
{
    if (users.empty())
        return 0.0;
    std::size_t n = 0;
    for (const auto &u : users)
        if (u.hour_share[static_cast<std::size_t>(Lifecycle::Mature)] <
            frac)
            ++n;
    return static_cast<double>(n) / static_cast<double>(users.size());
}

double
LifecycleReport::usersWithNonMatureHoursAbove(double frac) const
{
    if (users.empty())
        return 0.0;
    std::size_t n = 0;
    for (const auto &u : users) {
        const double mature =
            u.hour_share[static_cast<std::size_t>(Lifecycle::Mature)];
        if (1.0 - mature > frac)
            ++n;
    }
    return static_cast<double>(n) / static_cast<double>(users.size());
}

LifecycleReport
LifecycleAnalyzer::analyze(const Dataset &dataset) const
{
    LifecycleReport report;
    const auto idx = dataset.gpuJobIndices();
    obs::AnalyzerScope scope("lifecycle", idx.size());
    if (idx.empty())
        return report;

    // Per-shard accumulator: per-class tallies plus per-user shares.
    // All counters are sums, all series are concatenations, so the
    // shard-order merge is deterministic for any thread count.
    struct Tally
    {
        std::array<double, num_lifecycles> count{};
        std::array<double, num_lifecycles> hours{};
        std::array<std::vector<double>, num_lifecycles> runtimes;
        std::array<std::vector<double>, num_lifecycles> sm, membw,
            memsize;
        std::map<UserId, UserClassShares> per_user;
        double total_hours = 0.0;
    };
    Tally tally = parallelReduce(
        globalPool(), idx.size(), Tally{},
        [&](Tally &acc, std::size_t k) {
            const JobRecord &job = dataset.records()[idx[k]];
            const Lifecycle c = classifier_.classify(job);
            const auto i = static_cast<std::size_t>(c);
            acc.count[i] += 1.0;
            acc.hours[i] += job.gpuHours();
            acc.total_hours += job.gpuHours();
            acc.runtimes[i].push_back(job.runTime() / 60.0);
            acc.sm[i].push_back(100.0 *
                                job.meanUtilization(Resource::Sm));
            acc.membw[i].push_back(
                100.0 * job.meanUtilization(Resource::MemoryBw));
            acc.memsize[i].push_back(
                100.0 * job.meanUtilization(Resource::MemorySize));

            auto &u = acc.per_user[job.user];
            u.user = job.user;
            ++u.jobs;
            u.gpu_hours += job.gpuHours();
            u.job_share[i] += 1.0;
            u.hour_share[i] += job.gpuHours();
        },
        [](Tally &into, Tally &&from) {
            auto concat = [](std::vector<double> &dst,
                             std::vector<double> &src) {
                dst.insert(dst.end(), src.begin(), src.end());
            };
            for (std::size_t i = 0;
                 i < static_cast<std::size_t>(num_lifecycles); ++i) {
                into.count[i] += from.count[i];
                into.hours[i] += from.hours[i];
                concat(into.runtimes[i], from.runtimes[i]);
                concat(into.sm[i], from.sm[i]);
                concat(into.membw[i], from.membw[i]);
                concat(into.memsize[i], from.memsize[i]);
            }
            into.total_hours += from.total_hours;
            for (auto &[user, shares] : from.per_user) {
                auto &u = into.per_user[user];
                u.user = user;
                u.jobs += shares.jobs;
                u.gpu_hours += shares.gpu_hours;
                for (std::size_t i = 0;
                     i < static_cast<std::size_t>(num_lifecycles);
                     ++i) {
                    u.job_share[i] += shares.job_share[i];
                    u.hour_share[i] += shares.hour_share[i];
                }
            }
        });
    auto &count = tally.count;
    auto &hours = tally.hours;
    auto &runtimes = tally.runtimes;
    auto &sm = tally.sm;
    auto &membw = tally.membw;
    auto &memsize = tally.memsize;
    auto &per_user = tally.per_user;
    const double total_hours = tally.total_hours;

    const auto n = static_cast<double>(idx.size());
    for (int c = 0; c < num_lifecycles; ++c) {
        const auto i = static_cast<std::size_t>(c);
        report.job_mix[i] = count[i] / n;
        report.hour_mix[i] =
            total_hours > 0.0 ? hours[i] / total_hours : 0.0;
        report.median_runtime_min[i] =
            stats::percentile(std::move(runtimes[i]), 0.5);
        report.sm_pct[i] = stats::BoxStats::from(std::move(sm[i]));
        report.membw_pct[i] = stats::BoxStats::from(std::move(membw[i]));
        report.memsize_pct[i] =
            stats::BoxStats::from(std::move(memsize[i]));
    }

    report.users.reserve(per_user.size());
    for (auto &[user, shares] : per_user) {
        const auto user_jobs = static_cast<double>(shares.jobs);
        for (auto &s : shares.job_share)
            s /= user_jobs;
        if (shares.gpu_hours > 0.0) {
            for (auto &s : shares.hour_share)
                s /= shares.gpu_hours;
        }
        report.users.push_back(std::move(shares));
    }
    return report;
}

} // namespace aiwc::core
