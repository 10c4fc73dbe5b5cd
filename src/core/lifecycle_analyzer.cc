#include "aiwc/core/lifecycle_analyzer.hh"

#include <algorithm>
#include <utility>

#include "aiwc/common/parallel.hh"
#include "aiwc/obs/trace.hh"
#include "aiwc/stats/kernels.hh"

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

    const ColumnTable &cols = dataset.columns();
    const std::span<const std::uint8_t> terminal = cols.terminals();
    const std::span<const double> hours = cols.gpuHours();
    constexpr auto nc = static_cast<std::size_t>(num_lifecycles);

    // One pass classifies every filtered row into its slot of `cls` and
    // sums the per-class tallies, shard by shard, merged in shard order.
    struct Sums
    {
        std::array<double, num_lifecycles> count{};
        std::array<double, num_lifecycles> hours{};
        double total_hours = 0.0;
    };
    std::vector<std::uint32_t> cls(cols.rows());
    const Sums sums = parallelReduce(
        globalPool(), idx.size(), Sums{},
        [&](Sums &acc, std::size_t k) {
            const std::uint32_t r = idx[k];
            const auto c = static_cast<std::size_t>(classifier_.classify(
                static_cast<TerminalState>(terminal[r])));
            cls[r] = static_cast<std::uint32_t>(c);
            acc.count[c] += 1.0;
            acc.hours[c] += hours[r];
            acc.total_hours += hours[r];
        },
        [](Sums &into, Sums &&from) {
            for (std::size_t c = 0; c < nc; ++c) {
                into.count[c] += from.count[c];
                into.hours[c] += from.hours[c];
            }
            into.total_hours += from.total_hours;
        });

    const auto n = static_cast<double>(idx.size());
    for (std::size_t c = 0; c < nc; ++c) {
        report.job_mix[c] = sums.count[c] / n;
        report.hour_mix[c] =
            sums.total_hours > 0.0 ? sums.hours[c] / sums.total_hours : 0.0;
    }

    // Per class, in record order: the runtime median and three boxes,
    // sixteen independent gathers and sorts.
    const auto by_class = stats::partitionByKey(idx, cls, nc);
    parallelFor(globalPool(), 4 * nc, [&](std::size_t t) {
        const std::size_t c = t % nc;
        const std::span<const std::uint32_t> rows =
            std::span<const std::uint32_t>(by_class.rows)
                .subspan(by_class.offsets[c],
                         by_class.offsets[c + 1] - by_class.offsets[c]);
        const auto box = [&](Resource r) {
            return stats::BoxStats::from(
                stats::gatherScaled(cols.meanUtil(r), rows, 100.0));
        };
        switch (t / nc) {
          case 0:
            report.median_runtime_min[c] = stats::percentile(
                stats::gatherDivided(cols.runtimeS(), rows, 60.0), 0.5);
            break;
          case 1: report.sm_pct[c] = box(Resource::Sm); break;
          case 2: report.membw_pct[c] = box(Resource::MemoryBw); break;
          default: report.memsize_pct[c] = box(Resource::MemorySize);
        }
    });

    // Per user, ascending by id. A user's hour sums keep the order of
    // the per-shard tallies they replace: a left fold within each shard
    // of idx, then the shard partials folded in shard order. `fence`
    // holds the first row of every shard.
    const std::size_t n_users = cols.users().size();
    const auto by_user = stats::partitionByKey(idx, cols.userIndex(), n_users);
    std::vector<std::pair<UserId, std::uint32_t>> order;
    for (std::uint32_t d = 0; d < n_users; ++d)
        if (by_user.offsets[d + 1] > by_user.offsets[d])
            order.emplace_back(cols.users().rawOf(d), d);
    std::sort(order.begin(), order.end());
    std::vector<std::uint32_t> fence;
    for (const detail::ShardRange &s : detail::shardRanges(idx.size()))
        fence.push_back(idx[s.begin]);

    report.users.resize(order.size());
    parallelFor(globalPool(), order.size(), [&](std::size_t u) {
        const auto [user, dense] = order[u];
        UserClassShares &shares = report.users[u];
        shares.user = user;
        UserClassShares partial;  // this shard's hour sums
        const auto flush = [&] {
            shares.gpu_hours += partial.gpu_hours;
            for (std::size_t c = 0; c < nc; ++c)
                shares.hour_share[c] += partial.hour_share[c];
            partial = {};
        };
        std::size_t shard = 0;
        for (std::uint32_t k = by_user.offsets[dense];
             k < by_user.offsets[dense + 1]; ++k) {
            const std::uint32_t r = by_user.rows[k];
            std::size_t at = shard;
            while (at + 1 < fence.size() && fence[at + 1] <= r)
                ++at;
            if (at != shard)
                flush();
            shard = at;
            const std::size_t c = cls[r];
            ++shares.jobs;
            shares.job_share[c] += 1.0;
            partial.gpu_hours += hours[r];
            partial.hour_share[c] += hours[r];
        }
        flush();

        const auto user_jobs = static_cast<double>(shares.jobs);
        for (auto &s : shares.job_share)
            s /= user_jobs;
        if (shares.gpu_hours > 0.0) {
            for (auto &s : shares.hour_share)
                s /= shares.gpu_hours;
        }
    });
    return report;
}

} // namespace aiwc::core
