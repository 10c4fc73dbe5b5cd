#include "aiwc/stream/snapshot.hh"

#include <algorithm>

#include "aiwc/base/check.hh"
#include "aiwc/common/table.hh"

namespace aiwc::stream
{

namespace
{

/** One "p25 / p50 / p75" row of a quantile table. */
std::vector<std::string>
quantileRow(const std::string &label, const stats::EmpiricalCdf &cdf)
{
    if (cdf.empty())
        return {label, "-", "-", "-"};
    return {label, formatNumber(cdf.quantile(0.25)),
            formatNumber(cdf.quantile(0.50)),
            formatNumber(cdf.quantile(0.75))};
}

} // namespace

stats::EmpiricalCdf
renderCdf(const sketch::KllSketch &sketch, int points)
{
    AIWC_CHECK(points >= 2, "renderCdf needs at least two levels, got ",
               points);
    if (sketch.count() == 0)
        return stats::EmpiricalCdf{};
    std::vector<double> levels(static_cast<std::size_t>(points));
    for (int i = 0; i < points; ++i)
        levels[static_cast<std::size_t>(i)] =
            static_cast<double>(i) / (points - 1);
    std::vector<double> sample = sketch.quantiles(levels);
    AIWC_DCHECK(std::is_sorted(sample.begin(), sample.end()),
                "a sorted-view walk must yield non-decreasing quantiles");
    return stats::EmpiricalCdf(std::move(sample));
}

void
SnapshotReport::print(std::ostream &os) const
{
    os << "stream snapshot: " << rows << " rows (" << gpu_jobs
       << " GPU jobs, " << cpu_jobs << " CPU jobs), " << users
       << " users, sketch footprint " << sketch_bytes
       << " B, rank error bound " << formatPercent(epsilon) << "\n\n";

    TextTable dist({"distribution", "p25", "p50", "p75"});
    dist.addRow(quantileRow("GPU runtime (min)", gpu_runtime_min));
    dist.addRow(quantileRow("CPU runtime (min)", cpu_runtime_min));
    dist.addRow(quantileRow("GPU wait (s)", gpu_wait_s));
    dist.addRow(quantileRow("SM util (%)", sm_pct));
    dist.addRow(quantileRow("memBW util (%)", membw_pct));
    dist.addRow(quantileRow("memsize util (%)", memsize_pct));
    dist.addRow(quantileRow("avg power (W)", avg_watts));
    dist.addRow(quantileRow("max power (W)", max_watts));
    dist.addRow(quantileRow("user avg runtime (min)",
                            user_avg_runtime_min));
    dist.addRow(quantileRow("user avg SM (%)", user_avg_sm_pct));
    dist.print(os);

    if (!caps.empty()) {
        os << "\n";
        TextTable cap_table({"cap (W)", "unimpacted", "by max draw",
                             "by avg draw"});
        for (const auto &c : caps) {
            cap_table.addRow({formatNumber(c.cap_watts),
                              formatPercent(c.unimpacted),
                              formatPercent(c.impacted_by_max),
                              formatPercent(c.impacted_by_avg)});
        }
        cap_table.print(os);
    }

    if (!top_users_by_gpu_hours.empty()) {
        os << "\n";
        TextTable top({"user", "GPU-hours (est)", "+/- err"});
        for (const auto &entry : top_users_by_gpu_hours) {
            top.addRow({std::to_string(entry.key),
                        formatNumber(entry.count),
                        formatNumber(entry.error)});
        }
        top.print(os);
    }

    os << "\njob concentration: top 5% of users submit "
       << formatPercent(top5_job_share) << " of jobs, top 20% submit "
       << formatPercent(top20_job_share) << "; median "
       << formatNumber(median_jobs_per_user) << " jobs/user\n";
}

} // namespace aiwc::stream
