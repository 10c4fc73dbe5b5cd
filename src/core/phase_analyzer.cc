#include "aiwc/core/phase_analyzer.hh"

#include <array>
#include <cmath>
#include <limits>

#include "aiwc/common/parallel.hh"
#include "aiwc/obs/trace.hh"
#include "aiwc/stats/descriptive.hh"

namespace aiwc::core
{

PhaseReport
PhaseAnalyzer::analyze(const Dataset &dataset) const
{
    const auto idx = dataset.gpuJobIndices();
    obs::AnalyzerScope scope("phase", idx.size());

    // The jobs with a time series, in record order.
    using Rows = std::vector<std::uint32_t>;
    const std::vector<JobRecord> &records = dataset.records();
    const Rows detailed = parallelReduce(
        globalPool(), idx.size(), Rows{},
        [&](Rows &acc, std::size_t k) {
            if (records[idx[k]].has_timeseries)
                acc.push_back(idx[k]);
        },
        [](Rows &into, Rows &&from) {
            into.insert(into.end(), from.begin(), from.end());
        });

    // Each job's six values into its own slot; NaN marks a value that
    // stays off its CDF. covPercent is NaN for zero-mean series;
    // interval lengths are positive so that cannot trigger there, but
    // the sampled active-phase CoVs can (a metric the job never
    // exercised) and only finite values belong on the CDFs.
    constexpr std::size_t num_series = 6;
    constexpr double off = std::numeric_limits<double>::quiet_NaN();
    std::vector<std::array<double, num_series>> values(detailed.size());
    parallelFor(globalPool(), detailed.size(), [&](std::size_t k) {
        const PhaseStats &ps = records[detailed[k]].phases;
        const bool active = !ps.active_intervals.empty();
        values[k] = {
            100.0 * ps.active_fraction,
            ps.idle_intervals.size() >= min_intervals_
                ? stats::covPercent(ps.idle_intervals)
                : off,
            ps.active_intervals.size() >= min_intervals_
                ? stats::covPercent(ps.active_intervals)
                : off,
            active ? ps.active_sm_cov : off,
            active ? ps.active_membw_cov : off,
            active ? ps.active_memsize_cov : off};
    });

    PhaseReport report;
    report.jobs = detailed.size();
    const std::array<stats::EmpiricalCdf *, num_series> cdfs = {
        &report.active_fraction_pct,     &report.idle_interval_cov_pct,
        &report.active_interval_cov_pct, &report.active_sm_cov_pct,
        &report.active_membw_cov_pct,    &report.active_memsize_cov_pct};
    parallelFor(globalPool(), num_series, [&](std::size_t j) {
        std::vector<double> series;
        series.reserve(values.size());
        for (const auto &v : values)
            if (j == 0 || std::isfinite(v[j]))
                series.push_back(v[j]);
        *cdfs[j] = stats::EmpiricalCdf(std::move(series));
    });
    return report;
}

} // namespace aiwc::core
