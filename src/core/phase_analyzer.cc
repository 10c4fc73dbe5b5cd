#include "aiwc/core/phase_analyzer.hh"

#include <cmath>

#include "aiwc/obs/trace.hh"
#include "aiwc/stats/descriptive.hh"

namespace aiwc::core
{

PhaseReport
PhaseAnalyzer::analyze(const Dataset &dataset) const
{
    const auto idx = dataset.gpuJobIndices();
    obs::AnalyzerScope scope("phase", idx.size());
    std::vector<double> active_frac, idle_cov, active_cov, sm_cov,
        membw_cov, memsize_cov;

    for (const std::uint32_t i : idx) {
        const JobRecord &job = dataset.records()[i];
        if (!job.has_timeseries)
            continue;
        const PhaseStats &ps = job.phases;
        active_frac.push_back(100.0 * ps.active_fraction);
        // covPercent is NaN for zero-mean series; interval lengths are
        // positive so that cannot trigger here, but the sampled
        // active-phase CoVs can (a metric the job never exercised) and
        // only finite values belong on the CDFs.
        auto push_finite = [](std::vector<double> &dst, double v) {
            if (std::isfinite(v))
                dst.push_back(v);
        };
        if (ps.idle_intervals.size() >= min_intervals_)
            push_finite(idle_cov, stats::covPercent(ps.idle_intervals));
        if (ps.active_intervals.size() >= min_intervals_)
            push_finite(active_cov,
                        stats::covPercent(ps.active_intervals));
        if (!ps.active_intervals.empty()) {
            push_finite(sm_cov, ps.active_sm_cov);
            push_finite(membw_cov, ps.active_membw_cov);
            push_finite(memsize_cov, ps.active_memsize_cov);
        }
    }

    PhaseReport report;
    report.jobs = active_frac.size();
    report.active_fraction_pct =
        stats::EmpiricalCdf(std::move(active_frac));
    report.idle_interval_cov_pct = stats::EmpiricalCdf(std::move(idle_cov));
    report.active_interval_cov_pct =
        stats::EmpiricalCdf(std::move(active_cov));
    report.active_sm_cov_pct = stats::EmpiricalCdf(std::move(sm_cov));
    report.active_membw_cov_pct =
        stats::EmpiricalCdf(std::move(membw_cov));
    report.active_memsize_cov_pct =
        stats::EmpiricalCdf(std::move(memsize_cov));
    return report;
}

} // namespace aiwc::core
