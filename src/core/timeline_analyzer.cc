#include "aiwc/core/timeline_analyzer.hh"

#include <algorithm>
#include <cmath>

#include "aiwc/base/logging.hh"
#include "aiwc/common/parallel.hh"
#include "aiwc/obs/trace.hh"
#include "aiwc/stats/descriptive.hh"

namespace aiwc::core
{

double
TimelineReport::deadlineSurge(const std::vector<double> &deadline_days,
                              double window_days) const
{
    if (bins.empty() || deadline_days.empty())
        return 0.0;
    const double bin_days = bin_width / one_day;
    double peak_inside = 0.0;
    std::vector<double> outside;
    for (std::size_t i = 0; i < bins.size(); ++i) {
        const double day = static_cast<double>(i) * bin_days;
        bool inside = false;
        for (double d : deadline_days)
            inside = inside || (day >= d - window_days && day <= d);
        const auto subs = static_cast<double>(bins[i].submissions);
        if (inside)
            peak_inside = std::max(peak_inside, subs);
        else
            outside.push_back(subs);
    }
    if (outside.empty())
        return 0.0;
    const double base = stats::percentile(std::move(outside), 0.5);
    return base > 0.0 ? peak_inside / base : 0.0;
}

TimelineReport
TimelineAnalyzer::analyze(const Dataset &dataset) const
{
    obs::AnalyzerScope scope("timeline", dataset.size());
    AIWC_ASSERT(bin_width_ > 0.0, "bin width must be positive");
    TimelineReport report;
    report.bin_width = bin_width_;
    if (dataset.empty())
        return report;

    // The horizon is a max, exact in any order. CPU jobs weigh their
    // nodes, from cpu_slots, which only the records hold: one slot per
    // row, read in parallel. The bins then fold serially in record
    // order over the columns.
    const ColumnTable &cols = dataset.columns();
    const std::span<const double> submit = cols.submitTime();
    const std::span<const double> start = cols.startTime();
    const std::span<const double> end = cols.endTime();
    const std::span<const std::int32_t> gpus = cols.gpus();
    const std::size_t n = cols.rows();
    const Seconds horizon = parallelReduce(
        globalPool(), n, 0.0,
        [&](Seconds &acc, std::size_t i) { acc = std::max(acc, end[i]); },
        [](Seconds &into, Seconds &&from) { into = std::max(into, from); });
    std::vector<double> node_weight(n);
    parallelFor(globalPool(), n, [&](std::size_t i) {
        node_weight[i] =
            gpus[i] > 0
                ? 0.0
                : std::ceil(
                      static_cast<double>(dataset.records()[i].cpu_slots) /
                      80.0);
    });

    const auto nbins = static_cast<std::size_t>(
        std::ceil(horizon / bin_width_));
    report.bins.resize(std::max<std::size_t>(nbins, 1));
    for (std::size_t i = 0; i < report.bins.size(); ++i)
        report.bins[i].start = static_cast<double>(i) * bin_width_;

    for (std::size_t i = 0; i < n; ++i) {
        const auto sub_bin =
            std::min(report.bins.size() - 1,
                     static_cast<std::size_t>(submit[i] / bin_width_));
        ++report.bins[sub_bin].submissions;

        // Spread busy time across the bins the run overlaps.
        const double weight_gpu = static_cast<double>(gpus[i]);
        const double weight_nodes = node_weight[i];
        if (weight_gpu == 0.0 && weight_nodes == 0.0)
            continue;
        const auto first = static_cast<std::size_t>(start[i] / bin_width_);
        const auto last = std::min(
            report.bins.size() - 1,
            static_cast<std::size_t>(end[i] / bin_width_));
        for (std::size_t b = first; b <= last; ++b) {
            const double lo = std::max(start[i], report.bins[b].start);
            const double hi =
                std::min(end[i], report.bins[b].start + bin_width_);
            const double overlap = std::max(hi - lo, 0.0) / bin_width_;
            report.bins[b].mean_gpus_busy += weight_gpu * overlap;
            report.bins[b].mean_cpu_nodes_busy += weight_nodes * overlap;
        }
    }

    std::vector<double> subs;
    for (const auto &bin : report.bins) {
        subs.push_back(static_cast<double>(bin.submissions));
        report.peak_gpus_busy =
            std::max(report.peak_gpus_busy, bin.mean_gpus_busy);
    }
    const double mean = stats::mean(subs);
    if (mean > 0.0) {
        report.submission_peak_to_mean =
            *std::max_element(subs.begin(), subs.end()) / mean;
    }
    return report;
}

} // namespace aiwc::core
