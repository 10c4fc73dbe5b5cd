#include "aiwc/core/power_analyzer.hh"

#include "aiwc/common/parallel.hh"
#include "aiwc/obs/trace.hh"
#include "aiwc/stats/kernels.hh"

namespace aiwc::core
{

PowerReport
PowerAnalyzer::analyze(const Dataset &dataset) const
{
    // meanPowerWatts/maxPowerWatts are the Power utilization columns,
    // so both series are plain columnar gathers.
    const ColumnTable &cols = dataset.columns();
    const auto idx = dataset.gpuJobIndices();
    obs::AnalyzerScope scope("power", idx.size());

    PowerReport report;
    parallelInvoke(
        globalPool(),
        [&] {
            report.avg_watts = stats::EmpiricalCdf(
                stats::gather(cols.meanUtil(Resource::Power), idx));
        },
        [&] {
            report.max_watts = stats::EmpiricalCdf(
                stats::gather(cols.maxUtil(Resource::Power), idx));
        });

    for (double cap : caps_) {
        PowerCapImpact impact;
        impact.cap_watts = cap;
        impact.unimpacted = report.max_watts.at(cap);
        impact.impacted_by_max = report.max_watts.tail(cap);
        impact.impacted_by_avg = report.avg_watts.tail(cap);
        report.caps.push_back(impact);
    }
    return report;
}

} // namespace aiwc::core
