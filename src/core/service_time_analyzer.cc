#include "aiwc/core/service_time_analyzer.hh"

#include "aiwc/common/parallel.hh"
#include "aiwc/obs/trace.hh"
#include "aiwc/stats/kernels.hh"

namespace aiwc::core
{

namespace
{

/**
 * wait / service share in percent, slot-addressed like the gather
 * kernels: out[i] = 100 * wait[r] / (end[r] - submit[r]) for r =
 * idx[i], guarding zero service time. The arithmetic mirrors
 * JobRecord::waitTime / serviceTime exactly.
 */
std::vector<double>
waitSharePct(const ColumnTable &cols, std::span<const std::uint32_t> idx)
{
    const std::span<const double> wait = cols.waitS();
    const std::span<const double> submit = cols.submitTime();
    const std::span<const double> end = cols.endTime();
    std::vector<double> out(idx.size());
    parallelFor(globalPool(), idx.size(), [&](std::size_t i) {
        const std::uint32_t r = idx[i];
        const double service = end[r] - submit[r];
        out[i] = service > 0.0 ? 100.0 * wait[r] / service : 0.0;
    });
    return out;
}

} // namespace

ServiceTimeReport
ServiceTimeAnalyzer::analyze(const Dataset &dataset) const
{
    obs::AnalyzerScope scope("service_time", dataset.size());
    const ColumnTable &cols = dataset.columns();
    const auto gpu = dataset.gpuJobIndices();
    const auto cpu = dataset.cpuJobIndices();

    // Six independent series: each is gathered and sorted on its own
    // worker, the GPU series (the larger) claimed first.
    ServiceTimeReport report;
    parallelInvoke(
        globalPool(),
        [&] {
            report.gpu_runtime_min = stats::EmpiricalCdf(
                stats::gatherDivided(cols.runtimeS(), gpu, 60.0));
        },
        [&] {
            report.gpu_wait_s =
                stats::EmpiricalCdf(stats::gather(cols.waitS(), gpu));
        },
        [&] {
            report.gpu_wait_pct = stats::EmpiricalCdf(waitSharePct(cols, gpu));
        },
        [&] {
            report.cpu_runtime_min = stats::EmpiricalCdf(
                stats::gatherDivided(cols.runtimeS(), cpu, 60.0));
        },
        [&] {
            report.cpu_wait_s =
                stats::EmpiricalCdf(stats::gather(cols.waitS(), cpu));
        },
        [&] {
            report.cpu_wait_pct = stats::EmpiricalCdf(waitSharePct(cols, cpu));
        });
    return report;
}

} // namespace aiwc::core
