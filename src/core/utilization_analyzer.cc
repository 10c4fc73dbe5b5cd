#include "aiwc/core/utilization_analyzer.hh"

#include "aiwc/base/logging.hh"
#include "aiwc/common/parallel.hh"
#include "aiwc/obs/trace.hh"
#include "aiwc/stats/kernels.hh"

namespace aiwc::core
{

double
UtilizationReport::fractionAbove(Resource r, double pct) const
{
    return byResource(r).tail(pct);
}

const stats::EmpiricalCdf &
UtilizationReport::byResource(Resource r) const
{
    switch (r) {
      case Resource::Sm: return sm_pct;
      case Resource::MemoryBw: return membw_pct;
      case Resource::MemorySize: return memsize_pct;
      case Resource::PcieTx: return pcie_tx_pct;
      case Resource::PcieRx: return pcie_rx_pct;
      case Resource::Power: break;
    }
    panic("power has no utilization CDF; use PowerAnalyzer");
}

UtilizationReport
UtilizationAnalyzer::analyze(const Dataset &dataset) const
{
    // One columnar gather per resource: contiguous reads through the
    // filtered row indices, scaled to percent exactly as the row walk
    // did (100.0 * mean).
    const ColumnTable &cols = dataset.columns();
    const auto idx = dataset.gpuJobIndices();
    obs::AnalyzerScope scope("utilization", idx.size());
    auto pct = [&](Resource r) {
        return stats::gatherScaled(cols.meanUtil(r), idx, 100.0);
    };
    // The five series are independent: one worker gathers and sorts each.
    UtilizationReport report;
    parallelInvoke(
        globalPool(),
        [&] { report.sm_pct = stats::EmpiricalCdf(pct(Resource::Sm)); },
        [&] {
            report.membw_pct = stats::EmpiricalCdf(pct(Resource::MemoryBw));
        },
        [&] {
            report.memsize_pct =
                stats::EmpiricalCdf(pct(Resource::MemorySize));
        },
        [&] {
            report.pcie_tx_pct = stats::EmpiricalCdf(pct(Resource::PcieTx));
        },
        [&] {
            report.pcie_rx_pct = stats::EmpiricalCdf(pct(Resource::PcieRx));
        });
    return report;
}

InterfaceUtilization
UtilizationAnalyzer::analyzeByInterface(const Dataset &dataset) const
{
    const ColumnTable &cols = dataset.columns();
    const auto idx = dataset.gpuJobIndices();
    obs::AnalyzerScope scope("utilization_by_interface", idx.size());

    // Split the filtered rows by interface (stable, so each bucket
    // stays in record order), then gather each bucket's series.
    const std::span<const std::uint8_t> iface = cols.interfaces();
    std::array<std::vector<std::uint32_t>, num_interfaces> by_iface;
    for (const std::uint32_t r : idx)
        by_iface[iface[r]].push_back(r);

    constexpr auto ni = static_cast<std::size_t>(num_interfaces);
    const double total = static_cast<double>(idx.size());
    InterfaceUtilization out;
    for (std::size_t k = 0; k < ni; ++k)
        out.job_fraction[k] =
            total > 0.0 ? static_cast<double>(by_iface[k].size()) / total
                        : 0.0;
    // One box (a gather and a sort) per (resource, interface) pair,
    // each on its own worker.
    parallelFor(globalPool(), 2 * ni, [&](std::size_t t) {
        const std::size_t k = t % ni;
        const bool sm = t < ni;
        (sm ? out.sm : out.membw)[k] =
            stats::BoxStats::from(stats::gatherScaled(
                cols.meanUtil(sm ? Resource::Sm : Resource::MemoryBw),
                by_iface[k], 100.0));
    });
    return out;
}

} // namespace aiwc::core
