#include "aiwc/core/dataset.hh"

#include "aiwc/common/csv.hh"
#include "aiwc/common/parallel.hh"
#include "aiwc/common/table.hh"

namespace aiwc::core
{

Dataset::Dataset(std::vector<JobRecord> records)
    : records_(std::move(records))
{
    for (const JobRecord &r : records_)
        cols_.append(r);
}

void
Dataset::add(JobRecord record)
{
    cols_.append(record);
    records_.push_back(std::move(record));
}

std::vector<std::uint32_t>
Dataset::gpuJobIndices() const
{
    using Indices = std::vector<std::uint32_t>;
    const std::span<const std::int32_t> gpus = cols_.gpus();
    const std::span<const double> runtime = cols_.runtimeS();
    return parallelReduce(
        globalPool(), cols_.rows(), Indices{},
        [&](Indices &acc, std::size_t i) {
            if (gpus[i] > 0 && runtime[i] >= min_gpu_runtime)
                acc.push_back(static_cast<std::uint32_t>(i));
        },
        [](Indices &into, Indices &&from) {
            into.insert(into.end(), from.begin(), from.end());
        });
}

std::vector<std::uint32_t>
Dataset::cpuJobIndices() const
{
    using Indices = std::vector<std::uint32_t>;
    const std::span<const std::int32_t> gpus = cols_.gpus();
    return parallelReduce(
        globalPool(), cols_.rows(), Indices{},
        [&](Indices &acc, std::size_t i) {
            if (gpus[i] <= 0)
                acc.push_back(static_cast<std::uint32_t>(i));
        },
        [](Indices &into, Indices &&from) {
            into.insert(into.end(), from.begin(), from.end());
        });
}

std::size_t
Dataset::uniqueUsers() const
{
    // The interned user table has already deduplicated on append.
    return cols_.users().size();
}

double
Dataset::totalGpuHours() const
{
    const std::span<const std::int32_t> gpus = cols_.gpus();
    const std::span<const double> runtime = cols_.runtimeS();
    const std::span<const double> hours = cols_.gpuHours();
    return parallelReduce(
        globalPool(), cols_.rows(), 0.0,
        [&](double &acc, std::size_t i) {
            if (gpus[i] > 0 && runtime[i] >= min_gpu_runtime)
                acc += hours[i];
        },
        [](double &into, double &&from) { into += from; });
}

void
Dataset::writeCsv(std::ostream &os) const
{
    CsvWriter csv(os, {"job_id", "user", "interface", "terminal",
                       "submit_s", "start_s", "end_s", "gpus",
                       "cpu_slots", "ram_gb", "sm_mean", "sm_max",
                       "membw_mean", "membw_max", "memsize_mean",
                       "memsize_max", "pcie_tx_mean", "pcie_rx_mean",
                       "power_mean_w", "power_max_w"});
    for (const auto &r : records_) {
        csv.writeRow({
            formatNumber(r.id, 0),
            formatNumber(r.user, 0),
            toString(r.interface),
            toString(r.terminal),
            formatNumber(r.submit_time, 1),
            formatNumber(r.start_time, 1),
            formatNumber(r.end_time, 1),
            formatNumber(r.gpus, 0),
            formatNumber(r.cpu_slots, 0),
            formatNumber(r.ram_gb, 1),
            formatNumber(r.meanUtilization(Resource::Sm), 4),
            formatNumber(r.maxUtilization(Resource::Sm), 4),
            formatNumber(r.meanUtilization(Resource::MemoryBw), 4),
            formatNumber(r.maxUtilization(Resource::MemoryBw), 4),
            formatNumber(r.meanUtilization(Resource::MemorySize), 4),
            formatNumber(r.maxUtilization(Resource::MemorySize), 4),
            formatNumber(r.meanUtilization(Resource::PcieTx), 4),
            formatNumber(r.meanUtilization(Resource::PcieRx), 4),
            formatNumber(r.meanPowerWatts(), 1),
            formatNumber(r.maxPowerWatts(), 1),
        });
    }
}

} // namespace aiwc::core
