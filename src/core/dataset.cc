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
    CsvWriter csv(os, {csv_columns.begin(), csv_columns.end()});
    std::vector<std::string> row(csv_columns.size());
    for (const auto &r : records_) {
        const auto mean = [&r](Resource res) {
            return formatNumber(r.meanUtilization(res), 4);
        };
        const auto max = [&r](Resource res) {
            return formatNumber(r.maxUtilization(res), 4);
        };
        row[csvColumn("job_id")] = formatNumber(r.id, 0);
        row[csvColumn("user")] = formatNumber(r.user, 0);
        row[csvColumn("interface")] = toString(r.interface);
        row[csvColumn("terminal")] = toString(r.terminal);
        row[csvColumn("submit_s")] = formatNumber(r.submit_time, 1);
        row[csvColumn("start_s")] = formatNumber(r.start_time, 1);
        row[csvColumn("end_s")] = formatNumber(r.end_time, 1);
        row[csvColumn("gpus")] = formatNumber(r.gpus, 0);
        row[csvColumn("cpu_slots")] = formatNumber(r.cpu_slots, 0);
        row[csvColumn("ram_gb")] = formatNumber(r.ram_gb, 1);
        row[csvColumn("sm_mean")] = mean(Resource::Sm);
        row[csvColumn("sm_max")] = max(Resource::Sm);
        row[csvColumn("membw_mean")] = mean(Resource::MemoryBw);
        row[csvColumn("membw_max")] = max(Resource::MemoryBw);
        row[csvColumn("memsize_mean")] = mean(Resource::MemorySize);
        row[csvColumn("memsize_max")] = max(Resource::MemorySize);
        row[csvColumn("pcie_tx_mean")] = mean(Resource::PcieTx);
        row[csvColumn("pcie_rx_mean")] = mean(Resource::PcieRx);
        row[csvColumn("power_mean_w")] = formatNumber(r.meanPowerWatts(), 1);
        row[csvColumn("power_max_w")] = formatNumber(r.maxPowerWatts(), 1);
        csv.writeRow(row);
    }
}

} // namespace aiwc::core
