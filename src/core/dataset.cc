#include "aiwc/core/dataset.hh"

#include <string>

#include "aiwc/base/check.hh"
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
    CsvWriter header(os, {csv_columns.begin(), csv_columns.end()});
    // Every cell is a number or an enum name, none of which holds a
    // comma, quote or line break, so each row is appended unquoted to
    // one reused buffer and written with one call. cell() checks that
    // the cells arrive in csv_columns order.
    std::string line;
    std::size_t next = 0;
    const auto cell = [&](std::size_t column) {
        AIWC_DCHECK_EQ(column, next, "CSV cell out of column order");
        ++next;
        if (column > 0)
            line += ',';
    };
    const auto num = [&](std::size_t column, double v, int precision) {
        cell(column);
        appendNumber(line, v, precision);
    };
    for (const auto &r : records_) {
        line.clear();
        next = 0;
        const auto mean = [&](std::size_t column, Resource res) {
            num(column, r.meanUtilization(res), 4);
        };
        const auto max = [&](std::size_t column, Resource res) {
            num(column, r.maxUtilization(res), 4);
        };
        num(csvColumn("job_id"), static_cast<double>(r.id), 0);
        num(csvColumn("user"), static_cast<double>(r.user), 0);
        cell(csvColumn("interface"));
        line += toString(r.interface);
        cell(csvColumn("terminal"));
        line += toString(r.terminal);
        num(csvColumn("submit_s"), r.submit_time, 1);
        num(csvColumn("start_s"), r.start_time, 1);
        num(csvColumn("end_s"), r.end_time, 1);
        num(csvColumn("gpus"), r.gpus, 0);
        num(csvColumn("cpu_slots"), r.cpu_slots, 0);
        num(csvColumn("ram_gb"), r.ram_gb, 1);
        mean(csvColumn("sm_mean"), Resource::Sm);
        max(csvColumn("sm_max"), Resource::Sm);
        mean(csvColumn("membw_mean"), Resource::MemoryBw);
        max(csvColumn("membw_max"), Resource::MemoryBw);
        mean(csvColumn("memsize_mean"), Resource::MemorySize);
        max(csvColumn("memsize_max"), Resource::MemorySize);
        mean(csvColumn("pcie_tx_mean"), Resource::PcieTx);
        mean(csvColumn("pcie_rx_mean"), Resource::PcieRx);
        num(csvColumn("power_mean_w"), r.meanPowerWatts(), 1);
        num(csvColumn("power_max_w"), r.maxPowerWatts(), 1);
        AIWC_DCHECK_EQ(next, csv_columns.size(), "CSV row is short");
        line += '\n';
        os.write(line.data(), static_cast<std::streamsize>(line.size()));
    }
}

} // namespace aiwc::core
