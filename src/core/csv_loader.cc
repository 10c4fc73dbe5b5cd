#include "aiwc/core/csv_loader.hh"

#include <array>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>

#include "aiwc/common/csv.hh"
#include "aiwc/base/logging.hh"

namespace aiwc::core
{

std::optional<Interface>
interfaceFromString(const std::string &name)
{
    for (int i = 0; i < num_interfaces; ++i) {
        const auto iface = static_cast<Interface>(i);
        if (name == toString(iface))
            return iface;
    }
    return std::nullopt;
}

std::optional<TerminalState>
terminalFromString(const std::string &name)
{
    for (int i = 0; i <= static_cast<int>(TerminalState::NodeFailure);
         ++i) {
        const auto state = static_cast<TerminalState>(i);
        if (name == toString(state))
            return state;
    }
    return std::nullopt;
}

namespace
{

/** Column order of Dataset::writeCsv. */
enum Column : std::size_t
{
    kJobId,
    kUser,
    kInterface,
    kTerminal,
    kSubmit,
    kStart,
    kEnd,
    kGpus,
    kCpuSlots,
    kRamGb,
    kSmMean,
    kSmMax,
    kMembwMean,
    kMembwMax,
    kMemsizeMean,
    kMemsizeMax,
    kPcieTxMean,
    kPcieRxMean,
    kPowerMeanW,
    kPowerMaxW,
    kColumns,
};

/** Rebuild a metric summary from (mean, max); min defaults to 0. */
stats::RunningSummary
metric(double mean, double max)
{
    // One nominal sample per known statistic; exact mean/max are what
    // the analyzers consume.
    const double lo = std::min(0.0, mean);
    return stats::RunningSummary::fromMoments(2, lo, mean,
                                              std::max(mean, max));
}

/** Largest GPU count one row may claim, as in the .aiwt decoder. */
constexpr double max_gpus_per_row = 1024.0;

/**
 * Decode one data row into `r`. Returns an empty string on success,
 * else why the row cannot be a job record.
 */
std::string
decodeRow(const std::vector<std::string> &cells, JobRecord &r)
{
    // Every cell from kSubmit on is a number; parse each once.
    std::array<double, kColumns> v{};
    for (std::size_t c = kSubmit; c < kColumns; ++c) {
        v[c] = std::strtod(cells[c].c_str(), nullptr);
        if (!std::isfinite(v[c]))
            return "non-finite value in column " + std::to_string(c + 1);
    }
    const auto iface = interfaceFromString(cells[kInterface]);
    if (!iface)
        return "unknown interface '" + cells[kInterface] + "'";
    const auto terminal = terminalFromString(cells[kTerminal]);
    if (!terminal)
        return "unknown terminal state '" + cells[kTerminal] + "'";
    if (v[kGpus] < 0.0 || v[kGpus] > max_gpus_per_row)
        return "gpus out of range: " + cells[kGpus];
    if (v[kCpuSlots] < 0.0 ||
        v[kCpuSlots] > std::numeric_limits<int>::max())
        return "cpu_slots out of range: " + cells[kCpuSlots];

    r.id = static_cast<JobId>(
        std::strtoul(cells[kJobId].c_str(), nullptr, 10));
    r.user = static_cast<UserId>(
        std::strtoul(cells[kUser].c_str(), nullptr, 10));
    r.interface = *iface;
    r.terminal = *terminal;
    r.submit_time = v[kSubmit];
    r.start_time = v[kStart];
    r.end_time = v[kEnd];
    r.gpus = static_cast<int>(v[kGpus]);
    r.cpu_slots = static_cast<int>(v[kCpuSlots]);
    r.ram_gb = v[kRamGb];

    if (r.gpus > 0) {
        // The summary CSV carries the across-GPU average; fan it back
        // out so meanUtilization()/maxUtilization() agree with the
        // original values.
        GpuUsageSummary s;
        s.sm = metric(v[kSmMean], v[kSmMax]);
        s.membw = metric(v[kMembwMean], v[kMembwMax]);
        s.memsize = metric(v[kMemsizeMean], v[kMemsizeMax]);
        s.pcie_tx = metric(v[kPcieTxMean], v[kPcieTxMean]);
        s.pcie_rx = metric(v[kPcieRxMean], v[kPcieRxMean]);
        s.power_watts = metric(v[kPowerMeanW], v[kPowerMaxW]);
        r.per_gpu.assign(static_cast<std::size_t>(r.gpus), s);
    }
    return {};
}

} // namespace

Dataset
loadDatasetCsv(std::istream &is)
{
    std::string line;
    if (!std::getline(is, line))
        fatal("empty CSV: no header");
    auto header = parseCsvLine(line);
    // Tolerate a UTF-8 byte-order mark in front of the header — some
    // spreadsheet exports prepend one.
    if (!header.empty() && header[0].rfind("\xef\xbb\xbf", 0) == 0)
        header[0].erase(0, 3);
    if (header.size() != kColumns || header[0] != "job_id")
        fatal("unrecognized dataset CSV header (", header.size(),
              " columns)");

    Dataset dataset;
    std::size_t line_no = 1;
    while (std::getline(is, line)) {
        ++line_no;
        // A blank line is blank whether the file is LF or CRLF.
        if (line.empty() || line == "\r")
            continue;
        const auto cells = parseCsvLine(line);
        if (cells.size() != kColumns) {
            warn("skipping CSV line ", line_no, ": expected ",
                 static_cast<std::size_t>(kColumns), " cells, got ",
                 cells.size());
            continue;
        }

        JobRecord r;
        if (const std::string why = decodeRow(cells, r); !why.empty()) {
            warn("skipping CSV line ", line_no, ": ", why);
            continue;
        }
        dataset.add(std::move(r));
    }
    return dataset;
}

} // namespace aiwc::core
