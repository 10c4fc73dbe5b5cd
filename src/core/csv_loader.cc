#include "aiwc/core/csv_loader.hh"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "aiwc/base/logging.hh"
#include "aiwc/common/csv.hh"
#include "aiwc/common/parallel.hh"

namespace aiwc::core
{

std::optional<Interface>
interfaceFromString(std::string_view name)
{
    for (int i = 0; i < num_interfaces; ++i) {
        const auto iface = static_cast<Interface>(i);
        if (name == toString(iface))
            return iface;
    }
    return std::nullopt;
}

std::optional<TerminalState>
terminalFromString(std::string_view name)
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

constexpr std::size_t kColumns = csv_columns.size();

/** True for a column holding a measured number, not a name or an id. */
constexpr bool
numericColumn(std::size_t c)
{
    return c != csvColumn("job_id") && c != csvColumn("user") &&
           c != csvColumn("interface") && c != csvColumn("terminal");
}

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

/**
 * A window is cut into parse pieces at multiples of this many bytes,
 * each moved forward past the next newline: 16 pieces per full window.
 */
constexpr std::size_t piece_bytes = std::size_t{64} << 10;

using Cells = std::array<std::string_view, kColumns>;

/**
 * `fallback` (std::strtod or std::strtoul) of a NUL-terminated copy of
 * the cell. from_chars rounds as strtod does, so its value is taken
 * whenever it consumes the whole cell without a range error; every
 * other cell (empty, a sign or space in front, hex, trailing text,
 * overflow) goes to the fallback.
 */
template <typename T, typename Fallback>
T
parseCell(std::string_view cell, Fallback fallback)
{
    T v{};
    const char *last = cell.data() + cell.size();
    const auto [ptr, ec] = std::from_chars(cell.data(), last, v);
    if (ec == std::errc{} && ptr == last)
        return v;
    return fallback(std::string(cell).c_str());
}

double
parseDouble(std::string_view cell)
{
    return parseCell<double>(
        cell, [](const char *s) { return std::strtod(s, nullptr); });
}

unsigned long
parseId(std::string_view cell)
{
    return parseCell<unsigned long>(
        cell, [](const char *s) { return std::strtoul(s, nullptr, 10); });
}

/**
 * Decode one data row into `r`. Returns an empty string on success,
 * else why the row cannot be a job record.
 */
std::string
decodeRow(const Cells &cells, JobRecord &r)
{
    // Parse every numeric cell once.
    std::array<double, kColumns> v{};
    for (std::size_t c = 0; c < kColumns; ++c) {
        if (!numericColumn(c))
            continue;
        v[c] = parseDouble(cells[c]);
        if (!std::isfinite(v[c]))
            return "non-finite value in column " + std::to_string(c + 1);
    }
    const auto cell = [&cells](std::size_t c) {
        return std::string(cells[c]);
    };
    const auto iface = interfaceFromString(cells[csvColumn("interface")]);
    if (!iface)
        return "unknown interface '" + cell(csvColumn("interface")) + "'";
    const auto terminal = terminalFromString(cells[csvColumn("terminal")]);
    if (!terminal)
        return "unknown terminal state '" + cell(csvColumn("terminal")) +
               "'";
    // Range-check the doubles: casting an out-of-range one to int is UB.
    const double gpus = v[csvColumn("gpus")];
    if (gpus < 0.0 || gpus > max_gpus_per_job)
        return "gpus out of range: " + cell(csvColumn("gpus"));
    const double cpu_slots = v[csvColumn("cpu_slots")];
    if (cpu_slots < 0.0 || cpu_slots > max_cpu_slots)
        return "cpu_slots out of range: " + cell(csvColumn("cpu_slots"));

    r.id = static_cast<JobId>(parseId(cells[csvColumn("job_id")]));
    r.user = static_cast<UserId>(parseId(cells[csvColumn("user")]));
    r.interface = *iface;
    r.terminal = *terminal;
    r.submit_time = v[csvColumn("submit_s")];
    r.start_time = v[csvColumn("start_s")];
    r.end_time = v[csvColumn("end_s")];
    r.gpus = static_cast<int>(gpus);
    r.cpu_slots = static_cast<int>(cpu_slots);
    r.ram_gb = v[csvColumn("ram_gb")];

    if (r.gpus > 0) {
        // The summary CSV carries the across-GPU average; fan it back
        // out so meanUtilization()/maxUtilization() agree with the
        // original values.
        GpuUsageSummary s;
        s.sm = metric(v[csvColumn("sm_mean")], v[csvColumn("sm_max")]);
        s.membw =
            metric(v[csvColumn("membw_mean")], v[csvColumn("membw_max")]);
        s.memsize = metric(v[csvColumn("memsize_mean")],
                           v[csvColumn("memsize_max")]);
        s.pcie_tx = metric(v[csvColumn("pcie_tx_mean")],
                           v[csvColumn("pcie_tx_mean")]);
        s.pcie_rx = metric(v[csvColumn("pcie_rx_mean")],
                           v[csvColumn("pcie_rx_mean")]);
        s.power_watts = metric(v[csvColumn("power_mean_w")],
                               v[csvColumn("power_max_w")]);
        r.per_gpu.assign(static_cast<std::size_t>(r.gpus), s);
    }
    return {};
}

/**
 * Split an unquoted line into cells in place, as parseCsvLine() would:
 * one trailing '\r' is a line terminator, every ',' ends a cell.
 * Fills at most kColumns cells and returns how many the line has.
 */
std::size_t
splitCells(std::string_view line, Cells &cells)
{
    if (!line.empty() && line.back() == '\r')
        line.remove_suffix(1);
    std::size_t count = 0;
    for (std::size_t begin = 0;; ++count) {
        const std::size_t comma = line.find(',', begin);
        if (count < kColumns)
            cells[count] = line.substr(begin, comma - begin);
        if (comma == std::string_view::npos)
            return count + 1;
        begin = comma + 1;
    }
}

/**
 * Decode one non-blank line into `r`. Returns an empty string on
 * success, else why the line is skipped.
 */
std::string
decodeLine(std::string_view line, JobRecord &r)
{
    Cells cells;
    std::size_t count = 0;
    std::vector<std::string> quoted;
    if (line.find('"') == std::string_view::npos) {
        count = splitCells(line, cells);
    } else {
        quoted = parseCsvLine(std::string(line));
        count = quoted.size();
        if (count == kColumns)
            std::copy(quoted.begin(), quoted.end(), cells.begin());
    }
    if (count != kColumns)
        return "expected " + std::to_string(kColumns) + " cells, got " +
               std::to_string(count);
    return decodeRow(cells, r);
}

/** Whole lines of one window, parsed on their own. */
struct Piece
{
    std::string_view text;
    std::vector<JobRecord> records;
    /** (line index within the piece, why it was skipped). */
    std::vector<std::pair<std::size_t, std::string>> skipped;
    std::size_t lines = 0;
};

void
parsePiece(Piece &piece)
{
    const std::string_view text = piece.text;
    for (std::size_t begin = 0; begin < text.size(); ++piece.lines) {
        std::size_t end = text.find('\n', begin);
        if (end == std::string_view::npos)
            end = text.size();
        const std::string_view line = text.substr(begin, end - begin);
        begin = end + 1;
        // A blank line is blank whether the file is LF or CRLF.
        if (line.empty() || line == "\r")
            continue;
        JobRecord r;
        if (std::string why = decodeLine(line, r); !why.empty())
            piece.skipped.emplace_back(piece.lines, std::move(why));
        else
            piece.records.push_back(std::move(r));
    }
}

/** Skipped lines warned about one by one; the rest are only counted. */
constexpr std::size_t max_line_warnings = 256;

/**
 * Parse the whole lines in `text`, the first numbered `line_no`, onto
 * `records`; warn about each skipped line in line order while fewer
 * than max_line_warnings have been, and count every one in `skipped`.
 * Returns the number of the line after the last.
 */
std::size_t
parseLines(std::string_view text, std::size_t line_no,
           std::vector<JobRecord> &records, std::size_t &skipped)
{
    std::vector<Piece> pieces;
    for (std::size_t begin = 0, cut = piece_bytes; begin < text.size();
         cut += piece_bytes) {
        if (cut <= begin)
            continue;  // a line longer than a piece spans this cut
        const std::size_t nl = cut < text.size()
                                   ? text.find('\n', cut - 1)
                                   : std::string_view::npos;
        const std::size_t end = nl == std::string_view::npos ? text.size()
                                                             : nl + 1;
        pieces.emplace_back().text = text.substr(begin, end - begin);
        begin = end;
    }
    parallelFor(globalPool(), pieces.size(),
                [&pieces](std::size_t i) { parsePiece(pieces[i]); });
    for (Piece &piece : pieces) {
        for (const auto &[line, why] : piece.skipped)
            if (skipped++ < max_line_warnings)
                warn("skipping CSV line ", line_no + line, ": ", why);
        line_no += piece.lines;
        records.insert(records.end(),
                       std::make_move_iterator(piece.records.begin()),
                       std::make_move_iterator(piece.records.end()));
    }
    return line_no;
}

/** Why `line` is not the writeCsv header; empty when it is. */
std::string
checkHeader(std::string_view line)
{
    auto header = parseCsvLine(std::string(line));
    // Tolerate a UTF-8 byte-order mark in front of the header — some
    // spreadsheet exports prepend one.
    if (!header.empty() && header[0].rfind("\xef\xbb\xbf", 0) == 0)
        header[0].erase(0, 3);
    if (header.size() != kColumns)
        return "unrecognized dataset CSV header (" +
               std::to_string(header.size()) + " columns)";
    for (std::size_t c = 0; c < kColumns; ++c)
        if (header[c] != csv_columns[c])
            return "unrecognized dataset CSV header (column " +
                   std::to_string(c + 1) + " is '" + header[c] +
                   "', expected '" + std::string(csv_columns[c]) + "')";
    return {};
}

} // namespace

Dataset
loadDatasetCsv(std::istream &is, std::string *error)
{
    if (error)
        error->clear();
    // The window starts at one parse piece, so a small stream never
    // pays for a full window, and doubles toward csv_read_window while
    // reads keep filling it.
    std::size_t size = piece_bytes;
    auto window = std::make_unique_for_overwrite<char[]>(size);
    std::size_t have = 0;     // bytes in window, the carried tail first
    std::size_t line_no = 0;  // number of the next line; 0 before the header
    std::vector<JobRecord> records;
    std::size_t skipped = 0;
    bool filled = false;  // the last read filled the window
    for (bool eof = false; !eof;) {
        if (have == size || (filled && size < csv_read_window)) {
            // A line fills the window, or the stream outgrows it: double
            // it and read on.
            auto wider = std::make_unique_for_overwrite<char[]>(2 * size);
            std::copy_n(window.get(), have, wider.get());
            window = std::move(wider);
            size *= 2;
        }
        is.read(window.get() + have,
                static_cast<std::streamsize>(size - have));
        have += static_cast<std::size_t>(is.gcount());
        eof = !is;
        filled = have == size;
        std::string_view text(window.get(), have);
        if (!eof) {
            const std::size_t last = text.rfind('\n');
            if (last == std::string_view::npos)
                continue;
            text = text.substr(0, last + 1);
        }
        const std::size_t consumed = text.size();
        if (line_no == 0) {
            std::string why = "empty CSV: no header";
            std::size_t end = text.size();
            if (!text.empty()) {
                end = std::min(text.find('\n'), text.size());
                why = checkHeader(text.substr(0, end));
            }
            if (!why.empty()) {
                warn(why);
                if (error)
                    *error = std::move(why);
                return Dataset();
            }
            text.remove_prefix(std::min(end + 1, text.size()));
            line_no = 2;
        }
        line_no = parseLines(text, line_no, records, skipped);
        std::copy(window.get() + consumed, window.get() + have,
                  window.get());
        have -= consumed;
    }
    if (skipped > max_line_warnings)
        warn(skipped - max_line_warnings, " more skipped CSV lines not shown");
    return Dataset(std::move(records));
}

} // namespace aiwc::core
