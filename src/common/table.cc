#include "aiwc/common/table.hh"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <string_view>

#include "aiwc/base/check.hh"
#include "aiwc/base/logging.hh"

namespace aiwc
{

namespace
{

/** Largest decimal count appendNumber() accepts. */
constexpr int max_precision = 32;

} // namespace

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
    AIWC_ASSERT(!headers_.empty(), "table needs at least one column");
}

void
TextTable::addRow(std::vector<std::string> cells)
{
    AIWC_ASSERT(cells.size() == headers_.size(),
                "row width ", cells.size(), " != header width ",
                headers_.size());
    rows_.push_back(std::move(cells));
}

void
TextTable::print(std::ostream &os) const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    auto emit_row = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            os << row[c];
            if (c + 1 < row.size())
                os << std::string(widths[c] - row[c].size() + 2, ' ');
        }
        os << '\n';
    };

    emit_row(headers_);
    std::size_t total = 0;
    for (std::size_t c = 0; c < widths.size(); ++c)
        total += widths[c] + (c + 1 < widths.size() ? 2 : 0);
    os << std::string(total, '-') << '\n';
    for (const auto &row : rows_)
        emit_row(row);
}

void
appendNumber(std::string &out, double v, int precision)
{
    AIWC_CHECK(precision >= 0 && precision <= max_precision,
               "number precision must be in [0, ", max_precision,
               "], got ", precision);
    // Fixed notation of the largest double: 309 integer digits, a
    // sign, the point and the decimals.
    std::array<char, 312 + max_precision> buf;
    const auto [end, ec] =
        std::to_chars(buf.data(), buf.data() + buf.size(), v,
                      std::chars_format::fixed, precision);
    AIWC_CHECK(ec == std::errc{}, "number does not fit its buffer");
    std::string_view s(buf.data(), static_cast<std::size_t>(end - buf.data()));
    if (s.find('.') != std::string_view::npos) {
        while (!s.empty() && s.back() == '0')
            s.remove_suffix(1);
        if (!s.empty() && s.back() == '.')
            s.remove_suffix(1);
    }
    out.append(s.empty() ? std::string_view("0") : s);
}

std::string
formatNumber(double v, int precision)
{
    std::string s;
    appendNumber(s, v, precision);
    return s;
}

std::string
formatPercent(double fraction, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f%%", precision, fraction * 100.0);
    return buf;
}

std::string
formatDuration(double seconds)
{
    char buf[64];
    if (seconds < 60.0)
        std::snprintf(buf, sizeof(buf), "%.1fs", seconds);
    else if (seconds < 3600.0)
        std::snprintf(buf, sizeof(buf), "%.1fmin", seconds / 60.0);
    else if (seconds < 86400.0)
        std::snprintf(buf, sizeof(buf), "%.1fh", seconds / 3600.0);
    else
        std::snprintf(buf, sizeof(buf), "%.1fd", seconds / 86400.0);
    return buf;
}

} // namespace aiwc
