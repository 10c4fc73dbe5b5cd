/**
 * @file
 * Plain-text table rendering for benches and report output.
 *
 * The paper's figures become text tables: each bench prints the series
 * a figure plots, with a `paper` column next to the `measured` column.
 * TextTable keeps that presentation in one place.
 */

#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace aiwc
{

/**
 * A simple right-padded text table. Columns are sized to the widest
 * cell; numeric formatting is the caller's responsibility (use
 * formatNumber() for consistency).
 */
class TextTable
{
  public:
    /** Create a table with the given column headers. */
    explicit TextTable(std::vector<std::string> headers);

    /** Append one row; must have exactly as many cells as headers. */
    void addRow(std::vector<std::string> cells);

    /** Render with aligned columns and a header underline. */
    void print(std::ostream &os) const;

    /** Number of data rows. */
    std::size_t rows() const { return rows_.size(); }

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/**
 * Append @p v in fixed notation with @p precision decimals (0..32,
 * AIWC_CHECK), trailing fractional zeros and a bare '.' trimmed: the
 * one number formatter behind formatNumber() and the dataset CSV
 * export, which appends every cell of a row into one reused buffer.
 */
void appendNumber(std::string &out, double v, int precision = 3);

/** Format a double with the given precision, trimming trailing zeros. */
std::string formatNumber(double v, int precision = 3);

/** Format a fraction in [0,1] as a percentage string like "42.0%". */
std::string formatPercent(double fraction, int precision = 1);

/** Format a duration in seconds using human units (s / min / h / d). */
std::string formatDuration(double seconds);

} // namespace aiwc

