/**
 * @file
 * CSV dataset loading — the drop-in path for real study data.
 *
 * Reads the per-job summary format Dataset::writeCsv emits (which
 * mirrors the fields the paper's merged Slurm + nvidia-smi dataset
 * carries). What the summary CSV cannot carry is noted explicitly:
 * per-GPU breakdowns collapse to the across-GPU average, sample
 * minima default to 0, and time-series phase statistics are absent.
 * All fleet-level analyses (Figs. 3-5, 8-13, 15-17) work on a loaded
 * dataset; the phase analyses (Figs. 6-7a) need the detailed subset.
 *
 * How the loader reads:
 *  - The stream is read in windows that start at one 64 KiB parse
 *    piece and double up to csv_read_window while reads fill them, each
 *    cut at its last newline with the tail carried into the next. Each
 *    window is split at fixed byte offsets (moved forward to the next
 *    newline) into pieces parsed in parallel on globalPool(), each into
 *    its own records and warnings; pieces are concatenated in input
 *    order. The geometry depends only on the bytes, never on the thread
 *    count.
 *  - An unquoted line is split into cells in place; a line holding a
 *    '"' goes through parseCsvLine(). A numeric cell is read with
 *    std::from_chars when that consumes the whole non-empty cell, and
 *    otherwise with std::strtod (std::strtoul for the job and user ids)
 *    of the cell, so every kept value is bit-equal to strtod's.
 *  - The header must be csv_columns, compared name by name after a
 *    UTF-8 byte-order mark is stripped, and each cell is read by its
 *    csvColumn() index; a file with renamed or reordered columns is
 *    refused rather than loaded into the wrong fields.
 *  - The loader is total: a missing or unrecognized header is reported,
 *    not fatal, and a bad data row is skipped with a warning naming its
 *    line. Warnings come out in line order whatever the thread count;
 *    after the first 256, one last line gives how many were not shown.
 */

#pragma once

#include <cstddef>
#include <istream>
#include <optional>
#include <string>
#include <string_view>

#include "aiwc/core/dataset.hh"

namespace aiwc::core
{

/**
 * Bytes the read window grows to while a stream fills it (a longer
 * tail line grows it further).
 */
inline constexpr std::size_t csv_read_window = std::size_t{1} << 20;

/**
 * Parse a dataset from the writeCsv format. Never aborts. On an empty
 * input or a header that is not the writeCsv one it warns, sets
 * `*error` (when given) and returns an empty Dataset; otherwise it
 * leaves `*error` empty. Skips, with a warning, every data row that
 * cannot be a job record: a wrong cell count, a non-finite number, an
 * unknown interface or terminal name, or a gpus count outside
 * [0, max_gpus_per_job] or cpu_slots outside [0, max_cpu_slots].
 */
Dataset loadDatasetCsv(std::istream &is, std::string *error = nullptr);

/** Parse an Interface name as written by toString(); nullopt if unknown. */
std::optional<Interface> interfaceFromString(std::string_view name);

/** Parse a TerminalState name as written by toString(); nullopt if unknown. */
std::optional<TerminalState> terminalFromString(std::string_view name);

} // namespace aiwc::core

