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
 */

#pragma once

#include <istream>
#include <optional>
#include <string>

#include "aiwc/core/dataset.hh"

namespace aiwc::core
{

/**
 * Parse a dataset from the writeCsv format.
 * Throws nothing; calls fatal() on malformed headers. Skips, with a
 * warning, every data row that cannot be a job record: a wrong cell
 * count, a non-finite number, an unknown interface or terminal name,
 * or a gpus count outside [0, 1024] or cpu_slots below 0.
 */
Dataset loadDatasetCsv(std::istream &is);

/** Parse an Interface name as written by toString(); nullopt if unknown. */
std::optional<Interface> interfaceFromString(const std::string &name);

/** Parse a TerminalState name as written by toString(); nullopt if unknown. */
std::optional<TerminalState> terminalFromString(const std::string &name);

} // namespace aiwc::core

