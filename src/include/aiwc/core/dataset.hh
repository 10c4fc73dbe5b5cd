/**
 * @file
 * The study dataset: every merged job record plus the GPU/CPU job
 * selection the analyzers share.
 *
 * Mirrors the paper's methodology (Sec. II): the raw dataset holds all
 * submissions; GPU analysis considers only GPU jobs that ran at least
 * 30 seconds (74,820 -> 47,120 in the paper).
 */

#pragma once

#include <cstdint>
#include <ostream>
#include <vector>

#include "aiwc/core/columns.hh"
#include "aiwc/core/job_record.hh"

namespace aiwc::core
{

/** GPU jobs that ran less than this are left out of every analysis. */
inline constexpr Seconds min_gpu_runtime = 30.0;

/**
 * The collection of job records for one study period.
 *
 * add() stores each record twice: whole, in records(), and field by
 * field, in the struct-of-arrays ColumnTable (columns()). Jobs are
 * selected one way: gpuJobIndices() and cpuJobIndices() return row
 * indices in record order, valid in both views. Callers read scalar
 * fields through columns() and index records() only for what the
 * columns do not carry (per_gpu, phases) or for a JobRecord method.
 */
class Dataset
{
  public:
    Dataset() = default;
    explicit Dataset(std::vector<JobRecord> records);

    void add(JobRecord record);

    const std::vector<JobRecord> &records() const { return records_; }
    std::size_t size() const { return records_.size(); }
    bool empty() const { return records_.empty(); }

    /** The struct-of-arrays view (always in sync with records()). */
    const ColumnTable &columns() const { return cols_; }

    /**
     * Row indices of GPU jobs that ran at least min_gpu_runtime (the
     * paper's filter), in record order.
     */
    std::vector<std::uint32_t> gpuJobIndices() const;

    /** Row indices of CPU-only jobs (no runtime filter), in record order. */
    std::vector<std::uint32_t> cpuJobIndices() const;

    /** Number of distinct users across all records. */
    std::size_t uniqueUsers() const;

    /** Total GPU-hours over the gpuJobIndices() rows. */
    double totalGpuHours() const;

    /**
     * Export the per-job summary table as CSV (one row per record),
     * for cross-checking against a Pandas pipeline.
     */
    void writeCsv(std::ostream &os) const;

  private:
    std::vector<JobRecord> records_;
    ColumnTable cols_;
};

} // namespace aiwc::core

