/**
 * @file
 * Struct-of-arrays mirror of the study dataset: one contiguous column
 * per scalar field an analyzer reads, plus interned user and job-type
 * id tables. Fields no columnar kernel reads (job id, walltime limit,
 * CPU slots, RAM, the time-series flag) live only in the records.
 *
 * The batch analyzers are reductions over millions of rows, and the
 * row-oriented JobRecord layout makes every pass chase per_gpu
 * vectors through the heap. The ColumnTable flattens the hot scalars
 * — times, resource means/maxima, enums — into cache-dense arrays the
 * compiler can vectorize, and interns sparse user ids into dense
 * indices so per-user aggregation is array indexing, not map lookup.
 *
 * Derived columns are computed in append(), with exactly the
 * arithmetic (and evaluation order) of the JobRecord methods they
 * mirror, so a columnar kernel and a row walk produce bit-identical
 * doubles. Dataset::add() appends each record to both the record
 * vector and the Dataset's one ColumnTable, so rows() always equals
 * Dataset::size() and a row index means the same job in both.
 */

#pragma once

#include <array>
#include <span>
#include <vector>

#include "aiwc/core/id_table.hh"
#include "aiwc/core/job_record.hh"

namespace aiwc::core
{

/**
 * A job type is the (interface, terminal-state) pair — the complete
 * scheduler-observable signature the lifecycle classifier and the
 * by-interface breakdowns key on. Packed into one u32 for interning.
 */
inline constexpr std::uint32_t
packJobType(Interface interface, TerminalState terminal)
{
    return (static_cast<std::uint32_t>(interface) << 8) |
           static_cast<std::uint32_t>(terminal);
}

/** Columnar (SoA) view of a job-record collection. */
class ColumnTable
{
  public:
    /** Append one record's fields to every column. */
    void append(const JobRecord &record);

    std::size_t rows() const { return submit_.size(); }
    bool empty() const { return submit_.empty(); }

    // --- raw scalar columns, one slot per row -----------------------
    /** Dense user index per row; users().rawOf() recovers the id. */
    std::span<const std::uint32_t> userIndex() const { return user_idx_; }
    std::span<const std::uint8_t> interfaces() const { return interface_; }
    std::span<const std::uint8_t> terminals() const { return terminal_; }
    std::span<const std::uint8_t> trueClasses() const { return true_class_; }
    std::span<const double> submitTime() const { return submit_; }
    std::span<const double> startTime() const { return start_; }
    std::span<const double> endTime() const { return end_; }
    std::span<const std::int32_t> gpus() const { return gpus_; }

    // --- derived hot columns ----------------------------------------
    /** end - start per row (JobRecord::runTime). */
    std::span<const double> runtimeS() const { return runtime_s_; }
    /** start - submit per row (JobRecord::waitTime). */
    std::span<const double> waitS() const { return wait_s_; }
    /** gpus * runtime / 3600 per row (JobRecord::gpuHours). */
    std::span<const double> gpuHours() const { return gpu_hours_; }
    /** JobRecord::meanUtilization(r) per row; 0 for CPU jobs. */
    std::span<const double>
    meanUtil(Resource r) const
    {
        return mean_util_[static_cast<std::size_t>(r)];
    }
    /** JobRecord::maxUtilization(r) per row; 0 for CPU jobs. */
    std::span<const double>
    maxUtil(Resource r) const
    {
        return max_util_[static_cast<std::size_t>(r)];
    }

    // --- interned id tables -----------------------------------------
    /** Distinct user ids in first-appearance order. */
    const IdTable &users() const { return users_; }
    /**
     * Distinct packJobType keys in first-appearance order. `.aiwt`
     * writes this table and checks it against the records on decode.
     */
    const IdTable &jobTypes() const { return job_types_; }

  private:
    std::vector<std::uint32_t> user_idx_;
    std::vector<std::uint8_t> interface_, terminal_, true_class_;
    std::vector<double> submit_, start_, end_;
    std::vector<std::int32_t> gpus_;
    std::vector<double> runtime_s_, wait_s_, gpu_hours_;
    std::array<std::vector<double>, num_resources> mean_util_, max_util_;
    IdTable users_;
    IdTable job_types_;
};

} // namespace aiwc::core
