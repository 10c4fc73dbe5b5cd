/**
 * @file
 * The combined per-job record of the study dataset.
 *
 * The paper merges two sources by job id (Sec. II "Dataset
 * Description"): Slurm logs (scheduling, CPU-side) and nvidia-smi
 * profiles (GPU-side min/mean/max per metric). A JobRecord is exactly
 * that merged row, plus the optional detailed phase statistics that the
 * 100 ms time-series subset provides for ~2149 jobs.
 *
 * Every decision about how a JobRecord is written down lives here,
 * once: the per-GPU summary and phase blocks and the field check that
 * `.aiwt` and the svc wire frames share, the bounds every reader
 * enforces, and the CSV column list.
 */

#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

#include "aiwc/common/binary.hh"
#include "aiwc/common/types.hh"
#include "aiwc/stats/descriptive.hh"

namespace aiwc::core
{

/**
 * Largest GPU count one job may claim; the CSV, `.aiwt` and wire-frame
 * readers reject a job above it (the study tops out at 16).
 */
inline constexpr std::uint32_t max_gpus_per_job = 1024;

/** Largest cpu_slots one job may claim; every reader rejects more. */
inline constexpr int max_cpu_slots = std::numeric_limits<int>::max();

/** Per-GPU min/mean/max summaries of every monitored metric. */
struct GpuUsageSummary
{
    stats::RunningSummary sm;           //!< SM utilization, [0,1]
    stats::RunningSummary membw;        //!< memory bandwidth util, [0,1]
    stats::RunningSummary memsize;      //!< memory amount used, [0,1]
    stats::RunningSummary pcie_tx;      //!< PCIe Tx bandwidth util, [0,1]
    stats::RunningSummary pcie_rx;      //!< PCIe Rx bandwidth util, [0,1]
    stats::RunningSummary power_watts;  //!< board power draw

    /** Access a utilization summary by resource axis. */
    const stats::RunningSummary &byResource(Resource r) const;
    stats::RunningSummary &byResource(Resource r);

    /** True when the GPU never did meaningful work (idle GPU, Sec. V). */
    bool idle(double sm_threshold = 0.01) const;
};

/**
 * Bytes of the per-GPU block that `.aiwt` and the wire frames share:
 * the six RunningSummary raw states in Resource order, each a u64
 * count then f64 min, max, sum and sum_sq. Raw accumulators rather
 * than derived moments, so a summary crosses either format bit for bit.
 */
inline constexpr std::size_t gpu_summary_bytes = num_resources * (8 + 4 * 8);

/** Append `gpu` as one gpu_summary_bytes block. */
void writeGpuSummary(ByteWriter &w, const GpuUsageSummary &gpu);

/**
 * Read one writeGpuSummary block into `out`. Total: false when it is
 * truncated or holds a state RunningSummary::fromRawState would abort
 * on (count 0 with a nonzero accumulator, a non-finite accumulator,
 * or min > max).
 */
bool readGpuSummary(ByteReader &r, GpuUsageSummary &out);

/**
 * Detailed phase statistics derived from the 100 ms time series;
 * present only for jobs in the time-series subset (Figs. 6, 7a).
 */
struct PhaseStats
{
    /** Fraction of the run spent in active phases. */
    double active_fraction = 0.0;
    /** Lengths of each active interval, seconds. */
    std::vector<double> active_intervals;
    /** Lengths of each idle interval, seconds. */
    std::vector<double> idle_intervals;
    /** CoV (%) of SM / memBW / memSize samples during active phases. */
    double active_sm_cov = 0.0;
    double active_membw_cov = 0.0;
    double active_memsize_cov = 0.0;
};

/**
 * Append the binary phase block that `.aiwt` and the wire frames
 * share: f64 active_fraction, the three f64 CoVs, then the active and
 * the idle intervals, each a u32 count followed by that many f64s.
 */
void writePhaseStats(ByteWriter &w, const PhaseStats &phases);

/**
 * Bytes writePhaseStats appends for @p phases: four f64s and two u32
 * counts, then 8 B per interval.
 */
inline std::size_t
phaseStatsBytes(const PhaseStats &phases)
{
    return 40 + 8 * (phases.active_intervals.size() +
                     phases.idle_intervals.size());
}

/**
 * Read a writePhaseStats block into `out`. Total: nullptr on success,
 * else "invalid phase fraction" (truncated, or outside [0, 1]) or
 * "invalid phase intervals". The CoVs may be NaN (zero-mean CoV).
 */
const char *readPhaseStats(ByteReader &r, PhaseStats &out);

/** One row of the merged study dataset. */
struct JobRecord
{
    JobId id = invalid_id;
    UserId user = invalid_id;
    Interface interface = Interface::Other;
    TerminalState terminal = TerminalState::Completed;
    /** Generator ground truth; analyzers must not read it (tests do). */
    Lifecycle true_class = Lifecycle::Mature;

    Seconds submit_time = 0.0;
    Seconds start_time = 0.0;
    Seconds end_time = 0.0;
    Seconds walltime_limit = 0.0;

    int gpus = 0;  //!< 0 for CPU-only jobs
    int cpu_slots = 0;
    double ram_gb = 0.0;

    /** One summary per assigned GPU (empty for CPU jobs). */
    std::vector<GpuUsageSummary> per_gpu;

    /** Detailed phase stats; valid iff has_timeseries. */
    bool has_timeseries = false;
    PhaseStats phases;

    bool isGpuJob() const { return gpus > 0; }
    Seconds runTime() const { return end_time - start_time; }
    Seconds waitTime() const { return start_time - submit_time; }
    Seconds serviceTime() const { return end_time - submit_time; }
    double gpuHours() const { return gpus * runTime() / 3600.0; }

    /**
     * The paper's per-job single number for a utilization metric: the
     * average over the job's GPUs of the per-GPU mean (Sec. II
     * "General Methodology"). Zero for CPU jobs.
     */
    double meanUtilization(Resource r) const;

    /** Max over GPUs of the per-GPU max — bottleneck detection. */
    double maxUtilization(Resource r) const;

    /** Average across GPUs of mean power draw, watts. */
    double meanPowerWatts() const;

    /** Max across GPUs of max power draw, watts. */
    double maxPowerWatts() const;

    /** Number of this job's GPUs that stayed idle throughout. */
    int idleGpuCount(double sm_threshold = 0.01) const;
};

/**
 * The field check of a record that `.aiwt` or a wire frame decoded,
 * run before its per-GPU blocks are read. It rejects what would later
 * surface as a contract abort or a poisoned sketch: an enum out of
 * range, a `has_timeseries_byte` other than 0 or 1, a non-finite time
 * or ram_gb, gpus or `gpu_blocks` (the per-GPU blocks the record
 * declares) outside [0, max_gpus_per_job], and cpu_slots outside
 * [0, max_cpu_slots]. Decoders store the u32 counts with a plain cast
 * to int, so a count above INT_MAX arrives negative.
 * @return nullptr when the fields can be a job, else why not.
 */
const char *checkDecodedFields(const JobRecord &rec,
                               std::uint8_t has_timeseries_byte,
                               std::uint64_t gpu_blocks);

/**
 * The columns of the dataset CSV, in order. Dataset::writeCsv writes
 * this header and places each cell by csvColumn(); loadDatasetCsv
 * requires exactly these names and reads each cell by csvColumn().
 */
inline constexpr std::array<std::string_view, 20> csv_columns = {
    "job_id",       "user",         "interface",    "terminal",
    "submit_s",     "start_s",      "end_s",        "gpus",
    "cpu_slots",    "ram_gb",       "sm_mean",      "sm_max",
    "membw_mean",   "membw_max",    "memsize_mean", "memsize_max",
    "pcie_tx_mean", "pcie_rx_mean", "power_mean_w", "power_max_w"};

/** Index of `name` in csv_columns; any other name does not compile. */
consteval std::size_t
csvColumn(std::string_view name)
{
    const auto it = std::find(csv_columns.begin(), csv_columns.end(), name);
    if (it == csv_columns.end())
        throw "not a dataset CSV column";
    return static_cast<std::size_t>(it - csv_columns.begin());
}

} // namespace aiwc::core

