/**
 * @file
 * The combined per-job record of the study dataset.
 *
 * The paper merges two sources by job id (Sec. II "Dataset
 * Description"): Slurm logs (scheduling, CPU-side) and nvidia-smi
 * profiles (GPU-side min/mean/max per metric). A JobRecord is exactly
 * that merged row, plus the optional detailed phase statistics that the
 * 100 ms time-series subset provides for ~2149 jobs.
 */

#pragma once

#include <cstdint>
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

} // namespace aiwc::core

