/**
 * @file
 * Job request and runtime record types shared by the workload
 * generator, the scheduler, and the telemetry collector.
 */

#pragma once

#include <vector>

#include "aiwc/common/types.hh"

namespace aiwc::sched
{

/**
 * What a user submits. The `duration` / `natural_end` pair is the
 * generator's ground truth for how the job *would* end if it never hit
 * its wall-time limit; the scheduler enforces the limit and derives the
 * observed terminal state — exactly the information asymmetry a real
 * scheduler faces.
 */
struct JobRequest
{
    JobId id = invalid_id;
    UserId user = invalid_id;
    Interface interface = Interface::Other;
    Lifecycle lifecycle = Lifecycle::Mature;  //!< ground-truth label

    Seconds submit_time = 0.0;
    Seconds walltime_limit = 24 * one_hour;  //!< requested limit
    Seconds duration = 0.0;                  //!< true run length
    TerminalState natural_end = TerminalState::Completed;

    int gpus = 0;          //!< 0 for CPU-only jobs
    int cpu_slots = 1;     //!< hyperthread slots requested
    double ram_gb = 4.0;   //!< host RAM requested

    bool isGpuJob() const { return gpus > 0; }

    /** Runtime the scheduler will observe (limit-clamped). */
    Seconds
    observedDuration() const
    {
        return duration < walltime_limit ? duration : walltime_limit;
    }

    /** Terminal state the scheduler will observe. */
    TerminalState
    observedEnd() const
    {
        return duration < walltime_limit ? natural_end
                                         : TerminalState::TimedOut;
    }
};

/** Per-node share of a job's allocation. */
struct NodeShare
{
    NodeId node = invalid_id;
    int cpu_slots = 0;
    double ram_gb = 0.0;
    std::vector<GpuId> gpus;
};

/** A concrete placement across one or more nodes. */
struct Allocation
{
    std::vector<NodeShare> shares;

    int totalGpus() const;
    int totalCpuSlots() const;
    bool empty() const { return shares.empty(); }

    /** Flattened list of all GPU ids across shares. */
    std::vector<GpuId> allGpus() const;
};

/** Scheduler-side lifetime states. */
enum class JobState : std::uint8_t
{
    Queued,
    Running,
    Finished,
};

/**
 * The scheduler's record of one job: the request plus everything the
 * Slurm log of the paper's dataset would contain about scheduling.
 */
struct Job
{
    JobRequest request;
    JobState state = JobState::Queued;

    Seconds start_time = -1.0;
    Seconds end_time = -1.0;
    TerminalState terminal = TerminalState::Completed;
    Allocation allocation;
    bool backfilled = false;  //!< started via backfill, not FCFS order

    /** Queue wait; only valid once started. */
    Seconds waitTime() const { return start_time - request.submit_time; }

    /** Observed runtime; only valid once finished. */
    Seconds runTime() const { return end_time - start_time; }

    /** Wait + run, the paper's "service time" (Fig. 3b). */
    Seconds serviceTime() const { return end_time - request.submit_time; }

    /** GPU-hours consumed (gpus x runtime). */
    double gpuHours() const;
};

} // namespace aiwc::sched

