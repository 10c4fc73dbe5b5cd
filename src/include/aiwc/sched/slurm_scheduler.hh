/**
 * @file
 * The Slurm-like workload manager of the reproduction.
 *
 * Models the Supercloud configuration described in Sec. II: a single
 * job queue regardless of function/size, CPU-resource co-location of
 * GPU jobs on shared nodes, exclusive GPUs, dense placement, high
 * effective priority for multi-GPU jobs, EASY backfill, wall-time
 * enforcement, and prolog/epilog hooks that the telemetry substrate
 * attaches to (monitoring starts at prolog, data is collected at
 * epilog — exactly the paper's instrumentation design).
 */

#pragma once

#include <array>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "aiwc/sched/backfill.hh"
#include "aiwc/sched/job.hh"
#include "aiwc/sched/placement.hh"
#include "aiwc/sim/resources.hh"
#include "aiwc/sim/simulation.hh"

namespace aiwc::sched
{

/** Tunables of the scheduler. */
struct SchedulerOptions
{
    /**
     * Effective-priority boost per requested GPU, in seconds of queue
     * age. Multi-GPU jobs are "scheduled quickly with a high priority"
     * (Sec. V); each GPU buys this much virtual seniority. GPU jobs in
     * general sort ahead of whole-node CPU requests, which is what
     * keeps 70% of GPU jobs under a minute of wait (Fig. 3b).
     */
    Seconds gpu_priority_boost = 120.0;

    /**
     * Latency of the event-driven fast scheduling path (Slurm runs a
     * quick pass on submit/completion); the minimum wait any job sees.
     */
    Seconds dispatch_latency = 1.5;

    /** Enable the periodic EASY backfill pass. */
    bool backfill = true;

    /**
     * Period of the backfill pass. The fast path stops at the first
     * blocked job, so anything stuck behind a blocked whole-node
     * request waits at least this long — the source of the multi-
     * minute CPU-job waits of Fig. 3b.
     */
    Seconds backfill_interval = 60.0;

    /** Maximum queue positions a backfill pass may scan. */
    int backfill_depth = 256;

    /**
     * Fair-share priority: when enabled, a user's recent GPU-seconds
     * (exponentially decayed with `fairshare_half_life`) age their
     * queued jobs backwards by `fairshare_weight` seconds per decayed
     * GPU-hour — heavy consumers yield to light ones, as Slurm's
     * multifactor plugin does. Off by default (the studied system ran
     * a single plain queue).
     */
    bool fairshare = false;
    Seconds fairshare_half_life = 24.0 * 3600.0;
    Seconds fairshare_weight = 60.0;

    /**
     * SLA-class priority boost, in seconds of virtual queue age per
     * class (indexed by SlaClass). All zeros by default — the studied
     * system ran a single plain queue — so scheduling is byte-identical
     * unless a heterogeneous scenario opts in: latency-sensitive work
     * buys seniority with a positive boost, scavenger work yields with
     * a negative one.
     */
    std::array<Seconds, num_sla_classes> sla_boost{};

    /**
     * Watchdog horizon: if jobs are still queued this long after
     * simulation start, something can never be placed and the event
     * loop would spin forever — panic with diagnostics instead.
     */
    double wedge_watchdog_days = 500.0;
};

/** Aggregate counters the operator dashboards would show. */
struct SchedulerStats
{
    std::size_t submitted = 0;
    std::size_t started = 0;
    std::size_t finished = 0;
    std::size_t backfilled = 0;
    double gpu_hours = 0.0;
};

/**
 * The scheduler. Owns every Job record from submission to completion
 * and exposes them for analysis after the simulation drains.
 */
class SlurmScheduler
{
  public:
    using JobHook = std::function<void(const Job &)>;

    SlurmScheduler(sim::Simulation &sim, sim::Cluster &cluster,
                   SchedulerOptions options = {});

    /**
     * Submit a job. May be called before its submit_time with an
     * arrival event scheduled automatically, or at exactly now().
     */
    void submit(const JobRequest &request);

    /** Called at job start, before resources are charged a tick. */
    void setProlog(JobHook hook) { prolog_ = std::move(hook); }

    /** Called at job end, after resources are released. */
    void setEpilog(JobHook hook) { epilog_ = std::move(hook); }

    /** All job records, including still-queued and running ones. */
    const std::vector<Job> &jobs() const { return jobs_; }

    /** Lookup by job id. */
    const Job &job(JobId id) const;

    /** Jobs currently waiting. */
    std::size_t queueDepth() const { return queue_.size(); }

    /** Jobs currently running. */
    std::size_t runningJobs() const { return running_.size(); }

    const SchedulerStats &stats() const { return stats_; }

    /**
     * Deep audit of scheduler <-> cluster agreement: every running
     * job's allocation is exactly backed by cluster state (each
     * allocated GPU is busy with precisely that job, no busy GPU is
     * unaccounted for), queued jobs are still Queued, the bookkeeping
     * counters balance (submitted = queued + running + finished), and
     * the cluster's own conservation invariants hold. Any violation
     * fails an AIWC_CHECK. O(jobs + gpus); intended for tests and the
     * Debug-build end-of-run self-check.
     */
    void auditInvariants() const;

  private:
    /** A waiting job: its static priority key and its slot in jobs_. */
    struct QueueEntry
    {
        Seconds key;
        std::size_t slot;
    };

    /** Arrival: enqueue the job in jobs_[slot] and try to schedule. */
    void arrive(std::size_t slot);

    /**
     * One scheduling pass over the priority-ordered queue.
     * @param with_backfill also run the EASY backfill scan.
     */
    void schedulePass(bool with_backfill);

    /** Arm the fast-path pass if not already pending. */
    void armFastPass();

    /** Arm the periodic backfill pass if not already pending. */
    void armBackfillPass();

    /** Start the job in jobs_[slot] with the given placement plan. */
    void start(std::size_t slot, Allocation plan, bool via_backfill);

    /** Completion event: release resources, record the record. */
    void finish(std::size_t slot);

    /**
     * The part of the priority key fixed at submission: submit time
     * minus the GPU and SLA boosts.
     */
    Seconds staticKey(const Job &job) const;

    /**
     * Priority key, smaller runs earlier: the static key plus the
     * fair-share term, if on.
     */
    Seconds priorityKey(const Job &job) const;

    /** Decayed GPU-seconds a user has consumed (fair-share input). */
    double decayedUsage(UserId user) const;

    /** Charge finished work to the user's fair-share account. */
    void chargeUsage(UserId user, double gpu_seconds);

    sim::Simulation &sim_;
    sim::Cluster &cluster_;
    SchedulerOptions options_;
    DensePlacement placement_;

    std::vector<Job> jobs_;
    std::unordered_map<JobId, std::size_t> index_;
    /**
     * Arrived jobs in priority order. Without fair-share a key never
     * changes, so arrive() inserts after every equal key and no pass
     * sorts; with fair-share, keys move with usage, so arrive() appends
     * and every pass stable-sorts by priorityKey().
     */
    std::deque<QueueEntry> queue_;
    /** Slots in jobs_ of the running jobs. */
    std::vector<std::size_t> running_;

    JobHook prolog_;
    JobHook epilog_;
    SchedulerStats stats_;
    bool fast_pass_pending_ = false;
    bool backfill_pass_pending_ = false;

    /** Fair-share ledger: decayed usage + last decay timestamp. */
    struct UsageAccount
    {
        double decayed_gpu_seconds = 0.0;
        Seconds as_of = 0.0;
    };
    mutable std::unordered_map<UserId, UsageAccount> usage_;
};

} // namespace aiwc::sched

