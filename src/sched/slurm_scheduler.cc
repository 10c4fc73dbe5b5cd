#include "aiwc/sched/slurm_scheduler.hh"

#include <algorithm>
#include <cmath>

#include "aiwc/base/check.hh"
#include "aiwc/base/logging.hh"
#include "aiwc/obs/trace.hh"

namespace aiwc::sched
{

namespace
{

/** Cached registry handles for the scheduling hot path. */
struct SchedMetrics
{
    obs::Counter &fast_passes;
    obs::Counter &backfill_passes;
    obs::Counter &backfill_attempts;
    obs::Counter &backfill_hits;
    obs::Counter &placement_failures;
    obs::Counter &placement_skips;
    obs::Counter &jobs_started;
    obs::Counter &jobs_finished;
    obs::Histogram &pass_ns;
    obs::Histogram &queue_wait_s;

    static SchedMetrics &
    get()
    {
        auto &r = obs::MetricsRegistry::global();
        static SchedMetrics metrics{
            r.counter("aiwc.sched.fast_passes"),
            r.counter("aiwc.sched.backfill_passes"),
            r.counter("aiwc.sched.backfill_attempts"),
            r.counter("aiwc.sched.backfill_hits"),
            r.counter("aiwc.sched.placement_failures"),
            r.counter("aiwc.sched.placement_skips"),
            r.counter("aiwc.sched.jobs_started"),
            r.counter("aiwc.sched.jobs_finished"),
            r.histogram("aiwc.sched.pass_ns"),
            r.histogram("aiwc.sched.queue_wait_s"),
        };
        return metrics;
    }
};

} // namespace

SlurmScheduler::SlurmScheduler(sim::Simulation &sim, sim::Cluster &cluster,
                               SchedulerOptions options)
    : sim_(sim), cluster_(cluster), options_(options)
{
}

const Job &
SlurmScheduler::job(JobId id) const
{
    const auto it = index_.find(id);
    AIWC_CHECK(it != index_.end(), "unknown job id ", id);
    return jobs_[it->second];
}

void
SlurmScheduler::submit(const JobRequest &request)
{
    AIWC_CHECK(request.id != invalid_id, "job needs an id");
    AIWC_CHECK(index_.find(request.id) == index_.end(),
                "duplicate job id ", request.id);
    AIWC_CHECK(request.submit_time >= sim_.now(),
                "job ", request.id, " submitted in the past");
    AIWC_CHECK(request.gpus >= 0 && request.cpu_slots > 0,
                "job ", request.id, " has an empty resource request");

    // Reject requests no machine state can ever satisfy (Slurm does
    // this at submission); otherwise they would block the queue head
    // forever.
    const auto &spec = cluster_.spec();
    const bool feasible =
        request.gpus <= spec.totalGpus() &&
        request.cpu_slots <= spec.nodes * spec.node.cpuSlots() &&
        request.ram_gb <= spec.nodes * spec.node.ram_gb;
    if (!feasible) {
        warn("rejecting job ", request.id,
             ": request exceeds cluster capacity");
        return;
    }

    const std::size_t slot = jobs_.size();
    index_.emplace(request.id, slot);
    Job record;
    record.request = request;
    jobs_.push_back(std::move(record));
    ++stats_.submitted;

    if (request.submit_time > sim_.now()) {
        sim_.at(request.submit_time, [this, slot] { arrive(slot); });
    } else {
        arrive(slot);
    }
}

void
SlurmScheduler::arrive(std::size_t slot)
{
    const QueueEntry entry{staticKey(jobs_[slot]), slot};
    if (options_.fairshare) {
        queue_.push_back(entry);
    } else {
        // After every equal key: the order "append, then stable_sort"
        // gives, without the sort.
        const auto at = std::upper_bound(
            queue_.begin(), queue_.end(), entry,
            [](const QueueEntry &a, const QueueEntry &b) {
                return a.key < b.key;
            });
        queue_.insert(at, entry);
    }
    armFastPass();
    armBackfillPass();
}

void
SlurmScheduler::armFastPass()
{
    if (fast_pass_pending_)
        return;
    fast_pass_pending_ = true;
    sim_.after(options_.dispatch_latency, [this] {
        fast_pass_pending_ = false;
        schedulePass(/*with_backfill=*/false);
    });
}

void
SlurmScheduler::armBackfillPass()
{
    // Watchdog: a queue that outlives the workload by this much means
    // some request can never be placed — a scheduler bug, not load.
    if (sim_.now() > options_.wedge_watchdog_days * one_day &&
        !queue_.empty()) {
        const Job &head = jobs_[queue_.front().slot];
        panic("scheduler wedged: queue depth ", queue_.size(),
              ", running ", running_.size(), ", head job ",
              head.request.id, " gpus=", head.request.gpus,
              " slots=", head.request.cpu_slots,
              " ram=", head.request.ram_gb,
              " free_gpus=", cluster_.freeGpus(),
              " free_slots=", cluster_.freeCpuSlots());
    }
    if (backfill_pass_pending_ || !options_.backfill)
        return;
    backfill_pass_pending_ = true;
    sim_.after(options_.backfill_interval, [this] {
        backfill_pass_pending_ = false;
        schedulePass(/*with_backfill=*/true);
        // Keep the periodic pass alive while there is work to place.
        if (!queue_.empty())
            armBackfillPass();
    });
}

double
SlurmScheduler::decayedUsage(UserId user) const
{
    const auto it = usage_.find(user);
    if (it == usage_.end())
        return 0.0;
    auto &account = it->second;
    const double age = sim_.now() - account.as_of;
    if (age > 0.0) {
        account.decayed_gpu_seconds *=
            std::exp2(-age / options_.fairshare_half_life);
        account.as_of = sim_.now();
    }
    return account.decayed_gpu_seconds;
}

void
SlurmScheduler::chargeUsage(UserId user, double gpu_seconds)
{
    decayedUsage(user);  // bring the account up to date
    auto &account = usage_[user];
    account.decayed_gpu_seconds += gpu_seconds;
    account.as_of = sim_.now();
}

Seconds
SlurmScheduler::staticKey(const Job &job) const
{
    // FCFS by submit time, with multi-GPU seniority: each requested
    // GPU is worth gpu_priority_boost seconds of queue age.
    Seconds key =
        job.request.submit_time -
        options_.gpu_priority_boost * static_cast<double>(job.request.gpus);
    // SLA seniority (zero by default): latency-sensitive classes can
    // buy virtual queue age, scavenger classes can give it back.
    key -= options_.sla_boost[static_cast<std::size_t>(job.request.sla)];
    return key;
}

Seconds
SlurmScheduler::priorityKey(const Job &job) const
{
    Seconds key = staticKey(job);
    if (options_.fairshare) {
        // Heavy recent consumers age backwards: one decayed GPU-hour
        // costs fairshare_weight seconds of seniority.
        key += options_.fairshare_weight *
               decayedUsage(job.request.user) / 3600.0;
    }
    return key;
}

void
SlurmScheduler::schedulePass(bool with_backfill)
{
    if (queue_.empty())
        return;

    SchedMetrics &metrics = SchedMetrics::get();
    (with_backfill ? metrics.backfill_passes : metrics.fast_passes)
        .add(1);
    obs::ScopedTimer pass_timer(metrics.pass_ns,
                                with_backfill ? "sched.pass.backfill"
                                              : "sched.pass.fast");

    if (options_.fairshare) {
        // Usage decays between passes, so the keys move: re-sort.
        std::stable_sort(queue_.begin(), queue_.end(),
                         [this](const QueueEntry &a, const QueueEntry &b) {
                             return priorityKey(jobs_[a.slot]) <
                                    priorityKey(jobs_[b.slot]);
                         });
    }

    // Tallied here and published once at the end of the pass.
    int failures = 0, skips = 0, attempts = 0, hits = 0;
    // A request the O(1) capacity check rules out is not probed.
    const auto try_place = [&](const JobRequest &request) {
        if (!placement_.capacityAllows(cluster_, request)) {
            ++skips;
            return std::optional<Allocation>{};
        }
        return placement_.place(cluster_, request);
    };

    // Fast path: start queue-head jobs in priority order until the
    // first one that does not fit.
    while (!queue_.empty()) {
        const std::size_t head = queue_.front().slot;
        auto plan = try_place(jobs_[head].request);
        if (!plan) {
            ++failures;
            break;
        }
        queue_.pop_front();
        start(head, std::move(*plan), /*via_backfill=*/false);
    }

    if (with_backfill && !queue_.empty()) {
        // EASY backfill around the blocked head.
        const JobRequest &head = jobs_[queue_.front().slot].request;
        std::vector<RunningFootprint> running;
        running.reserve(running_.size());
        const int slots_per_node = cluster_.spec().node.cpuSlots();
        for (std::size_t slot : running_) {
            const Job &r = jobs_[slot];
            RunningFootprint fp;
            fp.expected_end = r.start_time + r.request.walltime_limit;
            fp.gpus = r.request.gpus;
            if (!r.request.isGpuJob()) {
                fp.whole_nodes =
                    (r.request.cpu_slots + slots_per_node - 1) /
                    slots_per_node;
            }
            running.push_back(fp);
        }
        const BackfillWindow window =
            computeWindow(cluster_, running, head, sim_.now());

        for (auto it = std::next(queue_.begin());
             it != queue_.end() && attempts < options_.backfill_depth;) {
            ++attempts;
            const std::size_t slot = it->slot;
            const JobRequest &candidate = jobs_[slot].request;
            if (!mayBackfill(window, candidate, cluster_.spec(),
                             sim_.now())) {
                ++it;
                continue;
            }
            auto plan = try_place(candidate);
            if (!plan) {
                ++failures;
                ++it;
                continue;
            }
            it = queue_.erase(it);
            ++hits;
            start(slot, std::move(*plan), /*via_backfill=*/true);
        }
    }

    metrics.placement_failures.add(static_cast<std::uint64_t>(failures));
    metrics.placement_skips.add(static_cast<std::uint64_t>(skips));
    metrics.backfill_attempts.add(static_cast<std::uint64_t>(attempts));
    metrics.backfill_hits.add(static_cast<std::uint64_t>(hits));
}

void
SlurmScheduler::start(std::size_t slot, Allocation plan, bool via_backfill)
{
    Job &record = jobs_[slot];
    const JobId id = record.request.id;
    AIWC_CHECK(record.state == JobState::Queued,
                "starting a non-queued job ", id);

    placement_.commit(cluster_, id, plan);
    record.allocation = std::move(plan);
    record.state = JobState::Running;
    record.start_time = sim_.now();
    record.backfilled = via_backfill;
    running_.push_back(slot);
    ++stats_.started;
    if (via_backfill)
        ++stats_.backfilled;

    SchedMetrics &metrics = SchedMetrics::get();
    metrics.jobs_started.add(1);
    // Queue wait in (integer) sim-seconds: the operator-facing wait
    // distribution, straight off the scheduler rather than recomputed
    // by the analyzers afterwards.
    metrics.queue_wait_s.observe(static_cast<std::uint64_t>(
        record.start_time - record.request.submit_time));

    // Slurm prolog fires as the job launches: this is where the paper
    // starts nvidia-smi / CPU time-series collection.
    if (prolog_)
        prolog_(record);

    sim_.after(record.request.observedDuration(),
               [this, slot] { finish(slot); });
}

void
SlurmScheduler::finish(std::size_t slot)
{
    Job &record = jobs_[slot];
    AIWC_CHECK(record.state == JobState::Running,
                "finishing a non-running job ", record.request.id);

    record.state = JobState::Finished;
    record.end_time = sim_.now();
    record.terminal = record.request.observedEnd();
    placement_.release(cluster_, record.allocation);

    const auto it = std::find(running_.begin(), running_.end(), slot);
    AIWC_CHECK(it != running_.end(), "finished job not in running set");
    running_.erase(it);

    ++stats_.finished;
    SchedMetrics::get().jobs_finished.add(1);
    stats_.gpu_hours += record.gpuHours();
    if (options_.fairshare) {
        chargeUsage(record.request.user,
                    record.gpuHours() * 3600.0);
    }

    // Slurm epilog: telemetry is stopped and spooled back here.
    if (epilog_)
        epilog_(record);

    if (!queue_.empty()) {
        armFastPass();
        armBackfillPass();
    }
}

void
SlurmScheduler::auditInvariants() const
{
    cluster_.auditInvariants();

    AIWC_CHECK_EQ(jobs_.size(), stats_.submitted,
                  "job ledger out of step with the submitted counter");
    AIWC_CHECK_EQ(stats_.started, running_.size() + stats_.finished,
                  "started jobs unaccounted for");
    std::size_t queued_state = 0, running_state = 0, finished_state = 0;
    for (const Job &record : jobs_) {
        switch (record.state) {
          case JobState::Queued: ++queued_state; break;
          case JobState::Running: ++running_state; break;
          case JobState::Finished: ++finished_state; break;
        }
    }
    AIWC_CHECK_EQ(running_state, running_.size(),
                  "Running-state jobs out of step with the running set");
    AIWC_CHECK_EQ(finished_state, stats_.finished,
                  "Finished-state jobs out of step with the counter");
    // Accepted jobs whose arrival event has not fired yet are Queued
    // but not in the queue deque, so this is an upper bound only.
    AIWC_CHECK_LE(queue_.size(), queued_state,
                  "queue deque holds non-Queued jobs");

    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        const Job &queued = jobs_[it->slot];
        const JobId id = queued.request.id;
        AIWC_CHECK(queued.state == JobState::Queued,
                   "queued job ", id, " is not in the Queued state");
        AIWC_CHECK(queued.allocation.empty(),
                   "queued job ", id, " already holds an allocation");
        AIWC_CHECK_EQ(it->key, staticKey(queued),
                      "queued job ", id, " carries a stale priority key");
        if (!options_.fairshare && it != queue_.begin())
            AIWC_CHECK_LE(std::prev(it)->key, it->key,
                          "queue out of priority order at job ", id);
    }

    // Every running job's allocation must be exactly backed by cluster
    // state; counting the allocated GPUs also catches the converse — a
    // busy GPU no running job accounts for (a leak).
    std::size_t allocated_gpus = 0;
    for (std::size_t slot : running_) {
        const Job &running_job = jobs_[slot];
        const JobId id = running_job.request.id;
        AIWC_CHECK(running_job.state == JobState::Running,
                   "job ", id, " in the running set is not Running");
        AIWC_CHECK(!running_job.allocation.empty(),
                   "running job ", id, " holds no allocation");
        AIWC_CHECK_GE(running_job.start_time, 0.0,
                      "running job ", id, " never started");
        for (const auto &share : running_job.allocation.shares) {
            const sim::Node &node = cluster_.node(share.node);
            AIWC_CHECK_GT(node.residentJobs(), 0,
                          "job ", id, " holds CPU on empty node ",
                          share.node);
            for (GpuId gid : share.gpus) {
                const sim::Gpu &gpu = cluster_.gpu(gid);
                AIWC_CHECK(gpu.busy(), "GPU ", gid, " allocated to job ",
                           id, " but idle in the cluster");
                AIWC_CHECK_EQ(gpu.job(), id,
                              "GPU ", gid, " backs a different job");
                AIWC_CHECK_EQ(cluster_.nodeOfGpu(gid), share.node,
                              "GPU ", gid, " lives off its share's node");
                ++allocated_gpus;
            }
        }
    }
    const int busy_gpus = cluster_.spec().totalGpus() - cluster_.freeGpus();
    AIWC_CHECK_EQ(static_cast<std::size_t>(busy_gpus), allocated_gpus,
                  "busy GPUs not covered by running allocations (leak)");
}

} // namespace aiwc::sched
