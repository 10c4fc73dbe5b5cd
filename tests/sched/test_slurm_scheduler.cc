#include <gtest/gtest.h>

#include <vector>

#include "aiwc/sched/slurm_scheduler.hh"
#include "aiwc/sim/cluster_factory.hh"

namespace aiwc::sched
{
namespace
{

JobRequest
makeJob(JobId id, Seconds submit, Seconds duration, int gpus,
        int cpu_slots = 4, double ram = 16.0)
{
    JobRequest req;
    req.id = id;
    req.user = 0;
    req.submit_time = submit;
    req.duration = duration;
    req.walltime_limit = duration * 4.0;
    req.gpus = gpus;
    req.cpu_slots = cpu_slots;
    req.ram_gb = ram;
    return req;
}

struct Fixture
{
    sim::Cluster cluster;
    sim::Simulation sim;
    SlurmScheduler scheduler;

    explicit Fixture(int nodes = 2, SchedulerOptions options = {})
        : cluster(sim::miniSupercloudSpec(nodes)),
          scheduler(sim, cluster, options)
    {
    }
};

TEST(SlurmScheduler, SingleJobRunsToCompletion)
{
    Fixture f;
    f.scheduler.submit(makeJob(1, 0.0, 600.0, 1));
    f.sim.run();
    const Job &job = f.scheduler.job(1);
    EXPECT_EQ(job.state, JobState::Finished);
    EXPECT_DOUBLE_EQ(job.runTime(), 600.0);
    EXPECT_GE(job.start_time, 0.0);
    EXPECT_EQ(job.terminal, TerminalState::Completed);
    EXPECT_EQ(f.scheduler.stats().finished, 1u);
}

TEST(SlurmScheduler, WaitIsAtLeastDispatchLatency)
{
    SchedulerOptions opts;
    opts.dispatch_latency = 2.5;
    Fixture f(2, opts);
    f.scheduler.submit(makeJob(1, 100.0, 60.0, 1));
    f.sim.run();
    EXPECT_DOUBLE_EQ(f.scheduler.job(1).waitTime(), 2.5);
}

TEST(SlurmScheduler, ResourcesReleasedAfterCompletion)
{
    Fixture f(1);
    f.scheduler.submit(makeJob(1, 0.0, 100.0, 2));
    f.sim.run();
    EXPECT_EQ(f.cluster.freeGpus(), 2);
    EXPECT_EQ(f.cluster.freeCpuSlots(), 80);
}

TEST(SlurmScheduler, QueuesWhenGpusBusy)
{
    Fixture f(1);  // 2 GPUs total
    f.scheduler.submit(makeJob(1, 0.0, 1000.0, 2));
    f.scheduler.submit(makeJob(2, 10.0, 100.0, 1));
    f.sim.run();
    const Job &second = f.scheduler.job(2);
    // Must wait for job 1 to finish (~1001.5).
    EXPECT_GT(second.start_time, 1000.0);
    EXPECT_EQ(second.state, JobState::Finished);
}

TEST(SlurmScheduler, TimeoutEnforcedAtWalltime)
{
    Fixture f;
    JobRequest req = makeJob(1, 0.0, 1000.0, 1);
    req.walltime_limit = 400.0;
    f.scheduler.submit(req);
    f.sim.run();
    const Job &job = f.scheduler.job(1);
    EXPECT_DOUBLE_EQ(job.runTime(), 400.0);
    EXPECT_EQ(job.terminal, TerminalState::TimedOut);
}

TEST(SlurmScheduler, PrologAndEpilogFire)
{
    Fixture f;
    std::vector<JobId> prologs, epilogs;
    f.scheduler.setProlog(
        [&](const Job &j) { prologs.push_back(j.request.id); });
    f.scheduler.setEpilog(
        [&](const Job &j) { epilogs.push_back(j.request.id); });
    f.scheduler.submit(makeJob(1, 0.0, 60.0, 1));
    f.scheduler.submit(makeJob(2, 5.0, 60.0, 1));
    f.sim.run();
    EXPECT_EQ(prologs.size(), 2u);
    EXPECT_EQ(epilogs.size(), 2u);
}

TEST(SlurmScheduler, PrologSeesAllocation)
{
    Fixture f;
    std::size_t allocated_gpus = 0;
    f.scheduler.setProlog([&](const Job &j) {
        for (const NodeShare &share : j.allocation.shares)
            allocated_gpus += share.gpus.size();
    });
    f.scheduler.submit(makeJob(1, 0.0, 60.0, 2));
    f.sim.run();
    EXPECT_EQ(allocated_gpus, 2u);
}

TEST(SlurmScheduler, RejectsInfeasibleRequests)
{
    Fixture f(1);
    // 4 GPUs can never exist on a 1-node (2-GPU) cluster.
    f.scheduler.submit(makeJob(1, 0.0, 60.0, 4));
    f.sim.run();
    EXPECT_EQ(f.scheduler.stats().submitted, 0u);
    EXPECT_EQ(f.scheduler.jobs().size(), 0u);
}

TEST(SlurmScheduler, GpuJobsOvertakeBlockedCpuHead)
{
    // A whole-node CPU job blocks the head while a GPU job slips
    // through the fast path thanks to its priority boost — the Fig. 3b
    // mechanism.
    SchedulerOptions opts;
    opts.backfill_interval = 60.0;
    Fixture f(1, opts);
    // Occupy most CPU slots so the whole-node job cannot start.
    f.scheduler.submit(makeJob(1, 0.0, 5000.0, 1, 40));
    // Whole-node CPU job: blocked until job 1 ends.
    JobRequest cpu = makeJob(2, 10.0, 100.0, 0, 80, 350.0);
    f.scheduler.submit(cpu);
    // GPU job arrives later but must not wait 5000 s.
    f.scheduler.submit(makeJob(3, 20.0, 100.0, 1, 4));
    f.sim.run();
    EXPECT_LT(f.scheduler.job(3).waitTime(), 60.0);
    EXPECT_GT(f.scheduler.job(2).waitTime(), 4000.0);
}

TEST(SlurmScheduler, BackfillLetsShortJobJumpLongQueue)
{
    SchedulerOptions opts;
    opts.backfill = true;
    opts.backfill_interval = 30.0;
    opts.gpu_priority_boost = 0.0;  // pure FCFS ordering
    Fixture f(1, opts);
    // Fill both GPUs with STAGGERED completions: job 1 frees its GPU
    // at ~10000 s, job 2 holds the other until ~20000 s.
    f.scheduler.submit(makeJob(1, 0.0, 10000.0, 1));
    f.scheduler.submit(makeJob(2, 0.0, 20000.0, 1));
    // Head of queue: wants 2 GPUs -> shadow time is job 2's end.
    f.scheduler.submit(makeJob(3, 10.0, 100.0, 2));
    // Short single-GPU job behind it: once job 1's GPU frees, it fits
    // now and (walltime 100 s) ends long before the shadow -> EASY
    // backfill lets it jump the blocked 2-GPU head.
    JobRequest short_job = makeJob(4, 20.0, 50.0, 1);
    short_job.walltime_limit = 100.0;
    f.scheduler.submit(short_job);
    f.sim.run();
    EXPECT_LT(f.scheduler.job(4).start_time,
              f.scheduler.job(3).start_time);
    EXPECT_TRUE(f.scheduler.job(4).backfilled);
}

TEST(SlurmScheduler, MultiGpuPriorityBoostOrdersQueue)
{
    SchedulerOptions opts;
    opts.gpu_priority_boost = 120.0;
    Fixture f(2, opts);
    // Saturate all four GPUs.
    f.scheduler.submit(makeJob(1, 0.0, 1000.0, 2));
    f.scheduler.submit(makeJob(2, 0.0, 1000.0, 2));
    // Single-GPU job queued first, 4-GPU job shortly after: the boost
    // (4 x 120 s vs 1 x 120 s seniority) puts the big job first once
    // resources free.
    f.scheduler.submit(makeJob(3, 10.0, 100.0, 1));
    f.scheduler.submit(makeJob(4, 20.0, 100.0, 4));
    f.sim.run();
    EXPECT_LT(f.scheduler.job(4).start_time,
              f.scheduler.job(3).start_time);
}

TEST(SlurmScheduler, StatsCountGpuHours)
{
    Fixture f;
    f.scheduler.submit(makeJob(1, 0.0, 3600.0, 2));
    f.sim.run();
    EXPECT_NEAR(f.scheduler.stats().gpu_hours, 2.0, 1e-9);
}

TEST(SlurmScheduler, ManyJobsAllComplete)
{
    Fixture f(4);
    constexpr int n = 200;
    for (int i = 0; i < n; ++i) {
        f.scheduler.submit(makeJob(static_cast<JobId>(i),
                                   static_cast<double>(i * 7), 300.0,
                                   1 + (i % 2)));
    }
    f.sim.run();
    EXPECT_EQ(f.scheduler.stats().finished, static_cast<std::size_t>(n));
    EXPECT_EQ(f.cluster.freeGpus(), 8);
    EXPECT_EQ(f.scheduler.queueDepth(), 0u);
    EXPECT_EQ(f.scheduler.runningJobs(), 0u);
    // Waits are non-negative and starts respect submits.
    for (const Job &job : f.scheduler.jobs()) {
        EXPECT_GE(job.waitTime(), 0.0);
        EXPECT_GE(job.runTime(), 0.0);
    }
}

} // namespace
} // namespace aiwc::sched
