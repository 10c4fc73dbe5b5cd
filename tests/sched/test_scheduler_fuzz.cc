/**
 * @file
 * Failure-injection and fuzz coverage for the scheduler: random job
 * streams with adversarial shapes (instant jobs, capacity-exact
 * requests, RAM-heavy requests, simultaneous bursts) must preserve
 * the core invariants — conservation, monotone times, resource
 * exclusivity, and full drain.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "aiwc/common/rng.hh"
#include "aiwc/sched/slurm_scheduler.hh"
#include "aiwc/sim/cluster_factory.hh"

namespace aiwc::sched
{
namespace
{

struct Fuzzer
{
    sim::Cluster cluster;
    sim::Simulation sim;
    SlurmScheduler scheduler;
    Rng rng;

    Fuzzer(int nodes, std::uint64_t seed)
        : cluster(sim::miniSupercloudSpec(nodes)),
          scheduler(sim, cluster), rng(seed)
    {
    }

    JobRequest
    randomJob(JobId id)
    {
        JobRequest req;
        req.id = id;
        req.user = static_cast<UserId>(rng.below(8));
        req.submit_time = rng.uniform(0.0, 40000.0);
        // Adversarial duration mix: instants, exact walltime hits,
        // and long runs.
        switch (rng.below(4)) {
          case 0: req.duration = 1.0; break;
          case 1: req.duration = rng.uniform(1.0, 120.0); break;
          case 2: req.duration = rng.uniform(120.0, 20000.0); break;
          default: req.duration = 40000.0; break;
        }
        req.walltime_limit = rng.chance(0.2)
                                 ? req.duration  // exact timeout hit
                                 : req.duration * rng.uniform(1.0, 4.0);
        if (rng.chance(0.6)) {
            req.gpus = 1 + static_cast<int>(rng.below(4));
            req.cpu_slots = req.gpus * (1 + static_cast<int>(
                                                rng.below(16)));
            req.ram_gb = rng.uniform(1.0, 192.0);
        } else {
            req.gpus = 0;
            // Whole nodes, sometimes the entire cluster's worth.
            const auto nodes = static_cast<int>(cluster.numNodes());
            const int want = 1 + static_cast<int>(rng.below(
                                     static_cast<std::uint64_t>(nodes)));
            req.cpu_slots = want * 80;
            req.ram_gb = want * rng.uniform(100.0, 384.0);
        }
        return req;
    }
};

class SchedulerFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SchedulerFuzz, InvariantsHoldUnderRandomLoad)
{
    Fuzzer f(3, GetParam());
    constexpr int jobs = 400;
    for (JobId id = 0; id < jobs; ++id)
        f.scheduler.submit(f.randomJob(id));
    f.sim.run();

    const auto &stats = f.scheduler.stats();
    // Conservation: everything accepted eventually finished.
    EXPECT_EQ(stats.started, stats.finished);
    EXPECT_EQ(stats.submitted, stats.finished);
    EXPECT_EQ(f.scheduler.queueDepth(), 0u);
    EXPECT_EQ(f.scheduler.runningJobs(), 0u);

    // All resources returned.
    EXPECT_EQ(f.cluster.freeGpus(), 6);
    EXPECT_EQ(f.cluster.freeCpuSlots(), 240);
    for (const auto &node : f.cluster.nodes()) {
        EXPECT_EQ(node.residentJobs(), 0);
        EXPECT_DOUBLE_EQ(node.freeRamGb(), 384.0);
    }

    // Per-job invariants.
    struct Edge
    {
        Seconds t;
        int delta;
    };
    std::vector<Edge> edges;
    for (const Job &job : f.scheduler.jobs()) {
        EXPECT_EQ(job.state, JobState::Finished);
        EXPECT_GE(job.waitTime(), 0.0);
        EXPECT_GT(job.runTime(), 0.0);
        EXPECT_LE(job.runTime(), job.request.walltime_limit + 1e-9);
        if (job.request.duration >= job.request.walltime_limit) {
            EXPECT_EQ(job.terminal, TerminalState::TimedOut);
        }
        if (job.request.isGpuJob()) {
            std::size_t gpus = 0;
            for (const NodeShare &share : job.allocation.shares)
                gpus += share.gpus.size();
            EXPECT_EQ(gpus, static_cast<std::size_t>(job.request.gpus));
            edges.push_back({job.start_time, job.request.gpus});
            edges.push_back({job.end_time, -job.request.gpus});
        }
    }

    // GPU exclusivity over time.
    std::sort(edges.begin(), edges.end(),
              [](const Edge &a, const Edge &b) {
                  if (a.t != b.t)
                      return a.t < b.t;
                  return a.delta < b.delta;
              });
    int in_use = 0;
    for (const auto &e : edges) {
        in_use += e.delta;
        EXPECT_LE(in_use, 6);
        EXPECT_GE(in_use, 0);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerFuzz,
                         ::testing::Values(1u, 7u, 23u, 99u, 1234u));

TEST(SchedulerFuzz, SimultaneousBurstDrains)
{
    // A 200-job array landing at one instant on a tiny cluster.
    Fuzzer f(1, 5);
    for (JobId id = 0; id < 200; ++id) {
        JobRequest req;
        req.id = id;
        req.user = 0;
        req.submit_time = 100.0;
        req.duration = 50.0;
        req.walltime_limit = 200.0;
        req.gpus = 1;
        req.cpu_slots = 4;
        req.ram_gb = 8.0;
        f.scheduler.submit(req);
    }
    f.sim.run();
    EXPECT_EQ(f.scheduler.stats().finished, 200u);
    // Two GPUs, 50 s jobs: the burst takes ~100 serial rounds.
    double last_end = 0.0;
    for (const Job &job : f.scheduler.jobs())
        last_end = std::max(last_end, job.end_time);
    EXPECT_GT(last_end, 100.0 + 99 * 50.0);
}

TEST(SchedulerFuzz, ZeroLengthQueuePhaseAfterwardsReusable)
{
    // The scheduler must accept new submissions after going idle.
    Fuzzer f(1, 11);
    JobRequest first;
    first.id = 0;
    first.user = 0;
    first.submit_time = 0.0;
    first.duration = 10.0;
    first.walltime_limit = 100.0;
    first.gpus = 1;
    first.cpu_slots = 2;
    first.ram_gb = 4.0;
    f.scheduler.submit(first);
    f.sim.run();
    EXPECT_EQ(f.scheduler.stats().finished, 1u);

    JobRequest second = first;
    second.id = 1;
    second.submit_time = f.sim.now() + 5.0;
    f.scheduler.submit(second);
    f.sim.run();
    EXPECT_EQ(f.scheduler.stats().finished, 2u);
}

} // namespace
} // namespace aiwc::sched
