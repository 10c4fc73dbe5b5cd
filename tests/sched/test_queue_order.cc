/**
 * @file
 * The scheduler keeps its queue in priority order two ways: without
 * fair-share each arrival is inserted after every equal key and no pass
 * sorts; with fair-share every pass stable-sorts by the live key. With a
 * fair-share weight of zero both paths order by the same keys, so a
 * load full of key ties must replay identically on either: the same
 * start times, allocations and backfill flags, and the same counters.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "aiwc/common/rng.hh"
#include "aiwc/obs/metrics.hh"
#include "aiwc/sched/slurm_scheduler.hh"
#include "aiwc/sim/cluster_factory.hh"

namespace aiwc::sched
{
namespace
{

constexpr std::array<const char *, 8> counter_names{
    "aiwc.sched.fast_passes",        "aiwc.sched.backfill_passes",
    "aiwc.sched.backfill_attempts",  "aiwc.sched.backfill_hits",
    "aiwc.sched.placement_failures", "aiwc.sched.placement_skips",
    "aiwc.sched.jobs_started",       "aiwc.sched.jobs_finished",
};

std::array<std::uint64_t, counter_names.size()>
counterValues()
{
    auto &registry = obs::MetricsRegistry::global();
    std::array<std::uint64_t, counter_names.size()> values{};
    for (std::size_t i = 0; i < counter_names.size(); ++i)
        values[i] = registry.counter(counter_names[i]).value();
    return values;
}

/**
 * Submit instants on a 30 s grid and GPU counts of 0, 1, 2 or 4: with
 * the 120 s per-GPU boost, many jobs share a priority key.
 */
std::vector<JobRequest>
tieHeavyLoad(std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<JobRequest> load;
    for (JobId id = 0; id < 600; ++id) {
        JobRequest req;
        req.id = id;
        req.user = static_cast<UserId>(rng.below(6));
        req.submit_time = 30.0 * static_cast<double>(rng.below(60));
        req.duration = rng.chance(0.5) ? 60.0 : rng.uniform(30.0, 3000.0);
        req.walltime_limit = req.duration * (rng.chance(0.5) ? 1.0 : 3.0);
        constexpr std::array<int, 4> gpu_counts{0, 1, 2, 4};
        req.gpus = gpu_counts[rng.below(gpu_counts.size())];
        if (req.gpus > 0) {
            req.cpu_slots = 4 * req.gpus;
            req.ram_gb = 16.0 * req.gpus;
        } else {
            const int nodes = 1 + static_cast<int>(rng.below(2));
            req.cpu_slots = 80 * nodes;
            req.ram_gb = 300.0 * nodes;
        }
        load.push_back(req);
    }
    return load;
}

struct Outcome
{
    std::vector<Job> jobs;
    SchedulerStats stats;
    std::array<std::uint64_t, counter_names.size()> counters{};
};

Outcome
replay(const std::vector<JobRequest> &load, bool fairshare)
{
    SchedulerOptions options;
    options.fairshare = fairshare;
    options.fairshare_weight = 0.0;

    sim::Cluster cluster(sim::miniSupercloudSpec(3));
    sim::Simulation sim;
    SlurmScheduler scheduler(sim, cluster, options);
    const auto before = counterValues();
    for (const JobRequest &req : load)
        scheduler.submit(req);
    sim.run();
    scheduler.auditInvariants();

    Outcome out;
    out.jobs = scheduler.jobs();
    out.stats = scheduler.stats();
    const auto after = counterValues();
    for (std::size_t i = 0; i < counter_names.size(); ++i)
        out.counters[i] = after[i] - before[i];
    return out;
}

TEST(QueueOrder, OrderedInsertMatchesPerPassSortOnTies)
{
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE(seed);
        const auto load = tieHeavyLoad(seed);
        const Outcome inserted = replay(load, /*fairshare=*/false);
        const Outcome sorted = replay(load, /*fairshare=*/true);

        // The load must exercise what it is meant to: queueing,
        // backfill, and whole-node CPU grants beside GPU jobs.
        ASSERT_EQ(inserted.stats.finished, load.size());
        EXPECT_GT(inserted.stats.backfilled, 0u);
        std::size_t waited = 0;
        for (const Job &job : inserted.jobs)
            waited += job.waitTime() > 60.0;
        EXPECT_GT(waited, load.size() / 2);

        ASSERT_EQ(inserted.jobs.size(), sorted.jobs.size());
        for (std::size_t i = 0; i < inserted.jobs.size(); ++i) {
            const Job &a = inserted.jobs[i];
            const Job &b = sorted.jobs[i];
            SCOPED_TRACE(a.request.id);
            EXPECT_EQ(a.start_time, b.start_time);
            EXPECT_EQ(a.backfilled, b.backfilled);
            ASSERT_EQ(a.allocation.shares.size(),
                      b.allocation.shares.size());
            for (std::size_t s = 0; s < a.allocation.shares.size(); ++s) {
                EXPECT_EQ(a.allocation.shares[s].node,
                          b.allocation.shares[s].node);
                EXPECT_EQ(a.allocation.shares[s].gpus,
                          b.allocation.shares[s].gpus);
            }
        }
        EXPECT_EQ(inserted.stats.started, sorted.stats.started);
        EXPECT_EQ(inserted.stats.backfilled, sorted.stats.backfilled);
        EXPECT_EQ(inserted.stats.gpu_hours, sorted.stats.gpu_hours);
        for (std::size_t i = 0; i < counter_names.size(); ++i)
            EXPECT_EQ(inserted.counters[i], sorted.counters[i])
                << counter_names[i];
    }
}

} // namespace
} // namespace aiwc::sched
