#include <gtest/gtest.h>

#include "aiwc/sched/placement.hh"
#include "aiwc/sim/cluster_factory.hh"

namespace aiwc::sched
{
namespace
{

JobRequest
gpuRequest(int gpus, int slots = 4, double ram = 16.0)
{
    JobRequest req;
    req.id = 1;
    req.gpus = gpus;
    req.cpu_slots = slots;
    req.ram_gb = ram;
    return req;
}

JobRequest
cpuRequest(int slots, double ram = 350.0)
{
    JobRequest req;
    req.id = 2;
    req.gpus = 0;
    req.cpu_slots = slots;
    req.ram_gb = ram;
    return req;
}

TEST(Placement, SingleGpuJobFitsOneNode)
{
    sim::Cluster cluster(sim::miniSupercloudSpec(4));
    DensePlacement placement;
    const auto plan = placement.place(cluster, gpuRequest(1));
    ASSERT_TRUE(plan.has_value());
    ASSERT_EQ(plan->shares.size(), 1u);
    EXPECT_EQ(plan->shares[0].gpus.size(), 1u);
}

TEST(Placement, TwoGpuJobStaysOnOneNode)
{
    sim::Cluster cluster(sim::miniSupercloudSpec(4));
    DensePlacement placement;
    const auto plan = placement.place(cluster, gpuRequest(2));
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(plan->shares.size(), 1u);
}

TEST(Placement, FourGpuJobSpansNeighbours)
{
    sim::Cluster cluster(sim::miniSupercloudSpec(4));
    DensePlacement placement;
    auto plan = placement.place(cluster, gpuRequest(4, 8, 32.0));
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(plan->shares.size(), 2u);
    // Neighbouring node ids.
    EXPECT_EQ(plan->shares[1].node, plan->shares[0].node + 1);
    placement.commit(cluster, 1, *plan);
    EXPECT_EQ(plan->shares[0].gpus.size() + plan->shares[1].gpus.size(),
              4u);
    EXPECT_EQ(cluster.freeGpus(), 4);
}

TEST(Placement, CommitThenReleaseRestoresState)
{
    sim::Cluster cluster(sim::miniSupercloudSpec(2));
    DensePlacement placement;
    auto plan = placement.place(cluster, gpuRequest(2, 10, 64.0));
    ASSERT_TRUE(plan.has_value());
    placement.commit(cluster, 7, *plan);
    EXPECT_EQ(cluster.freeGpus(), 2);
    placement.release(cluster, *plan);
    EXPECT_EQ(cluster.freeGpus(), 4);
    EXPECT_EQ(cluster.freeCpuSlots(), 160);
}

TEST(Placement, GpuJobsPackOntoBusiestNode)
{
    // Two sequential single-GPU jobs should land on the same node,
    // keeping the other node whole for CPU jobs (Sec. III strategy).
    sim::Cluster cluster(sim::miniSupercloudSpec(2));
    DensePlacement placement;
    auto first = placement.place(cluster, gpuRequest(1));
    ASSERT_TRUE(first.has_value());
    placement.commit(cluster, 1, *first);
    auto second = placement.place(cluster, gpuRequest(1));
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->shares[0].node, first->shares[0].node);
}

TEST(Placement, RejectsWhenNoGpusFree)
{
    sim::Cluster cluster(sim::miniSupercloudSpec(1));
    DensePlacement placement;
    auto plan = placement.place(cluster, gpuRequest(2));
    ASSERT_TRUE(plan.has_value());
    placement.commit(cluster, 1, *plan);
    EXPECT_FALSE(placement.place(cluster, gpuRequest(1)).has_value());
}

TEST(Placement, CpuJobTakesWholeNode)
{
    sim::Cluster cluster(sim::miniSupercloudSpec(2));
    DensePlacement placement;
    auto plan = placement.place(cluster, cpuRequest(80));
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(plan->shares.size(), 1u);
    EXPECT_EQ(plan->shares[0].cpu_slots, 80);
    placement.commit(cluster, 3, *plan);
    EXPECT_EQ(cluster.node(plan->shares[0].node).freeCpuSlots(), 0);
}

TEST(Placement, MultiNodeCpuJob)
{
    sim::Cluster cluster(sim::miniSupercloudSpec(4));
    DensePlacement placement;
    const auto plan = placement.place(cluster, cpuRequest(240, 900.0));
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(plan->shares.size(), 3u);
}

TEST(Placement, CpuJobRefusesPartiallyBusyNodes)
{
    sim::Cluster cluster(sim::miniSupercloudSpec(1));
    DensePlacement placement;
    // A GPU job occupies a few slots; the whole-node CPU job must not
    // fit anymore.
    auto gpu_plan = placement.place(cluster, gpuRequest(1));
    ASSERT_TRUE(gpu_plan.has_value());
    placement.commit(cluster, 1, *gpu_plan);
    EXPECT_FALSE(placement.place(cluster, cpuRequest(80)).has_value());
}

TEST(Placement, CpuSlotsSplitProportionallyAcrossShares)
{
    sim::Cluster cluster(sim::miniSupercloudSpec(4));
    DensePlacement placement;
    const auto plan = placement.place(cluster, gpuRequest(4, 16, 64.0));
    ASSERT_TRUE(plan.has_value());
    int total_slots = 0;
    for (const auto &share : plan->shares)
        total_slots += share.cpu_slots;
    EXPECT_GE(total_slots, 16);  // ceil split may round up
    EXPECT_LE(total_slots, 18);
}


TEST(Placement, MultiNodeGpuJobNeedsCpuRoomOnEveryNode)
{
    // A 4-GPU job must spread over two nodes; if one of them cannot
    // host its CPU share, the plan falls through to a later window or
    // fails cleanly.
    sim::Cluster cluster(sim::miniSupercloudSpec(3));
    DensePlacement placement;
    // Fill node 1's CPU slots almost completely (no GPU claimed).
    cluster.node(1).allocateCpu(79, 10.0);
    // Request 4 GPUs (two nodes at 2 GPUs each) with a per-node CPU
    // share of 8 slots. Every contiguous two-node window contains
    // node 1, whose single free slot cannot host the share, so the
    // placement must fail cleanly rather than oversubscribe.
    const auto plan = placement.place(
        cluster, [] {
            JobRequest req;
            req.id = 1;
            req.gpus = 4;
            req.cpu_slots = 16;
            req.ram_gb = 32.0;
            return req;
        }());
    ASSERT_FALSE(plan.has_value());
    // Free the slots: now the window places.
    cluster.node(1).releaseCpu(79, 10.0);
    EXPECT_TRUE(placement
                    .place(cluster,
                           [] {
                               JobRequest req;
                               req.id = 2;
                               req.gpus = 4;
                               req.cpu_slots = 16;
                               req.ram_gb = 32.0;
                               return req;
                           }())
                    .has_value());
}

} // namespace
} // namespace aiwc::sched
