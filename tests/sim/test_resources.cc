#include <gtest/gtest.h>

#include <vector>

#include "aiwc/base/check.hh"
#include "aiwc/common/rng.hh"
#include "aiwc/sim/cluster_factory.hh"
#include "aiwc/sim/resources.hh"

namespace aiwc::sim
{
namespace
{

ClusterSpec
tinySpec(int nodes = 2)
{
    return miniSupercloudSpec(nodes);
}

TEST(NodeSpec, CpuSlotsCountHyperthreads)
{
    const NodeSpec spec = supercloudSpec().node;
    EXPECT_EQ(spec.cpuSlots(), 80);  // 2 x 20 x 2
}

TEST(Gpu, AssignReleaseCycle)
{
    const GpuSpec spec;
    Gpu gpu(7, 3, spec);
    EXPECT_FALSE(gpu.busy());
    gpu.assign(42);
    EXPECT_TRUE(gpu.busy());
    EXPECT_EQ(gpu.job(), 42u);
    gpu.release();
    EXPECT_FALSE(gpu.busy());
}

TEST(Node, StartsFullyFree)
{
    Cluster cluster(tinySpec());
    const Node &node = cluster.node(0);
    EXPECT_EQ(node.freeCpuSlots(), 80);
    EXPECT_DOUBLE_EQ(node.freeRamGb(), 384.0);
    EXPECT_EQ(node.freeGpus(), 2);
    EXPECT_EQ(node.residentJobs(), 0);
}

TEST(Node, CpuAllocationAccounting)
{
    Cluster cluster(tinySpec());
    Node &node = cluster.node(0);
    EXPECT_TRUE(node.fitsCpu(40, 100.0));
    node.allocateCpu(40, 100.0);
    EXPECT_EQ(node.freeCpuSlots(), 40);
    EXPECT_DOUBLE_EQ(node.freeRamGb(), 284.0);
    EXPECT_EQ(node.residentJobs(), 1);
    EXPECT_FALSE(node.fitsCpu(41, 1.0));
    EXPECT_FALSE(node.fitsCpu(1, 300.0));
    node.releaseCpu(40, 100.0);
    EXPECT_EQ(node.freeCpuSlots(), 80);
    EXPECT_EQ(node.residentJobs(), 0);
}

TEST(Node, GpuAllocationReturnsGlobalIds)
{
    Cluster cluster(tinySpec());
    Node &node1 = cluster.node(1);
    const auto gpus = node1.allocateGpus(9, 2);
    ASSERT_EQ(gpus.size(), 2u);
    // Node 1 owns global GPUs 2 and 3.
    EXPECT_EQ(gpus[0], 2u);
    EXPECT_EQ(gpus[1], 3u);
    EXPECT_EQ(node1.freeGpus(), 0);
    node1.releaseGpu(gpus[0]);
    EXPECT_EQ(node1.freeGpus(), 1);
    node1.releaseGpu(gpus[1]);
    EXPECT_EQ(node1.freeGpus(), 2);
}

TEST(Cluster, AggregateCapacities)
{
    Cluster cluster(tinySpec(3));
    EXPECT_EQ(cluster.numNodes(), 3u);
    EXPECT_EQ(cluster.freeGpus(), 6);
    EXPECT_EQ(cluster.freeCpuSlots(), 240);
}

TEST(Cluster, NodeOfGpuMapsCorrectly)
{
    Cluster cluster(tinySpec(4));
    EXPECT_EQ(cluster.nodeOfGpu(0), 0u);
    EXPECT_EQ(cluster.nodeOfGpu(1), 0u);
    EXPECT_EQ(cluster.nodeOfGpu(2), 1u);
    EXPECT_EQ(cluster.nodeOfGpu(7), 3u);
}

// ---------------------------------------------------------------------
// Contract-violation regression tests: every resource-accounting misuse
// path must fail loudly through the overridable AIWC_CHECK handler and
// leave the pre-misuse state intact (check-before-mutate).
// ---------------------------------------------------------------------

TEST(GpuContract, DoubleAssignFails)
{
    ScopedCheckFailHandler guard;
    const GpuSpec spec;
    Gpu gpu(0, 0, spec);
    gpu.assign(11);
    EXPECT_THROW(gpu.assign(12), ContractViolation);
    // The original owner survives the rejected double-assign.
    EXPECT_EQ(gpu.job(), 11u);
}

TEST(GpuContract, AssignInvalidJobIdFails)
{
    ScopedCheckFailHandler guard;
    const GpuSpec spec;
    Gpu gpu(0, 0, spec);
    EXPECT_THROW(gpu.assign(invalid_id), ContractViolation);
    EXPECT_FALSE(gpu.busy());
}

TEST(GpuContract, ReleaseIdleGpuFails)
{
    ScopedCheckFailHandler guard;
    const GpuSpec spec;
    Gpu gpu(0, 0, spec);
    EXPECT_THROW(gpu.release(), ContractViolation);
    gpu.assign(5);
    gpu.release();
    // Second release of the same GPU: the classic double-release.
    EXPECT_THROW(gpu.release(), ContractViolation);
}

TEST(NodeContract, CpuSlotOverReleaseFails)
{
    ScopedCheckFailHandler guard;
    Cluster cluster(tinySpec());
    Node &node = cluster.node(0);
    node.allocateCpu(10, 16.0);
    // Returning more slots than were ever taken must not leak capacity.
    EXPECT_THROW(node.releaseCpu(80, 16.0), ContractViolation);
    EXPECT_EQ(node.freeCpuSlots(), 70);
    EXPECT_EQ(node.residentJobs(), 1);
    node.releaseCpu(10, 16.0);
    EXPECT_EQ(node.freeCpuSlots(), 80);
}

TEST(NodeContract, RamOverReleaseFails)
{
    ScopedCheckFailHandler guard;
    Cluster cluster(tinySpec());
    Node &node = cluster.node(0);
    node.allocateCpu(10, 16.0);
    EXPECT_THROW(node.releaseCpu(10, 384.0), ContractViolation);
    EXPECT_DOUBLE_EQ(node.freeRamGb(), 368.0);
    node.releaseCpu(10, 16.0);
}

TEST(NodeContract, ReleaseWithNoResidentJobsFails)
{
    ScopedCheckFailHandler guard;
    Cluster cluster(tinySpec());
    Node &node = cluster.node(0);
    EXPECT_THROW(node.releaseCpu(1, 1.0), ContractViolation);
    EXPECT_EQ(node.residentJobs(), 0);
    EXPECT_EQ(node.freeCpuSlots(), 80);
}

TEST(NodeContract, NegativeAllocationAndReleaseFail)
{
    ScopedCheckFailHandler guard;
    Cluster cluster(tinySpec());
    Node &node = cluster.node(0);
    EXPECT_THROW(node.allocateCpu(-1, 1.0), ContractViolation);
    EXPECT_THROW(node.allocateCpu(1, -1.0), ContractViolation);
    node.allocateCpu(4, 8.0);
    EXPECT_THROW(node.releaseCpu(-1, 0.0), ContractViolation);
    EXPECT_THROW(node.releaseCpu(0, -1.0), ContractViolation);
    node.releaseCpu(4, 8.0);
}

TEST(NodeContract, CpuOverAllocationFails)
{
    ScopedCheckFailHandler guard;
    Cluster cluster(tinySpec());
    Node &node = cluster.node(0);
    node.allocateCpu(80, 100.0);
    EXPECT_THROW(node.allocateCpu(1, 1.0), ContractViolation);
    EXPECT_EQ(node.freeCpuSlots(), 0);
    EXPECT_EQ(node.residentJobs(), 1);
}

TEST(NodeContract, ReleaseUnknownGpuIdFails)
{
    ScopedCheckFailHandler guard;
    Cluster cluster(tinySpec());
    Node &node0 = cluster.node(0);
    // Global GPU 2 lives on node 1, not node 0.
    EXPECT_THROW(node0.releaseGpu(2), ContractViolation);
    EXPECT_THROW(node0.releaseGpu(999), ContractViolation);
    EXPECT_EQ(node0.freeGpus(), 2);
}

TEST(NodeContract, GpuOverAllocationFails)
{
    ScopedCheckFailHandler guard;
    Cluster cluster(tinySpec());
    Node &node = cluster.node(0);
    EXPECT_THROW(node.allocateGpus(3, 3), ContractViolation);
    EXPECT_THROW(node.allocateGpus(3, -1), ContractViolation);
    EXPECT_EQ(node.freeGpus(), 2);
}

TEST(ClusterContract, NodeIdOutOfRangeFails)
{
    ScopedCheckFailHandler guard;
    Cluster cluster(tinySpec());
    EXPECT_THROW(cluster.node(2), ContractViolation);
    EXPECT_THROW(cluster.nodeOfGpu(99), ContractViolation);
}

TEST(ClusterAudit, FreshClusterPassesAudit)
{
    Cluster cluster(tinySpec(4));
    cluster.auditInvariants();
    SUCCEED();
}

TEST(ClusterAudit, BusyClusterPassesAudit)
{
    Cluster cluster(tinySpec(4));
    cluster.node(0).allocateCpu(8, 16.0);
    cluster.node(0).allocateGpus(1, 2);
    cluster.node(2).allocateCpu(80, 384.0);
    cluster.auditInvariants();
    cluster.node(0).releaseGpu(0);
    cluster.node(0).releaseGpu(1);
    cluster.node(0).releaseCpu(8, 16.0);
    cluster.node(2).releaseCpu(80, 384.0);
    cluster.auditInvariants();
    EXPECT_EQ(cluster.freeGpus(), 8);
}

TEST(ClusterAudit, DetectsBusyGpuOnEmptyNode)
{
    ScopedCheckFailHandler guard;
    Cluster cluster(tinySpec());
    // A GPU held with no CPU-side resident job violates the commit
    // protocol (GPU jobs always claim CPU slots too).
    cluster.node(0).gpus()[0].assign(42);
    EXPECT_THROW(cluster.auditInvariants(), ContractViolation);
}

TEST(ClusterAudit, GpuLookupReturnsMappedGpu)
{
    Cluster cluster(tinySpec(3));
    EXPECT_EQ(cluster.gpu(4).id(), 4u);
    EXPECT_EQ(cluster.gpu(4).node(), 2u);
    ScopedCheckFailHandler guard;
    EXPECT_THROW(cluster.gpu(6), ContractViolation);
}

TEST(NodeAudit, DetectsGpuFlippedBehindTheFreeCount)
{
    ScopedCheckFailHandler guard;
    Cluster cluster(tinySpec());
    Node &node = cluster.node(0);
    node.allocateCpu(4, 8.0);  // resident, so only the recount can fire
    node.gpus()[0].assign(42);
    EXPECT_EQ(node.freeGpus(), 2);
    EXPECT_THROW(node.auditInvariants(), ContractViolation);
}

TEST(ClusterSummary, MatchesRecountUnderRandomAllocation)
{
    // Random allocate/release steps in any order, including zero-slot
    // CPU claims and GPUs held without CPU: after every step the cached
    // counts must equal a brute-force recount.
    struct CpuHold
    {
        NodeId node;
        int slots;
        double ram;
    };
    struct GpuHold
    {
        NodeId node;
        GpuId gpu;
    };
    Cluster cluster(tinySpec(4));
    const int slots_per_node = cluster.spec().node.cpuSlots();
    Rng rng(2024);
    std::vector<CpuHold> cpu;
    std::vector<GpuHold> gpu;
    JobId next_job = 1;
    for (int step = 0; step < 4000; ++step) {
        const auto n = static_cast<NodeId>(rng.below(cluster.numNodes()));
        Node &node = cluster.node(n);
        switch (rng.below(4)) {
          case 0: {
            const int slots =
                rng.chance(0.3)
                    ? node.freeCpuSlots()
                    : static_cast<int>(rng.below(
                          static_cast<std::uint64_t>(node.freeCpuSlots()) +
                          1));
            const double ram = node.freeRamGb() * rng.uniform(0.0, 0.5);
            node.allocateCpu(slots, ram);
            cpu.push_back({n, slots, ram});
            break;
          }
          case 1: {
            if (node.freeGpus() == 0)
                break;
            const int count = 1 + static_cast<int>(rng.below(
                                      static_cast<std::uint64_t>(
                                          node.freeGpus())));
            for (GpuId id : node.allocateGpus(next_job++, count))
                gpu.push_back({n, id});
            break;
          }
          case 2: {
            if (gpu.empty())
                break;
            const auto i = rng.below(gpu.size());
            cluster.node(gpu[i].node).releaseGpu(gpu[i].gpu);
            gpu.erase(gpu.begin() + static_cast<std::ptrdiff_t>(i));
            break;
          }
          default: {
            if (cpu.empty())
                break;
            const auto i = rng.below(cpu.size());
            cluster.node(cpu[i].node).releaseCpu(cpu[i].slots, cpu[i].ram);
            cpu.erase(cpu.begin() + static_cast<std::ptrdiff_t>(i));
            break;
          }
        }

        int free_gpus = 0, idle_nodes = 0;
        for (const Node &each : cluster.nodes()) {
            int here = 0;
            for (const Gpu &g : each.gpus())
                here += !g.busy();
            ASSERT_EQ(each.freeGpus(), here) << "node " << each.id();
            free_gpus += here;
            idle_nodes += each.freeCpuSlots() == slots_per_node;
        }
        ASSERT_EQ(cluster.freeGpus(), free_gpus) << "step " << step;
        ASSERT_EQ(cluster.idleNodes(), idle_nodes) << "step " << step;
    }
    EXPECT_FALSE(cpu.empty());
    EXPECT_FALSE(gpu.empty());
}

TEST(ClusterSpec, SupercloudTotalsMatchTableOne)
{
    const ClusterSpec spec = supercloudSpec();
    EXPECT_EQ(spec.nodes, 224);
    EXPECT_EQ(spec.totalGpus(), 448);
    EXPECT_EQ(spec.totalCpuCores(), 8960);
    EXPECT_DOUBLE_EQ(spec.node.ram_gb, 384.0);
    EXPECT_DOUBLE_EQ(spec.node.gpu.memory_gb, 32.0);
    EXPECT_DOUBLE_EQ(spec.node.gpu.tdp_watts, 300.0);
}

} // namespace
} // namespace aiwc::sim
