#include <gtest/gtest.h>

#include <sstream>

#include "aiwc/sim/cluster_factory.hh"

namespace aiwc::sim
{
namespace
{

TEST(ClusterFactory, MiniKeepsNodeShape)
{
    const ClusterSpec mini = miniSupercloudSpec(10);
    const ClusterSpec full = supercloudSpec();
    EXPECT_EQ(mini.nodes, 10);
    EXPECT_EQ(mini.node.cpuSlots(), full.node.cpuSlots());
    EXPECT_EQ(mini.node.gpus, full.node.gpus);
    EXPECT_DOUBLE_EQ(mini.node.ram_gb, full.node.ram_gb);
}

TEST(ClusterFactory, EconomyTierIsSlowerAndCheaper)
{
    ASSERT_GE(machineSpecCount(), 2u);
    const MachineSpec &economy = machineSpecTable()[1];
    const GpuSpec premium = supercloudSpec().node.gpu;
    EXPECT_LT(economy.gpu_relative_speed, premium.relative_speed);
    EXPECT_LT(economy.gpu_tdp_watts, premium.tdp_watts);
    EXPECT_LT(economy.gpu_memory_gb, premium.memory_gb);
}

TEST(ClusterFactory, PrintSpecContainsTableOneRows)
{
    std::ostringstream os;
    printSpec(supercloudSpec(), os);
    const std::string out = os.str();
    EXPECT_NE(out.find("224"), std::string::npos);   // nodes
    EXPECT_NE(out.find("448"), std::string::npos);   // GPUs
    EXPECT_NE(out.find("8960"), std::string::npos);  // cores
    EXPECT_NE(out.find("V100"), std::string::npos);
    EXPECT_NE(out.find("Omnipath"), std::string::npos);
    EXPECT_NE(out.find("873"), std::string::npos);   // shared storage
}

} // namespace
} // namespace aiwc::sim
