/**
 * @file
 * Machine/task class spec tests: normalize() must turn any hostile
 * class into a simulatable one (the parser's totality leans on it),
 * the clamped accessors must never index out of their tables, and the
 * sim bridge must reproduce the checked-in Supercloud constants —
 * the MachineSpec table is now the single source of the Table-I
 * numbers, so this pins them.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "aiwc/scenario/spec.hh"
#include "aiwc/sim/cluster_factory.hh"

namespace aiwc::scenario
{
namespace
{

TEST(SpecNormalize, HostileMachineClassBecomesSimulatable)
{
    MachineClassSpec m;
    m.count = -5;
    m.cores = 0;
    m.memory_gb = -1.0;
    m.gpus = -3;
    m.gpu_relative_speed = 0.0;
    m.s_state_watts.clear();
    m.s_wake_seconds.clear();
    m.p_state_watts.clear();
    m.c_state_watts.clear();
    m.mips = {0.0, -50.0};
    normalize(m);

    EXPECT_GE(m.count, 0);
    EXPECT_GE(m.cores, 1);
    EXPECT_GE(m.memory_gb, 0.0);
    EXPECT_GE(m.gpus, 0);
    EXPECT_GT(m.gpu_relative_speed, 0.0);
    ASSERT_FALSE(m.s_state_watts.empty());
    ASSERT_EQ(m.s_wake_seconds.size(), m.s_state_watts.size());
    EXPECT_EQ(m.s_wake_seconds[0], 0.0);
    ASSERT_FALSE(m.p_state_watts.empty());
    ASSERT_FALSE(m.c_state_watts.empty());
    ASSERT_FALSE(m.mips.empty());
    EXPECT_GT(m.mipsAt(0), 0.0);
    // The normalized class must actually run: every accessor total.
    EXPECT_GE(m.deepestSleep(), 0);
    EXPECT_GE(m.wakeSeconds(99), 0.0);
}

TEST(SpecNormalize, NonFiniteValuesAreClamped)
{
    MachineClassSpec m;
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    m.memory_gb = nan;
    m.gpu_tdp_watts = inf;
    m.gpu_relative_speed = nan;
    m.mips = {nan, inf, -inf};
    normalize(m);
    EXPECT_TRUE(std::isfinite(m.memory_gb));
    EXPECT_TRUE(std::isfinite(m.gpu_tdp_watts));
    EXPECT_TRUE(std::isfinite(m.gpu_relative_speed));
    EXPECT_GT(m.gpu_relative_speed, 0.0);
    for (int p = 0; p < 8; ++p) {
        EXPECT_TRUE(std::isfinite(m.mipsAt(p)));
        EXPECT_GT(m.mipsAt(p), 0.0);
    }
}

TEST(SpecNormalize, OversizedTablesAreTruncated)
{
    MachineClassSpec m;
    m.s_state_watts.assign(1000, 1.0);
    m.p_state_watts.assign(1000, 1.0);
    normalize(m);
    EXPECT_LE(m.s_state_watts.size(), 16u);
    EXPECT_LE(m.p_state_watts.size(), 16u);
    EXPECT_EQ(m.s_wake_seconds.size(), m.s_state_watts.size());
}

TEST(SpecNormalize, IdempotentOnDefaults)
{
    MachineClassSpec a;
    MachineClassSpec b;
    normalize(b);
    EXPECT_EQ(a.cores, b.cores);
    EXPECT_EQ(a.s_state_watts, b.s_state_watts);
    EXPECT_EQ(a.p_state_watts, b.p_state_watts);
    EXPECT_EQ(a.mips, b.mips);
}

TEST(SpecAccessors, ClampedIndexing)
{
    MachineClassSpec m;  // defaults: 3 S-states, 4 P-states
    EXPECT_EQ(m.deepestSleep(), 2);
    EXPECT_EQ(m.busyCoreWatts(-1), m.p_state_watts.front());
    EXPECT_EQ(m.busyCoreWatts(99), m.p_state_watts.back());
    EXPECT_EQ(m.mipsAt(99), m.mips.back());
    EXPECT_EQ(m.wakeSeconds(-1), 0.0);
    EXPECT_EQ(m.wakeSeconds(99), m.s_wake_seconds.back());
}

// The hoisted Table-I constants: machineSpecTable()[0] is the paper's
// Supercloud node and supercloudSpec() must be derived from it.
TEST(MachineSpecTable, SupercloudRowMatchesTableOne)
{
    ASSERT_GE(sim::machineSpecCount(), 1u);
    const sim::MachineSpec &row = sim::machineSpecTable()[0];
    EXPECT_STREQ(row.name, "Supercloud");
    EXPECT_EQ(row.nodes, 224);
    EXPECT_EQ(row.sockets, 2);
    EXPECT_EQ(row.cores_per_socket, 20);
    EXPECT_EQ(row.hyperthreads_per_core, 2);
    EXPECT_DOUBLE_EQ(row.ram_gb, 384.0);
    EXPECT_EQ(row.gpus, 2);
    EXPECT_STREQ(row.gpu_model, "Nvidia Volta V100");
    EXPECT_DOUBLE_EQ(row.gpu_memory_gb, 32.0);
    EXPECT_DOUBLE_EQ(row.gpu_tdp_watts, 300.0);

    const sim::ClusterSpec from_table = sim::clusterSpecFrom(row);
    const sim::ClusterSpec direct = sim::supercloudSpec();
    EXPECT_EQ(from_table.nodes, direct.nodes);
    EXPECT_EQ(from_table.node.sockets, direct.node.sockets);
    EXPECT_EQ(from_table.node.cores_per_socket,
              direct.node.cores_per_socket);
    EXPECT_EQ(from_table.node.gpus, direct.node.gpus);
    EXPECT_DOUBLE_EQ(from_table.node.ram_gb, direct.node.ram_gb);
    EXPECT_DOUBLE_EQ(from_table.node.gpu.tdp_watts,
                     direct.node.gpu.tdp_watts);
    EXPECT_EQ(from_table.node.gpu.model, direct.node.gpu.model);
}

TEST(MachineSpecTable, BridgesIntoScenarioClasses)
{
    const sim::MachineSpec &row = sim::machineSpecTable()[0];
    const MachineClassSpec cls = fromMachineSpec(row);
    EXPECT_EQ(cls.name, "Supercloud");
    EXPECT_EQ(cls.count, 224);
    EXPECT_EQ(cls.cores, 2 * 20 * 2);
    EXPECT_DOUBLE_EQ(cls.memory_gb, 384.0);
    EXPECT_EQ(cls.gpus, 2);
    EXPECT_DOUBLE_EQ(cls.gpu_tdp_watts, 300.0);
}

} // namespace
} // namespace aiwc::scenario
