/**
 * @file
 * Scheduling-policy tests: each built-in policy's placement rule on a
 * hand-built fleet, the SLA-to-P-state throttling of energy-first, and
 * its consolidation planner's headroom accounting.
 */

#include <gtest/gtest.h>

#include "aiwc/scenario/policy.hh"

namespace aiwc::scenario
{
namespace
{

MachineClassSpec
smallClass(const char *name, CpuIsa isa = CpuIsa::X86)
{
    MachineClassSpec cls;
    cls.name = name;
    cls.cpu = isa;
    cls.cores = 4;
    cls.memory_gb = 16.0;
    cls.p_state_watts = {10.0, 6.0, 3.0};
    cls.mips = {1000.0, 700.0, 400.0};
    normalize(cls);
    return cls;
}

Task
smallTask(SlaClass sla = SlaClass::Batch, CpuIsa isa = CpuIsa::X86)
{
    Task t;
    t.sla = sla;
    t.preferred_isa = isa;
    t.cores = 1;
    t.memory_gb = 1.0;
    return t;
}

TEST(PolicyDemand, CarriesTaskShapeAndPState)
{
    Task t = smallTask();
    t.cores = 3;
    t.memory_gb = 7.0;
    t.gpus = 2;
    const Demand d = demandFor(t, 1);
    EXPECT_EQ(d.cores, 3);
    EXPECT_DOUBLE_EQ(d.memory_gb, 7.0);
    EXPECT_EQ(d.gpus, 2);
    EXPECT_EQ(d.p_state, 1);
}

TEST(GreedyPack, FirstFitInIdOrder)
{
    const MachineClassSpec cls = smallClass("a");
    Fleet fleet = Fleet::homogeneous(cls, 3);
    const GreedyPackPolicy policy;
    const Placement p = policy.place(fleet, smallTask());
    EXPECT_EQ(p.machine, 0);
    EXPECT_EQ(p.p_state, 0);

    // Fill machine 0; the next placement moves to machine 1.
    fleet.machines[0].place(Demand{4, 0.0, 0, 0}, 0.0);
    EXPECT_EQ(policy.place(fleet, smallTask()).machine, 1);
}

TEST(GreedyPack, WakesFirstFittingSleeperWhenNothingAwakeFits)
{
    const MachineClassSpec cls = smallClass("a");
    Fleet fleet = Fleet::homogeneous(cls, 2);
    fleet.machines[0].place(Demand{4, 0.0, 0, 0}, 0.0);  // full
    fleet.machines[1].sleep(cls.deepestSleep(), 0.0);
    const GreedyPackPolicy policy;
    EXPECT_EQ(policy.place(fleet, smallTask()).machine, 1);
    EXPECT_EQ(policy.idleSleepState(fleet.machines[1]),
              cls.deepestSleep());
}

TEST(GreedyPack, QueuesWhenNothingCanEverFit)
{
    const MachineClassSpec cls = smallClass("a");
    Fleet fleet = Fleet::homogeneous(cls, 2);
    Task huge = smallTask();
    huge.cores = 64;
    EXPECT_EQ(GreedyPackPolicy().place(fleet, huge).machine, -1);
}

TEST(LoadBalance, PicksLeastUtilizedAwakeMachine)
{
    const MachineClassSpec cls = smallClass("a");
    Fleet fleet = Fleet::homogeneous(cls, 3);
    fleet.machines[0].place(Demand{3, 0.0, 0, 0}, 0.0);
    fleet.machines[1].place(Demand{1, 0.0, 0, 0}, 0.0);
    const LoadBalancePolicy policy;
    EXPECT_EQ(policy.place(fleet, smallTask()).machine, 2);
    // Never sleeps idle machines.
    EXPECT_EQ(policy.idleSleepState(fleet.machines[2]), 0);
}

TEST(LoadBalance, WakesASleeperRatherThanWedging)
{
    const MachineClassSpec cls = smallClass("a");
    Fleet fleet = Fleet::homogeneous(cls, 2);
    fleet.machines[0].place(Demand{4, 0.0, 0, 0}, 0.0);
    fleet.machines[1].sleep(cls.deepestSleep(), 0.0);
    EXPECT_EQ(LoadBalancePolicy().place(fleet, smallTask()).machine, 1);
}

TEST(EnergyFirst, ThrottlesBySlaClass)
{
    const MachineClassSpec cls = smallClass("a");
    const Fleet fleet = Fleet::homogeneous(cls, 1);
    const EnergyFirstPolicy policy;
    EXPECT_EQ(policy.place(fleet, smallTask(SlaClass::LatencySensitive))
                  .p_state,
              0);
    EXPECT_EQ(policy.place(fleet, smallTask(SlaClass::Batch)).p_state, 1);
    // Scavenger runs at the deepest P-state (index 2 here).
    EXPECT_EQ(policy.place(fleet, smallTask(SlaClass::Scavenger)).p_state,
              2);
}

TEST(EnergyFirst, PrefersIsaMatchedMachines)
{
    const MachineClassSpec x86 = smallClass("x86", CpuIsa::X86);
    const MachineClassSpec arm = smallClass("arm", CpuIsa::Arm);
    Fleet fleet;
    fleet.machines.emplace_back(&x86, 0);
    fleet.machines.emplace_back(&arm, 1);
    const EnergyFirstPolicy policy;
    // Machine 0 is x86, machine 1 is ARM: an ARM-preferring task skips
    // the first-fit x86 machine.
    EXPECT_EQ(policy.place(fleet, smallTask(SlaClass::Batch, CpuIsa::Arm))
                  .machine,
              1);
    EXPECT_EQ(policy.place(fleet, smallTask(SlaClass::Batch, CpuIsa::X86))
                  .machine,
              0);
}

TEST(EnergyFirst, ConsolidationDrainsUnderUtilizedMachines)
{
    const MachineClassSpec cls = smallClass("a");
    Fleet fleet = Fleet::homogeneous(cls, 2);
    // Machine 0: one core busy (25% util, below the 0.25 threshold is
    // strict, so use a 0.5 threshold policy). Machine 1: 3 cores busy.
    fleet.machines[0].place(Demand{1, 1.0, 0, 0}, 0.0);
    fleet.machines[1].place(Demand{3, 3.0, 0, 0}, 0.0);
    const EnergyFirstPolicy policy(300.0, 0.5);
    EXPECT_DOUBLE_EQ(policy.consolidationInterval(), 300.0);

    std::vector<RunningView> running;
    RunningView rv;
    rv.task_id = 7;
    rv.machine = 0;
    rv.demand = Demand{1, 1.0, 0, 0};
    rv.sla = SlaClass::Batch;
    rv.remaining_fraction = 0.9;
    running.push_back(rv);

    const std::vector<Migration> plan = policy.consolidate(fleet, running);
    ASSERT_EQ(plan.size(), 1u);
    EXPECT_EQ(plan[0].task_id, 7u);
    EXPECT_EQ(plan[0].to_machine, 1);
}

TEST(EnergyFirst, ConsolidationSkipsNearlyDoneTasks)
{
    const MachineClassSpec cls = smallClass("a");
    Fleet fleet = Fleet::homogeneous(cls, 2);
    fleet.machines[0].place(Demand{1, 1.0, 0, 0}, 0.0);
    fleet.machines[1].place(Demand{3, 3.0, 0, 0}, 0.0);
    std::vector<RunningView> running(1);
    running[0].task_id = 7;
    running[0].machine = 0;
    running[0].demand = Demand{1, 1.0, 0, 0};
    running[0].remaining_fraction = 0.1;  // not worth the pause
    EXPECT_TRUE(
        EnergyFirstPolicy(300.0, 0.5).consolidate(fleet, running).empty());
}

TEST(EnergyFirst, ConsolidationRespectsDestinationHeadroom)
{
    const MachineClassSpec cls = smallClass("a");
    Fleet fleet = Fleet::homogeneous(cls, 2);
    // Machine 1 has only one free core but two drain candidates; the
    // plan must move at most one of them.
    fleet.machines[0].place(Demand{1, 1.0, 0, 0}, 0.0);
    fleet.machines[1].place(Demand{3, 3.0, 0, 0}, 0.0);
    std::vector<RunningView> running(2);
    for (std::uint32_t i = 0; i < 2; ++i) {
        running[i].task_id = i;
        running[i].machine = 0;
        running[i].demand = Demand{1, 1.0, 0, 0};
        running[i].remaining_fraction = 1.0;
    }
    const std::vector<Migration> plan =
        EnergyFirstPolicy(300.0, 0.9).consolidate(fleet, running);
    EXPECT_LE(plan.size(), 1u);
}

} // namespace
} // namespace aiwc::scenario
