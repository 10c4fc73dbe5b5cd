/**
 * @file
 * Machine model tests: the power-state energy integrator must be an
 * exact piecewise-constant integral (hand-computable joule totals),
 * wake transitions must cost their latency while drawing the awake
 * base, and capacity accounting must conserve resources.
 */

#include <gtest/gtest.h>

#include "aiwc/scenario/machine.hh"

namespace aiwc::scenario
{
namespace
{

/** A class with round numbers so expected joules are exact. */
MachineClassSpec
testClass()
{
    MachineClassSpec cls;
    cls.name = "test";
    cls.cores = 4;
    cls.memory_gb = 32.0;
    cls.gpus = 2;
    cls.gpu_tdp_watts = 100.0;
    cls.gpu_idle_watts = 10.0;
    cls.s_state_watts = {50.0, 5.0, 0.0};
    cls.s_wake_seconds = {0.0, 2.0, 8.0};
    cls.p_state_watts = {10.0, 6.0};
    cls.c_state_watts = {2.0, 1.0};
    cls.mips = {1000.0, 500.0};
    normalize(cls);
    return cls;
}

TEST(Machine, AwakeIdleDraw)
{
    const MachineClassSpec cls = testClass();
    Machine m(&cls, 0);
    // base 50 + 4 idle cores * 1 (deepest C-state) + 2 idle GPUs * 10.
    EXPECT_DOUBLE_EQ(m.watts(), 50.0 + 4.0 * 1.0 + 2.0 * 10.0);
    m.advanceTo(10.0);
    EXPECT_DOUBLE_EQ(m.joules(), 740.0);
}

TEST(Machine, BusyDrawTracksPlacedTasks)
{
    const MachineClassSpec cls = testClass();
    Machine m(&cls, 0);
    const Demand d{2, 8.0, 1, 0};  // 2 cores at P0, one GPU
    ASSERT_TRUE(m.canFit(d));
    m.place(d, 0.0);
    // base 50 + 2 busy * 10 (P0) + 2 idle * 1 + 1 busy GPU * 100
    // + 1 idle GPU * 10.
    EXPECT_DOUBLE_EQ(m.watts(), 50.0 + 20.0 + 2.0 + 100.0 + 10.0);
    EXPECT_EQ(m.busyCores(), 2);
    EXPECT_EQ(m.idleCores(), 2);
    EXPECT_EQ(m.busyGpus(), 1);
    EXPECT_DOUBLE_EQ(m.usedMemoryGb(), 8.0);
    EXPECT_DOUBLE_EQ(m.utilization(), 0.5);

    m.advanceTo(5.0);
    EXPECT_DOUBLE_EQ(m.joules(), 5.0 * 182.0);

    m.remove(d, 10.0);
    EXPECT_DOUBLE_EQ(m.joules(), 10.0 * 182.0);
    EXPECT_EQ(m.busyCores(), 0);
    EXPECT_DOUBLE_EQ(m.usedMemoryGb(), 0.0);
    // Back to the idle draw after release.
    EXPECT_DOUBLE_EQ(m.watts(), 74.0);
}

TEST(Machine, PStateChangesPerCoreDraw)
{
    const MachineClassSpec cls = testClass();
    Machine m(&cls, 0);
    m.place(Demand{4, 0.0, 0, 1}, 0.0);  // all cores at P1 (6 W)
    EXPECT_DOUBLE_EQ(m.watts(), 50.0 + 4.0 * 6.0 + 2.0 * 10.0);
}

TEST(Machine, SleepDrawAndWakeLatency)
{
    const MachineClassSpec cls = testClass();
    Machine m(&cls, 0);
    m.advanceTo(10.0);  // 10 s awake idle = 740 J
    m.sleep(2, 10.0);
    EXPECT_EQ(m.sleepState(), 2);
    EXPECT_FALSE(m.awake());
    EXPECT_DOUBLE_EQ(m.watts(), 0.0);  // deepest S-state draws nothing
    m.advanceTo(100.0);
    EXPECT_DOUBLE_EQ(m.joules(), 740.0);  // sleeping for free

    // Waking from S2 takes 8 s at the awake base draw.
    const Seconds ready = m.wake(100.0);
    EXPECT_DOUBLE_EQ(ready, 108.0);
    EXPECT_TRUE(m.waking());
    EXPECT_FALSE(m.awake());
    m.completeWake(ready);
    EXPECT_TRUE(m.awake());
    // 8 s of wake transition at the awake idle draw (74 W).
    EXPECT_DOUBLE_EQ(m.joules(), 740.0 + 8.0 * 74.0);
}

TEST(Machine, WakeOfAwakeMachineIsFree)
{
    const MachineClassSpec cls = testClass();
    Machine m(&cls, 0);
    EXPECT_DOUBLE_EQ(m.wake(42.0), 42.0);
    EXPECT_TRUE(m.awake());
}

TEST(Machine, SleepRefusedWhileBusy)
{
    const MachineClassSpec cls = testClass();
    Machine m(&cls, 0);
    m.place(Demand{1, 0.0, 0, 0}, 0.0);
    m.sleep(2, 1.0);
    EXPECT_TRUE(m.awake());  // no-op: machine was busy
    m.remove(Demand{1, 0.0, 0, 0}, 2.0);
    m.sleep(2, 2.0);
    EXPECT_FALSE(m.awake());
}

TEST(Machine, CanFitRejectsEachAxis)
{
    const MachineClassSpec cls = testClass();
    Machine m(&cls, 0);
    EXPECT_FALSE(m.canFit(Demand{5, 0.0, 0, 0}));    // cores
    EXPECT_FALSE(m.canFit(Demand{1, 33.0, 0, 0}));   // memory
    EXPECT_FALSE(m.canFit(Demand{1, 0.0, 3, 0}));    // gpus
    EXPECT_TRUE(m.canFit(Demand{4, 32.0, 2, 0}));    // exactly full
}

TEST(Machine, AdvanceToIsMonotonic)
{
    const MachineClassSpec cls = testClass();
    Machine m(&cls, 0);
    m.advanceTo(10.0);
    const double j = m.joules();
    m.advanceTo(5.0);  // earlier time: ignored
    EXPECT_DOUBLE_EQ(m.joules(), j);
}

TEST(Fleet, TotalJoulesSumsMachines)
{
    const MachineClassSpec cls = testClass();
    Fleet fleet = Fleet::homogeneous(cls, 3);
    fleet.advanceAll(10.0);
    EXPECT_DOUBLE_EQ(fleet.totalJoules(), 3.0 * 740.0);
}

} // namespace
} // namespace aiwc::scenario
