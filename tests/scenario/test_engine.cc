/**
 * @file
 * Cell-engine tests: completion accounting, SLA-violation semantics
 * (including the dropped-task rule), wake/migration counting, wait
 * quantiles, run-to-run determinism, and the work the engine does per
 * event. The engine is the serial deterministic core the whole sweep's
 * byte-identity rests on.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "aiwc/obs/metrics.hh"
#include "aiwc/scenario/engine.hh"

namespace aiwc::scenario
{
namespace
{

MachineClassSpec
engineClass()
{
    MachineClassSpec cls;
    cls.name = "cell";
    cls.cores = 8;
    cls.memory_gb = 64.0;
    cls.s_state_watts = {100.0, 5.0, 0.0};
    cls.s_wake_seconds = {0.0, 2.0, 10.0};
    cls.p_state_watts = {10.0, 6.0};
    cls.c_state_watts = {1.0, 0.0};
    cls.mips = {1000.0, 500.0};
    normalize(cls);
    return cls;
}

std::vector<Task>
steadyTasks(int n, Seconds gap = 10.0, Seconds runtime = 30.0)
{
    std::vector<Task> tasks(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        Task &t = tasks[static_cast<std::size_t>(i)];
        t.id = static_cast<std::uint32_t>(i);
        t.arrival = gap * i;
        t.expected_runtime = runtime;
        t.cores = 2;
        t.memory_gb = 4.0;
        t.sla = SlaClass::Batch;
    }
    return tasks;
}

TEST(Engine, EveryTaskFinishesOnAnAmpleFleet)
{
    const MachineClassSpec cls = engineClass();
    const LoadBalancePolicy policy;
    const CellStats stats = simulateCell(cls, 4, steadyTasks(20), policy);
    EXPECT_EQ(stats.tasks, 20u);
    EXPECT_EQ(stats.finished, 20u);
    EXPECT_EQ(stats.dropped, 0u);
    EXPECT_EQ(stats.sla_violations, 0u);
    EXPECT_DOUBLE_EQ(stats.violation_rate, 0.0);
    EXPECT_GT(stats.makespan, 0.0);
    EXPECT_GT(stats.joules, 0.0);
    EXPECT_GT(stats.mean_utilization, 0.0);
    EXPECT_LE(stats.mean_utilization, 1.0);
    // Load-balance keeps machines awake: wait should be near zero.
    EXPECT_EQ(stats.waits[static_cast<std::size_t>(SlaClass::Batch)].tasks,
              20u);
}

TEST(Engine, RunTimeFollowsTheSpeedModel)
{
    const MachineClassSpec cls = engineClass();
    const LoadBalancePolicy policy;
    std::vector<Task> one = steadyTasks(1);
    one[0].expected_runtime = 100.0;
    const CellStats stats = simulateCell(cls, 1, one, policy);
    // One task at P0 (1000 MIPS = reference): makespan == runtime.
    EXPECT_NEAR(stats.makespan, 100.0, 1e-9);
}

TEST(Engine, IsaMismatchSlowsCpuTasks)
{
    MachineClassSpec cls = engineClass();
    cls.cpu = CpuIsa::Arm;
    const LoadBalancePolicy policy;
    std::vector<Task> one = steadyTasks(1);
    one[0].expected_runtime = 100.0;
    one[0].preferred_isa = CpuIsa::X86;
    const CellStats stats = simulateCell(cls, 1, one, policy);
    EXPECT_NEAR(stats.makespan, 125.0, 1e-9);  // 1.25x penalty
}

TEST(Engine, GpuTasksScaleByRelativeSpeed)
{
    MachineClassSpec cls = engineClass();
    cls.gpus = 2;
    cls.gpu_relative_speed = 0.5;
    const LoadBalancePolicy policy;
    std::vector<Task> one = steadyTasks(1);
    one[0].expected_runtime = 100.0;
    one[0].gpus = 1;
    const CellStats stats = simulateCell(cls, 1, one, policy);
    EXPECT_NEAR(stats.makespan, 200.0, 1e-9);  // half-speed GPU
}

TEST(Engine, DroppedNonScavengerTasksCountAsViolations)
{
    const MachineClassSpec cls = engineClass();  // 8 cores
    const LoadBalancePolicy policy;
    std::vector<Task> tasks = steadyTasks(4);
    tasks[1].cores = 4096;  // can never fit: dropped, batch SLA
    tasks[2].cores = 4096;  // dropped, scavenger: no violation
    tasks[2].sla = SlaClass::Scavenger;
    const CellStats stats = simulateCell(cls, 2, tasks, policy);
    EXPECT_EQ(stats.finished, 2u);
    EXPECT_EQ(stats.dropped, 2u);
    EXPECT_EQ(stats.sla_violations, 1u);
    // Rate is over settled (finished + dropped) tasks, not finished.
    EXPECT_DOUBLE_EQ(stats.violation_rate, 0.25);
}

TEST(Engine, AllDroppedCellIsNotSlaPerfect)
{
    MachineClassSpec cls = engineClass();
    cls.cores = 1;
    cls.memory_gb = 0.25;
    const GreedyPackPolicy policy;
    const CellStats stats = simulateCell(cls, 2, steadyTasks(10), policy);
    EXPECT_EQ(stats.finished, 0u);
    EXPECT_EQ(stats.dropped, 10u);
    // A cell that refuses its whole workload must not look perfect on
    // the frontier: every non-scavenger drop violates.
    EXPECT_DOUBLE_EQ(stats.violation_rate, 1.0);
}

TEST(Engine, SleepingPolicyPaysWakesButStillFinishes)
{
    const MachineClassSpec cls = engineClass();
    const GreedyPackPolicy policy;
    const CellStats stats = simulateCell(cls, 2, steadyTasks(10), policy);
    EXPECT_EQ(stats.finished, 10u);
    EXPECT_GE(stats.wakes, 1u);  // fleet starts asleep under greedy
}

TEST(Engine, GreedyUsesLessEnergyThanLoadBalanceOnSparseLoad)
{
    const MachineClassSpec cls = engineClass();
    const std::vector<Task> tasks = steadyTasks(6, 120.0, 20.0);
    const CellStats greedy =
        simulateCell(cls, 8, tasks, GreedyPackPolicy());
    const CellStats balance =
        simulateCell(cls, 8, tasks, LoadBalancePolicy());
    EXPECT_EQ(greedy.finished, 6u);
    EXPECT_EQ(balance.finished, 6u);
    // Eight mostly-idle awake machines must burn more than a fleet
    // that sleeps everything it is not using.
    EXPECT_LT(greedy.joules, balance.joules);
}

TEST(Engine, ConsolidationPolicyMigrates)
{
    const MachineClassSpec cls = engineClass();
    // Construct a drainable layout: three short tasks and one long one
    // pack machine 0; a wide long task lands on machine 1. Once the
    // short work finishes, machine 0 runs one task at 25% utilization
    // and the consolidation pass moves it onto the busier machine 1.
    const EnergyFirstPolicy policy(200.0, 0.9);
    std::vector<Task> tasks = steadyTasks(5, 0.0, 100.0);
    tasks[1].cores = 4;
    tasks[1].expected_runtime = 1000.0;
    tasks[4].expected_runtime = 1000.0;
    const CellStats stats = simulateCell(cls, 2, tasks, policy);
    EXPECT_EQ(stats.finished, 5u);
    EXPECT_GE(stats.migrations, 1u);
}

TEST(Engine, DeterministicAcrossRuns)
{
    const MachineClassSpec cls = engineClass();
    const EnergyFirstPolicy policy;
    const std::vector<Task> tasks = steadyTasks(50, 3.0, 45.0);
    const CellStats a = simulateCell(cls, 3, tasks, policy);
    const CellStats b = simulateCell(cls, 3, tasks, policy);
    EXPECT_EQ(a.finished, b.finished);
    EXPECT_EQ(a.migrations, b.migrations);
    EXPECT_EQ(a.wakes, b.wakes);
    EXPECT_EQ(a.sla_violations, b.sla_violations);
    EXPECT_EQ(a.joules, b.joules);  // bit-exact, not just close
    EXPECT_EQ(a.makespan, b.makespan);
}

/** Greedy packing that counts its place() calls (no decision reads them). */
class CountingGreedyPolicy : public GreedyPackPolicy
{
  public:
    Placement
    place(const Fleet &fleet, const Task &task) const override
    {
        ++calls;
        return GreedyPackPolicy::place(fleet, task);
    }

    mutable std::uint64_t calls = 0;
};

/** Energy-first consolidation that records what each pass was shown. */
class RecordingEnergyPolicy : public EnergyFirstPolicy
{
  public:
    using EnergyFirstPolicy::EnergyFirstPolicy;

    std::vector<Migration>
    consolidate(const Fleet &fleet,
                const std::vector<RunningView> &running) const override
    {
        visits += running.size();
        sorted = sorted && std::is_sorted(
            running.begin(), running.end(),
            [](const RunningView &a, const RunningView &b) {
                return a.task_id < b.task_id;
            });
        return EnergyFirstPolicy::consolidate(fleet, running);
    }

    mutable std::uint64_t visits = 0;
    mutable bool sorted = true;
};

TEST(Engine, QueuedArrivalsDoNotRetryTheQueue)
{
    // One long task takes every core of a one-machine cell; N short
    // tasks then arrive one by one and queue behind it. Nothing can
    // change what the fleet refuses until the long task completes, so
    // each arrival may offer only itself: O(N) place() calls in all,
    // not the O(N^2) of re-offering the whole queue every time.
    MachineClassSpec cls = engineClass();
    cls.cores = 256;
    cls.memory_gb = 1024.0;
    normalize(cls);
    constexpr int n = 200;
    std::vector<Task> tasks = steadyTasks(n + 1, 1.0, 5.0);
    tasks[0].cores = cls.cores;
    tasks[0].expected_runtime = 10000.0;
    for (int i = 1; i <= n; ++i) {
        Task &t = tasks[static_cast<std::size_t>(i)];
        t.arrival = 100.0 + i;  // after the machine has woken
        t.cores = 1;
    }

    auto &skips =
        obs::MetricsRegistry::global().counter("aiwc.scenario.drain_skips");
    const std::uint64_t skips_before = skips.value();
    const CountingGreedyPolicy counting;
    const CellStats stats = simulateCell(cls, 1, tasks, counting);

    EXPECT_EQ(stats.finished, static_cast<std::uint64_t>(n + 1));
    EXPECT_LE(counting.calls, 3u * n);
    EXPECT_GT(skips.value() - skips_before, 0u);
}

TEST(Engine, ConsolidationSeesRunningTasksInTaskOrder)
{
    // Every pass, migrations included, shows the policy its running
    // tasks ascending by task id, and the visit counter tallies exactly
    // what the policy was shown.
    const MachineClassSpec cls = engineClass();
    std::vector<Task> tasks = steadyTasks(60, 7.0, 90.0);
    for (std::size_t i = 0; i < tasks.size(); i += 3)
        tasks[i].expected_runtime = 600.0;
    auto &visits = obs::MetricsRegistry::global().counter(
        "aiwc.scenario.consolidation_visits");
    const std::uint64_t visits_before = visits.value();
    const RecordingEnergyPolicy policy(50.0, 0.5);
    const CellStats stats = simulateCell(cls, 3, tasks, policy);
    EXPECT_EQ(stats.finished, tasks.size());
    EXPECT_GT(stats.migrations, 0u);
    EXPECT_TRUE(policy.sorted);
    EXPECT_GT(policy.visits, 0u);
    EXPECT_EQ(visits.value() - visits_before, policy.visits);
}

} // namespace
} // namespace aiwc::scenario
