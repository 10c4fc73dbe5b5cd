/**
 * @file
 * The per-cell scenario engine: an event-driven simulation of one
 * fleet running one task stream under one policy, producing energy and
 * SLA outcomes.
 *
 * The engine is strictly serial and deterministic — the ScenarioRunner
 * gets its parallelism by simulating independent cells concurrently,
 * so a cell's result is a pure function of (spec, tasks, policy) and
 * byte-identical at any thread count.
 *
 * Speed model: a task's expected_runtime is defined at the 1000-MIPS
 * reference core; running at P-state p on a class with mips[p] = M
 * scales it by 1000/M, an ISA mismatch by 1.25, and a GPU task by
 * 1/gpu_relative_speed instead. A migration pauses the task for 30 s.
 * SLA accounting: a task violates when service time (arrival to
 * completion, including queue wait, wake latency, and migrations)
 * exceeds its class factor (1.5 latency-sensitive, 3.0 batch) times
 * its expected runtime plus a flat 5 s grace; scavenger work never
 * violates. A dropped task (one no machine in the cell could ever
 * host) counts as a violation unless it is scavenger-class — a cell
 * that refuses the workload must not look SLA-perfect.
 */

#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "aiwc/scenario/policy.hh"

namespace aiwc::scenario
{

/** Queue-wait quantiles for one SLA class (KLL-sketched). */
struct WaitQuantiles
{
    std::uint64_t tasks = 0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
};

/** Everything one simulated cell reports. */
struct CellStats
{
    std::uint64_t tasks = 0;       //!< offered
    std::uint64_t finished = 0;
    std::uint64_t dropped = 0;     //!< could never fit any machine
    std::uint64_t migrations = 0;
    std::uint64_t wakes = 0;
    std::uint64_t sla_violations = 0;
    double violation_rate = 0.0;   //!< violations / (finished + dropped)
    double joules = 0.0;           //!< fleet energy over the makespan
    Seconds makespan = 0.0;
    double mean_utilization = 0.0; //!< busy core-s / (fleet core-s)
    std::array<WaitQuantiles, num_sla_classes> waits{};
};

/** Simulate a homogeneous cell: `count` machines of one class. */
CellStats simulateCell(const MachineClassSpec &cls, int count,
                       const std::vector<Task> &tasks,
                       const SchedulingPolicy &policy);

/** Simulate a whole heterogeneous fleet (all classes in the spec). */
CellStats simulateFleet(const ScenarioSpec &spec,
                        const std::vector<Task> &tasks,
                        const SchedulingPolicy &policy);

} // namespace aiwc::scenario
