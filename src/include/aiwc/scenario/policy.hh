/**
 * @file
 * Pluggable placement / migration / consolidation policies.
 *
 * A SchedulingPolicy is a pure decision function over fleet state: the
 * engine owns all mutation (wakes, sleeps, migrations, energy), the
 * policy only picks. Policies must be stateless and deterministic —
 * the ScenarioRunner shares one instance across concurrently simulated
 * cells, which is also why every method is const.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "aiwc/scenario/machine.hh"
#include "aiwc/scenario/workload.hh"

namespace aiwc::scenario
{

/** Where to run a task, and how fast. machine = -1 means "queue it". */
struct Placement
{
    int machine = -1;
    int p_state = 0;
};

/** A running task as policies see it during consolidation. */
struct RunningView
{
    std::uint32_t task_id = 0;
    int machine = -1;
    Demand demand;
    SlaClass sla = SlaClass::Batch;
    double remaining_fraction = 0.0;  //!< work left, in [0, 1]
};

/** One consolidation decision: move task_id onto to_machine. */
struct Migration
{
    std::uint32_t task_id = 0;
    int to_machine = -1;
};

class SchedulingPolicy
{
  public:
    virtual ~SchedulingPolicy() = default;

    virtual const char *name() const = 0;

    /**
     * Choose a machine for `task` (the engine builds the Demand the
     * same way for every policy). The chosen machine may be asleep —
     * the engine pays its wake latency. Return machine = -1 to leave
     * the task queued until capacity frees up.
     *
     * Contract: the result is a pure function of (fleet, task). It
     * reads no clock and no state of the policy's own beyond
     * constructor-time tunables, so a fleet that has not changed since
     * it refused a task refuses it again. The
     * engine relies on that: a queued task is not re-offered until
     * some machine has been mutated (placed on, released, woken or put
     * to sleep) since its last refusal.
     */
    virtual Placement place(const Fleet &fleet, const Task &task) const = 0;

    /**
     * Sleep state for a machine that just went fully idle
     * (0 = stay awake).
     */
    virtual int idleSleepState(const Machine &machine) const
    {
        (void)machine;
        return 0;
    }

    /** Seconds between consolidation passes; 0 disables them. */
    virtual Seconds consolidationInterval() const { return 0.0; }

    /**
     * Propose migrations given a snapshot of running tasks (sorted by
     * task id). The engine applies each plan only if the target still
     * fits, charging the migration cost to the moved task.
     */
    virtual std::vector<Migration>
    consolidate(const Fleet &fleet, const std::vector<RunningView> &running)
        const
    {
        (void)fleet;
        (void)running;
        return {};
    }
};

/**
 * First-fit packing in machine-id order: densest feet-first layout,
 * sleeping whatever goes idle. The baseline energy saver.
 */
class GreedyPackPolicy : public SchedulingPolicy
{
  public:
    const char *name() const override { return "greedy-pack"; }
    Placement place(const Fleet &fleet, const Task &task) const override;
    int idleSleepState(const Machine &machine) const override;
};

/**
 * Keep every machine awake and spread load onto the least-utilized
 * fitting machine (ties by id). The latency-first extreme: no wake
 * delays, no migration churn, maximum idle burn.
 */
class LoadBalancePolicy : public SchedulingPolicy
{
  public:
    const char *name() const override { return "load-balance"; }
    Placement place(const Fleet &fleet, const Task &task) const override;
};

/**
 * Energy-first: ISA-aware first-fit packing, per-SLA P-state throttling
 * (batch runs one state down, scavenger at the deepest), periodic
 * consolidation that drains under-utilized machines onto busier ones,
 * and deepest-sleep for anything idle.
 */
class EnergyFirstPolicy : public SchedulingPolicy
{
  public:
    /**
     * @param consolidation_interval seconds between passes
     * @param drain_below drain machines under this utilization
     */
    explicit EnergyFirstPolicy(Seconds consolidation_interval = 300.0,
                               double drain_below = 0.25)
        : interval_(consolidation_interval), drain_below_(drain_below)
    {
    }

    const char *name() const override { return "energy-first"; }
    Placement place(const Fleet &fleet, const Task &task) const override;
    int idleSleepState(const Machine &machine) const override;
    Seconds consolidationInterval() const override { return interval_; }
    std::vector<Migration>
    consolidate(const Fleet &fleet,
                const std::vector<RunningView> &running) const override;

  private:
    Seconds interval_;
    double drain_below_;
};

/** Capacity demand of a task on a machine of the given class. */
Demand demandFor(const Task &task, int p_state);

} // namespace aiwc::scenario
