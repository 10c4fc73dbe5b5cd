/**
 * @file
 * Runtime machine model: capacity accounting plus an exact power-state
 * energy integrator.
 *
 * A Machine is one instance of a MachineClassSpec. It tracks busy
 * cores / memory / GPUs, its current S-state (0 = awake, deeper =
 * asleep), and integrates energy in joules between state changes:
 * every mutation first advances the integrator to the event time, so
 * total energy is an exact piecewise-constant integral regardless of
 * event order granularity. All methods are total — indices are clamped
 * and capacity violations are rejected by canFit(), never aborted on.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "aiwc/scenario/spec.hh"

namespace aiwc::scenario
{

/** Resource demand of one placed task, as the machine sees it. */
struct Demand
{
    int cores = 1;
    double memory_gb = 0.0;
    int gpus = 0;
    int p_state = 0;  //!< P-state the task's cores run at
};

class Machine
{
  public:
    Machine(const MachineClassSpec *cls, std::uint32_t id)
        : cls_(cls), id_(id)
    {
    }

    const MachineClassSpec &cls() const { return *cls_; }
    std::uint32_t id() const { return id_; }

    /** Current S-state (0 = awake; includes the waking transition). */
    int sleepState() const { return s_state_; }
    bool awake() const { return s_state_ == 0 && !waking_; }
    bool waking() const { return waking_; }

    /** When a pending wake transition completes (valid if waking()). */
    Seconds wakeReadyAt() const { return wake_ready_at_; }

    int busyCores() const { return busy_cores_; }
    int idleCores() const { return cls_->cores - busy_cores_; }
    double usedMemoryGb() const { return used_memory_gb_; }
    int busyGpus() const { return busy_gpus_; }

    /** Fraction of cores busy (0 when asleep). */
    double utilization() const;

    /** Would this demand fit right now (ignoring sleep state)? */
    bool canFit(const Demand &d) const;

    /** Instantaneous power draw in watts at the current state. */
    double watts() const;

    /** Integrate energy up to `t` (monotonic; earlier times ignored). */
    void advanceTo(Seconds t);

    /** Joules accumulated so far (through the last advanceTo). */
    double joules() const { return joules_; }

    /**
     * Begin waking from the current S-state at time `t`; returns the
     * time the machine is usable (t + wake latency; t if already
     * awake). During the transition the machine draws the awake base.
     */
    Seconds wake(Seconds t);

    /** Finish a pending wake transition (t >= wakeReadyAt()). */
    void completeWake(Seconds t);

    /**
     * Enter sleep state `s` (clamped to the class table) at time `t`.
     * Only an idle, awake machine can sleep; otherwise a no-op.
     */
    void sleep(int s, Seconds t);

    /** Charge a placed task's resources at time `t`. canFit() first. */
    void place(const Demand &d, Seconds t);

    /** Release a completed/migrated task's resources at time `t`. */
    void remove(const Demand &d, Seconds t);

  private:
    const MachineClassSpec *cls_;
    std::uint32_t id_;

    int s_state_ = 0;
    bool waking_ = false;
    Seconds wake_ready_at_ = 0.0;

    int busy_cores_ = 0;
    double used_memory_gb_ = 0.0;
    int busy_gpus_ = 0;
    /** Busy-core wattage, summed over placed tasks (their P-states). */
    double busy_core_watts_ = 0.0;

    Seconds last_advance_ = 0.0;
    double joules_ = 0.0;
};

/** The whole fleet: machines laid out class-major in spec order. */
struct Fleet
{
    std::vector<Machine> machines;

    /** Build a homogeneous fleet of `count` machines of one class. */
    static Fleet homogeneous(const MachineClassSpec &cls, int count);

    /** Sum of joules across machines (call advanceAll first). */
    double totalJoules() const;

    /** Advance every machine's energy integrator to `t`. */
    void advanceAll(Seconds t);
};

} // namespace aiwc::scenario
