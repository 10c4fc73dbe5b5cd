/**
 * @file
 * Declarative machine classes for heterogeneous, energy-aware cluster
 * scenarios.
 *
 * A scenario generalizes the single homogeneous Supercloud topology of
 * `aiwc::sim` into a catalog of *machine classes* — core count, memory,
 * CPU ISA tag, GPU presence, and per-component P/S/C power states with
 * state-transition latencies and per-state wattage. The tasks come
 * from a dataset (see workload.hh). Specs are loaded from checked-in
 * `.scn` text files under `scenarios/` (see scn_parser.hh for the
 * grammar) or built programmatically; `normalize()` makes any spec safe
 * to simulate, which is what lets the parser be total.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "aiwc/sim/cluster_factory.hh"

namespace aiwc::scenario
{

/** CPU instruction-set tag of a machine class or task preference. */
enum class CpuIsa : std::uint8_t
{
    X86,
    Arm,
    Power,
    Riscv,
};

/** Number of CpuIsa values, for array-of-enum indexing. */
inline constexpr int num_cpu_isas = 4;

/**
 * One machine class: N identical machines with a power-state model.
 *
 * Power model (all wattages are per machine unless noted):
 *  - s_state_watts[0] is the awake chassis base draw; deeper S-states
 *    (s_state_watts[1..]) are sleep states drawing progressively less.
 *  - Waking from S-state s costs s_wake_seconds[s] of latency during
 *    which the machine draws the awake base but runs nothing.
 *  - An awake machine adds p_state_watts[p] per *busy core* running at
 *    performance state p, and c_state_watts.back() per idle core
 *    (idle cores drop to the deepest C-state between tasks).
 *  - mips[p] is the per-core throughput at P-state p, on the shared
 *    absolute scale where 1000 MIPS is the reference core (a task's
 *    expected runtime is defined at the reference speed).
 *  - Machines with GPUs add gpu_tdp_watts per busy GPU and
 *    gpu_idle_watts per idle GPU while awake; GPU tasks run at
 *    gpu_relative_speed (1.0 = the V100 reference).
 */
struct MachineClassSpec
{
    std::string name;
    int count = 1;                //!< machines of this class
    CpuIsa cpu = CpuIsa::X86;
    int cores = 16;               //!< schedulable cores per machine
    double memory_gb = 64.0;      //!< host RAM per machine
    int gpus = 0;                 //!< GPUs per machine (0 = none)
    double gpu_memory_gb = 16.0;
    double gpu_tdp_watts = 250.0;
    double gpu_idle_watts = 25.0;
    double gpu_relative_speed = 1.0;

    std::vector<double> s_state_watts{120.0, 10.0, 0.0};
    std::vector<double> s_wake_seconds{0.0, 1.0, 10.0};
    std::vector<double> p_state_watts{12.0, 8.0, 6.0, 4.0};
    std::vector<double> c_state_watts{2.0, 1.0, 0.0};
    std::vector<double> mips{1000.0, 800.0, 600.0, 400.0};

    /** Deepest sleep state index (s_state_watts.size() - 1). */
    int deepestSleep() const;

    /** Deepest idle-core C-state wattage (0 if none modeled). */
    double idleCoreWatts() const;

    /** Per-core busy wattage at P-state p (clamped to the table). */
    double busyCoreWatts(int p) const;

    /** Per-core throughput at P-state p (clamped, always > 0). */
    double mipsAt(int p) const;

    /** Wake latency out of S-state s (clamped, >= 0). */
    double wakeSeconds(int s) const;
};

/**
 * Clamp a machine class into simulatable shape: non-empty power-state
 * tables, positive core/count/mips values, latency table sized to the
 * S-state table. Idempotent; the parser applies it to every class, so
 * no `.scn` input can produce a class the engine cannot run.
 */
void normalize(MachineClassSpec &m);

/** A full scenario: a named catalog of machine classes. */
struct ScenarioSpec
{
    std::string name = "scenario";
    std::vector<MachineClassSpec> machines;
};

/** Map the built-in sim catalog row back into a machine class. */
MachineClassSpec fromMachineSpec(const sim::MachineSpec &m);

} // namespace aiwc::scenario
