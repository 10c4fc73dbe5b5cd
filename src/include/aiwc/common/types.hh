/**
 * @file
 * Fundamental types shared across the aiwc library.
 *
 * The simulator uses double-precision seconds as its time base: the
 * telemetry substrate samples at 100 ms (paper Sec. II, "System
 * Monitoring"), the scheduler operates at second granularity, and the
 * study spans 125 days, all of which fit comfortably and exactly in a
 * double.
 */

#pragma once

#include <cstdint>
#include <string>

namespace aiwc
{

/** Simulation time in seconds since the start of the trace. */
using Seconds = double;

/** Identifier types. 32-bit is ample: the study has 74,820 jobs. */
using JobId = std::uint32_t;
using UserId = std::uint32_t;
using NodeId = std::uint32_t;

/** A GPU is addressed by (node, local index); this is its global id. */
using GpuId = std::uint32_t;

/** Sentinel for "no such id". */
inline constexpr std::uint32_t invalid_id = 0xffffffffu;

/** Convenient duration constants. */
inline constexpr Seconds one_minute = 60.0;
inline constexpr Seconds one_hour = 3600.0;
inline constexpr Seconds one_day = 86400.0;

/**
 * Submission interface of a job (paper Sec. III, Fig. 5). Map-reduce,
 * batch, and interactive jobs arrive through dedicated interfaces; all
 * remaining jobs (mostly deep learning) use the generic Slurm interface
 * and are labeled "other".
 */
enum class Interface : std::uint8_t
{
    MapReduce,
    Batch,
    Interactive,
    Other,
};

/** Number of Interface values, for array-of-enum indexing. */
inline constexpr int num_interfaces = 4;

/**
 * Lifecycle class of a job in the algorithm-development life-cycle
 * (paper Sec. VI, Fig. 2): IDE (design), development (determine resource
 * requirements), exploratory (hyper-parameter tuning, user-cancelled),
 * and mature (finalized code, exits 0).
 */
enum class Lifecycle : std::uint8_t
{
    Mature,
    Exploratory,
    Development,
    Ide,
};

/** Number of Lifecycle values, for array-of-enum indexing. */
inline constexpr int num_lifecycles = 4;

/**
 * Terminal state of a job as recorded by the scheduler. The lifecycle
 * classifier inverts this (plus the interface and runtime) into a
 * Lifecycle label, mirroring how the paper labels its four classes from
 * exit codes, user cancellations and timeouts.
 */
enum class TerminalState : std::uint8_t
{
    Completed,    //!< exit code 0
    Cancelled,    //!< killed by the user before completion
    Failed,       //!< nonzero exit code (crash during development)
    TimedOut,     //!< hit the requested wall-time limit
    NodeFailure,  //!< hardware failure (<0.5% of jobs per Sec. II)
};

/** Number of TerminalState values, for array-of-enum indexing. */
inline constexpr int num_terminal_states = 5;

/** Human-readable names, aligned with the enum order above. */
const char *toString(Interface i);
const char *toString(Lifecycle c);
const char *toString(TerminalState s);

/**
 * GPU telemetry resource axes reported by the nvidia-smi-style sampler
 * (paper Sec. II "General Methodology"): SM occupancy, memory bandwidth
 * ("memory utilization" in Nvidia terms), memory amount used, PCIe
 * transmit/receive bandwidth, and power draw.
 */
enum class Resource : std::uint8_t
{
    Sm,
    MemoryBw,
    MemorySize,
    PcieTx,
    PcieRx,
    Power,
};

inline constexpr int num_resources = 6;

const char *toString(Resource r);

/**
 * Service-level-agreement class of a job or task. Latency-sensitive
 * work must start (and finish) promptly; batch work tolerates queueing
 * up to a multiple of its expected runtime; scavenger work runs on
 * leftover capacity with no completion guarantee at all. The scenario
 * engine scores SLA violations per class, and the scheduler can
 * optionally boost priority by class (off by default).
 */
enum class SlaClass : std::uint8_t
{
    LatencySensitive,
    Batch,
    Scavenger,
};

/** Number of SlaClass values, for array-of-enum indexing. */
inline constexpr int num_sla_classes = 3;

/**
 * Coarse task-type taxonomy used by heterogeneous scenario mixes, after
 * the cloudsim-eec vocabulary: web serving, AI training/inference,
 * crypto-style batch compute, stream processing, and classic HPC.
 */
enum class TaskType : std::uint8_t
{
    Web,
    Ai,
    Crypto,
    Stream,
    Hpc,
};

/** Number of TaskType values, for array-of-enum indexing. */
inline constexpr int num_task_types = 5;

} // namespace aiwc

