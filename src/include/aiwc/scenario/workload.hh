/**
 * @file
 * Scenario task streams: deterministic derivation of typed, SLA-tagged
 * tasks from either a characterized Dataset (the workload generator's
 * output round-tripped through CSV or the binary trace format) or a
 * scenario's synthetic task classes.
 *
 * Determinism contract: task attributes are a pure function of (record
 * content, mix, seed) — each record draws from its own splitmix-keyed
 * Rng stream — so two Datasets with identical records yield identical
 * tasks regardless of how the bytes arrived (CSV vs .aiwt) and of any
 * thread count upstream.
 */

#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "aiwc/core/dataset.hh"
#include "aiwc/scenario/spec.hh"

namespace aiwc::scenario
{

/** One schedulable unit of work in a scenario cell. */
struct Task
{
    std::uint32_t id = 0;
    TaskType type = TaskType::Ai;
    SlaClass sla = SlaClass::Batch;
    CpuIsa preferred_isa = CpuIsa::X86;
    Seconds arrival = 0.0;
    Seconds expected_runtime = 1.0;  //!< at the 1000-MIPS reference core
    int cores = 1;
    double memory_gb = 0.0;
    int gpus = 0;
};

/** A named distribution over the five task types (weights >= 0). */
struct TaskMix
{
    std::string name;
    std::array<double, num_task_types> weights{};
};

/**
 * The five canonical mixes the scenario sweep evaluates: balanced,
 * web-heavy, AI-heavy, stream-realtime, and HPC-batch.
 */
std::vector<TaskMix> defaultTaskMixes();

/** Default SLA class per task type (WEB/STREAM latency-sensitive, AI/HPC batch, CRYPTO scavenger). */
SlaClass defaultSlaFor(TaskType type);

/** Default preferred ISA per task type. */
CpuIsa defaultIsaFor(TaskType type);

/**
 * Tag every dataset record with a task type drawn from `mix` (keyed by
 * (seed, record id), so the draw is independent of record order), give
 * it the type's default SLA/ISA, and carry the record's observed
 * resource shape. Result is sorted by (arrival, id).
 */
std::vector<Task> tasksFromDataset(const core::Dataset &dataset,
                                   const TaskMix &mix, std::uint64_t seed);

} // namespace aiwc::scenario
