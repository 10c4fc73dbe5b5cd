#include "aiwc/scenario/workload.hh"

#include <algorithm>

#include "aiwc/common/rng.hh"

namespace aiwc::scenario
{

namespace
{

/** splitmix64 finalizer: keys a per-record Rng stream. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Draw a task type from the mix's cumulative weights. */
TaskType
drawType(const TaskMix &mix, Rng &rng)
{
    double total = 0.0;
    for (double w : mix.weights)
        total += w > 0.0 ? w : 0.0;
    if (total <= 0.0)
        return TaskType::Ai;
    double u = rng.uniform() * total;
    for (int t = 0; t < num_task_types; ++t) {
        const double w =
            mix.weights[static_cast<std::size_t>(t)] > 0.0
                ? mix.weights[static_cast<std::size_t>(t)]
                : 0.0;
        if (u < w)
            return static_cast<TaskType>(t);
        u -= w;
    }
    return TaskType::Hpc;
}

void
sortTasks(std::vector<Task> &tasks)
{
    std::sort(tasks.begin(), tasks.end(), [](const Task &a, const Task &b) {
        if (a.arrival != b.arrival)
            return a.arrival < b.arrival;
        return a.id < b.id;
    });
}

} // namespace

std::vector<TaskMix>
defaultTaskMixes()
{
    // Weight order matches the TaskType enum: WEB AI CRYPTO STREAM HPC.
    return {
        {"balanced", {0.20, 0.20, 0.20, 0.20, 0.20}},
        {"web_heavy", {0.55, 0.10, 0.05, 0.20, 0.10}},
        {"ai_heavy", {0.05, 0.60, 0.05, 0.10, 0.20}},
        {"stream_rt", {0.20, 0.10, 0.05, 0.55, 0.10}},
        {"hpc_batch", {0.05, 0.20, 0.15, 0.05, 0.55}},
    };
}

SlaClass
defaultSlaFor(TaskType type)
{
    switch (type) {
      case TaskType::Web:
      case TaskType::Stream: return SlaClass::LatencySensitive;
      case TaskType::Ai:
      case TaskType::Hpc: return SlaClass::Batch;
      case TaskType::Crypto: return SlaClass::Scavenger;
    }
    return SlaClass::Batch;
}

CpuIsa
defaultIsaFor(TaskType type)
{
    switch (type) {
      case TaskType::Web: return CpuIsa::X86;
      case TaskType::Ai: return CpuIsa::X86;
      case TaskType::Crypto: return CpuIsa::Arm;
      case TaskType::Stream: return CpuIsa::Arm;
      case TaskType::Hpc: return CpuIsa::Power;
    }
    return CpuIsa::X86;
}

std::vector<Task>
tasksFromDataset(const core::Dataset &dataset, const TaskMix &mix,
                 std::uint64_t seed)
{
    std::vector<Task> tasks;
    tasks.reserve(dataset.records().size());
    for (const core::JobRecord &rec : dataset.records()) {
        // Key the stream by record id, not position, so the draw is a
        // pure function of record content.
        Rng rng(mix64(seed ^ mix64(rec.id)));
        Task task;
        task.id = rec.id;
        task.type = drawType(mix, rng);
        task.sla = defaultSlaFor(task.type);
        task.preferred_isa = defaultIsaFor(task.type);
        task.arrival = rec.submit_time;
        const Seconds run = rec.runTime();
        task.expected_runtime = run > 1.0 ? run : 1.0;
        task.cores = rec.cpu_slots > 0 ? rec.cpu_slots : 1;
        task.memory_gb = rec.ram_gb > 0.0 ? rec.ram_gb : 0.0;
        task.gpus = rec.gpus > 0 ? rec.gpus : 0;
        tasks.push_back(task);
    }
    sortTasks(tasks);
    return tasks;
}

} // namespace aiwc::scenario
