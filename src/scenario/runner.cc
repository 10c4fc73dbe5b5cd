#include "aiwc/scenario/runner.hh"

#include <algorithm>

#include "aiwc/common/parallel.hh"
#include "aiwc/obs/metrics.hh"
#include "aiwc/obs/trace.hh"
#include "aiwc/opportunity/colocation_advisor.hh"
#include "aiwc/opportunity/multi_tier_planner.hh"
#include "aiwc/opportunity/power_cap_planner.hh"

namespace aiwc::scenario
{

namespace
{

struct RunnerMetrics
{
    obs::Counter &sweeps;
    obs::Histogram &cell_ns;

    static RunnerMetrics &
    get()
    {
        auto &reg = obs::MetricsRegistry::global();
        static RunnerMetrics m{
            reg.counter("aiwc.scenario.sweeps"),
            reg.histogram("aiwc.scenario.cell_ns"),
        };
        return m;
    }
};

/** GPU-accelerated task types: the planner overlays analyze these. */
bool
acceleratedType(TaskType t)
{
    return t == TaskType::Ai || t == TaskType::Stream || t == TaskType::Hpc;
}

/**
 * The cell's GPU slice: records that are GPU jobs *and* were tagged an
 * accelerated type by this mix. Re-derives the same keyed per-record
 * type draw as tasksFromDataset (same seed, same mix), so the slice is
 * a pure function of record content.
 */
core::Dataset
gpuSlice(const core::Dataset &dataset, const TaskMix &mix,
         std::uint64_t seed)
{
    const std::vector<Task> tasks = tasksFromDataset(dataset, mix, seed);
    // Type draws are keyed by record id; collect the accelerated ids.
    std::vector<std::uint32_t> ids;
    for (const Task &t : tasks)
        if (t.gpus > 0 && acceleratedType(t.type))
            ids.push_back(t.id);
    std::sort(ids.begin(), ids.end());
    std::vector<core::JobRecord> slice;
    for (const core::JobRecord &rec : dataset.records())
        if (rec.isGpuJob() &&
            std::binary_search(ids.begin(), ids.end(), rec.id))
            slice.push_back(rec);
    return core::Dataset(std::move(slice));
}

PlannerOverlay
computeOverlay(const core::Dataset &slice, const MachineClassSpec &cls,
               std::size_t min_gpu_jobs)
{
    PlannerOverlay overlay;
    if (slice.size() < min_gpu_jobs || cls.gpus == 0)
        return overlay;
    const double tdp = cls.gpu_tdp_watts;
    const opportunity::PowerCapPlanner capper(tdp);
    const std::vector<opportunity::PowerCapPlan> plans =
        capper.plan(slice, {tdp * 0.5, tdp * 2.0 / 3.0, tdp * 5.0 / 6.0});
    if (plans.size() >= 2)
        overlay.power_cap_throughput_gain = plans[1].throughput_gain;
    const opportunity::ColocationAdvisor advisor;
    overlay.colocation_gpu_hours_saved =
        advisor.analyze(slice).gpu_hours_saved_fraction;
    double economy_speed = cls.gpu_relative_speed;
    if (economy_speed >= 1.0)
        economy_speed = 0.5;  // class is already the fast tier
    const opportunity::MultiTierPlanner tiers(economy_speed);
    overlay.multi_tier_cost_saving = tiers.plan(slice).cost_saving_fraction;
    overlay.computed = true;
    return overlay;
}

} // namespace

ScenarioRunner::ScenarioRunner(const ScenarioSpec &spec, SweepOptions options)
    : spec_(spec), options_(options)
{
    for (MachineClassSpec &m : spec_.machines)
        normalize(m);
    for (TaskClassSpec &t : spec_.tasks)
        normalize(t);
    if (options_.machines_per_cell < 1)
        options_.machines_per_cell = 1;
}

FrontierReport
ScenarioRunner::sweep(
    const core::Dataset &dataset, const std::vector<TaskMix> &mixes,
    const std::vector<const SchedulingPolicy *> &policies) const
{
    obs::TraceSpan span("scenario.sweep");
    FrontierReport report;
    report.scenario = spec_.name;
    report.seed = options_.seed;
    const std::size_t n_cls = spec_.machines.size();
    const std::size_t n_mix = mixes.size();
    const std::size_t n_pol = policies.size();
    const std::size_t n_cells = n_cls * n_mix * n_pol;
    if (n_cells == 0)
        return report;

    // Derive each mix's task stream (and GPU slice) once, serially;
    // cells share them read-only.
    std::vector<std::vector<Task>> mix_tasks;
    std::vector<core::Dataset> mix_slices;
    mix_tasks.reserve(n_mix);
    for (const TaskMix &mix : mixes) {
        mix_tasks.push_back(tasksFromDataset(dataset, mix, options_.seed));
        if (options_.planner_overlays)
            mix_slices.push_back(gpuSlice(dataset, mix, options_.seed));
    }

    report.cells.resize(n_cells);
    // Shard-safe: cell i writes only report.cells[i]; overlays are
    // computed by the policy-0 cell of each (class, mix) pair and
    // copied across afterwards.
    parallelFor(globalPool(), n_cells, [&](std::size_t i) {
        obs::TraceSpan cell_span("scenario.cell");
        obs::ScopedTimer timer(RunnerMetrics::get().cell_ns);
        const std::size_t cls_i = i / (n_mix * n_pol);
        const std::size_t mix_i = (i / n_pol) % n_mix;
        const std::size_t pol_i = i % n_pol;
        const MachineClassSpec &cls = spec_.machines[cls_i];
        const SchedulingPolicy &policy = *policies[pol_i];
        CellResult &cell = report.cells[i];
        cell.machine_class = cls.name;
        cell.task_mix = mixes[mix_i].name;
        cell.policy = policy.name();
        const int count = cls.count < options_.machines_per_cell
                              ? (cls.count > 0 ? cls.count : 1)
                              : options_.machines_per_cell;
        cell.stats = simulateCell(cls, count, mix_tasks[mix_i], policy,
                                  options_.engine);
        if (pol_i == 0 && options_.planner_overlays)
            cell.overlay = computeOverlay(mix_slices[mix_i], cls,
                                          options_.min_overlay_gpu_jobs);
    });
    // Propagate each (class, mix) overlay to its sibling policies.
    for (std::size_t i = 0; i < n_cells; ++i)
        if (i % n_pol != 0)
            report.cells[i].overlay = report.cells[i - i % n_pol].overlay;

    report.frontier = paretoFrontier(report.cells);
    RunnerMetrics::get().sweeps.add(1);
    return report;
}

FrontierReport
ScenarioRunner::sweepSynthetic(
    const std::vector<const SchedulingPolicy *> &policies) const
{
    obs::TraceSpan span("scenario.sweep");
    FrontierReport report;
    report.scenario = spec_.name;
    report.seed = options_.seed;
    const std::size_t n_cls = spec_.machines.size();
    const std::size_t n_pol = policies.size();
    const std::size_t n_cells = n_cls * n_pol;
    if (n_cells == 0)
        return report;

    const std::vector<Task> tasks = tasksFromSpec(spec_, options_.seed);
    report.cells.resize(n_cells);
    parallelFor(globalPool(), n_cells, [&](std::size_t i) {
        obs::TraceSpan cell_span("scenario.cell");
        obs::ScopedTimer timer(RunnerMetrics::get().cell_ns);
        const std::size_t cls_i = i / n_pol;
        const std::size_t pol_i = i % n_pol;
        const MachineClassSpec &cls = spec_.machines[cls_i];
        const SchedulingPolicy &policy = *policies[pol_i];
        CellResult &cell = report.cells[i];
        cell.machine_class = cls.name;
        cell.task_mix = "spec";
        cell.policy = policy.name();
        const int count = cls.count < options_.machines_per_cell
                              ? (cls.count > 0 ? cls.count : 1)
                              : options_.machines_per_cell;
        cell.stats =
            simulateCell(cls, count, tasks, policy, options_.engine);
    });
    report.frontier = paretoFrontier(report.cells);
    RunnerMetrics::get().sweeps.add(1);
    return report;
}

} // namespace aiwc::scenario
