/**
 * @file
 * ScenarioRunner: the {machine class x task mix x policy} sweep.
 *
 * Cells are laid out machine-class-major (then task mix, then policy)
 * and simulated via parallelFor with each cell writing only its own
 * result slot, so the merged report is byte-identical at any thread
 * count. Task streams are derived once per mix (serially, up front)
 * and shared read-only across cells; policies are stateless and shared
 * the same way.
 *
 * Each cell also gets a planner overlay: the existing power-cap /
 * co-location / multi-tier planners run over the cell's
 * GPU-accelerated record slice (the records the mix tagged WEB/... are
 * filtered down to AI / STREAM / HPC types), with cap levels scaled to
 * the machine class's GPU TDP — the paper's fixed what-ifs evaluated
 * per scenario cell.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "aiwc/core/dataset.hh"
#include "aiwc/scenario/report.hh"
#include "aiwc/scenario/workload.hh"

namespace aiwc::scenario
{

/** Sweep tunables. */
struct SweepOptions
{
    std::uint64_t seed = 2022;          //!< task-typing seed
    /**
     * Machines simulated per cell: each machine class is evaluated as
     * a homogeneous fleet of min(class count, machines_per_cell)
     * machines so one oversized class cannot dwarf the sweep.
     */
    int machines_per_cell = 8;
    /** Compute planner overlays (needs >= min_overlay_gpu_jobs). */
    bool planner_overlays = true;
    std::size_t min_overlay_gpu_jobs = 10;
};

class ScenarioRunner
{
  public:
    explicit ScenarioRunner(const ScenarioSpec &spec,
                            SweepOptions options = {});

    /**
     * Sweep every (machine class, task mix, policy) cell over tasks
     * derived from `dataset`. Policies must outlive the call; the
     * pointer list is shared across worker threads.
     */
    FrontierReport
    sweep(const core::Dataset &dataset, const std::vector<TaskMix> &mixes,
          const std::vector<const SchedulingPolicy *> &policies) const;

    /**
     * Sweep using the spec's own synthetic task classes instead of a
     * dataset: one shared task stream, no planner overlays, same cell
     * layout with the mix axis collapsed to "spec".
     */
    FrontierReport
    sweepSynthetic(const std::vector<const SchedulingPolicy *> &policies)
        const;

  private:
    ScenarioSpec spec_;
    SweepOptions options_;
};

} // namespace aiwc::scenario
