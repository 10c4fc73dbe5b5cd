#include "aiwc/opportunity/checkpoint_planner.hh"

#include <algorithm>
#include <cmath>

#include "aiwc/base/logging.hh"

namespace aiwc::opportunity
{

bool
CheckpointPlanner::losesState(const core::JobRecord &job)
{
    switch (job.terminal) {
      case TerminalState::Failed:
      case TerminalState::TimedOut:
      case TerminalState::NodeFailure:
        return true;
      case TerminalState::Completed:
      case TerminalState::Cancelled:
        // Completed jobs persisted their result; cancellations are a
        // user's judgement that the state is not worth keeping.
        return false;
    }
    return false;
}

CheckpointPlan
CheckpointPlanner::evaluate(const core::Dataset &dataset,
                            double interval_s,
                            double write_cost_s) const
{
    AIWC_ASSERT(interval_s > 0.0, "checkpoint interval must be positive");
    AIWC_ASSERT(write_cost_s >= 0.0, "write cost must be non-negative");

    CheckpointPlan plan;
    plan.interval_s = interval_s;
    plan.write_cost_s = write_cost_s;

    double total_hours = 0.0;
    for (const std::uint32_t i : dataset.gpuJobIndices()) {
        const core::JobRecord &job = dataset.records()[i];
        const double runtime = job.runTime();
        const double gpus = static_cast<double>(job.gpus);
        total_hours += job.gpuHours();

        // Every job pays the write overhead for each checkpoint taken;
        // a checkpoint falling exactly at job end is never written.
        const double checkpoints =
            std::max(std::ceil(runtime / interval_s) - 1.0, 0.0);
        plan.overhead_hours +=
            checkpoints * write_cost_s * gpus / 3600.0;

        if (!losesState(job))
            continue;
        // Without checkpointing, the whole run's state evaporates.
        plan.lost_hours_baseline += job.gpuHours();
        // With it, only work since the last checkpoint is lost —
        // interval/2 in expectation, capped by the runtime itself.
        const double residual = std::min(runtime, interval_s / 2.0);
        plan.lost_hours_with_ckpt += residual * gpus / 3600.0;
    }

    if (total_hours > 0.0) {
        const double recovered =
            plan.lost_hours_baseline - plan.lost_hours_with_ckpt;
        plan.net_saving_fraction =
            (recovered - plan.overhead_hours) / total_hours;
    }
    return plan;
}

std::vector<CheckpointPlan>
CheckpointPlanner::sweep(const core::Dataset &dataset,
                         const std::vector<double> &intervals_s,
                         double write_cost_s) const
{
    std::vector<CheckpointPlan> plans;
    plans.reserve(intervals_s.size());
    for (double interval : intervals_s)
        plans.push_back(evaluate(dataset, interval, write_cost_s));
    return plans;
}

} // namespace aiwc::opportunity
