#include "aiwc/sched/job.hh"

namespace aiwc::sched
{

double
Job::gpuHours() const
{
    if (state != JobState::Finished)
        return 0.0;
    return static_cast<double>(request.gpus) * runTime() / 3600.0;
}

} // namespace aiwc::sched
