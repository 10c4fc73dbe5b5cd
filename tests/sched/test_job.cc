#include <gtest/gtest.h>

#include "aiwc/sched/job.hh"

namespace aiwc::sched
{
namespace
{

TEST(JobRequest, ObservedDurationClampsToWalltime)
{
    JobRequest req;
    req.duration = 100.0;
    req.walltime_limit = 50.0;
    req.natural_end = TerminalState::Completed;
    EXPECT_DOUBLE_EQ(req.observedDuration(), 50.0);
    EXPECT_EQ(req.observedEnd(), TerminalState::TimedOut);
}

TEST(JobRequest, ObservedDurationWithinWalltime)
{
    JobRequest req;
    req.duration = 30.0;
    req.walltime_limit = 50.0;
    req.natural_end = TerminalState::Cancelled;
    EXPECT_DOUBLE_EQ(req.observedDuration(), 30.0);
    EXPECT_EQ(req.observedEnd(), TerminalState::Cancelled);
}

TEST(JobRequest, GpuJobDetection)
{
    JobRequest req;
    req.gpus = 0;
    EXPECT_FALSE(req.isGpuJob());
    req.gpus = 2;
    EXPECT_TRUE(req.isGpuJob());
}

TEST(Job, TimingDerivations)
{
    Job job;
    job.request.submit_time = 100.0;
    job.request.gpus = 2;
    job.state = JobState::Finished;
    job.start_time = 160.0;
    job.end_time = 3760.0;
    EXPECT_DOUBLE_EQ(job.waitTime(), 60.0);
    EXPECT_DOUBLE_EQ(job.runTime(), 3600.0);
    EXPECT_DOUBLE_EQ(job.serviceTime(), 3660.0);
    EXPECT_DOUBLE_EQ(job.gpuHours(), 2.0);
}

TEST(Job, GpuHoursZeroUntilFinished)
{
    Job job;
    job.request.gpus = 4;
    job.state = JobState::Running;
    job.start_time = 0.0;
    job.end_time = 3600.0;
    EXPECT_DOUBLE_EQ(job.gpuHours(), 0.0);
}

} // namespace
} // namespace aiwc::sched
