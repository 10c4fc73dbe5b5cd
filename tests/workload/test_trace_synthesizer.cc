#include <gtest/gtest.h>

#include "aiwc/obs/metrics.hh"
#include "aiwc/workload/trace_synthesizer.hh"

namespace aiwc::workload
{
namespace
{

SynthesisResult
smallTrace(std::uint64_t seed = 42, bool through_scheduler = true)
{
    static const auto profile = CalibrationProfile::supercloud();
    SynthesisOptions options;
    options.scale = 0.02;
    options.seed = seed;
    options.through_scheduler = through_scheduler;
    const TraceSynthesizer synthesizer(profile, options);
    return synthesizer.run();
}

TEST(TraceSynthesizer, ProducesJobsAtRoughlyScaledVolume)
{
    const auto result = smallTrace();
    // 2% of 74,820 ~ 1,500 jobs; array realizations add noise.
    EXPECT_GT(result.dataset.size(), 700u);
    EXPECT_LT(result.dataset.size(), 3200u);
}

TEST(TraceSynthesizer, DeterministicForSeed)
{
    const auto a = smallTrace(7);
    const auto b = smallTrace(7);
    ASSERT_EQ(a.dataset.size(), b.dataset.size());
    for (std::size_t i = 0; i < a.dataset.size(); ++i) {
        const auto &ra = a.dataset.records()[i];
        const auto &rb = b.dataset.records()[i];
        EXPECT_EQ(ra.id, rb.id);
        EXPECT_DOUBLE_EQ(ra.submit_time, rb.submit_time);
        EXPECT_DOUBLE_EQ(ra.end_time, rb.end_time);
        EXPECT_DOUBLE_EQ(ra.meanUtilization(Resource::Sm),
                         rb.meanUtilization(Resource::Sm));
    }
}

TEST(TraceSynthesizer, DifferentSeedsDiffer)
{
    const auto a = smallTrace(1);
    const auto b = smallTrace(2);
    EXPECT_NE(a.dataset.size(), b.dataset.size());
}

TEST(TraceSynthesizer, TimesAreConsistent)
{
    const auto result = smallTrace();
    for (const auto &r : result.dataset.records()) {
        EXPECT_GE(r.start_time, r.submit_time);
        EXPECT_GE(r.end_time, r.start_time);
        EXPECT_GE(r.submit_time, 0.0);
    }
}

TEST(TraceSynthesizer, GpuJobsCarryTelemetry)
{
    const auto result = smallTrace();
    for (const auto &r : result.dataset.records()) {
        if (r.isGpuJob() && r.runTime() > 0.0) {
            ASSERT_EQ(static_cast<int>(r.per_gpu.size()), r.gpus);
            EXPECT_GT(r.per_gpu[0].power_watts.count(), 0u);
        } else if (!r.isGpuJob()) {
            EXPECT_TRUE(r.per_gpu.empty());
        }
    }
}

TEST(TraceSynthesizer, BothJobPopulationsPresent)
{
    const auto result = smallTrace();
    EXPECT_FALSE(result.dataset.gpuJobIndices().empty());
    EXPECT_FALSE(result.dataset.cpuJobIndices().empty());
    // CPU jobs arrive mostly as whole arrays, so at a 2% scale
    // (~50 CPU arrivals) the realized fraction is high-variance; the
    // calibration-fidelity suite checks the tight band at scale 0.12.
    const double cpu_frac =
        static_cast<double>(result.dataset.cpuJobIndices().size()) /
        static_cast<double>(result.dataset.size());
    EXPECT_NEAR(cpu_frac, 0.305, 0.17);
}

TEST(TraceSynthesizer, ProfilesIndexedByJobId)
{
    const auto result = smallTrace();
    EXPECT_EQ(result.profiles.size(), result.dataset.size());
    for (const auto &r : result.dataset.records()) {
        if (r.isGpuJob()) {
            EXPECT_EQ(result.profiles[r.id].num_gpus, r.gpus);
        }
    }
}

TEST(TraceSynthesizer, DirectModeSkipsQueueing)
{
    const auto result = smallTrace(42, /*through_scheduler=*/false);
    for (const auto &r : result.dataset.records())
        EXPECT_DOUBLE_EQ(r.waitTime(), 0.0);
    EXPECT_EQ(result.scheduler_stats.finished, 0u);
}

TEST(TraceSynthesizer, SchedulerModeProducesWaits)
{
    const auto result = smallTrace();
    double max_wait = 0.0;
    for (const auto &r : result.dataset.records())
        max_wait = std::max(max_wait, r.waitTime());
    EXPECT_GT(max_wait, 0.0);
    EXPECT_GT(result.scheduler_stats.finished, 0u);
}

TEST(TraceSynthesizer, CollectorAccountingNonTrivial)
{
    const auto result = smallTrace();
    EXPECT_GT(result.central_store_bytes, 0u);
    EXPECT_GT(result.peak_spool_bytes, 0u);
    EXPECT_LT(result.peak_spool_bytes, result.central_store_bytes);
}

TEST(TraceSynthesizer, SizesClampedToScaledCluster)
{
    const auto result = smallTrace();
    const int max_gpus = result.cluster_nodes * 2;
    for (const auto &r : result.dataset.records())
        EXPECT_LE(r.gpus, max_gpus / 2);
}

TEST(TraceSynthesizer, TimeseriesSubsetExists)
{
    const auto result = smallTrace();
    std::size_t detailed = 0, gpu_jobs = 0;
    for (const auto &r : result.dataset.records()) {
        if (r.isGpuJob())
            ++gpu_jobs;
        if (r.has_timeseries)
            ++detailed;
    }
    EXPECT_GT(detailed, 10u);
    EXPECT_LT(detailed, gpu_jobs);
}

TEST(TraceSynthesizer, UserIdsWithinPopulation)
{
    const auto result = smallTrace();
    for (const auto &r : result.dataset.records())
        EXPECT_LT(r.user, static_cast<UserId>(result.num_users));
}

TEST(TraceSynthesizer, ReplicateSeedsAreStableAndDistinct)
{
    EXPECT_EQ(TraceSynthesizer::replicateSeed(42, 0), 42u);
    const auto s1 = TraceSynthesizer::replicateSeed(42, 1);
    const auto s2 = TraceSynthesizer::replicateSeed(42, 2);
    EXPECT_NE(s1, 42u);
    EXPECT_NE(s1, s2);
    // Pure function: same inputs, same seed, every time.
    EXPECT_EQ(s1, TraceSynthesizer::replicateSeed(42, 1));
}

TEST(TraceSynthesizer, RunReplicatesMatchesPerSeedRuns)
{
    static const auto profile = CalibrationProfile::supercloud();
    SynthesisOptions options;
    options.scale = 0.02;
    options.seed = 42;
    const TraceSynthesizer synthesizer(profile, options);

    const auto replicates = synthesizer.runReplicates(3);
    ASSERT_EQ(replicates.size(), 3u);
    // Replicate 0 is the base seed; every replicate must be what a
    // standalone run() with replicateSeed(seed, r) produces.
    for (int r = 0; r < 3; ++r) {
        SynthesisOptions per = options;
        per.seed = TraceSynthesizer::replicateSeed(options.seed, r);
        const auto expected = TraceSynthesizer(profile, per).run();
        const auto &got = replicates[static_cast<std::size_t>(r)];
        ASSERT_EQ(got.dataset.size(), expected.dataset.size());
        for (std::size_t i = 0; i < got.dataset.size(); ++i) {
            const auto &ga = got.dataset.records()[i];
            const auto &ea = expected.dataset.records()[i];
            ASSERT_EQ(ga.id, ea.id);
            ASSERT_DOUBLE_EQ(ga.submit_time, ea.submit_time);
            ASSERT_DOUBLE_EQ(ga.end_time, ea.end_time);
        }
    }
    // Distinct seeds gave distinct traces.
    EXPECT_NE(replicates[0].dataset.size(), replicates[1].dataset.size());
}

/** The telemetry counters' values, read before and after a run. */
struct TelemetryCounters
{
    std::uint64_t jobs = 0;
    std::uint64_t samples = 0;
    std::uint64_t detailed = 0;

    static TelemetryCounters
    read()
    {
        auto &registry = obs::MetricsRegistry::global();
        return {registry.counter("aiwc.workload.telemetry_jobs").value(),
                registry.counter("aiwc.workload.telemetry_samples").value(),
                registry.counter("aiwc.workload.telemetry_detailed_jobs")
                    .value()};
    }
};

TEST(TraceSynthesizer, TelemetryCountersMatchTheRecords)
{
    const auto before = TelemetryCounters::read();
    const auto result = smallTrace();
    const auto after = TelemetryCounters::read();

    std::uint64_t sampled = 0, detailed = 0;
    for (const auto &r : result.dataset.records()) {
        sampled += r.isGpuJob() && r.runTime() > 0.0;
        detailed += r.has_timeseries;
    }
    ASSERT_GT(sampled, 0u);
    EXPECT_EQ(after.jobs - before.jobs, sampled);
    EXPECT_EQ(after.detailed - before.detailed, detailed);
    // Every sampled job draws at least one sample per GPU.
    EXPECT_GT(after.samples - before.samples, sampled);
}

TEST(TraceSynthesizer, TelemetryCountersStayZeroWithoutTelemetry)
{
    static const auto profile = CalibrationProfile::supercloud();
    SynthesisOptions options;
    options.scale = 0.02;
    options.telemetry = false;
    const auto before = TelemetryCounters::read();
    const auto result = TraceSynthesizer(profile, options).run();
    const auto after = TelemetryCounters::read();

    ASSERT_GT(result.dataset.size(), 0u);
    EXPECT_EQ(after.jobs, before.jobs);
    EXPECT_EQ(after.samples, before.samples);
    EXPECT_EQ(after.detailed, before.detailed);
}

} // namespace
} // namespace aiwc::workload
