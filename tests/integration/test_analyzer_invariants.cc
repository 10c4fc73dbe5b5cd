/**
 * @file
 * Cross-analyzer invariants that must hold for ANY dataset, checked on
 * a synthesized trace: probability mixes sum to one, tail fractions
 * are monotone in their threshold, box statistics are ordered, and
 * report CDFs are internally consistent. These are the properties a
 * downstream consumer of the reports is entitled to assume.
 */

#include <gtest/gtest.h>

#include "aiwc/core/bottleneck_analyzer.hh"
#include "aiwc/core/lifecycle_analyzer.hh"
#include "aiwc/core/multi_gpu_analyzer.hh"
#include "aiwc/core/power_analyzer.hh"
#include "aiwc/core/service_time_analyzer.hh"
#include "aiwc/core/timeline_analyzer.hh"
#include "aiwc/core/user_behavior_analyzer.hh"
#include "aiwc/core/utilization_analyzer.hh"
#include "aiwc/workload/trace_synthesizer.hh"

namespace aiwc
{
namespace
{

const core::Dataset &
dataset()
{
    static const core::Dataset ds = [] {
        workload::SynthesisOptions options;
        options.scale = 0.04;
        options.seed = 31337;
        const auto profile = workload::CalibrationProfile::supercloud();
        return workload::TraceSynthesizer(profile, options).run()
            .dataset;
    }();
    return ds;
}

TEST(AnalyzerInvariants, LifecycleMixesSumToOne)
{
    const auto report = core::LifecycleAnalyzer().analyze(dataset());
    double jobs = 0.0, hours = 0.0;
    for (int c = 0; c < num_lifecycles; ++c) {
        jobs += report.job_mix[static_cast<std::size_t>(c)];
        hours += report.hour_mix[static_cast<std::size_t>(c)];
    }
    EXPECT_NEAR(jobs, 1.0, 1e-9);
    EXPECT_NEAR(hours, 1.0, 1e-9);
    // Per-user shares are distributions too.
    for (const auto &u : report.users) {
        double js = 0.0;
        for (double s : u.job_share)
            js += s;
        EXPECT_NEAR(js, 1.0, 1e-9);
    }
}

TEST(AnalyzerInvariants, SizeBucketFractionsSumToOne)
{
    const auto report = core::MultiGpuAnalyzer().analyze(dataset());
    double jobs = 0.0, hours = 0.0;
    for (int b = 0; b < core::num_size_buckets; ++b) {
        jobs += report.job_fraction[static_cast<std::size_t>(b)];
        hours += report.hour_fraction[static_cast<std::size_t>(b)];
    }
    EXPECT_NEAR(jobs, 1.0, 1e-9);
    EXPECT_NEAR(hours, 1.0, 1e-9);
    // User reach is nested: multi >= 3-plus >= 9-plus.
    EXPECT_GE(report.users_multi, report.users_3plus);
    EXPECT_GE(report.users_3plus, report.users_9plus);
}

TEST(AnalyzerInvariants, TailFractionsMonotoneInThreshold)
{
    const auto report = core::UtilizationAnalyzer().analyze(dataset());
    for (Resource r : {Resource::Sm, Resource::MemoryBw,
                       Resource::MemorySize}) {
        double prev = 1.1;
        for (double pct : {0.0, 10.0, 25.0, 50.0, 75.0, 99.0}) {
            const double frac = report.fractionAbove(r, pct);
            EXPECT_LE(frac, prev) << toString(r) << " @ " << pct;
            EXPECT_GE(frac, 0.0);
            prev = frac;
        }
    }
}

TEST(AnalyzerInvariants, CdfQuantilesMonotone)
{
    const auto report = core::ServiceTimeAnalyzer().analyze(dataset());
    for (const auto *cdf : {&report.gpu_runtime_min, &report.gpu_wait_s,
                            &report.cpu_wait_s, &report.gpu_wait_pct}) {
        double prev = -1e300;
        for (double q = 0.0; q <= 1.0; q += 0.05) {
            const double v = cdf->quantile(q);
            EXPECT_GE(v, prev);
            prev = v;
        }
    }
}

TEST(AnalyzerInvariants, BoxStatsOrdered)
{
    const auto report = core::LifecycleAnalyzer().analyze(dataset());
    for (int c = 0; c < num_lifecycles; ++c) {
        const auto &b = report.sm_pct[static_cast<std::size_t>(c)];
        if (b.n == 0)
            continue;
        EXPECT_LE(b.min, b.q1);
        EXPECT_LE(b.q1, b.median);
        EXPECT_LE(b.median, b.q3);
        EXPECT_LE(b.q3, b.max);
        EXPECT_LE(b.whisker_lo, b.q1);
        EXPECT_GE(b.whisker_hi, b.q3);
    }
}

TEST(AnalyzerInvariants, PowerCapClassesPartition)
{
    const auto report = core::PowerAnalyzer().analyze(dataset());
    for (const auto &cap : report.caps) {
        EXPECT_NEAR(cap.unimpacted + cap.impacted_by_max, 1.0, 1e-9);
        EXPECT_LE(cap.impacted_by_avg, cap.impacted_by_max + 1e-9);
    }
}

TEST(AnalyzerInvariants, BottleneckPairsBoundedBySingles)
{
    const auto report = core::BottleneckAnalyzer().analyze(dataset());
    for (std::size_t i = 0; i < core::bottleneck_resources.size(); ++i) {
        for (std::size_t j = i + 1;
             j < core::bottleneck_resources.size(); ++j) {
            const double pair =
                report.pairs[core::BottleneckReport::pairIndex(i, j)];
            EXPECT_LE(pair, report.single[i] + 1e-9);
            EXPECT_LE(pair, report.single[j] + 1e-9);
        }
    }
}

TEST(AnalyzerInvariants, UserSummariesCoverEveryGpuUser)
{
    const auto summaries =
        core::UserBehaviorAnalyzer().summarize(dataset());
    std::size_t total_jobs = 0;
    for (const auto &u : summaries) {
        EXPECT_GT(u.jobs, 0u);
        EXPECT_GE(u.gpu_hours, 0.0);
        total_jobs += u.jobs;
    }
    EXPECT_EQ(total_jobs, dataset().gpuJobIndices().size());
}

TEST(AnalyzerInvariants, TimelineBusyBoundedByFleet)
{
    const auto report = core::TimelineAnalyzer().analyze(dataset());
    // The trace was built on a scaled cluster; mean busy GPUs per bin
    // can never exceed the whole fleet.
    for (const auto &bin : report.bins)
        EXPECT_LE(bin.mean_gpus_busy, 448.0);
    EXPECT_GE(report.submission_peak_to_mean, 1.0);
}

} // namespace
} // namespace aiwc
