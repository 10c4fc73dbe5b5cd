/**
 * @file
 * The streaming-vs-batch equivalence harness: on the same synthesized
 * trace, the single-pass sketch pipeline must land within its
 * advertised rank-error bound of the exact batch analyzers for every
 * figure it reproduces (Figs. 3a, 4a, 9a/9b, 10), and the streaming
 * replay must feed it the exact records the batch path materializes.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "aiwc/core/power_analyzer.hh"
#include "aiwc/core/service_time_analyzer.hh"
#include "aiwc/core/user_behavior_analyzer.hh"
#include "aiwc/core/utilization_analyzer.hh"
#include "aiwc/stream/pipeline.hh"
#include "aiwc/workload/trace_synthesizer.hh"

namespace aiwc::stream
{
namespace
{

workload::SynthesisResult
synthesize()
{
    workload::SynthesisOptions options;
    options.seed = 1234;
    options.scale = 0.04;
    const auto profile = workload::CalibrationProfile::supercloud();
    return workload::TraceSynthesizer(profile, options).run();
}

const workload::SynthesisResult &
trace()
{
    static const workload::SynthesisResult result = synthesize();
    return result;
}

StreamPipeline
streamOver(const core::Dataset &ds)
{
    StreamPipeline p;
    for (const auto &r : ds.records())
        p.ingest(r);
    return p;
}

/**
 * Rank-error check: at the batch CDF's own q-quantiles, the sketch's
 * CDF estimate must sit within epsilon (plus the batch CDF's own
 * 1/n step granularity) of the batch value.
 */
void
expectWithinRankError(const sketch::KllSketch &sk,
                      const stats::EmpiricalCdf &exact,
                      const char *what)
{
    ASSERT_FALSE(exact.empty()) << what;
    ASSERT_EQ(sk.count(), exact.size()) << what;
    const double slack =
        sk.epsilonBound() + 1.0 / static_cast<double>(exact.size());
    for (double q : {0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99}) {
        const double v = exact.quantile(q);
        EXPECT_NEAR(sk.cdf(v), exact.at(v), slack)
            << what << " at q = " << q;
    }
}

TEST(StreamEquivalence, ServiceTimeMatchesBatchWithinEpsilon)
{
    const auto &ds = trace().dataset;
    const auto batch = core::ServiceTimeAnalyzer().analyze(ds);
    const auto p = streamOver(ds);
    expectWithinRankError(p.serviceTime().gpuRuntimeMin(),
                          batch.gpu_runtime_min, "gpu runtime");
    expectWithinRankError(p.serviceTime().cpuRuntimeMin(),
                          batch.cpu_runtime_min, "cpu runtime");
    expectWithinRankError(p.serviceTime().gpuWaitS(),
                          batch.gpu_wait_s, "gpu wait");
}

TEST(StreamEquivalence, UtilizationMatchesBatchWithinEpsilon)
{
    const auto &ds = trace().dataset;
    const auto batch = core::UtilizationAnalyzer().analyze(ds);
    const auto p = streamOver(ds);
    expectWithinRankError(p.utilization().byResource(Resource::Sm),
                          batch.sm_pct, "sm");
    expectWithinRankError(
        p.utilization().byResource(Resource::MemoryBw),
        batch.membw_pct, "membw");
    expectWithinRankError(
        p.utilization().byResource(Resource::MemorySize),
        batch.memsize_pct, "memsize");
}

TEST(StreamEquivalence, PowerAndCapImpactsMatchBatchWithinEpsilon)
{
    const auto &ds = trace().dataset;
    const auto batch = core::PowerAnalyzer().analyze(ds);
    const auto p = streamOver(ds);
    expectWithinRankError(p.power().avgWatts(), batch.avg_watts,
                          "avg watts");
    expectWithinRankError(p.power().maxWatts(), batch.max_watts,
                          "max watts");

    const auto stream_caps = p.power().capImpacts();
    ASSERT_EQ(stream_caps.size(), batch.caps.size());
    const double slack = p.power().maxWatts().epsilonBound() +
                         1.0 / static_cast<double>(
                                   batch.max_watts.size());
    for (std::size_t i = 0; i < stream_caps.size(); ++i) {
        EXPECT_DOUBLE_EQ(stream_caps[i].cap_watts,
                         batch.caps[i].cap_watts);
        EXPECT_NEAR(stream_caps[i].unimpacted,
                    batch.caps[i].unimpacted, slack);
        EXPECT_NEAR(stream_caps[i].impacted_by_max,
                    batch.caps[i].impacted_by_max, slack);
        EXPECT_NEAR(stream_caps[i].impacted_by_avg,
                    batch.caps[i].impacted_by_avg, slack);
    }
}

TEST(StreamEquivalence, UserSummariesMatchBatch)
{
    // Per-user aggregates are exact, not sketched: same users, same
    // counts, means equal up to Welford-vs-batch floating-point noise,
    // concentration shares exactly equal.
    const auto &ds = trace().dataset;
    const auto batch = core::UserBehaviorAnalyzer().analyze(ds);
    const auto p = streamOver(ds);
    const auto stream_users = p.userBehavior().summaries();

    ASSERT_EQ(stream_users.size(), batch.users.size());
    auto close = [](double a, double b) {
        return std::abs(a - b) <=
               1e-9 * (1.0 + std::abs(a) + std::abs(b));
    };
    for (std::size_t i = 0; i < stream_users.size(); ++i) {
        const auto &s = stream_users[i];
        const auto &b = batch.users[i];
        EXPECT_EQ(s.user, b.user);
        EXPECT_EQ(s.jobs, b.jobs);
        EXPECT_TRUE(close(s.avg_runtime_min, b.avg_runtime_min))
            << s.user;
        EXPECT_TRUE(close(s.avg_sm_pct, b.avg_sm_pct)) << s.user;
    }
    // The snapshot reads the shares and the median from this helper.
    const auto aggregates = p.userBehavior().aggregates();
    EXPECT_DOUBLE_EQ(aggregates.top5_job_share, batch.top5_job_share);
    EXPECT_DOUBLE_EQ(aggregates.top20_job_share, batch.top20_job_share);
    EXPECT_DOUBLE_EQ(aggregates.median_jobs_per_user,
                     batch.median_jobs_per_user);
}

TEST(StreamEquivalence, HeavyHittersFindTheTopUserExactlyEnough)
{
    const auto &ds = trace().dataset;
    const auto p = streamOver(ds);
    const auto batch =
        core::UserBehaviorAnalyzer().summarize(ds);
    ASSERT_FALSE(batch.empty());
    // True top user by GPU-hours from the exact per-user table.
    const core::UserSummary *top = &batch.front();
    for (const auto &u : batch)
        if (u.gpu_hours > top->gpu_hours)
            top = &u;
    const auto hitters = p.userBehavior().topUsersByGpuHours(5);
    ASSERT_FALSE(hitters.empty());
    bool found = false;
    for (const auto &h : hitters)
        found = found || h.key == top->user;
    EXPECT_TRUE(found) << "true top user " << top->user
                       << " missing from heavy hitters";
}

TEST(StreamEquivalence, SnapshotCdfWithinKsBoundOfExactCurve)
{
    // Regression for the render path, stream::renderCdf over
    // KllSketch::quantiles: the snapshot's rendered CDF must stay
    // within the sketch rank error plus the quantile-sampling
    // granularity of the exact batch curve, measured with the
    // ksDistance the figure tests already use.
    const auto &ds = trace().dataset;
    const auto batch = core::ServiceTimeAnalyzer().analyze(ds);
    const auto p = streamOver(ds);
    const auto snap = p.snapshot();

    ASSERT_FALSE(snap.gpu_runtime_min.empty());
    const double bound =
        snap.epsilon +
        1.0 / (snapshot_points - 1.0) +
        1.0 / static_cast<double>(batch.gpu_runtime_min.size()) + 0.01;
    EXPECT_LE(snap.gpu_runtime_min.ksDistance(batch.gpu_runtime_min),
              bound);
}

TEST(StreamEquivalence, StreamingReplayFeedsTheIdenticalRecords)
{
    // runStreaming must emit exactly the records run() materializes,
    // in the same order — so a pipeline fed by the replay is
    // indistinguishable from one fed from the Dataset.
    const auto &batch = trace();
    workload::SynthesisOptions options;
    options.seed = 1234;
    options.scale = 0.04;
    const auto profile = workload::CalibrationProfile::supercloud();
    const workload::TraceSynthesizer synth(profile, options);

    StreamPipeline streamed;
    const auto replay = synth.runStreaming(
        [&](core::JobRecord &&rec) { streamed.ingest(std::move(rec)); });

    EXPECT_EQ(replay.records, batch.dataset.size());
    EXPECT_EQ(replay.num_users, batch.num_users);
    EXPECT_EQ(replay.cluster_nodes, batch.cluster_nodes);
    EXPECT_EQ(replay.central_store_bytes, batch.central_store_bytes);
    EXPECT_EQ(replay.scheduler_stats.started,
              batch.scheduler_stats.started);

    const auto direct = streamOver(batch.dataset);
    EXPECT_EQ(streamed.rows(), direct.rows());
    for (double q : {0.0, 0.1, 0.5, 0.9, 1.0}) {
        EXPECT_DOUBLE_EQ(
            streamed.serviceTime().gpuRuntimeMin().quantile(q),
            direct.serviceTime().gpuRuntimeMin().quantile(q));
        EXPECT_DOUBLE_EQ(streamed.power().avgWatts().quantile(q),
                         direct.power().avgWatts().quantile(q));
    }
    EXPECT_EQ(
        streamed.serviceTime().gpuRuntimeMin().compactions(),
        direct.serviceTime().gpuRuntimeMin().compactions());
}

} // namespace
} // namespace aiwc::stream
