#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <latch>
#include <sstream>
#include <thread>
#include <vector>

#include "aiwc/base/check.hh"
#include "aiwc/common/parallel.hh"
#include "aiwc/obs/metrics.hh"

#include "../core/record_builder.hh"

#include "aiwc/stream/pipeline.hh"

namespace aiwc::stream
{
namespace
{

using core::testing::cpuRecord;
using core::testing::gpuRecord;

TEST(StreamPipeline, CountsPopulationsThroughTheFilter)
{
    StreamPipeline p;
    p.ingest(gpuRecord(1, 0, 600.0));
    p.ingest(gpuRecord(2, 0, 10.0));   // under the 30 s debris cut
    p.ingest(cpuRecord(3, 1, 480.0));
    EXPECT_EQ(p.rows(), 3u);
    const auto snap = p.snapshot();
    EXPECT_EQ(snap.rows, 3u);
    EXPECT_EQ(snap.gpu_jobs, 1u);
    EXPECT_EQ(snap.cpu_jobs, 1u);
    EXPECT_EQ(snap.users, 1u);  // only the filtered GPU job's user
}

TEST(StreamPipeline, SnapshotRendersEveryFigure)
{
    StreamPipeline p;
    for (int i = 0; i < 50; ++i)
        p.ingest(gpuRecord(static_cast<JobId>(i),
                           static_cast<UserId>(i % 5),
                           600.0 + 60.0 * i));
    for (int i = 50; i < 60; ++i)
        p.ingest(cpuRecord(static_cast<JobId>(i), 9, 120.0));

    const auto snap = p.snapshot();
    EXPECT_FALSE(snap.gpu_runtime_min.empty());     // Fig. 3a
    EXPECT_FALSE(snap.cpu_runtime_min.empty());
    EXPECT_FALSE(snap.gpu_wait_s.empty());
    EXPECT_FALSE(snap.sm_pct.empty());              // Fig. 4a
    EXPECT_FALSE(snap.membw_pct.empty());
    EXPECT_FALSE(snap.memsize_pct.empty());
    EXPECT_FALSE(snap.avg_watts.empty());           // Fig. 9a
    EXPECT_FALSE(snap.max_watts.empty());
    EXPECT_EQ(snap.caps.size(), power_caps.size());
    EXPECT_EQ(snap.users, 5u);                      // Fig. 10
    EXPECT_FALSE(snap.user_avg_runtime_min.empty());
    EXPECT_FALSE(snap.top_users_by_gpu_hours.empty());
    EXPECT_GT(snap.median_jobs_per_user, 0.0);
    // 60 records never trip a k=256 compactor, so the sketches are
    // exact and the advertised rank-error bound must be exactly zero
    // (the KllSketch::epsilonBound degenerate-sketch contract).
    EXPECT_DOUBLE_EQ(snap.epsilon, 0.0);
    EXPECT_GT(snap.sketch_bytes, 0u);

    // All 50 GPU jobs fit below the compactor threshold, so the
    // rendered median is the exact sample median.
    EXPECT_NEAR(snap.gpu_runtime_min.quantile(0.5),
                (600.0 + 60.0 * 24.5) / 60.0, 0.51);
}

TEST(StreamPipeline, SnapshotSortsEachSketchOnce)
{
    // One sorted view per rendered KLL sketch and none elsewhere: a
    // render that went back to one sort per quantile level would add
    // 8 x snapshot_points here, however fast the machine.
    auto &views = obs::MetricsRegistry::global().counter(
        "aiwc.sketch.sorted_views");
    StreamPipeline p;
    std::uint64_t before = views.value();
    (void)p.snapshot();
    EXPECT_EQ(views.value() - before, 0u);  // nothing to sort yet

    for (int i = 0; i < 3000; ++i)
        p.ingest(gpuRecord(static_cast<JobId>(i),
                           static_cast<UserId>(i % 11),
                           120.0 + 7.0 * (i % 113)));
    for (int i = 3000; i < 3400; ++i)
        p.ingest(cpuRecord(static_cast<JobId>(i), 3, 60.0 + i % 17));
    ASSERT_GT(p.serviceTime().gpuRuntimeMin().compactions(), 0u);
    before = views.value();
    const auto snap = p.snapshot();
    EXPECT_EQ(views.value() - before, 8u);
    EXPECT_FALSE(snap.cpu_runtime_min.empty());
    EXPECT_FALSE(snap.max_watts.empty());
}

TEST(RenderCdf, RoundTripsAnUncompactedSketch)
{
    // An uncompacted sketch holds every sample, so its render is a
    // dense sampling of the exact CDF: the KS distance is bounded by
    // the sampling granularity alone.
    const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0, 5.0, 8.0, 13.0};
    sketch::KllSketch s(kll_k, sketch_seed);
    for (double x : xs)
        s.add(x);
    const stats::EmpiricalCdf exact(xs);
    const auto rendered = renderCdf(s, 201);
    EXPECT_EQ(rendered.size(), 201u);
    EXPECT_DOUBLE_EQ(rendered.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(rendered.quantile(1.0), 13.0);
    EXPECT_LE(rendered.ksDistance(exact), 1.0 / 200.0 + 1.0 / xs.size());
}

TEST(RenderCdf, SamplesAreTheSketchQuantilesInLevelOrder)
{
    // A compacted, merged sketch with heavy ties: the rendered samples
    // are exactly quantiles() at i / (points - 1), already
    // non-decreasing in level order, so no clamp or reorder moved any.
    sketch::KllSketch a(kll_k, sketch_seed), b(kll_k, sketch_seed);
    for (int i = 0; i < 20000; ++i)
        (i % 3 ? a : b).add(static_cast<double>((i * 7919) % 97 / 4));
    a.merge(b);
    ASSERT_GT(a.compactions(), 0u);
    constexpr int points = 101;
    std::vector<double> levels;
    for (int i = 0; i < points; ++i)
        levels.push_back(static_cast<double>(i) / (points - 1));
    const auto expected = a.quantiles(levels);
    ASSERT_TRUE(std::is_sorted(expected.begin(), expected.end()));
    const auto rendered = renderCdf(a, points);
    const auto sorted = rendered.sorted();
    ASSERT_EQ(sorted.size(), expected.size());
    for (std::size_t i = 0; i < sorted.size(); ++i)
        EXPECT_EQ(sorted[i], expected[i]) << "level " << levels[i];
}

TEST(RenderCdf, EmptySketchRendersEmptyCdf)
{
    const sketch::KllSketch s(kll_k, sketch_seed);
    EXPECT_TRUE(renderCdf(s).empty());
    EXPECT_TRUE(renderCdf(s, 2).empty());
}

TEST(RenderCdf, Contracts)
{
    ScopedCheckFailHandler guard;
    sketch::KllSketch s(kll_k, sketch_seed);
    s.add(3.0);
    s.add(5.0);
    EXPECT_THROW(renderCdf(s, 1), ContractViolation);
    EXPECT_THROW(renderCdf(s, 0), ContractViolation);
    // Two levels are the minimum: the exact min and max.
    const auto two = renderCdf(s, 2);
    ASSERT_EQ(two.size(), 2u);
    EXPECT_DOUBLE_EQ(two.sorted()[0], 3.0);
    EXPECT_DOUBLE_EQ(two.sorted()[1], 5.0);
}

TEST(StreamPipeline, SnapshotOfEmptyPipelinePrints)
{
    const StreamPipeline p;
    const auto snap = p.snapshot();
    EXPECT_EQ(snap.rows, 0u);
    EXPECT_TRUE(snap.gpu_runtime_min.empty());
    EXPECT_TRUE(snap.caps.empty());   // no power data, no what-if
    EXPECT_EQ(snap.users, 0u);
    std::ostringstream os;
    snap.print(os);
    EXPECT_NE(os.str().find("stream snapshot"), std::string::npos);
}

TEST(StreamPipeline, SnapshotIsConstAndRepeatable)
{
    StreamPipeline p;
    for (int i = 0; i < 40; ++i)
        p.ingest(gpuRecord(static_cast<JobId>(i), 0,
                           300.0 + 10.0 * i));
    const auto first = p.snapshot();
    const auto second = p.snapshot();  // must not perturb the state
    ASSERT_EQ(first.gpu_runtime_min.size(),
              second.gpu_runtime_min.size());
    for (double q : {0.1, 0.5, 0.9})
        EXPECT_DOUBLE_EQ(first.gpu_runtime_min.quantile(q),
                         second.gpu_runtime_min.quantile(q));
}

TEST(StreamPipeline, MemoryStaysBoundedAsTheStreamGrows)
{
    // The tentpole claim: sketch bytes depend on the geometry (and the
    // active-user count), not on how many records flowed through.
    StreamPipeline p;
    auto feed = [&](int from, int to) {
        for (int i = from; i < to; ++i)
            p.ingest(gpuRecord(static_cast<JobId>(i),
                               static_cast<UserId>(i % 8),
                               60.0 + i % 977));
    };
    // Start past the first few compactions (10 x kll_k records), so the
    // baseline is a working sketch rather than a half-filled level 0.
    feed(0, 2560);
    const std::size_t at_2560 = p.sketchBytes();
    feed(2560, 256000);
    EXPECT_EQ(p.rows(), 256000u);
    // 100x the records, bounded growth (a few extra KLL levels).
    EXPECT_LE(p.sketchBytes(), at_2560 * 3);
}

TEST(StreamPipeline, SnapshotWhileIngestingIsRaceFreeAndConsistent)
{
    // Regression for the snapshot()-during-ingest() data race: the
    // two now serialize on the pipeline's internal mutex, so this
    // test is clean under the debug-tsan preset (test_stream carries
    // the tsan CTest label) and every mid-stream snapshot observes a
    // record-boundary state. A torn state would show up as internally
    // inconsistent population counts.
    constexpr int records = 4000;
    StreamPipeline p;
    std::atomic<bool> done{false};
    // The writer starts only once the reader is in its loop, so the
    // reader's snapshots overlap the ingest on any scheduler.
    std::latch first_snapshot{1};
    std::atomic<int> ingested{0};
    ThreadPool writer(1);
    writer.submit([&] {
        first_snapshot.wait();
        for (int i = 0; i < records; ++i) {
            p.ingest(gpuRecord(static_cast<JobId>(i),
                               static_cast<UserId>(i % 16),
                               60.0 + i % 977));
            ingested.fetch_add(1, std::memory_order_release);
        }
        done.store(true, std::memory_order_release);
    });
    std::uint64_t snapshots = 0;
    while (!done.load(std::memory_order_acquire)) {
        const auto snap = p.snapshot();
        if (snapshots++ == 0)
            first_snapshot.count_down();
        EXPECT_LE(snap.rows, static_cast<std::uint64_t>(records));
        // Every ingested record was a GPU job over the debris cut, so
        // a consistent snapshot counts each row in exactly one bucket.
        EXPECT_EQ(snap.gpu_jobs + snap.cpu_jobs, snap.rows);
        EXPECT_LE(snap.users, 16u);
        // Back-to-back snapshots starve the writer on the unfair mutex,
        // so let it ingest a stride of records first. The stride bounds
        // the snapshot count, whose cost grows with the rows ingested.
        const int seen = ingested.load(std::memory_order_acquire);
        while (!done.load(std::memory_order_acquire) &&
               ingested.load(std::memory_order_acquire) < seen + 100)
            std::this_thread::yield();
    }
    const auto final_snap = p.snapshot();
    EXPECT_EQ(final_snap.rows, static_cast<std::uint64_t>(records));
    EXPECT_EQ(final_snap.gpu_jobs, static_cast<std::uint64_t>(records));
    EXPECT_GE(snapshots, 1u);
}

TEST(StreamPipeline, ParallelIngestMatchesSerialBelowCompaction)
{
    // With every sketch below its compaction threshold the shard merge
    // is lossless, so parallel and serial state agree exactly.
    std::vector<core::JobRecord> records;
    for (int i = 0; i < 120; ++i) {
        if (i % 4 == 3)
            records.push_back(
                cpuRecord(static_cast<JobId>(i), 7, 200.0));
        else
            records.push_back(
                gpuRecord(static_cast<JobId>(i),
                          static_cast<UserId>(i % 6), 90.0 + i));
    }

    StreamPipeline serial;
    for (const auto &r : records)
        serial.ingest(r);
    const StreamPipeline parallel = ingestParallel(records);

    EXPECT_EQ(parallel.rows(), serial.rows());
    const auto ps = parallel.snapshot(), ss = serial.snapshot();
    EXPECT_EQ(ps.gpu_jobs, ss.gpu_jobs);
    EXPECT_EQ(ps.cpu_jobs, ss.cpu_jobs);
    for (double q : {0.0, 0.25, 0.5, 0.75, 1.0}) {
        EXPECT_DOUBLE_EQ(ps.gpu_runtime_min.quantile(q),
                         ss.gpu_runtime_min.quantile(q));
        EXPECT_DOUBLE_EQ(ps.sm_pct.quantile(q),
                         ss.sm_pct.quantile(q));
        EXPECT_DOUBLE_EQ(ps.avg_watts.quantile(q),
                         ss.avg_watts.quantile(q));
    }
    EXPECT_EQ(ps.users, ss.users);
    EXPECT_DOUBLE_EQ(ps.top5_job_share, ss.top5_job_share);
}

} // namespace
} // namespace aiwc::stream
