#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <sstream>
#include <thread>
#include <vector>

#include "aiwc/common/parallel.hh"

#include "../core/record_builder.hh"

#include "aiwc/base/check.hh"
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
    EXPECT_EQ(snap.caps.size(), p.options().power_caps.size());
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

TEST(StreamPipeline, MergeRequiresIdenticalOptions)
{
    ScopedCheckFailHandler guard;
    StreamOptions narrow;
    narrow.kll_k = 64;
    StreamPipeline a{narrow}, b;  // b uses the defaults
    EXPECT_THROW(a.merge(b), ContractViolation);
}

TEST(StreamPipeline, SnapshotPointsContract)
{
    ScopedCheckFailHandler guard;
    StreamOptions opts;
    opts.snapshot_points = 1;
    EXPECT_THROW(StreamPipeline{opts}, ContractViolation);
}

TEST(StreamPipeline, MemoryStaysBoundedAsTheStreamGrows)
{
    // The tentpole claim: sketch bytes depend on the geometry (and the
    // active-user count), not on how many records flowed through.
    StreamOptions opts;
    opts.kll_k = 64;
    StreamPipeline p{opts};
    auto feed = [&](int from, int to) {
        for (int i = from; i < to; ++i)
            p.ingest(gpuRecord(static_cast<JobId>(i),
                               static_cast<UserId>(i % 8),
                               60.0 + i % 977));
    };
    feed(0, 500);
    const std::size_t at_500 = p.sketchBytes();
    feed(500, 50000);
    EXPECT_EQ(p.rows(), 50000u);
    // 100x the records, bounded growth (a few extra KLL levels).
    EXPECT_LE(p.sketchBytes(), at_500 * 3);
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
    // The reservoir is fully order-independent: exact match always.
    EXPECT_EQ(parallel.exemplars().items().size(),
              serial.exemplars().items().size());
    const auto pi = parallel.exemplars().items();
    const auto si = serial.exemplars().items();
    for (std::size_t i = 0; i < pi.size(); ++i) {
        EXPECT_EQ(pi[i].key, si[i].key);
        EXPECT_DOUBLE_EQ(pi[i].value, si[i].value);
    }
}

} // namespace
} // namespace aiwc::stream
