#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <latch>
#include <thread>
#include <vector>

#include "../core/record_builder.hh"

#include "aiwc/base/check.hh"
#include "aiwc/common/parallel.hh"
#include "aiwc/svc/service.hh"

namespace aiwc::svc
{
namespace
{

using core::testing::cpuRecord;
using core::testing::gpuRecord;

/** A deterministic per-tenant batch: all GPU jobs over the debris cut. */
std::vector<core::JobRecord>
tenantBatch(std::uint64_t tenant, int count, int first_id = 0)
{
    std::vector<core::JobRecord> records;
    records.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
        const int id = first_id + i;
        records.push_back(gpuRecord(
            static_cast<JobId>(tenant * 100000 + id),
            static_cast<UserId>(tenant * 1000 + id % 7),
            120.0 + 13.0 * (id % 97)));
    }
    return records;
}

/**
 * 200 mixed records: GPU jobs (some under the 30 s cut, some on two
 * GPUs) and CPU jobs from users 0..40, so every residue of user mod 4
 * occurs.
 */
std::vector<core::JobRecord>
mixedBatch(int batch)
{
    constexpr int count = 200;
    std::vector<core::JobRecord> records;
    records.reserve(count);
    for (int i = 0; i < count; ++i) {
        const int id = batch * count + i;
        const auto user = static_cast<UserId>((id * 17) % 41);
        if (id % 9 == 0) {
            records.push_back(cpuRecord(static_cast<JobId>(id), user,
                                        60.0 + id % 50, 5.0 * (id % 13)));
        } else {
            records.push_back(gpuRecord(
                static_cast<JobId>(id), user, 20.0 + 7.0 * (id % 211),
                1 + id % 2, 0.05 + 0.009 * (id % 89), 0.95));
        }
    }
    return records;
}

/** Sample-by-sample equality of two rendered CDFs. */
void
expectSameCdf(const char *name, const stats::EmpiricalCdf &a,
              const stats::EmpiricalCdf &b)
{
    const auto samples = [](const stats::EmpiricalCdf &cdf) {
        return std::vector<double>(cdf.sorted().begin(),
                                   cdf.sorted().end());
    };
    EXPECT_EQ(samples(a), samples(b)) << name;
}

/** Field-by-field equality of two snapshots. */
void
expectSameSnapshot(const stream::SnapshotReport &a,
                   const stream::SnapshotReport &b)
{
    EXPECT_EQ(a.rows, b.rows);
    EXPECT_EQ(a.gpu_jobs, b.gpu_jobs);
    EXPECT_EQ(a.cpu_jobs, b.cpu_jobs);
    EXPECT_EQ(a.sketch_bytes, b.sketch_bytes);
    EXPECT_EQ(a.epsilon, b.epsilon);
    expectSameCdf("gpu_runtime_min", a.gpu_runtime_min,
                  b.gpu_runtime_min);
    expectSameCdf("cpu_runtime_min", a.cpu_runtime_min,
                  b.cpu_runtime_min);
    expectSameCdf("gpu_wait_s", a.gpu_wait_s, b.gpu_wait_s);
    expectSameCdf("sm_pct", a.sm_pct, b.sm_pct);
    expectSameCdf("membw_pct", a.membw_pct, b.membw_pct);
    expectSameCdf("memsize_pct", a.memsize_pct, b.memsize_pct);
    expectSameCdf("avg_watts", a.avg_watts, b.avg_watts);
    expectSameCdf("max_watts", a.max_watts, b.max_watts);
    ASSERT_EQ(a.caps.size(), b.caps.size());
    for (std::size_t i = 0; i < a.caps.size(); ++i) {
        EXPECT_EQ(a.caps[i].cap_watts, b.caps[i].cap_watts);
        EXPECT_EQ(a.caps[i].unimpacted, b.caps[i].unimpacted);
        EXPECT_EQ(a.caps[i].impacted_by_max, b.caps[i].impacted_by_max);
        EXPECT_EQ(a.caps[i].impacted_by_avg, b.caps[i].impacted_by_avg);
    }
    EXPECT_EQ(a.users, b.users);
    expectSameCdf("user_avg_runtime_min", a.user_avg_runtime_min,
                  b.user_avg_runtime_min);
    expectSameCdf("user_avg_sm_pct", a.user_avg_sm_pct,
                  b.user_avg_sm_pct);
    EXPECT_EQ(a.top5_job_share, b.top5_job_share);
    EXPECT_EQ(a.top20_job_share, b.top20_job_share);
    EXPECT_EQ(a.median_jobs_per_user, b.median_jobs_per_user);
    ASSERT_EQ(a.top_users_by_gpu_hours.size(),
              b.top_users_by_gpu_hours.size());
    for (std::size_t i = 0; i < a.top_users_by_gpu_hours.size(); ++i) {
        EXPECT_EQ(a.top_users_by_gpu_hours[i].key,
                  b.top_users_by_gpu_hours[i].key);
        EXPECT_EQ(a.top_users_by_gpu_hours[i].count,
                  b.top_users_by_gpu_hours[i].count);
        EXPECT_EQ(a.top_users_by_gpu_hours[i].error,
                  b.top_users_by_gpu_hours[i].error);
    }
}

TEST(Service, TenantsAreCreatedOnFirstContact)
{
    Service svc;
    EXPECT_FALSE(svc.hasTenant(3));
    EXPECT_EQ(svc.enqueueBatch(3, tenantBatch(3, 10)),
              Admission::Accepted);
    EXPECT_EQ(svc.enqueueBatch(1, tenantBatch(1, 5)),
              Admission::Accepted);
    EXPECT_EQ(svc.enqueueBatch(2, tenantBatch(2, 7)),
              Admission::Accepted);
    EXPECT_TRUE(svc.hasTenant(3));
    EXPECT_EQ(svc.tenantIds(),
              (std::vector<std::uint64_t>{1, 2, 3}));
    EXPECT_EQ(svc.ingestedRecords(3), 0u);

    EXPECT_EQ(svc.drain(), 22u);
    EXPECT_EQ(svc.ingestedRecords(3), 10u);
    EXPECT_EQ(svc.snapshot(3).rows, 10u);
    EXPECT_EQ(svc.snapshot(1).rows, 5u);
    EXPECT_EQ(svc.snapshot(2).rows, 7u);
    EXPECT_GT(svc.sketchBytes(), 0u);
}

TEST(Service, OfferFrameFeedsTheTenantEndToEnd)
{
    Service svc;
    const auto batch = tenantBatch(42, 16);
    const auto frame = encodeJobBatch(42, batch);
    const auto result = svc.offerFrame(frame);
    EXPECT_TRUE(result.accepted());
    EXPECT_EQ(result.decode, DecodeStatus::Ok);
    EXPECT_EQ(result.consumed, frame.size());
    EXPECT_EQ(result.tenant, 42u);
    EXPECT_EQ(result.records, 16u);

    EXPECT_EQ(svc.drain(), 16u);
    const auto snap = svc.snapshot(42);
    EXPECT_EQ(snap.rows, 16u);
    EXPECT_EQ(snap.gpu_jobs, 16u);
}

TEST(Service, OfferFrameRejectsGarbageWithoutCreatingTenants)
{
    Service svc;
    std::vector<std::uint8_t> junk(64, 0x5a);
    const auto result = svc.offerFrame(junk);
    EXPECT_FALSE(result.accepted());
    EXPECT_EQ(result.decode, DecodeStatus::BadMagic);
    EXPECT_TRUE(svc.tenantIds().empty());

    auto frame = encodeJobBatch(7, tenantBatch(7, 3));
    frame[frame_header_bytes] ^= 0xff;  // corrupt the payload
    const auto bad = svc.offerFrame(frame);
    EXPECT_EQ(bad.decode, DecodeStatus::BadCrc);
    EXPECT_TRUE(svc.tenantIds().empty());
}

TEST(Service, BackpressureKicksInOverBudgetAndClearsAfterDrain)
{
    ServiceOptions opts;
    opts.queue_budget_records = 10;
    Service svc(opts);

    EXPECT_EQ(svc.enqueueBatch(1, tenantBatch(1, 8)),
              Admission::Accepted);
    // 8 queued + 5 incoming > 10: refused, queue state untouched (the
    // drain below moves exactly 8 + 5).
    EXPECT_EQ(svc.enqueueBatch(1, tenantBatch(1, 5, 100)),
              Admission::Backpressure);
    // Another tenant's queue is independent.
    EXPECT_EQ(svc.enqueueBatch(2, tenantBatch(2, 5)),
              Admission::Accepted);

    EXPECT_EQ(svc.drain(), 13u);
    EXPECT_EQ(svc.enqueueBatch(1, tenantBatch(1, 5, 100)),
              Admission::Accepted);

    // Progress guarantee: an empty queue admits even a batch larger
    // than the whole budget, so one big sender cannot deadlock.
    EXPECT_EQ(svc.enqueueBatch(3, tenantBatch(3, 50)),
              Admission::Accepted);
    EXPECT_EQ(svc.enqueueBatch(3, tenantBatch(3, 1, 200)),
              Admission::Backpressure);
}

TEST(Service, SnapshotOfUnknownTenantTripsTheContract)
{
    ScopedCheckFailHandler guard;
    const Service svc;
    EXPECT_THROW(svc.snapshot(99), ContractViolation);
}

TEST(Service, QueueBudgetMustAdmitARecord)
{
    ScopedCheckFailHandler guard;
    ServiceOptions zero_budget;
    zero_budget.queue_budget_records = 0;
    EXPECT_THROW(Service{zero_budget}, ContractViolation);
}

TEST(Service, SnapshotMatchesOnePipelineFedInDrainOrder)
{
    // The service is one pipeline per tenant: its snapshot equals, field
    // by field, that of a single pipeline fed the same records in the
    // order drain() applies them (queue order), sketch_bytes included.
    Service svc;
    stream::StreamPipeline expected;
    for (int b = 0; b < 12; ++b) {
        std::vector<core::JobRecord> batch = mixedBatch(b);
        for (const core::JobRecord &rec : batch)
            expected.ingest(rec);
        ASSERT_EQ(svc.enqueueBatch(5, std::move(batch)),
                  Admission::Accepted);
    }
    EXPECT_EQ(svc.drain(), 2400u);
    const stream::SnapshotReport snap = svc.snapshot(5);
    EXPECT_GT(snap.epsilon, 0.0) << "the KLL sketches never compacted";
    expectSameSnapshot(snap, expected.snapshot());
}

TEST(Service, SnapshotsAreByteIdenticalAcrossDrainThreadCounts)
{
    const int saved_threads = globalThreadCount();
    constexpr std::uint64_t tenants = 6;

    // Two ingest rounds with a mid-stream snapshot between them, to
    // pin the determinism claim mid-flight and not just at the end.
    const auto run = [&](int threads) {
        setGlobalThreadCount(threads);
        Service svc;
        std::vector<stream::SnapshotReport> mid, fin;
        for (std::uint64_t t = 0; t < tenants; ++t)
            svc.enqueueBatch(t, tenantBatch(t, 120));
        svc.drain();
        for (std::uint64_t t = 0; t < tenants; ++t)
            mid.push_back(svc.snapshot(t));
        for (std::uint64_t t = 0; t < tenants; ++t) {
            svc.enqueueBatch(t, tenantBatch(t, 80, 500));
            svc.enqueueBatch(t, tenantBatch(t, 40, 900));
        }
        svc.drain();
        for (std::uint64_t t = 0; t < tenants; ++t)
            fin.push_back(svc.snapshot(t));
        return std::pair{std::move(mid), std::move(fin)};
    };

    const auto serial = run(1);
    const auto parallel = run(8);
    setGlobalThreadCount(saved_threads);

    const auto expect_identical = [](const stream::SnapshotReport &a,
                                     const stream::SnapshotReport &b) {
        EXPECT_EQ(a.rows, b.rows);
        EXPECT_EQ(a.gpu_jobs, b.gpu_jobs);
        EXPECT_EQ(a.users, b.users);
        EXPECT_DOUBLE_EQ(a.top5_job_share, b.top5_job_share);
        EXPECT_DOUBLE_EQ(a.median_jobs_per_user,
                         b.median_jobs_per_user);
        for (double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
            EXPECT_DOUBLE_EQ(a.gpu_runtime_min.quantile(q),
                             b.gpu_runtime_min.quantile(q));
            EXPECT_DOUBLE_EQ(a.sm_pct.quantile(q),
                             b.sm_pct.quantile(q));
            EXPECT_DOUBLE_EQ(a.avg_watts.quantile(q),
                             b.avg_watts.quantile(q));
        }
    };
    ASSERT_EQ(serial.first.size(), parallel.first.size());
    for (std::size_t i = 0; i < serial.first.size(); ++i) {
        expect_identical(serial.first[i], parallel.first[i]);
        expect_identical(serial.second[i], parallel.second[i]);
    }
    // The two rounds really did advance the stream.
    EXPECT_EQ(serial.first[0].rows, 120u);
    EXPECT_EQ(serial.second[0].rows, 240u);
}

TEST(Service, SnapshotWhileDrainingObservesBatchBoundaries)
{
    // tsan companion to the pipeline-level ingest-while-snapshot test:
    // here the writer is the service drain itself. Every mid-drain
    // snapshot must sit on a batch boundary — all-GPU input means a
    // consistent report satisfies gpu_jobs + cpu_jobs == rows.
    constexpr int batches = 40;
    constexpr int per_batch = 50;
    Service svc;
    std::atomic<bool> done{false};
    // The first enqueue creates the tenant; the feeder then waits for
    // the reader's first snapshot, so snapshots overlap the drains on
    // any scheduler.
    std::latch first_snapshot{1};
    std::atomic<int> drained{0};
    ThreadPool feeder(1);
    feeder.submit([&] {
        for (int b = 0; b < batches; ++b) {
            while (svc.enqueueBatch(
                       9, tenantBatch(9, per_batch, b * per_batch)) !=
                   Admission::Accepted)
                svc.drain();
            if (b == 0)
                first_snapshot.wait();
            svc.drain();
            drained.fetch_add(1, std::memory_order_release);
        }
        done.store(true, std::memory_order_release);
    });
    bool first = true;
    while (!done.load(std::memory_order_acquire)) {
        if (!svc.hasTenant(9)) {
            std::this_thread::yield();
            continue;
        }
        const auto snap = svc.snapshot(9);
        if (first) {
            first = false;
            first_snapshot.count_down();
        }
        EXPECT_EQ(snap.rows % per_batch, 0u) << "torn batch";
        EXPECT_EQ(snap.gpu_jobs + snap.cpu_jobs, snap.rows);
        // Back-to-back snapshots starve the feeder on the tenant mutex,
        // so wait for it to finish at least one more drain.
        const int seen = drained.load(std::memory_order_acquire);
        while (!done.load(std::memory_order_acquire) &&
               drained.load(std::memory_order_acquire) == seen)
            std::this_thread::yield();
    }
    svc.drain();
    EXPECT_EQ(svc.snapshot(9).rows,
              static_cast<std::uint64_t>(batches * per_batch));
    EXPECT_EQ(svc.ingestedRecords(9),
              static_cast<std::uint64_t>(batches * per_batch));
}

TEST(Service, ConcurrentDrainsConserveEveryRecord)
{
    // Regression for the drain() shard-count read that sat outside the
    // tenant mutex (caught by the AIWC_GUARDED_BY annotations): two
    // drains racing a feeder must route every record exactly once,
    // with all tenant state — queue, counters, shard geometry — only
    // touched under the tenant lock. tsan is the oracle.
    constexpr int batches = 30;
    constexpr int per_batch = 40;
    Service svc;
    std::atomic<bool> done{false};
    {
        ThreadPool feeder(1);
        ThreadPool drainer(1);
        drainer.submit([&] {
            while (!done.load(std::memory_order_acquire))
                svc.drain();
        });
        feeder.submit([&] {
            for (int b = 0; b < batches; ++b) {
                while (svc.enqueueBatch(
                           3,
                           tenantBatch(3, per_batch, b * per_batch)) !=
                       Admission::Accepted) {
                }
            }
            done.store(true, std::memory_order_release);
        });
        while (!done.load(std::memory_order_acquire))
            svc.drain();  // three-way race: feeder, drainer, and here
    }  // both pools drain and join
    svc.drain();
    EXPECT_EQ(svc.ingestedRecords(3),
              static_cast<std::uint64_t>(batches * per_batch));
    EXPECT_EQ(svc.snapshot(3).rows,
              static_cast<std::uint64_t>(batches * per_batch));
}

} // namespace
} // namespace aiwc::svc
