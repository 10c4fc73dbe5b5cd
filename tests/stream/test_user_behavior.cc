#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "../core/record_builder.hh"

#include "aiwc/stream/user_behavior.hh"

namespace aiwc::stream
{
namespace
{

using core::testing::gpuRecord;

constexpr UserId users = 300;  // several accumulator chunks

/** Jobs of @p user: one to four, with per-user runtimes and SM means. */
int
jobsOf(UserId user)
{
    return 1 + static_cast<int>(user % 4);
}

core::JobRecord
jobOf(UserId user, int job)
{
    const double runtime_s = 60.0 + 37.0 * user + 611.0 * job;
    const double sm =
        0.05 + 0.003 * static_cast<double>((user * 7 + job) % 90);
    return gpuRecord(static_cast<JobId>(user * 10 + job), user, runtime_s,
                     1 + job % 2, sm, std::min(1.0, 2 * sm));
}

/**
 * Every user's jobs, round by round: job 0 of each user in @p order,
 * then job 1, and so on. Each user sees its own jobs in the same
 * order whatever @p order is; only first appearance moves.
 */
std::vector<core::JobRecord>
rounds(const std::vector<UserId> &order)
{
    std::vector<core::JobRecord> out;
    for (int job = 0; job < 4; ++job)
        for (const UserId user : order)
            if (job < jobsOf(user))
                out.push_back(jobOf(user, job));
    return out;
}

void
expectSameTable(const StreamingUserBehavior &a,
                const StreamingUserBehavior &b)
{
    ASSERT_EQ(a.userCount(), b.userCount());
    auto x = a.aggregates();
    auto y = b.aggregates();
    // The per-user means come in first-appearance order; a snapshot
    // renders them through a sorting CDF, so compare them sorted.
    std::sort(x.avg_runtime_min.begin(), x.avg_runtime_min.end());
    std::sort(y.avg_runtime_min.begin(), y.avg_runtime_min.end());
    std::sort(x.avg_sm_pct.begin(), x.avg_sm_pct.end());
    std::sort(y.avg_sm_pct.begin(), y.avg_sm_pct.end());
    EXPECT_EQ(x.avg_runtime_min, y.avg_runtime_min);
    EXPECT_EQ(x.avg_sm_pct, y.avg_sm_pct);
    EXPECT_EQ(x.top5_job_share, y.top5_job_share);
    EXPECT_EQ(x.top20_job_share, y.top20_job_share);
    EXPECT_EQ(x.median_jobs_per_user, y.median_jobs_per_user);

    const auto s = a.summaries();
    const auto t = b.summaries();
    ASSERT_EQ(s.size(), t.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        EXPECT_EQ(s[i].user, static_cast<UserId>(i));  // user-id order
        EXPECT_EQ(s[i].user, t[i].user);
        EXPECT_EQ(s[i].jobs, t[i].jobs);
        EXPECT_EQ(s[i].gpu_hours, t[i].gpu_hours);
        EXPECT_EQ(s[i].avg_runtime_min, t[i].avg_runtime_min);
        EXPECT_EQ(s[i].avg_sm_pct, t[i].avg_sm_pct);
        EXPECT_EQ(s[i].runtime_cov_pct, t[i].runtime_cov_pct);
        EXPECT_EQ(s[i].sm_cov_pct, t[i].sm_cov_pct);
    }
}

TEST(StreamingUserBehavior, AggregatesIgnoreFirstAppearanceOrder)
{
    std::vector<UserId> ascending(users);
    for (UserId u = 0; u < users; ++u)
        ascending[u] = u;
    const std::vector<UserId> descending(ascending.rbegin(),
                                         ascending.rend());

    StreamingUserBehavior up, down;
    for (const core::JobRecord &rec : rounds(ascending))
        up.observe(rec);
    for (const core::JobRecord &rec : rounds(descending))
        down.observe(rec);
    EXPECT_EQ(up.userCount(), users);
    expectSameTable(up, down);

    // Two halves holding disjoint users (even and odd ids), merged,
    // equal the interleaved sequential feed: the merged table's dense
    // order differs, its contents do not.
    StreamingUserBehavior even, odd;
    for (const core::JobRecord &rec : rounds(ascending))
        (rec.user % 2 == 0 ? even : odd).observe(rec);
    even.merge(odd);
    expectSameTable(even, up);

    // A merge into an empty table copies the other's contents.
    StreamingUserBehavior empty;
    empty.merge(down);
    expectSameTable(empty, up);
}

TEST(StreamingUserBehavior, BytesTrackTheTable)
{
    StreamingUserBehavior table;
    const std::size_t empty = table.bytes();
    EXPECT_GE(empty, sizeof(StreamingUserBehavior));
    table.observe(jobOf(0, 0));
    const std::size_t one = table.bytes();
    EXPECT_GT(one, empty);
    std::vector<UserId> many(users);
    for (UserId u = 0; u < users; ++u)
        many[u] = u;
    for (const core::JobRecord &rec : rounds(many))
        table.observe(rec);
    // Every user holds at least its job count and two running means.
    EXPECT_GE(table.bytes() - one,
              (users - 1) * (sizeof(std::uint64_t) + 2 * sizeof(double)));
}

} // namespace
} // namespace aiwc::stream
