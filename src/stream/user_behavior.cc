#include "aiwc/stream/user_behavior.hh"

#include <algorithm>
#include <span>

#include "aiwc/core/dataset.hh"
#include "aiwc/stats/descriptive.hh"
#include "aiwc/stats/share_curve.hh"

namespace aiwc::stream
{

void
StreamingUserBehavior::UserAccum::add(double runtime, double sm)
{
    ++jobs;
    const double n = static_cast<double>(jobs);
    runtime_min += (runtime - runtime_min) / n;
    sm_pct += (sm - sm_pct) / n;
}

void
StreamingUserBehavior::UserAccum::merge(const UserAccum &other)
{
    // Both sides hold at least one job: a slot is created by its first
    // record or copied whole from the other table.
    const double nb = static_cast<double>(other.jobs);
    jobs += other.jobs;
    const double n = static_cast<double>(jobs);
    runtime_min += (other.runtime_min - runtime_min) * nb / n;
    sm_pct += (other.sm_pct - sm_pct) * nb / n;
}

StreamingUserBehavior::UserAccum &
StreamingUserBehavior::accumFor(UserId user, const UserAccum &initial)
{
    const std::size_t known = users_.size();
    const std::uint32_t dense = users_.intern(user);
    if (users_.size() == known)
        return accum(dense);
    if (dense % chunk_users == 0)
        chunks_.emplace_back().reserve(chunk_users);
    return chunks_.back().emplace_back(initial);
}

void
StreamingUserBehavior::observe(const core::JobRecord &rec)
{
    if (!rec.isGpuJob() || rec.runTime() < core::min_gpu_runtime)
        return;
    accumFor(rec.user, UserAccum{})
        .add(rec.runTime() / 60.0, 100.0 * rec.meanUtilization(Resource::Sm));
    hours_topk_.add(rec.user, rec.gpuHours());
}

void
StreamingUserBehavior::merge(const StreamingUserBehavior &other)
{
    // Other's users in its dense order: its newcomers append here in
    // the order it first saw them.
    const std::span<const std::uint32_t> ids = other.users_.rawIds();
    for (std::uint32_t d = 0; d < ids.size(); ++d) {
        const std::size_t known = users_.size();
        UserAccum &acc = accumFor(ids[d], other.accum(d));
        if (users_.size() == known)
            acc.merge(other.accum(d));
    }
    hours_topk_.merge(other.hours_topk_);
}

std::vector<core::UserSummary>
StreamingUserBehavior::summaries() const
{
    std::vector<core::UserSummary> out;
    out.reserve(users_.size());
    const std::span<const std::uint32_t> ids = users_.rawIds();
    for (std::uint32_t d = 0; d < ids.size(); ++d) {
        const UserAccum &acc = accum(d);
        core::UserSummary s;
        s.user = ids[d];
        s.jobs = acc.jobs;
        s.avg_runtime_min = acc.runtime_min;
        s.avg_sm_pct = acc.sm_pct;
        out.push_back(s);
    }
    std::sort(out.begin(), out.end(),
              [](const core::UserSummary &a, const core::UserSummary &b) {
                  return a.user < b.user;
              });
    return out;
}

StreamingUserBehavior::Aggregates
StreamingUserBehavior::aggregates() const
{
    Aggregates out;
    out.avg_runtime_min.reserve(users_.size());
    out.avg_sm_pct.reserve(users_.size());
    std::vector<double> jobs_per_user;
    jobs_per_user.reserve(users_.size());
    for (const std::vector<UserAccum> &chunk : chunks_) {
        for (const UserAccum &acc : chunk) {
            out.avg_runtime_min.push_back(acc.runtime_min);
            out.avg_sm_pct.push_back(acc.sm_pct);
            jobs_per_user.push_back(static_cast<double>(acc.jobs));
        }
    }
    std::sort(jobs_per_user.begin(), jobs_per_user.end());
    out.top5_job_share = stats::topShareSorted(jobs_per_user, 0.05);
    out.top20_job_share = stats::topShareSorted(jobs_per_user, 0.20);
    out.median_jobs_per_user = stats::percentileSorted(jobs_per_user, 0.5);
    return out;
}

std::vector<sketch::HeavyHitters::Entry>
StreamingUserBehavior::topUsersByGpuHours(std::size_t k) const
{
    return hours_topk_.topK(k);
}

std::size_t
StreamingUserBehavior::bytes() const
{
    std::size_t accums = 0;
    for (const std::vector<UserAccum> &chunk : chunks_)
        accums += chunk.capacity() * sizeof(UserAccum);
    return sizeof(*this) + users_.bytes() +
           chunks_.capacity() * sizeof(std::vector<UserAccum>) + accums +
           (hours_topk_.bytes() - sizeof(hours_topk_));
}

} // namespace aiwc::stream
