#include "aiwc/stream/user_behavior.hh"

#include <algorithm>
#include <span>

#include "aiwc/core/dataset.hh"
#include "aiwc/stats/descriptive.hh"
#include "aiwc/stats/share_curve.hh"

namespace aiwc::stream
{

namespace
{

/** Users with fewer jobs report no CoVs (the batch analyzer's default). */
constexpr std::size_t min_jobs_for_cov = 2;

} // namespace

void
StreamingUserBehavior::UserAccum::merge(const UserAccum &other)
{
    runtime_min.merge(other.runtime_min);
    sm_pct.merge(other.sm_pct);
    gpu_hours += other.gpu_hours;
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
    UserAccum &acc = accumFor(rec.user, UserAccum{});
    acc.runtime_min.add(rec.runTime() / 60.0);
    acc.sm_pct.add(100.0 * rec.meanUtilization(Resource::Sm));
    acc.gpu_hours += rec.gpuHours();
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
        s.jobs = acc.runtime_min.count();
        s.gpu_hours = acc.gpu_hours;
        s.avg_runtime_min = acc.runtime_min.mean();
        s.avg_sm_pct = acc.sm_pct.mean();
        if (s.jobs >= min_jobs_for_cov) {
            s.runtime_cov_pct = acc.runtime_min.covPercent();
            s.sm_cov_pct = acc.sm_pct.covPercent();
        }
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
            out.avg_runtime_min.push_back(acc.runtime_min.mean());
            out.avg_sm_pct.push_back(acc.sm_pct.mean());
            jobs_per_user.push_back(
                static_cast<double>(acc.runtime_min.count()));
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
