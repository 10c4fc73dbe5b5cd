/**
 * @file
 * Streaming Figs. 10-11: per-user aggregates from O(1)-per-user moment
 * accumulators plus a space-saving top-k over GPU-hours, the online
 * counterpart of core::UserBehaviorAnalyzer. State is O(active users),
 * not O(jobs) — each user costs two StreamingMoments (runtime and SM,
 * the per-user axes a snapshot renders), never a job list — and the
 * headline "who dominates the machine" question is answerable from the
 * O(k) heavy-hitters sketch alone.
 */

#pragma once

#include <cstddef>
#include <map>
#include <vector>

#include "aiwc/common/types.hh"
#include "aiwc/core/job_record.hh"
#include "aiwc/core/user_behavior_analyzer.hh"
#include "aiwc/sketch/heavy_hitters.hh"
#include "aiwc/sketch/moments.hh"
#include "aiwc/stream/geometry.hh"

namespace aiwc::stream
{

/**
 * Mergeable streaming counterpart of core::UserBehaviorAnalyzer.
 * summaries() reproduces the batch UserSummary list for the runtime
 * and SM axes (means exactly, CoVs via Welford within floating-point
 * noise of the two-pass batch values); the job-share concentration
 * numbers are exact.
 */
class StreamingUserBehavior
{
  public:
    /** The Fig. 10 block of a snapshot, gathered in one table walk. */
    struct Aggregates
    {
        /** Per-user mean runtime, minutes, in user-id order. */
        std::vector<double> avg_runtime_min;
        /** Per-user mean SM utilization, percent, in user-id order. */
        std::vector<double> avg_sm_pct;
        /** Share of all jobs submitted by the top 5% of users. */
        double top5_job_share = 0.0;
        /** Share of all jobs submitted by the top 20% of users. */
        double top20_job_share = 0.0;
        /** Median of the per-user job counts. */
        double median_jobs_per_user = 0.0;
    };

    /** Fold one record in; ignores CPU and sub-filter jobs. */
    void observe(const core::JobRecord &rec);

    /** Fold another accumulator in (parallelReduce combine step). */
    void merge(const StreamingUserBehavior &other);

    /** Number of distinct users observed. */
    std::size_t userCount() const { return users_.size(); }

    /**
     * Per-user summaries in ascending user-id order, mirroring
     * core::UserBehaviorAnalyzer::summarize for the tracked axes: CoV
     * fields stay 0 for users with a single job and are NaN for
     * zero-mean series (the stats::covPercent convention). The
     * memBW/memSize means and CoVs are not tracked and stay 0.
     */
    std::vector<core::UserSummary> summaries() const;

    /**
     * The per-user means and job-share concentration a snapshot
     * renders, from one walk of the table and one sort of the job
     * counts. The counts are whole numbers, so the shares and the
     * median equal the batch analyzer's exactly.
     */
    Aggregates aggregates() const;

    /** Top-k users by GPU-hours from the heavy-hitters sketch. */
    std::vector<sketch::HeavyHitters::Entry>
    topUsersByGpuHours(std::size_t k) const;

    /**
     * Footprint in bytes: the per-user table (O(users)) plus the
     * heavy-hitters sketch (O(capacity)).
     */
    std::size_t bytes() const;

  private:
    /** O(1) per-user state: the two rendered axes and GPU-hours. */
    struct UserAccum
    {
        sketch::StreamingMoments runtime_min;
        sketch::StreamingMoments sm_pct;
        double gpu_hours = 0.0;

        void merge(const UserAccum &other);
    };

    // Ordered map: summaries() iterates in user-id order, matching the
    // batch analyzer's output order (det-unordered-iter rule).
    std::map<UserId, UserAccum> users_;
    sketch::HeavyHitters hours_topk_{heavy_hitter_capacity};
};

} // namespace aiwc::stream
