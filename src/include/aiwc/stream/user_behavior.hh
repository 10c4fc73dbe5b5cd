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
#include <cstdint>
#include <vector>

#include "aiwc/common/types.hh"
#include "aiwc/core/id_table.hh"
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
        /**
         * Per-user mean runtime, minutes, in first-appearance order:
         * a rendered CDF sorts it, so the order never shows.
         */
        std::vector<double> avg_runtime_min;
        /** Per-user mean SM utilization, percent, in the same order. */
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
     * Footprint in bytes: the object, the heap capacity of the
     * per-user table (O(users)) and the heavy-hitters sketch
     * (O(capacity)).
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

    /** Accumulators per chunk; a chunk is allocated whole, once. */
    static constexpr std::size_t chunk_users = 64;

    /** The accumulator of the user at dense slot @p dense. */
    UserAccum &
    accum(std::uint32_t dense)
    {
        return chunks_[dense / chunk_users][dense % chunk_users];
    }

    const UserAccum &
    accum(std::uint32_t dense) const
    {
        return chunks_[dense / chunk_users][dense % chunk_users];
    }

    /**
     * The accumulator of @p user; a user seen for the first time gets
     * the next dense slot, holding @p initial.
     */
    UserAccum &accumFor(UserId user, const UserAccum &initial);

    // The table is dense, in first-appearance order: users_ maps a
    // user id to its slot d and back, chunks_ holds accumulator d.
    // Every walk goes over slots 0..d in order, never over the hash
    // index, so results are a pure function of the records' order.
    // Each chunk is reserved whole when it starts, so growing the
    // table copies no accumulator and fragments the heap less than a
    // doubling vector.
    core::IdTable users_;
    std::vector<std::vector<UserAccum>> chunks_;
    sketch::HeavyHitters hours_topk_{heavy_hitter_capacity};
};

} // namespace aiwc::stream
