/**
 * @file
 * The mid-stream answer: everything the paper's headline figures need,
 * rendered from sketch state at any point of the ingest. A snapshot is
 * a plain value — emitting one neither mutates nor locks the pipeline,
 * so a serving layer can publish them while ingestion continues.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <vector>

#include "aiwc/core/power_analyzer.hh"
#include "aiwc/core/user_behavior_analyzer.hh"
#include "aiwc/sketch/heavy_hitters.hh"
#include "aiwc/sketch/kll.hh"
#include "aiwc/stats/ecdf.hh"
#include "aiwc/stream/geometry.hh"

namespace aiwc::stream
{

/**
 * Render one KLL sketch as a plottable CDF: KllSketch::quantiles at the
 * @p points evenly spaced levels i / (points - 1), one sorted view per
 * sketch. The samples are non-decreasing by construction (one forward
 * walk of the sorted items); an empty sketch renders an empty CDF.
 * @param points number of levels >= 2 (AIWC_CHECK).
 */
stats::EmpiricalCdf renderCdf(const sketch::KllSketch &sketch,
                              int points = snapshot_points);

/**
 * Point-in-time report over everything ingested so far. The CDFs are
 * rendered from the KLL sketches by renderCdf, so every quantile
 * carries the sketch's epsilon rank-error bound; the per-user
 * aggregates and cap impacts are listed in their figure order.
 */
struct SnapshotReport
{
    /** Records ingested when the snapshot was taken. */
    std::uint64_t rows = 0;
    std::uint64_t gpu_jobs = 0;   //!< after the runtime filter
    std::uint64_t cpu_jobs = 0;

    /** Total sketch footprint at snapshot time, bytes. */
    std::size_t sketch_bytes = 0;
    /** Worst rank-error bound across the rendered sketches. */
    double epsilon = 0.0;

    // Fig. 3a — service time.
    stats::EmpiricalCdf gpu_runtime_min;
    stats::EmpiricalCdf cpu_runtime_min;
    stats::EmpiricalCdf gpu_wait_s;

    // Fig. 4a — per-job mean utilization, percent.
    stats::EmpiricalCdf sm_pct;
    stats::EmpiricalCdf membw_pct;
    stats::EmpiricalCdf memsize_pct;

    // Fig. 9a/9b — power.
    stats::EmpiricalCdf avg_watts;
    stats::EmpiricalCdf max_watts;
    std::vector<core::PowerCapImpact> caps;

    // Fig. 10 — per-user behaviour.
    std::size_t users = 0;
    stats::EmpiricalCdf user_avg_runtime_min;
    stats::EmpiricalCdf user_avg_sm_pct;
    double top5_job_share = 0.0;
    double top20_job_share = 0.0;
    double median_jobs_per_user = 0.0;
    std::vector<sketch::HeavyHitters::Entry> top_users_by_gpu_hours;

    /** Render the headline numbers as text tables. */
    void print(std::ostream &os) const;
};

} // namespace aiwc::stream
