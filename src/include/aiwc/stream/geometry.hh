/**
 * @file
 * The stream geometry: KLL and heavy-hitters sizes, the sketch seed,
 * power caps and render resolution shared by every StreamPipeline.
 * They are constants, not options, so any two pipelines merge and the
 * same records always render the same snapshot bytes. The GPU-job
 * runtime filter is core::min_gpu_runtime, the batch analyzers' 30 s
 * cut.
 */

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace aiwc::stream
{

/** KLL compactor capacity of every quantile sketch; error ~ 1/kll_k. */
inline constexpr std::uint32_t kll_k = 256;

/** Users tracked by the GPU-hours heavy-hitters sketch. */
inline constexpr std::size_t heavy_hitter_capacity = 32;

/** Seed for every KLL sketch's compaction coins. */
inline constexpr std::uint64_t sketch_seed = 0;

/** Power caps evaluated in the Fig. 9b what-if, watts. */
inline constexpr std::array<double, 3> power_caps = {150.0, 200.0, 250.0};

/** Quantile levels sampled when rendering a sketch CDF. */
inline constexpr int snapshot_points = 201;
static_assert(snapshot_points >= 2,
              "a rendered CDF needs at least two quantile levels");

} // namespace aiwc::stream
