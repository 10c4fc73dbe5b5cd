/**
 * @file
 * Streaming Fig. 4a: per-job mean GPU utilization quantile sketches
 * over the three axes a SnapshotReport renders (SM, memory bandwidth,
 * memory size), the online counterpart of core::UtilizationAnalyzer.
 */

#pragma once

#include <array>
#include <cstddef>

#include "aiwc/common/types.hh"
#include "aiwc/core/job_record.hh"
#include "aiwc/sketch/kll.hh"
#include "aiwc/stream/geometry.hh"

namespace aiwc::stream
{

/**
 * Mergeable streaming counterpart of core::UtilizationAnalyzer:
 * one KLL sketch per rendered axis over 100 * meanUtilization(r) of
 * every filtered GPU job.
 */
class StreamingUtilization
{
  public:
    /** Fold one record in; ignores CPU and sub-filter jobs. */
    void observe(const core::JobRecord &rec);

    /** Fold another accumulator in (parallelReduce combine step). */
    void merge(const StreamingUtilization &other);

    /**
     * Sketch of 100 * meanUtilization(r), percent of capacity. Panics
     * for PCIe Tx/Rx (not sketched) and Power (StreamingPower's job).
     */
    const sketch::KllSketch &byResource(Resource r) const;

    /** Footprint of all sketches, bytes. */
    std::size_t bytes() const;

  private:
    /** Utilization axes sketched: SM, memBW, memSize. */
    static constexpr std::size_t num_axes = 3;

    std::array<sketch::KllSketch, num_axes> pct_{
        sketch::KllSketch(kll_k, sketch_seed),
        sketch::KllSketch(kll_k, sketch_seed),
        sketch::KllSketch(kll_k, sketch_seed)};
};

} // namespace aiwc::stream
