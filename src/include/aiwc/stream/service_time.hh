/**
 * @file
 * Streaming Fig. 3a: GPU and CPU runtime and GPU queue-wait quantile
 * sketches, ingested one JobRecord at a time instead of sorting
 * materialized series like core::ServiceTimeAnalyzer. These are the
 * three service-time curves a SnapshotReport renders.
 */

#pragma once

#include <cstddef>

#include "aiwc/core/job_record.hh"
#include "aiwc/sketch/kll.hh"
#include "aiwc/stream/geometry.hh"

namespace aiwc::stream
{

/**
 * Mergeable streaming counterpart of core::ServiceTimeAnalyzer.
 * Applies the same population split as the batch path: GPU jobs pass
 * the core::min_gpu_runtime filter; CPU jobs are unfiltered.
 */
class StreamingServiceTime
{
  public:
    /** Fold one record in; applies the population filters itself. */
    void observe(const core::JobRecord &rec);

    /** Fold another accumulator in (parallelReduce combine step). */
    void merge(const StreamingServiceTime &other);

    const sketch::KllSketch &gpuRuntimeMin() const
    {
        return gpu_runtime_min_;
    }
    const sketch::KllSketch &cpuRuntimeMin() const
    {
        return cpu_runtime_min_;
    }
    const sketch::KllSketch &gpuWaitS() const { return gpu_wait_s_; }

    /** Footprint of all three sketches, bytes. */
    std::size_t bytes() const;

  private:
    sketch::KllSketch gpu_runtime_min_{kll_k, sketch_seed};
    sketch::KllSketch cpu_runtime_min_{kll_k, sketch_seed};
    sketch::KllSketch gpu_wait_s_{kll_k, sketch_seed};
};

} // namespace aiwc::stream
