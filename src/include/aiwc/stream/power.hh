/**
 * @file
 * Streaming Fig. 9: per-job average/max power-draw quantile sketches
 * and the power-cap what-if evaluated on the sketched CDFs, the online
 * counterpart of core::PowerAnalyzer.
 */

#pragma once

#include <cstddef>
#include <vector>

#include "aiwc/core/job_record.hh"
#include "aiwc/core/power_analyzer.hh"
#include "aiwc/sketch/kll.hh"
#include "aiwc/stream/geometry.hh"

namespace aiwc::stream
{

/**
 * Mergeable streaming counterpart of core::PowerAnalyzer. The cap
 * impacts (Fig. 9b) use the same semantics as the batch path —
 * unimpacted = F_max(cap), impacted-by-max = 1 - F_max(cap),
 * impacted-by-avg = 1 - F_avg(cap) — with the CDFs estimated by the
 * sketches, so each fraction carries the sketch's rank-error bound.
 */
class StreamingPower
{
  public:
    /** Fold one record in; ignores CPU and sub-filter jobs. */
    void observe(const core::JobRecord &rec);

    /** Fold another accumulator in (parallelReduce combine step). */
    void merge(const StreamingPower &other);

    const sketch::KllSketch &avgWatts() const { return avg_watts_; }
    const sketch::KllSketch &maxWatts() const { return max_watts_; }

    /**
     * Fig. 9b impacts at each of stream::power_caps from the sketched
     * CDFs; empty sketch => empty.
     */
    std::vector<core::PowerCapImpact> capImpacts() const;

    /** Footprint of both sketches, bytes. */
    std::size_t bytes() const;

  private:
    sketch::KllSketch avg_watts_{kll_k, sketch_seed};
    sketch::KllSketch max_watts_{kll_k, sketch_seed};
};

} // namespace aiwc::stream
