/**
 * @file
 * Within-job utilization dynamics: per-phase mean levels and
 * per-sample noise for every monitored metric. Split from the sampler
 * so the phase-level statistics can be unit-tested and ablated
 * independently of the sampling loop.
 */

#pragma once

#include "aiwc/common/rng.hh"
#include "aiwc/telemetry/job_profile.hh"

namespace aiwc::telemetry
{

/**
 * Highest value ordinary (non-saturating) samples may take. Values at
 * the true limit come only from the profile's saturation flags, so
 * the bottleneck analysis measures calibrated behaviour, not noise.
 */
inline constexpr double natural_ceiling = 0.97;

/** Mean metric levels of one phase. */
struct PhaseLevels
{
    double sm = 0.0;
    double membw = 0.0;
    double memsize = 0.0;
    double tx = 0.0;
    double rx = 0.0;
};

/**
 * Draws phase levels and samples for a job. SM and memory bandwidth
 * share a common phase factor (they co-move within a training step);
 * memory size is calm (allocations persist); PCIe wobbles per phase.
 * The phase factor exp(j*N - j^2/2) has unit mean, so job averages
 * stay centred on the profile means.
 */
class UtilizationModel
{
  public:
    explicit UtilizationModel(const JobProfile &profile)
        : profile_(profile) {}

    /**
     * Mean levels for one active phase.
     * @param gpu_scale static imbalance factor of this GPU.
     */
    PhaseLevels activeLevels(double gpu_scale, Rng &rng) const;

    /** Levels during idle phases: quiescent GPU, retained memory. */
    PhaseLevels idleLevels() const;

    /**
     * One noisy sample around a phase mean, clamped to [0,1].
     * @param rel relative noise (stddev / mean).
     */
    static double noisySample(double mean, double rel, Rng &rng);

  private:
    // By value, as in PhaseModel: a reference member would dangle when
    // the model is built from a temporary profile.
    JobProfile profile_;
};

} // namespace aiwc::telemetry

