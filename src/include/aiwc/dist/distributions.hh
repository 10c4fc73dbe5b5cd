/**
 * @file
 * The sampling distributions of workload synthesis.
 *
 * The calibration profile (workload/calibration.hh) fits the published
 * marginals with two families: a log-normal for durations and a beta
 * for utilization fractions. Generators build them on the spot from
 * calibration numbers and draw from them directly.
 */

#pragma once

#include "aiwc/common/rng.hh"

namespace aiwc::dist
{

/**
 * Log-normal, parameterized by the *median* and the log-space sigma —
 * the natural parameterization for matching the paper's quantiles,
 * since quantile ratios pin sigma directly:
 * sigma = ln(p75/p50) / z(0.75).
 */
class LogNormal
{
  public:
    LogNormal(double median, double sigma);

    double sample(Rng &rng) const;

  private:
    double mu_, sigma_;
};

/**
 * Beta(a, b), sampled via two Marsaglia-Tsang gamma draws. Used for
 * utilization fractions in [0, 1].
 */
class Beta
{
  public:
    Beta(double a, double b);

    /**
     * Solve (a, b) from a target mean and "concentration" kappa = a+b;
     * larger kappa means tighter around the mean.
     */
    static Beta fromMean(double mean, double kappa);

    double sample(Rng &rng) const;

  private:
    double a_, b_;
};

/** Gamma(shape, 1) sample via Marsaglia-Tsang; shape > 0. */
double sampleGamma(Rng &rng, double shape);

} // namespace aiwc::dist
