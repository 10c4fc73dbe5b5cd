/**
 * @file
 * Empirical cumulative distribution functions — the paper's primary
 * presentation device (Figs. 3, 4, 6, 7, 9, 10, 11, 14 are all CDFs).
 * Streaming sketches reach the same curve()/ksDistance plotting path
 * through stream::renderCdf, which builds one of these from
 * sketch::KllSketch::quantiles.
 */

#pragma once

#include <span>
#include <vector>

namespace aiwc::stats
{

/**
 * An empirical CDF over a fixed sample. Construction sorts once; all
 * queries are O(log n).
 */
class EmpiricalCdf
{
  public:
    EmpiricalCdf() = default;

    /** Build from an unsorted sample. */
    explicit EmpiricalCdf(std::vector<double> sample);

    /** True when no samples were provided. */
    bool empty() const { return sorted_.empty(); }

    /** Number of samples. */
    std::size_t size() const { return sorted_.size(); }

    /** F(x): fraction of samples <= x. */
    double at(double x) const;

    /** F(x-): left limit of the CDF — fraction strictly below x. */
    double atLeft(double x) const;

    /**
     * Inverse CDF: the q-quantile with linear interpolation.
     * @param q must lie in [0, 1] (AIWC_CHECK). Returns NaN when the
     * sample is empty — an empty CDF has no quantiles.
     */
    double quantile(double q) const;

    /** Fraction of samples strictly greater than x (the tail). */
    double tail(double x) const { return 1.0 - at(x); }

    /** The sorted sample, for plotting/export. */
    std::span<const double> sorted() const { return sorted_; }

    /**
     * Evaluate the CDF at evenly spaced quantile levels — the series a
     * plotted CDF line would carry. @param points number of levels >= 2.
     * The CDF must be non-empty (AIWC_CHECK) — there is no curve to
     * sample otherwise.
     */
    std::vector<std::pair<double, double>> curve(int points = 101) const;

    /**
     * Two-sample Kolmogorov-Smirnov statistic against another CDF: the
     * supremum vertical gap between the two step functions. Both the
     * right-continuous value and the left limit are compared at every
     * jump point of either sample, so gaps opening at shared jump
     * locations are never missed. Used by the test suite to check the
     * generator reproduces paper distributions.
     */
    double ksDistance(const EmpiricalCdf &other) const;

  private:
    std::vector<double> sorted_;
};

} // namespace aiwc::stats

