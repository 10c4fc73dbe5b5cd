/**
 * @file
 * Descriptive statistics used throughout the characterization: means,
 * percentiles, coefficients of variation (the paper's workhorse metric),
 * box-plot statistics (Fig. 16), and a streaming min/mean/max summary
 * matching what the Supercloud monitoring records per job.
 */

#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <vector>

namespace aiwc::stats
{

/** Arithmetic mean; 0 for an empty span. */
double mean(std::span<const double> xs);

/** Population standard deviation; 0 for fewer than two samples. */
double stddev(std::span<const double> xs);

/**
 * Coefficient of variation as a percentage of the mean, the paper's
 * variability metric (Figs. 6b, 7a, 11, 14). Returns NaN when the mean
 * is zero (an all-idle series has no meaningful relative variability)
 * or the span is empty; callers building CDFs filter non-finite values
 * with std::isfinite. Inputs must be finite (AIWC_DCHECK), so a NaN
 * result unambiguously signals the zero-mean case.
 */
double covPercent(std::span<const double> xs);

/**
 * Quantile with linear interpolation between closest ranks (the
 * NumPy default), so percentile(xs, 0.5) is the conventional median.
 * @param q quantile in [0, 1].
 */
double percentile(std::vector<double> xs, double q);

/**
 * Quantile of data that is already sorted ascending; does not copy.
 * Useful when many quantiles are needed from the same sample.
 */
double percentileSorted(std::span<const double> sorted, double q);

/** Sum of all samples. */
double sum(std::span<const double> xs);

/**
 * Box-plot statistics as drawn in Fig. 16: median, quartiles, and
 * 1.5-IQR whiskers clamped to the data range.
 */
struct BoxStats
{
    double min = 0.0;
    double q1 = 0.0;
    double median = 0.0;
    double q3 = 0.0;
    double max = 0.0;
    double whisker_lo = 0.0;
    double whisker_hi = 0.0;
    std::size_t n = 0;

    /** Compute from an unsorted sample. */
    static BoxStats from(std::vector<double> xs);
};

/**
 * Streaming summary of a metric over a job's run: the monitoring system
 * reports only min/mean/max per metric per job to keep production
 * overhead low (paper Sec. III), and this is exactly that record.
 */
class RunningSummary
{
  public:
    /**
     * The raw accumulator state, exposed for bit-exact
     * (de)serialization: both binary formats (`.aiwt` and the svc
     * wire frames, through core::writeGpuSummary) store these five
     * values verbatim, so a summary read back is indistinguishable —
     * to the last ULP of mean() and stddev() — from the one that was
     * written, whatever its provenance
     * (sample-accumulated or moment-reconstructed).
     */
    struct RawState
    {
        std::size_t count = 0;
        double min = 0.0;
        double max = 0.0;
        double sum = 0.0;
        double sum_sq = 0.0;
    };

    /** Snapshot the internal accumulators. */
    RawState rawState() const;

    /**
     * Rebuild a summary from a rawState() snapshot. The state must be
     * internally consistent (AIWC_CHECK: finite fields, min <= max
     * when count > 0); untrusted bytes must be validated by the
     * caller before reaching this — see core::readGpuSummary.
     */
    static RunningSummary fromRawState(const RawState &state);

    /**
     * Reconstruct a summary of zero spread from already-computed
     * moments — used when loading a dataset from CSV, where only the
     * per-job statistics (not the samples or their spread) survive.
     */
    static RunningSummary fromMoments(std::size_t count, double min,
                                      double mean, double max);

    /** Fold one sample into the summary. */
    void add(double x);

    /** Fold another summary into this one (for multi-GPU averaging). */
    void merge(const RunningSummary &other);

    std::size_t count() const { return n_; }
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }
    double mean() const { return n_ ? sum_ / static_cast<double>(n_) : 0.0; }

    /** Population standard deviation of the folded samples. */
    double stddev() const;

    /** Coefficient of variation in percent; NaN if the mean is 0. */
    double covPercent() const;

  private:
    std::size_t n_ = 0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
    double sum_ = 0.0;
    double sum_sq_ = 0.0;
};

} // namespace aiwc::stats

