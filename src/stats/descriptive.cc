#include "aiwc/stats/descriptive.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "aiwc/base/check.hh"

namespace aiwc::stats
{

double
mean(std::span<const double> xs)
{
    if (xs.empty())
        return 0.0;
    double acc = 0.0;
    for (double x : xs)
        acc += x;
    return acc / static_cast<double>(xs.size());
}

double
stddev(std::span<const double> xs)
{
    if (xs.size() < 2)
        return 0.0;
    const double m = mean(xs);
    double acc = 0.0;
    for (double x : xs)
        acc += (x - m) * (x - m);
    return std::sqrt(acc / static_cast<double>(xs.size()));
}

double
covPercent(std::span<const double> xs)
{
    for (double x : xs)
        AIWC_DCHECK(std::isfinite(x), "non-finite CoV input: ", x);
    const double m = mean(xs);
    if (m == 0.0)
        return std::numeric_limits<double>::quiet_NaN();
    return 100.0 * stddev(xs) / std::abs(m);
}

double
percentileSorted(std::span<const double> sorted, double q)
{
    AIWC_CHECK(q >= 0.0 && q <= 1.0, "quantile out of [0,1]: ", q);
    if (sorted.empty())
        return 0.0;
    if (sorted.size() == 1)
        return sorted[0];
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double
percentile(std::vector<double> xs, double q)
{
    std::sort(xs.begin(), xs.end());
    return percentileSorted(xs, q);
}

double
sum(std::span<const double> xs)
{
    double acc = 0.0;
    for (double x : xs)
        acc += x;
    return acc;
}

BoxStats
BoxStats::from(std::vector<double> xs)
{
    BoxStats b;
    if (xs.empty())
        return b;
    std::sort(xs.begin(), xs.end());
    b.n = xs.size();
    b.min = xs.front();
    b.max = xs.back();
    b.q1 = percentileSorted(xs, 0.25);
    b.median = percentileSorted(xs, 0.50);
    b.q3 = percentileSorted(xs, 0.75);
    const double iqr = b.q3 - b.q1;
    // Whiskers extend to the most extreme points inside 1.5 IQR.
    const double lo_fence = b.q1 - 1.5 * iqr;
    const double hi_fence = b.q3 + 1.5 * iqr;
    b.whisker_lo = b.min;
    for (double x : xs) {
        if (x >= lo_fence) {
            b.whisker_lo = x;
            break;
        }
    }
    b.whisker_hi = b.max;
    for (auto it = xs.rbegin(); it != xs.rend(); ++it) {
        if (*it <= hi_fence) {
            b.whisker_hi = *it;
            break;
        }
    }
    return b;
}

RunningSummary::RawState
RunningSummary::rawState() const
{
    RawState state;
    state.count = n_;
    if (n_ == 0)
        return state;  // min_/max_ are the +-inf sentinels; hide them
    state.min = min_;
    state.max = max_;
    state.sum = sum_;
    state.sum_sq = sum_sq_;
    return state;
}

RunningSummary
RunningSummary::fromRawState(const RawState &state)
{
    RunningSummary s;
    if (state.count == 0)
        return s;
    AIWC_CHECK(std::isfinite(state.min) && std::isfinite(state.max) &&
                   std::isfinite(state.sum) &&
                   std::isfinite(state.sum_sq) && state.min <= state.max,
               "inconsistent RunningSummary raw state");
    s.n_ = state.count;
    s.min_ = state.min;
    s.max_ = state.max;
    s.sum_ = state.sum;
    s.sum_sq_ = state.sum_sq;
    return s;
}

RunningSummary
RunningSummary::fromMoments(std::size_t count, double min, double mean,
                            double max)
{
    AIWC_CHECK(min <= mean && mean <= max,
                "inconsistent moments: min ", min, " mean ", mean,
                " max ", max);
    RunningSummary s;
    if (count == 0)
        return s;
    s.n_ = count;
    s.min_ = min;
    s.max_ = max;
    s.sum_ = mean * static_cast<double>(count);
    s.sum_sq_ = static_cast<double>(count) * (mean * mean);
    return s;
}

void
RunningSummary::add(double x)
{
    AIWC_DCHECK(std::isfinite(x), "non-finite sample: ", x);
    ++n_;
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    sum_ += x;
    sum_sq_ += x * x;
}

void
RunningSummary::merge(const RunningSummary &other)
{
    if (other.n_ == 0)
        return;
    n_ += other.n_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    sum_ += other.sum_;
    sum_sq_ += other.sum_sq_;
}

double
RunningSummary::stddev() const
{
    if (n_ < 2)
        return 0.0;
    const double m = mean();
    const double var = sum_sq_ / static_cast<double>(n_) - m * m;
    return var > 0.0 ? std::sqrt(var) : 0.0;
}

double
RunningSummary::covPercent() const
{
    const double m = mean();
    if (m == 0.0)
        return std::numeric_limits<double>::quiet_NaN();
    return 100.0 * stddev() / std::abs(m);
}

} // namespace aiwc::stats
