#include "aiwc/stats/ecdf.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "aiwc/base/check.hh"
#include "aiwc/stats/descriptive.hh"

namespace aiwc::stats
{

EmpiricalCdf::EmpiricalCdf(std::vector<double> sample)
    : sorted_(std::move(sample))
{
    std::sort(sorted_.begin(), sorted_.end());
}

double
EmpiricalCdf::at(double x) const
{
    if (sorted_.empty())
        return 0.0;
    const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
    return static_cast<double>(it - sorted_.begin()) /
           static_cast<double>(sorted_.size());
}

double
EmpiricalCdf::atLeft(double x) const
{
    if (sorted_.empty())
        return 0.0;
    const auto it = std::lower_bound(sorted_.begin(), sorted_.end(), x);
    return static_cast<double>(it - sorted_.begin()) /
           static_cast<double>(sorted_.size());
}

double
EmpiricalCdf::quantile(double q) const
{
    AIWC_CHECK(q >= 0.0 && q <= 1.0,
               "quantile level must lie in [0, 1], got ", q);
    if (sorted_.empty())
        return std::numeric_limits<double>::quiet_NaN();
    return percentileSorted(sorted_, q);
}

double
EmpiricalCdf::ksDistance(const EmpiricalCdf &other) const
{
    if (empty() || other.empty())
        return empty() == other.empty() ? 0.0 : 1.0;
    // The supremum gap between two right-continuous step functions is
    // attained either at a jump (compare the values) or just before
    // one (compare the left limits). Checking both sides at every jump
    // point of either sample keeps the statistic exact when the
    // samples share support points.
    double d = 0.0;
    for (double x : sorted_) {
        d = std::max(d, std::abs(at(x) - other.at(x)));
        d = std::max(d, std::abs(atLeft(x) - other.atLeft(x)));
    }
    for (double x : other.sorted_) {
        d = std::max(d, std::abs(at(x) - other.at(x)));
        d = std::max(d, std::abs(atLeft(x) - other.atLeft(x)));
    }
    return d;
}

} // namespace aiwc::stats
