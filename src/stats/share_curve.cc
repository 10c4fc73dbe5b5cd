#include "aiwc/stats/share_curve.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "aiwc/base/check.hh"

namespace aiwc::stats
{

double
topShare(std::span<const double> contributions, double top_fraction)
{
    std::vector<double> v(contributions.begin(), contributions.end());
    std::sort(v.begin(), v.end());
    return topShareSorted(v, top_fraction);
}

double
topShareSorted(std::span<const double> ascending, double top_fraction)
{
    AIWC_CHECK(top_fraction >= 0.0 && top_fraction <= 1.0,
                "top fraction out of [0,1]");
    AIWC_DCHECK(std::is_sorted(ascending.begin(), ascending.end()),
                "topShareSorted needs ascending contributions");
    if (ascending.empty())
        return 0.0;
    // Both sums run largest first, the order of a descending sort.
    double total = 0.0;
    for (auto it = ascending.rbegin(); it != ascending.rend(); ++it)
        total += *it;
    if (total <= 0.0)
        return 0.0;
    const auto k = static_cast<std::size_t>(
        std::ceil(top_fraction * static_cast<double>(ascending.size())));
    double head = 0.0;
    for (std::size_t i = 0; i < k; ++i)
        head += ascending[ascending.size() - 1 - i];
    return head / total;
}

} // namespace aiwc::stats
