#include "aiwc/sketch/kll.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "aiwc/base/check.hh"
#include "aiwc/common/rng.hh"
#include "aiwc/obs/metrics.hh"

namespace aiwc::sketch
{

namespace
{

/** Process-wide compaction counter (aiwc.sketch.compactions). */
obs::Counter &
compactionCounter()
{
    static obs::Counter &c =
        obs::MetricsRegistry::global().counter("aiwc.sketch.compactions");
    return c;
}

/** Process-wide sorted-view counter (aiwc.sketch.sorted_views). */
obs::Counter &
sortedViewCounter()
{
    static obs::Counter &c =
        obs::MetricsRegistry::global().counter("aiwc.sketch.sorted_views");
    return c;
}

} // namespace

KllSketch::KllSketch(std::uint32_t k, std::uint64_t seed)
    : k_(k), seed_(seed)
{
    AIWC_CHECK(k_ >= 8, "KLL capacity k must be >= 8, got ", k_);
    AIWC_CHECK(k_ % 2 == 0, "KLL capacity k must be even, got ", k_);
    levels_.emplace_back();
    levels_.front().reserve(k_);
}

void
KllSketch::add(double x)
{
    AIWC_DCHECK(!std::isnan(x), "KLL sketch rejects NaN samples");
    if (count_ == 0) {
        min_ = x;
        max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++count_;
    levels_.front().push_back(x);
    if (levels_.front().size() >= k_)
        compact(0);
}

void
KllSketch::merge(const KllSketch &other)
{
    AIWC_CHECK_EQ(k_, other.k_,
                  "KLL merge requires identical compactor capacity");
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        min_ = other.min_;
        max_ = other.max_;
    } else {
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }
    count_ += other.count_;
    compactions_ += other.compactions_;
    if (other.levels_.size() > levels_.size())
        levels_.resize(other.levels_.size());
    for (std::size_t l = 0; l < other.levels_.size(); ++l) {
        levels_[l].insert(levels_[l].end(), other.levels_[l].begin(),
                          other.levels_[l].end());
    }
    // Restore the capacity invariant bottom-up; a promotion can push
    // the next level past k_, which the cascade inside compact()
    // handles, so one upward sweep suffices.
    for (std::size_t l = 0; l < levels_.size(); ++l) {
        if (levels_[l].size() >= k_)
            compact(l);
    }
}

void
KllSketch::compact(std::size_t level)
{
    AIWC_DCHECK(level < levels_.size(), "compact on missing level");
    if (level + 1 >= levels_.size())
        levels_.emplace_back();
    auto &buf = levels_[level];
    std::sort(buf.begin(), buf.end());
    // Deterministic coin: an Rng seeded from (sketch seed, compaction
    // ordinal) picks whether even- or odd-indexed items survive. The
    // golden-ratio stride decorrelates adjacent ordinals.
    Rng coin(seed_ + 0x9e3779b97f4a7c15ull * (compactions_ + 1));
    std::size_t offset = static_cast<std::size_t>(coin() & 1);
    auto &up = levels_[level + 1];
    for (std::size_t i = offset; i < buf.size(); i += 2)
        up.push_back(buf[i]);
    buf.clear();
    ++compactions_;
    compactionCounter().add(1);
    if (up.size() >= k_)
        compact(level + 1);
}

std::vector<std::pair<double, std::uint64_t>>
KllSketch::sortedItems() const
{
    std::vector<std::pair<double, std::uint64_t>> items;
    items.reserve(retained());
    std::uint64_t weight = 1;
    for (const auto &level : levels_) {
        for (double v : level)
            items.emplace_back(v, weight);
        weight <<= 1;
    }
    std::sort(items.begin(), items.end());
    sortedViewCounter().add(1);
    return items;
}

double
KllSketch::quantile(double q) const
{
    return quantiles(std::span(&q, 1)).front();
}

std::vector<double>
KllSketch::quantiles(std::span<const double> levels) const
{
    std::vector<double> out;
    out.reserve(levels.size());
    // The sort is deferred to the first interior level, so an empty
    // sketch or a min/max-only query never builds the sorted view. A
    // non-empty sketch always retains items (a compaction keeps half).
    std::vector<std::pair<double, std::uint64_t>> items;
    std::size_t next = 0;  // first item not yet folded into cum
    double cum = 0.0;      // weight of items[0, next), summed in order
    double prev = 0.0;
    for (const double q : levels) {
        AIWC_CHECK(q >= 0.0 && q <= 1.0,
                   "quantile level must be in [0, 1], got ", q);
        AIWC_CHECK(q >= prev, "quantile levels must ascend, got ", q,
                   " after ", prev);
        prev = q;
        if (count_ == 0) {
            out.push_back(std::numeric_limits<double>::quiet_NaN());
            continue;
        }
        if (q == 0.0) {
            out.push_back(min_);
            continue;
        }
        if (q == 1.0) {
            out.push_back(max_);
            continue;
        }
        if (items.empty())
            items = sortedItems();
        // Targets ascend with the levels, so every item the previous
        // level passed over stays below this target too: the cursor
        // only moves forward, and an item's cumulative weight is the
        // same in-order prefix sum whichever level reaches it, so a
        // batch of levels answers exactly as one level at a time.
        const double target = q * static_cast<double>(count_);
        while (next < items.size() &&
               cum + static_cast<double>(items[next].second) < target) {
            cum += static_cast<double>(items[next].second);
            ++next;
        }
        out.push_back(next < items.size()
                          ? std::clamp(items[next].first, min_, max_)
                          : max_);
    }
    return out;
}

double
KllSketch::cdf(double x) const
{
    if (count_ == 0)
        return std::numeric_limits<double>::quiet_NaN();
    std::uint64_t below = 0;
    std::uint64_t weight = 1;
    for (const auto &level : levels_) {
        for (double v : level) {
            if (v <= x)
                below += weight;
        }
        weight <<= 1;
    }
    return static_cast<double>(below) / static_cast<double>(count_);
}

double
KllSketch::min() const
{
    return count_ ? min_ : std::numeric_limits<double>::quiet_NaN();
}

double
KllSketch::max() const
{
    return count_ ? max_ : std::numeric_limits<double>::quiet_NaN();
}

double
KllSketch::epsilonBound() const
{
    // No compaction yet: every sample is retained at weight 1, so
    // rank queries are exact. This covers the empty and single-item
    // sketches, whose error would otherwise be reported as 1/k.
    if (compactions_ == 0)
        return 0.0;
    const double levels = static_cast<double>(std::max<std::size_t>(
        levels_.size(), 1));
    return levels / static_cast<double>(k_);
}

std::size_t
KllSketch::retained() const
{
    std::size_t n = 0;
    for (const auto &level : levels_)
        n += level.size();
    return n;
}

std::size_t
KllSketch::bytes() const
{
    std::size_t heap = 0;
    for (const auto &level : levels_)
        heap += level.capacity() * sizeof(double) + sizeof(level);
    return sizeof(*this) + heap;
}

} // namespace aiwc::sketch
