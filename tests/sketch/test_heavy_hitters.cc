#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <map>
#include <vector>

#include "aiwc/base/check.hh"
#include "aiwc/common/rng.hh"
#include "aiwc/sketch/heavy_hitters.hh"

namespace aiwc::sketch
{
namespace
{

TEST(HeavyHitters, ExactUnderCapacity)
{
    HeavyHitters hh(8);
    hh.add(10, 5.0);
    hh.add(20, 1.0);
    hh.add(10, 2.5);
    EXPECT_EQ(hh.size(), 2u);
    EXPECT_DOUBLE_EQ(hh.totalWeight(), 8.5);
    const auto top = hh.topK(8);
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0].key, 10u);
    EXPECT_DOUBLE_EQ(top[0].count, 7.5);
    EXPECT_DOUBLE_EQ(top[0].error, 0.0);  // no eviction, exact counts
    EXPECT_EQ(top[1].key, 20u);
}

TEST(HeavyHitters, TopKOrderingBreaksTiesOnKey)
{
    HeavyHitters hh(8);
    hh.add(7, 3.0);
    hh.add(3, 3.0);
    hh.add(5, 9.0);
    const auto top = hh.topK(3);
    ASSERT_EQ(top.size(), 3u);
    EXPECT_EQ(top[0].key, 5u);             // heaviest first
    EXPECT_EQ(top[1].key, 3u);             // tie -> smaller key first
    EXPECT_EQ(top[2].key, 7u);
}

TEST(HeavyHitters, EvictionIsDeterministicAndBounded)
{
    HeavyHitters hh(2);
    hh.add(5, 1.0);
    hh.add(9, 1.0);
    hh.add(3, 1.0);  // evicts the min-count entry with smallest key: 5
    const auto top = hh.topK(2);
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0].key, 3u);             // inherits the floor
    EXPECT_DOUBLE_EQ(top[0].count, 2.0);   // floor 1 + weight 1
    EXPECT_DOUBLE_EQ(top[0].error, 1.0);   // overestimate bound
    EXPECT_EQ(top[1].key, 9u);
    EXPECT_DOUBLE_EQ(hh.totalWeight(), 3.0);  // total unaffected
}

TEST(HeavyHitters, TrueHeavyKeySurvivesChurn)
{
    // Key 1 carries half the stream weight; 100 light keys churn the
    // other slots. Space-saving guarantees any key above total/capacity
    // is retained with error at most total/capacity.
    HeavyHitters hh(8);
    for (int round = 0; round < 50; ++round) {
        hh.add(1, 2.0);
        hh.add(static_cast<std::uint64_t>(100 + round), 1.0);
        hh.add(static_cast<std::uint64_t>(200 + round), 1.0);
    }
    const double total = hh.totalWeight();
    EXPECT_DOUBLE_EQ(total, 200.0);
    const auto top = hh.topK(1);
    ASSERT_EQ(top.size(), 1u);
    EXPECT_EQ(top[0].key, 1u);
    EXPECT_GE(top[0].count, 100.0);                    // never undercounts
    EXPECT_LE(top[0].count, 100.0 + total / 8.0);      // bounded over
    EXPECT_LE(top[0].error, total / 8.0);
}

TEST(HeavyHitters, MergeSumsExactlyUnderCapacity)
{
    HeavyHitters a(8), b(8);
    a.add(1, 4.0);
    a.add(2, 1.0);
    b.add(1, 6.0);
    b.add(3, 2.0);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.totalWeight(), 13.0);
    const auto top = a.topK(8);
    ASSERT_EQ(top.size(), 3u);
    EXPECT_EQ(top[0].key, 1u);
    EXPECT_DOUBLE_EQ(top[0].count, 10.0);
    EXPECT_DOUBLE_EQ(top[0].error, 0.0);
}

TEST(HeavyHitters, MergeShrinksBackToCapacity)
{
    HeavyHitters a(4), b(4);
    for (std::uint64_t k = 0; k < 4; ++k)
        a.add(k, static_cast<double>(10 * (k + 1)));
    for (std::uint64_t k = 100; k < 104; ++k)
        b.add(k, 5.0);
    a.merge(b);
    EXPECT_LE(a.size(), 4u);
    EXPECT_DOUBLE_EQ(a.totalWeight(), 120.0);  // exact through shrink
    // The heaviest pre-merge key must survive the Misra-Gries shrink
    // with its true weight inside [count, count + error].
    const auto top = a.topK(1);
    ASSERT_EQ(top.size(), 1u);
    EXPECT_EQ(top[0].key, 3u);
    EXPECT_LE(top[0].count, 40.0 + 1e-12);
    EXPECT_GE(top[0].count + top[0].error, 40.0 - 1e-12);
}

TEST(HeavyHitters, ErrorNeverExceedsCountAfterDeepMergeTrees)
{
    // Regression: merge used to sum the per-shard error allowances
    // without bound, so after a deep merge tree (every level forcing a
    // Misra-Gries shrink) `count - error` could go negative — a
    // vacuous lower bound that consumers subtracting it would render
    // as negative weight. Build a 16-leaf binary merge tree over
    // overflowing sketches and assert the invariant at every level.
    constexpr std::size_t capacity = 4;
    auto leaf = [&](std::uint64_t base) {
        HeavyHitters s(capacity);
        // 3 * capacity distinct keys: every leaf already churns.
        for (std::uint64_t k = 0; k < 3 * capacity; ++k)
            s.add(base + k, 1.0 + static_cast<double>(k % 5));
        return s;
    };
    std::vector<HeavyHitters> level;
    for (std::uint64_t i = 0; i < 16; ++i)
        level.push_back(leaf(i * 100));
    while (level.size() > 1) {
        std::vector<HeavyHitters> next;
        for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
            level[i].merge(level[i + 1]);
            for (const auto &e : level[i].topK(capacity)) {
                EXPECT_LE(e.error, e.count)
                    << "key " << e.key << " at width " << level.size();
                EXPECT_GE(e.count - e.error, 0.0);
            }
            next.push_back(std::move(level[i]));
        }
        level = std::move(next);
    }
    // The surviving root still accounts for the full stream weight.
    EXPECT_DOUBLE_EQ(level.front().totalWeight(),
                     16.0 * (1.0 + 2.0 + 3.0 + 4.0 + 5.0 + 1.0 +
                             2.0 + 3.0 + 4.0 + 5.0 + 1.0 + 2.0));
}

/**
 * The space-saving sketch as first written, on an ordered map: the
 * behavioural model any faster layout of HeavyHitters must match bit
 * for bit, eviction ties and merge shrinks included.
 */
class MapHeavyHitters
{
  public:
    explicit MapHeavyHitters(std::size_t capacity) : capacity_(capacity) {}

    void
    add(std::uint64_t key, double weight)
    {
        auto it = entries_.find(key);
        if (it != entries_.end()) {
            it->second.count += weight;
            return;
        }
        if (entries_.size() < capacity_) {
            entries_.emplace(key, Cell{weight, 0.0});
            return;
        }
        auto victim = entries_.begin();
        for (auto jt = std::next(entries_.begin()); jt != entries_.end();
             ++jt) {
            if (jt->second.count < victim->second.count)
                victim = jt;
        }
        const double floor = victim->second.count;
        entries_.erase(victim);
        entries_.emplace(key, Cell{floor + weight, floor});
    }

    void
    merge(const MapHeavyHitters &other)
    {
        for (const auto &[key, cell] : other.entries_) {
            auto [it, inserted] = entries_.emplace(key, cell);
            if (!inserted) {
                it->second.count += cell.count;
                it->second.error += cell.error;
            }
        }
        if (entries_.size() > capacity_) {
            std::vector<double> counts;
            for (const auto &[key, cell] : entries_)
                counts.push_back(cell.count);
            std::nth_element(counts.begin(), counts.begin() + capacity_,
                             counts.end(), std::greater<>());
            const double threshold = counts[capacity_];
            for (auto it = entries_.begin(); it != entries_.end();) {
                it->second.count -= threshold;
                if (it->second.count <= 0.0) {
                    it = entries_.erase(it);
                } else {
                    it->second.error += threshold;
                    ++it;
                }
            }
        }
        for (auto &[key, cell] : entries_)
            cell.error = std::min(cell.error, cell.count);
    }

    std::vector<HeavyHitters::Entry>
    topK(std::size_t k) const
    {
        std::vector<HeavyHitters::Entry> out;
        for (const auto &[key, cell] : entries_)
            out.push_back({key, cell.count, cell.error});
        std::sort(out.begin(), out.end(), [](const auto &a, const auto &b) {
            if (a.count != b.count)
                return a.count > b.count;
            return a.key < b.key;
        });
        if (out.size() > k)
            out.resize(k);
        return out;
    }

  private:
    struct Cell
    {
        double count = 0.0;
        double error = 0.0;
    };

    std::size_t capacity_;
    std::map<std::uint64_t, Cell> entries_;
};

void
expectSameEntries(const HeavyHitters &sketch, const MapHeavyHitters &model,
                  std::size_t capacity, int step)
{
    const auto got = sketch.topK(capacity);
    const auto want = model.topK(capacity);
    ASSERT_EQ(got.size(), want.size()) << "step " << step;
    for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].key, want[i].key) << "step " << step << " rank " << i;
        // Bit-equal, not merely close: the same sums in the same order.
        ASSERT_EQ(got[i].count, want[i].count) << "step " << step;
        ASSERT_EQ(got[i].error, want[i].error) << "step " << step;
    }
}

TEST(HeavyHitters, MatchesOrderedMapModel)
{
    // 200k adds over 5k keys per capacity. Weights come from a small
    // set, zero included, so counts tie often and eviction must pick
    // the smallest key among the minima; a side sketch fed in between
    // merges into the main one at random points, forcing shrinks.
    constexpr int adds = 200'000;
    constexpr std::uint64_t keys = 5'000;
    const double weights[] = {0.0, 0.5, 1.0, 1.0, 2.0, 3.0, 0.25};
    for (const std::size_t capacity : {std::size_t{1}, std::size_t{4},
                                       std::size_t{32}}) {
        Rng rng(0x4848u + capacity);
        HeavyHitters sketch(capacity), side(capacity);
        MapHeavyHitters model(capacity), side_model(capacity);
        for (int step = 0; step < adds; ++step) {
            // Skewed keys: a quarter of the adds go to 8 hot keys and
            // a quarter to 100 warm ones, so heavy entries stay
            // resident, collect error allowances much smaller than
            // their counts, and meet again in merges.
            const std::uint64_t tier = rng.below(4);
            const std::uint64_t key = tier == 0   ? rng.below(8)
                                      : tier == 1 ? rng.below(100)
                                                  : rng.below(keys);
            const double weight = weights[rng.below(std::size(weights))];
            if (rng.below(5) == 0) {
                side.add(key, weight);
                side_model.add(key, weight);
            } else {
                sketch.add(key, weight);
                model.add(key, weight);
            }
            if (rng.below(2'000) == 0) {
                sketch.merge(side);
                model.merge(side_model);
                side = HeavyHitters(capacity);
                side_model = MapHeavyHitters(capacity);
                expectSameEntries(sketch, model, capacity, step);
            }
        }
        sketch.merge(side);
        model.merge(side_model);
        expectSameEntries(sketch, model, capacity, adds);
    }
}

TEST(HeavyHitters, ContractsOnCapacityAndMergeGeometry)
{
    ScopedCheckFailHandler guard;
    EXPECT_THROW(HeavyHitters(0), ContractViolation);
    HeavyHitters a(4), b(8);
    EXPECT_THROW(a.merge(b), ContractViolation);
}

} // namespace
} // namespace aiwc::sketch
