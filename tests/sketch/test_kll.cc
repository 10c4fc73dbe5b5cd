#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "aiwc/base/check.hh"
#include "aiwc/common/rng.hh"
#include "aiwc/obs/metrics.hh"
#include "aiwc/sketch/kll.hh"
#include "aiwc/stats/descriptive.hh"

namespace aiwc::sketch
{
namespace
{

/** 0..n-1 in a seed-determined order (exercises compaction paths). */
std::vector<double>
shuffledRange(int n, std::uint64_t seed)
{
    std::vector<double> xs(n);
    for (int i = 0; i < n; ++i)
        xs[i] = static_cast<double>(i);
    Rng rng(seed);
    for (int i = n - 1; i > 0; --i)
        std::swap(xs[i], xs[rng.below(static_cast<std::uint64_t>(i) + 1)]);
    return xs;
}

TEST(Kll, ExactBelowCompactionThreshold)
{
    KllSketch s(256, 1);
    for (int i = 0; i < 100; ++i)
        s.add(static_cast<double>(i));
    EXPECT_EQ(s.count(), 100u);
    EXPECT_EQ(s.retained(), 100u);
    EXPECT_EQ(s.compactions(), 0u);
    EXPECT_DOUBLE_EQ(s.quantile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(s.quantile(1.0), 99.0);
    EXPECT_NEAR(s.quantile(0.5), 49.0, 1.0);
    EXPECT_DOUBLE_EQ(s.cdf(49.0), 0.5);
}

TEST(Kll, EmptySketchHasNoQuantiles)
{
    const KllSketch s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_TRUE(std::isnan(s.quantile(0.5)));
    EXPECT_TRUE(std::isnan(s.cdf(1.0)));
    EXPECT_TRUE(std::isnan(s.min()));
    EXPECT_TRUE(std::isnan(s.max()));
}

TEST(Kll, EmptyAndSingleItemContractIsPinnedDown)
{
    // Regression: epsilonBound()/quantile() used to be undefined on
    // degenerate sketches. Contract now: an uncompacted sketch is
    // exact (bound 0), the empty sketch answers NaN like
    // EmpiricalCdf::quantile, and a single-item sketch returns its
    // item at every level.
    const KllSketch empty;
    EXPECT_DOUBLE_EQ(empty.epsilonBound(), 0.0);
    EXPECT_TRUE(std::isnan(empty.quantile(0.0)));
    EXPECT_TRUE(std::isnan(empty.quantile(0.5)));
    EXPECT_TRUE(std::isnan(empty.quantile(1.0)));

    KllSketch one;
    one.add(42.0);
    EXPECT_DOUBLE_EQ(one.epsilonBound(), 0.0);
    for (double q : {0.0, 0.25, 0.5, 0.75, 1.0})
        EXPECT_DOUBLE_EQ(one.quantile(q), 42.0) << "q = " << q;
    EXPECT_DOUBLE_EQ(one.cdf(41.0), 0.0);
    EXPECT_DOUBLE_EQ(one.cdf(42.0), 1.0);
}

TEST(Kll, EpsilonBoundTurnsOnWithTheFirstCompaction)
{
    KllSketch s(8, 3);
    for (int i = 0; i < 7; ++i)
        s.add(static_cast<double>(i));
    EXPECT_EQ(s.compactions(), 0u);
    EXPECT_DOUBLE_EQ(s.epsilonBound(), 0.0);  // still exact
    s.add(7.0);                               // triggers a compaction
    EXPECT_GT(s.compactions(), 0u);
    EXPECT_GT(s.epsilonBound(), 0.0);
}

TEST(Kll, QuantileLevelContract)
{
    ScopedCheckFailHandler guard;
    KllSketch s;
    s.add(1.0);
    EXPECT_THROW(s.quantile(-0.01), ContractViolation);
    EXPECT_THROW(s.quantile(1.01), ContractViolation);
}

/**
 * quantiles() at @p levels must equal quantile() at each level bit for
 * bit (NaN for NaN), from exactly one sorted view when any level is
 * interior and none otherwise.
 */
void
expectQuantilesMatchQuantile(const KllSketch &s,
                             const std::vector<double> &levels)
{
    auto &views = obs::MetricsRegistry::global().counter(
        "aiwc.sketch.sorted_views");
    const std::uint64_t before = views.value();
    const auto batch = s.quantiles(levels);
    const bool interior =
        s.count() > 0 && std::any_of(levels.begin(), levels.end(),
                                     [](double q) {
                                         return q > 0.0 && q < 1.0;
                                     });
    EXPECT_EQ(views.value() - before, interior ? 1u : 0u);
    ASSERT_EQ(batch.size(), levels.size());
    for (std::size_t i = 0; i < levels.size(); ++i) {
        const double one = s.quantile(levels[i]);
        if (std::isnan(one)) {
            EXPECT_TRUE(std::isnan(batch[i])) << "q = " << levels[i];
            continue;
        }
        EXPECT_EQ(std::bit_cast<std::uint64_t>(batch[i]),
                  std::bit_cast<std::uint64_t>(one))
            << "q = " << levels[i] << ": " << batch[i] << " vs " << one;
    }
}

TEST(KllSketch, QuantilesMatchQuantileBitForBit)
{
    // Levels with both ends, a dense interior grid, repeats, and
    // levels that land exactly on item boundaries of small sketches.
    std::vector<double> levels;
    for (int i = 0; i <= 200; ++i)
        levels.push_back(static_cast<double>(i) / 200.0);
    std::vector<double> uneven = {0.0, 0.0, 1e-9, 0.25, 0.25, 0.5,
                                  0.5000001, 0.9, 0.99, 0.999, 1.0, 1.0};

    const KllSketch empty(16, 1);
    KllSketch one(16, 1);
    one.add(42.0);
    KllSketch exact(256, 1);
    for (double x : shuffledRange(100, 2))
        exact.add(x);
    ASSERT_EQ(exact.compactions(), 0u);
    KllSketch compacted(16, 3);
    for (double x : shuffledRange(5000, 4))
        compacted.add(x * 0.37 - 100.0);
    ASSERT_GT(compacted.compactions(), 0u);
    KllSketch merged(16, 5), other(16, 6);
    for (double x : shuffledRange(3000, 7))
        merged.add(x);
    for (double x : shuffledRange(1700, 8))
        other.add(1e3 + x);
    merged.merge(other);
    KllSketch ties(16, 9);
    for (double x : shuffledRange(4000, 10))
        ties.add(std::fmod(x, 5.0));

    const std::vector<std::pair<const char *, const KllSketch *>> cases = {
        {"empty", &empty},         {"one item", &one},
        {"uncompacted", &exact},   {"compacted", &compacted},
        {"merged", &merged},       {"ties", &ties}};
    for (const auto &[name, sketch] : cases) {
        SCOPED_TRACE(name);
        expectQuantilesMatchQuantile(*sketch, levels);
        expectQuantilesMatchQuantile(*sketch, uneven);
        expectQuantilesMatchQuantile(*sketch, {0.0, 1.0});
        expectQuantilesMatchQuantile(*sketch, {0.5});
        expectQuantilesMatchQuantile(*sketch, {});
    }
    EXPECT_EQ(one.quantiles(levels), std::vector<double>(levels.size(), 42.0));
    const auto ends = compacted.quantiles(std::vector<double>{0.0, 1.0});
    EXPECT_EQ(ends[0], compacted.min());
    EXPECT_EQ(ends[1], compacted.max());
}

TEST(KllSketch, QuantilesRejectDescendingLevels)
{
    ScopedCheckFailHandler guard;
    KllSketch s;
    for (int i = 0; i < 10; ++i)
        s.add(static_cast<double>(i));
    EXPECT_THROW(s.quantiles(std::vector<double>{0.5, 0.25}),
                 ContractViolation);
    EXPECT_THROW(s.quantiles(std::vector<double>{0.0, 1.0, 0.0}),
                 ContractViolation);
    EXPECT_THROW(s.quantiles(std::vector<double>{0.5, 1.5}),
                 ContractViolation);
    EXPECT_THROW(s.quantiles(std::vector<double>{-0.5, 0.5}),
                 ContractViolation);
    // The checks hold on an empty sketch too, which never sorts.
    const KllSketch empty;
    EXPECT_THROW(empty.quantiles(std::vector<double>{1.0, 0.5}),
                 ContractViolation);
    EXPECT_NO_THROW(s.quantiles(std::vector<double>{0.5, 0.5, 0.75}));
}

TEST(Kll, GeometryContractOnConstruction)
{
    ScopedCheckFailHandler guard;
    EXPECT_THROW(KllSketch(7, 0), ContractViolation);   // odd
    EXPECT_THROW(KllSketch(4, 0), ContractViolation);   // too small
    EXPECT_NO_THROW(KllSketch(8, 0));
}

TEST(Kll, RankErrorWithinBoundOnLongStream)
{
    const int n = 20000;
    KllSketch s(64, 7);
    for (double x : shuffledRange(n, 11))
        s.add(x);
    EXPECT_EQ(s.count(), static_cast<std::uint64_t>(n));
    EXPECT_LT(s.retained(), 2000u);  // genuinely sublinear
    const double eps = s.epsilonBound();
    EXPECT_GT(eps, 0.0);
    EXPECT_LT(eps, 0.25);
    for (double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
        // Exact q-quantile of 0..n-1 is q * (n - 1); the sketch's CDF
        // at that value must land within the advertised rank error.
        const double exact = q * (n - 1);
        EXPECT_NEAR(s.cdf(exact), q, eps + 1e-3)
            << "q = " << q;
    }
    EXPECT_DOUBLE_EQ(s.min(), 0.0);           // extremes stay exact
    EXPECT_DOUBLE_EQ(s.max(), n - 1.0);
    EXPECT_DOUBLE_EQ(s.quantile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(s.quantile(1.0), n - 1.0);
}

TEST(Kll, DeterministicForSameSeedAndOrder)
{
    KllSketch a(32, 5), b(32, 5);
    const auto xs = shuffledRange(5000, 3);
    for (double x : xs) {
        a.add(x);
        b.add(x);
    }
    EXPECT_EQ(a.compactions(), b.compactions());
    EXPECT_EQ(a.retained(), b.retained());
    for (int i = 0; i <= 20; ++i) {
        const double q = i / 20.0;
        EXPECT_DOUBLE_EQ(a.quantile(q), b.quantile(q)) << "q = " << q;
    }
}

TEST(Kll, MergeRequiresMatchingGeometry)
{
    ScopedCheckFailHandler guard;
    KllSketch a(32, 0), b(64, 0);
    EXPECT_THROW(a.merge(b), ContractViolation);
}

TEST(Kll, MergeCoversUnionOfStreams)
{
    const int n = 8000;
    KllSketch a(64, 9), b(64, 9);
    for (int i = 0; i < n / 2; ++i)
        a.add(static_cast<double>(i));
    for (int i = n / 2; i < n; ++i)
        b.add(static_cast<double>(i));
    a.merge(b);
    EXPECT_EQ(a.count(), static_cast<std::uint64_t>(n));
    EXPECT_DOUBLE_EQ(a.min(), 0.0);
    EXPECT_DOUBLE_EQ(a.max(), n - 1.0);
    const double eps = a.epsilonBound();
    for (double q : {0.1, 0.5, 0.9})
        EXPECT_NEAR(a.cdf(q * (n - 1)), q, eps + 1e-3);
}

TEST(Kll, MergeAssociativeAndCommutativeWithinEpsilon)
{
    // KLL merge is not bitwise order-independent (compaction coins
    // depend on merge order); the contract is that EVERY merge tree
    // stays within the epsilon rank-error bound of the exact union.
    const int n = 3000;
    auto part = [&](int lo, int hi) {
        KllSketch s(32, 13);
        for (double x : shuffledRange(n, 17))
            if (x >= lo && x < hi)
                s.add(x);
        return s;
    };
    const auto check = [&](const KllSketch &s) {
        EXPECT_EQ(s.count(), static_cast<std::uint64_t>(n));
        const double eps = s.epsilonBound();
        for (double q : {0.05, 0.25, 0.5, 0.75, 0.95})
            EXPECT_NEAR(s.cdf(q * (n - 1)), q, eps + 1e-3);
    };

    KllSketch left = part(0, 1000);            // (a + b) + c
    left.merge(part(1000, 2000));
    left.merge(part(2000, n));
    check(left);

    KllSketch bc = part(1000, 2000);           // a + (b + c)
    bc.merge(part(2000, n));
    KllSketch right = part(0, 1000);
    right.merge(bc);
    check(right);

    KllSketch swapped = part(2000, n);         // reversed order
    swapped.merge(part(1000, 2000));
    swapped.merge(part(0, 1000));
    check(swapped);
}

TEST(Kll, BytesBoundedWhileStreamGrows)
{
    KllSketch s(64, 1);
    for (int i = 0; i < 1000; ++i)
        s.add(static_cast<double>(i % 97));
    const std::size_t at_1k = s.bytes();
    for (int i = 0; i < 99000; ++i)
        s.add(static_cast<double>(i % 89));
    // 100x the stream, only O(log) extra levels' worth of memory.
    EXPECT_LE(s.bytes(), at_1k * 3);
}

} // namespace
} // namespace aiwc::sketch
