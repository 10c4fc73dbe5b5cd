/**
 * @file
 * KLL-style quantile sketch: a stack of fixed-capacity compactors that
 * summarizes an arbitrarily long stream of doubles in bounded memory
 * while answering rank/quantile queries with a bounded additive rank
 * error. This is the workhorse behind the streaming reproductions of
 * the paper's CDF figures (Figs. 3a, 4a, 9a): the batch analyzers sort
 * every sample; the streaming pipeline keeps only O(k log(n/k)) of
 * them and still lands within epsilonBound() of the exact curve.
 *
 * Determinism: the compaction coin (keep even- or odd-indexed
 * survivors) is drawn from an aiwc::Rng seeded from (sketch seed,
 * compaction ordinal), so the sketch state is a pure function of the
 * construction parameters and the ingestion/merge order — no global
 * RNG, no wall clock. Two sketches fed the same stream in the same
 * order are byte-identical.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace aiwc::sketch
{

/**
 * Mergeable streaming quantile sketch with fixed-capacity compactors.
 *
 * Level l holds items of weight 2^l; when a level reaches capacity k
 * it is sorted and every other item (even- or odd-indexed, chosen by a
 * deterministic seeded coin) survives into level l+1 at double weight.
 * Worst-case additive rank error after any interleaving of add() and
 * merge() is epsilonBound() * count(): each compaction at level l
 * perturbs any rank by at most 2^l, and at most n / (k * 2^l)
 * compactions happen per level, giving H/k relative error over H
 * levels.
 *
 * Satisfies the CONTRIBUTING mergeable-accumulator rule: merge() is
 * the shard-combine step for parallelReduce, and merging in
 * shard-index order yields byte-identical state at every thread count.
 */
class KllSketch
{
  public:
    /**
     * @param k compactor capacity; higher k = lower error, more
     *     memory. Must be >= 8 and even so a compaction always halves.
     * @param seed seeds the compaction coin stream; two sketches that
     *     must merge byte-deterministically should share a seed.
     */
    explicit KllSketch(std::uint32_t k = 256, std::uint64_t seed = 0);

    /** Fold one sample into the sketch. Rejects NaN via AIWC_DCHECK. */
    void add(double x);

    /**
     * Fold another sketch into this one. Both sketches must have been
     * constructed with the same k (AIWC_CHECK); the seed of *this
     * drives all subsequent compaction coins.
     */
    void merge(const KllSketch &other);

    /**
     * Estimated quantile: the smallest retained value whose cumulative
     * weight reaches q * count(). AIWC_CHECKs q in [0, 1]; NaN on an
     * empty sketch (the stats::EmpiricalCdf::quantile convention, so
     * degenerate sketches render the same way batch CDFs do). q = 0 /
     * q = 1 return the exact tracked min / max; on a single-item
     * sketch every level returns that item exactly. A one-level
     * quantiles() call.
     */
    double quantile(double q) const;

    /**
     * quantile() at every level of @p levels, from one sorted view:
     * the retained items are sorted once and one cursor walks their
     * cumulative weight forward, so each answer is bit-equal to
     * quantile(level) at the cost of one sort instead of one per
     * level. AIWC_CHECKs that the levels are ascending and in [0, 1].
     */
    std::vector<double> quantiles(std::span<const double> levels) const;

    /**
     * Estimated CDF at x: fraction of the stream weight <= x.
     * Returns NaN on an empty sketch.
     */
    double cdf(double x) const;

    /** Total stream weight folded in (adds plus merged adds). */
    std::uint64_t count() const { return count_; }

    /** Exact minimum of the stream; NaN when empty. */
    double min() const;

    /** Exact maximum of the stream; NaN when empty. */
    double max() const;

    /**
     * Conservative worst-case additive rank error as a fraction of
     * count(): H / k over the current H levels, and exactly 0.0 while
     * no compaction has happened — an uncompacted sketch (including
     * the empty and single-item cases) retains every sample, so rank
     * queries are exact and the bound must not pretend otherwise. The
     * streaming-vs-batch equivalence tests assert against this bound.
     */
    double epsilonBound() const;

    /** Compactor capacity this sketch was built with. */
    std::uint32_t k() const { return k_; }

    /** Number of compactions performed so far (drives the coin). */
    std::uint64_t compactions() const { return compactions_; }

    /** Number of retained items across all levels. */
    std::size_t retained() const;

    /** Heap + object footprint in bytes (capacity-based). */
    std::size_t bytes() const;

  private:
    /** Sort level l, promote survivors, cascade if l+1 overflows. */
    void compact(std::size_t level);

    /**
     * Flatten to (value, weight) pairs sorted by value; each call bumps
     * the aiwc.sketch.sorted_views counter.
     */
    std::vector<std::pair<double, std::uint64_t>> sortedItems() const;

    std::uint32_t k_;
    std::uint64_t seed_;
    std::uint64_t count_ = 0;
    std::uint64_t compactions_ = 0;
    double min_ = 0.0;
    double max_ = 0.0;
    std::vector<std::vector<double>> levels_;
};

} // namespace aiwc::sketch
