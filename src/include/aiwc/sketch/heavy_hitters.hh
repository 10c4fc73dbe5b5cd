/**
 * @file
 * Space-saving heavy-hitters sketch: top-k keys of a weighted stream
 * (users by GPU-hours, jobs by energy) in O(k) memory. Backs the
 * streaming Fig 10 reproduction, where the paper's "top 5 / top 20
 * users" shares must be answerable without a per-user table covering
 * the full population.
 *
 * Determinism: eviction picks the minimum-count entry, breaking ties
 * on the smallest key; the merge subtracts a value-defined threshold.
 * No randomness anywhere, so sketch state is a pure function of the
 * ingestion/merge order.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace aiwc::sketch
{

/**
 * Mergeable space-saving sketch over (key, weight) pairs.
 *
 * Guarantees: a key's estimated count is never below its true weight
 * minus error() and never above true weight plus error(); any key with
 * true weight above totalWeight() / capacity is retained. The merge is
 * Misra-Gries style — sum per-key counters, then shrink back to
 * capacity by subtracting the (capacity+1)-th largest count — which
 * preserves both bounds with the errors summed. Summed errors are
 * clamped to the entry's count after every merge, so the
 * `count - error` lower bound is always >= 0 even after arbitrarily
 * deep merge trees (error <= count is a class invariant).
 */
class HeavyHitters
{
  public:
    /** One tracked key with its count estimate and error allowance. */
    struct Entry
    {
        std::uint64_t key = 0;
        double count = 0.0;
        /**
         * Upper bound on overestimation of `count`; always <= count,
         * so `count - error` is a usable non-negative lower bound on
         * the key's true weight.
         */
        double error = 0.0;
    };

    /** @param capacity number of keys tracked; must be > 0. */
    explicit HeavyHitters(std::size_t capacity = 32);

    /** Fold weight for one key in. Weight must be >= 0 (DCHECK). */
    void add(std::uint64_t key, double weight = 1.0);

    /** Fold another sketch in. Capacities must match (AIWC_CHECK). */
    void merge(const HeavyHitters &other);

    /**
     * The k heaviest tracked keys, sorted by count descending with
     * ties broken on ascending key; at most min(k, capacity) entries.
     */
    std::vector<Entry> topK(std::size_t k) const;

    /** Total stream weight folded in (exact, unaffected by eviction). */
    double totalWeight() const { return total_; }

    /** Number of keys currently tracked. */
    std::size_t size() const { return entries_.size(); }

    std::size_t capacity() const { return capacity_; }

    /** Object footprint plus the entry vector's heap capacity. */
    std::size_t bytes() const;

  private:
    struct Cell
    {
        double count = 0.0;
        double error = 0.0;
    };

    using Slot = std::pair<std::uint64_t, Cell>;

    /** Restore the error <= count invariant after a merge. */
    void clampErrors();

    std::size_t capacity_;
    double total_ = 0.0;
    // At most capacity_ entries sorted by key, in one block: a lookup
    // is a binary search, an eviction one contiguous scan. Key order
    // makes the scan's first minimum the smallest key among the
    // minima, the deterministic tie-break.
    std::vector<Slot> entries_;
};

} // namespace aiwc::sketch
