/**
 * @file
 * Interned identifier table: a bijection between sparse 32-bit raw
 * ids (user ids, job-type keys) and dense indices assigned in first-
 * appearance order.
 *
 * The columnar Dataset stores a dense index per row instead of the
 * raw id, so per-user aggregations become array indexing instead of
 * map lookups, and the on-disk trace format ships one small id table
 * plus a u32 column. Dense ids are deterministic: they depend only on
 * the order rows were appended, never on hash iteration order, so the
 * same trace always interns to the same table. Merging two tables
 * (shard merges) preserves every dense id already assigned in the
 * receiving table and appends the donor's unseen raw ids in the
 * donor's dense order — ids are stable under merge.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "aiwc/common/types.hh"

namespace aiwc::core
{

/** Insertion-ordered intern table for 32-bit identifiers. */
class IdTable
{
  public:
    /**
     * Dense id of @p raw, interning it if unseen. The first distinct
     * raw id gets dense id 0, the second 1, and so on.
     */
    std::uint32_t intern(std::uint32_t raw);

    /** Dense id of @p raw, or invalid_id when never interned. */
    std::uint32_t denseOf(std::uint32_t raw) const;

    /** Raw id behind dense id @p dense (AIWC_CHECK: in range). */
    std::uint32_t rawOf(std::uint32_t dense) const;

    /** Number of distinct interned ids. */
    std::size_t size() const { return raw_ids_.size(); }

    bool empty() const { return raw_ids_.empty(); }

    /** The dense -> raw mapping, in dense-id order. */
    std::span<const std::uint32_t> rawIds() const { return raw_ids_; }

    /**
     * Union-merge: intern every id of @p other (in other's dense
     * order) into this table. Existing dense ids in this table are
     * untouched; other's unseen ids append. @return the remap vector
     * m with m[other_dense] == this_dense for every id of other.
     */
    std::vector<std::uint32_t> mergeFrom(const IdTable &other);

    /**
     * Rebuild a table from a dense -> raw vector (the on-disk
     * representation). Duplicate raw ids make the table ill-formed;
     * the caller must validate untrusted input first (the fmt reader
     * does) — here a duplicate is an AIWC_CHECK violation.
     */
    static IdTable fromRawIds(std::span<const std::uint32_t> raw_ids);

    /** Heap bytes held: the dense -> raw vector and the index. */
    std::size_t bytes() const;

  private:
    /** One index slot; dense == invalid_id marks it empty. */
    struct Slot
    {
        std::uint32_t raw = 0;
        std::uint32_t dense = invalid_id;
    };

    /** Index of @p raw's slot, or of the empty slot where it goes. */
    std::size_t slotOf(std::uint32_t raw) const;

    /** Rebuild the index at @p slot_count slots (a power of two). */
    void rehash(std::size_t slot_count);

    std::vector<std::uint32_t> raw_ids_;  //!< dense -> raw
    // raw -> dense: open addressing with linear probing, a power of
    // two of slots kept at most half full. Point lookups only, never
    // iterated, so slot order is unobservable.
    std::vector<Slot> slots_;
};

} // namespace aiwc::core
