/**
 * @file
 * IdTable unit tests: first-appearance interning, round trips through
 * the on-disk representation, and dense-id stability under shard
 * merges — the property the columnar Dataset and the trace format
 * both lean on.
 */

#include <gtest/gtest.h>

#include <vector>

#include "aiwc/common/types.hh"
#include "aiwc/core/id_table.hh"

namespace aiwc::core
{
namespace
{

TEST(IdTable, InternAssignsDenseIdsInFirstAppearanceOrder)
{
    IdTable table;
    EXPECT_TRUE(table.empty());
    EXPECT_EQ(table.intern(900), 0u);
    EXPECT_EQ(table.intern(7), 1u);
    EXPECT_EQ(table.intern(12345), 2u);
    EXPECT_EQ(table.size(), 3u);
    EXPECT_EQ(table.rawOf(0), 900u);
    EXPECT_EQ(table.rawOf(1), 7u);
    EXPECT_EQ(table.rawOf(2), 12345u);
}

TEST(IdTable, DuplicateInterningIsIdempotent)
{
    IdTable table;
    const std::uint32_t first = table.intern(42);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(table.intern(42), first);
    EXPECT_EQ(table.size(), 1u);
}

TEST(IdTable, DenseOfUnknownIsInvalid)
{
    IdTable table;
    table.intern(1);
    EXPECT_EQ(table.denseOf(1), 0u);
    EXPECT_EQ(table.denseOf(2), invalid_id);
    EXPECT_EQ(IdTable().denseOf(0), invalid_id);
}

TEST(IdTable, LookupsSurviveIndexGrowth)
{
    // Enough ids to rehash the index many times, drawn so that many
    // share low bits (multiples of 1024) or sit next to each other,
    // plus the extremes of the id range; every one keeps its dense id
    // through every growth, and ids never interned stay unknown.
    std::vector<std::uint32_t> ids;
    for (std::uint32_t i = 0; i < 4000; ++i)
        ids.push_back(i % 2 == 0 ? i * 1024u : 0x7fff0000u + i);
    ids.push_back(0xffffffffu);
    ids.push_back(1u);
    IdTable table;
    for (std::size_t d = 0; d < ids.size(); ++d)
        ASSERT_EQ(table.intern(ids[d]), d) << "raw " << ids[d];
    for (std::size_t d = 0; d < ids.size(); ++d) {
        EXPECT_EQ(table.denseOf(ids[d]), d);
        EXPECT_EQ(table.intern(ids[d]), d);
    }
    EXPECT_EQ(table.size(), ids.size());
    EXPECT_EQ(table.denseOf(3u * 1024u), invalid_id);
    EXPECT_EQ(table.denseOf(0x7fff0000u), invalid_id);
    EXPECT_GE(table.bytes(), ids.size() * 3 * sizeof(std::uint32_t));
}

TEST(IdTable, RawIdsRoundTripThroughFromRawIds)
{
    IdTable table;
    table.intern(5);
    table.intern(3);
    table.intern(99);
    const IdTable rebuilt = IdTable::fromRawIds(table.rawIds());
    ASSERT_EQ(rebuilt.size(), table.size());
    for (std::uint32_t d = 0; d < rebuilt.size(); ++d)
        EXPECT_EQ(rebuilt.rawOf(d), table.rawOf(d));
    EXPECT_EQ(rebuilt.denseOf(3), 1u);
}

TEST(IdTable, MergePreservesExistingDenseIds)
{
    // The stability contract: ids already assigned in the receiving
    // table never move, no matter what the donor contains.
    IdTable a;
    a.intern(10);
    a.intern(20);

    IdTable b;
    b.intern(20);  // overlaps a
    b.intern(30);  // new
    b.intern(10);  // overlaps a

    const std::vector<std::uint32_t> remap = a.mergeFrom(b);
    EXPECT_EQ(a.size(), 3u);
    EXPECT_EQ(a.rawOf(0), 10u);  // unchanged
    EXPECT_EQ(a.rawOf(1), 20u);  // unchanged
    EXPECT_EQ(a.rawOf(2), 30u);  // appended in donor order

    // remap maps donor dense ids into the merged table.
    ASSERT_EQ(remap.size(), 3u);
    EXPECT_EQ(remap[0], 1u);  // b's 20 -> a's 1
    EXPECT_EQ(remap[1], 2u);  // b's 30 -> appended slot
    EXPECT_EQ(remap[2], 0u);  // b's 10 -> a's 0
}

TEST(IdTable, MergeFromEmptyAndIntoEmpty)
{
    IdTable a;
    a.intern(1);
    const IdTable empty;
    EXPECT_TRUE(a.mergeFrom(empty).empty());
    EXPECT_EQ(a.size(), 1u);

    IdTable c;
    const auto remap = c.mergeFrom(a);
    ASSERT_EQ(remap.size(), 1u);
    EXPECT_EQ(remap[0], 0u);
    EXPECT_EQ(c.rawOf(0), 1u);
}

TEST(IdTable, MergeIsStableAcrossShardOrder)
{
    // Interning shard tables in shard-index order must reproduce the
    // table a serial pass over the concatenated rows would build.
    const std::vector<std::uint32_t> rows = {8, 3, 8, 5, 3, 9, 1};
    IdTable serial;
    for (const std::uint32_t r : rows)
        serial.intern(r);

    IdTable shard_a, shard_b;
    for (std::size_t i = 0; i < 4; ++i)
        shard_a.intern(rows[i]);
    for (std::size_t i = 4; i < rows.size(); ++i)
        shard_b.intern(rows[i]);

    IdTable merged;
    merged.mergeFrom(shard_a);
    merged.mergeFrom(shard_b);
    ASSERT_EQ(merged.size(), serial.size());
    for (std::uint32_t d = 0; d < merged.size(); ++d)
        EXPECT_EQ(merged.rawOf(d), serial.rawOf(d));
}

} // namespace
} // namespace aiwc::core
