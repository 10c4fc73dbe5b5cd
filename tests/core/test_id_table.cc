/**
 * @file
 * IdTable unit tests: first-appearance interning, lookups through
 * index growth, and dense-id stability when shard tables are interned
 * in order — the properties the columnar Dataset and the streaming
 * per-user table lean on.
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

TEST(IdTable, LookupsSurviveIndexGrowth)
{
    // Enough ids to rehash the index many times, drawn so that many
    // share low bits (multiples of 1024) or sit next to each other,
    // plus the extremes of the id range; every one keeps its dense id
    // through every growth, and an id never interned gets a new one.
    std::vector<std::uint32_t> ids;
    for (std::uint32_t i = 0; i < 4000; ++i)
        ids.push_back(i % 2 == 0 ? i * 1024u : 0x7fff0000u + i);
    ids.push_back(0xffffffffu);
    ids.push_back(1u);
    IdTable table;
    for (std::size_t d = 0; d < ids.size(); ++d)
        ASSERT_EQ(table.intern(ids[d]), d) << "raw " << ids[d];
    for (std::size_t d = 0; d < ids.size(); ++d)
        EXPECT_EQ(table.intern(ids[d]), d);
    EXPECT_EQ(table.size(), ids.size());
    EXPECT_EQ(table.intern(3u * 1024u), ids.size());
    EXPECT_EQ(table.intern(0x7fff0000u), ids.size() + 1);
    EXPECT_GE(table.bytes(), ids.size() * 3 * sizeof(std::uint32_t));
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
    for (const IdTable *shard : {&shard_a, &shard_b})
        for (const std::uint32_t raw : shard->rawIds())
            merged.intern(raw);
    ASSERT_EQ(merged.size(), serial.size());
    for (std::uint32_t d = 0; d < merged.size(); ++d)
        EXPECT_EQ(merged.rawOf(d), serial.rawOf(d));
}

} // namespace
} // namespace aiwc::core
