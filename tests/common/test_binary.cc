#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "aiwc/common/binary.hh"
#include "aiwc/common/rng.hh"

namespace aiwc
{
namespace
{

/** CRC-32 one byte at a time, one bit per step: no tables at all. */
std::uint32_t
referenceCrc32(std::span<const std::uint8_t> bytes)
{
    std::uint32_t crc = 0xffffffffu;
    for (const std::uint8_t b : bytes) {
        crc ^= b;
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc & 1u) ? 0xedb88320u ^ (crc >> 1) : crc >> 1;
    }
    return crc ^ 0xffffffffu;
}

TEST(Crc32, KnownAnswers)
{
    const std::string_view check = "123456789";
    EXPECT_EQ(crc32({reinterpret_cast<const std::uint8_t *>(check.data()),
                     check.size()}),
              0xcbf43926u);
    EXPECT_EQ(crc32({}), 0u);
}

TEST(Crc32, MatchesReferenceAtEveryLengthAndAlignment)
{
    // Lengths 0..257 cover the empty span, every tail length around
    // each word-sized step and a few hundred bytes of the bulk loop;
    // start offsets 0..7 cover every alignment of the bulk loads.
    Rng rng(0xc4c32u);
    std::vector<std::uint8_t> buffer(8 + 257);
    for (std::uint8_t &b : buffer)
        b = static_cast<std::uint8_t>(rng());
    for (std::size_t offset = 0; offset < 8; ++offset) {
        for (std::size_t length = 0; length <= 257; ++length) {
            const std::span<const std::uint8_t> bytes(
                buffer.data() + offset, length);
            ASSERT_EQ(crc32(bytes), referenceCrc32(bytes))
                << "offset " << offset << ", length " << length;
        }
    }
}

TEST(Crc32, FoldedMatchesPortable)
{
    // Whatever kernel crc32 picked on this CPU must agree with the
    // slicing-by-8 tables and the bitwise reference: every length up
    // to 1 KiB at every start offset within a 16-byte lane (so every
    // split between 64-byte folds, 16-byte folds and the table tail),
    // then 64 random lengths up to 256 KiB at random offsets.
    Rng rng(0xf01du);
    std::vector<std::uint8_t> buffer(16 + 256 * 1024);
    for (std::uint8_t &b : buffer)
        b = static_cast<std::uint8_t>(rng());
    const auto check = [&](std::size_t offset, std::size_t length) {
        const std::span<const std::uint8_t> bytes(buffer.data() + offset,
                                                  length);
        const std::uint32_t reference = referenceCrc32(bytes);
        EXPECT_EQ(crc32(bytes), reference)
            << "offset " << offset << ", length " << length;
        EXPECT_EQ(detail::crc32Portable(bytes), reference)
            << "offset " << offset << ", length " << length;
    };
    for (std::size_t offset = 0; offset < 16; ++offset)
        for (std::size_t length = 0; length <= 1024; ++length)
            check(offset, length);
    for (int i = 0; i < 64; ++i)
        check(rng.below(16), rng.below(256 * 1024 + 1));
}

TEST(ByteReader, ReadsLittleEndianAtAnyOffset)
{
    // Hand-written little-endian images, placed at every offset 0..7
    // so the single-load path sees every alignment.
    const std::array<std::uint8_t, 2> u16_le{0x34, 0x12};
    const std::array<std::uint8_t, 4> u32_le{0x78, 0x56, 0x34, 0x12};
    const std::array<std::uint8_t, 8> u64_le{0xef, 0xcd, 0xab, 0x89,
                                             0x67, 0x45, 0x23, 0x01};
    // -2.5 is 0xc004000000000000 in IEEE-754 binary64.
    const std::array<std::uint8_t, 8> f64_le{0, 0, 0, 0, 0, 0, 0x04, 0xc0};
    for (std::size_t offset = 0; offset < 8; ++offset) {
        std::vector<std::uint8_t> buffer(offset, 0xaa);
        buffer.insert(buffer.end(), u16_le.begin(), u16_le.end());
        buffer.insert(buffer.end(), u32_le.begin(), u32_le.end());
        buffer.insert(buffer.end(), u64_le.begin(), u64_le.end());
        buffer.insert(buffer.end(), f64_le.begin(), f64_le.end());
        ByteReader r(buffer);
        for (std::size_t i = 0; i < offset; ++i)
            EXPECT_EQ(r.u8(), 0xaa);
        EXPECT_EQ(r.u16(), 0x1234u) << "offset " << offset;
        EXPECT_EQ(r.u32(), 0x12345678u) << "offset " << offset;
        EXPECT_EQ(r.u64(), 0x0123456789abcdefull) << "offset " << offset;
        EXPECT_EQ(r.f64(), -2.5) << "offset " << offset;
        EXPECT_TRUE(r.ok());
        EXPECT_TRUE(r.atEnd());
    }
}

TEST(ByteReader, ShortReadFailsAndConsumesTheRest)
{
    const std::vector<std::uint8_t> buffer{1, 2, 3, 4, 5, 6, 7};
    for (std::size_t skip = 0; skip <= buffer.size(); ++skip) {
        ByteReader r(buffer);
        for (std::size_t i = 0; i < skip; ++i)
            r.u8();
        ASSERT_TRUE(r.ok());
        EXPECT_EQ(r.u64(), 0u) << "after " << skip << " bytes";
        EXPECT_FALSE(r.ok());
        EXPECT_TRUE(r.atEnd());
        EXPECT_EQ(r.remaining(), 0u);
        // The failure is sticky and every later read returns 0.
        EXPECT_EQ(r.u16(), 0u);
        EXPECT_EQ(r.u8(), 0u);
        EXPECT_FALSE(r.ok());
    }
    ByteReader r(std::span<const std::uint8_t>(buffer).first(3));
    EXPECT_EQ(r.u32(), 0u);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(r.atEnd());
}

} // namespace
} // namespace aiwc
