#include <gtest/gtest.h>

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

} // namespace
} // namespace aiwc
