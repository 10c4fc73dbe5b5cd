#include "aiwc/common/binary.hh"

#include <array>

namespace aiwc
{

namespace
{

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/**
 * Slicing-by-8 tables: tables[0] is the classic byte table; tables[k][b]
 * is the CRC of byte b followed by k zero bytes, so one lookup per table
 * folds eight input bytes at once.
 */
constexpr CrcTables
makeCrcTables()
{
    CrcTables tables{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int bit = 0; bit < 8; ++bit)
            c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        tables[0][i] = c;
    }
    for (std::size_t k = 1; k < tables.size(); ++k)
        for (std::size_t i = 0; i < 256; ++i)
            tables[k][i] = (tables[k - 1][i] >> 8) ^
                           tables[0][tables[k - 1][i] & 0xffu];
    return tables;
}

constexpr CrcTables crc_tables = makeCrcTables();

/** Little-endian 32-bit load; compiles to one move on x86 and arm64. */
std::uint32_t
loadLe32(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

} // namespace

std::uint32_t
crc32(std::span<const std::uint8_t> bytes)
{
    const auto &t = crc_tables;
    const std::uint8_t *p = bytes.data();
    std::size_t n = bytes.size();
    std::uint32_t crc = 0xffffffffu;
    for (; n >= 8; p += 8, n -= 8) {
        const std::uint32_t lo = crc ^ loadLe32(p);
        const std::uint32_t hi = loadLe32(p + 4);
        crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
              t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^
              t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
              t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
    }
    for (; n > 0; ++p, --n)
        crc = t[0][(crc ^ *p) & 0xffu] ^ (crc >> 8);
    return crc ^ 0xffffffffu;
}

} // namespace aiwc
