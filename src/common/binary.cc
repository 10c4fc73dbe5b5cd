#include "aiwc/common/binary.hh"

#include <array>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

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

/**
 * Advance the running (pre-inverted) CRC state over @p n bytes at
 * @p p, eight bytes per step through the slicing tables.
 */
std::uint32_t
sliceBy8(std::uint32_t crc, const std::uint8_t *p, std::size_t n)
{
    const auto &t = crc_tables;
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
    return crc;
}

using CrcKernel = std::uint32_t (*)(std::uint32_t, const std::uint8_t *,
                                    std::size_t);

#if defined(__x86_64__)

/**
 * One fold step: carry the 128-bit remainder @p x forward over the
 * fold distance whose constants @p k holds, and add the next block.
 */
__attribute__((target("pclmul,sse4.1"))) __m128i
fold(__m128i x, __m128i k, __m128i next)
{
    const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
    const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
    return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

/**
 * Carry-less-multiply folding (Gopal et al., Intel 2009), in the
 * bit-reflected domain of the IEEE polynomial. Four 128-bit lanes fold
 * 64 bytes per step; the lanes then fold into one, which takes the
 * remaining whole 16-byte blocks, and a Barrett reduction brings the
 * 128-bit remainder down to the 32-bit state. Spans under 64 bytes and
 * the last 0-15 bytes go through sliceBy8.
 *
 * The constants are x^n mod P for the fold distances, bit-reflected
 * and shifted left by one (k1/k2: n = 4 x 128 + 32 and 4 x 128 - 32;
 * k3/k4: 128 + 32 and 128 - 32; k5: 64), then floor(x^64 / P) and P
 * themselves, bit-reflected, for the Barrett step.
 */
__attribute__((target("pclmul,sse4.1"))) std::uint32_t
foldClmul(std::uint32_t crc, const std::uint8_t *p, std::size_t n)
{
    if (n < 64)
        return sliceBy8(crc, p, n);
    const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
    const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
    const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
    const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
    const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

    const auto load = [](const std::uint8_t *at) {
        return _mm_loadu_si128(reinterpret_cast<const __m128i *>(at));
    };
    __m128i x1 = _mm_xor_si128(load(p),
                               _mm_cvtsi32_si128(static_cast<int>(crc)));
    __m128i x2 = load(p + 16);
    __m128i x3 = load(p + 32);
    __m128i x4 = load(p + 48);
    p += 64;
    n -= 64;
    for (; n >= 64; p += 64, n -= 64) {
        x1 = fold(x1, k1k2, load(p));
        x2 = fold(x2, k1k2, load(p + 16));
        x3 = fold(x3, k1k2, load(p + 32));
        x4 = fold(x4, k1k2, load(p + 48));
    }
    x1 = fold(x1, k3k4, x2);
    x1 = fold(x1, k3k4, x3);
    x1 = fold(x1, k3k4, x4);
    for (; n >= 16; p += 16, n -= 16)
        x1 = fold(x1, k3k4, load(p));

    // 128 -> 64 bits, then 64 -> 32 bits ahead of the Barrett step.
    __m128i x = _mm_xor_si128(_mm_srli_si128(x1, 8),
                              _mm_clmulepi64_si128(x1, k3k4, 0x10));
    x = _mm_xor_si128(_mm_srli_si128(x, 4),
                      _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5,
                                           0x00));
    __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly, 0x10);
    q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly, 0x00);
    x = _mm_xor_si128(x, q);
    return sliceBy8(static_cast<std::uint32_t>(_mm_extract_epi32(x, 1)), p,
                    n);
}

#endif

/** The fastest kernel this CPU runs; asked once per process. */
CrcKernel
pickCrcKernel()
{
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1"))
        return foldClmul;
#endif
    return sliceBy8;
}

} // namespace

std::uint32_t
crc32(std::span<const std::uint8_t> bytes)
{
    static const CrcKernel kernel = pickCrcKernel();
    return kernel(0xffffffffu, bytes.data(), bytes.size()) ^ 0xffffffffu;
}

namespace detail
{

std::uint32_t
crc32Portable(std::span<const std::uint8_t> bytes)
{
    return sliceBy8(0xffffffffu, bytes.data(), bytes.size()) ^ 0xffffffffu;
}

} // namespace detail

} // namespace aiwc
