/**
 * @file
 * Shared binary (de)serialization primitives: little-endian byte
 * writer, bounds-checked byte reader, and CRC-32 (IEEE 802.3).
 *
 * Two subsystems speak binary: the service wire format
 * (aiwc/svc/frame.hh) and the on-disk trace format
 * (aiwc/fmt/trace.hh). Both sit at a trust boundary where raw bytes
 * become typed records, so they share one discipline, implemented
 * here once: writers are append-only and infallible; readers never
 * read past the buffer and never abort — a failed read trips a sticky
 * `failed` flag the caller checks once per structural unit, so
 * truncated or hostile input degrades into a rejection verdict, not
 * UB. All integers are little-endian on the wire and on disk;
 * doubles travel as their IEEE-754 bit patterns, so values round-trip
 * bit-exactly.
 */

#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace aiwc
{

/** Little-endian append-only byte sink. */
class ByteWriter
{
  public:
    explicit ByteWriter(std::vector<std::uint8_t> &out) : out_(out) {}

    void
    u8(std::uint8_t v)
    {
        out_.push_back(v);
    }

    void u16(std::uint16_t v) { put<2>(v); }
    void u32(std::uint32_t v) { put<4>(v); }
    void u64(std::uint64_t v) { put<8>(v); }

    void
    f64(double v)
    {
        u64(std::bit_cast<std::uint64_t>(v));
    }

  private:
    /**
     * Append the low `Bytes` bytes of `v`, least significant first, in
     * one step: the same bytes on any host, with one capacity check
     * instead of one per byte. Capacity doubles as push_back's does;
     * growing to just the needed size instead gave each buffer a
     * slightly different capacity and raised perfbench `ingest`'s peak
     * RSS by 6% through heap fragmentation.
     */
    template <std::size_t Bytes>
    void
    put(std::uint64_t v)
    {
        std::array<std::uint8_t, Bytes> bytes;
        for (std::size_t i = 0; i < Bytes; ++i)
            bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
        const std::size_t at = out_.size();
        if (out_.capacity() - at < Bytes)
            out_.reserve(std::max(2 * out_.capacity(), at + Bytes));
        out_.resize(at + Bytes);
        std::memcpy(out_.data() + at, bytes.data(), Bytes);
    }

    std::vector<std::uint8_t> &out_;
};

/**
 * Bounds-checked little-endian reader: every getter returns a value
 * and trips `failed` instead of reading past the end. Callers check
 * ok() once per structural unit, so a truncated payload degrades into
 * a single rejection verdict rather than UB.
 */
class ByteReader
{
  public:
    explicit ByteReader(std::span<const std::uint8_t> data)
        : data_(data)
    {
    }

    bool ok() const { return !failed_; }
    std::size_t remaining() const { return data_.size() - pos_; }
    bool atEnd() const { return pos_ == data_.size(); }

    std::uint8_t
    u8()
    {
        if (remaining() < 1) {
            failed_ = true;
            return 0;
        }
        return data_[pos_++];
    }

    std::uint16_t u16() { return fixed<std::uint16_t>(); }
    std::uint32_t u32() { return fixed<std::uint32_t>(); }
    std::uint64_t u64() { return fixed<std::uint64_t>(); }

    double
    f64()
    {
        return std::bit_cast<double>(fixed<std::uint64_t>());
    }

  private:
    /**
     * The next sizeof(T) bytes as a little-endian T. A little-endian
     * host copies them in one load; elsewhere the bytes are shifted
     * into place one at a time. A short read consumes the rest of the
     * buffer and returns 0.
     */
    template <typename T>
    T
    fixed()
    {
        // remaining() < sizeof(T), spelled so GCC 12 can see that the
        // load below needs a buffer of at least sizeof(T) bytes (it
        // warns -Warray-bounds on short constant buffers otherwise).
        if (sizeof(T) > data_.size() || pos_ > data_.size() - sizeof(T)) {
            failed_ = true;
            pos_ = data_.size();
            return 0;
        }
        T v;
        if constexpr (std::endian::native == std::endian::little) {
            std::memcpy(&v, data_.data() + pos_, sizeof(T));
        } else {
            std::uint64_t bits = 0;
            for (std::size_t i = 0; i < sizeof(T); ++i)
                bits |= static_cast<std::uint64_t>(data_[pos_ + i])
                        << (8 * i);
            v = static_cast<T>(bits);
        }
        pos_ += sizeof(T);
        return v;
    }

    std::span<const std::uint8_t> data_;
    std::size_t pos_ = 0;
    bool failed_ = false;
};

/**
 * CRC-32 (IEEE 802.3 polynomial, reflected, the zlib/PNG checksum) over
 * a byte span: crc32("123456789") == 0xcbf43926, and the empty span
 * gives 0. The trace decoder checks every section with it, svc::frame
 * every payload.
 *
 * On x86-64 hosts with PCLMULQDQ and SSE4.1, spans of 64 bytes or more
 * are folded 64 bytes per step by carry-less multiplication (Gopal et
 * al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
 * Instruction", Intel 2009); the CPU is asked once, on the first call.
 * Everything else, and the last 0-15 bytes of a folded span, goes
 * through crc32Portable's slicing-by-8 tables. Both paths compute the
 * same checksum.
 */
std::uint32_t crc32(std::span<const std::uint8_t> bytes);

namespace detail
{

/**
 * The portable CRC-32 kernel alone: slicing-by-8 over compile-time
 * tables, eight bytes per step, about 2 GB/s on one core of a 4-vCPU
 * x86-64 VM, where the folded kernel reaches about 20 GB/s. Equal to
 * crc32 on every input; exposed so tests can hold the folded path to
 * it.
 */
std::uint32_t crc32Portable(std::span<const std::uint8_t> bytes);

} // namespace detail

} // namespace aiwc
