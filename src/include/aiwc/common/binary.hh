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

    std::uint16_t
    u16()
    {
        return static_cast<std::uint16_t>(fixed(2));
    }

    std::uint32_t
    u32()
    {
        return static_cast<std::uint32_t>(fixed(4));
    }

    std::uint64_t u64() { return fixed(8); }

    double
    f64()
    {
        return std::bit_cast<double>(fixed(8));
    }

  private:
    std::uint64_t
    fixed(std::size_t bytes)
    {
        if (remaining() < bytes) {
            failed_ = true;
            pos_ = data_.size();
            return 0;
        }
        std::uint64_t v = 0;
        for (std::size_t i = 0; i < bytes; ++i)
            v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
        pos_ += bytes;
        return v;
    }

    std::span<const std::uint8_t> data_;
    std::size_t pos_ = 0;
    bool failed_ = false;
};

/**
 * CRC-32 (IEEE 802.3 polynomial, reflected, the zlib/PNG checksum) over
 * a byte span: crc32("123456789") == 0xcbf43926, and the empty span
 * gives 0. Slicing-by-8 over compile-time tables folds eight bytes per
 * step: about 1.7 GB/s on one core of a 4-vCPU x86-64 VM, against
 * 0.33 GB/s for a byte-at-a-time loop, with identical results. The
 * trace decoder checks every section with it, svc::frame every payload.
 */
std::uint32_t crc32(std::span<const std::uint8_t> bytes);

} // namespace aiwc
