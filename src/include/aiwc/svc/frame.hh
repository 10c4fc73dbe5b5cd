/**
 * @file
 * The service's wire format: length-prefixed binary frames carrying
 * JobRecord batches from tenant collectors to the characterization
 * daemon. This is the boundary where untrusted bytes become typed
 * records, so the decoder is strict: versioned fixed-size header,
 * CRC-32 over the payload, and bounds-checked field reads that reject
 * malformed input with a status code — never an abort, never a read
 * past the buffer. A daemon fed garbage drops the frame and keeps
 * serving (the malformed-frame fuzz suite pins this down).
 *
 * Layout (all integers little-endian):
 *
 *   offset  size  field
 *        0     4  magic 0x43574941 ("AIWC")
 *        4     2  version (frame_version; other values -> VersionSkew)
 *        6     2  frame type (FrameType)
 *        8     8  tenant id
 *       16     4  payload length in bytes (<= max_frame_payload)
 *       20     4  CRC-32 (IEEE) of the payload bytes
 *       24     n  payload
 *
 * A JobBatch payload is a u32 record count followed by that many
 * serialized JobRecords: the fixed scalar fields, a u16 per-GPU count,
 * that many core::writeGpuSummary blocks (raw accumulators, so records
 * cross the wire bit for bit), then core::writePhaseStats when the
 * record has a time series. core::checkDecodedFields vets the scalars
 * before any per-GPU block is read. Version 1 sent each summary as
 * lossy (count, min, mean, max, stddev) moments in the same 40 bytes.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "aiwc/core/job_record.hh"

namespace aiwc::svc
{

/** "AIWC" read little-endian. */
inline constexpr std::uint32_t frame_magic = 0x43574941u;

/** Current wire version; bump on any layout change. */
inline constexpr std::uint16_t frame_version = 2;

/** Fixed header size in bytes. */
inline constexpr std::size_t frame_header_bytes = 24;

/**
 * Hard payload ceiling. Anything larger is rejected before allocation:
 * a corrupt or hostile length prefix must not become an OOM.
 */
inline constexpr std::size_t max_frame_payload = 64u << 20;

/** Frame kinds carried on the wire. */
enum class FrameType : std::uint16_t
{
    JobBatch = 1,
};

/** Decode outcome; everything but Ok/NeedMoreData rejects the frame. */
enum class DecodeStatus : std::uint8_t
{
    Ok,
    /** Buffer ends before the header or the declared payload does. */
    NeedMoreData,
    BadMagic,       //!< resync required; consumed stays 0
    VersionSkew,    //!< well-formed frame from a different version
    BadType,        //!< unknown FrameType
    Oversized,      //!< payload length exceeds max_frame_payload
    BadCrc,         //!< payload checksum mismatch
    Malformed,      //!< payload structure/bounds/enum-range violation
};

/**
 * Result of one decode attempt. `consumed` is how many input bytes the
 * caller should drop: header + payload for every parsed frame (good or
 * rejected), 0 when more bytes are needed or the stream cannot be
 * trusted past the header (BadMagic, Oversized) and the caller must
 * resynchronize or drop the connection.
 */
struct DecodedFrame
{
    DecodeStatus status = DecodeStatus::NeedMoreData;
    std::size_t consumed = 0;
    std::uint64_t tenant = 0;
    std::vector<core::JobRecord> records;

    bool ok() const { return status == DecodeStatus::Ok; }
};

/**
 * Encode one JobBatch frame for @p tenant into a buffer sized exactly
 * to the frame (capacity() == size()).
 */
std::vector<std::uint8_t> encodeJobBatch(
    std::uint64_t tenant, std::span<const core::JobRecord> records);

/**
 * Decode the first frame in @p buffer. Never throws on malformed
 * input and never reads outside @p buffer; see DecodedFrame for the
 * consumption contract.
 */
DecodedFrame decodeFrame(std::span<const std::uint8_t> buffer);

} // namespace aiwc::svc
