#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "../common/mutation_driver.hh"
#include "../core/record_builder.hh"

#include "aiwc/common/binary.hh"
#include "aiwc/fmt/trace.hh"
#include "aiwc/svc/frame.hh"

namespace aiwc::svc
{
namespace
{

using core::testing::cpuRecord;
using core::testing::gpuRecord;

/** Overwrite a little-endian u16 at @p offset (header fields). */
void
patchU16(std::vector<std::uint8_t> &frame, std::size_t offset,
         std::uint16_t value)
{
    frame[offset] = static_cast<std::uint8_t>(value);
    frame[offset + 1] = static_cast<std::uint8_t>(value >> 8);
}

void
patchU32(std::vector<std::uint8_t> &frame, std::size_t offset,
         std::uint32_t value)
{
    for (int i = 0; i < 4; ++i)
        frame[offset + i] = static_cast<std::uint8_t>(value >> (8 * i));
}

/**
 * Overwrite a payload u64 (offset relative to the payload start) and
 * re-seal the CRC so the corruption reaches the structural validator
 * instead of being caught by the checksum.
 */
void
patchPayloadU64(std::vector<std::uint8_t> &frame,
                std::size_t payload_offset, std::uint64_t value)
{
    for (int i = 0; i < 8; ++i)
        frame[frame_header_bytes + payload_offset + i] =
            static_cast<std::uint8_t>(value >> (8 * i));
    const auto payload =
        std::span<const std::uint8_t>(frame).subspan(frame_header_bytes);
    patchU32(frame, 20, crc32(payload));
}

void
patchPayloadF64(std::vector<std::uint8_t> &frame,
                std::size_t payload_offset, double value)
{
    patchPayloadU64(frame, payload_offset,
                    std::bit_cast<std::uint64_t>(value));
}

std::vector<core::JobRecord>
sampleBatch()
{
    std::vector<core::JobRecord> records;
    records.push_back(gpuRecord(1, 10, 600.0, 2));
    records.push_back(cpuRecord(2, 11, 480.0));
    core::JobRecord ts = gpuRecord(3, 12, 1200.0);
    ts.interface = Interface::Interactive;
    ts.terminal = TerminalState::Cancelled;
    ts.true_class = Lifecycle::Exploratory;
    ts.has_timeseries = true;
    ts.phases.active_fraction = 0.75;
    ts.phases.active_intervals = {30.0, 45.0, 12.5};
    ts.phases.idle_intervals = {5.0, 2.5};
    ts.phases.active_sm_cov = 42.0;
    ts.phases.active_membw_cov =
        std::numeric_limits<double>::quiet_NaN();  // zero-mean CoV
    ts.phases.active_memsize_cov = 17.0;
    records.push_back(ts);
    return records;
}

TEST(Frame, RoundTripPreservesEveryField)
{
    // contentDigest hashes every field of every record bit for bit
    // (all six per-GPU summaries as raw accumulators, the NaN CoV
    // included), so equal digests mean the batch crossed unchanged.
    const auto records = sampleBatch();
    const auto frame = encodeJobBatch(77, records);
    // Encoded in place into an exactly sized buffer: a service that
    // keeps frames keeps no slack.
    EXPECT_EQ(frame.capacity(), frame.size());
    const auto decoded = decodeFrame(frame);
    ASSERT_TRUE(decoded.ok()) << static_cast<int>(decoded.status);
    EXPECT_EQ(decoded.tenant, 77u);
    EXPECT_EQ(decoded.consumed, frame.size());
    ASSERT_EQ(decoded.records.size(), records.size());
    EXPECT_EQ(fmt::contentDigest(core::Dataset(decoded.records)),
              fmt::contentDigest(core::Dataset(records)));
}

TEST(Frame, RoundTripEmptyBatch)
{
    const auto frame = encodeJobBatch(5, {});
    const auto decoded = decodeFrame(frame);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.tenant, 5u);
    EXPECT_TRUE(decoded.records.empty());
}

TEST(Frame, BackToBackFramesDecodeSequentially)
{
    auto buffer = encodeJobBatch(1, sampleBatch());
    const auto second = encodeJobBatch(2, {});
    buffer.insert(buffer.end(), second.begin(), second.end());

    const auto first = decodeFrame(buffer);
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(first.tenant, 1u);
    const auto rest = decodeFrame(
        std::span<const std::uint8_t>(buffer).subspan(first.consumed));
    ASSERT_TRUE(rest.ok());
    EXPECT_EQ(rest.tenant, 2u);
    EXPECT_EQ(first.consumed + rest.consumed, buffer.size());
}

/**
 * The decoder's contract on a mutant of an encoded sampleBatch(): it
 * never consumes more than it was given, a strict prefix needs more
 * data and consumes nothing, garbage never parses, and a mutant that
 * does parse (only the tenant id lies outside the CRC) keeps every
 * record.
 */
void
frameOracle(const fuzz::Mutant &m)
{
    const DecodedFrame r = decodeFrame(m.span());
    EXPECT_LE(r.consumed, m.bytes.size());
    if (m.prefix()) {
        EXPECT_EQ(r.status, DecodeStatus::NeedMoreData);
        EXPECT_EQ(r.consumed, 0u);
    }
    if (m.kind == fuzz::MutationKind::Garbage) {
        EXPECT_FALSE(r.ok());
    }
    if (r.ok()) {
        EXPECT_EQ(r.records.size(), sampleBatch().size());
    }
}

fuzz::MutationDriver
frameDriver(std::uint64_t seed)
{
    const auto frame = encodeJobBatch(9, sampleBatch());
    return {"frame", {frame.begin(), frame.end()}, seed};
}

TEST(Frame, TruncatedLengthPrefixNeedsMoreData)
{
    using enum fuzz::MutationKind;
    frameDriver(0x1e6).run({{EveryPrefix}, {Truncate, 200}}, frameOracle);
}

TEST(Frame, BadMagicConsumesNothing)
{
    auto frame = encodeJobBatch(9, {});
    frame[0] ^= 0xff;
    const auto r = decodeFrame(frame);
    EXPECT_EQ(r.status, DecodeStatus::BadMagic);
    // Consumed 0: the caller must resynchronize, not skip a frame.
    EXPECT_EQ(r.consumed, 0u);
}

TEST(Frame, VersionSkewRejectsTheWholeFrame)
{
    // Version 1 carried lossy moments where version 2 carries raw
    // accumulators in the same bytes; neither may pass for the other.
    for (const int version : {frame_version - 1, frame_version + 1}) {
        auto frame = encodeJobBatch(9, sampleBatch());
        patchU16(frame, 4, static_cast<std::uint16_t>(version));
        const auto r = decodeFrame(frame);
        EXPECT_EQ(r.status, DecodeStatus::VersionSkew) << version;
        // A well-formed frame from another version is skipped whole.
        EXPECT_EQ(r.consumed, frame.size());
    }
}

TEST(Frame, UnknownFrameTypeRejects)
{
    auto frame = encodeJobBatch(9, {});
    patchU16(frame, 6, 0x7777);
    const auto r = decodeFrame(frame);
    EXPECT_EQ(r.status, DecodeStatus::BadType);
    EXPECT_EQ(r.consumed, frame.size());
}

TEST(Frame, OversizedLengthRejectsBeforeAllocation)
{
    auto frame = encodeJobBatch(9, {});
    patchU32(frame, 16,
             static_cast<std::uint32_t>(max_frame_payload + 1));
    const auto r = decodeFrame(frame);
    EXPECT_EQ(r.status, DecodeStatus::Oversized);
    // The length itself is untrusted; consumed 0 forces a resync.
    EXPECT_EQ(r.consumed, 0u);
}

TEST(Frame, BadCrcRejects)
{
    auto frame = encodeJobBatch(9, sampleBatch());
    frame[frame_header_bytes + 5] ^= 0x01;
    const auto r = decodeFrame(frame);
    EXPECT_EQ(r.status, DecodeStatus::BadCrc);
    EXPECT_EQ(r.consumed, frame.size());
}

TEST(Frame, LyingRecordCountIsMalformed)
{
    const std::vector<core::JobRecord> one = {gpuRecord(1, 0, 600.0)};
    auto frame = encodeJobBatch(9, one);
    // Claim two records where one was written, CRC re-sealed so the
    // structural validator (not the checksum) must catch it.
    patchU32(frame, frame_header_bytes, 2);
    const auto payload =
        std::span<const std::uint8_t>(frame).subspan(frame_header_bytes);
    patchU32(frame, 20, crc32(payload));
    const auto r = decodeFrame(frame);
    EXPECT_EQ(r.status, DecodeStatus::Malformed);
    EXPECT_EQ(r.consumed, frame.size());
}

TEST(Frame, GpuCountAboveTheCeilingIsMalformed)
{
    for (const std::uint32_t gpus :
         {core::max_gpus_per_job, core::max_gpus_per_job + 1}) {
        const std::vector<core::JobRecord> one = {
            gpuRecord(1, 0, 600.0, static_cast<int>(gpus))};
        EXPECT_EQ(decodeFrame(encodeJobBatch(9, one)).status,
                  gpus <= core::max_gpus_per_job ? DecodeStatus::Ok
                                                 : DecodeStatus::Malformed)
            << gpus << " gpus";
    }
    // cpu_slots travels as a u32; above INT_MAX it is no slot count.
    for (const std::uint32_t slots :
         {0x7fffffffu, 0x80000000u, 0xffffffffu}) {
        std::vector<core::JobRecord> one = {gpuRecord(1, 0, 600.0)};
        one[0].cpu_slots = static_cast<int>(slots);
        EXPECT_EQ(decodeFrame(encodeJobBatch(9, one)).status,
                  slots <= 0x7fffffffu ? DecodeStatus::Ok
                                       : DecodeStatus::Malformed)
            << slots << " cpu_slots";
    }
}

TEST(Frame, NonFiniteTimeIsMalformedNotAnAbort)
{
    const std::vector<core::JobRecord> one = {gpuRecord(1, 0, 600.0)};
    auto frame = encodeJobBatch(9, one);
    // submit_time sits right after the u32 record count and the
    // id/user/enum block (4 + 4 + 4 + 4 bytes) — see the layout doc.
    patchPayloadF64(frame, 16,
                    std::numeric_limits<double>::quiet_NaN());
    const auto r = decodeFrame(frame);
    EXPECT_EQ(r.status, DecodeStatus::Malformed);
}

TEST(Frame, InconsistentMomentsAreMalformedNotAnAbort)
{
    // The first per-GPU raw state starts after the record count (4)
    // and the record's fixed 62-byte prefix: u64 count, then f64 min,
    // max, sum and sum_sq. A state RunningSummary::fromRawState would
    // abort on must be rejected before it gets there.
    constexpr std::size_t sm_state = 4 + 62;
    const std::vector<core::JobRecord> one = {gpuRecord(1, 0, 600.0)};
    const auto pristine = encodeJobBatch(9, one);

    auto empty_but_nonzero = pristine;  // count 0, accumulators kept
    patchPayloadU64(empty_but_nonzero, sm_state, 0);
    EXPECT_EQ(decodeFrame(empty_but_nonzero).status,
              DecodeStatus::Malformed);

    auto min_above_max = pristine;
    patchPayloadF64(min_above_max, sm_state + 8, 1.0e12);
    EXPECT_EQ(decodeFrame(min_above_max).status, DecodeStatus::Malformed);
}

TEST(Frame, RandomGarbageNeverParsesAndNeverCrashes)
{
    frameDriver(0xA1FC).run({{fuzz::MutationKind::Garbage, 2000}},
                            frameOracle);
}

TEST(Frame, TruncatedOrBitFlippedEncodingsNeverCrash)
{
    using enum fuzz::MutationKind;
    frameDriver(0xBEEF).run({{Truncate, 500},
                             {BitFlip, 500},
                             {ByteReplace, 500},
                             {Splice, 500}},
                            frameOracle);
}

TEST(Frame, Crc32MatchesTheIeeeReferenceVector)
{
    const std::uint8_t check[] = {'1', '2', '3', '4', '5',
                                  '6', '7', '8', '9'};
    EXPECT_EQ(crc32(check), 0xCBF43926u);
    EXPECT_EQ(crc32({}), 0u);
}

} // namespace
} // namespace aiwc::svc
