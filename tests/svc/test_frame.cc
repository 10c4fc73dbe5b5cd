#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "../common/mutation_driver.hh"
#include "../core/record_builder.hh"

#include "aiwc/common/binary.hh"
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
 * Overwrite a payload double (offset relative to the payload start)
 * and re-seal the CRC so the corruption reaches the structural
 * validator instead of being caught by the checksum.
 */
void
patchPayloadF64(std::vector<std::uint8_t> &frame,
                std::size_t payload_offset, double value)
{
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(value);
    for (int i = 0; i < 8; ++i)
        frame[frame_header_bytes + payload_offset + i] =
            static_cast<std::uint8_t>(bits >> (8 * i));
    const auto payload =
        std::span<const std::uint8_t>(frame).subspan(frame_header_bytes);
    patchU32(frame, 20, crc32(payload));
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

void
expectSummaryEq(const stats::RunningSummary &a,
                const stats::RunningSummary &b)
{
    EXPECT_EQ(a.count(), b.count());
    EXPECT_DOUBLE_EQ(a.min(), b.min());
    EXPECT_DOUBLE_EQ(a.mean(), b.mean());
    EXPECT_DOUBLE_EQ(a.max(), b.max());
    EXPECT_NEAR(a.stddev(), b.stddev(), 1e-9);
}

TEST(Frame, RoundTripPreservesEveryField)
{
    const auto records = sampleBatch();
    const auto frame = encodeJobBatch(77, records);
    const auto decoded = decodeFrame(frame);
    ASSERT_TRUE(decoded.ok()) << toString(decoded.status);
    EXPECT_EQ(decoded.tenant, 77u);
    EXPECT_EQ(decoded.consumed, frame.size());
    ASSERT_EQ(decoded.records.size(), records.size());

    for (std::size_t i = 0; i < records.size(); ++i) {
        const core::JobRecord &in = records[i];
        const core::JobRecord &out = decoded.records[i];
        EXPECT_EQ(out.id, in.id);
        EXPECT_EQ(out.user, in.user);
        EXPECT_EQ(out.interface, in.interface);
        EXPECT_EQ(out.terminal, in.terminal);
        EXPECT_EQ(out.true_class, in.true_class);
        EXPECT_DOUBLE_EQ(out.submit_time, in.submit_time);
        EXPECT_DOUBLE_EQ(out.start_time, in.start_time);
        EXPECT_DOUBLE_EQ(out.end_time, in.end_time);
        EXPECT_DOUBLE_EQ(out.walltime_limit, in.walltime_limit);
        EXPECT_EQ(out.gpus, in.gpus);
        EXPECT_EQ(out.cpu_slots, in.cpu_slots);
        EXPECT_DOUBLE_EQ(out.ram_gb, in.ram_gb);
        ASSERT_EQ(out.per_gpu.size(), in.per_gpu.size());
        for (std::size_t g = 0; g < in.per_gpu.size(); ++g) {
            expectSummaryEq(out.per_gpu[g].sm, in.per_gpu[g].sm);
            expectSummaryEq(out.per_gpu[g].membw, in.per_gpu[g].membw);
            expectSummaryEq(out.per_gpu[g].power_watts,
                            in.per_gpu[g].power_watts);
        }
        ASSERT_EQ(out.has_timeseries, in.has_timeseries);
        if (in.has_timeseries) {
            EXPECT_DOUBLE_EQ(out.phases.active_fraction,
                             in.phases.active_fraction);
            EXPECT_EQ(out.phases.active_intervals,
                      in.phases.active_intervals);
            EXPECT_EQ(out.phases.idle_intervals,
                      in.phases.idle_intervals);
            EXPECT_DOUBLE_EQ(out.phases.active_sm_cov,
                             in.phases.active_sm_cov);
            // NaN CoV (the zero-mean convention) must survive the trip.
            EXPECT_TRUE(std::isnan(out.phases.active_membw_cov));
        }
    }
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
    auto frame = encodeJobBatch(9, sampleBatch());
    patchU16(frame, 4, frame_version + 1);
    const auto r = decodeFrame(frame);
    EXPECT_EQ(r.status, DecodeStatus::VersionSkew);
    // A well-formed frame from another version can be skipped whole.
    EXPECT_EQ(r.consumed, frame.size());
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
    const std::vector<core::JobRecord> one = {gpuRecord(1, 0, 600.0)};
    auto frame = encodeJobBatch(9, one);
    // First per-GPU summary starts after count (4) + the record's
    // fixed 62-byte prefix; its mean is the second double after the
    // u64 sample count. mean > max must be rejected *before* it can
    // reach RunningSummary::fromMoments, whose contract check would
    // abort the daemon.
    const std::size_t sm_mean_offset = 4 + 62 + 8 + 8;
    patchPayloadF64(frame, sm_mean_offset, 1.0e12);
    const auto r = decodeFrame(frame);
    EXPECT_EQ(r.status, DecodeStatus::Malformed);
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

TEST(Frame, StatusNamesAreStable)
{
    EXPECT_STREQ(toString(DecodeStatus::Ok), "ok");
    EXPECT_STREQ(toString(DecodeStatus::BadCrc), "bad-crc");
    EXPECT_STREQ(toString(DecodeStatus::Malformed), "malformed");
}

} // namespace
} // namespace aiwc::svc
