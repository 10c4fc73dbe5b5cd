/**
 * @file
 * Binary trace format tests: lossless round trips, and — the part
 * that earns the mmap — totality over hostile bytes. The decoder sits
 * at a trust boundary, so every truncation, bit flip, and schema
 * violation must degrade into a TraceStatus verdict, never an abort.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <sstream>
#include <vector>

#include "aiwc/common/binary.hh"
#include "aiwc/core/csv_loader.hh"
#include "aiwc/fmt/mmap_file.hh"
#include "aiwc/fmt/trace.hh"
#include "aiwc/workload/trace_synthesizer.hh"

#include "../common/mutation_driver.hh"
#include "../core/record_builder.hh"

namespace aiwc::fmt
{
namespace
{

using core::testing::cpuRecord;
using core::testing::gpuRecord;

core::Dataset
sampleDataset()
{
    std::vector<core::JobRecord> records;
    records.push_back(gpuRecord(1, 500, 3600.0, 2, 0.3, 0.8));
    records.push_back(cpuRecord(2, 400, 120.0));
    auto ts = gpuRecord(3, 500, 900.0, 1, 0.6, 0.9,
                        TerminalState::Cancelled);
    ts.has_timeseries = true;
    ts.phases.active_fraction = 0.75;
    ts.phases.active_intervals = {10.0, 20.5};
    ts.phases.idle_intervals = {5.0};
    ts.phases.active_sm_cov = 12.5;
    records.push_back(std::move(ts));
    records.push_back(gpuRecord(4, 600, 60.0, 4, 0.1, 0.2,
                                TerminalState::Failed));
    return core::Dataset(std::move(records));
}

/** Rewrite @p count bytes of section @p id and re-CRC the file. */
void
patchSection(std::vector<std::uint8_t> &bytes, std::uint32_t id,
             std::size_t offset_in_section,
             std::span<const std::uint8_t> patch)
{
    auto read_u32 = [&](std::size_t at) {
        return static_cast<std::uint32_t>(bytes[at]) |
               (static_cast<std::uint32_t>(bytes[at + 1]) << 8) |
               (static_cast<std::uint32_t>(bytes[at + 2]) << 16) |
               (static_cast<std::uint32_t>(bytes[at + 3]) << 24);
    };
    auto read_u64 = [&](std::size_t at) {
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(bytes[at + i]) << (8 * i);
        return v;
    };
    auto write_u32 = [&](std::size_t at, std::uint32_t v) {
        for (int i = 0; i < 4; ++i)
            bytes[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
    };

    const std::uint32_t n_sections = read_u32(16);
    for (std::uint32_t e = 0; e < n_sections; ++e) {
        const std::size_t entry = 24 + 24 * e;
        if (read_u32(entry) != id)
            continue;
        const auto offset =
            static_cast<std::size_t>(read_u64(entry + 8));
        const auto length =
            static_cast<std::size_t>(read_u64(entry + 16));
        ASSERT_LE(offset_in_section + patch.size(), length);
        std::copy(patch.begin(), patch.end(),
                  bytes.begin() + offset + offset_in_section);
        write_u32(entry + 4,
                  crc32({bytes.data() + offset, length}));
        write_u32(20, crc32({bytes.data() + 24, 24u * n_sections}));
        return;
    }
    FAIL() << "section " << id << " not found";
}

std::vector<std::uint8_t>
u32Bytes(std::uint32_t v)
{
    std::vector<std::uint8_t> out;
    ByteWriter(out).u32(v);
    return out;
}

std::vector<std::uint8_t>
u64Bytes(std::uint64_t v)
{
    std::vector<std::uint8_t> out;
    ByteWriter(out).u64(v);
    return out;
}

std::vector<std::uint8_t>
f64Bytes(double v)
{
    std::vector<std::uint8_t> out;
    ByteWriter(out).f64(v);
    return out;
}

TEST(TraceFormat, RoundTripPreservesEveryField)
{
    const core::Dataset original = sampleDataset();
    const auto bytes = encodeTrace(original);
    const TraceLoadResult loaded = decodeTrace(bytes);
    ASSERT_TRUE(loaded.ok()) << loaded.error;
    ASSERT_EQ(loaded.dataset.size(), original.size());

    for (std::size_t i = 0; i < original.size(); ++i) {
        const core::JobRecord &a = original.records()[i];
        const core::JobRecord &b = loaded.dataset.records()[i];
        EXPECT_EQ(a.id, b.id);
        EXPECT_EQ(a.user, b.user);
        EXPECT_EQ(a.interface, b.interface);
        EXPECT_EQ(a.terminal, b.terminal);
        EXPECT_EQ(a.true_class, b.true_class);
        EXPECT_EQ(a.submit_time, b.submit_time);
        EXPECT_EQ(a.start_time, b.start_time);
        EXPECT_EQ(a.end_time, b.end_time);
        EXPECT_EQ(a.walltime_limit, b.walltime_limit);
        EXPECT_EQ(a.gpus, b.gpus);
        EXPECT_EQ(a.cpu_slots, b.cpu_slots);
        EXPECT_EQ(a.ram_gb, b.ram_gb);
        EXPECT_EQ(a.has_timeseries, b.has_timeseries);
        ASSERT_EQ(a.per_gpu.size(), b.per_gpu.size());
        for (std::size_t g = 0; g < a.per_gpu.size(); ++g) {
            for (int res = 0; res < num_resources; ++res) {
                const auto resource = static_cast<Resource>(res);
                const auto &sa = a.per_gpu[g].byResource(resource);
                const auto &sb = b.per_gpu[g].byResource(resource);
                EXPECT_EQ(sa.count(), sb.count());
                EXPECT_EQ(sa.mean(), sb.mean());
                EXPECT_EQ(sa.min(), sb.min());
                EXPECT_EQ(sa.max(), sb.max());
                EXPECT_EQ(sa.stddev(), sb.stddev());
            }
        }
        EXPECT_EQ(a.phases.active_fraction, b.phases.active_fraction);
        EXPECT_EQ(a.phases.active_intervals, b.phases.active_intervals);
        EXPECT_EQ(a.phases.idle_intervals, b.phases.idle_intervals);
        EXPECT_EQ(a.phases.active_sm_cov, b.phases.active_sm_cov);
    }
    EXPECT_EQ(contentDigest(original), contentDigest(loaded.dataset));
}

TEST(TraceFormat, EmptyDatasetRoundTrips)
{
    const core::Dataset empty;
    const auto bytes = encodeTrace(empty);
    const TraceLoadResult loaded = decodeTrace(bytes);
    ASSERT_TRUE(loaded.ok()) << loaded.error;
    EXPECT_TRUE(loaded.dataset.empty());
}

TEST(TraceFormat, CsvParsedDatasetRoundTripsBitExactly)
{
    // The CI round-trip gate in miniature: CSV -> Dataset -> binary ->
    // Dataset must preserve the content digest exactly, including the
    // fromMoments-reconstructed summaries the CSV loader produces.
    std::stringstream csv;
    sampleDataset().writeCsv(csv);
    const core::Dataset from_csv = core::loadDatasetCsv(csv);
    const TraceLoadResult loaded = decodeTrace(encodeTrace(from_csv));
    ASSERT_TRUE(loaded.ok()) << loaded.error;
    EXPECT_EQ(contentDigest(from_csv), contentDigest(loaded.dataset));
}

/**
 * The decoder's contract on a mutant of the sample trace: a rejection
 * carries no rows, a prefix or garbage never decodes, and an accepted
 * mutant (a flip in alignment padding, or trailing bytes) decodes to
 * the pristine content.
 */
void
traceOracle(const fuzz::Mutant &m)
{
    static const std::uint64_t pristine =
        contentDigest(decodeTrace(encodeTrace(sampleDataset())).dataset);
    const TraceLoadResult r = decodeTrace(m.span());
    if (!r.ok()) {
        EXPECT_TRUE(r.dataset.empty());
        return;
    }
    EXPECT_FALSE(m.prefix() || m.kind == fuzz::MutationKind::Garbage)
        << "accepted a " << m.bytes.size() << "-byte mutant";
    EXPECT_EQ(contentDigest(r.dataset), pristine)
        << "mutant silently changed content";
}

fuzz::MutationDriver
traceDriver(std::uint64_t seed)
{
    const auto trace = encodeTrace(sampleDataset());
    return {"aiwt", {trace.begin(), trace.end()}, seed};
}

TEST(TraceFormat, EveryTruncationRejectsCleanly)
{
    using enum fuzz::MutationKind;
    traceDriver(0x7a11).run({{EveryPrefix}, {Truncate, 200}}, traceOracle);
}

TEST(TraceFormat, BadMagicRejected)
{
    auto bytes = encodeTrace(sampleDataset());
    bytes[0] ^= 0xff;
    EXPECT_EQ(decodeTrace(bytes).status, TraceStatus::BadMagic);
}

TEST(TraceFormat, VersionSkewRejected)
{
    auto bytes = encodeTrace(sampleDataset());
    bytes[4] = 0x7f;  // version low byte
    EXPECT_EQ(decodeTrace(bytes).status, TraceStatus::VersionSkew);
}

TEST(TraceFormat, CorruptedSectionFailsItsCrc)
{
    auto bytes = encodeTrace(sampleDataset());
    // Flip one byte in the last section's payload (without re-CRCing).
    bytes[bytes.size() - 1] ^= 0x01;
    EXPECT_EQ(decodeTrace(bytes).status, TraceStatus::BadCrc);
}

TEST(TraceFormat, CorruptedDirectoryRejected)
{
    auto bytes = encodeTrace(sampleDataset());
    bytes[24] ^= 0x01;  // first directory entry's id field
    EXPECT_EQ(decodeTrace(bytes).status, TraceStatus::BadDirectory);
}

TEST(TraceFormat, OverlongRowCountRejected)
{
    // Claiming one extra row makes every column length wrong; the
    // decoder must notice before allocating anything row-sized.
    auto bytes = encodeTrace(sampleDataset());
    bytes[8] += 1;  // rows low byte
    EXPECT_EQ(decodeTrace(bytes).status, TraceStatus::Malformed);
}

TEST(TraceFormat, EnumOutOfRangeRejected)
{
    auto bytes = encodeTrace(sampleDataset());
    const std::vector<std::uint8_t> bad = {250};
    patchSection(bytes, 4 /* interface */, 0, bad);
    EXPECT_EQ(decodeTrace(bytes).status, TraceStatus::Malformed);
}

TEST(TraceFormat, NonFiniteTimeRejected)
{
    auto bytes = encodeTrace(sampleDataset());
    patchSection(bytes, 8 /* submit */, 0,
                 f64Bytes(std::numeric_limits<double>::quiet_NaN()));
    EXPECT_EQ(decodeTrace(bytes).status, TraceStatus::Malformed);
}

TEST(TraceFormat, BogusGpuOffsetsRejected)
{
    auto bytes = encodeTrace(sampleDataset());
    patchSection(bytes, 15 /* gpu_offsets */, 0, u64Bytes(1));
    EXPECT_EQ(decodeTrace(bytes).status, TraceStatus::Malformed);
}

TEST(TraceFormat, UserIndexOutOfTableRangeRejected)
{
    auto bytes = encodeTrace(sampleDataset());
    patchSection(bytes, 3 /* user_index */, 0, u32Bytes(0xffffu));
    EXPECT_EQ(decodeTrace(bytes).status, TraceStatus::Malformed);
}

TEST(TraceFormat, NonCanonicalUserTableRejected)
{
    // Duplicate the first user-table entry: CRCs check out, but
    // re-interning the rows can no longer reproduce the on-disk table.
    // (A pure permutation would not do — with the index column
    // unchanged it is just a consistent relabeling, which re-interns
    // canonically; a duplicate can never be an interning result.)
    auto bytes = encodeTrace(sampleDataset());
    std::vector<std::uint8_t> dup;
    {
        ByteWriter w(dup);
        w.u32(500);
        w.u32(500);
    }
    patchSection(bytes, 2 /* user_table */, 0, dup);
    EXPECT_EQ(decodeTrace(bytes).status, TraceStatus::Malformed);
}

TEST(TraceFormat, GpuCountAboveTheCeilingRejected)
{
    for (const std::uint32_t gpus :
         {core::max_gpus_per_job, core::max_gpus_per_job + 1}) {
        const core::Dataset one(
            {gpuRecord(1, 500, 60.0, static_cast<int>(gpus))});
        const TraceLoadResult r = decodeTrace(encodeTrace(one));
        EXPECT_EQ(r.status, gpus <= core::max_gpus_per_job
                                ? TraceStatus::Ok
                                : TraceStatus::Malformed)
            << gpus << " gpus";
    }
    // cpu_slots is stored as a u32; above INT_MAX it is no slot count.
    for (const std::uint32_t slots :
         {0x7fffffffu, 0x80000000u, 0xffffffffu}) {
        auto bytes = encodeTrace(sampleDataset());
        patchSection(bytes, 13 /* cpu_slots */, 0, u32Bytes(slots));
        EXPECT_EQ(decodeTrace(bytes).status, slots <= 0x7fffffffu
                                                 ? TraceStatus::Ok
                                                 : TraceStatus::Malformed)
            << slots << " cpu_slots";
    }
}

TEST(TraceFormat, CorruptGpuSummaryStateRejected)
{
    // A count==0 raw state with nonzero accumulators must not reach
    // RunningSummary::fromRawState (which would AIWC_CHECK-abort).
    auto bytes = encodeTrace(sampleDataset());
    std::vector<std::uint8_t> bad;
    {
        ByteWriter w(bad);
        w.u64(0);       // count
        w.f64(1.0);     // min, inconsistent with count == 0
    }
    patchSection(bytes, 16 /* gpu_stats */, 0, bad);
    EXPECT_EQ(decodeTrace(bytes).status, TraceStatus::Malformed);
}

TEST(TraceFormat, FuzzedBitFlipsNeverAbort)
{
    using enum fuzz::MutationKind;
    traceDriver(0x5eed).run(
        {{ByteReplace, 400}, {BitFlip, 400}, {Splice, 200}}, traceOracle);
}

TEST(TraceFormat, FuzzedRandomPrefixesNeverAbort)
{
    traceDriver(0xbadc0de)
        .garbage(511)
        .run({{fuzz::MutationKind::Garbage, 200}}, traceOracle);
}

TEST(TraceFormat, FileRoundTripThroughMmap)
{
    const std::string path =
        ::testing::TempDir() + "aiwc_trace_test.aiwt";
    const core::Dataset original = sampleDataset();
    std::string error;
    ASSERT_TRUE(writeTraceFile(path, original, &error)) << error;

    const MmapFile file = MmapFile::open(path);
    ASSERT_TRUE(file.valid()) << file.error();
    EXPECT_EQ(file.bytes().size(), encodeTrace(original).size());

    const TraceLoadResult loaded = loadTraceFile(path);
    ASSERT_TRUE(loaded.ok()) << loaded.error;
    EXPECT_EQ(contentDigest(loaded.dataset), contentDigest(original));
    std::remove(path.c_str());
}

TEST(TraceFormat, MissingFileIsIoError)
{
    const TraceLoadResult r =
        loadTraceFile("/nonexistent/dir/missing.aiwt");
    EXPECT_EQ(r.status, TraceStatus::IoError);
    EXPECT_FALSE(r.error.empty());
}

TEST(TraceFormat, SynthesizedStudyRoundTripsAtScale)
{
    workload::SynthesisOptions options;
    options.scale = 0.02;
    options.seed = 7;
    const auto profile = workload::CalibrationProfile::supercloud();
    const auto result =
        workload::TraceSynthesizer(profile, options).run();
    ASSERT_GT(result.dataset.size(), 100u);

    const TraceLoadResult loaded =
        decodeTrace(encodeTrace(result.dataset));
    ASSERT_TRUE(loaded.ok()) << loaded.error;
    EXPECT_EQ(contentDigest(loaded.dataset),
              contentDigest(result.dataset));
    EXPECT_EQ(loaded.dataset.uniqueUsers(),
              result.dataset.uniqueUsers());
    EXPECT_EQ(loaded.dataset.totalGpuHours(),
              result.dataset.totalGpuHours());
}

} // namespace
} // namespace aiwc::fmt
