#include "aiwc/svc/frame.hh"

#include "aiwc/base/check.hh"
#include "aiwc/common/binary.hh"
#include "aiwc/obs/metrics.hh"

namespace aiwc::svc
{

namespace
{

obs::Counter &
framesEncodedCounter()
{
    static obs::Counter &c =
        obs::MetricsRegistry::global().counter("aiwc.svc.frames_encoded");
    return c;
}

obs::Counter &
framesDecodedCounter()
{
    static obs::Counter &c =
        obs::MetricsRegistry::global().counter("aiwc.svc.frames_decoded");
    return c;
}

obs::Counter &
decodeRejectsCounter()
{
    static obs::Counter &c =
        obs::MetricsRegistry::global().counter("aiwc.svc.decode_rejects");
    return c;
}

/** Fixed per-record bytes before any variable-length section. */
constexpr std::size_t min_record_bytes =
    4 + 4 + 4 * 1 + 4 * 8 + 4 + 4 + 8 + 2;

/** Bytes writeRecord appends for @p rec. */
std::size_t
recordBytes(const core::JobRecord &rec)
{
    return min_record_bytes + rec.per_gpu.size() * core::gpu_summary_bytes +
           (rec.has_timeseries ? core::phaseStatsBytes(rec.phases) : 0);
}

void
writeRecord(ByteWriter &w, const core::JobRecord &rec)
{
    w.u32(rec.id);
    w.u32(rec.user);
    w.u8(static_cast<std::uint8_t>(rec.interface));
    w.u8(static_cast<std::uint8_t>(rec.terminal));
    w.u8(static_cast<std::uint8_t>(rec.true_class));
    w.u8(rec.has_timeseries ? 1 : 0);
    w.f64(rec.submit_time);
    w.f64(rec.start_time);
    w.f64(rec.end_time);
    w.f64(rec.walltime_limit);
    w.u32(static_cast<std::uint32_t>(rec.gpus));
    w.u32(static_cast<std::uint32_t>(rec.cpu_slots));
    w.f64(rec.ram_gb);
    w.u16(static_cast<std::uint16_t>(rec.per_gpu.size()));
    for (const core::GpuUsageSummary &gpu : rec.per_gpu)
        core::writeGpuSummary(w, gpu);
    if (rec.has_timeseries)
        core::writePhaseStats(w, rec.phases);
}

bool
readRecord(ByteReader &r, core::JobRecord &rec)
{
    rec.id = r.u32();
    rec.user = r.u32();
    rec.interface = static_cast<Interface>(r.u8());
    rec.terminal = static_cast<TerminalState>(r.u8());
    rec.true_class = static_cast<Lifecycle>(r.u8());
    const std::uint8_t has_timeseries = r.u8();
    rec.has_timeseries = has_timeseries == 1;
    rec.submit_time = r.f64();
    rec.start_time = r.f64();
    rec.end_time = r.f64();
    rec.walltime_limit = r.f64();
    rec.gpus = static_cast<int>(r.u32());
    rec.cpu_slots = static_cast<int>(r.u32());
    rec.ram_gb = r.f64();
    const std::uint16_t gpu_count = r.u16();
    if (!r.ok() ||
        core::checkDecodedFields(rec, has_timeseries, gpu_count) != nullptr)
        return false;
    rec.per_gpu.resize(gpu_count);
    for (core::GpuUsageSummary &gpu : rec.per_gpu)
        if (!core::readGpuSummary(r, gpu))
            return false;
    if (rec.has_timeseries && core::readPhaseStats(r, rec.phases) != nullptr)
        return false;
    return r.ok();
}

void
writeHeader(ByteWriter &w, FrameType type, std::uint64_t tenant,
            std::uint32_t payload_len, std::uint32_t payload_crc)
{
    w.u32(frame_magic);
    w.u16(frame_version);
    w.u16(static_cast<std::uint16_t>(type));
    w.u64(tenant);
    w.u32(payload_len);
    w.u32(payload_crc);
}

DecodedFrame
reject(DecodeStatus status, std::size_t consumed)
{
    decodeRejectsCounter().add(1);
    DecodedFrame frame;
    frame.status = status;
    frame.consumed = consumed;
    return frame;
}

} // namespace

std::vector<std::uint8_t>
encodeJobBatch(std::uint64_t tenant,
               std::span<const core::JobRecord> records)
{
    AIWC_CHECK(records.size() <= 0xffffffffull,
               "job batch record count exceeds the u32 wire field");
    std::size_t payload_len = 4;
    for (const core::JobRecord &rec : records)
        payload_len += recordBytes(rec);
    AIWC_CHECK(payload_len <= max_frame_payload,
               "encoded job batch exceeds max_frame_payload; ",
               "split the batch");

    // One exactly sized buffer: the header with a zero CRC, then the
    // payload, then the CRC (the header's last field, offset 20)
    // patched in place over the written payload.
    std::vector<std::uint8_t> frame;
    frame.reserve(frame_header_bytes + payload_len);
    ByteWriter w(frame);
    writeHeader(w, FrameType::JobBatch, tenant,
                static_cast<std::uint32_t>(payload_len), 0);
    w.u32(static_cast<std::uint32_t>(records.size()));
    for (const core::JobRecord &rec : records)
        writeRecord(w, rec);
    AIWC_CHECK_EQ(frame.size(), frame_header_bytes + payload_len,
                  "job batch encoded to a size other than computed");
    const std::uint32_t crc =
        crc32(std::span<const std::uint8_t>(frame).subspan(
            frame_header_bytes));
    for (std::size_t i = 0; i < 4; ++i)
        frame[frame_header_bytes - 4 + i] =
            static_cast<std::uint8_t>(crc >> (8 * i));
    framesEncodedCounter().add(1);
    return frame;
}

DecodedFrame
decodeFrame(std::span<const std::uint8_t> buffer)
{
    if (buffer.size() < frame_header_bytes) {
        DecodedFrame frame;  // not a reject: just an incomplete read
        return frame;
    }
    ByteReader header(buffer.first(frame_header_bytes));
    const std::uint32_t magic = header.u32();
    const std::uint16_t version = header.u16();
    const std::uint16_t type = header.u16();
    const std::uint64_t tenant = header.u64();
    const std::uint32_t payload_len = header.u32();
    const std::uint32_t payload_crc = header.u32();

    if (magic != frame_magic)
        return reject(DecodeStatus::BadMagic, 0);
    if (payload_len > max_frame_payload) {
        // The length prefix itself is untrustworthy: skipping by it
        // could jump anywhere. Connection-fatal, consumed 0.
        return reject(DecodeStatus::Oversized, 0);
    }
    const std::size_t total = frame_header_bytes + payload_len;
    if (buffer.size() < total) {
        DecodedFrame frame;
        return frame;
    }
    if (version != frame_version)
        return reject(DecodeStatus::VersionSkew, total);
    if (type != static_cast<std::uint16_t>(FrameType::JobBatch))
        return reject(DecodeStatus::BadType, total);

    const auto payload = buffer.subspan(frame_header_bytes, payload_len);
    if (crc32(payload) != payload_crc)
        return reject(DecodeStatus::BadCrc, total);

    ByteReader r(payload);
    const std::uint32_t count = r.u32();
    if (!r.ok() || count > payload.size() / min_record_bytes + 1)
        return reject(DecodeStatus::Malformed, total);

    DecodedFrame frame;
    frame.records.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        core::JobRecord rec;
        if (!readRecord(r, rec))
            return reject(DecodeStatus::Malformed, total);
        frame.records.push_back(std::move(rec));
    }
    if (!r.atEnd())  // trailing junk inside a CRC-valid payload
        return reject(DecodeStatus::Malformed, total);

    frame.status = DecodeStatus::Ok;
    frame.consumed = total;
    frame.tenant = tenant;
    framesDecodedCounter().add(1);
    return frame;
}

} // namespace aiwc::svc
