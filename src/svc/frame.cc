#include "aiwc/svc/frame.hh"

#include <cmath>

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

/** Per-GPU summaries are six metrics of five doubles-or-counts. */
constexpr std::size_t gpu_summary_bytes = 6 * (8 + 4 * 8);

void
writeSummary(ByteWriter &w, const stats::RunningSummary &s)
{
    w.u64(s.count());
    w.f64(s.min());
    w.f64(s.mean());
    w.f64(s.max());
    w.f64(s.stddev());
}

/**
 * Read one RunningSummary worth of moments, validating everything
 * fromMoments AIWC_CHECKs — wire bytes must never reach a contract
 * abort. @return false on any violation.
 */
bool
readSummary(ByteReader &r, stats::RunningSummary &out)
{
    const std::uint64_t count = r.u64();
    const double min = r.f64();
    const double mean = r.f64();
    const double max = r.f64();
    const double stddev = r.f64();
    if (!r.ok())
        return false;
    if (!std::isfinite(min) || !std::isfinite(mean) ||
        !std::isfinite(max) || !std::isfinite(stddev))
        return false;
    if (!(min <= mean && mean <= max) || stddev < 0.0)
        return false;
    out = stats::RunningSummary::fromMoments(
        static_cast<std::size_t>(count), min, mean, max, stddev);
    return true;
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
    for (const core::GpuUsageSummary &gpu : rec.per_gpu) {
        writeSummary(w, gpu.sm);
        writeSummary(w, gpu.membw);
        writeSummary(w, gpu.memsize);
        writeSummary(w, gpu.pcie_tx);
        writeSummary(w, gpu.pcie_rx);
        writeSummary(w, gpu.power_watts);
    }
    if (rec.has_timeseries)
        core::writePhaseStats(w, rec.phases);
}

bool
readRecord(ByteReader &r, core::JobRecord &rec)
{
    rec.id = r.u32();
    rec.user = r.u32();
    const std::uint8_t interface = r.u8();
    const std::uint8_t terminal = r.u8();
    const std::uint8_t true_class = r.u8();
    const std::uint8_t has_timeseries = r.u8();
    rec.submit_time = r.f64();
    rec.start_time = r.f64();
    rec.end_time = r.f64();
    rec.walltime_limit = r.f64();
    const std::uint32_t gpus = r.u32();
    const std::uint32_t cpu_slots = r.u32();
    rec.ram_gb = r.f64();
    const std::uint16_t gpu_count = r.u16();
    if (!r.ok())
        return false;
    // Enum-range and numeric sanity: every rejected condition here
    // would otherwise surface later as a contract abort or a poisoned
    // sketch (the KLL rejects NaN samples with a DCHECK).
    if (interface >= num_interfaces || terminal >= num_terminal_states ||
        true_class >= num_lifecycles || has_timeseries > 1)
        return false;
    if (!std::isfinite(rec.submit_time) ||
        !std::isfinite(rec.start_time) ||
        !std::isfinite(rec.end_time) ||
        !std::isfinite(rec.walltime_limit) || !std::isfinite(rec.ram_gb))
        return false;
    if (gpu_count > core::max_gpus_per_job || gpus > core::max_gpus_per_job)
        return false;
    if (r.remaining() < gpu_count * gpu_summary_bytes)
        return false;
    rec.interface = static_cast<Interface>(interface);
    rec.terminal = static_cast<TerminalState>(terminal);
    rec.true_class = static_cast<Lifecycle>(true_class);
    rec.has_timeseries = has_timeseries == 1;
    rec.gpus = static_cast<int>(gpus);
    rec.cpu_slots = static_cast<int>(cpu_slots);
    rec.per_gpu.resize(gpu_count);
    for (core::GpuUsageSummary &gpu : rec.per_gpu) {
        if (!readSummary(r, gpu.sm) || !readSummary(r, gpu.membw) ||
            !readSummary(r, gpu.memsize) ||
            !readSummary(r, gpu.pcie_tx) ||
            !readSummary(r, gpu.pcie_rx) ||
            !readSummary(r, gpu.power_watts))
            return false;
    }
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

const char *
toString(DecodeStatus status)
{
    switch (status) {
      case DecodeStatus::Ok: return "ok";
      case DecodeStatus::NeedMoreData: return "need-more-data";
      case DecodeStatus::BadMagic: return "bad-magic";
      case DecodeStatus::VersionSkew: return "version-skew";
      case DecodeStatus::BadType: return "bad-type";
      case DecodeStatus::Oversized: return "oversized";
      case DecodeStatus::BadCrc: return "bad-crc";
      case DecodeStatus::Malformed: return "malformed";
    }
    return "unknown";
}

std::vector<std::uint8_t>
encodeJobBatch(std::uint64_t tenant,
               std::span<const core::JobRecord> records)
{
    AIWC_CHECK(records.size() <= 0xffffffffull,
               "job batch record count exceeds the u32 wire field");
    std::vector<std::uint8_t> payload;
    payload.reserve(records.size() * min_record_bytes + 4);
    {
        ByteWriter w(payload);
        w.u32(static_cast<std::uint32_t>(records.size()));
        for (const core::JobRecord &rec : records)
            writeRecord(w, rec);
    }
    AIWC_CHECK(payload.size() <= max_frame_payload,
               "encoded job batch exceeds max_frame_payload; ",
               "split the batch");

    std::vector<std::uint8_t> frame;
    frame.reserve(frame_header_bytes + payload.size());
    ByteWriter w(frame);
    writeHeader(w, FrameType::JobBatch, tenant,
                static_cast<std::uint32_t>(payload.size()),
                crc32(payload));
    frame.insert(frame.end(), payload.begin(), payload.end());
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
    if (!r.ok() ||
        count > payload.size() / (min_record_bytes > 0
                                      ? min_record_bytes
                                      : 1) + 1)
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
