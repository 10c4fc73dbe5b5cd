#include "aiwc/fmt/trace.hh"

#include <algorithm>
#include <array>
#include <cstdio>

#include "aiwc/base/check.hh"
#include "aiwc/common/binary.hh"
#include "aiwc/fmt/mmap_file.hh"
#include "aiwc/obs/metrics.hh"

namespace aiwc::fmt
{

namespace
{

obs::Counter &
tracesEncodedCounter()
{
    static obs::Counter &c =
        obs::MetricsRegistry::global().counter("aiwc.fmt.traces_encoded");
    return c;
}

obs::Counter &
tracesDecodedCounter()
{
    static obs::Counter &c =
        obs::MetricsRegistry::global().counter("aiwc.fmt.traces_decoded");
    return c;
}

obs::Counter &
decodeRejectsCounter()
{
    static obs::Counter &c =
        obs::MetricsRegistry::global().counter("aiwc.fmt.decode_rejects");
    return c;
}

constexpr std::size_t header_bytes = 24;
constexpr std::size_t dir_entry_bytes = 24;
constexpr std::size_t section_count = 18;
constexpr std::size_t max_sections = 64;

/** Sanity ceiling on rows, far above any real trace. */
constexpr std::uint64_t max_rows = 1ull << 48;

enum SectionId : std::uint32_t
{
    sec_job_id = 1,
    sec_user_table = 2,
    sec_user_index = 3,
    sec_interface = 4,
    sec_terminal = 5,
    sec_true_class = 6,
    sec_has_ts = 7,
    sec_submit = 8,
    sec_start = 9,
    sec_end = 10,
    sec_walltime = 11,
    sec_gpus = 12,
    sec_cpu_slots = 13,
    sec_ram_gb = 14,
    sec_gpu_offsets = 15,
    sec_gpu_stats = 16,
    sec_phases = 17,
    sec_type_table = 18,
};

// --- encoding --------------------------------------------------------------

struct Section
{
    std::uint32_t id = 0;
    std::vector<std::uint8_t> bytes;
};

std::vector<Section>
buildSections(const core::Dataset &dataset)
{
    const auto &records = dataset.records();
    const core::ColumnTable &cols = dataset.columns();

    std::vector<Section> sections;
    sections.reserve(section_count);
    auto add = [&](std::uint32_t id) -> ByteWriter {
        sections.push_back({id, {}});
        return ByteWriter(sections.back().bytes);
    };
    // One section written by `put(writer, record)` for every record.
    auto column = [&](std::uint32_t id, auto put) {
        ByteWriter w = add(id);
        for (const core::JobRecord &r : records)
            put(w, r);
    };

    column(sec_job_id, [](auto &w, auto &r) { w.u32(r.id); });
    {
        ByteWriter w = add(sec_user_table);
        for (const std::uint32_t raw : cols.users().rawIds())
            w.u32(raw);
    }
    {
        ByteWriter w = add(sec_user_index);
        for (const std::uint32_t v : cols.userIndex())
            w.u32(v);
    }
    column(sec_interface, [](auto &w, auto &r) {
        w.u8(static_cast<std::uint8_t>(r.interface));
    });
    column(sec_terminal, [](auto &w, auto &r) {
        w.u8(static_cast<std::uint8_t>(r.terminal));
    });
    column(sec_true_class, [](auto &w, auto &r) {
        w.u8(static_cast<std::uint8_t>(r.true_class));
    });
    column(sec_has_ts, [](auto &w, auto &r) {
        w.u8(r.has_timeseries ? 1 : 0);
    });
    column(sec_submit, [](auto &w, auto &r) { w.f64(r.submit_time); });
    column(sec_start, [](auto &w, auto &r) { w.f64(r.start_time); });
    column(sec_end, [](auto &w, auto &r) { w.f64(r.end_time); });
    column(sec_walltime, [](auto &w, auto &r) { w.f64(r.walltime_limit); });
    column(sec_gpus, [](auto &w, auto &r) {
        w.u32(static_cast<std::uint32_t>(r.gpus));
    });
    column(sec_cpu_slots, [](auto &w, auto &r) {
        w.u32(static_cast<std::uint32_t>(r.cpu_slots));
    });
    column(sec_ram_gb, [](auto &w, auto &r) { w.f64(r.ram_gb); });
    {
        ByteWriter w = add(sec_gpu_offsets);
        std::uint64_t off = 0;
        w.u64(off);
        for (const core::JobRecord &r : records) {
            off += r.per_gpu.size();
            w.u64(off);
        }
    }
    column(sec_gpu_stats, [](auto &w, auto &r) {
        for (const core::GpuUsageSummary &gpu : r.per_gpu)
            core::writeGpuSummary(w, gpu);
    });
    column(sec_phases, [](auto &w, auto &r) {
        if (r.has_timeseries)
            core::writePhaseStats(w, r.phases);
    });
    {
        ByteWriter w = add(sec_type_table);
        for (const std::uint32_t raw : cols.jobTypes().rawIds())
            w.u32(raw);
    }
    return sections;
}

constexpr std::uint64_t
align8(std::uint64_t v)
{
    return (v + 7) & ~std::uint64_t{7};
}

// --- decoding --------------------------------------------------------------

TraceLoadResult
reject(TraceStatus status, std::string error)
{
    decodeRejectsCounter().add(1);
    TraceLoadResult result;
    result.status = status;
    result.error = std::move(error);
    return result;
}

/** Directory entry plus its resolved payload span. */
struct SectionView
{
    bool present = false;
    std::span<const std::uint8_t> bytes;
};

} // namespace

const char *
toString(TraceStatus status)
{
    switch (status) {
      case TraceStatus::Ok: return "ok";
      case TraceStatus::IoError: return "io-error";
      case TraceStatus::Truncated: return "truncated";
      case TraceStatus::BadMagic: return "bad-magic";
      case TraceStatus::VersionSkew: return "version-skew";
      case TraceStatus::BadDirectory: return "bad-directory";
      case TraceStatus::BadCrc: return "bad-crc";
      case TraceStatus::Malformed: return "malformed";
    }
    return "unknown";
}

std::vector<std::uint8_t>
encodeTrace(const core::Dataset &dataset)
{
    const std::vector<Section> sections = buildSections(dataset);
    AIWC_CHECK(sections.size() == section_count,
               "trace section list out of sync");

    // Lay the sections out after the directory, each 8-byte aligned.
    const std::uint64_t dir_end =
        header_bytes + dir_entry_bytes * sections.size();
    std::uint64_t cursor = align8(dir_end);
    std::vector<std::uint64_t> offsets;
    offsets.reserve(sections.size());
    for (const Section &s : sections) {
        offsets.push_back(cursor);
        cursor = align8(cursor + s.bytes.size());
    }

    std::vector<std::uint8_t> out;
    out.reserve(cursor);
    std::vector<std::uint8_t> directory;
    directory.reserve(dir_entry_bytes * sections.size());
    {
        ByteWriter w(directory);
        for (std::size_t i = 0; i < sections.size(); ++i) {
            w.u32(sections[i].id);
            w.u32(crc32(sections[i].bytes));
            w.u64(offsets[i]);
            w.u64(sections[i].bytes.size());
        }
    }
    {
        ByteWriter w(out);
        w.u32(trace_magic);
        w.u16(trace_version);
        w.u16(0);  // flags, reserved
        w.u64(dataset.size());
        w.u32(static_cast<std::uint32_t>(sections.size()));
        w.u32(crc32(directory));
    }
    out.insert(out.end(), directory.begin(), directory.end());
    for (std::size_t i = 0; i < sections.size(); ++i) {
        out.resize(offsets[i], 0);  // alignment padding
        out.insert(out.end(), sections[i].bytes.begin(),
                   sections[i].bytes.end());
    }
    tracesEncodedCounter().add(1);
    return out;
}

TraceLoadResult
decodeTrace(std::span<const std::uint8_t> bytes)
{
    if (bytes.size() < header_bytes)
        return reject(TraceStatus::Truncated,
                      "shorter than the trace header");
    ByteReader header(bytes.first(header_bytes));
    const std::uint32_t magic = header.u32();
    const std::uint16_t version = header.u16();
    const std::uint16_t flags = header.u16();
    const std::uint64_t rows64 = header.u64();
    const std::uint32_t n_sections = header.u32();
    const std::uint32_t dir_crc = header.u32();

    if (magic != trace_magic)
        return reject(TraceStatus::BadMagic, "not a trace file");
    if (version != trace_version)
        return reject(TraceStatus::VersionSkew,
                      "unsupported trace version " +
                          std::to_string(version));
    if (flags != 0)
        return reject(TraceStatus::Malformed, "reserved flags set");
    if (n_sections < section_count || n_sections > max_sections)
        return reject(TraceStatus::Malformed, "bogus section count");
    if (rows64 > max_rows)
        return reject(TraceStatus::Malformed, "bogus row count");
    const auto rows = static_cast<std::size_t>(rows64);

    const std::uint64_t dir_len =
        static_cast<std::uint64_t>(dir_entry_bytes) * n_sections;
    if (bytes.size() < header_bytes + dir_len)
        return reject(TraceStatus::Truncated, "truncated directory");
    const auto directory = bytes.subspan(header_bytes,
                                         static_cast<std::size_t>(dir_len));
    if (crc32(directory) != dir_crc)
        return reject(TraceStatus::BadDirectory, "directory crc mismatch");

    // Resolve the directory: known ids must appear exactly once and
    // lie fully after the directory; unknown ids are skipped.
    std::array<SectionView, section_count + 1> secs{};
    std::array<std::uint32_t, section_count + 1> sec_crcs{};
    ByteReader dir(directory);
    for (std::uint32_t i = 0; i < n_sections; ++i) {
        const std::uint32_t id = dir.u32();
        const std::uint32_t crc = dir.u32();
        const std::uint64_t offset = dir.u64();
        const std::uint64_t length = dir.u64();
        if (offset < header_bytes + dir_len || offset > bytes.size() ||
            length > bytes.size() - offset)
            return reject(TraceStatus::BadDirectory,
                          "section extent outside the file");
        if (id == 0 || id > section_count)
            continue;  // forward compat: ignore unknown sections
        if (secs[id].present)
            return reject(TraceStatus::Malformed,
                          "duplicate section id " + std::to_string(id));
        secs[id].present = true;
        secs[id].bytes = bytes.subspan(static_cast<std::size_t>(offset),
                                       static_cast<std::size_t>(length));
        sec_crcs[id] = crc;
    }
    for (std::uint32_t id = 1; id <= section_count; ++id) {
        if (!secs[id].present)
            return reject(TraceStatus::Malformed,
                          "missing section id " + std::to_string(id));
        if (crc32(secs[id].bytes) != sec_crcs[id])
            return reject(TraceStatus::BadCrc,
                          "section " + std::to_string(id) +
                              " crc mismatch");
    }

    // Column lengths must match the row count exactly.
    auto expect = [&](SectionId id, std::uint64_t want) {
        return secs[id].bytes.size() == want;
    };
    const std::uint64_t n = rows;
    if (!expect(sec_job_id, n * 4) || !expect(sec_user_index, n * 4) ||
        !expect(sec_interface, n) || !expect(sec_terminal, n) ||
        !expect(sec_true_class, n) || !expect(sec_has_ts, n) ||
        !expect(sec_submit, n * 8) || !expect(sec_start, n * 8) ||
        !expect(sec_end, n * 8) || !expect(sec_walltime, n * 8) ||
        !expect(sec_gpus, n * 4) || !expect(sec_cpu_slots, n * 4) ||
        !expect(sec_ram_gb, n * 8) ||
        !expect(sec_gpu_offsets, (n + 1) * 8))
        return reject(TraceStatus::Malformed, "column length mismatch");
    if (secs[sec_user_table].bytes.size() % 4 != 0 ||
        secs[sec_type_table].bytes.size() % 4 != 0 ||
        secs[sec_gpu_stats].bytes.size() % core::gpu_summary_bytes != 0)
        return reject(TraceStatus::Malformed, "ragged table section");

    const std::size_t n_users = secs[sec_user_table].bytes.size() / 4;
    const std::size_t n_types = secs[sec_type_table].bytes.size() / 4;
    const std::uint64_t n_gpu_stats =
        secs[sec_gpu_stats].bytes.size() / core::gpu_summary_bytes;
    if ((rows == 0 && (n_users != 0 || n_types != 0)) || n_users > rows ||
        n_types > rows)
        return reject(TraceStatus::Malformed, "oversized id table");

    std::vector<std::uint32_t> user_table(n_users);
    {
        ByteReader r(secs[sec_user_table].bytes);
        for (std::uint32_t &v : user_table)
            v = r.u32();
    }
    std::vector<std::uint32_t> type_table(n_types);
    {
        ByteReader r(secs[sec_type_table].bytes);
        for (std::uint32_t &v : type_table)
            v = r.u32();
    }

    ByteReader job_id(secs[sec_job_id].bytes);
    ByteReader user_index(secs[sec_user_index].bytes);
    ByteReader iface(secs[sec_interface].bytes);
    ByteReader terminal(secs[sec_terminal].bytes);
    ByteReader true_class(secs[sec_true_class].bytes);
    ByteReader has_ts(secs[sec_has_ts].bytes);
    ByteReader submit(secs[sec_submit].bytes);
    ByteReader start(secs[sec_start].bytes);
    ByteReader end(secs[sec_end].bytes);
    ByteReader walltime(secs[sec_walltime].bytes);
    ByteReader gpus(secs[sec_gpus].bytes);
    ByteReader cpu_slots(secs[sec_cpu_slots].bytes);
    ByteReader ram_gb(secs[sec_ram_gb].bytes);
    ByteReader gpu_offsets(secs[sec_gpu_offsets].bytes);
    ByteReader gpu_stats(secs[sec_gpu_stats].bytes);
    ByteReader phases(secs[sec_phases].bytes);

    std::vector<core::JobRecord> records;
    records.reserve(rows);
    std::uint64_t prev_off = gpu_offsets.u64();
    if (prev_off != 0)
        return reject(TraceStatus::Malformed,
                      "gpu_offsets must start at zero");
    for (std::size_t i = 0; i < rows; ++i) {
        core::JobRecord rec;
        rec.id = job_id.u32();
        const std::uint32_t uidx = user_index.u32();
        rec.interface = static_cast<Interface>(iface.u8());
        rec.terminal = static_cast<TerminalState>(terminal.u8());
        rec.true_class = static_cast<Lifecycle>(true_class.u8());
        const std::uint8_t ts_v = has_ts.u8();
        rec.has_timeseries = ts_v == 1;
        rec.submit_time = submit.f64();
        rec.start_time = start.f64();
        rec.end_time = end.f64();
        rec.walltime_limit = walltime.f64();
        rec.gpus = static_cast<int>(gpus.u32());
        rec.cpu_slots = static_cast<int>(cpu_slots.u32());
        rec.ram_gb = ram_gb.f64();
        const std::uint64_t gpu_end = gpu_offsets.u64();

        if (uidx >= n_users)
            return reject(TraceStatus::Malformed,
                          "user index out of table range");
        rec.user = user_table[uidx];
        if (gpu_end < prev_off || gpu_end > n_gpu_stats)
            return reject(TraceStatus::Malformed, "bogus gpu_offsets");
        if (const char *why =
                core::checkDecodedFields(rec, ts_v, gpu_end - prev_off))
            return reject(TraceStatus::Malformed, why);

        rec.per_gpu.resize(static_cast<std::size_t>(gpu_end - prev_off));
        for (core::GpuUsageSummary &gpu : rec.per_gpu)
            if (!core::readGpuSummary(gpu_stats, gpu))
                return reject(TraceStatus::Malformed,
                              "invalid gpu summary state");
        prev_off = gpu_end;

        if (rec.has_timeseries) {
            if (const char *why = core::readPhaseStats(phases, rec.phases))
                return reject(TraceStatus::Malformed, why);
        }
        records.push_back(std::move(rec));
    }

    if (prev_off != n_gpu_stats || !gpu_stats.atEnd())
        return reject(TraceStatus::Malformed,
                      "gpu stats not fully consumed");
    if (!phases.atEnd())
        return reject(TraceStatus::Malformed,
                      "trailing bytes in phases section");

    TraceLoadResult result;
    result.dataset = core::Dataset(std::move(records));

    // The on-disk id tables must be canonical: exactly what interning
    // the rows reproduces. This rejects shuffled or padded tables (and
    // any duplicate raw ids) without ever trusting them.
    const core::ColumnTable &cols = result.dataset.columns();
    const auto users = cols.users().rawIds();
    const auto types = cols.jobTypes().rawIds();
    if (!std::equal(users.begin(), users.end(), user_table.begin(),
                    user_table.end()) ||
        !std::equal(types.begin(), types.end(), type_table.begin(),
                    type_table.end()))
        return reject(TraceStatus::Malformed, "non-canonical id table");

    result.status = TraceStatus::Ok;
    tracesDecodedCounter().add(1);
    return result;
}

bool
writeTraceFile(const std::string &path, const core::Dataset &dataset,
               std::string *error)
{
    const std::vector<std::uint8_t> bytes = encodeTrace(dataset);
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
        if (error != nullptr)
            *error = path + ": cannot open for writing";
        return false;
    }
    const std::size_t written =
        bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), f);
    const bool ok = written == bytes.size() && std::fclose(f) == 0;
    if (!ok && error != nullptr)
        *error = path + ": short write";
    return ok;
}

TraceLoadResult
loadTraceFile(const std::string &path)
{
    const MmapFile file = MmapFile::open(path);
    if (!file.valid()) {
        TraceLoadResult result;
        result.status = TraceStatus::IoError;
        result.error = file.error();
        return result;
    }
    return decodeTrace(file.bytes());
}

std::uint64_t
contentDigest(const core::Dataset &dataset)
{
    // FNV-1a over the canonical encoding: any bit of any field moves
    // the digest.
    const std::vector<std::uint8_t> bytes = encodeTrace(dataset);
    std::uint64_t h = 14695981039346656037ull;
    for (const std::uint8_t b : bytes) {
        h ^= b;
        h *= 1099511628211ull;
    }
    return h;
}

} // namespace aiwc::fmt
