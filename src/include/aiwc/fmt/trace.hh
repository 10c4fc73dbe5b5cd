/**
 * @file
 * The on-disk binary trace format: a versioned, checksummed, columnar
 * snapshot of a study Dataset.
 *
 * CSV stays the interchange format; this is the working format. A
 * trace file is a fixed header, a CRC-protected section directory,
 * and one 8-byte-aligned section per column — the same
 * struct-of-arrays layout the in-memory ColumnTable uses, plus the
 * interned user and job-type id tables, per-GPU RunningSummary raw
 * accumulator states, and the phase stats of the time-series subset.
 *
 * Fidelity is bit-exact: doubles are stored as IEEE-754 bit patterns
 * and summaries as their raw accumulators (not derived moments), so
 * decode(encode(d)) reproduces every field of d exactly and a loaded
 * Dataset yields byte-identical analyzer output to the CSV-parsed
 * original (the determinism harness enforces this).
 *
 * The decoder is total over garbage: every length, offset, CRC, enum
 * and float is validated before use, and any violation degrades into
 * a TraceStatus verdict — never an abort, never UB. The reading
 * discipline (bounds-checked ByteReader, sticky failure, CRC at the
 * trust boundary) is shared with the svc wire format via
 * aiwc/common/binary.hh.
 *
 * Layout (all integers little-endian):
 *
 *   header (24 B): magic u32 | version u16 | flags u16 | rows u64 |
 *                  section_count u32 | directory_crc u32
 *   directory:     section_count x (id u32 | crc u32 | offset u64 |
 *                  length u64)
 *   sections:      each starting at an 8-byte-aligned offset
 *
 * Section ids (all required, in this order):
 *    1 job_id      u32[rows]        2 user_table  u32[users]
 *    3 user_index  u32[rows]        4 interface   u8[rows]
 *    5 terminal    u8[rows]         6 true_class  u8[rows]
 *    7 has_ts      u8[rows]         8 submit      f64[rows]
 *    9 start       f64[rows]       10 end         f64[rows]
 *   11 walltime    f64[rows]       12 gpus        u32[rows]
 *   13 cpu_slots   u32[rows]       14 ram_gb      f64[rows]
 *   15 gpu_offsets u64[rows + 1]   16 gpu_stats   40 B x 6 per GPU
 *   17 phases      stream          18 type_table  u32[types]
 *
 * gpu_stats holds, per flattened GPU (rows' GPUs concatenated in row
 * order), one core::writeGpuSummary block: six RunningSummary raw
 * states of (count u64, min f64, max f64, sum f64, sum_sq f64) in
 * Resource order. phases holds, for each has_ts row in row order, one
 * core::writePhaseStats block: active_fraction f64, three CoV f64,
 * then the active and idle interval lists each as (count u32,
 * f64 x count). Both blocks, and core::checkDecodedFields on each
 * row's scalars, are shared with the svc wire frames. Unknown section ids are ignored (forward compat);
 * breaking changes bump the version.
 */

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "aiwc/core/dataset.hh"

namespace aiwc::fmt
{

/** "AWCT" as a little-endian u32. */
inline constexpr std::uint32_t trace_magic = 0x54435741;

inline constexpr std::uint16_t trace_version = 1;

/** Decode verdict; everything but Ok leaves the dataset empty. */
enum class TraceStatus : std::uint8_t
{
    Ok,
    IoError,       //!< file missing / unreadable
    Truncated,     //!< shorter than its own header or directory
    BadMagic,      //!< not a trace file
    VersionSkew,   //!< newer (or older) incompatible version
    BadDirectory,  //!< directory CRC mismatch or bogus extents
    BadCrc,        //!< a section's payload fails its checksum
    Malformed,     //!< CRC-valid bytes that violate the schema
};

const char *toString(TraceStatus status);

/** Result of decoding a trace: a verdict plus the dataset on Ok. */
struct TraceLoadResult
{
    TraceStatus status = TraceStatus::IoError;
    core::Dataset dataset;
    std::string error;  //!< one-line reason when !ok()

    bool ok() const { return status == TraceStatus::Ok; }
};

/** Serialize @p dataset into trace-format bytes. */
std::vector<std::uint8_t> encodeTrace(const core::Dataset &dataset);

/** Decode trace bytes; total over arbitrary input. */
TraceLoadResult decodeTrace(std::span<const std::uint8_t> bytes);

/**
 * Write @p dataset to @p path in trace format.
 * @return false on I/O failure, with the reason in *error if given.
 */
bool writeTraceFile(const std::string &path,
                    const core::Dataset &dataset,
                    std::string *error = nullptr);

/** Memory-map (or read) @p path and decode it. */
TraceLoadResult loadTraceFile(const std::string &path);

/**
 * Order-sensitive FNV-1a digest of the dataset's canonical trace
 * encoding. Two datasets digest equal iff every record matches
 * bit-for-bit — the CI round-trip gate compares the CSV-parsed and
 * binary-loaded datasets with this.
 */
std::uint64_t contentDigest(const core::Dataset &dataset);

} // namespace aiwc::fmt
