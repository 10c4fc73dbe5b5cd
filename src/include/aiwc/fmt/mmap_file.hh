/**
 * @file
 * Read-only memory-mapped file with a buffered-read fallback.
 *
 * The trace loader wants the whole file as one contiguous byte span:
 * the format is offset-addressed (a section directory points into the
 * file), so mapping avoids a copy of what can be hundreds of
 * megabytes of columns. When mmap is unavailable (non-POSIX build,
 * or the map call fails) the file is read into an owned buffer
 * instead — callers see the same span either way.
 */

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace aiwc::fmt
{

/** An open read-only file presented as one contiguous byte span. */
class MmapFile
{
  public:
    /**
     * Map (or read) @p path. On failure the file is invalid and
     * error() holds a one-line reason. An empty file opens valid with
     * an empty span.
     */
    explicit MmapFile(const std::string &path);
    ~MmapFile();

    MmapFile(MmapFile &&) = delete;
    MmapFile &operator=(MmapFile &&) = delete;

    bool valid() const { return valid_; }
    const std::string &error() const { return error_; }

    /** The file contents; empty for an empty or invalid file. */
    std::span<const std::uint8_t> bytes() const { return bytes_; }

  private:
    std::span<const std::uint8_t> bytes_;
    void *map_addr_ = nullptr;   //!< non-null iff backed by mmap
    std::size_t map_len_ = 0;
    std::vector<std::uint8_t> owned_;  //!< fallback buffer
    bool valid_ = false;
    std::string error_;
};

} // namespace aiwc::fmt
