#include "aiwc/fmt/mmap_file.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#define AIWC_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define AIWC_HAVE_MMAP 0
#endif

namespace aiwc::fmt
{

MmapFile::~MmapFile()
{
#if AIWC_HAVE_MMAP
    if (map_addr_ != nullptr)
        ::munmap(map_addr_, map_len_);
#endif
}

namespace
{

/** Whole-file read fallback (and the non-POSIX path). */
bool
readAll(const std::string &path, std::vector<std::uint8_t> &out,
        std::string &error)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
        error = path + ": " + std::strerror(errno);
        return false;
    }
    std::uint8_t buf[1 << 16];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        out.insert(out.end(), buf, buf + n);
    const bool ok = std::ferror(f) == 0;
    if (!ok)
        error = path + ": read error";
    std::fclose(f);
    return ok;
}

} // namespace

MmapFile::MmapFile(const std::string &path)
{
#if AIWC_HAVE_MMAP
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        error_ = path + ": " + std::strerror(errno);
        return;
    }
    struct stat st{};
    if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
        error_ = path + ": not a regular file";
        ::close(fd);
        return;
    }
    const auto len = static_cast<std::size_t>(st.st_size);
    if (len == 0) {
        ::close(fd);
        valid_ = true;  // empty file, empty span
        return;
    }
    void *addr = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);  // the mapping keeps its own reference
    if (addr != MAP_FAILED) {
        map_addr_ = addr;
        map_len_ = len;
        bytes_ = {static_cast<const std::uint8_t *>(addr), len};
        valid_ = true;
        return;
    }
#endif
    if (!readAll(path, owned_, error_))
        return;
    bytes_ = owned_;
    valid_ = true;
}

} // namespace aiwc::fmt
