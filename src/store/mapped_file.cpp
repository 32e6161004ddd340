#include "store/mapped_file.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

namespace fv::store {

namespace {

[[noreturn]] void throw_errno(const std::string& what,
                              const std::string& path) {
  throw IoError(what + " '" + path + "': " + std::strerror(errno));
}

}  // namespace

MappedFile::~MappedFile() { close(); }

MappedFile::MappedFile(MappedFile&& other) noexcept
    : path_(std::move(other.path_)), fd_(other.fd_), data_(other.data_),
      size_(other.size_), read_only_(other.read_only_) {
  other.fd_ = -1;
  other.data_ = nullptr;
  other.size_ = 0;
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    close();
    path_ = std::move(other.path_);
    fd_ = other.fd_;
    data_ = other.data_;
    size_ = other.size_;
    read_only_ = other.read_only_;
    other.fd_ = -1;
    other.data_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

void MappedFile::map(std::size_t bytes, bool populate) {
  if (bytes == 0) {
    data_ = nullptr;
    size_ = 0;
    return;
  }
  // Populated read-only opens stream the whole payload (checksum pass),
  // so prefault the page tables in one syscall instead of taking a soft
  // fault per 4 KiB — on warm artifacts this is most of the open cost.
  // Out-of-core opens pass populate = false: their whole point is that
  // only the pages the tile schedule touches ever become resident.
  int flags = MAP_SHARED;
#ifdef MAP_POPULATE
  if (read_only_ && populate) flags |= MAP_POPULATE;
#else
  (void)populate;
#endif
  void* addr = ::mmap(nullptr, bytes,
                      read_only_ ? PROT_READ : PROT_READ | PROT_WRITE,
                      flags, fd_, 0);
  if (addr == MAP_FAILED) throw_errno("mmap failed for", path_);
  data_ = static_cast<std::byte*>(addr);
  size_ = bytes;
}

MappedFile MappedFile::create(const std::string& path, std::size_t bytes,
                              FaultInjector& faults) {
  FV_REQUIRE(bytes >= 1, "MappedFile::create needs at least one byte");
  faults.on_allocate(path, bytes);
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_RDWR, 0644);
  if (fd < 0) throw_errno("cannot create", path);
  if (::ftruncate(fd, static_cast<off_t>(bytes)) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("cannot size", path);
  }
  MappedFile file(path, fd, nullptr, 0, /*read_only=*/false);
  file.map(bytes);
  return file;
}

MappedFile MappedFile::open_read_only(const std::string& path,
                                      bool populate) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw_errno("cannot open", path);
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("cannot stat", path);
  }
  MappedFile file(path, fd, nullptr, 0, /*read_only=*/true);
  file.map(static_cast<std::size_t>(st.st_size), populate);
  return file;
}

std::size_t MappedFile::disk_size() const {
  FV_REQUIRE(is_open(), "disk_size needs an open file");
  struct stat st{};
  if (::fstat(fd_, &st) != 0) throw_errno("cannot stat", path_);
  return static_cast<std::size_t>(st.st_size);
}

void MappedFile::advise_dont_need(std::size_t offset,
                                  std::size_t bytes) const noexcept {
#ifdef MADV_DONTNEED
  if (data_ == nullptr || offset >= size_) return;
  bytes = std::min(bytes, size_ - offset);
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  // Shrink inward: releasing a partial page would also evict the bytes
  // sharing it that some other range still needs resident.
  const std::size_t begin = (offset + page - 1) & ~(page - 1);
  const std::size_t end = (offset + bytes) & ~(page - 1);
  if (end <= begin) return;
  ::madvise(data_ + begin, end - begin, MADV_DONTNEED);
#else
  (void)offset;
  (void)bytes;
#endif
}

void MappedFile::sync(FaultInjector& faults) {
  FV_REQUIRE(is_open(), "sync needs an open mapping");
  if (const auto cut = faults.on_sync(path_, size_); cut.has_value()) {
    // Injected tail loss: the medium kept only *cut bytes. Chop the file
    // (the next reader sees the short payload) but report success — the
    // writer must not learn its data is gone, that is the point.
    if (::ftruncate(fd_, static_cast<off_t>(*cut)) != 0) {
      throw_errno("cannot truncate", path_);
    }
    return;
  }
  if (data_ != nullptr && ::msync(data_, size_, MS_SYNC) != 0) {
    throw_errno("msync failed for", path_);
  }
  if (::fsync(fd_) != 0) throw_errno("fsync failed for", path_);
}

void MappedFile::close() noexcept {
  if (data_ != nullptr) {
    ::munmap(data_, size_);
    data_ = nullptr;
    size_ = 0;
  }
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void MappedFile::atomic_rename(const std::string& from, const std::string& to,
                               FaultInjector& faults) {
  faults.on_op();
  if (::rename(from.c_str(), to.c_str()) != 0) {
    throw_errno("cannot rename '" + from + "' onto", to);
  }
}

void MappedFile::sync_directory(const std::string& directory,
                                FaultInjector& faults) {
  faults.on_op();
  const int fd = ::open(directory.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) throw_errno("cannot open directory", directory);
  const int rc = ::fsync(fd);
  const int saved = errno;
  ::close(fd);
  if (rc != 0) {
    errno = saved;
    throw_errno("fsync failed for directory", directory);
  }
}

void MappedFile::remove_quiet(const std::string& path) noexcept {
  ::unlink(path.c_str());
}

}  // namespace fv::store
