// Memory-mapped file primitive: file-backed storage that opens in
// milliseconds because opening IS the mmap — no parse, no copy, and a
// read-only reopen shares pages with every other process mapping the same
// file.
//
// MappedFile owns one fd + one mapping. Writable mappings are created at
// their final size (the commit protocol's temporaries); read-only mappings
// are immutable views. Every write-side operation (create, sync, rename,
// directory sync) takes the store's FaultInjector and passes its hook;
// callers copy bytes into a mapping through FaultInjector::copy.
#pragma once

#include <cstddef>
#include <string>

#include "store/fault.hpp"
#include "util/error.hpp"

namespace fv::store {

class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile();

  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// Creates (truncating any existing file) a read-write file of `bytes`
  /// bytes, zero-filled, and maps it shared. `bytes` must be >= 1. The
  /// injector gates the allocation (ENOSPC / crash).
  static MappedFile create(const std::string& path, std::size_t bytes,
                           FaultInjector& faults);

  /// Maps an existing file read-only. A zero-length file yields a valid
  /// object with size() == 0 and no mapping (callers decide what an empty
  /// file means). Throws fv::IoError when the file cannot be opened.
  /// `populate` prefaults every page in one syscall (MAP_POPULATE) — right
  /// for whole-file streaming reads (checksum passes dominate open cost);
  /// pass false for out-of-core consumers whose resident set must stay a
  /// fraction of the file (pages then fault in on first touch only).
  static MappedFile open_read_only(const std::string& path,
                                   bool populate = true);

  bool is_open() const noexcept { return fd_ >= 0; }
  std::size_t size() const noexcept { return size_; }
  const std::string& path() const noexcept { return path_; }

  std::byte* data() noexcept { return data_; }
  const std::byte* data() const noexcept { return data_; }

  /// Flushes the mapping (msync) and the file (fsync) to the medium.
  /// Under an injected truncation fault the file is chopped instead —
  /// the caller believes its data is durable, the tail is gone.
  void sync(FaultInjector& faults);

  /// Unmaps and closes. Idempotent; the destructor calls it. Does NOT
  /// sync — writable callers that need durability sync first (the commit
  /// protocol does), which keeps "crash before sync" states reachable.
  void close() noexcept;

  /// The file's CURRENT on-disk byte count (fstat), as opposed to size(),
  /// which is the byte count sealed into the mapping at open time. A
  /// foreign truncate(2) makes disk_size() < size(); reading the mapping
  /// past the new EOF is then SIGBUS — out-of-core consumers compare the
  /// two before walking unfaulted pages (EngineStoragePin::check_backing).
  std::size_t disk_size() const;

  /// Hints that [offset, offset + bytes) of the mapping will not be read
  /// again soon (madvise MADV_DONTNEED): clean file-backed pages leave
  /// this process's resident set and refault from the page cache on the
  /// next touch. The range is shrunk inward to page boundaries — partial
  /// pages stay resident, so the hint can never discard bytes a
  /// neighboring consumer still reads. Best effort, never throws.
  void advise_dont_need(std::size_t offset, std::size_t bytes)
      const noexcept;

  /// Atomically replaces `to` with `from` (POSIX rename: readers of `to`
  /// see the old bytes or the new bytes, never a mix). The injector op
  /// gates the crash point.
  static void atomic_rename(const std::string& from, const std::string& to,
                            FaultInjector& faults);

  /// fsyncs a directory so a preceding rename survives power loss. The
  /// injector op gates the crash point.
  static void sync_directory(const std::string& directory,
                             FaultInjector& faults);

  /// Removes a file if it exists (best effort, never throws) — commit
  /// abort cleanup.
  static void remove_quiet(const std::string& path) noexcept;

 private:
  MappedFile(std::string path, int fd, std::byte* data, std::size_t size,
             bool read_only)
      : path_(std::move(path)), fd_(fd), data_(data), size_(size),
        read_only_(read_only) {}

  void map(std::size_t bytes, bool populate = true);

  std::string path_;
  int fd_ = -1;
  std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  bool read_only_ = true;
};

}  // namespace fv::store
