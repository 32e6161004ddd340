#include "store/artifact_store.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

namespace fv::store {

namespace {

/// Rounds a byte offset up to the 8-byte section alignment.
std::size_t align8(std::size_t bytes) { return (bytes + 7) & ~std::size_t{7}; }

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

bool file_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

void ensure_directory(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
    throw IoError("cannot create store directory '" + path +
                  "': " + std::strerror(errno));
  }
}

std::uint64_t header_checksum(const ArtifactHeader& header) {
  // The checksum seals everything above itself: the first 56 bytes.
  const auto bytes = std::as_bytes(
      std::span<const ArtifactHeader>(&header, 1));
  return xxhash64(bytes.first(offsetof(ArtifactHeader, header_checksum)));
}

/// Payload checksum for an on-demand open: hash in bounded chunks and drop
/// each chunk's pages behind the cursor, so validating an artifact larger
/// than RAM peaks at one chunk of residency instead of the whole payload.
/// Bit-identical to the one-shot xxhash64 of the same bytes.
std::uint64_t streamed_payload_checksum(const MappedFile& file,
                                        std::size_t payload_offset,
                                        std::size_t payload_bytes) {
  constexpr std::size_t kChunk = std::size_t{4} << 20;  // 4 MiB
  Xxh64Stream stream;
  for (std::size_t done = 0; done < payload_bytes;) {
    const std::size_t take = std::min(kChunk, payload_bytes - done);
    stream.update({file.data() + payload_offset + done, take});
    file.advise_dont_need(payload_offset + done, take);
    done += take;
  }
  return stream.digest();
}

/// Advisory cross-process writer lock on the store directory, held for one
/// commit. flock is per open-file-description: a fresh fd per commit means
/// release is exactly fd close, including during exception unwind, and a
/// crashed process's lock dies with its fds — no stale-lock recovery
/// needed. Within a process commit_mutex_ serializes first, so the
/// blocking LOCK_EX below never waits on its own process.
class DirectoryLock {
 public:
  explicit DirectoryLock(const std::string& directory) {
    fd_ = ::open(directory.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd_ < 0) {
      throw IoError("cannot open store directory '" + directory +
                    "' for locking: " + std::strerror(errno));
    }
    if (::flock(fd_, LOCK_EX) != 0) {
      const int saved = errno;
      ::close(fd_);
      throw IoError("cannot lock store directory '" + directory +
                    "': " + std::strerror(saved));
    }
  }
  ~DirectoryLock() {
    if (fd_ >= 0) ::close(fd_);
  }
  DirectoryLock(const DirectoryLock&) = delete;
  DirectoryLock& operator=(const DirectoryLock&) = delete;

 private:
  int fd_ = -1;
};

}  // namespace

const char* artifact_kind_name(ArtifactKind kind) {
  switch (kind) {
    case ArtifactKind::kEngine: return "engine";
    case ArtifactKind::kCondensedDistances: return "distances";
    case ArtifactKind::kLshIndex: return "lsh";
    case ArtifactKind::kBlob: return "blob";
  }
  return "unknown";
}

ArtifactReader open_artifact_file(const std::string& path,
                                  PageResidency residency) {
  ArtifactReader reader;
  reader.file_ = MappedFile::open_read_only(
      path, /*populate=*/residency == PageResidency::kPrefault);
  const MappedFile& file = reader.file_;
  if (file.size() < sizeof(ArtifactHeader)) {
    throw CorruptArtifactError("artifact '" + path +
                               "' is shorter than its 64-byte header");
  }
  ArtifactHeader header;
  std::memcpy(&header, file.data(), sizeof(header));
  if (std::memcmp(header.magic, kArtifactMagic, 8) != 0) {
    throw CorruptArtifactError("artifact '" + path +
                               "' has a foreign or damaged magic");
  }
  if (header.header_checksum != header_checksum(header)) {
    throw CorruptArtifactError("artifact '" + path +
                               "' fails its header checksum");
  }
  // Below here the header bytes are trusted — mismatches are semantic
  // (written by a different format), not bit rot.
  if (header.version != kArtifactFormatVersion) {
    throw StaleArtifactError(
        "artifact '" + path + "' has format version " +
        std::to_string(header.version) + ", reader expects " +
        std::to_string(kArtifactFormatVersion));
  }
  if (file.size() < sizeof(header) + header.payload_bytes) {
    throw CorruptArtifactError(
        "artifact '" + path + "' declares " +
        std::to_string(header.payload_bytes) + " payload bytes but the "
        "file holds fewer (truncated)");
  }
  const std::byte* payload = file.data() + sizeof(header);
  const auto payload_bytes = static_cast<std::size_t>(header.payload_bytes);
  const std::uint64_t payload_sum =
      residency == PageResidency::kOnDemand
          ? streamed_payload_checksum(file, sizeof(header), payload_bytes)
          : xxhash64({payload, payload_bytes});
  if (header.payload_checksum != payload_sum) {
    throw CorruptArtifactError("artifact '" + path +
                               "' fails its payload checksum");
  }
  // Rebuild section offsets from the length table at the payload head.
  const auto section_count = static_cast<std::size_t>(header.section_count);
  const std::size_t table_bytes = section_count * sizeof(std::uint64_t);
  if (header.payload_bytes < table_bytes) {
    throw CorruptArtifactError("artifact '" + path +
                               "' section table overruns its payload");
  }
  std::vector<std::uint64_t> lengths(section_count);
  std::memcpy(lengths.data(), payload, table_bytes);
  std::size_t offset = sizeof(header) + align8(table_bytes);
  const std::size_t end = sizeof(header) +
                          static_cast<std::size_t>(header.payload_bytes);
  reader.offsets_.reserve(section_count);
  for (std::size_t i = 0; i < section_count; ++i) {
    const auto len = static_cast<std::size_t>(lengths[i]);
    if (offset + len > end) {
      throw CorruptArtifactError("artifact '" + path + "' section " +
                                 std::to_string(i) +
                                 " overruns its payload");
    }
    reader.offsets_.emplace_back(offset, len);
    offset += align8(len);
  }
  reader.header_ = header;
  return reader;
}

ArtifactStore::ArtifactStore(std::string directory, FaultSpec faults)
    : directory_(std::move(directory)), faults_(faults) {
  ensure_directory(directory_);
}

std::string ArtifactStore::artifact_path(ArtifactKind kind,
                                         ArtifactKey key) const {
  return directory_ + "/" + artifact_kind_name(kind) + "-" + hex16(key) +
         kArtifactExtension;
}

bool ArtifactStore::contains(ArtifactKind kind, ArtifactKey key) const {
  return file_exists(artifact_path(kind, key));
}

void ArtifactStore::put(ArtifactKind kind, ArtifactKey key,
                        const std::function<void(ArtifactWriter&)>& fill) {
  ArtifactWriter writer;
  fill(writer);
  const auto& sections = writer.sections_;

  // Assemble the payload: section length table, then 8-byte-aligned
  // section bytes. Zero padding keeps checksums deterministic.
  std::vector<std::uint64_t> lengths;
  lengths.reserve(sections.size());
  std::size_t payload_bytes = align8(sections.size() * sizeof(std::uint64_t));
  for (const auto& s : sections) {
    lengths.push_back(s.size());
    payload_bytes += align8(s.size());
  }
  std::vector<std::byte> payload(payload_bytes, std::byte{0});
  std::memcpy(payload.data(), lengths.data(),
              lengths.size() * sizeof(std::uint64_t));
  std::size_t offset = align8(lengths.size() * sizeof(std::uint64_t));
  for (const auto& s : sections) {
    // An empty section's data() may be null, which memcpy must not see.
    if (!s.empty()) std::memcpy(payload.data() + offset, s.data(), s.size());
    offset += align8(s.size());
  }

  ArtifactHeader header{};
  std::memcpy(header.magic, kArtifactMagic, 8);
  header.version = kArtifactFormatVersion;
  header.kind = static_cast<std::uint32_t>(kind);
  header.key = key;
  header.payload_bytes = payload.size();
  header.payload_checksum = xxhash64(payload);
  header.section_count = sections.size();
  header.header_checksum = header_checksum(header);

  // Commit protocol — the write-side I/O ops in order, each a potential
  // crash point for the chaos suite:
  //   1 allocate tmp   2 copy header   3 copy payload
  //   4 sync tmp       5 rename onto final   6 sync directory
  // Interrupt anywhere and the final name still holds the old artifact or
  // nothing; only a stray .tmp can be left behind (fsck sweeps those).
  const std::string final_path = artifact_path(kind, key);
  const std::string tmp_path = final_path + ".tmp";
  const std::lock_guard<std::mutex> commit_lock(commit_mutex_);
  // Advisory cross-process exclusion: a second PROCESS committing into
  // this directory blocks here instead of racing the .tmp path (the
  // in-process mutex above cannot see it). Released on every exit path
  // when the lock's fd closes — including InjectedCrash unwind, matching
  // what the kernel does to a genuinely dead process's locks.
  const DirectoryLock dir_lock(directory_);
  try {
    MappedFile tmp = MappedFile::create(
        tmp_path, sizeof(header) + payload.size(), faults_);
    faults_.copy(tmp_path, tmp.data(),
                 reinterpret_cast<const std::byte*>(&header),
                 sizeof(header));
    faults_.copy(tmp_path, tmp.data() + sizeof(header), payload.data(),
                 payload.size());
    tmp.sync(faults_);
    tmp.close();
    MappedFile::atomic_rename(tmp_path, final_path, faults_);
    MappedFile::sync_directory(directory_, faults_);
  } catch (const Error&) {
    // Clean abort (ENOSPC, real I/O failure): drop the temporary and
    // rethrow. The final name is untouched. InjectedCrash deliberately
    // skips this handler — a dead process cleans up nothing.
    MappedFile::remove_quiet(tmp_path);
    throw;
  }
}

std::optional<ArtifactReader> ArtifactStore::open(
    ArtifactKind kind, ArtifactKey key, PageResidency residency) const {
  const std::string path = artifact_path(kind, key);
  if (!file_exists(path)) return std::nullopt;
  ArtifactReader reader = open_artifact_file(path, residency);
  if (reader.kind() != kind || reader.key() != key) {
    throw StaleArtifactError(
        "artifact '" + path + "' holds kind=" +
        std::to_string(static_cast<std::uint32_t>(reader.kind())) +
        " key=" + hex16(reader.key()) + ", not the requested kind=" +
        std::to_string(static_cast<std::uint32_t>(kind)) + " key=" +
        hex16(key) + " — the file is not what its name claims");
  }
  return reader;
}

void ArtifactStore::quarantine(ArtifactKind kind, ArtifactKey key) noexcept {
  const std::string path = artifact_path(kind, key);
  const std::string qdir = directory_ + "/quarantine";
  // Best effort throughout: quarantine runs inside recovery, and recovery
  // must never throw over the recompute that follows it.
  if (::mkdir(qdir.c_str(), 0755) != 0 && errno != EEXIST) {
    MappedFile::remove_quiet(path);
    stats_.quarantined.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::string dst = qdir + "/" + artifact_kind_name(kind) + "-" +
                          hex16(key) + kArtifactExtension;
  if (::rename(path.c_str(), dst.c_str()) != 0) {
    MappedFile::remove_quiet(path);
  }
  stats_.quarantined.fetch_add(1, std::memory_order_relaxed);
}

void ArtifactStore::remove(ArtifactKind kind, ArtifactKey key) noexcept {
  MappedFile::remove_quiet(artifact_path(kind, key));
}

namespace detail {

void log_artifact_recovery(const std::string& path, const char* verdict,
                           const char* why, const char* action) {
  std::fprintf(stderr, "[fv::store] %s artifact %s (%s); %s, recomputing\n",
               verdict, path.c_str(), why, action);
}

}  // namespace detail

}  // namespace fv::store
