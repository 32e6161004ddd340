// Crash-consistent, content-addressed artifact store.
//
// The expensive spine products — normalized compendium rows + missing
// bitmasks, condensed distance triangles, LSH signature banks, SPELL dot
// banks, rendered response bytes — are pure functions of (inputs,
// params). This store persists them keyed by a content hash of exactly
// that, so the thousandth process start reopens in milliseconds what the
// first one computed.
//
// Every artifact is one file:
//
//   [ ArtifactHeader, 64 bytes ]   magic, format version, kind, key,
//                                  payload byte count, XXH64 payload
//                                  checksum, section count, XXH64 header
//                                  checksum
//   [ section table ]              section_count x u64 byte lengths
//   [ sections ]                   raw bytes, each 8-byte aligned
//
// committed ONLY via write-tmp -> sync -> atomic-rename -> sync-dir, so a
// crash at any instant leaves either the old artifact or none — never a
// half-written file under the final name. Whatever the medium does to the
// bytes afterwards (torn writes, truncation, rot) is caught at open by
// the checksums and surfaces as typed fv::CorruptArtifactError /
// fv::StaleArtifactError, which the load_or_compute helper turns into the
// degradation ladder: quarantine -> recompute bit-identically -> re-persist
// (self-healing) -> serve. Wrong data is never served; the worst outcome
// of any storage fault is the cold-compute cost.
#pragma once

#include <atomic>
#include <cstddef>
#include <mutex>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "store/fault.hpp"
#include "store/mapped_file.hpp"
#include "util/error.hpp"
#include "util/xxhash.hpp"

namespace fv::store {

inline constexpr char kArtifactMagic[8] = {'F', 'V', 'A', 'R',
                                           'T', 'I', 'F', '1'};
inline constexpr std::uint32_t kArtifactFormatVersion = 1;
/// Extension of committed artifacts; in-flight temporaries add ".tmp".
inline constexpr const char* kArtifactExtension = ".fva";

/// What a persisted artifact holds. Part of the sealed header: opening an
/// artifact as the wrong kind is a typed StaleArtifactError, not garbage.
enum class ArtifactKind : std::uint32_t {
  kEngine = 1,              ///< full SimilarityEngine state (normalized
                            ///< rows, missing bitmasks, segment norms, …)
  kCondensedDistances = 2,  ///< condensed n(n-1)/2 distance triangle
  // 3 and 5 are retired (neighbor tables, merge lists); never reuse them.
  kLshIndex = 4,            ///< LSH signature bank + bucket tables
  kBlob = 6,                ///< untyped bytes (serve result cache, tests)
};

/// File-name stem of a kind ("engine", "distances", ...).
const char* artifact_kind_name(ArtifactKind kind);

/// Content-hash key: 64-bit XXH64 chain over (inputs, params).
using ArtifactKey = std::uint64_t;

/// Builds an ArtifactKey by chaining XXH64 over typed fields. Same fields
/// in the same order => same key, on every platform the store supports.
class KeyBuilder {
 public:
  KeyBuilder& bytes(std::span<const std::byte> data) {
    hash_ = xxhash64(data, hash_);
    return *this;
  }

  template <typename T>
  KeyBuilder& value(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    return bytes(std::as_bytes(std::span<const T>(&v, 1)));
  }

  template <typename T>
  KeyBuilder& span(std::span<const T> values) {
    static_assert(std::is_trivially_copyable_v<T>);
    // Fold the length first so ("ab","c") and ("a","bc") differ.
    value(static_cast<std::uint64_t>(values.size()));
    return bytes(std::as_bytes(values));
  }

  KeyBuilder& string(std::string_view s) {
    return span(std::span<const char>(s.data(), s.size()));
  }

  ArtifactKey key() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0x5eedf00dULL;
};

/// 64-byte sealed artifact header.
struct ArtifactHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t kind;
  std::uint64_t key;
  std::uint64_t payload_bytes;      ///< section table + sections
  std::uint64_t payload_checksum;   ///< XXH64 of the payload bytes
  std::uint64_t section_count;
  std::uint64_t reserved;           ///< zero
  std::uint64_t header_checksum;    ///< XXH64 of the 56 bytes above
};
static_assert(sizeof(ArtifactHeader) == 64);
static_assert(std::is_trivially_copyable_v<ArtifactHeader>);

/// Accumulates an artifact's sections before commit. Sections are opaque
/// byte runs, 8-byte aligned in the file; the typed span<> helpers are the
/// convention every codec uses.
class ArtifactWriter {
 public:
  void section_bytes(std::span<const std::byte> data) {
    sections_.emplace_back(data.begin(), data.end());
  }

  template <typename T>
  void section(std::span<const T> values) {
    static_assert(std::is_trivially_copyable_v<T>);
    static_assert(alignof(T) <= 8, "sections are 8-byte aligned");
    section_bytes(std::as_bytes(values));
  }

  template <typename T>
  void section(const std::vector<T>& values) {
    section(std::span<const T>(values));
  }

  template <typename T>
  void scalar(const T& v) {
    section(std::span<const T>(&v, 1));
  }

  std::size_t section_count() const noexcept { return sections_.size(); }

 private:
  friend class ArtifactStore;
  std::vector<std::vector<std::byte>> sections_;
};

/// How an artifact open treats page residency.
enum class PageResidency {
  /// Prefault the whole mapping and checksum it in one pass — the warm
  /// path for artifacts that will be copied out wholesale anyway.
  kPrefault,
  /// Map on demand and checksum in bounded chunks, releasing each chunk's
  /// pages after hashing: validation is still complete (every payload
  /// byte is hashed before any section is served) but peak residency is
  /// one chunk, not the artifact. The open mode behind every decoder
  /// that borrows (engine, LSH and SPELL codecs in store/cached.hpp).
  kOnDemand,
};

/// A validated, read-only view of one committed artifact. Sections are
/// spans directly over the mapping — zero copies; the reader owns the
/// mapping, so spans live as long as the reader.
class ArtifactReader {
 public:
  ArtifactKind kind() const noexcept {
    return static_cast<ArtifactKind>(header_.kind);
  }
  ArtifactKey key() const noexcept { return header_.key; }
  std::size_t section_count() const noexcept { return offsets_.size(); }
  std::size_t file_bytes() const noexcept { return file_.size(); }
  const std::string& path() const noexcept { return file_.path(); }

  std::span<const std::byte> section_bytes(std::size_t i) const {
    FV_REQUIRE(i < offsets_.size(), "artifact section index out of range");
    return {file_.data() + offsets_[i].first, offsets_[i].second};
  }

  template <typename T>
  std::span<const T> section(std::size_t i) const {
    static_assert(std::is_trivially_copyable_v<T>);
    static_assert(alignof(T) <= 8, "sections are 8-byte aligned");
    const auto bytes = section_bytes(i);
    if (bytes.size() % sizeof(T) != 0) {
      throw CorruptArtifactError(
          "artifact '" + file_.path() + "' section " + std::to_string(i) +
          " holds " + std::to_string(bytes.size()) + " bytes, not a "
          "multiple of the expected " + std::to_string(sizeof(T)) +
          "-byte element");
    }
    return {reinterpret_cast<const T*>(bytes.data()),
            bytes.size() / sizeof(T)};
  }

  template <typename T>
  T scalar(std::size_t i) const {
    const auto values = section<T>(i);
    if (values.size() != 1) {
      throw CorruptArtifactError("artifact '" + file_.path() +
                                 "' section " + std::to_string(i) +
                                 " is not a single scalar");
    }
    return values[0];
  }

  /// Re-validates the mapping's backing file: throws CorruptArtifactError
  /// if the file shrank after open (a foreign truncate), in which case a
  /// read of any span past the new EOF would be SIGBUS, not an exception.
  /// Borrowed-mapped engines and LSH indexes call this through their
  /// EngineStoragePin before every read phase that walks unfaulted pages.
  void check_backing() const {
    if (file_.disk_size() < file_.size()) {
      throw CorruptArtifactError(
          "artifact '" + file_.path() + "' shrank under its mapping (" +
          std::to_string(file_.disk_size()) + " bytes on disk, " +
          std::to_string(file_.size()) + " mapped) — the backing file was "
          "truncated after open");
    }
  }

  /// Drops clean pages of [data, data + bytes) from this process's
  /// resident set when the pointer lies inside this reader's mapping
  /// (madvise MADV_DONTNEED; refault on next touch). Pointers outside the
  /// mapping are ignored — a best-effort residency hint, never an error.
  void release_pages(const void* data, std::size_t bytes) const noexcept {
    const auto* p = static_cast<const std::byte*>(data);
    if (p < file_.data() || p >= file_.data() + file_.size()) return;
    file_.advise_dont_need(static_cast<std::size_t>(p - file_.data()),
                           bytes);
  }

 private:
  friend ArtifactReader open_artifact_file(const std::string& path,
                                           PageResidency residency);
  MappedFile file_;
  ArtifactHeader header_{};
  std::vector<std::pair<std::size_t, std::size_t>> offsets_;  ///< off, len
};

/// Opens and fully validates one artifact file: magic/header checksum ->
/// CorruptArtifactError, format version -> StaleArtifactError, payload
/// checksum / truncation / section-table overrun -> CorruptArtifactError.
/// Used by ArtifactStore::open and by fsck. kOnDemand performs the same
/// complete validation but streams the payload checksum in bounded chunks
/// (dropping each chunk's pages after hashing) so opening an artifact much
/// larger than RAM never faults the whole file resident.
ArtifactReader open_artifact_file(
    const std::string& path,
    PageResidency residency = PageResidency::kPrefault);

/// Counters of one store's lifetime (relaxed atomics).
struct StoreStats {
  std::atomic<std::uint64_t> warm_opens{0};   ///< valid artifact served
  std::atomic<std::uint64_t> recomputes{0};   ///< compute path taken
  std::atomic<std::uint64_t> corrupt{0};      ///< CorruptArtifactError seen
  std::atomic<std::uint64_t> stale{0};        ///< StaleArtifactError seen
  std::atomic<std::uint64_t> quarantined{0};  ///< files moved aside
  std::atomic<std::uint64_t> persists{0};     ///< successful commits
  std::atomic<std::uint64_t> persist_failures{0};  ///< commits that failed
};

class ArtifactStore {
 public:
  /// Opens (creating if needed) a store directory. The FaultSpec installs
  /// deterministic storage fault injection on every write-side I/O op;
  /// the default spec injects nothing.
  explicit ArtifactStore(std::string directory, FaultSpec faults = {});

  const std::string& directory() const noexcept { return directory_; }
  FaultInjector& faults() noexcept { return faults_; }
  StoreStats& stats() noexcept { return stats_; }

  /// Final path of (kind, key): <dir>/<kind>-<16-hex-key>.fva.
  std::string artifact_path(ArtifactKind kind, ArtifactKey key) const;

  bool contains(ArtifactKind kind, ArtifactKey key) const;

  /// Commits an artifact: `fill` provides the sections, then the bytes go
  /// through write-tmp -> sync -> atomic-rename -> sync-dir. On any
  /// fv::Error (injected ENOSPC, real I/O failure) the temporary is
  /// removed and the error rethrown — the store still holds the old
  /// artifact or none. InjectedCrash (simulated process death) is NOT
  /// cleaned up after, by design.
  ///
  /// Cross-process exclusion: each commit holds an advisory flock(2)
  /// LOCK_EX on the store directory for its duration, so two PROCESSES
  /// committing into the same directory serialize instead of interleaving
  /// on the shared .tmp path (within a process, commit_mutex_ serializes
  /// first — the flock never self-deadlocks). Readers take no lock; the
  /// rename-based protocol already guarantees they see old or new bytes,
  /// never a mix.
  void put(ArtifactKind kind, ArtifactKey key,
           const std::function<void(ArtifactWriter&)>& fill);

  /// Opens an artifact. nullopt when absent; CorruptArtifactError /
  /// StaleArtifactError when present but not trustworthy (see
  /// open_artifact_file); the header's kind and key must also match the
  /// request (else StaleArtifactError — the file is not what its name
  /// claims). kOnDemand opens validate identically but keep page
  /// residency bounded (out-of-core consumers).
  std::optional<ArtifactReader> open(
      ArtifactKind kind, ArtifactKey key,
      PageResidency residency = PageResidency::kPrefault) const;

  /// Moves a damaged artifact into <dir>/quarantine/ for post-mortem (the
  /// degradation path never deletes evidence). Best effort, never throws.
  void quarantine(ArtifactKind kind, ArtifactKey key) noexcept;

  /// Removes an artifact (stale files are safe to delete). Best effort.
  void remove(ArtifactKind kind, ArtifactKey key) noexcept;

 private:
  std::string directory_;
  FaultInjector faults_;
  mutable StoreStats stats_;
  /// Serializes commits within this process: concurrent puts of the same
  /// key would interleave on the shared .tmp path. Cross-process writers
  /// are the store's documented single-writer-per-directory assumption
  /// (README); readers are always safe — that is what the commit protocol
  /// guarantees.
  std::mutex commit_mutex_;
};

namespace detail {
/// One stderr line per recovery event; the degradation ladder never
/// degrades silently.
void log_artifact_recovery(const std::string& path, const char* verdict,
                           const char* why, const char* action);
}  // namespace detail

/// How a load_or_compute call was served.
struct OpenStats {
  bool warm = false;       ///< a valid artifact was served, no compute
  bool recovered = false;  ///< a damaged artifact was detected and healed
  bool persisted = false;  ///< the computed value was committed
};

/// The recompute-or-repair degradation ladder — the ONLY one: every cached
/// consumer, the engine open and the serving layer's result blobs go
/// through it.
///
///   1. open the artifact and hand the shared reader to `load` — valid ->
///      serve it (warm, milliseconds);
///   2. corrupt          -> quarantine, log, fall through;
///      stale            -> remove, log, fall through;
///      unreadable       -> log, fall through;
///   3. recompute from inputs (bit-identical to what a fresh process
///      computes — the artifact is pure function output);
///   4. re-persist best-effort (self-healing; a failed commit only costs
///      the next process the same recompute, never correctness).
///
/// The open's page residency follows from `kind`: engine and LSH artifacts
/// (engine, LSH and SPELL codecs) are decoded by borrowing spans for the
/// value's lifetime, so they open kOnDemand; every other kind is copied
/// out, so it opens kPrefault. `load` may throw CorruptArtifactError for
/// structural damage the checksums cannot see (a codec/meta mismatch);
/// that takes the corrupt rung too.
///
/// InjectedCrash propagates untouched: a simulated dead process must not
/// recover itself. Everything else ends in a correct value or a typed
/// fv::Error from the compute itself — never silently wrong data.
template <typename T>
T load_or_compute(
    ArtifactStore& store, ArtifactKind kind, ArtifactKey key,
    const std::function<T(std::shared_ptr<const ArtifactReader>)>& load,
    const std::function<T()>& compute,
    const std::function<void(ArtifactWriter&, const T&)>& save,
    OpenStats* open_stats = nullptr) {
  const PageResidency residency =
      kind == ArtifactKind::kEngine || kind == ArtifactKind::kLshIndex
          ? PageResidency::kOnDemand
          : PageResidency::kPrefault;
  bool recovered = false;
  try {
    if (auto reader = store.open(kind, key, residency)) {
      T value =
          load(std::make_shared<const ArtifactReader>(std::move(*reader)));
      store.stats().warm_opens.fetch_add(1, std::memory_order_relaxed);
      if (open_stats != nullptr) open_stats->warm = true;
      return value;
    }
  } catch (const CorruptArtifactError& error) {
    store.stats().corrupt.fetch_add(1, std::memory_order_relaxed);
    detail::log_artifact_recovery(store.artifact_path(kind, key),
                                  "corrupt", error.what(), "quarantined");
    store.quarantine(kind, key);
    recovered = true;
  } catch (const StaleArtifactError& error) {
    store.stats().stale.fetch_add(1, std::memory_order_relaxed);
    detail::log_artifact_recovery(store.artifact_path(kind, key), "stale",
                                  error.what(), "removed");
    store.remove(kind, key);
    recovered = true;
  } catch (const IoError& error) {
    detail::log_artifact_recovery(store.artifact_path(kind, key),
                                  "unreadable", error.what(), "ignored");
    recovered = true;
  }
  T value = compute();
  store.stats().recomputes.fetch_add(1, std::memory_order_relaxed);
  try {
    store.put(kind, key, [&](ArtifactWriter& w) { save(w, value); });
    store.stats().persists.fetch_add(1, std::memory_order_relaxed);
    if (open_stats != nullptr) open_stats->persisted = true;
  } catch (const Error& error) {
    store.stats().persist_failures.fetch_add(1, std::memory_order_relaxed);
    detail::log_artifact_recovery(store.artifact_path(kind, key),
                                  "persist-failed", error.what(),
                                  "serving computed value");
  }
  if (open_stats != nullptr) open_stats->recovered = recovered;
  return value;
}

}  // namespace fv::store
