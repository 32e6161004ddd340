#include "store/fault.hpp"

#include <cstring>

#include "util/xxhash.hpp"

namespace fv::store {

namespace {

// Decision streams: each fault family draws from an independent hash
// stream so e.g. raising the torn rate never changes which ops get bit
// flips. The mpx layer uses only stream 1, so the higher streams are free
// here.
constexpr std::uint64_t kStreamCopy = 11;      ///< torn/bitflip action draw
constexpr std::uint64_t kStreamTearLen = 12;   ///< torn prefix length
constexpr std::uint64_t kStreamFlipIdx = 13;   ///< flipped byte index
constexpr std::uint64_t kStreamSync = 14;      ///< truncate-instead-of-sync
constexpr std::uint64_t kStreamTruncLen = 15;  ///< truncated length
constexpr std::uint64_t kStreamAlloc = 16;     ///< ENOSPC draw

std::uint64_t path_hash(const std::string& path) {
  return xxhash64(std::as_bytes(std::span<const char>(path.data(),
                                                      path.size())));
}

}  // namespace

FaultInjector::FaultInjector(FaultSpec spec)
    : spec_(spec),
      crash_(spec.crash_at_op > 0
                 ? static_cast<std::uint64_t>(spec.crash_at_op)
                 : 0) {
  check_fault_rates({spec_.torn_write_rate, spec_.bitflip_rate},
                    "store torn + bitflip rates");
  check_fault_rates({spec_.truncate_rate}, "store truncate_rate");
  check_fault_rates({spec_.enospc_rate}, "store enospc_rate");
}

void FaultInjector::on_allocate(const std::string& path, std::size_t bytes) {
  const std::uint64_t op = crash_.count(stats_.crashes);
  if (fault_pick(spec_.seed, kStreamAlloc, {path_hash(path), op},
                 {spec_.enospc_rate}) == 0) {
    stats_.enospc.fetch_add(1, std::memory_order_relaxed);
    throw IoError("injected ENOSPC: cannot allocate " +
                  std::to_string(bytes) + " bytes for " + path);
  }
}

void FaultInjector::copy(const std::string& path, std::byte* dst,
                         const std::byte* src, std::size_t n) {
  const std::uint64_t op = crash_.count(stats_.crashes);
  if (n == 0) return;
  const std::uint64_t file = path_hash(path);
  switch (fault_pick(spec_.seed, kStreamCopy, {file, op},
                     {spec_.torn_write_rate, spec_.bitflip_rate})) {
    case 0:
      // Torn write: only a prefix of the bytes reach the medium. The
      // commit carries on believing it wrote everything — exactly the
      // failure a lost sector write produces — so detection is entirely
      // on the reader's checksum.
      std::memcpy(dst, src,
                  fault_hash(spec_.seed, kStreamTearLen, {file, op}) % n);
      stats_.torn_writes.fetch_add(1, std::memory_order_relaxed);
      return;
    case 1:
      std::memcpy(dst, src, n);
      dst[fault_hash(spec_.seed, kStreamFlipIdx, {file, op}) % n] ^=
          std::byte{0x20};
      stats_.bitflips.fetch_add(1, std::memory_order_relaxed);
      return;
    default:
      std::memcpy(dst, src, n);
  }
}

std::optional<std::size_t> FaultInjector::on_sync(const std::string& path,
                                                  std::size_t bytes) {
  const std::uint64_t op = crash_.count(stats_.crashes);
  const std::uint64_t file = path_hash(path);
  if (bytes > 0 && fault_pick(spec_.seed, kStreamSync, {file, op},
                              {spec_.truncate_rate}) == 0) {
    stats_.truncations.fetch_add(1, std::memory_order_relaxed);
    // Lose at least one byte of tail; metadata (the file) survives.
    return fault_hash(spec_.seed, kStreamTruncLen, {file, op}) % bytes;
  }
  return std::nullopt;
}

void FaultInjector::on_op() { crash_.count(stats_.crashes); }

}  // namespace fv::store
