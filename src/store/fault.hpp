// Deterministic storage fault injection for the artifact store.
//
// The disk is the second unreliable medium this codebase models (mpx's
// fault injection covers the first, the network). A FaultInjector sits
// between the artifact store's commit protocol and the filesystem: every
// I/O operation (allocate, copy-into-mapping, sync, rename, directory sync)
// passes through one hook that counts the operation and draws on the
// seeded core (util/fault.hpp) at (seed, path, op index), so a given seed
// reproduces exactly the same torn writes, truncations, bit flips, ENOSPC
// failures and crash points on every run, regardless of thread
// interleaving.
//
// Fault model:
//  * torn write    — a copy persists only a prefix of its bytes (a lost
//                    sector write); the commit "succeeds", detection is
//                    the reader's checksum job.
//  * bit flip      — one byte of a copy is flipped (storage rot at write
//                    time); again the checksum's job.
//  * truncation    — a sync chops the file tail instead of flushing it
//                    (data lost while metadata survived a crash).
//  * ENOSPC        — an allocation fails; surfaces as fv::IoError and the
//                    commit aborts cleanly (tmp removed, old-or-none).
//  * crash-at-op-N — the N-th I/O operation never happens: InjectedCrash
//                    is thrown and deliberately NOT cleaned up after,
//                    leaving the on-disk state exactly as a killed process
//                    would.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "util/fault.hpp"

namespace fv::store {

struct FaultSpec {
  std::uint64_t seed = 0;       ///< reproducibility key for all decisions
  double torn_write_rate = 0.0;  ///< P(a copy persists only a prefix)
  double bitflip_rate = 0.0;     ///< P(one byte of a copy is flipped)
  double truncate_rate = 0.0;    ///< P(a sync truncates instead of flushing)
  double enospc_rate = 0.0;      ///< P(an allocation fails with ENOSPC)

  /// 1-based global I/O-operation index at which the process "dies"
  /// (InjectedCrash thrown before the op runs); <= 0 disables. Ops are
  /// counted across the whole injector, so a commit's ops are 1..M and a
  /// chaos test can crash at every point of the protocol.
  std::int64_t crash_at_op = -1;

  /// True when installing this spec would change any behavior.
  bool any() const noexcept {
    return torn_write_rate > 0.0 || bitflip_rate > 0.0 ||
           truncate_rate > 0.0 || enospc_rate > 0.0 || crash_at_op > 0;
  }
};

/// Counts of injected faults (relaxed atomics, same convention as
/// mpx::FaultStats).
struct FaultStats {
  std::atomic<std::uint64_t> torn_writes{0};
  std::atomic<std::uint64_t> bitflips{0};
  std::atomic<std::uint64_t> truncations{0};
  std::atomic<std::uint64_t> enospc{0};
  std::atomic<std::uint64_t> crashes{0};
};

class FaultInjector {
 public:
  /// Validates rates: torn + bitflip partition one copy draw (sum <= 1);
  /// truncate and enospc each in [0, 1].
  explicit FaultInjector(FaultSpec spec);

  const FaultSpec& spec() const noexcept { return spec_; }
  FaultStats& stats() const noexcept { return stats_; }
  /// Total I/O operations counted so far (chaos tests probe this after a
  /// clean run to enumerate every crash point of a protocol).
  std::uint64_t ops() const noexcept { return crash_.ops(); }

  /// One allocation op (file create / grow). Throws InjectedCrash at the
  /// crash point, fv::IoError on an injected ENOSPC.
  void on_allocate(const std::string& path, std::size_t bytes);

  /// One copy op: memcpy `n` bytes from `src` to `dst`, possibly torn
  /// (prefix only) or with one byte flipped, per the (seed, path, op)
  /// draw. Throws InjectedCrash at the crash point (nothing copied).
  void copy(const std::string& path, std::byte* dst, const std::byte* src,
            std::size_t n);

  /// One sync op for a file currently `bytes` long. Returns the size to
  /// truncate the file to INSTEAD of syncing (injected tail loss), or
  /// nullopt to sync normally. Throws InjectedCrash at the crash point.
  std::optional<std::size_t> on_sync(const std::string& path,
                                     std::size_t bytes);

  /// One metadata op (rename, directory sync, unlink): crash gate only.
  void on_op();

 private:
  FaultSpec spec_;
  mutable FaultStats stats_;
  CrashCounter crash_;
};

}  // namespace fv::store
