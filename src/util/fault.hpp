// Seeded fault injection: the one place where a seed becomes a fault.
//
// Three layers inject faults: mpx (the in-process message transport),
// store (the on-disk artifact store) and serve (the request path). Each
// keeps only its coordinates (a message envelope, a (path, op) pair, a
// request tick), its stream ids and its effects. This header decides how a
// seeded spec turns into an injected fault:
//
//  * fault_hash      — a pure function of (seed, stream, coordinate words),
//                      so a seed reproduces exactly the same faults under
//                      any thread interleaving or replay order;
//  * check_fault_rates — the one rate check;
//  * fault_pick      — which band of a partition a draw lands in;
//  * CrashCounter    — the crash-at-op counter;
//  * InjectedCrash   — the one crash type.
//
// The chain is the splitmix64 finalizer folded over the coordinate words:
//
//   h = mix64(seed ^ stream * 0x9e3779b97f4a7c15)
//   for each word w:  h = mix64(h ^ w)
//
// tests/util_test.cpp pins the chain against an independent re-derivation
// and pins every layer's decision stream (FaultReplayTest).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>

#include "util/error.hpp"

namespace fv {

/// splitmix64 finalizer: full-avalanche 64-bit mix.
constexpr std::uint64_t fault_mix64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

/// The mixing chain: seed and stream select an independent decision
/// family, then each coordinate word is folded through one full mix.
constexpr std::uint64_t fault_hash(std::uint64_t seed, std::uint64_t stream,
                                   std::initializer_list<std::uint64_t> words)
    noexcept {
  std::uint64_t h = fault_mix64(seed ^ (stream * 0x9e3779b97f4a7c15ull));
  for (const std::uint64_t w : words) h = fault_mix64(h ^ w);
  return h;
}

/// Maps a fault_hash value onto a uniform draw in [0, 1) (53 mantissa bits,
/// the standard 2⁻⁵³ ladder).
constexpr double fault_uniform(std::uint64_t hash) noexcept {
  return static_cast<double>(hash >> 11) * 0x1.0p-53;
}

/// Checks the rates that share one draw: each must lie in [0, 1] and
/// together they must sum to at most 1. A rate with a draw of its own is a
/// partition of one. Throws fv::InvalidArgument naming `what` otherwise.
inline void check_fault_rates(std::initializer_list<double> partition,
                              const char* what) {
  double sum = 0.0;
  for (const double rate : partition) {
    FV_REQUIRE(rate >= 0.0 && rate <= 1.0,
               std::string(what) + ": each rate must lie in [0, 1]");
    sum += rate;
  }
  FV_REQUIRE(sum <= 1.0 + 1e-12,
             std::string(what) + ": rates that partition one draw must "
                                 "sum to at most 1");
}

/// The band the draw at (seed, stream, words) lands in: the bands are laid
/// end to end from 0 in order, so band i is hit with probability
/// bands[i]. Returns bands.size() when the draw lands past them all (no
/// fault).
inline std::size_t fault_pick(std::uint64_t seed, std::uint64_t stream,
                              std::initializer_list<std::uint64_t> words,
                              std::initializer_list<double> bands) noexcept {
  const double u = fault_uniform(fault_hash(seed, stream, words));
  double edge = 0.0;
  std::size_t band = 0;
  for (const double width : bands) {
    edge += width;
    if (u < edge) return band;
    ++band;
  }
  return band;
}

/// Thrown to simulate a process, or a cluster node, dying mid-operation:
/// the operation with index `op` never runs. Deliberately NOT an
/// fv::Error, nor a std::exception: code that recovers from errors must
/// not resurrect the dead. mpx::run_group swallows it (the rank's thread
/// exits silently, like a lost node), a store commit leaves the disk as it
/// was at the crash point, and AnalysisService fails the job.
struct InjectedCrash {
  std::uint64_t op = 0;  ///< 1-based index of the operation that never ran
};

/// Counts operations and crashes at one of them. Thread-safe: concurrent
/// callers each get a distinct op index.
class CrashCounter {
 public:
  /// `crash_at` is the 1-based op that crashes; 0 never crashes.
  explicit CrashCounter(std::uint64_t crash_at = 0) noexcept
      : crash_at_(crash_at) {}

  /// Counts one op and returns its 1-based index. At the crash point it
  /// bumps `crashes` and throws InjectedCrash instead.
  std::uint64_t count(std::atomic<std::uint64_t>& crashes) {
    const std::uint64_t op = ops_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (op == crash_at_) {
      crashes.fetch_add(1, std::memory_order_relaxed);
      throw InjectedCrash{op};
    }
    return op;
  }

  /// Ops counted so far.
  std::uint64_t ops() const noexcept {
    return ops_.load(std::memory_order_relaxed);
  }

 private:
  std::uint64_t crash_at_;
  std::atomic<std::uint64_t> ops_{0};
};

}  // namespace fv
