// Deterministic fault injection for the mpx transport.
//
// A FaultPlan is installed per GroupState (zero cost when absent: one null
// pointer check per send) and consulted by Comm at every message delivery.
// Decisions are a pure hash of (seed, source, dest, tag, sequence), so a
// given seed reproduces exactly the same set of dropped / delayed /
// duplicated / corrupted messages regardless of thread interleaving — every
// failure mode the chaos suite exercises is replayable. The one stateful
// fault, crash-rank-at-op-N, counts each rank's mpx operations on the rank's
// own thread, which is equally deterministic.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include "util/error.hpp"

namespace fv::mpx {

/// What happens to one message at delivery time. Actions are mutually
/// exclusive per message (one draw decides).
enum class FaultAction : std::uint8_t {
  kNone,
  kDrop,       ///< message silently discarded at the sender
  kDelay,      ///< sender sleeps spec.delay before delivering (FIFO kept)
  kDuplicate,  ///< message delivered twice with the same sequence number
  kCorrupt,    ///< one payload byte flipped; checksum left stale
};

struct FaultSpec {
  std::uint64_t seed = 0;       ///< reproducibility key for all decisions
  double drop_rate = 0.0;       ///< P(message dropped)
  double delay_rate = 0.0;      ///< P(message delayed by `delay`)
  double duplicate_rate = 0.0;  ///< P(message delivered twice)
  double corrupt_rate = 0.0;    ///< P(one payload byte flipped)
  std::chrono::milliseconds delay{5};  ///< sleep applied to delayed messages

  /// Rank that "crashes" (its thread exits silently, as a lost cluster node
  /// would) at its crash_at_op-th mpx operation; -1 disables.
  int crash_rank = -1;
  std::uint64_t crash_at_op = 1;  ///< 1-based op index on crash_rank

  /// Tags never faulted — control traffic (e.g. the wall's shutdown
  /// message) that must stay reliable for bounded termination.
  std::vector<int> exempt_tags;

  /// True when installing this spec would change any behavior.
  bool any() const noexcept {
    return drop_rate > 0.0 || delay_rate > 0.0 || duplicate_rate > 0.0 ||
           corrupt_rate > 0.0 || crash_rank >= 0;
  }
};

/// Counts of injected faults (relaxed atomics; read them after run_group
/// joins, or accept approximate values mid-flight).
struct FaultStats {
  std::atomic<std::uint64_t> dropped{0};
  std::atomic<std::uint64_t> delayed{0};
  std::atomic<std::uint64_t> duplicated{0};
  std::atomic<std::uint64_t> corrupted{0};
  std::atomic<std::uint64_t> crashes{0};
};

class FaultPlan {
 public:
  /// Validates rates: each in [0, 1] and their sum at most 1 (one uniform
  /// draw is partitioned across the four actions).
  explicit FaultPlan(FaultSpec spec);

  const FaultSpec& spec() const noexcept { return spec_; }
  FaultStats& stats() const noexcept { return stats_; }

  /// Deterministic decision for the message identified by its envelope
  /// coordinates. Exempt tags always get kNone.
  FaultAction decide(int source, int dest, int tag,
                     std::uint64_t sequence) const;

  /// Deterministic payload byte index to flip for a kCorrupt decision.
  std::size_t corrupt_index(std::uint64_t sequence,
                            std::size_t payload_size) const;

  /// True when `op` (1-based, counted per rank on the rank's own thread) is
  /// `rank`'s configured crash point.
  bool crash_now(int rank, std::uint64_t op) const noexcept {
    return rank == spec_.crash_rank && op == spec_.crash_at_op;
  }

 private:
  FaultSpec spec_;
  mutable FaultStats stats_;
};

/// Thrown by the fault hook to simulate a node dying mid-operation.
/// Deliberately NOT an fv::Error: application code catching fv::Error must
/// not resurrect a crashed rank. run_group swallows it — the rank's thread
/// exits silently without aborting the group, exactly like a lost cluster
/// node; surviving ranks only notice through their own deadlines.
struct RankCrashed {
  int rank = -1;
};

}  // namespace fv::mpx
