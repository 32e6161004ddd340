// Deterministic fault injection for the mpx transport.
//
// A FaultSpec is installed per GroupState (zero cost when absent: one null
// pointer check per mpx op) and consulted by Comm at every message
// delivery. The seeded core (util/fault.hpp) turns the spec into faults:
// each message's action is a pure draw at (seed, source, dest, tag,
// sequence), so a given seed reproduces exactly the same set of dropped /
// delayed / duplicated / corrupted messages regardless of thread
// interleaving — every failure mode the chaos suite exercises is
// replayable. The one stateful fault, crash-rank-at-op-N, counts each
// rank's mpx operations on the rank's own thread, which is equally
// deterministic, and throws fv::InjectedCrash.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include "util/fault.hpp"

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

/// The action for the message identified by its envelope: one draw on
/// stream 1 over the envelope packed into two words, partitioned across
/// drop, delay, duplicate and corrupt in that order. Exempt tags always
/// get kNone.
inline FaultAction decide(const FaultSpec& spec, int source, int dest,
                          int tag, std::uint64_t sequence) {
  if (std::find(spec.exempt_tags.begin(), spec.exempt_tags.end(), tag) !=
      spec.exempt_tags.end()) {
    return FaultAction::kNone;
  }
  constexpr FaultAction kBands[] = {FaultAction::kDrop, FaultAction::kDelay,
                                    FaultAction::kDuplicate,
                                    FaultAction::kCorrupt, FaultAction::kNone};
  const auto word = [](int high, std::uint64_t low) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(high))
            << 32) ^
           low;
  };
  return kBands[fault_pick(
      spec.seed, 1,
      {word(source, static_cast<std::uint32_t>(dest)), word(tag, sequence)},
      {spec.drop_rate, spec.delay_rate, spec.duplicate_rate,
       spec.corrupt_rate})];
}

/// The payload byte a kCorrupt decision flips.
inline std::size_t corrupt_index(const FaultSpec& spec,
                                 std::uint64_t sequence,
                                 std::size_t payload_size) {
  FV_REQUIRE(payload_size > 0, "cannot pick a corrupt index in empty payload");
  return static_cast<std::size_t>(
      fault_mix64(spec.seed ^ (sequence * 0xd1342543de82ef95ull)) %
      payload_size);
}

}  // namespace fv::mpx
