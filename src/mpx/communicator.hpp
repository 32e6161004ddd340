// Communicator: the per-rank handle for the point-to-point messaging the
// display wall runs on — tagged sends, blocking and deadline-bounded
// selective receives, and one thread per rank under run_group.
//
// Robustness surface (see src/mpx/README.md for the full contracts):
//  * under fault injection every send seals an envelope (per-(dest, tag)
//    sequence + payload checksum) — corruption surfaces as
//    fv::CorruptMessageError at the receiver, duplicates are suppressed by
//    the mailbox; a trusted group skips sealing (the in-process transport
//    cannot corrupt bytes on its own, so it would be pure overhead);
//  * the one bounded wait is try_recv_until, which returns nullopt at its
//    deadline;
//  * aborts are attributed: victims of a group failure get fv::AbortError
//    carrying the originating rank and reason;
//  * a seeded FaultSpec can be installed per group to deterministically
//    drop / delay / duplicate / corrupt messages or crash a rank mid-run
//    (zero cost when absent).
#pragma once

#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "mpx/fault.hpp"
#include "mpx/mailbox.hpp"
#include "mpx/message.hpp"

namespace fv::mpx {

/// State shared by every rank of one group: mailboxes plus the (optional)
/// fault spec and its counters.
class GroupState {
 public:
  explicit GroupState(int size);

  int size() const noexcept { return size_; }
  Mailbox& mailbox(int rank);

  /// Validates and installs a deterministic fault spec. Call before any
  /// rank starts communicating; no-op when the spec would change nothing.
  void install_faults(const FaultSpec& spec);
  /// The installed spec, or nullptr without one.
  const FaultSpec* faults() const noexcept { return faults_.get(); }
  FaultStats& fault_stats() noexcept { return fault_stats_; }

  /// Marks the group failed and wakes every blocked rank. origin_rank/reason
  /// are carried into the AbortError every victim sees (-1 = unattributed).
  void abort(int origin_rank = -1, const std::string& reason = {});

 private:
  const int size_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::unique_ptr<const FaultSpec> faults_;
  FaultStats fault_stats_;
};

/// More than one rank failed for an independent reason: every per-rank
/// failure is aggregated here (rank id + what()) instead of silently
/// discarding all but one, so multi-rank failures stay diagnosable.
class GroupFailure : public Error {
 public:
  struct RankError {
    int rank = -1;
    std::string what;
  };

  GroupFailure(const std::string& message, std::vector<RankError> failures)
      : Error(message), failures_(std::move(failures)) {}

  const std::vector<RankError>& failures() const noexcept {
    return failures_;
  }

 private:
  std::vector<RankError> failures_;
};

class Comm {
 public:
  using Clock = std::chrono::steady_clock;

  Comm(GroupState* state, int rank);

  int rank() const noexcept { return rank_; }
  int size() const noexcept { return state_->size(); }

  /// Fault counters of the installed spec, or nullptr without one.
  const FaultStats* fault_stats() const noexcept {
    return state_->faults() == nullptr ? nullptr : &state_->fault_stats();
  }

  /// Sends a raw payload; tag must be >= 0. Never blocks (in-process
  /// delivery is an enqueue). When the group has a fault spec, the envelope
  /// is sealed (sequence + checksum) before any fault injection, so
  /// tampering is detectable.
  void send(int dest, int tag, std::vector<std::byte> payload);

  /// Blocking receive; wildcards allowed.
  Message recv(int source = kAnySource, int tag = kAnyTag);

  /// Bounded-wait receive: nullopt once `deadline` passes (never throws
  /// TimeoutError; AbortError / CorruptMessageError still propagate).
  std::optional<Message> try_recv_until(Clock::time_point deadline,
                                        int source = kAnySource,
                                        int tag = kAnyTag);

 private:
  /// Counts one op for the crash fault; throws fv::InjectedCrash at the
  /// configured op. No-op without a fault spec.
  void fault_op();

  GroupState* state_;
  int rank_;
  /// Next sequence number per (dest, tag); Comm lives on one rank's thread,
  /// so no locking. Sequences start at 1 (0 = unsequenced sentinel).
  std::map<std::pair<int, int>, std::uint64_t> next_sequence_;
  /// This rank's mpx operations (sends + receives), for the crash-at-op
  /// fault. Only advanced when a fault spec is installed.
  CrashCounter crash_;
};

/// Runs `body` once per rank on dedicated threads and joins them.
///
/// Failure semantics: a rank that throws aborts the group (unblocking every
/// other rank with an attributed AbortError). After the join, failures are
/// aggregated: ranks that merely died of the abort (AbortError victims) are
/// secondary; if exactly one rank failed for its own reason, that original
/// exception is rethrown; if several did, a GroupFailure listing every
/// (rank, what()) is thrown. Ranks crashed by a fault spec exit silently —
/// a simulated lost node is not an error here; survivors see it only
/// through their own deadlines.
void run_group(int ranks, const std::function<void(Comm&)>& body);

/// As above, with a deterministic fault spec installed for the group's
/// lifetime. `faults` with nothing enabled behaves exactly like run_group.
void run_group(int ranks, const std::function<void(Comm&)>& body,
               const FaultSpec& faults);

}  // namespace fv::mpx
