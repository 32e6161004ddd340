// Per-rank message queue with MPI-style (source, tag) selective receive,
// a deadline-bounded variant, and envelope integrity enforcement.
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "mpx/message.hpp"

namespace fv::mpx {

class Mailbox {
 public:
  using Clock = std::chrono::steady_clock;

  /// Enqueues a message (called from the sender's thread).
  void deliver(Message message);

  /// Blocks until a message matching (source, tag) is available and removes
  /// it. kAnySource / kAnyTag act as wildcards. Matching preserves per-
  /// (source, tag) FIFO order: the oldest matching message is returned.
  ///
  /// Envelope enforcement (applies to both receive variants):
  ///  * sealed messages (checksum != 0) are re-checksummed; a mismatch
  ///    removes the message and throws CorruptMessageError;
  ///  * sequenced messages (sequence != 0) already seen for their
  ///    (source, tag) are discarded silently (duplicate suppression).
  ///
  /// Throws AbortError if the group aborts while waiting. Queued messages
  /// that already match are still drained after an abort — receivers get the
  /// data that made it before the failure, then the abort.
  Message receive(int source = kAnySource, int tag = kAnyTag);

  /// Bounded-wait variant; nullopt when the deadline passes without a match
  /// (never throws TimeoutError; AbortError / CorruptMessageError still
  /// propagate).
  std::optional<Message> try_receive_until(Clock::time_point deadline,
                                           int source = kAnySource,
                                           int tag = kAnyTag);

  /// Number of queued messages (for diagnostics/tests).
  std::size_t pending() const;

  /// Wakes all blocked receivers with an AbortError carrying the originating
  /// rank (-1 = unattributed) and reason; further (unmatched) receives throw.
  void abort(int origin_rank = -1, const std::string& reason = {});

 private:
  std::optional<Message> match_locked(int source, int tag);
  [[noreturn]] void throw_aborted_locked() const;

  mutable std::mutex mutex_;
  std::condition_variable arrived_;
  std::deque<Message> queue_;
  /// Highest sequence number returned per (source, tag); duplicates at or
  /// below it are suppressed. Only advanced on successful delivery to the
  /// receiver, so a corrupt original does not mask a later clean resend.
  std::map<std::pair<int, int>, std::uint64_t> delivered_sequence_;
  bool aborted_ = false;
  int abort_rank_ = -1;
  std::string abort_reason_;
};

}  // namespace fv::mpx
