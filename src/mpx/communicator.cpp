#include "mpx/communicator.hpp"

#include <sstream>
#include <thread>

namespace fv::mpx {

GroupState::GroupState(int size) : size_(size) {
  FV_REQUIRE(size >= 1, "group needs at least one rank");
  mailboxes_.reserve(static_cast<std::size_t>(size));
  for (int r = 0; r < size; ++r) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
}

Mailbox& GroupState::mailbox(int rank) {
  FV_REQUIRE(rank >= 0 && rank < size_, "rank out of range");
  return *mailboxes_[static_cast<std::size_t>(rank)];
}

void GroupState::install_faults(const FaultSpec& spec) {
  if (!spec.any()) return;
  check_fault_rates({spec.drop_rate, spec.delay_rate, spec.duplicate_rate,
                     spec.corrupt_rate},
                    "mpx fault spec");
  FV_REQUIRE(spec.delay.count() >= 0, "fault delay must be non-negative");
  FV_REQUIRE(spec.crash_rank < 0 || spec.crash_at_op >= 1,
             "crash_at_op is 1-based");
  FV_REQUIRE(spec.crash_rank < size_,
             "crash_rank must name a rank of this group");
  faults_ = std::make_unique<const FaultSpec>(spec);
}

void GroupState::abort(int origin_rank, const std::string& reason) {
  for (auto& mailbox : mailboxes_) mailbox->abort(origin_rank, reason);
}

Comm::Comm(GroupState* state, int rank)
    : state_(state),
      rank_(rank),
      crash_(state != nullptr && state->faults() != nullptr &&
                     state->faults()->crash_rank == rank
                 ? state->faults()->crash_at_op
                 : 0) {
  FV_REQUIRE(state != nullptr, "communicator needs a group");
  FV_REQUIRE(rank >= 0 && rank < state->size(), "rank out of range");
}

void Comm::fault_op() {
  if (state_->faults() == nullptr) return;
  crash_.count(state_->fault_stats().crashes);
}

void Comm::send(int dest, int tag, std::vector<std::byte> payload) {
  FV_REQUIRE(tag >= 0, "message tags must be non-negative");
  FV_REQUIRE(dest >= 0 && dest < size(), "destination rank out of range");
  fault_op();
  Message message;
  message.source = rank_;
  message.tag = tag;
  const FaultSpec* faults = state_->faults();
  if (faults != nullptr) {
    // Seal the envelope only under fault injection: the in-process
    // transport cannot corrupt or duplicate on its own, so sealing a
    // trusted group's messages would be pure per-byte overhead (the
    // checksum is the one per-payload-byte cost in the whole layer).
    message.sequence = ++next_sequence_[{dest, tag}];
    message.checksum = payload_checksum(payload);
  }
  message.payload = std::move(payload);

  if (faults != nullptr) {
    FaultStats& stats = state_->fault_stats();
    switch (decide(*faults, rank_, dest, tag, message.sequence)) {
      case FaultAction::kDrop:
        stats.dropped.fetch_add(1, std::memory_order_relaxed);
        return;
      case FaultAction::kDelay:
        stats.delayed.fetch_add(1, std::memory_order_relaxed);
        // Sleeping on the sender's thread keeps per-(source, tag) FIFO
        // order, which the mailbox's duplicate suppression relies on.
        std::this_thread::sleep_for(faults->delay);
        break;
      case FaultAction::kDuplicate:
        stats.duplicated.fetch_add(1, std::memory_order_relaxed);
        state_->mailbox(dest).deliver(message);  // same sequence, twice
        break;
      case FaultAction::kCorrupt:
        if (!message.payload.empty()) {
          stats.corrupted.fetch_add(1, std::memory_order_relaxed);
          message.payload[corrupt_index(*faults, message.sequence,
                                        message.payload.size())] ^=
              std::byte{0x2a};
          // checksum left stale: the receiver's verification must fire.
        }
        break;
      case FaultAction::kNone:
        break;
    }
  }
  state_->mailbox(dest).deliver(std::move(message));
}

Message Comm::recv(int source, int tag) {
  fault_op();
  return state_->mailbox(rank_).receive(source, tag);
}

std::optional<Message> Comm::try_recv_until(Clock::time_point deadline,
                                            int source, int tag) {
  fault_op();
  return state_->mailbox(rank_).try_receive_until(deadline, source, tag);
}

namespace {

/// What one rank's thread left behind.
struct RankOutcome {
  std::exception_ptr error;   ///< null = clean exit (or simulated crash)
  bool abort_victim = false;  ///< failure was an AbortError (secondary)
  std::string what;
};

void run_group_impl(int ranks, const std::function<void(Comm&)>& body,
                    const FaultSpec* faults) {
  FV_REQUIRE(ranks >= 1, "group needs at least one rank");
  FV_REQUIRE(body != nullptr, "group body must be callable");
  GroupState state(ranks);
  if (faults != nullptr) state.install_faults(*faults);
  std::vector<RankOutcome> outcomes(static_cast<std::size_t>(ranks));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    threads.emplace_back([&, r] {
      auto& outcome = outcomes[static_cast<std::size_t>(r)];
      try {
        Comm comm(&state, r);
        body(comm);
      } catch (const InjectedCrash&) {
        // Simulated node death: the thread exits silently, no abort — the
        // rest of the group only notices through its own deadlines.
      } catch (const AbortError& e) {
        // Victim of someone else's failure: secondary, never aborts again.
        outcome = {std::current_exception(), true, e.what()};
      } catch (const std::exception& e) {
        outcome = {std::current_exception(), false, e.what()};
        state.abort(r, e.what());
      } catch (...) {
        outcome = {std::current_exception(), false, "non-standard exception"};
        state.abort(r, "non-standard exception");
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  std::vector<GroupFailure::RankError> primaries;
  for (int r = 0; r < ranks; ++r) {
    const auto& outcome = outcomes[static_cast<std::size_t>(r)];
    if (outcome.error && !outcome.abort_victim) {
      primaries.push_back({r, outcome.what});
    }
  }
  if (primaries.size() == 1) {
    for (const auto& outcome : outcomes) {
      if (outcome.error && !outcome.abort_victim) {
        std::rethrow_exception(outcome.error);
      }
    }
  }
  if (primaries.size() > 1) {
    std::ostringstream os;
    os << primaries.size() << " of " << ranks << " ranks failed";
    for (const auto& failure : primaries) {
      os << "; rank " << failure.rank << ": " << failure.what;
    }
    throw GroupFailure(os.str(), std::move(primaries));
  }
  // No primary failure: surface a stray abort victim if one exists (e.g.
  // someone called GroupState::abort directly).
  for (const auto& outcome : outcomes) {
    if (outcome.error) std::rethrow_exception(outcome.error);
  }
}

}  // namespace

void run_group(int ranks, const std::function<void(Comm&)>& body) {
  run_group_impl(ranks, body, nullptr);
}

void run_group(int ranks, const std::function<void(Comm&)>& body,
               const FaultSpec& faults) {
  run_group_impl(ranks, body, &faults);
}

}  // namespace fv::mpx
