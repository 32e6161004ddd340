#include "mpx/mailbox.hpp"

#include <sstream>

namespace fv::mpx {

void Mailbox::deliver(Message message) {
  {
    std::unique_lock lock(mutex_);
    queue_.push_back(std::move(message));
  }
  arrived_.notify_all();
}

std::optional<Message> Mailbox::match_locked(int source, int tag) {
  for (auto it = queue_.begin(); it != queue_.end();) {
    const bool source_ok = source == kAnySource || it->source == source;
    const bool tag_ok = tag == kAnyTag || it->tag == tag;
    if (!source_ok || !tag_ok) {
      ++it;
      continue;
    }
    if (it->sequence != 0) {
      auto& last = delivered_sequence_[{it->source, it->tag}];
      if (it->sequence <= last) {
        it = queue_.erase(it);  // duplicate delivery: suppress silently
        continue;
      }
      if (it->checksum != 0 && payload_checksum(it->payload) != it->checksum) {
        std::ostringstream os;
        os << "message from rank " << it->source << " tag " << it->tag
           << " seq " << it->sequence
           << " failed its payload checksum (corrupted or truncated in "
              "transit)";
        queue_.erase(it);
        // last NOT advanced: a clean resend with this sequence still counts.
        throw CorruptMessageError(os.str());
      }
      last = it->sequence;
    } else if (it->checksum != 0 &&
               payload_checksum(it->payload) != it->checksum) {
      std::ostringstream os;
      os << "message from rank " << it->source << " tag " << it->tag
         << " failed its payload checksum";
      queue_.erase(it);
      throw CorruptMessageError(os.str());
    }
    Message found = std::move(*it);
    queue_.erase(it);
    return found;
  }
  return std::nullopt;
}

void Mailbox::throw_aborted_locked() const {
  std::ostringstream os;
  os << "mpx group aborted while a rank was blocked in receive";
  if (abort_rank_ >= 0) os << " (aborted by rank " << abort_rank_ << ")";
  if (!abort_reason_.empty()) os << ": " << abort_reason_;
  throw AbortError(os.str(), abort_rank_);
}

Message Mailbox::receive(int source, int tag) {
  std::unique_lock lock(mutex_);
  for (;;) {
    if (auto found = match_locked(source, tag); found.has_value()) {
      return std::move(*found);
    }
    if (aborted_) throw_aborted_locked();
    arrived_.wait(lock);
  }
}

std::optional<Message> Mailbox::try_receive_until(Clock::time_point deadline,
                                                  int source, int tag) {
  std::unique_lock lock(mutex_);
  for (;;) {
    if (auto found = match_locked(source, tag); found.has_value()) {
      return found;
    }
    if (aborted_) throw_aborted_locked();
    if (arrived_.wait_until(lock, deadline) == std::cv_status::timeout) {
      return match_locked(source, tag);  // last-chance race recheck
    }
  }
}

std::size_t Mailbox::pending() const {
  std::unique_lock lock(mutex_);
  return queue_.size();
}

void Mailbox::abort(int origin_rank, const std::string& reason) {
  {
    std::unique_lock lock(mutex_);
    if (!aborted_) {  // first abort wins the attribution
      aborted_ = true;
      abort_rank_ = origin_rank;
      abort_reason_ = reason;
    }
  }
  arrived_.notify_all();
}

}  // namespace fv::mpx
