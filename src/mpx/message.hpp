// Message representation and payload (de)serialization for mpx, the
// in-process message-passing layer.
//
// mpx mirrors MPI's point-to-point semantics (ranked processes exchanging
// tagged, typed payloads) so the display-wall code is written exactly as it
// would be against a real cluster: the paper's wall is driven by one PC per
// projector tile. Payloads are byte buffers with explicit little-endian-
// agnostic in-process packing — trivially copyable types only.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "util/error.hpp"

namespace fv::mpx {

/// Matches any source rank in receive calls.
inline constexpr int kAnySource = -1;
/// Matches any tag in receive calls.
inline constexpr int kAnyTag = -1;

struct Message {
  int source = kAnySource;
  int tag = 0;
  /// 1-based per-(source, tag) sequence number stamped by Comm on send.
  /// Monotone at the receiving mailbox (the in-process transport is FIFO per
  /// sender), which lets the mailbox suppress duplicated deliveries. 0 on
  /// hand-built messages: such envelopes bypass duplicate suppression.
  std::uint64_t sequence = 0;
  /// Payload checksum stamped by Comm on send (see payload_checksum). The
  /// mailbox re-computes it before handing the message to a receiver and
  /// throws CorruptMessageError on mismatch. 0 = unsealed: hand-built
  /// messages skip the integrity check.
  std::uint64_t checksum = 0;
  std::vector<std::byte> payload;
};

/// 64-bit payload checksum for the message envelope. Word-wise
/// rotate-and-xor with the length folded in, finalized with one multiply —
/// cheap enough to run on every send/receive (memory-bound, no multiply per
/// word) while detecting any single corrupted byte and any truncation.
/// Never returns 0, so 0 can serve as the "unsealed" sentinel.
inline std::uint64_t payload_checksum(
    std::span<const std::byte> payload) noexcept {
  std::uint64_t h = 0x9e3779b97f4a7c15ull ^
                    (static_cast<std::uint64_t>(payload.size()) *
                     0xff51afd7ed558ccdull);
  const std::size_t size = payload.size();
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t word;
    std::memcpy(&word, payload.data() + i, 8);
    h = ((h << 1) | (h >> 63)) ^ word;
  }
  std::uint64_t tail = 0;
  if (i < size) std::memcpy(&tail, payload.data() + i, size - i);
  h = ((h << 1) | (h >> 63)) ^ tail;
  h *= 0x2545f4914f6cdd1dull;
  h ^= h >> 33;
  return h == 0 ? 1 : h;
}

/// Sequentially packs trivially copyable values into a byte buffer.
class PayloadWriter {
 public:
  /// Room for `bytes` more bytes: a writer that knows its payload's exact
  /// size fills it without reallocating.
  void reserve(std::size_t bytes) { buffer_.reserve(buffer_.size() + bytes); }

  template <typename T>
  void write(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "payloads carry trivially copyable types only");
    append(&value, sizeof(T));
  }

  /// A u64 count, then the values.
  template <typename T>
  void write_span(std::span<const T> values) {
    write<std::uint64_t>(values.size());
    write_values(values);
  }

  /// The values without a count: the pieces of a span whose count was
  /// written first.
  template <typename T>
  void write_values(std::span<const T> values) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "payloads carry trivially copyable types only");
    append(values.data(), values.size_bytes());
  }

  void write_string(std::string_view text) {
    write<std::uint64_t>(text.size());
    append(text.data(), text.size());
  }

  /// Where write_placeholder put a T, for fill to write its value.
  template <typename T>
  struct Slot {
    std::size_t offset;
  };

  /// A zero T whose value is known only after what follows it is written:
  /// fill it through the returned slot before take().
  template <typename T>
  Slot<T> write_placeholder() {
    const Slot<T> slot{buffer_.size()};
    write(T{});
    return slot;
  }

  template <typename T>
  void fill(Slot<T> slot, const std::type_identity_t<T>& value) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "payloads carry trivially copyable types only");
    FV_REQUIRE(slot.offset + sizeof(T) <= buffer_.size(),
               "payload slot past the written bytes");
    std::memcpy(buffer_.data() + slot.offset, &value, sizeof(T));
  }

  /// A span of `count` zero-valued Ts, laid out as write_span writes one,
  /// returned for the caller to fill in place: a payload written where it
  /// is sent from. The view is valid until the next write or take().
  /// Byte-aligned types only, as PayloadReader::read_span.
  template <typename T>
  std::span<T> write_zeroed_span(std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T> && alignof(T) == 1,
                  "an in-place span needs a trivially copyable, byte-aligned "
                  "type");
    write<std::uint64_t>(count);
    const std::size_t offset = buffer_.size();
    buffer_.resize(offset + count * sizeof(T));
    return {reinterpret_cast<T*>(buffer_.data() + offset), count};
  }

  std::vector<std::byte> take() { return std::move(buffer_); }

 private:
  /// Writes each byte once: inserting the range copies it into place,
  /// where resizing first would zero-fill the bytes it then overwrites.
  void append(const void* data, std::size_t size) {
    // An empty span's data() may be null; nothing is written then.
    if (size == 0) return;
    const auto* first = static_cast<const std::byte*>(data);
    // Growing here (geometrically, as insert would) leaves insert only its
    // in-place path, on which GCC 12 raises no false -Wstringop-overflow.
    if (buffer_.capacity() - buffer_.size() < size) {
      buffer_.reserve(std::max(buffer_.size() + size, 2 * buffer_.capacity()));
    }
    buffer_.insert(buffer_.end(), first, first + size);
  }

  std::vector<std::byte> buffer_;
};

/// Sequentially unpacks values written by PayloadWriter. Any read past the
/// end, including a length prefix larger than what remains, throws
/// fv::InvalidArgument before allocating.
class PayloadReader {
 public:
  explicit PayloadReader(std::span<const std::byte> payload)
      : payload_(payload) {}

  template <typename T>
  T read() {
    static_assert(std::is_trivially_copyable_v<T>,
                  "payloads carry trivially copyable types only");
    require(sizeof(T));
    T value;
    std::memcpy(&value, payload_.data() + offset_, sizeof(T));
    offset_ += sizeof(T);
    return value;
  }

  template <typename T>
  std::vector<T> read_vector() {
    const auto count = read<std::uint64_t>();
    // Bounded by the bytes left before anything is sized by it, so a
    // hostile count can neither wrap `count * sizeof(T)` nor allocate.
    FV_REQUIRE(count <= remaining() / sizeof(T),
               "payload underrun: vector longer than the message");
    std::vector<T> values(count);
    // An empty vector's data() may be null, which memcpy must not get.
    if (count > 0) {
      std::memcpy(values.data(), payload_.data() + offset_, count * sizeof(T));
    }
    offset_ += count * sizeof(T);
    return values;
  }

  /// A span written by PayloadWriter::write_span, borrowed from the
  /// payload rather than copied: valid while the payload is. Bounded like
  /// read_vector. Byte-aligned types only, since message bytes promise no
  /// more alignment than that.
  template <typename T>
  std::span<const T> read_span() {
    static_assert(std::is_trivially_copyable_v<T> && alignof(T) == 1,
                  "a borrowed span needs a trivially copyable, byte-aligned "
                  "type");
    const auto count = read<std::uint64_t>();
    FV_REQUIRE(count <= remaining() / sizeof(T),
               "payload underrun: span longer than the message");
    const auto* first = reinterpret_cast<const T*>(payload_.data() + offset_);
    offset_ += count * sizeof(T);
    return {first, static_cast<std::size_t>(count)};
  }

  std::string read_string() {
    const auto size = read<std::uint64_t>();
    require(size);
    std::string text(reinterpret_cast<const char*>(payload_.data() + offset_),
                     size);
    offset_ += size;
    return text;
  }

  std::size_t remaining() const noexcept { return payload_.size() - offset_; }

 private:
  void require(std::size_t bytes) const {
    // Written against what is left, so a huge `bytes` cannot wrap.
    FV_REQUIRE(bytes <= payload_.size() - offset_,
               "payload underrun: message shorter than expected");
  }

  std::span<const std::byte> payload_;
  std::size_t offset_ = 0;
};

}  // namespace fv::mpx
