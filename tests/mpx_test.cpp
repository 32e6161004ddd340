// Tests for the mpx message-passing substrate: payload codec, mailbox
// matching and envelope integrity, point-to-point semantics, deadlines,
// fault injection, and failure propagation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "mpx/communicator.hpp"
#include "render/color.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace {

namespace mpx = fv::mpx;

using Clock = mpx::Comm::Clock;

void send_int(mpx::Comm& comm, int dest, int tag, int value) {
  mpx::PayloadWriter writer;
  writer.write<int>(value);
  comm.send(dest, tag, writer.take());
}

int recv_int(mpx::Comm& comm, int source, int tag) {
  const mpx::Message message = comm.recv(source, tag);
  mpx::PayloadReader reader(message.payload);
  return reader.read<int>();
}

TEST(PayloadTest, WriterReaderRoundTrip) {
  mpx::PayloadWriter writer;
  writer.write<int>(42);
  writer.write<double>(3.5);
  writer.write_string("hello");
  const std::vector<float> values{1.0f, 2.0f, 3.0f};
  writer.write_span(std::span<const float>(values));
  const auto payload = writer.take();

  mpx::PayloadReader reader(payload);
  EXPECT_EQ(reader.read<int>(), 42);
  EXPECT_DOUBLE_EQ(reader.read<double>(), 3.5);
  EXPECT_EQ(reader.read_string(), "hello");
  EXPECT_EQ(reader.read_vector<float>(), values);
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(PayloadTest, UnderrunThrows) {
  mpx::PayloadWriter writer;
  writer.write<int>(1);
  const auto payload = writer.take();
  mpx::PayloadReader reader(payload);
  reader.read<int>();
  EXPECT_THROW(reader.read<double>(), fv::InvalidArgument);
}

TEST(PayloadTest, HostileLengthPrefixesThrowTyped) {
  // count * 3 wraps past 2^64 for this count: the bound must be checked
  // against the bytes left, not against a wrapped product.
  mpx::PayloadWriter vector_writer;
  vector_writer.write<std::uint64_t>(0x5555555555555556ull);
  vector_writer.write<std::uint64_t>(0);
  const auto vector_payload = vector_writer.take();
  mpx::PayloadReader vector_reader(vector_payload);
  EXPECT_THROW(vector_reader.read_vector<fv::render::Rgb8>(),
               fv::InvalidArgument);

  // offset + size wraps for a size of 2^64 - 1.
  mpx::PayloadWriter string_writer;
  string_writer.write<std::uint64_t>(~std::uint64_t{0});
  string_writer.write<std::uint64_t>(0);
  const auto string_payload = string_writer.take();
  mpx::PayloadReader string_reader(string_payload);
  EXPECT_THROW(string_reader.read_string(), fv::InvalidArgument);
}

TEST(PayloadTest, ReadSpanBorrowsTheMessageBytes) {
  const std::vector<fv::render::Rgb8> pixels{{1, 2, 3}, {4, 5, 6}};
  mpx::PayloadWriter writer;
  writer.write<std::uint64_t>(9);
  writer.write_span(std::span<const fv::render::Rgb8>(pixels));
  writer.write_span(std::span<const fv::render::Rgb8>());
  const auto payload = writer.take();
  mpx::PayloadReader reader(payload);
  EXPECT_EQ(reader.read<std::uint64_t>(), 9u);
  const auto view = reader.read_span<fv::render::Rgb8>();
  ASSERT_EQ(view.size(), 2u);
  EXPECT_EQ(reinterpret_cast<const std::byte*>(view.data()),
            payload.data() + 2 * sizeof(std::uint64_t));
  EXPECT_TRUE(std::equal(view.begin(), view.end(), pixels.begin()));
  EXPECT_TRUE(reader.read_span<fv::render::Rgb8>().empty());
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(PayloadTest, InPlaceSpanAndPlaceholdersWriteWhatWriteSpanWrites) {
  // A payload filled in place (placeholders filled last, a zeroed span
  // written through its view) has the bytes of one written in order.
  const std::vector<fv::render::Rgb8> pixels{{1, 2, 3}, {0, 0, 0}, {4, 5, 6}};
  mpx::PayloadWriter in_place;
  in_place.write<std::uint64_t>(9);
  const auto count = in_place.write_placeholder<std::uint64_t>();
  const auto seconds = in_place.write_placeholder<double>();
  const std::span<fv::render::Rgb8> view =
      in_place.write_zeroed_span<fv::render::Rgb8>(pixels.size());
  ASSERT_EQ(view.size(), pixels.size());
  EXPECT_TRUE(std::all_of(view.begin(), view.end(), [](fv::render::Rgb8 p) {
    return p == fv::render::Rgb8{};
  }));
  view[0] = pixels[0];
  view[2] = pixels[2];
  in_place.fill(count, 17);
  in_place.fill(seconds, 0.5);
  EXPECT_TRUE(in_place.write_zeroed_span<fv::render::Rgb8>(0).empty());

  mpx::PayloadWriter in_order;
  in_order.write<std::uint64_t>(9);
  in_order.write<std::uint64_t>(17);
  in_order.write<double>(0.5);
  in_order.write_span(std::span<const fv::render::Rgb8>(pixels));
  in_order.write_span(std::span<const fv::render::Rgb8>());
  EXPECT_EQ(in_place.take(), in_order.take());
}

TEST(PayloadTest, PixelReplyLongerThanItsMessageThrowsTyped) {
  // A pixel reply, [tile, executed, raster seconds, pixels], whose pixel
  // count claims more than the message holds: the borrowed read must
  // refuse it before forming a view past the end.
  const std::vector<fv::render::Rgb8> pixels(10);
  for (const std::uint64_t claimed :
       {std::uint64_t{11}, std::uint64_t{1} << 40,
        std::uint64_t{0x5555555555555556ull}}) {
    mpx::PayloadWriter writer;
    writer.write<std::uint64_t>(3);
    writer.write<std::uint64_t>(7);
    writer.write<double>(0.25);
    writer.write<std::uint64_t>(claimed);
    writer.write_values(std::span<const fv::render::Rgb8>(pixels));
    const auto payload = writer.take();
    mpx::PayloadReader reader(payload);
    reader.read<std::uint64_t>();
    reader.read<std::uint64_t>();
    reader.read<double>();
    EXPECT_THROW(reader.read_span<fv::render::Rgb8>(), fv::InvalidArgument)
        << claimed;
  }
}

/// Seeded mutation fuzzing of PayloadReader: truncated, bit-flipped and
/// spliced payloads must decode or throw fv::InvalidArgument through every
/// read, and a borrowed span must lie inside the payload.
TEST(PayloadFuzzTest, MutatedPayloadsDecodeOrFailTyped) {
  const std::vector<fv::render::Rgb8> pixels(40, fv::render::Rgb8{1, 2, 3});
  const std::vector<float> values{1.0f, 2.0f, 3.0f};
  mpx::PayloadWriter writer;
  writer.write<std::uint64_t>(5);
  writer.write_string("tile");
  writer.write_span(std::span<const float>(values));
  writer.write<double>(0.5);
  writer.write_span(std::span<const fv::render::Rgb8>(pixels));
  const std::vector<std::byte> payload = writer.take();

  fv::Rng rng(0x5eed);
  std::size_t decoded = 0, rejected = 0;
  for (int iteration = 0; iteration < 2000; ++iteration) {
    std::vector<std::byte> bytes = payload;
    switch (rng.uniform_u64(3)) {
      case 0:  // truncate
        bytes.resize(rng.uniform_u64(bytes.size()));
        break;
      case 1:  // flip a few bits
        for (auto flips = 1 + rng.uniform_u64(4); flips > 0; --flips) {
          bytes[rng.uniform_u64(bytes.size())] ^=
              std::byte{static_cast<unsigned char>(1u << rng.uniform_u64(8))};
        }
        break;
      default: {  // splice a copy of one segment in at another offset
        const auto from = rng.uniform_u64(bytes.size());
        const auto length = 1 + rng.uniform_u64(bytes.size() - from);
        const std::vector<std::byte> segment(
            bytes.begin() + static_cast<std::ptrdiff_t>(from),
            bytes.begin() + static_cast<std::ptrdiff_t>(from + length));
        bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(
                                         rng.uniform_u64(bytes.size())),
                     segment.begin(), segment.end());
        break;
      }
    }
    try {
      mpx::PayloadReader reader(bytes);
      reader.read<std::uint64_t>();
      reader.read_string();
      reader.read_vector<float>();
      reader.read<double>();
      const auto view = reader.read_span<fv::render::Rgb8>();
      const auto* first = reinterpret_cast<const std::byte*>(view.data());
      ASSERT_GE(first, bytes.data());
      ASSERT_LE(first + view.size_bytes(), bytes.data() + bytes.size());
      ++decoded;
    } catch (const fv::InvalidArgument&) {
      ++rejected;
    }
  }
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(MailboxTest, FifoPerSourceAndTag) {
  mpx::Mailbox box;
  for (int i = 0; i < 3; ++i) {
    mpx::Message m;
    m.source = 0;
    m.tag = 7;
    m.payload.resize(static_cast<std::size_t>(i));
    box.deliver(std::move(m));
  }
  EXPECT_EQ(box.pending(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(box.receive(0, 7).payload.size(), i);
  }
}

TEST(MailboxTest, SelectiveReceiveSkipsNonMatching) {
  mpx::Mailbox box;
  mpx::Message a;
  a.source = 0;
  a.tag = 1;
  box.deliver(std::move(a));
  mpx::Message b;
  b.source = 2;
  b.tag = 5;
  box.deliver(std::move(b));
  const auto got = box.receive(2, 5);
  EXPECT_EQ(got.source, 2);
  EXPECT_EQ(box.pending(), 1u);
  EXPECT_FALSE(box.try_receive_until(Clock::now(), 9, 9).has_value());
  EXPECT_TRUE(box.try_receive_until(Clock::now(), mpx::kAnySource,
                                    mpx::kAnyTag)
                  .has_value());
}

TEST(MailboxTest, AbortUnblocksReceivers) {
  mpx::Mailbox box;
  box.abort();
  EXPECT_THROW(box.receive(), fv::Error);
}

TEST(RunGroupTest, PingPong) {
  std::atomic<int> checks{0};
  mpx::run_group(2, [&](mpx::Comm& comm) {
    if (comm.rank() == 0) {
      send_int(comm, 1, 0, 123);
      EXPECT_EQ(recv_int(comm, 1, 1), 124);
      checks.fetch_add(1);
    } else {
      send_int(comm, 0, 1, recv_int(comm, 0, 0) + 1);
    }
  });
  EXPECT_EQ(checks.load(), 1);
}

TEST(RunGroupTest, SingleRankGroupWorks) {
  mpx::run_group(1, [&](mpx::Comm& comm) {
    EXPECT_EQ(comm.size(), 1);
    send_int(comm, 0, 2, 5);  // a rank may message itself
    EXPECT_EQ(recv_int(comm, 0, 2), 5);
    EXPECT_FALSE(comm.try_recv_until(Clock::now(), 0, 2).has_value());
  });
}

TEST(RunGroupTest, UserTagsMustBeNonNegative) {
  EXPECT_THROW(mpx::run_group(2,
                              [&](mpx::Comm& comm) {
                                if (comm.rank() == 0) {
                                  comm.send(1, -3, {});
                                } else {
                                  comm.recv(0, 0);  // unblocked by the abort
                                }
                              }),
               fv::Error);
}

TEST(RunGroupTest, ExceptionAbortsWholeGroup) {
  // Rank 1 throws while rank 0 blocks in recv; the abort must unblock it and
  // run_group must rethrow the original error.
  EXPECT_THROW(mpx::run_group(2,
                              [&](mpx::Comm& comm) {
                                if (comm.rank() == 0) {
                                  comm.recv();  // would block forever
                                } else {
                                  throw std::runtime_error("rank 1 died");
                                }
                              }),
               std::exception);
}

TEST(RunGroupTest, BarrierSynchronizesPhases) {
  // A barrier from point-to-point messages: every rank increments and
  // reports to rank 0, which releases everyone once all have arrived. Each
  // rank then checks the full count — fails if a blocking recv returned
  // before its message was sent.
  constexpr int kRanks = 4;
  constexpr int kArrived = 1;
  constexpr int kRelease = 2;
  std::atomic<int> phase_one{0};
  mpx::run_group(kRanks, [&](mpx::Comm& comm) {
    phase_one.fetch_add(1);
    if (comm.rank() == 0) {
      for (int r = 1; r < comm.size(); ++r) comm.recv(r, kArrived);
      for (int r = 1; r < comm.size(); ++r) comm.send(r, kRelease, {});
    } else {
      comm.send(0, kArrived, {});
      comm.recv(0, kRelease);
    }
    EXPECT_EQ(phase_one.load(), kRanks);
  });
}

// Property sweep over group sizes: a pipeline where each rank forwards an
// accumulating vector to the next rank, validating ordering and payload
// integrity end to end.
class GroupSizePropertyTest : public ::testing::TestWithParam<int> {};

void send_token(mpx::Comm& comm, int dest, const std::vector<int>& token) {
  mpx::PayloadWriter writer;
  writer.write_span(std::span<const int>(token));
  comm.send(dest, 0, writer.take());
}

std::vector<int> recv_token(mpx::Comm& comm, int source) {
  const mpx::Message message = comm.recv(source, 0);
  mpx::PayloadReader reader(message.payload);
  return reader.read_vector<int>();
}

TEST_P(GroupSizePropertyTest, RingAccumulation) {
  const int ranks = GetParam();
  mpx::run_group(ranks, [&](mpx::Comm& comm) {
    const int next = (comm.rank() + 1) % comm.size();
    const int prev = (comm.rank() - 1 + comm.size()) % comm.size();
    if (comm.rank() == 0) {
      std::vector<int> token{0};
      if (comm.size() > 1) {
        send_token(comm, next, token);
        token = recv_token(comm, prev);
      }
      ASSERT_EQ(token.size(), static_cast<std::size_t>(comm.size()));
      for (int i = 0; i < comm.size(); ++i) {
        EXPECT_EQ(token[static_cast<std::size_t>(i)], i);
      }
    } else {
      auto token = recv_token(comm, prev);
      token.push_back(comm.rank());
      send_token(comm, next, token);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, GroupSizePropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8));

// -- envelope integrity ------------------------------------------------------

TEST(MailboxTest, SealedChecksumDetectsCorruption) {
  mpx::Mailbox box;
  mpx::Message m;
  m.source = 0;
  m.tag = 3;
  m.sequence = 1;
  m.payload = {std::byte{1}, std::byte{2}, std::byte{3}};
  m.checksum = mpx::payload_checksum(m.payload);
  m.payload[1] ^= std::byte{0x40};  // in-flight corruption after sealing
  box.deliver(std::move(m));
  EXPECT_THROW(box.receive(0, 3), fv::CorruptMessageError);
  // The corrupt message was consumed, not left to poison the queue.
  EXPECT_EQ(box.pending(), 0u);
}

TEST(MailboxTest, DuplicateSequenceSuppressed) {
  mpx::Mailbox box;
  const auto make = [](std::uint64_t sequence, std::byte value) {
    mpx::Message m;
    m.source = 0;
    m.tag = 3;
    m.sequence = sequence;
    m.payload = {value};
    m.checksum = mpx::payload_checksum(m.payload);
    return m;
  };
  box.deliver(make(1, std::byte{10}));
  box.deliver(make(1, std::byte{10}));  // duplicated in flight
  box.deliver(make(2, std::byte{20}));
  EXPECT_EQ(box.receive(0, 3).payload[0], std::byte{10});
  EXPECT_EQ(box.receive(0, 3).payload[0], std::byte{20});
  EXPECT_FALSE(box.try_receive_until(Clock::now(), 0, 3).has_value());
}

TEST(MailboxTest, CorruptOriginalDoesNotMaskCleanResend) {
  mpx::Mailbox box;
  mpx::Message corrupt;
  corrupt.source = 0;
  corrupt.tag = 3;
  corrupt.sequence = 1;
  corrupt.payload = {std::byte{1}};
  corrupt.checksum = mpx::payload_checksum(corrupt.payload);
  corrupt.payload[0] ^= std::byte{0x40};
  box.deliver(std::move(corrupt));
  EXPECT_THROW(box.receive(0, 3), fv::CorruptMessageError);

  // A clean resend reuses the same sequence number; because the corrupt
  // original never advanced the delivered sequence, it must get through.
  mpx::Message resend;
  resend.source = 0;
  resend.tag = 3;
  resend.sequence = 1;
  resend.payload = {std::byte{1}};
  resend.checksum = mpx::payload_checksum(resend.payload);
  box.deliver(std::move(resend));
  EXPECT_EQ(box.receive(0, 3).payload[0], std::byte{1});
}

// -- abort semantics ---------------------------------------------------------

TEST(MailboxTest, AbortCarriesRankAndReason) {
  mpx::Mailbox box;
  box.abort(3, "disk on fire");
  try {
    box.receive();
    FAIL() << "expected AbortError";
  } catch (const fv::AbortError& e) {
    EXPECT_EQ(e.origin_rank(), 3);
    EXPECT_NE(std::string(e.what()).find("disk on fire"), std::string::npos);
  }
}

TEST(MailboxTest, AbortStillDrainsQueuedMatches) {
  mpx::Mailbox box;
  mpx::Message m;
  m.source = 1;
  m.tag = 4;
  box.deliver(std::move(m));
  box.abort(0, "late failure");
  // The message that arrived before the failure is still delivered...
  EXPECT_EQ(box.receive(1, 4).source, 1);
  // ...and only then does the abort surface.
  EXPECT_THROW(box.receive(1, 4), fv::AbortError);
}

TEST(MailboxTest, WildcardReceiveRacingAbort) {
  mpx::Mailbox box;
  std::atomic<int> seen_rank{-2};
  std::thread receiver([&] {
    try {
      box.receive(mpx::kAnySource, mpx::kAnyTag);
    } catch (const fv::AbortError& e) {
      seen_rank = e.origin_rank();
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  box.abort(1, "peer died");
  receiver.join();
  EXPECT_EQ(seen_rank.load(), 1);
}

TEST(RunGroupTest, AbortAttributionReachesVictims) {
  std::atomic<int> origin{-2};
  std::atomic<bool> reason_seen{false};
  try {
    mpx::run_group(3, [&](mpx::Comm& comm) {
      if (comm.rank() == 2) throw std::runtime_error("disk gone");
      try {
        comm.recv(2, 0);  // never satisfied; unblocked by the abort
      } catch (const fv::AbortError& e) {
        origin = e.origin_rank();
        if (std::string(e.what()).find("disk gone") != std::string::npos) {
          reason_seen = true;
        }
      }
    });
    FAIL() << "expected the originating exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "disk gone");
  }
  EXPECT_EQ(origin.load(), 2);
  EXPECT_TRUE(reason_seen.load());
}

// -- failure aggregation -----------------------------------------------------

TEST(RunGroupTest, AggregatesMultiRankFailures) {
  try {
    mpx::run_group(2, [&](mpx::Comm& comm) {
      // Each rank hears from the other before failing, so neither can be
      // a victim of the other's abort: both fail for their own reason.
      const int peer = 1 - comm.rank();
      comm.send(peer, 0, {});
      comm.recv(peer, 0);
      throw std::runtime_error("rank " + std::to_string(comm.rank()) +
                               " boom");
    });
    FAIL() << "expected GroupFailure";
  } catch (const mpx::GroupFailure& failure) {
    ASSERT_EQ(failure.failures().size(), 2u);
    EXPECT_EQ(failure.failures()[0].rank, 0);
    EXPECT_EQ(failure.failures()[1].rank, 1);
    EXPECT_NE(std::string(failure.what()).find("rank 0 boom"),
              std::string::npos);
    EXPECT_NE(std::string(failure.what()).find("rank 1 boom"),
              std::string::npos);
  }
}

TEST(RunGroupTest, VictimAbortsAreSecondary) {
  // Rank 0 fails only because rank 1 aborted the group; the rethrown
  // exception must be rank 1's original error, not the victim's AbortError
  // and not a two-rank GroupFailure.
  EXPECT_THROW(mpx::run_group(2,
                              [&](mpx::Comm& comm) {
                                if (comm.rank() == 1) {
                                  throw std::runtime_error("boom");
                                }
                                comm.recv(1, 0);  // victim
                              }),
               std::runtime_error);
}

// -- deadlines ---------------------------------------------------------------

TEST(DeadlineTest, TryRecvUntilReturnsNullopt) {
  mpx::run_group(1, [&](mpx::Comm& comm) {
    const auto got =
        comm.try_recv_until(Clock::now() + std::chrono::milliseconds(10), 0, 5);
    EXPECT_FALSE(got.has_value());
  });
}

TEST(DeadlineTest, RecvForReturnsEarlyWhenMessageArrives) {
  mpx::run_group(2, [&](mpx::Comm& comm) {
    if (comm.rank() == 1) {
      send_int(comm, 0, 9, 41);
      return;
    }
    // Generous deadline: the assertion is that we get the value, not timing.
    const auto message = comm.try_recv_until(
        Clock::now() + std::chrono::milliseconds(5000), 1, 9);
    ASSERT_TRUE(message.has_value());
    mpx::PayloadReader reader(message->payload);
    EXPECT_EQ(reader.read<int>(), 41);
  });
}

// -- deterministic fault injection -------------------------------------------

/// Control tag the fault tests exempt from injection: a sender's "done"
/// arrives after everything it sent before, so the receiver knows every
/// faulted send has already happened.
constexpr int kDone = 8;

TEST(FaultInjectionTest, DropAllMakesRecvComeUpEmpty) {
  mpx::FaultSpec faults;
  faults.seed = 7;
  faults.drop_rate = 1.0;
  faults.exempt_tags = {kDone};
  mpx::run_group(
      2,
      [&](mpx::Comm& comm) {
        if (comm.rank() == 0) {
          send_int(comm, 1, 3, 99);
          comm.send(1, kDone, {});
          return;
        }
        comm.recv(0, kDone);  // the send has happened (and been eaten)
        EXPECT_FALSE(comm.try_recv_until(Clock::now(), 0, 3).has_value());
        ASSERT_NE(comm.fault_stats(), nullptr);
        EXPECT_EQ(comm.fault_stats()->dropped.load(), 1u);
      },
      faults);
}

TEST(FaultInjectionTest, DuplicatesDeliveredOnce) {
  mpx::FaultSpec faults;
  faults.seed = 11;
  faults.duplicate_rate = 1.0;
  faults.exempt_tags = {kDone};
  mpx::run_group(
      2,
      [&](mpx::Comm& comm) {
        if (comm.rank() == 0) {
          for (int i = 1; i <= 3; ++i) send_int(comm, 1, 3, i * 10);
          comm.send(1, kDone, {});
          return;
        }
        comm.recv(0, kDone);  // every duplicate is already queued
        for (int i = 1; i <= 3; ++i) {
          EXPECT_EQ(recv_int(comm, 0, 3), i * 10);  // order survives
        }
        // Duplicates gone.
        EXPECT_FALSE(comm.try_recv_until(Clock::now(), 0, 3).has_value());
        ASSERT_NE(comm.fault_stats(), nullptr);
        EXPECT_EQ(comm.fault_stats()->duplicated.load(), 3u);
      },
      faults);
}

TEST(FaultInjectionTest, CorruptionSurfacesTyped) {
  mpx::FaultSpec faults;
  faults.seed = 13;
  faults.corrupt_rate = 1.0;
  EXPECT_THROW(mpx::run_group(
                   2,
                   [&](mpx::Comm& comm) {
                     if (comm.rank() == 0) {
                       send_int(comm, 1, 3, 1234);
                       return;
                     }
                     comm.recv(0, 3);  // checksum must fire, never garbage
                   },
                   faults),
               fv::CorruptMessageError);
}

TEST(FaultInjectionTest, CrashedRankDiesSilently) {
  mpx::FaultSpec faults;
  faults.seed = 17;
  faults.crash_rank = 1;
  faults.crash_at_op = 1;
  // The survivor sees nothing but silence — and run_group reports no error,
  // exactly like a lost cluster node.
  mpx::run_group(
      2,
      [&](mpx::Comm& comm) {
        if (comm.rank() == 1) {
          send_int(comm, 0, 3, 5);  // first op: never happens
          FAIL() << "rank 1 should have crashed before this";
        }
        EXPECT_FALSE(comm
                         .try_recv_until(Clock::now() +
                                             std::chrono::milliseconds(50),
                                         1, 3)
                         .has_value());
      },
      faults);
}

TEST(FaultInjectionTest, ExemptTagsNeverFaulted) {
  mpx::FaultSpec faults;
  faults.seed = 19;
  faults.drop_rate = 1.0;
  faults.exempt_tags = {7};
  mpx::run_group(
      2,
      [&](mpx::Comm& comm) {
        if (comm.rank() == 0) {
          send_int(comm, 1, 7, 42);
          return;
        }
        EXPECT_EQ(recv_int(comm, 0, 7), 42);
      },
      faults);
}

TEST(FaultInjectionTest, DecisionsAreDeterministic) {
  mpx::FaultSpec faults;
  faults.seed = 23;
  faults.drop_rate = 0.3;
  faults.delay_rate = 0.2;
  faults.duplicate_rate = 0.2;
  faults.corrupt_rate = 0.2;
  faults.exempt_tags = {5};
  const mpx::FaultSpec a = faults;
  const mpx::FaultSpec b = faults;
  faults.seed = 24;
  const mpx::FaultSpec c = faults;
  int differs_from_c = 0;
  for (int source = 0; source < 4; ++source) {
    for (int dest = 0; dest < 4; ++dest) {
      for (std::uint64_t seq = 1; seq <= 16; ++seq) {
        const auto action = mpx::decide(a, source, dest, 3, seq);
        EXPECT_EQ(action, mpx::decide(b, source, dest, 3, seq));
        if (action != mpx::decide(c, source, dest, 3, seq)) ++differs_from_c;
        // Exempt tags are never faulted, whatever the seed.
        EXPECT_EQ(mpx::decide(a, source, dest, 5, seq),
                  mpx::FaultAction::kNone);
      }
    }
  }
  EXPECT_GT(differs_from_c, 0);  // the seed actually matters
}

}  // namespace
