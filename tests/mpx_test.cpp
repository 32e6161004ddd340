// Tests for the mpx message-passing substrate: point-to-point semantics,
// collectives (validated against sequential references on random payloads),
// and failure propagation.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <string>
#include <thread>

#include "mpx/communicator.hpp"
#include "render/color.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace {

namespace mpx = fv::mpx;

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
  EXPECT_FALSE(box.try_receive(9, 9).has_value());
  EXPECT_TRUE(box.try_receive(mpx::kAnySource, mpx::kAnyTag).has_value());
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
      comm.send_value<int>(1, 0, 123);
      const int reply = comm.recv_value<int>(1, 1);
      EXPECT_EQ(reply, 124);
      checks.fetch_add(1);
    } else {
      const int value = comm.recv_value<int>(0, 0);
      comm.send_value<int>(0, 1, value + 1);
    }
  });
  EXPECT_EQ(checks.load(), 1);
}

TEST(RunGroupTest, SingleRankGroupWorks) {
  mpx::run_group(1, [&](mpx::Comm& comm) {
    EXPECT_EQ(comm.size(), 1);
    comm.barrier();
    std::vector<int> data{1, 2, 3};
    comm.broadcast(0, data);
    EXPECT_EQ(data.size(), 3u);
    EXPECT_DOUBLE_EQ(comm.all_reduce_sum(5.0), 5.0);
  });
}

TEST(RunGroupTest, UserTagsMustBeNonNegative) {
  EXPECT_THROW(mpx::run_group(2,
                              [&](mpx::Comm& comm) {
                                if (comm.rank() == 0) {
                                  comm.send_value<int>(1, -3, 1);
                                } else {
                                  comm.recv_value<int>(0, -3);
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
  // Every rank increments, barriers, then checks the full count — fails if
  // the barrier does not separate the phases.
  constexpr int kRanks = 4;
  std::atomic<int> phase_one{0};
  mpx::run_group(kRanks, [&](mpx::Comm& comm) {
    phase_one.fetch_add(1);
    comm.barrier();
    EXPECT_EQ(phase_one.load(), kRanks);
    comm.barrier();
  });
}

TEST(CollectiveTest, BroadcastDeliversRootBuffer) {
  mpx::run_group(4, [&](mpx::Comm& comm) {
    std::vector<int> data;
    if (comm.rank() == 2) data = {10, 20, 30, 40, 50};
    comm.broadcast(2, data);
    EXPECT_EQ(data, (std::vector<int>{10, 20, 30, 40, 50}));
  });
}

TEST(CollectiveTest, RepeatedBroadcastsStayOrdered) {
  mpx::run_group(3, [&](mpx::Comm& comm) {
    for (int round = 0; round < 20; ++round) {
      std::vector<int> data;
      if (comm.rank() == 0) data = {round, round + 1};
      comm.broadcast(0, data);
      ASSERT_EQ(data.size(), 2u);
      EXPECT_EQ(data[0], round);
    }
  });
}

TEST(CollectiveTest, GatherCollectsInRankOrder) {
  mpx::run_group(4, [&](mpx::Comm& comm) {
    std::vector<int> mine(static_cast<std::size_t>(comm.rank()) + 1,
                          comm.rank());
    const auto parts = comm.gather(0, std::span<const int>(mine));
    if (comm.rank() == 0) {
      ASSERT_EQ(parts.size(), 4u);
      for (int r = 0; r < 4; ++r) {
        const auto& part = parts[static_cast<std::size_t>(r)];
        ASSERT_EQ(part.size(), static_cast<std::size_t>(r) + 1);
        for (int v : part) EXPECT_EQ(v, r);
      }
    } else {
      EXPECT_TRUE(parts.empty());
    }
  });
}

TEST(CollectiveTest, ScatterHandsOutParts) {
  mpx::run_group(3, [&](mpx::Comm& comm) {
    std::vector<std::vector<int>> parts;
    if (comm.rank() == 1) {
      parts = {{0}, {1, 1}, {2, 2, 2}};
    }
    const auto mine = comm.scatter(1, parts);
    ASSERT_EQ(mine.size(), static_cast<std::size_t>(comm.rank()) + 1);
    for (int v : mine) EXPECT_EQ(v, comm.rank());
  });
}

TEST(CollectiveTest, AllGatherValueOrdered) {
  mpx::run_group(5, [&](mpx::Comm& comm) {
    const auto values = comm.all_gather_value<int>(comm.rank() * 10);
    ASSERT_EQ(values.size(), 5u);
    for (int r = 0; r < 5; ++r) {
      EXPECT_EQ(values[static_cast<std::size_t>(r)], r * 10);
    }
  });
}

TEST(CollectiveTest, ReduceMatchesSequentialReference) {
  // Random payloads, sum and max reductions vs locally computed reference.
  for (int trial = 0; trial < 5; ++trial) {
    fv::Rng rng(static_cast<std::uint64_t>(trial) + 100);
    constexpr int kRanks = 4;
    std::vector<double> inputs(kRanks);
    for (double& v : inputs) v = rng.uniform(-10.0, 10.0);
    const double expected_sum =
        std::accumulate(inputs.begin(), inputs.end(), 0.0);
    const double expected_max =
        *std::max_element(inputs.begin(), inputs.end());

    mpx::run_group(kRanks, [&](mpx::Comm& comm) {
      const double mine = inputs[static_cast<std::size_t>(comm.rank())];
      const double sum = comm.reduce(
          0, mine, [](double a, double b) { return a + b; });
      if (comm.rank() == 0) {
        EXPECT_NEAR(sum, expected_sum, 1e-9);
      }
      const double max = comm.reduce(
          0, mine, [](double a, double b) { return std::max(a, b); });
      if (comm.rank() == 0) {
        EXPECT_NEAR(max, expected_max, 1e-12);
      }
      EXPECT_NEAR(comm.all_reduce_sum(mine), expected_sum, 1e-9);
    });
  }
}

TEST(CollectiveTest, InvalidRootThrows) {
  // Both ranks hit the same FV_REQUIRE independently, so the aggregated
  // GroupFailure (not a single rank's InvalidArgument) surfaces.
  try {
    mpx::run_group(2, [&](mpx::Comm& comm) {
      std::vector<int> data{1};
      comm.broadcast(7, data);
    });
    FAIL() << "expected GroupFailure";
  } catch (const mpx::GroupFailure& failure) {
    ASSERT_EQ(failure.failures().size(), 2u);
    EXPECT_EQ(failure.failures()[0].rank, 0);
    EXPECT_EQ(failure.failures()[1].rank, 1);
  }
}

// Property sweep over group sizes: a pipeline where each rank forwards an
// accumulating vector to the next rank, validating ordering and payload
// integrity end to end.
class GroupSizePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(GroupSizePropertyTest, RingAccumulation) {
  const int ranks = GetParam();
  mpx::run_group(ranks, [&](mpx::Comm& comm) {
    const int next = (comm.rank() + 1) % comm.size();
    const int prev = (comm.rank() - 1 + comm.size()) % comm.size();
    if (comm.rank() == 0) {
      std::vector<int> token{0};
      if (comm.size() > 1) {
        comm.send_vector<int>(next, 0, token);
        token = comm.recv_vector<int>(prev, 0);
      }
      ASSERT_EQ(token.size(), static_cast<std::size_t>(comm.size()));
      for (int i = 0; i < comm.size(); ++i) {
        EXPECT_EQ(token[static_cast<std::size_t>(i)], i);
      }
    } else {
      auto token = comm.recv_vector<int>(prev, 0);
      token.push_back(comm.rank());
      comm.send_vector<int>(next, 0, token);
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
  EXPECT_FALSE(box.try_receive(0, 3).has_value());
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

TEST(RunGroupTest, ReservedTagRejectedOnUserSend) {
  EXPECT_THROW(
      mpx::run_group(1, [&](mpx::Comm& comm) { comm.send(0, -2, {}); }),
      fv::InvalidArgument);
}

// -- failure aggregation -----------------------------------------------------

TEST(RunGroupTest, AggregatesMultiRankFailures) {
  try {
    mpx::run_group(2, [&](mpx::Comm& comm) {
      comm.barrier();  // both ranks commit to failing independently
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

TEST(CollectiveTest, NonRootThrowMidGather) {
  // A non-root dying before it contributes unblocks the root's collective
  // wait via the abort, and the original error is what callers see.
  EXPECT_THROW(
      mpx::run_group(3,
                     [&](mpx::Comm& comm) {
                       if (comm.rank() == 2) {
                         throw std::runtime_error("node lost mid-gather");
                       }
                       const std::vector<int> mine{comm.rank()};
                       comm.gather<int>(0, mine);
                     }),
      std::runtime_error);
}

// -- deadlines ---------------------------------------------------------------

TEST(DeadlineTest, RecvForTimesOut) {
  EXPECT_THROW(
      mpx::run_group(1,
                     [&](mpx::Comm& comm) {
                       comm.recv_for(std::chrono::milliseconds(10), 0, 5);
                     }),
      fv::TimeoutError);
}

TEST(DeadlineTest, TryRecvUntilReturnsNullopt) {
  mpx::run_group(1, [&](mpx::Comm& comm) {
    const auto got = comm.try_recv_until(
        mpx::Comm::Clock::now() + std::chrono::milliseconds(10), 0, 5);
    EXPECT_FALSE(got.has_value());
  });
}

TEST(DeadlineTest, RecvForReturnsEarlyWhenMessageArrives) {
  mpx::run_group(2, [&](mpx::Comm& comm) {
    if (comm.rank() == 1) {
      comm.send_value<int>(0, 9, 41);
      return;
    }
    // Generous timeout: the assertion is that we get the value, not timing.
    const auto message = comm.recv_for(std::chrono::milliseconds(5000), 1, 9);
    mpx::PayloadReader reader(message.payload);
    EXPECT_EQ(reader.read<int>(), 41);
  });
}

TEST(DeadlineTest, BarrierDeadlineThrowsTimeout) {
  EXPECT_THROW(
      mpx::run_group(2,
                     [&](mpx::Comm& comm) {
                       if (comm.rank() == 1) {
                         std::this_thread::sleep_for(
                             std::chrono::milliseconds(300));
                         try {
                           comm.barrier();
                         } catch (const fv::AbortError&) {
                           // expected: rank 0's timeout aborted the group
                         }
                         return;
                       }
                       comm.barrier(std::chrono::milliseconds(30));
                     }),
      fv::TimeoutError);
}

TEST(DeadlineTest, BroadcastDeadlineOnSilentRoot) {
  EXPECT_THROW(
      mpx::run_group(2,
                     [&](mpx::Comm& comm) {
                       if (comm.rank() == 0) return;  // root never broadcasts
                       std::vector<int> data;
                       comm.broadcast(0, data, std::chrono::milliseconds(30));
                     }),
      fv::TimeoutError);
}

// -- deterministic fault injection -------------------------------------------

TEST(FaultInjectionTest, DropAllMakesRecvComeUpEmpty) {
  mpx::FaultSpec faults;
  faults.seed = 7;
  faults.drop_rate = 1.0;
  mpx::run_group(
      2,
      [&](mpx::Comm& comm) {
        if (comm.rank() == 0) {
          comm.send_value<int>(1, 3, 99);
          comm.barrier();
          return;
        }
        comm.barrier();  // the send has definitely happened (and been eaten)
        EXPECT_FALSE(comm
                         .try_recv_until(mpx::Comm::Clock::now() +
                                             std::chrono::milliseconds(20),
                                         0, 3)
                         .has_value());
        ASSERT_NE(comm.fault_stats(), nullptr);
        EXPECT_EQ(comm.fault_stats()->dropped.load(), 1u);
      },
      faults);
}

TEST(FaultInjectionTest, DuplicatesDeliveredOnce) {
  mpx::FaultSpec faults;
  faults.seed = 11;
  faults.duplicate_rate = 1.0;
  mpx::run_group(
      2,
      [&](mpx::Comm& comm) {
        if (comm.rank() == 0) {
          for (int i = 1; i <= 3; ++i) comm.send_value<int>(1, 3, i * 10);
          comm.barrier();
          return;
        }
        comm.barrier();
        for (int i = 1; i <= 3; ++i) {
          EXPECT_EQ(comm.recv_value<int>(0, 3), i * 10);  // order survives
        }
        EXPECT_FALSE(comm.try_recv(0, 3).has_value());  // duplicates gone
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
                       comm.send_value<int>(1, 3, 1234);
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
          comm.send_value<int>(0, 3, 5);  // first op: never happens
          FAIL() << "rank 1 should have crashed before this";
        }
        EXPECT_FALSE(comm
                         .try_recv_until(mpx::Comm::Clock::now() +
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
          comm.send_value<int>(1, 7, 42);
          return;
        }
        EXPECT_EQ(comm.recv_value<int>(0, 7), 42);
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
  const mpx::FaultPlan a(faults);
  const mpx::FaultPlan b(faults);
  faults.seed = 24;
  const mpx::FaultPlan c(faults);
  int differs_from_c = 0;
  for (int source = 0; source < 4; ++source) {
    for (int dest = 0; dest < 4; ++dest) {
      for (std::uint64_t seq = 1; seq <= 16; ++seq) {
        const auto action = a.decide(source, dest, 3, seq);
        EXPECT_EQ(action, b.decide(source, dest, 3, seq));
        if (action != c.decide(source, dest, 3, seq)) ++differs_from_c;
        // Reserved tags are never faulted, whatever the seed.
        EXPECT_EQ(a.decide(source, dest, -2, seq), mpx::FaultAction::kNone);
      }
    }
  }
  EXPECT_GT(differs_from_c, 0);  // the seed actually matters
}

}  // namespace
