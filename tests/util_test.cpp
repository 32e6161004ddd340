// Unit tests for the util module: RNG, strings, errors, file helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <set>
#include <span>
#include <string_view>
#include <vector>

#include "mpx/fault.hpp"
#include "serve/service.hpp"
#include "store/fault.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"
#include "util/table_io.hpp"
#include "util/timer.hpp"
#include "util/xxhash.hpp"

namespace {

using fv::Rng;

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int agreements = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++agreements;
  }
  EXPECT_LT(agreements, 2);
}

TEST(RngTest, UniformStaysInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.5, 4.0);
    EXPECT_GE(u, -2.5);
    EXPECT_LT(u, 4.0);
  }
}

TEST(RngTest, UniformU64CoversAllResidues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_u64(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(RngTest, UniformU64RejectsZero) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_u64(0), fv::InvalidArgument);
}

TEST(RngTest, NormalMomentsRoughlyStandard) {
  Rng rng(99);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(RngTest, BernoulliFrequencyMatchesP) {
  Rng rng(5);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.25)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

TEST(RngTest, SampleWithoutReplacementIsDistinctAndInRange) {
  Rng rng(3);
  const auto sample = rng.sample_without_replacement(50, 20);
  ASSERT_EQ(sample.size(), 20u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
  for (std::size_t v : sample) EXPECT_LT(v, 50u);
}

TEST(RngTest, SampleFullPopulationIsPermutation) {
  Rng rng(3);
  const auto sample = rng.sample_without_replacement(10, 10);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(RngTest, SampleRejectsOversizedRequest) {
  Rng rng(3);
  EXPECT_THROW(rng.sample_without_replacement(5, 6), fv::InvalidArgument);
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(17);
  std::vector<int> values{1, 2, 3, 4, 5, 6, 7, 8};
  auto shuffled = values;
  rng.shuffle(shuffled);
  auto sorted = shuffled;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, values);
}

TEST(RngTest, SplitStreamsAreIndependent) {
  Rng parent(42);
  Rng child = parent.split();
  // The child must not replay the parent's stream.
  Rng parent_copy(42);
  parent_copy.split();
  EXPECT_NE(child.next_u64(), parent_copy.next_u64() == 0 ? 1 : 0);
  SUCCEED();
}

TEST(StringTest, SplitKeepsEmptyFields) {
  const auto fields = fv::str::split("a\t\tb\t", '\t');
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[2], "b");
  EXPECT_EQ(fields[3], "");
}

TEST(StringTest, SplitSingleField) {
  const auto fields = fv::str::split("hello", ',');
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "hello");
}

TEST(StringTest, TrimRemovesSurroundingWhitespace) {
  EXPECT_EQ(fv::str::trim("  x y \t\r\n"), "x y");
  EXPECT_EQ(fv::str::trim(""), "");
  EXPECT_EQ(fv::str::trim("   "), "");
}

TEST(StringTest, ToLowerAsciiOnly) {
  EXPECT_EQ(fv::str::to_lower("YAL001C"), "yal001c");
}

TEST(StringTest, JoinWithSeparator) {
  EXPECT_EQ(fv::str::join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(fv::str::join({}, ","), "");
}

TEST(StringTest, CaseInsensitiveEquality) {
  EXPECT_TRUE(fv::str::iequals("Heat", "HEAT"));
  EXPECT_FALSE(fv::str::iequals("Heat", "Heat "));
}

TEST(StringTest, CaseInsensitiveContains) {
  EXPECT_TRUE(fv::str::icontains("ribosomal protein L3", "PROTEIN"));
  EXPECT_FALSE(fv::str::icontains("ribosome", "protein"));
  EXPECT_TRUE(fv::str::icontains("anything", ""));
}

TEST(StringTest, ParseDoubleStrict) {
  EXPECT_DOUBLE_EQ(*fv::str::parse_double("1.5"), 1.5);
  EXPECT_DOUBLE_EQ(*fv::str::parse_double(" -2e3 "), -2000.0);
  EXPECT_FALSE(fv::str::parse_double("1.5x").has_value());
  EXPECT_FALSE(fv::str::parse_double("").has_value());
  EXPECT_FALSE(fv::str::parse_double("nanx").has_value());
}

TEST(StringTest, ParseIntStrict) {
  EXPECT_EQ(*fv::str::parse_int("42"), 42);
  EXPECT_EQ(*fv::str::parse_int("-7"), -7);
  EXPECT_FALSE(fv::str::parse_int("4.2").has_value());
  EXPECT_FALSE(fv::str::parse_int("").has_value());
}

TEST(StringTest, AppendG6MatchesPrintf) {
  // The PCL and CDT writers format every value and similarity this way;
  // their files must stay byte-identical to printf's "%.6g".
  std::vector<double> values{0.0,
                             -0.0,
                             1.0,
                             -2.5,
                             0.1,
                             123456.0,
                             1234567.0,
                             0.0001,
                             0.00001,
                             999999.5,
                             1e-300,
                             std::numeric_limits<double>::max(),
                             std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN(),
                             -std::numeric_limits<double>::quiet_NaN()};
  Rng rng(622);
  for (int i = 0; i < (1 << 18); ++i) {
    // Float bit patterns (what the writers format) and doubles in [-4, 4].
    values.push_back(static_cast<double>(std::bit_cast<float>(
        static_cast<std::uint32_t>(rng.next_u64()))));
    values.push_back(rng.uniform(-4.0, 4.0));
  }
  for (const double value : values) {
    char expected[64];
    std::snprintf(expected, sizeof(expected), "%.6g", value);
    std::string got = "x";
    fv::str::append_g6(got, value);
    ASSERT_EQ(got, std::string("x") + expected)
        << std::bit_cast<std::uint64_t>(value);
  }
}

TEST(ErrorTest, RequireThrowsInvalidArgument) {
  EXPECT_THROW(FV_REQUIRE(false, "boom"), fv::InvalidArgument);
  EXPECT_NO_THROW(FV_REQUIRE(true, "fine"));
}

TEST(ErrorTest, AssertThrowsLogicError) {
  EXPECT_THROW(FV_ASSERT(false, "bug"), fv::LogicError);
}

TEST(ErrorTest, ParseErrorCarriesLine) {
  const fv::ParseError e("bad token", 17);
  EXPECT_EQ(e.line(), 17u);
  EXPECT_NE(std::string(e.what()).find("17"), std::string::npos);
}

class TableIoTest : public ::testing::Test {
 protected:
  std::string path_ = (std::filesystem::temp_directory_path() /
                       "fv_table_io_test.txt")
                          .string();
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(TableIoTest, RoundTripLines) {
  fv::write_text_file(path_, "alpha\nbeta\r\ngamma\n");
  const auto lines = fv::read_lines(path_);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "alpha");
  EXPECT_EQ(lines[1], "beta");
  EXPECT_EQ(lines[2], "gamma");
}

TEST_F(TableIoTest, MissingFileThrowsIoError) {
  EXPECT_THROW(fv::read_text_file("/nonexistent/fv/file.txt"), fv::IoError);
}

TEST(TimerTest, MeasuresNonNegativeTime) {
  fv::Timer timer;
  EXPECT_GE(timer.seconds(), 0.0);
  timer.reset();
  EXPECT_GE(timer.millis(), 0.0);
}

// ---- fault_hash --------------------------------------------------------
//
// The seeded fault-decision hash (util/fault.hpp) was extracted from the
// mpx transport's own fault code; mpx decisions for any historical seed
// must never change. The reference below is a verbatim copy of the
// ORIGINAL mpx-local implementation — equivalence against it pins the
// extraction bit-for-bit.

/// Verbatim pre-extraction splitmix64 finalizer from mpx/fault.cpp.
std::uint64_t reference_mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

/// Verbatim pre-extraction mpx uniform_draw.
double reference_uniform_draw(std::uint64_t seed, int source, int dest,
                              int tag, std::uint64_t sequence,
                              std::uint64_t stream) {
  std::uint64_t h = reference_mix64(seed ^ (stream * 0x9e3779b97f4a7c15ull));
  h = reference_mix64(
      h ^
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(source))
       << 32) ^
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(dest)));
  h = reference_mix64(
      h ^
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag)) << 32) ^
      sequence);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

TEST(FaultHashTest, Mix64MatchesOriginalMpxImplementation) {
  for (std::uint64_t x :
       {0ull, 1ull, 42ull, 0xdeadbeefull, 0xffffffffffffffffull,
        0x9e3779b97f4a7c15ull}) {
    EXPECT_EQ(fv::fault_mix64(x), reference_mix64(x)) << "x=" << x;
  }
}

TEST(FaultHashTest, ChainReproducesOriginalMpxEnvelopeDraw) {
  // Sweep envelope coordinates the way mpx chaos runs actually use them.
  for (std::uint64_t seed : {0ull, 7ull, 0xfeedull}) {
    for (int source : {0, 1, 3}) {
      for (int dest : {0, 2}) {
        for (int tag : {0, 5, 1000}) {
          for (std::uint64_t sequence : {0ull, 1ull, 999ull}) {
            const std::uint64_t w1 =
                (static_cast<std::uint64_t>(
                     static_cast<std::uint32_t>(source))
                 << 32) ^
                static_cast<std::uint64_t>(static_cast<std::uint32_t>(dest));
            const std::uint64_t w2 =
                (static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag))
                 << 32) ^
                sequence;
            EXPECT_DOUBLE_EQ(
                fv::fault_uniform(fv::fault_hash(seed, 1, {w1, w2})),
                reference_uniform_draw(seed, source, dest, tag, sequence, 1));
          }
        }
      }
    }
  }
}

TEST(FaultHashTest, MpxFaultPlanDecisionsPinnedAfterExtraction) {
  // End-to-end through the public mpx API: a spec dropping ~30% must drop
  // exactly the messages the reference chain says it drops.
  fv::mpx::FaultSpec spec;
  spec.seed = 0x5eedULL;
  spec.drop_rate = 0.3;
  std::size_t drops = 0;
  for (std::uint64_t sequence = 0; sequence < 500; ++sequence) {
    const bool dropped = fv::mpx::decide(spec, 0, 1, 4, sequence) ==
                         fv::mpx::FaultAction::kDrop;
    const bool reference_dropped =
        reference_uniform_draw(spec.seed, 0, 1, 4, sequence, 1) < 0.3;
    EXPECT_EQ(dropped, reference_dropped) << "sequence=" << sequence;
    drops += dropped ? 1 : 0;
  }
  // Sanity: the rate is actually in effect (not all/none).
  EXPECT_GT(drops, 100u);
  EXPECT_LT(drops, 200u);
}

TEST(FaultHashTest, UniformStaysInUnitInterval) {
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const double u = fv::fault_uniform(fv::fault_mix64(i));
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(FaultHashTest, StreamsAreIndependent) {
  // Same coordinates, different stream -> different decisions (this is
  // what lets the store's fault families not perturb each other).
  std::size_t same = 0;
  for (std::uint64_t op = 0; op < 200; ++op) {
    if (fv::fault_hash(1, 11, {42, op}) == fv::fault_hash(1, 12, {42, op})) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0u);
}

// ---- fault replay ------------------------------------------------------
//
// Every injected fault of every layer, for a fixed seed, folded into one
// XXH64 digest per layer. The expected digests were recorded from the
// commit before the fault core was extracted (when mpx, store and serve
// each drew on the hash chain themselves), so they pin that every decision
// stream survived the extraction bit for bit.

std::uint64_t digest(const std::vector<std::uint64_t>& trace) {
  return fv::xxhash64_of(std::span<const std::uint64_t>(trace));
}

TEST(FaultReplayTest, MpxActionsAndCorruptIndicesArePinned) {
  fv::mpx::FaultSpec spec;
  spec.seed = 0x29;
  spec.drop_rate = 0.1;
  spec.delay_rate = 0.15;
  spec.duplicate_rate = 0.05;
  spec.corrupt_rate = 0.2;
  spec.exempt_tags = {5};
  std::vector<std::uint64_t> trace;
  std::size_t corrupt = 0;
  for (int source = 0; source < 4; ++source) {
    for (int dest = 0; dest < 4; ++dest) {
      for (const int tag : {2, 4, 5, 1000}) {
        for (std::uint64_t sequence = 0; sequence < 256; ++sequence) {
          const fv::mpx::FaultAction action =
              fv::mpx::decide(spec, source, dest, tag, sequence);
          const std::size_t payload = 1 + (sequence * 7 + tag) % 300;
          trace.push_back(static_cast<std::uint64_t>(action));
          trace.push_back(fv::mpx::corrupt_index(spec, sequence, payload));
          corrupt += action == fv::mpx::FaultAction::kCorrupt ? 1 : 0;
        }
      }
    }
  }
  EXPECT_GT(corrupt, 0u);
  EXPECT_EQ(digest(trace), 0xc7676c7f8da7e2f5ull);
}

TEST(FaultReplayTest, StoreEffectsArePinned) {
  fv::store::FaultSpec spec;
  spec.seed = 0x29;
  spec.torn_write_rate = 0.25;
  spec.bitflip_rate = 0.25;
  spec.truncate_rate = 0.25;
  spec.enospc_rate = 0.25;
  spec.crash_at_op = 41;
  fv::store::FaultInjector faults(spec);
  // One entry pair per op: an effect code and its value.
  enum : std::uint64_t { kClean, kEnospc, kTorn, kFlip, kTruncate, kCrash };
  std::vector<std::uint64_t> trace;
  const auto record = [&](const auto& op) {
    try {
      op();
    } catch (const fv::InjectedCrash& crash) {
      trace.push_back(kCrash);
      trace.push_back(crash.op);
    }
  };
  for (std::size_t round = 0; round < 40; ++round) {
    for (const std::string path : {"blob/a.tmp", "blob/b.tmp", "blob"}) {
      record([&] {
        try {
          faults.on_allocate(path, 100 + round);
          trace.insert(trace.end(), {kClean, 0});
        } catch (const fv::IoError&) {
          trace.insert(trace.end(), {kEnospc, 0});
        }
      });
      record([&] {
        const std::vector<std::byte> src(64 + round, std::byte{0x5a});
        std::vector<std::byte> dst(src.size());
        faults.copy(path, dst.data(), src.data(), src.size());
        const auto diff = std::mismatch(dst.begin(), dst.end(), src.begin());
        const auto at = static_cast<std::uint64_t>(diff.first - dst.begin());
        if (diff.first == dst.end()) {
          trace.insert(trace.end(), {kClean, 0});
        } else {
          trace.insert(trace.end(),
                       {*diff.first == std::byte{0} ? kTorn : kFlip, at});
        }
      });
      record([&] {
        const auto cut = faults.on_sync(path, 100 + round);
        trace.insert(trace.end(), {cut ? kTruncate : kClean, cut.value_or(0)});
      });
      record([&] {
        faults.on_op();
        trace.insert(trace.end(), {kClean, 0});
      });
    }
  }
  for (const std::uint64_t effect : {kEnospc, kTorn, kFlip, kTruncate}) {
    std::size_t seen = 0;
    for (std::size_t i = 0; i < trace.size(); i += 2) {
      seen += trace[i] == effect ? 1 : 0;
    }
    EXPECT_GT(seen, 0u) << "effect " << effect;
  }
  EXPECT_EQ(faults.ops(), 480u);
  EXPECT_EQ(faults.stats().crashes.load(), 1u);
  EXPECT_EQ(digest(trace), 0xbf52c31ac765e1e7ull);
}

TEST(FaultReplayTest, ServeRejectAndDelayDecisionsArePinned) {
  fv::serve::ServeFaultSpec spec;
  spec.seed = 0x29;
  spec.reject_rate = 0.3;
  spec.delay_rate = 0.2;
  std::vector<std::uint64_t> trace;
  std::size_t rejects = 0;
  for (std::uint64_t tick = 1; tick <= 10000; ++tick) {
    const bool reject = spec.rejects(tick);
    const bool delay = spec.delays(tick);
    trace.push_back((reject ? 1u : 0u) | (delay ? 2u : 0u));
    rejects += reject ? 1 : 0;
  }
  EXPECT_GT(rejects, 2800u);
  EXPECT_LT(rejects, 3200u);
  EXPECT_EQ(digest(trace), 0x1f041d7a847d8057ull);
}

// ---- xxhash64 ----------------------------------------------------------

std::uint64_t hash_str(std::string_view s, std::uint64_t seed = 0) {
  return fv::xxhash64(
      std::as_bytes(std::span<const char>(s.data(), s.size())), seed);
}

TEST(XxHashTest, MatchesPublishedReferenceVectors) {
  // Reference vectors of the canonical XXH64 implementation. These pin the
  // on-disk artifact checksum format: a change here is a format break.
  EXPECT_EQ(hash_str(""), 0xEF46DB3751D8E999ull);
  EXPECT_EQ(hash_str("abc"), 0x44BC2CF5AD770999ull);
  EXPECT_EQ(hash_str("The quick brown fox jumps over the lazy dog"),
            0x0B242D361FDA71BCull);
}

TEST(XxHashTest, SeedChangesHash) {
  EXPECT_NE(hash_str("abc", 0), hash_str("abc", 1));
}

TEST(XxHashTest, EveryTailLengthIsCovered) {
  // 0..70 bytes crosses every code path: short-input, the 32-byte stripe
  // loop, and all 8/4/1-byte tail combinations. Flipping the last byte
  // must always change the hash.
  std::string s;
  std::uint64_t previous = hash_str(s);
  for (std::size_t len = 1; len <= 70; ++len) {
    s.push_back(static_cast<char>('a' + len % 26));
    const std::uint64_t h = hash_str(s);
    EXPECT_NE(h, previous) << "len=" << len;
    std::string flipped = s;
    flipped.back() = static_cast<char>(flipped.back() ^ 0x20);
    EXPECT_NE(hash_str(flipped), h) << "len=" << len;
    previous = h;
  }
}

TEST(XxHashStreamTest, AnyChunkingMatchesOneShot) {
  // The chunked artifact validator (PageResidency::kOnDemand) hashes the
  // payload through Xxh64Stream in arbitrary-size updates; the result must
  // equal the one-shot hash at EVERY split point or mapped and prefaulted
  // opens would disagree about validity.
  fv::Rng rng(424242);
  std::vector<std::byte> buffer(4096 + 37);  // off 32-byte stripe alignment
  for (auto& b : buffer) {
    b = static_cast<std::byte>(rng.uniform_u64(256));
  }
  const std::span<const std::byte> bytes(buffer);
  const std::uint64_t expected = fv::xxhash64(bytes);

  // Every split of the first 160 bytes plus a sweep of coarse splits.
  for (std::size_t split = 0; split <= bytes.size();
       split += (split < 160 ? 1 : 509)) {
    fv::Xxh64Stream stream;
    stream.update(bytes.first(split));
    stream.update(bytes.subspan(split));
    EXPECT_EQ(stream.digest(), expected) << "split=" << split;
  }

  // Many tiny updates; digest() must also be non-consuming.
  fv::Xxh64Stream stream;
  for (std::size_t i = 0; i < bytes.size(); i += 7) {
    stream.update(bytes.subspan(i, std::min<std::size_t>(7, bytes.size() - i)));
  }
  EXPECT_EQ(stream.digest(), expected);
  EXPECT_EQ(stream.digest(), expected);
}

}  // namespace
