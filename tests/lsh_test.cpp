// Tests for the LSH signature layer (src/sim/lsh.hpp) and the kApprox
// top-k strategy: parameter-contract rejection, signature determinism
// across seeds and thread pools, POPCNT-vs-portable Hamming kernel
// equivalence (against a brute-force bit loop), identical/negated-row
// signature geometry, a seeded planted-module recall harness (recall >=
// 0.95 at k=10/256 bits — the CI recall smoke), rescored-distance
// bit-identity against the exact path for every returned pair, 4-thread
// schedule independence, all-rows-identical and heavily-masked degenerate
// inputs with the min_common filter, Euclidean rejection, and the
// k >= n-1 exact fallback, and the candidate sweep pinned against
// brute-force slice collisions (single probe) and recorded digests
// (multi-probe) on owned and store-borrowed indexes.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "expr/expression_matrix.hpp"
#include "par/thread_pool.hpp"
#include "sim/lsh.hpp"
#include "sim/similarity_engine.hpp"
#include "stats/descriptive.hpp"
#include "store/artifact_store.hpp"
#include "store/cached.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/xxhash.hpp"

namespace {

namespace ex = fv::expr;
namespace sm = fv::sim;
namespace st = fv::stats;

/// Planted-module compendium: rows_per_module consecutive rows share one
/// sinusoid over two of the 16-column datasets plus small iid noise, so
/// within-module correlation is ~0.98 and cross-module rows are near
/// orthogonal — the shape the recall guarantee is specified on.
ex::ExpressionMatrix module_matrix(std::size_t rows, std::size_t cols,
                                   std::size_t rows_per_module,
                                   std::uint64_t seed) {
  fv::Rng rng(seed);
  const std::size_t datasets = cols / 16;
  ex::ExpressionMatrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t module = r / rows_per_module;
    const std::size_t d0 = module % datasets;
    const std::size_t d1 = (module + 1 + module / datasets) % datasets;
    const double freq = 0.35 + 0.07 * static_cast<double>(module % 7);
    const double phase = 0.5 * static_cast<double>(module);
    for (std::size_t c = 0; c < cols; ++c) {
      const std::size_t dataset = c / 16;
      double value = rng.normal(0.0, 0.05);
      if (dataset == d0 || dataset == d1) {
        value += std::sin(freq * static_cast<double>(c + 1) + phase);
      }
      m.set(r, c, static_cast<float>(value));
    }
  }
  return m;
}

ex::ExpressionMatrix random_masked_matrix(std::size_t rows, std::size_t cols,
                                          double missing_rate,
                                          std::uint64_t seed) {
  fv::Rng rng(seed);
  ex::ExpressionMatrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    const double sign = r % 2 == 0 ? 1.0 : -1.0;
    for (std::size_t c = 0; c < cols; ++c) {
      if (rng.uniform() < missing_rate) continue;  // stays missing (NaN)
      const double pattern = std::sin(0.31 * static_cast<double>(c + 1));
      m.set(r, c, static_cast<float>(sign * pattern + rng.normal(0.0, 0.4)));
    }
  }
  return m;
}

void expect_tables_identical(const sm::NeighborTable& a,
                             const sm::NeighborTable& b) {
  ASSERT_EQ(a.count, b.count);
  ASSERT_EQ(a.k, b.k);
  EXPECT_EQ(a.indices, b.indices);
  EXPECT_EQ(a.distances, b.distances);
  EXPECT_EQ(a.valid, b.valid);
}

/// Every (row, neighbor, distance) a table reports must carry the exact
/// engine distance, bit for bit — the kApprox honesty contract.
void expect_bit_identical_distances(const sm::NeighborTable& table,
                                    const sm::SimilarityEngine& engine) {
  for (std::size_t i = 0; i < table.count; ++i) {
    const auto idx = table.neighbors(i);
    const auto dist = table.neighbor_distances(i);
    for (std::size_t s = 0; s < idx.size(); ++s) {
      const std::size_t a = std::min<std::size_t>(i, idx[s]);
      const std::size_t b = std::max<std::size_t>(i, idx[s]);
      EXPECT_EQ(dist[s], engine.distance(a, b))
          << "row " << i << " slot " << s;
    }
  }
}

TEST(LshIndexTest, RejectsOutOfContractParams) {
  fv::par::ThreadPool pool(1);
  const auto m = module_matrix(32, 96, 8, 11);
  const auto engine = sm::SimilarityEngine::from_rows(m, sm::Metric::kPearson);
  const auto build = [&](sm::LshParams p) { sm::LshIndex(engine, p, pool); };
  EXPECT_THROW(build({.bits = 48}), fv::InvalidArgument);    // not /64
  EXPECT_THROW(build({.bits = 0}), fv::InvalidArgument);     // below range
  EXPECT_THROW(build({.bits = 2048}), fv::InvalidArgument);  // above range
  EXPECT_THROW(build({.tables = 0}), fv::InvalidArgument);
  EXPECT_THROW(build({.bits = 64, .tables = 65}), fv::InvalidArgument);
  EXPECT_THROW(build({.probes = 0}), fv::InvalidArgument);
  // slice_bits = 256/16 = 16, so 18 probes (17 flips) is out of contract.
  EXPECT_THROW(build({.probes = 18}), fv::InvalidArgument);
  const auto euclid =
      sm::SimilarityEngine::from_rows(m, sm::Metric::kEuclidean);
  EXPECT_THROW(sm::LshIndex(euclid, sm::LshParams{}, pool),
               fv::InvalidArgument);
}

TEST(LshIndexTest, SignaturesDeterministicAcrossPoolsAndSeedSensitive) {
  const auto m = module_matrix(96, 96, 12, 23);
  const auto engine = sm::SimilarityEngine::from_rows(m, sm::Metric::kPearson);
  fv::par::ThreadPool serial(1);
  fv::par::ThreadPool pooled(4);
  const sm::LshIndex base(engine, sm::LshParams{}, serial);
  for (int repeat = 0; repeat < 3; ++repeat) {
    const sm::LshIndex again(engine, sm::LshParams{}, pooled);
    for (std::size_t i = 0; i < engine.size(); ++i) {
      const auto a = base.signature(i);
      const auto b = again.signature(i);
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << "row " << i;
    }
  }
  sm::LshParams reseeded;
  reseeded.seed ^= 0x9e3779b97f4a7c15ULL;
  const sm::LshIndex other(engine, reseeded, serial);
  std::size_t differing = 0;
  for (std::size_t i = 0; i < engine.size(); ++i) {
    const auto a = base.signature(i);
    const auto b = other.signature(i);
    if (!std::equal(a.begin(), a.end(), b.begin(), b.end())) ++differing;
  }
  // A different hyperplane bank must produce different signatures for
  // essentially every non-degenerate row.
  EXPECT_GT(differing, engine.size() / 2);
}

TEST(LshHammingTest, PopcountAndPortableKernelsAgree) {
  fv::Rng rng(77);
  for (const std::size_t words : {1u, 2u, 4u, 7u, 16u}) {
    for (int trial = 0; trial < 50; ++trial) {
      std::vector<std::uint64_t> a(words), b(words);
      for (std::size_t w = 0; w < words; ++w) {
        a[w] = rng.next_u64();
        // Mix in sparse and dense words so per-word popcounts span 0..64.
        b[w] = trial % 3 == 0 ? a[w] : (trial % 3 == 1 ? ~a[w] : rng.next_u64());
      }
      // Brute-force bit loop: the semantics both kernels must match.
      std::size_t expected = 0;
      for (std::size_t w = 0; w < words; ++w) {
        for (std::size_t bit = 0; bit < 64; ++bit) {
          expected += ((a[w] ^ b[w]) >> bit) & 1u;
        }
      }
      EXPECT_EQ(sm::hamming_words(a.data(), b.data(), words), expected);
      EXPECT_EQ(sm::hamming_words_portable(a.data(), b.data(), words),
                expected);
    }
  }
}

TEST(LshIndexTest, IdenticalAndNegatedRowsPinSignatureGeometry) {
  // Row 1 duplicates row 0; row 2 is its negation. Identical normalized
  // rows project identically (Hamming 0, estimated distance 0); a negated
  // row flips every projection sign (Hamming == bits, estimate ~2).
  const std::size_t cols = 32;
  std::vector<float> flat(3 * cols);
  for (std::size_t c = 0; c < cols; ++c) {
    const float v =
        static_cast<float>(std::sin(0.41 * static_cast<double>(c + 1)));
    flat[c] = v;
    flat[cols + c] = v;
    flat[2 * cols + c] = -v;
  }
  const auto engine = sm::SimilarityEngine::from_profiles(
      flat, 3, cols, sm::Metric::kPearson);
  fv::par::ThreadPool pool(2);
  const sm::LshIndex index(engine, sm::LshParams{}, pool);
  EXPECT_EQ(index.hamming(0, 1), 0u);
  EXPECT_EQ(index.estimated_distance(0, 1), 0.0);
  EXPECT_EQ(index.hamming(0, 2), index.bits());
  EXPECT_NEAR(index.estimated_distance(0, 2), 2.0, 1e-12);
}

TEST(LshTopKTest, PlantedModuleRecallAtLeast95Percent) {
  // The CI recall smoke: n=512 rows in 32 planted modules of 16, k=10,
  // default 256-bit/16-table/2-probe params. Within-module correlation
  // ~0.98 puts every true neighbor inside the caller's module, and the
  // collision probability math (p_bit ~ 0.94, 16-bit slices, 16 tables)
  // predicts per-neighbor recall ~0.999 — 0.95 leaves honest slack.
  const auto m = module_matrix(512, 96, 16, 4242);
  const auto engine = sm::SimilarityEngine::from_rows(m, sm::Metric::kPearson);
  fv::par::ThreadPool pool(4);
  const std::size_t k = 10;
  const auto exact =
      engine.top_k_neighbors(k, pool, 0, sm::TopKStrategy::kExact);
  sm::TopKStats stats;
  const auto approx = engine.top_k_neighbors(
      k, pool, 0, sm::TopKStrategy::kApprox, &stats);

  std::size_t hits = 0, wanted = 0;
  for (std::size_t i = 0; i < exact.count; ++i) {
    const auto want = exact.neighbors(i);
    const auto got = approx.neighbors(i);
    const std::set<std::uint32_t> got_set(got.begin(), got.end());
    wanted += want.size();
    for (const auto j : want) hits += got_set.count(j);
  }
  const double recall =
      static_cast<double>(hits) / static_cast<double>(wanted);
  EXPECT_GE(recall, 0.95) << hits << "/" << wanted;

  // Honesty of the stats block: the LSH path really ran, rescored a
  // sub-quadratic fraction of all pairs, and reported it.
  EXPECT_EQ(stats.signatures_built, engine.size());
  EXPECT_GT(stats.buckets_probed, 0u);
  EXPECT_GT(stats.candidates_generated, 0u);
  EXPECT_GT(stats.candidates_rescored, 0u);
  EXPECT_LE(stats.candidates_rescored, stats.candidates_generated);
  EXPECT_GT(stats.exact_dot_fraction, 0.0);
  EXPECT_LT(stats.exact_dot_fraction, 0.5);

  expect_bit_identical_distances(approx, engine);
}

TEST(LshTopKTest, DeterministicUnderAnyThreadCount) {
  const auto m = module_matrix(192, 96, 16, 99);
  const auto engine = sm::SimilarityEngine::from_rows(m, sm::Metric::kPearson);
  fv::par::ThreadPool serial(1);
  const auto base = engine.top_k_neighbors(8, serial, 0,
                                           sm::TopKStrategy::kApprox);
  fv::par::ThreadPool pooled(4);
  for (int repeat = 0; repeat < 5; ++repeat) {
    const auto again = engine.top_k_neighbors(8, pooled, 0,
                                              sm::TopKStrategy::kApprox);
    expect_tables_identical(base, again);
  }
}

TEST(LshTopKTest, AllRowsIdenticalMatchesExactBitwise) {
  // 130 identical rows (crossing the 64-row tile edge): every pair
  // collides in every table, all distances are 0, and the (distance,
  // index) total order must resolve ties exactly as the exact path does.
  const std::size_t cols = 48;
  ex::ExpressionMatrix m(130, cols);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      m.set(r, c,
            static_cast<float>(std::cos(0.23 * static_cast<double>(c + 1))));
    }
  }
  const auto engine = sm::SimilarityEngine::from_rows(m, sm::Metric::kPearson);
  fv::par::ThreadPool pool(3);
  const auto exact =
      engine.top_k_neighbors(6, pool, 0, sm::TopKStrategy::kExact);
  sm::TopKStats stats;
  const auto approx = engine.top_k_neighbors(
      6, pool, 0, sm::TopKStrategy::kApprox, &stats);
  expect_tables_identical(exact, approx);
  // The degenerate bucket honestly rescans itself: all n(n-1)/2 pairs.
  EXPECT_EQ(stats.candidates_rescored, 130u * 129u / 2u);
}

TEST(LshTopKTest, MaskedRowsHonorMinCommonDuringRescoring) {
  // 40% missing cells: signatures degrade (zero-filled projections) but
  // whatever IS returned must still satisfy min_common and carry exact
  // distances — the filter runs at rescoring, never in the candidate
  // stage, so no masked pair can sneak through unfiltered.
  const std::size_t min_common = 6;
  const auto m = random_masked_matrix(96, 12, 0.4, 3131);
  const auto engine = sm::SimilarityEngine::from_rows(m, sm::Metric::kPearson);
  fv::par::ThreadPool pool(2);
  sm::TopKStats stats;
  const auto table = engine.top_k_neighbors(
      5, pool, min_common, sm::TopKStrategy::kApprox, &stats);
  EXPECT_EQ(stats.signatures_built, engine.size());
  for (std::size_t i = 0; i < table.count; ++i) {
    for (const auto j : table.neighbors(i)) {
      std::size_t common = 0;
      for (std::size_t c = 0; c < engine.length(); ++c) {
        if (engine.value_present(i, c) && engine.value_present(j, c)) {
          ++common;
        }
      }
      EXPECT_GE(common, min_common) << "pair " << i << "," << j;
    }
  }
  expect_bit_identical_distances(table, engine);
}

TEST(LshTopKTest, EuclideanRejectedWithTypedError) {
  const auto m = module_matrix(32, 96, 8, 7);
  const auto engine =
      sm::SimilarityEngine::from_rows(m, sm::Metric::kEuclidean);
  fv::par::ThreadPool pool(1);
  EXPECT_THROW(
      engine.top_k_neighbors(3, pool, 0, sm::TopKStrategy::kApprox),
      fv::InvalidArgument);
  // kAuto on Euclidean still routes to kExact and succeeds.
  const auto table = engine.top_k_neighbors(3, pool);
  EXPECT_EQ(table.count, engine.size());
}

TEST(LshTopKTest, LargeKFallsBackToExact) {
  // k >= n-1 wants every neighbor; a candidate stage can only lose
  // recall. The fallback must be exact, bitwise, and the stats must say
  // the LSH path never ran.
  const auto m = module_matrix(40, 96, 8, 55);
  const auto engine = sm::SimilarityEngine::from_rows(m, sm::Metric::kPearson);
  fv::par::ThreadPool pool(2);
  const auto exact =
      engine.top_k_neighbors(64, pool, 0, sm::TopKStrategy::kExact);
  sm::TopKStats stats;
  const auto approx = engine.top_k_neighbors(
      64, pool, 0, sm::TopKStrategy::kApprox, &stats);
  expect_tables_identical(exact, approx);
  EXPECT_EQ(stats.signatures_built, 0u);
  EXPECT_EQ(stats.exact_dot_fraction, 1.0);
}

/// The inputs the candidate sweep is pinned on: planted modules (large
/// buckets, many repeat collisions across tables), iid random rows (almost
/// no collisions) and 130 identical rows (one bucket holding everything).
struct SweepInput {
  const char* name;
  ex::ExpressionMatrix matrix;
};

std::vector<SweepInput> sweep_inputs() {
  std::vector<SweepInput> inputs;
  inputs.push_back({"modules", module_matrix(600, 96, 20, 515)});
  ex::ExpressionMatrix random(600, 96);
  fv::Rng rng(616);
  for (std::size_t r = 0; r < random.rows(); ++r) {
    for (std::size_t c = 0; c < random.cols(); ++c) {
      random.set(r, c, static_cast<float>(rng.normal()));
    }
  }
  inputs.push_back({"random", std::move(random)});
  ex::ExpressionMatrix identical(130, 48);
  for (std::size_t r = 0; r < identical.rows(); ++r) {
    for (std::size_t c = 0; c < identical.cols(); ++c) {
      identical.set(r, c, static_cast<float>(
                              std::cos(0.23 * static_cast<double>(c + 1))));
    }
  }
  inputs.push_back({"identical", std::move(identical)});
  return inputs;
}

/// Runs `check` on a freshly built (owned) index and on the same index
/// reopened warm from an artifact store (borrowed from the mapping).
template <typename Check>
void for_owned_and_borrowed(const sm::SimilarityEngine& engine,
                            const sm::LshParams& params, Check check) {
  fv::par::ThreadPool pool(2);
  const sm::LshIndex owned(engine, params, pool);
  ASSERT_EQ(owned.storage(), sm::EngineStorage::kOwnedHeap);
  check(owned);
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("fv_lsh_sweep_test." + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  {
    fv::store::ArtifactStore store(dir.string());
    (void)fv::store::open_or_build_lsh(store, engine, params, pool);
    const sm::LshIndex borrowed =
        fv::store::open_or_build_lsh(store, engine, params, pool);
    ASSERT_EQ(borrowed.storage(), sm::EngineStorage::kBorrowedMapped);
    check(borrowed);
  }
  std::filesystem::remove_all(dir);
}

TEST(LshIndexTest, SingleProbeCandidatesEqualBruteForceSliceCollisions) {
  // With one probe a pair is a candidate iff its two signatures agree on
  // some table's slice. Slices here are 64 bits or narrower, where the
  // slice-key mixer is a bijection, so key equality is slice equality and
  // the public signatures alone give the expected pairs and counters.
  for (const SweepInput& input : sweep_inputs()) {
    const auto engine =
        sm::SimilarityEngine::from_rows(input.matrix, sm::Metric::kPearson);
    for (const sm::LshParams params :
         {sm::LshParams{.bits = 64, .tables = 1, .probes = 1},
          sm::LshParams{.bits = 256, .tables = 16, .probes = 1}}) {
      SCOPED_TRACE(std::string(input.name) + " tables=" +
                   std::to_string(params.tables));
      for_owned_and_borrowed(engine, params, [&](const sm::LshIndex& index) {
        const std::size_t slice = index.slice_bits();
        std::set<std::pair<std::uint32_t, std::uint32_t>> expected;
        std::size_t buckets = 0, collisions = 0;
        for (std::size_t t = 0; t < params.tables; ++t) {
          std::map<std::uint64_t, std::vector<std::uint32_t>> by_slice;
          for (std::size_t i = 0; i < index.size(); ++i) {
            const auto sig = index.signature(i);
            std::uint64_t value = 0;
            for (std::size_t b = 0; b < slice; ++b) {
              const std::size_t bit = t * slice + b;
              value |= ((sig[bit / 64] >> (bit % 64)) & 1u) << b;
            }
            by_slice[value].push_back(static_cast<std::uint32_t>(i));
          }
          buckets += by_slice.size();
          for (const auto& [value, rows] : by_slice) {
            collisions += rows.size() * (rows.size() - 1) / 2;
            for (std::size_t x = 0; x < rows.size(); ++x) {
              for (std::size_t y = x + 1; y < rows.size(); ++y) {
                expected.emplace(rows[x], rows[y]);
              }
            }
          }
        }
        sm::LshIndex::CandidateStats stats;
        const auto pairs = index.candidate_pairs(&stats);
        EXPECT_TRUE(std::equal(pairs.begin(), pairs.end(), expected.begin(),
                               expected.end()));
        EXPECT_EQ(stats.pairs, expected.size());
        EXPECT_EQ(stats.buckets_probed, buckets);
        EXPECT_EQ(stats.candidates_generated, collisions);
      });
    }
  }
}

TEST(LshIndexTest, MultiProbeCandidatesMatchRecordedDigests) {
  // Multi-probe keys depend on the private lowest-margin bits, so the
  // reference is a digest of the pairs and counters recorded from the
  // sort-and-compact sweep this one replaced.
  struct Golden {
    const char* input;
    std::size_t tables;
    std::size_t probes;
    std::uint64_t digest;
  };
  const Golden goldens[] = {
      {"modules", 1, 2, 0xa52c3297628639e8ULL},
      {"modules", 1, 3, 0xc3ba7dc8e7943866ULL},
      {"modules", 16, 2, 0xe9c168e99dfb8c89ULL},
      {"modules", 16, 3, 0x9cfdc43bed187f9bULL},
      {"random", 1, 2, 0x3f7f37509b9d8d6aULL},
      {"random", 1, 3, 0xf389cdbbeddd3a31ULL},
      {"random", 16, 2, 0xfdeed4534d9c70f3ULL},
      {"random", 16, 3, 0x4387f7e4bdbf693aULL},
      {"identical", 1, 2, 0x943f43a90bb38048ULL},
      {"identical", 1, 3, 0x57d146ef90f5b774ULL},
      {"identical", 16, 2, 0x8a4ab6d058528fb6ULL},
      {"identical", 16, 3, 0x3d91a7b83858e42dULL},
  };
  for (const SweepInput& input : sweep_inputs()) {
    const auto engine =
        sm::SimilarityEngine::from_rows(input.matrix, sm::Metric::kPearson);
    for (const Golden& golden : goldens) {
      if (std::string(golden.input) != input.name) continue;
      const sm::LshParams params{.bits = golden.tables == 1 ? 64u : 256u,
                                 .tables = golden.tables,
                                 .probes = golden.probes};
      SCOPED_TRACE(std::string(input.name) + " tables=" +
                   std::to_string(params.tables) +
                   " probes=" + std::to_string(params.probes));
      for_owned_and_borrowed(engine, params, [&](const sm::LshIndex& index) {
        sm::LshIndex::CandidateStats stats;
        const auto pairs = index.candidate_pairs(&stats);
        std::vector<std::uint64_t> words;
        for (const auto& [i, j] : pairs) {
          words.push_back((static_cast<std::uint64_t>(i) << 32) | j);
        }
        words.push_back(stats.buckets_probed);
        words.push_back(stats.candidates_generated);
        words.push_back(stats.pairs);
        const std::uint64_t digest =
            fv::xxhash64_of(std::span<const std::uint64_t>(words));
        EXPECT_EQ(digest, golden.digest)
            << "pairs=" << stats.pairs
            << " candidates=" << stats.candidates_generated
            << " buckets=" << stats.buckets_probed;
      });
    }
  }
}

}  // namespace
