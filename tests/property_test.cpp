// Deeper property-based suites validating implementations against
// brute-force references on randomized small inputs:
//  * hierarchical clustering vs an O(n^3) reference agglomerator
//  * hypergeometric tail vs direct summation over the support
//  * mpx point-to-point ordering under message storms
//  * wall culling: executing only culled commands == executing all
//  * borrowed-mapped engines vs heap engines: bit-identical across every
//    metric x top-k strategy x pool width on randomized matrices
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <numeric>

#include "cluster/hclust.hpp"
#include "expr/engine_rows.hpp"
#include "expr/expression_matrix.hpp"
#include "mpx/communicator.hpp"
#include "par/thread_pool.hpp"
#include "sim/lsh.hpp"
#include "sim/similarity_engine.hpp"
#include "stats/special.hpp"
#include "store/artifact_store.hpp"
#include "store/cached.hpp"
#include "util/rng.hpp"
#include "util/triangular.hpp"
#include "wall/command.hpp"
#include "wall/wall_display.hpp"

namespace {

namespace cl = fv::cluster;

// ---------------------------------------------------------------------------
// Reference agglomerative clustering: O(n^3), no caching tricks — scan the
// full active distance matrix for the global minimum at every step.
std::vector<cl::Merge> reference_agglomerate(cl::DistanceMatrix distances,
                                             cl::Linkage linkage) {
  const std::size_t n = distances.size();
  std::vector<bool> active(n, true);
  std::vector<std::size_t> size(n, 1);
  std::vector<int> node_id(n);
  std::iota(node_id.begin(), node_id.end(), 0);
  std::vector<cl::Merge> merges;
  for (std::size_t step = 0; step + 1 < n; ++step) {
    double best = std::numeric_limits<double>::infinity();
    std::size_t bi = 0, bj = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!active[i]) continue;
      for (std::size_t j = i + 1; j < n; ++j) {
        if (!active[j]) continue;
        if (distances.at(i, j) < best) {
          best = distances.at(i, j);
          bi = i;
          bj = j;
        }
      }
    }
    merges.push_back(cl::Merge{node_id[bi], node_id[bj], best});
    for (std::size_t k = 0; k < n; ++k) {
      if (!active[k] || k == bi || k == bj) continue;
      double updated = 0.0;
      switch (linkage) {
        case cl::Linkage::kSingle:
          updated = std::min(distances.at(bi, k), distances.at(bj, k));
          break;
        case cl::Linkage::kComplete:
          updated = std::max(distances.at(bi, k), distances.at(bj, k));
          break;
        case cl::Linkage::kAverage:
          updated = (static_cast<double>(size[bi]) * distances.at(bi, k) +
                     static_cast<double>(size[bj]) * distances.at(bj, k)) /
                    static_cast<double>(size[bi] + size[bj]);
          break;
      }
      distances.set(bi, k, static_cast<float>(updated));
    }
    active[bj] = false;
    size[bi] += size[bj];
    node_id[bi] = static_cast<int>(n + step);
  }
  return merges;
}

cl::DistanceMatrix random_distances(std::size_t n, fv::Rng& rng) {
  cl::DistanceMatrix d(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      d.set(i, j, static_cast<float>(rng.uniform(0.01, 2.0)));
    }
  }
  return d;
}

class HclustVsReferenceTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(HclustVsReferenceTest, MatchesBruteForce) {
  const auto [seed, linkage_index] = GetParam();
  const auto linkage = static_cast<cl::Linkage>(linkage_index);
  fv::Rng rng(static_cast<std::uint64_t>(seed));
  const std::size_t n = 4 + static_cast<std::size_t>(seed) % 14;
  const auto distances = random_distances(n, rng);

  const auto fast = cl::agglomerate(distances, linkage);
  const auto reference = reference_agglomerate(distances, linkage);
  ASSERT_EQ(fast.size(), reference.size());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    // Merge heights must match exactly step for step. Child ids may swap
    // sides, so compare as unordered pairs.
    EXPECT_NEAR(fast[i].distance, reference[i].distance, 1e-5)
        << "merge " << i;
    const auto fast_pair = std::minmax(fast[i].left, fast[i].right);
    const auto ref_pair = std::minmax(reference[i].left, reference[i].right);
    EXPECT_EQ(fast_pair, ref_pair) << "merge " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomMatrices, HclustVsReferenceTest,
    ::testing::Combine(::testing::Range(1, 12),
                       ::testing::Values(0, 1, 2)));  // single/complete/avg

// ---------------------------------------------------------------------------
// Hypergeometric tails vs direct full-support summation.
class HypergeometricPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(HypergeometricPropertyTest, TailsMatchDirectSummation) {
  fv::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::uint64_t N = 10 + rng.uniform_u64(200);
  const std::uint64_t K = rng.uniform_u64(N + 1);
  const std::uint64_t n = rng.uniform_u64(N + 1);
  const std::uint64_t hi = std::min(n, K);
  // Direct summation across the whole support.
  double cumulative = 0.0;
  for (std::uint64_t k = 0; k <= hi; ++k) {
    cumulative += fv::stats::hypergeometric_pmf(k, N, K, n);
  }
  EXPECT_NEAR(cumulative, 1.0, 1e-9);
  // Upper tail at a random threshold.
  const std::uint64_t threshold = rng.uniform_u64(hi + 2);
  double direct_upper = 0.0;
  for (std::uint64_t k = threshold; k <= hi; ++k) {
    direct_upper += fv::stats::hypergeometric_pmf(k, N, K, n);
  }
  EXPECT_NEAR(fv::stats::hypergeometric_upper_tail(threshold, N, K, n),
              std::min(direct_upper, 1.0), 1e-9);
  // Monotonicity: P[X >= k] decreases in k.
  double previous = 1.0;
  for (std::uint64_t k = 0; k <= hi + 1; ++k) {
    const double tail = fv::stats::hypergeometric_upper_tail(k, N, K, n);
    EXPECT_LE(tail, previous + 1e-12);
    previous = tail;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomUrns, HypergeometricPropertyTest,
                         ::testing::Range(0, 20));

// ---------------------------------------------------------------------------
// mpx under load: many interleaved tagged messages must be delivered in
// per-(source, tag) FIFO order with nothing lost.
TEST(MpxStressTest, MessageStormKeepsOrderAndCompleteness) {
  constexpr int kRanks = 4;
  constexpr int kMessagesPerPair = 200;
  fv::mpx::run_group(kRanks, [&](fv::mpx::Comm& comm) {
    // Everyone sends numbered messages to everyone on two tags.
    for (int dest = 0; dest < comm.size(); ++dest) {
      if (dest == comm.rank()) continue;
      for (int i = 0; i < kMessagesPerPair; ++i) {
        fv::mpx::PayloadWriter writer;
        writer.write<int>(i);
        comm.send(dest, i % 2, writer.take());
      }
    }
    // Receive: per (source, tag) the values must arrive ascending.
    for (int source = 0; source < comm.size(); ++source) {
      if (source == comm.rank()) continue;
      for (int tag = 0; tag < 2; ++tag) {
        int previous = -1;
        for (int i = 0; i < kMessagesPerPair / 2; ++i) {
          const fv::mpx::Message message = comm.recv(source, tag);
          fv::mpx::PayloadReader reader(message.payload);
          const int value = reader.read<int>();
          EXPECT_GT(value, previous);
          EXPECT_EQ(value % 2, tag);
          previous = value;
        }
      }
    }
  });
}

// ---------------------------------------------------------------------------
// Wall culling is sound: rendering a tile from the culled command list is
// identical to rendering it from the full list.
class CullSoundnessTest : public ::testing::TestWithParam<int> {};

TEST_P(CullSoundnessTest, CulledEqualsFull) {
  fv::Rng rng(static_cast<std::uint64_t>(GetParam()) + 500);
  fv::wall::RecordingCanvas canvas;
  for (int i = 0; i < 60; ++i) {
    const long x = static_cast<long>(rng.uniform_u64(400)) - 50;
    const long y = static_cast<long>(rng.uniform_u64(300)) - 50;
    switch (rng.uniform_u64(4)) {
      case 0:
        canvas.fill_rect(x, y, 1 + static_cast<long>(rng.uniform_u64(60)),
                         1 + static_cast<long>(rng.uniform_u64(40)),
                         fv::render::colors::kRed);
        break;
      case 1: {
        // Images reach negative coordinates (x, y start at -50) and cross
        // the tile's edges.
        const long w = 1 + static_cast<long>(rng.uniform_u64(60));
        const long h = 1 + static_cast<long>(rng.uniform_u64(40));
        std::vector<fv::render::Rgb8> pixels(static_cast<std::size_t>(w * h));
        for (std::size_t p = 0; p < pixels.size(); ++p) {
          pixels[p] = fv::render::Rgb8{static_cast<std::uint8_t>(p),
                                       static_cast<std::uint8_t>(i), 7};
        }
        canvas.image(x, y, w, h, fv::render::share_pixels(std::move(pixels)));
        break;
      }
      case 2:
        canvas.hline(x, x + 70, y, fv::render::colors::kGreen);
        canvas.vline(x + 70, y + 25, y, fv::render::colors::kGreen);
        break;
      default:
        canvas.text(x, y, "NODE" + std::to_string(i),
                    fv::render::colors::kWhite);
        break;
    }
  }
  const auto commands = canvas.take();
  const fv::layout::Rect tile{120, 80, 100, 100};

  fv::render::Framebuffer from_full(100, 100);
  fv::wall::replay_commands(from_full, commands, tile.x, tile.y);

  // Manual cull, then replay only the survivors.
  fv::wall::CommandList culled;
  for (const auto& command : commands) {
    if (fv::layout::overlaps(command.bounds(), tile)) {
      culled.push_back(command);
    }
  }
  fv::render::Framebuffer from_culled(100, 100);
  fv::wall::replay_commands(from_culled, culled, tile.x, tile.y);
  EXPECT_EQ(from_full, from_culled);
  EXPECT_LE(culled.size(), commands.size());
}

INSTANTIATE_TEST_SUITE_P(Scenes, CullSoundnessTest, ::testing::Range(0, 10));

// ---------------------------------------------------------------------------
// Storage-equivalence property: a borrowed-mapped engine (arrays served as
// read-only spans into the artifact mapping) must be BIT-IDENTICAL to the
// heap engine its artifact was saved from — same condensed triangle (pooled
// AND serial streaming driver), same top-k table under every strategy, same
// reconstructed input rows — across randomized matrices x metrics x
// strategies x pool widths. Equality is memcmp/== on floats, never a
// tolerance: storage residency must not perturb a single bit.

namespace sim = fv::sim;
namespace st = fv::store;
namespace fs = std::filesystem;

fv::expr::ExpressionMatrix random_matrix(std::size_t rows, std::size_t cols,
                                         fv::Rng& rng) {
  fv::expr::ExpressionMatrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    const double base = static_cast<double>(r % 9);
    for (std::size_t c = 0; c < cols; ++c) {
      if (rng.uniform() < 0.1) continue;  // ~10% missing cells
      m.set(r, c,
            static_cast<float>(std::cos(base + 0.4 * c) +
                               0.3 * rng.normal()));
    }
  }
  return m;
}

/// (seed, metric index, strategy index, pool threads).
class MappedEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {
 protected:
  void SetUp() override {
    std::string name = ::testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name();
    std::replace(name.begin(), name.end(), '/', '_');
    dir_ = (fs::temp_directory_path() / ("fv_mapped_prop_" + name)).string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

TEST_P(MappedEquivalenceTest, MappedEngineIsBitIdenticalToHeap) {
  const auto [seed, metric_index, strategy_index, threads] = GetParam();
  const auto metric = static_cast<sim::Metric>(metric_index);
  const auto strategy = static_cast<sim::TopKStrategy>(strategy_index);
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " metric=" + std::to_string(metric_index) +
               " strategy=" + std::to_string(strategy_index) +
               " threads=" + std::to_string(threads));
  if (metric == sim::Metric::kEuclidean &&
      strategy != sim::TopKStrategy::kExact) {
    GTEST_SKIP() << "pruned/approx require a correlation metric";
  }

  fv::Rng rng(static_cast<std::uint64_t>(seed) * 7919);
  const std::size_t n = 120 + static_cast<std::size_t>(seed) % 60;
  const auto matrix = random_matrix(n, 24, rng);
  const auto heap = sim::SimilarityEngine::from_rows(matrix, metric);
  ASSERT_EQ(heap.storage(), sim::EngineStorage::kOwnedHeap);

  // Persist cold, then reopen as a borrowed-mapped engine.
  st::ArtifactStore store(dir_);
  const auto input_key = st::matrix_key(matrix);
  st::OpenStats stats;
  const auto mapped = st::open_or_build_engine(
      store, input_key, [&]() { return matrix; }, metric,
      sim::Precompute::kAllPairs, sim::DenseKernel::kAuto, &stats);
  EXPECT_TRUE(stats.persisted);
  ASSERT_EQ(mapped.storage(), sim::EngineStorage::kBorrowedMapped);
  ASSERT_EQ(mapped.size(), heap.size());
  ASSERT_EQ(mapped.stride(), heap.stride());

  fv::par::ThreadPool pool(static_cast<std::size_t>(threads));

  // Condensed triangle: heap pooled == mapped pooled == mapped SERIAL
  // (the out-of-core streaming driver with page release + backing checks).
  const std::size_t cells = fv::condensed_size(heap.size());
  std::vector<float> heap_condensed(cells), mapped_condensed(cells),
      mapped_streamed(cells);
  heap.condensed_distances(heap_condensed, pool);
  mapped.condensed_distances(mapped_condensed, pool);
  mapped.condensed_distances(mapped_streamed);
  EXPECT_EQ(std::memcmp(heap_condensed.data(), mapped_condensed.data(),
                        cells * sizeof(float)),
            0);
  EXPECT_EQ(std::memcmp(heap_condensed.data(), mapped_streamed.data(),
                        cells * sizeof(float)),
            0);

  // Top-k under the parameterized strategy. kApprox additionally reuses a
  // BORROWED-MAPPED LSH index on the mapped side — signatures served as
  // spans into the persisted bank, zero rebuilt.
  sim::LshParams lsh;
  lsh.bits = 64;
  lsh.tables = 8;
  sim::NeighborTable heap_table, mapped_table;
  if (strategy == sim::TopKStrategy::kApprox) {
    fv::par::ThreadPool build_pool(2);
    heap_table = heap.top_k_neighbors(6, pool, 0, strategy, nullptr, lsh);
    (void)st::open_or_build_lsh(store, heap, lsh, build_pool);
    st::OpenStats lsh_stats;
    const auto mapped_lsh =
        st::open_or_build_lsh(store, mapped, lsh, build_pool, &lsh_stats);
    ASSERT_TRUE(lsh_stats.warm);
    ASSERT_EQ(mapped_lsh.storage(), sim::EngineStorage::kBorrowedMapped);
    sim::TopKStats topk_stats;
    mapped_table = mapped.top_k_neighbors(6, pool, 0, strategy, &topk_stats,
                                          lsh, &mapped_lsh);
    EXPECT_EQ(topk_stats.signatures_built, 0u);
  } else {
    heap_table = heap.top_k_neighbors(6, pool, 0, strategy);
    mapped_table = mapped.top_k_neighbors(6, pool, 0, strategy);
  }
  EXPECT_EQ(mapped_table.indices, heap_table.indices);
  EXPECT_EQ(mapped_table.distances, heap_table.distances);
  EXPECT_EQ(mapped_table.valid, heap_table.valid);

  // Compendium rows served off the mapping reconstruct the exact input.
  const auto roundtrip = fv::expr::matrix_from_engine(mapped);
  ASSERT_EQ(roundtrip.rows(), matrix.rows());
  ASSERT_EQ(roundtrip.cols(), matrix.cols());
  for (std::size_t r = 0; r < matrix.rows(); ++r) {
    const auto a = matrix.row(r);
    const auto b = roundtrip.row(r);
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
        << "row " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomMatrices, MappedEquivalenceTest,
    ::testing::Combine(
        ::testing::Values(1, 2, 3),  // seeds (logged via SCOPED_TRACE)
        ::testing::Values(static_cast<int>(sim::Metric::kPearson),
                          static_cast<int>(sim::Metric::kSpearman),
                          static_cast<int>(sim::Metric::kEuclidean)),
        ::testing::Values(static_cast<int>(sim::TopKStrategy::kExact),
                          static_cast<int>(sim::TopKStrategy::kPruned),
                          static_cast<int>(sim::TopKStrategy::kApprox)),
        ::testing::Values(1, 4)));  // pool widths

}  // namespace
