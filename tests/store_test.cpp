// Functional tests of the artifact store: the sealed artifact format and
// its on-disk kind and key contract, cached spine products (warm reopen
// must be BIT-IDENTICAL to cold compute), cross-"process" read-only
// sharing at n = 4000, in-process concurrency, and fsck. Storage-fault
// scenarios live in store_chaos_test.cpp.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "expr/dataset.hpp"
#include "expr/gene.hpp"
#include "par/thread_pool.hpp"
#include "sim/lsh.hpp"
#include "sim/similarity_engine.hpp"
#include "spell/spell.hpp"
#include "stats/descriptive.hpp"
#include "store/artifact_store.hpp"
#include "store/cached.hpp"
#include "store/fsck.hpp"
#include "util/rng.hpp"
#include "util/xxhash.hpp"

namespace {

namespace fs = std::filesystem;

/// Fresh store directory per test, removed afterwards.
class StoreDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("fv_store_test_" +
             std::string(
                 ::testing::UnitTest::GetInstance()->current_test_info()
                     ->name())))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

using StoreArtifactTest = StoreDirTest;
using StoreCachedTest = StoreDirTest;
using StoreSharingTest = StoreDirTest;
using StoreConcurrencyTest = StoreDirTest;
using FsckTest = StoreDirTest;

/// Deterministic matrix with structure (correlated blocks) and some
/// missing cells — the shape every cached product is exercised on.
fv::expr::ExpressionMatrix make_matrix(std::size_t rows, std::size_t cols,
                                       std::uint64_t seed = 42) {
  fv::Rng rng(seed);
  fv::expr::ExpressionMatrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    const double base = static_cast<double>(r % 7);
    for (std::size_t c = 0; c < cols; ++c) {
      if (rng.uniform() < 0.03) continue;  // leave missing
      m.set(r, c,
            static_cast<float>(std::sin(base + 0.3 * c) +
                               0.2 * rng.normal()));
    }
  }
  return m;
}

void flip_byte(const std::string& path, std::size_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  f.seekg(static_cast<std::streamoff>(offset));
  char b = 0;
  f.read(&b, 1);
  b = static_cast<char>(b ^ 0x01);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&b, 1);
}

// ---- artifact format ---------------------------------------------------

TEST_F(StoreArtifactTest, PutOpenRoundTrip) {
  fv::store::ArtifactStore store(dir_);
  const std::vector<float> floats{1.5f, -2.0f, 3.25f};
  const std::vector<std::uint32_t> ints{7, 8, 9, 10};
  store.put(fv::store::ArtifactKind::kBlob, 0xabcdef, [&](auto& w) {
    w.section(floats);
    w.scalar(std::uint64_t{42});
    w.section(ints);
  });
  const auto reader = store.open(fv::store::ArtifactKind::kBlob, 0xabcdef);
  ASSERT_TRUE(reader.has_value());
  EXPECT_EQ(reader->kind(), fv::store::ArtifactKind::kBlob);
  EXPECT_EQ(reader->key(), 0xabcdefull);
  ASSERT_EQ(reader->section_count(), 3u);
  const auto read_floats = reader->section<float>(0);
  const auto read_ints = reader->section<std::uint32_t>(2);
  EXPECT_EQ(std::vector<float>(read_floats.begin(), read_floats.end()),
            floats);
  EXPECT_EQ(reader->scalar<std::uint64_t>(1), 42u);
  EXPECT_EQ(std::vector<std::uint32_t>(read_ints.begin(), read_ints.end()),
            ints);
  // misreading a section's element type is a typed error, not garbage
  EXPECT_THROW((void)reader->section<double>(0), fv::CorruptArtifactError);
}

TEST_F(StoreArtifactTest, MissingArtifactIsNullopt) {
  fv::store::ArtifactStore store(dir_);
  EXPECT_FALSE(store.open(fv::store::ArtifactKind::kBlob, 1).has_value());
  EXPECT_FALSE(store.contains(fv::store::ArtifactKind::kBlob, 1));
}

TEST_F(StoreArtifactTest, WrongNameForContentIsStale) {
  fv::store::ArtifactStore store(dir_);
  store.put(fv::store::ArtifactKind::kBlob, 1,
            [](auto& w) { w.scalar(std::uint64_t{1}); });
  // A valid artifact renamed to a different key's slot: checksums hold,
  // but the file is not what its name claims.
  fs::copy_file(store.artifact_path(fv::store::ArtifactKind::kBlob, 1),
                store.artifact_path(fv::store::ArtifactKind::kBlob, 2));
  EXPECT_THROW((void)store.open(fv::store::ArtifactKind::kBlob, 2),
               fv::StaleArtifactError);
}

TEST_F(StoreArtifactTest, DamageIsDetectedWhereverItLands) {
  fv::store::ArtifactStore store(dir_);
  const std::vector<double> payload(64, 3.14159);
  store.put(fv::store::ArtifactKind::kBlob, 5,
            [&](auto& w) { w.section(payload); });
  const std::string path =
      store.artifact_path(fv::store::ArtifactKind::kBlob, 5);
  const auto file_size = fs::file_size(path);

  flip_byte(path, 20);  // header
  EXPECT_THROW((void)store.open(fv::store::ArtifactKind::kBlob, 5),
               fv::CorruptArtifactError);
  flip_byte(path, 20);

  flip_byte(path, 100);  // payload
  EXPECT_THROW((void)store.open(fv::store::ArtifactKind::kBlob, 5),
               fv::CorruptArtifactError);
  flip_byte(path, 100);

  ASSERT_TRUE(store.open(fv::store::ArtifactKind::kBlob, 5).has_value());

  fs::resize_file(path, file_size - 8);  // lost tail
  EXPECT_THROW((void)store.open(fv::store::ArtifactKind::kBlob, 5),
               fv::CorruptArtifactError);
}

TEST_F(StoreArtifactTest, QuarantineMovesDamagedFileAside) {
  fv::store::ArtifactStore store(dir_);
  store.put(fv::store::ArtifactKind::kBlob, 9,
            [](auto& w) { w.scalar(std::uint64_t{9}); });
  store.quarantine(fv::store::ArtifactKind::kBlob, 9);
  EXPECT_FALSE(store.contains(fv::store::ArtifactKind::kBlob, 9));
  EXPECT_TRUE(fs::exists(fs::path(dir_) / "quarantine"));
  EXPECT_EQ(store.stats().quarantined.load(), 1u);
}

TEST_F(StoreArtifactTest, KeyBuilderIsOrderAndLengthSensitive) {
  using fv::store::KeyBuilder;
  const auto k1 = KeyBuilder{}.string("ab").string("c").key();
  const auto k2 = KeyBuilder{}.string("a").string("bc").key();
  const auto k3 = KeyBuilder{}.string("c").string("ab").key();
  EXPECT_NE(k1, k2);
  EXPECT_NE(k1, k3);
  EXPECT_EQ(k1, KeyBuilder{}.string("ab").string("c").key());
}

TEST_F(StoreArtifactTest, KindNumbersAndNameStemsAreTheOnDiskContract) {
  // Every artifact header seals the kind number and every file name starts
  // with the kind's stem, so neither may change under existing stores.
  // 3 and 5 are retired kinds and stay unassigned.
  using fv::store::ArtifactKind;
  const struct {
    ArtifactKind kind;
    std::uint32_t number;
    const char* stem;
  } contract[] = {{ArtifactKind::kEngine, 1, "engine"},
                  {ArtifactKind::kCondensedDistances, 2, "distances"},
                  {ArtifactKind::kLshIndex, 4, "lsh"},
                  {ArtifactKind::kBlob, 6, "blob"}};
  for (const auto& entry : contract) {
    EXPECT_EQ(static_cast<std::uint32_t>(entry.kind), entry.number);
    EXPECT_STREQ(fv::store::artifact_kind_name(entry.kind), entry.stem);
  }
}

TEST_F(StoreArtifactTest, EngineKeyIsStableAcrossReleases) {
  // A warm store is only warm if the same input and build params keep
  // hashing to the same key. Exact binary fractions and one missing cell,
  // so the matrix bytes are the same on every platform.
  fv::expr::ExpressionMatrix matrix(3, 4);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      if (r == 1 && c == 2) continue;
      matrix.set(r, c, static_cast<float>(r) * 0.5f - static_cast<float>(c));
    }
  }
  const auto input_key = fv::store::matrix_key(matrix);
  EXPECT_EQ(fv::store::engine_key(input_key, fv::sim::Metric::kPearson,
                                  fv::sim::Precompute::kAllPairs,
                                  fv::sim::DenseKernel::kAuto),
            0x894a160978aa5a4aull);
  EXPECT_EQ(fv::store::engine_key(input_key, fv::sim::Metric::kPearson,
                                  fv::sim::Precompute::kAllPairs,
                                  fv::sim::DenseKernel::kDouble),
            0x7a182ead16370227ull);
}

// ---- cached spine products --------------------------------------------

TEST_F(StoreCachedTest, EngineWarmReopenIsBitIdentical) {
  const auto matrix = make_matrix(64, 12);
  const auto input_key = fv::store::matrix_key(matrix);
  std::size_t parses = 0;
  const auto load_matrix = [&]() {
    ++parses;
    return matrix;
  };
  // The independent reference: a heap build that never touches the store,
  // so a save/load bug that is consistent between save and load still
  // shows up as a mismatch below.
  const auto reference = fv::sim::SimilarityEngine::from_rows(
      matrix, fv::sim::Metric::kPearson, fv::sim::Precompute::kAllPairs,
      fv::sim::DenseKernel::kAuto);
  ASSERT_EQ(reference.storage(), fv::sim::EngineStorage::kOwnedHeap);

  fv::store::ArtifactStore cold_store(dir_);
  fv::store::OpenStats cold_stats;
  const auto cold = fv::store::open_or_build_engine(
      cold_store, input_key, load_matrix, fv::sim::Metric::kPearson,
      fv::sim::Precompute::kAllPairs, fv::sim::DenseKernel::kAuto,
      &cold_stats);
  EXPECT_FALSE(cold_stats.warm);
  EXPECT_TRUE(cold_stats.persisted);
  EXPECT_EQ(parses, 1u);
  // A cold build that committed is served reopened from its own artifact.
  EXPECT_EQ(cold.storage(), fv::sim::EngineStorage::kBorrowedMapped);

  // A second "session": new store object over the same directory.
  fv::store::ArtifactStore warm_store(dir_);
  fv::store::OpenStats warm_stats;
  const auto warm = fv::store::open_or_build_engine(
      warm_store, input_key, load_matrix, fv::sim::Metric::kPearson,
      fv::sim::Precompute::kAllPairs, fv::sim::DenseKernel::kAuto,
      &warm_stats);
  EXPECT_TRUE(warm_stats.warm);
  EXPECT_EQ(parses, 1u);  // the warm path never parses input
  EXPECT_EQ(warm.storage(), fv::sim::EngineStorage::kBorrowedMapped);

  for (const auto* opened : {&cold, &warm}) {
    const auto& engine = *opened;
    ASSERT_EQ(engine.size(), reference.size());
    ASSERT_EQ(engine.length(), reference.length());
    ASSERT_EQ(engine.stride(), reference.stride());
    EXPECT_EQ(engine.metric(), reference.metric());
    EXPECT_EQ(engine.float_kernel_active(), reference.float_kernel_active());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(engine.present(i), reference.present(i));
      EXPECT_EQ(engine.row_has_missing(i), reference.row_has_missing(i));
      EXPECT_EQ(engine.zscale(i), reference.zscale(i));
      const auto a = reference.normalized_row(i);
      const auto b = engine.normalized_row(i);
      ASSERT_EQ(a.size(), b.size());
      EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)),
                0);
    }
    for (std::size_t i = 0; i < reference.size(); i += 7) {
      for (std::size_t j = i + 1; j < reference.size(); j += 5) {
        EXPECT_EQ(engine.distance(i, j), reference.distance(i, j));
        EXPECT_EQ(engine.similarity(i, j), reference.similarity(i, j));
      }
    }
  }
}

TEST_F(StoreCachedTest, CondensedDistancesWarmReopenIsBitIdentical) {
  const auto matrix = make_matrix(48, 10);
  const auto engine = fv::sim::SimilarityEngine::from_rows(
      matrix, fv::sim::Metric::kPearson);
  fv::par::ThreadPool pool(2);

  fv::store::ArtifactStore store(dir_);
  fv::store::OpenStats s1, s2;
  const auto cold = fv::store::open_or_compute_condensed(store, engine,
                                                         pool, &s1);
  fv::store::ArtifactStore second(dir_);
  const auto warm = fv::store::open_or_compute_condensed(second, engine,
                                                         pool, &s2);
  EXPECT_FALSE(s1.warm);
  EXPECT_TRUE(s2.warm);
  ASSERT_EQ(warm.size(), cold.size());
  const auto a = cold.condensed();
  const auto b = warm.condensed();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
}

TEST_F(StoreCachedTest, LshIndexWarmReopenFeedsApproxTopK) {
  const auto matrix = make_matrix(200, 16, 7);
  const auto engine = fv::sim::SimilarityEngine::from_rows(
      matrix, fv::sim::Metric::kPearson);
  fv::par::ThreadPool pool(2);
  fv::sim::LshParams params;
  params.bits = 64;
  params.tables = 8;

  // Reference: storeless approximate top-k (builds its own signatures).
  fv::sim::TopKStats ref_stats;
  const auto reference = engine.top_k_neighbors(
      4, pool, 0, fv::sim::TopKStrategy::kApprox, &ref_stats, params);
  EXPECT_EQ(ref_stats.signatures_built, engine.size());

  fv::store::ArtifactStore store(dir_);
  fv::store::OpenStats s1;
  const auto cold_index =
      fv::store::open_or_build_lsh(store, engine, params, pool, &s1);
  EXPECT_FALSE(s1.warm);

  fv::store::ArtifactStore second(dir_);
  fv::store::OpenStats s2;
  const auto warm_index =
      fv::store::open_or_build_lsh(second, engine, params, pool, &s2);
  EXPECT_TRUE(s2.warm);
  ASSERT_EQ(warm_index.size(), engine.size());
  for (std::size_t i = 0; i < engine.size(); ++i) {
    const auto a = cold_index.signature(i);
    const auto b = warm_index.signature(i);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(),
                          a.size() * sizeof(std::uint64_t)),
              0);
  }

  // The warm index drives the approximate path: same table, and the stats
  // prove no signatures were rebuilt.
  fv::sim::TopKStats warm_stats;
  const auto warm_table = engine.top_k_neighbors(
      4, pool, 0, fv::sim::TopKStrategy::kApprox, &warm_stats, params,
      &warm_index);
  EXPECT_EQ(warm_stats.signatures_built, 0u);
  EXPECT_EQ(warm_table.indices, reference.indices);
  EXPECT_EQ(warm_table.distances, reference.distances);
  EXPECT_EQ(warm_table.valid, reference.valid);
}

std::vector<fv::expr::Dataset> make_datasets() {
  std::vector<fv::expr::Dataset> datasets;
  for (int d = 0; d < 2; ++d) {
    const std::size_t rows = 30;
    const std::size_t cols = 8 + 2 * d;
    std::vector<fv::expr::GeneInfo> genes(rows);
    for (std::size_t r = 0; r < rows; ++r) {
      genes[r].systematic_name = "G" + std::to_string(r);
      genes[r].common_name = "gene" + std::to_string(r);
    }
    std::vector<std::string> conditions(cols);
    for (std::size_t c = 0; c < cols; ++c) {
      conditions[c] = "c" + std::to_string(c);
    }
    datasets.emplace_back("ds" + std::to_string(d), std::move(genes),
                          std::move(conditions),
                          make_matrix(rows, cols, 100 + d));
  }
  return datasets;
}

TEST_F(StoreCachedTest, SpellBanksWarmReopenGiveIdenticalRankings) {
  const auto datasets = make_datasets();
  fv::par::ThreadPool pool(2);
  const fv::spell::SpellSearch reference(datasets, pool);
  const std::vector<std::string> query{"G1", "G2", "G3"};
  const auto expected = reference.search(query);

  fv::store::ArtifactStore store(dir_);
  const auto cold =
      fv::store::open_or_build_spell(store, datasets, pool);
  fv::store::ArtifactStore second(dir_);
  fv::store::OpenStats s2;
  const auto warm =
      fv::store::open_or_build_spell(second, datasets, pool, &s2);
  EXPECT_TRUE(s2.warm);

  for (const auto* search : {&cold, &warm}) {
    const auto got = search->search(query);
    ASSERT_EQ(got.gene_ranking.size(), expected.gene_ranking.size());
    for (std::size_t i = 0; i < expected.gene_ranking.size(); ++i) {
      EXPECT_EQ(got.gene_ranking[i].gene, expected.gene_ranking[i].gene);
      EXPECT_EQ(got.gene_ranking[i].score, expected.gene_ranking[i].score);
    }
    ASSERT_EQ(got.dataset_ranking.size(), expected.dataset_ranking.size());
    for (std::size_t i = 0; i < expected.dataset_ranking.size(); ++i) {
      EXPECT_EQ(got.dataset_ranking[i].weight,
                expected.dataset_ranking[i].weight);
    }
  }
}

TEST_F(StoreCachedTest, DamagedEngineArtifactSelfHeals) {
  const auto matrix = make_matrix(32, 10);
  const auto input_key = fv::store::matrix_key(matrix);
  const auto load_matrix = [&]() { return matrix; };

  const auto reference = fv::sim::SimilarityEngine::from_rows(
      matrix, fv::sim::Metric::kPearson);
  ASSERT_EQ(reference.storage(), fv::sim::EngineStorage::kOwnedHeap);

  fv::store::ArtifactStore store(dir_);
  (void)fv::store::open_or_build_engine(store, input_key, load_matrix,
                                        fv::sim::Metric::kPearson);
  const auto path = store.artifact_path(
      fv::store::ArtifactKind::kEngine,
      fv::store::engine_key(input_key, fv::sim::Metric::kPearson,
                            fv::sim::Precompute::kAllPairs,
                            fv::sim::DenseKernel::kAuto));
  flip_byte(path, fs::file_size(path) / 2);

  fv::store::ArtifactStore second(dir_);
  fv::store::OpenStats stats;
  const auto healed = fv::store::open_or_build_engine(
      second, input_key, load_matrix, fv::sim::Metric::kPearson,
      fv::sim::Precompute::kAllPairs, fv::sim::DenseKernel::kAuto, &stats);
  EXPECT_FALSE(stats.warm);
  EXPECT_TRUE(stats.recovered);
  EXPECT_TRUE(stats.persisted);  // self-healed: artifact rewritten
  EXPECT_EQ(healed.storage(), fv::sim::EngineStorage::kBorrowedMapped);
  EXPECT_EQ(second.stats().corrupt.load(), 1u);
  EXPECT_EQ(second.stats().quarantined.load(), 1u);
  // damaged original preserved as evidence
  EXPECT_TRUE(fs::exists(fs::path(dir_) / "quarantine"));

  // recompute is bit-identical to a storeless heap build and the
  // rewritten artifact serves warm
  ASSERT_EQ(healed.size(), reference.size());
  for (std::size_t i = 0; i + 1 < reference.size(); i += 3) {
    EXPECT_EQ(healed.distance(i, i + 1), reference.distance(i, i + 1));
  }
  fv::store::ArtifactStore third(dir_);
  fv::store::OpenStats warm_stats;
  (void)fv::store::open_or_build_engine(
      third, input_key, load_matrix, fv::sim::Metric::kPearson,
      fv::sim::Precompute::kAllPairs, fv::sim::DenseKernel::kAuto,
      &warm_stats);
  EXPECT_TRUE(warm_stats.warm);
}

// ---- cross-session sharing at n = 4000 --------------------------------

TEST_F(StoreSharingTest, WarmReopenAtScaleIsBitIdenticalAndShared) {
  // n = 4000 profiles — the compendium scale the warm-reopen story is
  // about. Kept to one modest length so the cold compute stays in CI
  // budget; the bench measures the actual speedup.
  const auto matrix = make_matrix(4000, 24, 11);
  const auto engine = fv::sim::SimilarityEngine::from_rows(
      matrix, fv::sim::Metric::kPearson);
  fv::par::ThreadPool pool(4);

  fv::store::ArtifactStore writer(dir_);
  const auto cold_distances =
      fv::store::open_or_compute_condensed(writer, engine, pool);
  const auto cold_index =
      fv::store::open_or_build_lsh(writer, engine, fv::sim::LshParams{}, pool);

  // Two independent "sessions" holding the same artifacts open at once:
  // read-only mappings of one committed file, a consistent snapshot each.
  fv::store::ArtifactStore session_a(dir_);
  fv::store::ArtifactStore session_b(dir_);
  fv::store::OpenStats sa, sb;
  const auto warm_a =
      fv::store::open_or_compute_condensed(session_a, engine, pool, &sa);
  const auto warm_b =
      fv::store::open_or_compute_condensed(session_b, engine, pool, &sb);
  EXPECT_TRUE(sa.warm);
  EXPECT_TRUE(sb.warm);
  const auto reference = cold_distances.condensed();
  for (const auto* warm : {&warm_a, &warm_b}) {
    ASSERT_EQ(warm->size(), cold_distances.size());
    ASSERT_EQ(warm->condensed().size(), reference.size());
    EXPECT_EQ(std::memcmp(warm->condensed().data(), reference.data(),
                          reference.size() * sizeof(float)),
              0);
  }

  // The LSH index is served borrowed: both sessions read the signature
  // bank straight out of the one shared mapping.
  fv::store::OpenStats la, lb;
  const auto index_a = fv::store::open_or_build_lsh(
      session_a, engine, fv::sim::LshParams{}, pool, &la);
  const auto index_b = fv::store::open_or_build_lsh(
      session_b, engine, fv::sim::LshParams{}, pool, &lb);
  EXPECT_TRUE(la.warm);
  EXPECT_TRUE(lb.warm);
  for (const auto* index : {&index_a, &index_b}) {
    EXPECT_EQ(index->storage(), fv::sim::EngineStorage::kBorrowedMapped);
    ASSERT_EQ(index->size(), cold_index.size());
    for (std::size_t i = 0; i < cold_index.size(); ++i) {
      const auto a = cold_index.signature(i);
      const auto b = index->signature(i);
      ASSERT_EQ(a.size(), b.size());
      EXPECT_EQ(std::memcmp(a.data(), b.data(),
                            a.size() * sizeof(std::uint64_t)),
                0);
    }
  }
}

// ---- in-process concurrency -------------------------------------------

TEST_F(StoreConcurrencyTest, ParallelLoadOrComputeStaysConsistent) {
  fv::store::ArtifactStore store(dir_);
  // Pre-commit one shared artifact every thread warm-reads while also
  // computing its own — commits serialize on the store's commit lock,
  // reads share the mapping.
  store.put(fv::store::ArtifactKind::kBlob, 999, [](auto& w) {
    w.scalar(std::uint64_t{999});
  });
  std::vector<std::thread> threads;
  std::vector<std::uint64_t> own(8, 0);
  std::vector<std::uint64_t> shared(8, 0);
  for (std::size_t t = 0; t < 8; ++t) {
    threads.emplace_back([&store, &own, &shared, t]() {
      own[t] = fv::store::load_or_compute<std::uint64_t>(
          store, fv::store::ArtifactKind::kBlob, 1000 + t,
          [](std::shared_ptr<const fv::store::ArtifactReader> r) {
            return r->scalar<std::uint64_t>(0);
          },
          [t]() { return 1000 + t; },
          [](fv::store::ArtifactWriter& w, const std::uint64_t& v) {
            w.scalar(v);
          });
      const auto reader =
          store.open(fv::store::ArtifactKind::kBlob, 999);
      shared[t] = reader ? reader->scalar<std::uint64_t>(0) : 0;
    });
  }
  for (auto& thread : threads) thread.join();
  for (std::size_t t = 0; t < 8; ++t) {
    EXPECT_EQ(own[t], 1000 + t);
    EXPECT_EQ(shared[t], 999u);
  }
  // Every per-thread artifact is committed and valid.
  const auto report = fv::store::fsck_scan(dir_);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.valid, 9u);
}

// ---- cross-process single-writer lock ----------------------------------

// Commits take an exclusive flock(2) on the store DIRECTORY, so two
// PROCESSES (not just two threads) serialize their commit critical
// sections. The child signals over a pipe just before its put(); the
// parent holds the directory lock for a measured window; the child's put
// must block for (most of) that window and then commit normally.
TEST_F(StoreConcurrencyTest, CommitsSerializeAcrossProcessesViaFlock) {
  int ready_pipe[2];
  ASSERT_EQ(pipe(ready_pipe), 0);

  const int dir_fd = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY);
  ASSERT_GE(dir_fd, 0);
  ASSERT_EQ(::flock(dir_fd, LOCK_EX), 0);

  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: no gtest, no exceptions escaping; exit code is the verdict.
    ::close(ready_pipe[0]);
    int code = 0;
    try {
      fv::store::ArtifactStore store(dir_);
      const char go = 'g';
      if (::write(ready_pipe[1], &go, 1) != 1) _exit(3);
      const auto start = std::chrono::steady_clock::now();
      store.put(fv::store::ArtifactKind::kBlob, 0x10cc,
                [](auto& w) { w.scalar(std::uint64_t{0x10cc}); });
      const auto blocked_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - start)
              .count();
      // The parent holds the lock ≥ 300 ms after 'go'; generous slack for
      // scheduling, but the child must have measurably waited.
      if (blocked_ms < 150) code = 4;
    } catch (...) {
      code = 5;
    }
    _exit(code);
  }

  // Parent: wait for the child to reach its put, keep the directory locked
  // well past that point, then release and reap.
  ::close(ready_pipe[1]);
  char go = 0;
  ASSERT_EQ(::read(ready_pipe[0], &go, 1), 1);
  ::close(ready_pipe[0]);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  ASSERT_EQ(::flock(dir_fd, LOCK_UN), 0);
  ::close(dir_fd);

  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "child verdict (3=pipe, 4=did not block, 5=threw)";

  // The child's commit landed intact once the lock was released.
  fv::store::ArtifactStore store(dir_);
  const auto reader = store.open(fv::store::ArtifactKind::kBlob, 0x10cc);
  ASSERT_TRUE(reader.has_value());
  EXPECT_EQ(reader->scalar<std::uint64_t>(0), 0x10ccull);
}

// ---- fsck --------------------------------------------------------------

TEST_F(FsckTest, CleanStoreScansClean) {
  fv::store::ArtifactStore store(dir_);
  store.put(fv::store::ArtifactKind::kBlob, 1,
            [](auto& w) { w.scalar(std::uint64_t{1}); });
  const auto report = fv::store::fsck_scan(dir_);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.valid, 1u);
  ASSERT_EQ(report.entries.size(), 1u);
  EXPECT_EQ(report.entries[0].verdict, fv::store::FsckVerdict::kValid);
}

TEST_F(FsckTest, ClassifiesEveryDamageKindAndRepairs) {
  fv::store::ArtifactStore store(dir_);
  store.put(fv::store::ArtifactKind::kBlob, 1,
            [](auto& w) { w.scalar(std::uint64_t{1}); });
  store.put(fv::store::ArtifactKind::kBlob, 2,
            [](auto& w) { w.scalar(std::uint64_t{2}); });
  store.put(fv::store::ArtifactKind::kBlob, 3,
            [](auto& w) { w.scalar(std::uint64_t{3}); });

  // corrupt #2
  flip_byte(store.artifact_path(fv::store::ArtifactKind::kBlob, 2), 70);
  // make #3 stale: bump the format version and re-seal the header so only
  // the version check fires
  {
    const auto path = store.artifact_path(fv::store::ArtifactKind::kBlob, 3);
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    fv::store::ArtifactHeader header{};
    f.read(reinterpret_cast<char*>(&header), sizeof(header));
    header.version = 999;
    header.header_checksum = fv::xxhash64(
        std::as_bytes(std::span<const fv::store::ArtifactHeader>(&header, 1))
            .first(offsetof(fv::store::ArtifactHeader, header_checksum)));
    f.seekp(0);
    f.write(reinterpret_cast<const char*>(&header), sizeof(header));
  }
  // orphaned commit temporary
  {
    std::ofstream f(dir_ + "/blob-00000000000000ff.fva.tmp",
                    std::ios::binary);
    f.write("interrupted", 11);
  }

  const auto scan = fv::store::fsck_scan(dir_);
  EXPECT_FALSE(scan.clean());
  EXPECT_EQ(scan.valid, 1u);
  EXPECT_EQ(scan.corrupt, 1u);
  EXPECT_EQ(scan.stale, 1u);
  EXPECT_EQ(scan.orphan_tmp, 1u);
  EXPECT_EQ(scan.repaired, 0u);  // scan never touches files

  const auto repair = fv::store::fsck_repair(dir_);
  EXPECT_EQ(repair.repaired, 3u);
  // corrupt evidence moved to quarantine, not destroyed
  EXPECT_TRUE(fs::exists(fs::path(dir_) / "quarantine" /
                         "blob-0000000000000002.fva"));

  const auto after = fv::store::fsck_scan(dir_);
  EXPECT_TRUE(after.clean());
  EXPECT_EQ(after.valid, 1u);
  // the intact artifact survived repair
  ASSERT_TRUE(store.open(fv::store::ArtifactKind::kBlob, 1).has_value());
}

}  // namespace