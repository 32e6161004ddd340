// Storage-fault chaos suite: every injected fault family (torn write,
// truncation, bit flip, ENOSPC, crash-at-op-N) driven through the commit
// protocol and the recompute-or-repair degradation ladder. The invariant
// under test is the store's whole contract: a fault may cost a recompute,
// but it never crashes a consumer, never hangs, and never surfaces wrong
// data — recovery is always bit-identical to a storeless build.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <vector>

#include "cluster/distance.hpp"
#include "expr/dataset.hpp"
#include "expr/gene.hpp"
#include "par/thread_pool.hpp"
#include "sim/lsh.hpp"
#include "sim/similarity_engine.hpp"
#include "spell/spell.hpp"
#include "store/artifact_store.hpp"
#include "store/cached.hpp"
#include "store/fsck.hpp"
#include "util/rng.hpp"
#include "util/triangular.hpp"

namespace {

namespace fs = std::filesystem;

class StoreChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("fv_store_chaos_" +
             std::string(
                 ::testing::UnitTest::GetInstance()->current_test_info()
                     ->name())))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Commits one u64 blob under `key` through a clean store.
  void put_blob(std::uint64_t key, std::uint64_t value) {
    fv::store::ArtifactStore store(dir_);
    store.put(fv::store::ArtifactKind::kBlob, key,
              [&](auto& w) { w.scalar(value); });
  }

  /// Reads the blob back through a clean store; the artifact must open.
  std::uint64_t read_blob(std::uint64_t key) {
    fv::store::ArtifactStore store(dir_);
    const auto reader = store.open(fv::store::ArtifactKind::kBlob, key);
    EXPECT_TRUE(reader.has_value());
    return reader ? reader->scalar<std::uint64_t>(0) : 0;
  }

  /// Serves the blob through the degradation ladder with `compute` as the
  /// cold fallback.
  std::uint64_t serve_blob(fv::store::ArtifactStore& store,
                           std::uint64_t key, std::uint64_t fallback,
                           fv::store::OpenStats* stats = nullptr) {
    return fv::store::load_or_compute<std::uint64_t>(
        store, fv::store::ArtifactKind::kBlob, key,
        [](std::shared_ptr<const fv::store::ArtifactReader> r) {
          return r->scalar<std::uint64_t>(0);
        },
        [fallback]() { return fallback; },
        [](fv::store::ArtifactWriter& w, const std::uint64_t& v) {
          w.scalar(v);
        },
        stats);
  }

  std::string dir_;
};

using StoreChaosConsumerTest = StoreChaosTest;

constexpr std::uint64_t kKey = 0xc0ffee;
constexpr std::uint64_t kOld = 0xaaaaaaaaaaaaaaaaULL;
constexpr std::uint64_t kNew = 0xbbbbbbbbbbbbbbbbULL;

TEST_F(StoreChaosTest, CleanSpecInjectsNothing) {
  fv::store::FaultSpec spec;  // all rates zero, no crash point
  EXPECT_FALSE(spec.any());
  fv::store::ArtifactStore store(dir_, spec);
  store.put(fv::store::ArtifactKind::kBlob, kKey,
            [](auto& w) { w.scalar(kOld); });
  EXPECT_EQ(read_blob(kKey), kOld);
  const auto& stats = store.faults().stats();
  EXPECT_EQ(stats.torn_writes.load(), 0u);
  EXPECT_EQ(stats.bitflips.load(), 0u);
  EXPECT_EQ(stats.truncations.load(), 0u);
  EXPECT_EQ(stats.enospc.load(), 0u);
  EXPECT_EQ(stats.crashes.load(), 0u);
}

TEST_F(StoreChaosTest, TornWriteIsDetectedAndRecovered) {
  fv::store::FaultSpec spec;
  spec.seed = 1;
  spec.torn_write_rate = 1.0;  // every copy persists only a prefix
  {
    fv::store::ArtifactStore store(dir_, spec);
    store.put(fv::store::ArtifactKind::kBlob, kKey,
              [](auto& w) { w.scalar(kOld); });
    EXPECT_GT(store.faults().stats().torn_writes.load(), 0u);
  }
  // The commit "succeeded" — a lost sector write is silent — so the file
  // exists but cannot pass its checksums.
  fv::store::ArtifactStore reader(dir_);
  EXPECT_TRUE(reader.contains(fv::store::ArtifactKind::kBlob, kKey));
  EXPECT_THROW((void)reader.open(fv::store::ArtifactKind::kBlob, kKey),
               fv::CorruptArtifactError);
  // The ladder turns that into a recompute + self-heal, never a crash.
  fv::store::OpenStats stats;
  EXPECT_EQ(serve_blob(reader, kKey, kNew, &stats), kNew);
  EXPECT_TRUE(stats.recovered);
  EXPECT_FALSE(stats.warm);
  EXPECT_EQ(reader.stats().quarantined.load(), 1u);
  EXPECT_EQ(read_blob(kKey), kNew);  // healed artifact serves warm now
}

TEST_F(StoreChaosTest, InjectedBitFlipIsDetectedAndRecovered) {
  fv::store::FaultSpec spec;
  spec.seed = 2;
  spec.bitflip_rate = 1.0;
  {
    fv::store::ArtifactStore store(dir_, spec);
    store.put(fv::store::ArtifactKind::kBlob, kKey,
              [](auto& w) { w.scalar(kOld); });
    EXPECT_GT(store.faults().stats().bitflips.load(), 0u);
  }
  fv::store::ArtifactStore reader(dir_);
  EXPECT_THROW((void)reader.open(fv::store::ArtifactKind::kBlob, kKey),
               fv::CorruptArtifactError);
  EXPECT_EQ(serve_blob(reader, kKey, kNew), kNew);
}

TEST_F(StoreChaosTest, SyncTruncationIsDetectedAndRecovered) {
  fv::store::FaultSpec spec;
  spec.seed = 3;
  spec.truncate_rate = 1.0;  // every sync chops the tail instead
  {
    fv::store::ArtifactStore store(dir_, spec);
    store.put(fv::store::ArtifactKind::kBlob, kKey,
              [](auto& w) { w.scalar(kOld); });
    EXPECT_GT(store.faults().stats().truncations.load(), 0u);
  }
  fv::store::ArtifactStore reader(dir_);
  EXPECT_THROW((void)reader.open(fv::store::ArtifactKind::kBlob, kKey),
               fv::CorruptArtifactError);
  EXPECT_EQ(serve_blob(reader, kKey, kNew), kNew);
}

TEST_F(StoreChaosTest, ManualBitFlipHeaderVersusPayload) {
  put_blob(kKey, kOld);
  fv::store::ArtifactStore store(dir_);
  const auto path = store.artifact_path(fv::store::ArtifactKind::kBlob, kKey);
  const auto flip = [&](std::size_t offset) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(offset));
    char b = 0;
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x40);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&b, 1);
  };
  // One flipped bit in the header: the header checksum catches it and the
  // ladder recovers with the recomputed value.
  flip(30);
  fv::store::OpenStats header_stats;
  EXPECT_EQ(serve_blob(store, kKey, kNew, &header_stats), kNew);
  EXPECT_TRUE(header_stats.recovered);
  // One flipped bit in the payload of the healed artifact: the payload
  // checksum catches it the same way.
  flip(70);
  fv::store::OpenStats payload_stats;
  EXPECT_EQ(serve_blob(store, kKey, kOld, &payload_stats), kOld);
  EXPECT_TRUE(payload_stats.recovered);
  EXPECT_EQ(store.stats().corrupt.load(), 2u);
}

TEST_F(StoreChaosTest, EnospcAbortsCleanlyOldOrNone) {
  fv::store::FaultSpec spec;
  spec.seed = 4;
  spec.enospc_rate = 1.0;  // every allocation fails

  {  // no prior artifact: commit aborts, nothing appears, no tmp left
    fv::store::ArtifactStore store(dir_, spec);
    EXPECT_THROW(store.put(fv::store::ArtifactKind::kBlob, kKey,
                           [](auto& w) { w.scalar(kNew); }),
                 fv::IoError);
    EXPECT_GT(store.faults().stats().enospc.load(), 0u);
  }
  EXPECT_FALSE(fs::exists(
      fv::store::ArtifactStore(dir_).artifact_path(
          fv::store::ArtifactKind::kBlob, kKey)));
  EXPECT_TRUE(fv::store::fsck_scan(dir_).clean());  // no orphan tmp

  put_blob(kKey, kOld);
  {  // prior artifact: the failed commit leaves it untouched
    fv::store::ArtifactStore store(dir_, spec);
    EXPECT_THROW(store.put(fv::store::ArtifactKind::kBlob, kKey,
                           [](auto& w) { w.scalar(kNew); }),
                 fv::IoError);
  }
  EXPECT_EQ(read_blob(kKey), kOld);

  // Through the ladder a full disk degrades to serving the computed value:
  // persist fails, the value is still correct.
  fv::store::ArtifactStore store(dir_, spec);
  fs::remove(store.artifact_path(fv::store::ArtifactKind::kBlob, kKey));
  fv::store::OpenStats stats;
  EXPECT_EQ(serve_blob(store, kKey, kNew, &stats), kNew);
  EXPECT_FALSE(stats.persisted);
  EXPECT_EQ(store.stats().persist_failures.load(), 1u);
}

TEST_F(StoreChaosTest, CrashAtEveryOpLeavesOldArtifactOrNew) {
  // Probe the protocol length with a clean injector: one put = M ops.
  std::uint64_t ops = 0;
  {
    fv::store::ArtifactStore probe(dir_);
    probe.put(fv::store::ArtifactKind::kBlob, kKey,
              [](auto& w) { w.scalar(kOld); });
    ops = probe.faults().ops();
  }
  // 1 allocate, 2 copy header, 3 copy payload, 4 sync, 5 rename,
  // 6 directory sync — pin the protocol so a new op shows up here first.
  ASSERT_EQ(ops, 6u);

  for (std::uint64_t n = 1; n <= ops; ++n) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    put_blob(kKey, kOld);  // the committed state the crash must preserve

    fv::store::FaultSpec spec;
    spec.crash_at_op = static_cast<std::int64_t>(n);
    fv::store::ArtifactStore dying(dir_, spec);
    bool crashed = false;
    try {
      dying.put(fv::store::ArtifactKind::kBlob, kKey,
                [](auto& w) { w.scalar(kNew); });
    } catch (const fv::InjectedCrash& crash) {
      crashed = true;
      EXPECT_EQ(crash.op, n);
    }
    ASSERT_TRUE(crashed) << "op " << n;

    // The final name is never torn: the old artifact until the rename op
    // ran, the new one after (the rename is op ops-1; the crash fires
    // before its op executes).
    const std::uint64_t value = read_blob(kKey);
    if (n <= ops - 1) {
      EXPECT_EQ(value, kOld) << "op " << n;
    } else {
      EXPECT_EQ(value, kNew) << "op " << n;
    }

    // The only possible debris is an orphaned temporary; fsck sweeps it
    // and the next process commits normally.
    const auto report = fv::store::fsck_repair(dir_);
    EXPECT_EQ(report.corrupt, 0u) << "op " << n;
    EXPECT_EQ(report.orphan_tmp + report.valid, report.entries.size());
    EXPECT_TRUE(fv::store::fsck_scan(dir_).clean()) << "op " << n;
    put_blob(kKey, kNew);
    EXPECT_EQ(read_blob(kKey), kNew) << "op " << n;
  }
}

TEST_F(StoreChaosTest, StoreCrashedPropagatesThroughTheLadder) {
  // A simulated dead process must not "recover" — InjectedCrash is not an
  // fv::Error and flies straight through load_or_compute.
  fv::store::FaultSpec spec;
  spec.crash_at_op = 1;
  fv::store::ArtifactStore store(dir_, spec);
  EXPECT_THROW((void)serve_blob(store, kKey, kNew),
               fv::InjectedCrash);
}

TEST_F(StoreChaosTest, SameSeedReproducesTheSameDamage) {
  fv::store::FaultSpec spec;
  spec.seed = 77;
  spec.torn_write_rate = 0.5;
  spec.bitflip_rate = 0.5;
  const auto run = [&]() {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    fv::store::ArtifactStore store(dir_, spec);
    const std::vector<std::uint64_t> payload(64, 0x123456789abcdef0ULL);
    store.put(fv::store::ArtifactKind::kBlob, kKey,
              [&](auto& w) { w.section(payload); });
    std::ifstream f(store.artifact_path(fv::store::ArtifactKind::kBlob,
                                        kKey),
                    std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(f),
                             std::istreambuf_iterator<char>());
  };
  const auto first = run();
  const auto second = run();
  // Same seed, same path, same op sequence: byte-for-byte the same torn /
  // flipped file — chaos scenarios are replayable.
  ASSERT_EQ(first.size(), second.size());
  EXPECT_EQ(std::memcmp(first.data(), second.data(), first.size()), 0);
}

// ---- every cached consumer under every fault family --------------------

fv::expr::ExpressionMatrix chaos_matrix(std::size_t rows, std::size_t cols,
                                        std::uint64_t seed) {
  fv::Rng rng(seed);
  fv::expr::ExpressionMatrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (rng.uniform() < 0.04) continue;  // leave missing
      m.set(r, c,
            static_cast<float>(std::sin(0.7 * (r % 5) + 0.3 * c) +
                               0.2 * rng.normal()));
    }
  }
  return m;
}

TEST_F(StoreChaosConsumerTest, EveryConsumerSurvivesEveryFaultFamily) {
  const auto matrix = chaos_matrix(40, 10, 9);
  const auto input_key = fv::store::matrix_key(matrix);
  const auto load_matrix = [&]() { return matrix; };
  fv::par::ThreadPool pool(2);

  // Storeless reference values every faulted run must reproduce exactly.
  const auto ref_engine = fv::sim::SimilarityEngine::from_rows(
      matrix, fv::sim::Metric::kPearson);
  fv::cluster::DistanceMatrix ref_distances(ref_engine.size());
  ref_engine.condensed_distances(ref_distances.condensed(), pool);
  fv::sim::LshParams lsh_params;
  lsh_params.bits = 64;
  lsh_params.tables = 4;
  const fv::sim::LshIndex ref_index(ref_engine, lsh_params, pool);

  std::vector<fv::store::FaultSpec> specs(4);
  specs[0].torn_write_rate = 1.0;
  specs[1].bitflip_rate = 1.0;
  specs[2].truncate_rate = 1.0;
  specs[3].enospc_rate = 1.0;
  std::uint64_t seed = 100;
  for (auto& spec : specs) spec.seed = seed++;

  for (const auto& spec : specs) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    SCOPED_TRACE("torn=" + std::to_string(spec.torn_write_rate) +
                 " flip=" + std::to_string(spec.bitflip_rate) +
                 " trunc=" + std::to_string(spec.truncate_rate) +
                 " enospc=" + std::to_string(spec.enospc_rate));

    // Round 1, faulted store: cold computes — values must be exactly the
    // reference no matter what the persist side does to the disk.
    // Round 2, clean store over the same directory: whatever round 1 left
    // behind (damaged artifacts, nothing at all) must degrade to the same
    // exact values, never an exception, never a wrong number.
    for (int round = 0; round < 2; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      fv::store::ArtifactStore store(dir_,
                                     round == 0 ? spec
                                                : fv::store::FaultSpec{});
      const auto engine = fv::store::open_or_build_engine(
          store, input_key, load_matrix, fv::sim::Metric::kPearson);
      ASSERT_EQ(engine.size(), ref_engine.size());
      for (std::size_t i = 0; i + 1 < engine.size(); i += 3) {
        EXPECT_EQ(engine.distance(i, i + 1),
                  ref_engine.distance(i, i + 1));
      }

      const auto distances =
          fv::store::open_or_compute_condensed(store, engine, pool);
      ASSERT_EQ(distances.size(), ref_distances.size());
      EXPECT_EQ(std::memcmp(distances.condensed().data(),
                            ref_distances.condensed().data(),
                            ref_distances.condensed().size() *
                                sizeof(float)),
                0);

      const auto index =
          fv::store::open_or_build_lsh(store, engine, lsh_params, pool);
      ASSERT_EQ(index.size(), ref_index.size());
      for (std::size_t i = 0; i < index.size(); ++i) {
        const auto got = index.signature(i);
        const auto want = ref_index.signature(i);
        ASSERT_EQ(got.size(), want.size());
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              want.size() * sizeof(std::uint64_t)),
                  0);
      }
    }
  }
}

TEST_F(StoreChaosConsumerTest, LshAndSpellSurviveTornWrites) {
  fv::par::ThreadPool pool(2);
  fv::store::FaultSpec spec;
  spec.seed = 55;
  spec.torn_write_rate = 1.0;

  // LSH bank: faulted cold build == clean warm-less build, exactly.
  const auto matrix = chaos_matrix(120, 12, 21);
  const auto engine = fv::sim::SimilarityEngine::from_rows(
      matrix, fv::sim::Metric::kPearson);
  fv::sim::LshParams params;
  params.bits = 64;
  params.tables = 8;
  const fv::sim::LshIndex reference(engine, params, pool);
  for (int round = 0; round < 2; ++round) {
    fv::store::ArtifactStore store(dir_, round == 0 ? spec
                                                    : fv::store::FaultSpec{});
    const auto index =
        fv::store::open_or_build_lsh(store, engine, params, pool);
    ASSERT_EQ(index.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      const auto a = reference.signature(i);
      const auto b = index.signature(i);
      ASSERT_EQ(a.size(), b.size());
      EXPECT_EQ(std::memcmp(a.data(), b.data(),
                            a.size() * sizeof(std::uint64_t)),
                0);
    }
  }

  // SPELL bank: same two-round sweep, ranked output must match exactly.
  std::vector<fv::expr::Dataset> datasets;
  for (int d = 0; d < 2; ++d) {
    const std::size_t rows = 24;
    const std::size_t cols = 8;
    std::vector<fv::expr::GeneInfo> genes(rows);
    for (std::size_t r = 0; r < rows; ++r) {
      genes[r].systematic_name = "G" + std::to_string(r);
    }
    std::vector<std::string> conditions(cols);
    for (std::size_t c = 0; c < cols; ++c) {
      conditions[c] = "c" + std::to_string(c);
    }
    datasets.emplace_back("ds" + std::to_string(d), std::move(genes),
                          std::move(conditions),
                          chaos_matrix(rows, cols, 300 + d));
  }
  const fv::spell::SpellSearch ref_search(datasets, pool);
  const std::vector<std::string> query{"G1", "G2"};
  const auto expected = ref_search.search(query);
  for (int round = 0; round < 2; ++round) {
    fv::store::ArtifactStore store(dir_, round == 0 ? spec
                                                    : fv::store::FaultSpec{});
    const auto search =
        fv::store::open_or_build_spell(store, datasets, pool);
    const auto got = search.search(query);
    ASSERT_EQ(got.gene_ranking.size(), expected.gene_ranking.size());
    for (std::size_t i = 0; i < expected.gene_ranking.size(); ++i) {
      EXPECT_EQ(got.gene_ranking[i].gene, expected.gene_ranking[i].gene);
      EXPECT_EQ(got.gene_ranking[i].score, expected.gene_ranking[i].score);
    }
  }
}

// ---- mapped (out-of-core) opens under damage ---------------------------
//
// Every engine, LSH index and SPELL bank the store restores is borrowed: a
// consumer holds read-only spans into the artifact file for its whole
// lifetime, so damage must be caught as a typed error AT OPEN (the
// kOnDemand chunk-streamed checksum), and damage that arrives AFTER open
// (a foreign truncation under the mapping) must surface as
// fv::CorruptArtifactError from a backing check — never a SIGBUS.

using StoreChaosMappedTest = StoreChaosTest;

/// The raw open + decode the ladder runs on its warm rung, without the
/// ladder: damage surfaces as the typed error itself.
fv::sim::SimilarityEngine open_engine_raw(fv::store::ArtifactStore& store,
                                          fv::store::ArtifactKey key) {
  auto reader = store.open(fv::store::ArtifactKind::kEngine, key,
                           fv::store::PageResidency::kOnDemand);
  if (!reader.has_value()) throw fv::IoError("engine artifact absent");
  std::size_t section = 0;
  return fv::store::EngineCodec::load(
      std::make_shared<const fv::store::ArtifactReader>(std::move(*reader)),
      section);
}

fv::sim::LshIndex open_lsh_raw(fv::store::ArtifactStore& store,
                               fv::store::ArtifactKey key) {
  auto reader = store.open(fv::store::ArtifactKind::kLshIndex, key,
                           fv::store::PageResidency::kOnDemand);
  if (!reader.has_value()) throw fv::IoError("LSH artifact absent");
  std::size_t section = 0;
  return fv::store::LshCodec::load(
      std::make_shared<const fv::store::ArtifactReader>(std::move(*reader)),
      section);
}

TEST_F(StoreChaosMappedTest, EveryFaultFamilyGivesTypedErrorAtMappedOpen) {
  const auto matrix = chaos_matrix(48, 10, 31);
  const auto input_key = fv::store::matrix_key(matrix);
  const auto engine_key = fv::store::engine_key(
      input_key, fv::sim::Metric::kPearson, fv::sim::Precompute::kAllPairs,
      fv::sim::DenseKernel::kAuto);

  std::vector<fv::store::FaultSpec> specs(3);
  specs[0].torn_write_rate = 1.0;
  specs[1].bitflip_rate = 1.0;
  specs[2].truncate_rate = 1.0;
  std::uint64_t seed = 400;
  for (auto& spec : specs) spec.seed = seed++;

  for (const auto& spec : specs) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    SCOPED_TRACE("torn=" + std::to_string(spec.torn_write_rate) +
                 " flip=" + std::to_string(spec.bitflip_rate) +
                 " trunc=" + std::to_string(spec.truncate_rate));
    {  // persist through a faulted store: the artifact lands damaged
      fv::store::ArtifactStore dying(dir_, spec);
      (void)fv::store::open_or_build_engine(
          dying, input_key, [&]() { return matrix; },
          fv::sim::Metric::kPearson);
    }
    // The raw mapped open reports the damage as a typed error...
    fv::store::ArtifactStore reader(dir_);
    EXPECT_THROW((void)open_engine_raw(reader, engine_key),
                 fv::CorruptArtifactError);
    // ...and the degradation ladder quarantines it, recomputes exact
    // values, then serves the self-healed artifact borrowed-mapped.
    fv::store::OpenStats stats;
    const auto healed = fv::store::open_or_build_engine(
        reader, input_key, [&]() { return matrix; },
        fv::sim::Metric::kPearson, fv::sim::Precompute::kAllPairs,
        fv::sim::DenseKernel::kAuto, &stats);
    EXPECT_TRUE(stats.recovered);
    EXPECT_TRUE(stats.persisted);
    EXPECT_EQ(reader.stats().quarantined.load(), 1u);
    EXPECT_EQ(healed.storage(), fv::sim::EngineStorage::kBorrowedMapped);
    const auto reference = fv::sim::SimilarityEngine::from_rows(
        matrix, fv::sim::Metric::kPearson);
    for (std::size_t i = 0; i + 1 < reference.size(); i += 3) {
      EXPECT_EQ(healed.distance(i, i + 1), reference.distance(i, i + 1));
    }
  }
}

TEST_F(StoreChaosMappedTest, FileShrunkAfterOpenIsTypedErrorNotSigbus) {
  const auto matrix = chaos_matrix(96, 12, 33);
  const auto input_key = fv::store::matrix_key(matrix);
  fv::store::ArtifactStore store(dir_);
  fv::store::OpenStats stats;
  const auto mapped = fv::store::open_or_build_engine(
      store, input_key, [&]() { return matrix; }, fv::sim::Metric::kPearson,
      fv::sim::Precompute::kAllPairs, fv::sim::DenseKernel::kAuto, &stats);
  ASSERT_EQ(mapped.storage(), fv::sim::EngineStorage::kBorrowedMapped);

  // Sanity: the streaming driver runs clean before the damage.
  std::vector<float> out(fv::condensed_size(mapped.size()));
  mapped.condensed_distances(std::span<float>(out));

  // A foreign process truncates the artifact UNDER the live mapping. The
  // mapping itself cannot notice (mmap keeps the old length); touching an
  // evaporated page is SIGBUS. The streaming driver's per-stripe backing
  // check must turn that into a typed error before any touch.
  const auto path = store.artifact_path(
      fv::store::ArtifactKind::kEngine,
      fv::store::engine_key(input_key, fv::sim::Metric::kPearson,
                            fv::sim::Precompute::kAllPairs,
                            fv::sim::DenseKernel::kAuto));
  fs::resize_file(path, fs::file_size(path) / 2);
  EXPECT_THROW(mapped.condensed_distances(std::span<float>(out)),
               fv::CorruptArtifactError);

  // The pooled driver and top-k run the same guard at phase start.
  fv::par::ThreadPool pool(2);
  EXPECT_THROW(mapped.condensed_distances(std::span<float>(out), pool),
               fv::CorruptArtifactError);
  EXPECT_THROW((void)mapped.top_k_neighbors(4, pool),
               fv::CorruptArtifactError);
}

TEST_F(StoreChaosMappedTest, DamagedLshArtifactGivesTypedErrorAtMappedOpen) {
  fv::par::ThreadPool pool(2);
  const auto matrix = chaos_matrix(80, 12, 35);
  const auto engine = fv::sim::SimilarityEngine::from_rows(
      matrix, fv::sim::Metric::kPearson);
  fv::sim::LshParams params;
  params.bits = 64;
  params.tables = 8;
  const auto key =
      fv::store::lsh_key(fv::store::EngineCodec::content_key(engine), params);
  const fv::sim::LshIndex reference(engine, params, pool);

  fv::store::ArtifactStore store(dir_);
  (void)fv::store::open_or_build_lsh(store, engine, params, pool);
  const auto mapped = open_lsh_raw(store, key);
  EXPECT_EQ(mapped.storage(), fv::sim::EngineStorage::kBorrowedMapped);

  const auto path = store.artifact_path(fv::store::ArtifactKind::kLshIndex,
                                        key);
  {  // flip one payload byte: the chunk-streamed checksum must catch it
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(200);
    char b = 0;
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x08);
    f.seekp(200);
    f.write(&b, 1);
  }
  fv::store::ArtifactStore second(dir_);
  EXPECT_THROW((void)open_lsh_raw(second, key), fv::CorruptArtifactError);

  // The ladder quarantines the damaged bank, rebuilds it exactly and
  // serves the self-healed artifact borrowed on the next open.
  fv::store::OpenStats healed_stats;
  const auto healed =
      fv::store::open_or_build_lsh(second, engine, params, pool,
                                   &healed_stats);
  EXPECT_TRUE(healed_stats.recovered);
  EXPECT_TRUE(healed_stats.persisted);
  EXPECT_EQ(second.stats().quarantined.load(), 1u);
  fv::store::OpenStats warm_stats;
  const auto served =
      fv::store::open_or_build_lsh(second, engine, params, pool, &warm_stats);
  EXPECT_TRUE(warm_stats.warm);
  EXPECT_EQ(served.storage(), fv::sim::EngineStorage::kBorrowedMapped);
  for (const fv::sim::LshIndex* index : {&healed, &served}) {
    ASSERT_EQ(index->size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      const auto a = reference.signature(i);
      const auto b = index->signature(i);
      EXPECT_EQ(std::memcmp(a.data(), b.data(),
                            a.size() * sizeof(std::uint64_t)),
                0);
    }
  }
}

TEST_F(StoreChaosMappedTest, ShrunkLshArtifactIsTypedErrorInApproxTopK) {
  fv::par::ThreadPool pool(2);
  const auto matrix = chaos_matrix(160, 12, 37);
  const auto engine = fv::sim::SimilarityEngine::from_rows(
      matrix, fv::sim::Metric::kPearson);
  fv::sim::LshParams params;
  params.bits = 64;
  params.tables = 8;

  fv::store::ArtifactStore store(dir_);
  (void)fv::store::open_or_build_lsh(store, engine, params, pool);
  fv::store::OpenStats stats;
  const auto index =
      fv::store::open_or_build_lsh(store, engine, params, pool, &stats);
  ASSERT_TRUE(stats.warm);
  ASSERT_EQ(index.storage(), fv::sim::EngineStorage::kBorrowedMapped);
  // Sanity: the borrowed index serves kApprox before the damage.
  (void)engine.top_k_neighbors(4, pool, 0, fv::sim::TopKStrategy::kApprox,
                               nullptr, params, &index);

  const auto path = store.artifact_path(
      fv::store::ArtifactKind::kLshIndex,
      fv::store::lsh_key(fv::store::EngineCodec::content_key(engine),
                         params));
  fs::resize_file(path, fs::file_size(path) / 2);
  // The engine is on the heap; only the index's tables vanished. The
  // candidate sweep must be refused by the index's backing check.
  EXPECT_THROW((void)engine.top_k_neighbors(4, pool, 0,
                                            fv::sim::TopKStrategy::kApprox,
                                            nullptr, params, &index),
               fv::CorruptArtifactError);
}

TEST_F(StoreChaosMappedTest, ShrunkSpellArtifactIsTypedErrorInSearch) {
  fv::par::ThreadPool pool(2);
  std::vector<fv::expr::Dataset> datasets;
  for (int d = 0; d < 4; ++d) {
    const std::size_t rows = 64;
    const std::size_t cols = 10;
    std::vector<fv::expr::GeneInfo> genes(rows);
    for (std::size_t r = 0; r < rows; ++r) {
      genes[r].systematic_name = "G" + std::to_string(r);
    }
    std::vector<std::string> conditions(cols);
    for (std::size_t c = 0; c < cols; ++c) {
      conditions[c] = "c" + std::to_string(c);
    }
    datasets.emplace_back("ds" + std::to_string(d), std::move(genes),
                          std::move(conditions),
                          chaos_matrix(rows, cols, 500 + d));
  }
  // Query genes present in every dataset, so every bank's rows are read.
  const std::vector<std::string> query{"G1", "G6", "G11"};

  fv::store::ArtifactStore store(dir_);
  (void)fv::store::open_or_build_spell(store, datasets, pool);
  fv::store::OpenStats stats;
  const auto search =
      fv::store::open_or_build_spell(store, datasets, pool, &stats);
  ASSERT_TRUE(stats.warm);
  const auto expected = fv::spell::SpellSearch(datasets, pool).search(query);
  const auto got = search.search(query, {}, pool);
  ASSERT_EQ(got.gene_ranking.size(), expected.gene_ranking.size());
  for (std::size_t i = 0; i < expected.gene_ranking.size(); ++i) {
    EXPECT_EQ(got.gene_ranking[i].gene, expected.gene_ranking[i].gene);
    EXPECT_EQ(got.gene_ranking[i].score, expected.gene_ranking[i].score);
  }

  const auto path =
      store.artifact_path(fv::store::ArtifactKind::kEngine,
                          fv::store::SpellCodec::content_key(datasets));
  fs::resize_file(path, fs::file_size(path) / 2);
  EXPECT_THROW((void)search.search(query, {}, pool),
               fv::CorruptArtifactError);
}

}  // namespace
