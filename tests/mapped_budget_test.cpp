// Memory-budget proof of the out-of-core path: the borrowed-mapped engine's
// distance phase must run in O(working set), not O(engine state).
//
// This test lives in its own executable (fv_budget_tests) because it
// measures process-wide peaks: VmHWM (/proc/self/status) is a monotonic
// high-water mark, so the measuring process must not have run unrelated
// tests first, and the heap comparison phase runs in a FORKED child whose
// peak is read from wait4()'s ru_maxrss — the child's 200+ MB never touch
// the parent's mark.
//
// Shape: n = 1024 profiles x 16384 values, complete data, Pearson. The
// persisted engine artifact is ~134 MB (filled + normalized slabs dominate).
//  * heap path  (child): the engine built on the heap with
//    SimilarityEngine::from_rows — peak RSS ≈ input matrix + engine state
//    ≈ 200+ MB. (Every store open borrows, so the heap reference is a
//    build, not an open.)
//  * mapped path (parent): the store's borrowed open (ArtifactStore::open
//    kOnDemand + EngineCodec::load) + the serial streaming condensed
//    driver — pages fault in per tile stripe and are released behind the
//    cursor, so the parent's VmHWM delta stays around one validation
//    chunk + two row stripes + the condensed output.
//
// CI additionally runs this executable under `ulimit -v` BELOW what the
// heap copy needs (see .github/workflows): FV_BUDGET_MODE=prepare builds
// and persists the artifact uncapped, FV_BUDGET_MODE=mapped then opens and
// streams it inside the cap — the leg passes only if the mapped path never
// materializes engine state on the heap.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "expr/expression_matrix.hpp"
#include "sim/similarity_engine.hpp"
#include "store/artifact_store.hpp"
#include "store/cached.hpp"
#include "util/triangular.hpp"

namespace {

namespace fs = std::filesystem;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kUnderSanitizer = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kUnderSanitizer = true;
#else
constexpr bool kUnderSanitizer = false;
#endif
#else
constexpr bool kUnderSanitizer = false;
#endif

constexpr std::size_t kProfiles = 1024;
constexpr std::size_t kLength = 16384;
/// Cache key of the budget matrix. open_or_build_engine treats input_key
/// as an opaque cache key, so a fixed constant lets every phase (and the
/// capped CI process) address the artifact without materializing the 64 MB
/// matrix just to hash it.
constexpr std::uint64_t kInputKey = 0xb00d0001;

/// Complete (no missing cells) deterministic matrix — formula-generated so
/// prepare/heap/mapped phases agree without shipping data between them.
fv::expr::ExpressionMatrix budget_matrix() {
  fv::expr::ExpressionMatrix m(kProfiles, kLength);
  for (std::size_t r = 0; r < kProfiles; ++r) {
    const float phase = static_cast<float>(r % 31) * 0.2f;
    const auto row = m.row(r);
    for (std::size_t c = 0; c < kLength; ++c) {
      row[c] = std::sin(phase + 0.001f * static_cast<float>(c)) +
               0.0001f * static_cast<float>((r * 131 + c * 17) % 97);
    }
  }
  return m;
}

std::string store_dir() {
  if (const char* dir = std::getenv("FV_BUDGET_DIR")) return dir;
  return (fs::temp_directory_path() / "fv_budget_store").string();
}

/// VmHWM of this process in KiB — the kernel's peak-resident high-water
/// mark, which madvise(MADV_DONTNEED) page drops genuinely keep low.
long vm_hwm_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtol(line.c_str() + 6, nullptr, 10);
    }
  }
  return -1;
}

void build_and_persist(fv::store::ArtifactStore& store) {
  fv::store::OpenStats stats;
  const auto engine = fv::store::open_or_build_engine(
      store, kInputKey, []() { return budget_matrix(); },
      fv::sim::Metric::kPearson, fv::sim::Precompute::kAllPairs,
      fv::sim::DenseKernel::kAuto, &stats);
  ASSERT_EQ(engine.size(), kProfiles);
  ASSERT_TRUE(stats.warm || stats.persisted);
}

/// The measured workload, identical for heap and mapped phases: serial
/// condensed distance triangle over the opened engine.
void run_condensed(const fv::sim::SimilarityEngine& engine) {
  std::vector<float> out(fv::condensed_size(engine.size()));
  engine.condensed_distances(std::span<float>(out));
  // Keep the optimizer honest and sanity-check the values are real.
  ASSERT_GT(out[0], -1.0f);
  ASSERT_LT(out[0], 5.0f);
}

void open_mapped_and_stream(fv::store::ArtifactStore& store) {
  const auto key = fv::store::engine_key(
      kInputKey, fv::sim::Metric::kPearson, fv::sim::Precompute::kAllPairs,
      fv::sim::DenseKernel::kAuto);
  auto reader = store.open(fv::store::ArtifactKind::kEngine, key,
                           fv::store::PageResidency::kOnDemand);
  ASSERT_TRUE(reader.has_value()) << "run the prepare phase first";
  std::size_t section = 0;
  const auto mapped = fv::store::EngineCodec::load(
      std::make_shared<const fv::store::ArtifactReader>(std::move(*reader)),
      section);
  ASSERT_EQ(mapped.storage(), fv::sim::EngineStorage::kBorrowedMapped);
  run_condensed(mapped);
}

TEST(MappedBudgetTest, StreamedDistancePhaseStaysInWorkingSetBudget) {
  if (kUnderSanitizer) {
    GTEST_SKIP() << "sanitizer shadow memory invalidates RSS accounting";
  }
#ifndef NDEBUG
  GTEST_SKIP() << "RSS budget is only meaningful with optimized kernels";
#endif
  const std::string dir = store_dir();
  const char* mode_env = std::getenv("FV_BUDGET_MODE");
  const std::string mode = mode_env ? mode_env : "";

  if (mode == "prepare") {
    // Uncapped CI phase: leave a committed artifact for the capped run.
    fs::create_directories(dir);
    fv::store::ArtifactStore store(dir);
    build_and_persist(store);
    return;
  }
  if (mode == "mapped") {
    // Capped CI phase (ulimit -v below the heap copy): open + stream. A
    // regression that copies engine slabs to the heap aborts on the cap.
    fv::store::ArtifactStore store(dir);
    open_mapped_and_stream(store);
    return;
  }

  // Self-contained mode: prepare and the heap phase each run in a forked
  // child (their peaks reaped via ru_maxrss), the mapped phase runs here
  // against a VmHWM delta.
  fs::remove_all(dir);
  fs::create_directories(dir);

  const auto run_child = [&](void (*phase)(fv::store::ArtifactStore&)) {
    const pid_t pid = fork();
    if (pid == 0) {
      {
        fv::store::ArtifactStore store(dir);
        phase(store);
      }
      _exit(::testing::Test::HasFailure() ? 1 : 0);
    }
    int status = 0;
    struct rusage usage {};
    EXPECT_EQ(wait4(pid, &status, 0, &usage), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    return usage.ru_maxrss;  // KiB on Linux
  };

  (void)run_child([](fv::store::ArtifactStore& store) {
    build_and_persist(store);
  });
  // Heap phase: the engine built on the heap + the same serial condensed
  // workload.
  const long heap_peak_kb = run_child([](fv::store::ArtifactStore&) {
    const auto engine = fv::sim::SimilarityEngine::from_rows(
        budget_matrix(), fv::sim::Metric::kPearson);
    ASSERT_EQ(engine.storage(), fv::sim::EngineStorage::kOwnedHeap);
    run_condensed(engine);
  });

  // Mapped phase in THIS process, bracketed by the high-water mark. The
  // measurement needs the kernel to expose VmHWM in /proc/self/status —
  // absent on non-Linux kernels and some hardened/containerized procfs
  // mounts. Without it there is nothing to bracket, so skip (loudly)
  // rather than fail on an environment limitation.
  const long before_kb = vm_hwm_kb();
  if (before_kb <= 0) {
    GTEST_SKIP() << "VmHWM not readable from /proc/self/status on this "
                    "system; the mapped-budget measurement needs the "
                    "kernel's peak-RSS high-water mark";
  }
  {
    fv::store::ArtifactStore store(dir);
    open_mapped_and_stream(store);
  }
  const long after_kb = vm_hwm_kb();
  const long delta_kb = after_kb - before_kb;

  const auto artifact_kb = static_cast<long>(
      fs::file_size(fv::store::ArtifactStore(dir).artifact_path(
          fv::store::ArtifactKind::kEngine,
          fv::store::engine_key(kInputKey, fv::sim::Metric::kPearson,
                                fv::sim::Precompute::kAllPairs,
                                fv::sim::DenseKernel::kAuto))) /
      1024);
  RecordProperty("artifact_kb", static_cast<int>(artifact_kb));
  RecordProperty("heap_peak_kb", static_cast<int>(heap_peak_kb));
  RecordProperty("mapped_delta_kb", static_cast<int>(delta_kb));
  std::fprintf(stderr,
               "[budget] artifact=%ld KiB heap_peak=%ld KiB "
               "mapped_delta=%ld KiB\n",
               artifact_kb, heap_peak_kb, delta_kb);

  // The engine state really is out-of-scale for the budget...
  ASSERT_GE(artifact_kb, 128L * 1024);
  // ...the streamed mapped phase stays inside a working-set budget that is
  // a small fraction of it (one validation chunk + tile stripes in flight +
  // the condensed output + allocator noise)...
  EXPECT_LE(delta_kb, 48L * 1024);
  // ...and the peak-RSS drop vs the heap path is at least 5x.
  EXPECT_GE(heap_peak_kb, 5 * std::max(delta_kb, 1L));

  fs::remove_all(dir);
}

}  // namespace
