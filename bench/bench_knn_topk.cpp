// ISSUE 3 + ISSUE 5 benchmarks: streaming top-k neighbor engine, float
// dense kernel, and the norm-bound pruned top-k strategy.
//
// What this bench reports:
//  * BM_TopKNeighbors         — streamed n x k neighbor tables vs n
//  * BM_TopKNeighbors{Exact,Pruned} — the exact tile stream vs the
//                               Cauchy–Schwarz bound-pruned schedule on
//                               dataset-block module data (the pruned run
//                               exports tiles_pruned/tiles_total/
//                               bounds_checked as JSON counters)
//  * BM_TopKRowsPrefix        — kPruned tables for the first 16, 256 and
//                               4000 rows at n = 4000 (the serving layer's
//                               row-limited top-k job; exports the prefix
//                               schedule's tile counters)
//  * BM_DistancePhaseCondensed— the materializing alternative (same tiles,
//                               n(n-1)/2 floats) for the memory contrast
//  * BM_DenseKernel{Double,Float} — the distance phase under the double
//                               reference kernel vs the 4x-unrolled float
//                               accumulator path (~2x on dense rows)
//  * BM_KnnImputeEngine       — kNN imputation through top_k_neighbors
//                               (the epilogue times it against the
//                               seed's scalar per-pair rescan)
//  * An ISSUE 3 epilogue at n = 4000 genes x 96 conditions, 5% missing,
//    k = 10: distance-phase RSS of the top-k path vs condensed storage
//    (target < 10%), imputation speedup (target >= 3x), and the float
//    kernel's measured max error vs the double reference (target: inside
//    the 1e-6 contract wherever kAuto engages).
//  * An ISSUE 5 epilogue at n = 4000, k = 10 on module-structured data:
//    pruned strategy bit-identical NeighborTable to exact (asserted) and
//    distance-phase speedup (target >= 2x), with the prune statistics.
//  * A row-prefix epilogue at n = 4000, k = 10 on the same data: each
//    prefix table byte-identical to the full table's first rows (asserted:
//    the process exits 1 otherwise) and its share of the full schedule's
//    tiles and time.
#include <benchmark/benchmark.h>

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "expr/expression_matrix.hpp"
#include "expr/normalize.hpp"
#include "par/thread_pool.hpp"
#include "sim/similarity_engine.hpp"
#include "stats/descriptive.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "util/triangular.hpp"

namespace {

namespace ex = fv::expr;
namespace sm = fv::sim;

constexpr std::size_t kConditions = 96;
constexpr double kMissingRate = 0.05;
constexpr std::size_t kNeighbors = 10;

/// Module-structured expression data with a missing-value rate — the
/// imputation workload's natural shape (scattered failed spots over
/// co-regulated modules).
const ex::ExpressionMatrix& genes_matrix(std::size_t genes,
                                         double missing_rate) {
  static std::map<std::pair<std::size_t, int>, ex::ExpressionMatrix> cache;
  const auto key = std::make_pair(
      genes, static_cast<int>(missing_rate * 1000.0));
  const auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  constexpr std::size_t kModuleSize = 250;
  const std::size_t modules = std::max<std::size_t>(1, genes / kModuleSize);
  fv::Rng rng(17000 + genes);
  ex::ExpressionMatrix m(genes, kConditions);
  for (std::size_t g = 0; g < genes; ++g) {
    const double phase = static_cast<double>(g % modules) * 0.61;
    const double freq = 0.25 + 0.05 * static_cast<double>(g % modules);
    for (std::size_t c = 0; c < kConditions; ++c) {
      if (rng.uniform() < missing_rate) continue;  // stays missing
      const double pattern =
          std::sin(freq * static_cast<double>(c + 1) + phase);
      m.set(g, c, static_cast<float>(pattern + rng.normal(0.0, 0.05)));
    }
  }
  return cache.emplace(key, std::move(m)).first->second;
}

/// Module-structured data for the pruned-vs-exact contrast: contiguous
/// 250-gene modules, each strongly varying inside its own pair of
/// 16-condition dataset blocks and flat (noise) elsewhere — the
/// condition-specific co-regulation of real compendia (a module responds
/// in the datasets that perturb it; SPELL's dataset weighting exists
/// because signal concentrates this way). Contiguity matters: genes
/// arrive pre-grouped the way a clustered/display-ordered compendium
/// stores them, so the engine's 64-row tile blocks are module-pure and
/// the segment-norm envelopes stay sharp.
const ex::ExpressionMatrix& module_block_matrix(std::size_t genes) {
  static std::map<std::size_t, ex::ExpressionMatrix> cache;
  const auto it = cache.find(genes);
  if (it != cache.end()) return it->second;
  constexpr std::size_t kModuleSize = 250;
  constexpr std::size_t kDatasetCols = 16;
  const std::size_t datasets = kConditions / kDatasetCols;
  fv::Rng rng(91000 + genes);
  ex::ExpressionMatrix m(genes, kConditions);
  for (std::size_t g = 0; g < genes; ++g) {
    const std::size_t module = g / kModuleSize;
    const std::size_t d0 = module % datasets;
    const std::size_t d1 = (module + 1 + module / datasets) % datasets;
    const double freq = 0.25 + 0.05 * static_cast<double>(module % 7);
    const double phase = 0.61 * static_cast<double>(module);
    for (std::size_t c = 0; c < kConditions; ++c) {
      const std::size_t dataset = c / kDatasetCols;
      double value = rng.normal(0.0, 0.05);
      if (dataset == d0 || dataset == d1) {
        value += std::sin(freq * static_cast<double>(c + 1) + phase);
      }
      m.set(g, c, static_cast<float>(value));
    }
  }
  return cache.emplace(genes, std::move(m)).first->second;
}

// --- The seed's scalar kNN imputation, kept as the speedup reference ------

double seed_impute_distance(std::span<const float> a,
                            std::span<const float> b) {
  double sum = 0.0;
  std::size_t shared = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (fv::stats::is_missing(a[i]) || fv::stats::is_missing(b[i])) continue;
    const double diff = static_cast<double>(a[i]) - b[i];
    sum += diff * diff;
    ++shared;
  }
  if (shared < 2) return std::numeric_limits<double>::infinity();
  return std::sqrt(sum * static_cast<double>(a.size()) /
                   static_cast<double>(shared));
}

std::size_t seed_knn_impute(ex::ExpressionMatrix& matrix, std::size_t k) {
  const ex::ExpressionMatrix original = matrix;
  std::size_t imputed = 0;
  for (std::size_t r = 0; r < matrix.rows(); ++r) {
    std::vector<std::size_t> holes;
    for (std::size_t c = 0; c < matrix.cols(); ++c) {
      if (fv::stats::is_missing(original.at(r, c))) holes.push_back(c);
    }
    if (holes.empty()) continue;
    std::vector<std::pair<double, std::size_t>> neighbors;
    for (std::size_t other = 0; other < original.rows(); ++other) {
      if (other == r) continue;
      const double d =
          seed_impute_distance(original.row(r), original.row(other));
      if (std::isinf(d)) continue;
      neighbors.emplace_back(d, other);
    }
    const std::size_t keep = std::min(k, neighbors.size());
    std::partial_sort(neighbors.begin(),
                      neighbors.begin() + static_cast<long>(keep),
                      neighbors.end());
    neighbors.resize(keep);
    const double row_mean = fv::stats::mean(original.row(r));
    const float fallback =
        std::isnan(row_mean) ? 0.0f : static_cast<float>(row_mean);
    for (const std::size_t c : holes) {
      double weighted = 0.0;
      double weight_total = 0.0;
      for (const auto& [distance, other] : neighbors) {
        const float v = original.at(other, c);
        if (fv::stats::is_missing(v)) continue;
        const double w = 1.0 / std::max(distance, 1e-9);
        weighted += w * v;
        weight_total += w;
      }
      matrix.set(r, c, weight_total > 0.0
                           ? static_cast<float>(weighted / weight_total)
                           : fallback);
      ++imputed;
    }
  }
  return imputed;
}

std::size_t current_rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t pages = 0, resident = 0;
  statm >> pages >> resident;
  return resident * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

// --- Top-k distance phase -------------------------------------------------

void BM_TopKNeighbors(benchmark::State& state) {
  const auto& m = genes_matrix(static_cast<std::size_t>(state.range(0)),
                               kMissingRate);
  fv::par::ThreadPool pool(1);
  const auto engine = sm::SimilarityEngine::from_rows(m, sm::Metric::kPearson);
  for (auto _ : state) {
    const auto table = engine.top_k_neighbors(kNeighbors, pool);
    benchmark::DoNotOptimize(table.indices.data());
  }
  state.counters["table_KiB"] = static_cast<double>(
      m.rows() * kNeighbors * (sizeof(float) + sizeof(std::uint32_t))) /
      1024.0;
}
BENCHMARK(BM_TopKNeighbors)->Arg(1000)->Arg(2000)->Arg(4000)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

void topk_strategy_phase(benchmark::State& state, sm::TopKStrategy strategy,
                         bool export_stats) {
  const auto& m = module_block_matrix(static_cast<std::size_t>(state.range(0)));
  fv::par::ThreadPool pool(1);
  const auto engine = sm::SimilarityEngine::from_rows(m, sm::Metric::kPearson);
  sm::TopKStats stats;
  for (auto _ : state) {
    const auto table =
        engine.top_k_neighbors(kNeighbors, pool, 0, strategy, &stats);
    benchmark::DoNotOptimize(table.indices.data());
  }
  if (export_stats) {
    // Into the JSON snapshot, so the PR-over-PR gate archive carries the
    // prune trajectory alongside the times.
    state.counters["tiles_total"] = static_cast<double>(stats.tiles_total);
    state.counters["tiles_pruned"] = static_cast<double>(stats.tiles_pruned);
    state.counters["bounds_checked"] =
        static_cast<double>(stats.bounds_checked);
  }
}

void BM_TopKNeighborsExact(benchmark::State& state) {
  topk_strategy_phase(state, sm::TopKStrategy::kExact, false);
}
void BM_TopKNeighborsPruned(benchmark::State& state) {
  topk_strategy_phase(state, sm::TopKStrategy::kPruned, true);
}
BENCHMARK(BM_TopKNeighborsExact)->Arg(1000)->Arg(2000)->Arg(4000)
    ->UseRealTime()->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TopKNeighborsPruned)->Arg(1000)->Arg(2000)->Arg(4000)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_TopKRowsPrefix(benchmark::State& state) {
  constexpr std::size_t kGenes = 4000;
  const auto rows = static_cast<std::size_t>(state.range(0));
  const auto& m = module_block_matrix(kGenes);
  fv::par::ThreadPool pool(1);
  const auto engine = sm::SimilarityEngine::from_rows(m, sm::Metric::kPearson);
  sm::TopKStats stats;
  for (auto _ : state) {
    const auto table =
        engine.top_k_neighbors(kNeighbors, pool, 0, sm::TopKStrategy::kPruned,
                               &stats, sm::LshParams{}, nullptr, rows);
    benchmark::DoNotOptimize(table.indices.data());
  }
  state.counters["tiles_total"] = static_cast<double>(stats.tiles_total);
  state.counters["tiles_computed"] = static_cast<double>(stats.tiles_computed);
}
BENCHMARK(BM_TopKRowsPrefix)->Arg(16)->Arg(256)->Arg(4000)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_DistancePhaseCondensed(benchmark::State& state) {
  const auto& m = genes_matrix(static_cast<std::size_t>(state.range(0)),
                               kMissingRate);
  fv::par::ThreadPool pool(1);
  const auto engine = sm::SimilarityEngine::from_rows(m, sm::Metric::kPearson);
  for (auto _ : state) {
    std::vector<float> out(fv::condensed_size(m.rows()));
    engine.condensed_distances(out, pool);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["matrix_KiB"] = static_cast<double>(
      fv::condensed_size(m.rows()) * sizeof(float)) / 1024.0;
}
BENCHMARK(BM_DistancePhaseCondensed)->Arg(1000)->Arg(2000)->Arg(4000)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

// --- Dense kernel: double reference vs float accumulators -----------------

void dense_kernel_phase(benchmark::State& state, sm::DenseKernel kernel) {
  // Dense rows (no missing) so every pair takes the fast path under test.
  const auto& m = genes_matrix(static_cast<std::size_t>(state.range(0)), 0.0);
  fv::par::ThreadPool pool(1);
  const auto engine = sm::SimilarityEngine::from_rows(
      m, sm::Metric::kPearson, sm::Precompute::kAllPairs, kernel);
  for (auto _ : state) {
    std::vector<float> out(fv::condensed_size(m.rows()));
    engine.condensed_distances(out, pool);
    benchmark::DoNotOptimize(out.data());
  }
}

void BM_DenseKernelDouble(benchmark::State& state) {
  dense_kernel_phase(state, sm::DenseKernel::kDouble);
}
void BM_DenseKernelFloat(benchmark::State& state) {
  dense_kernel_phase(state, sm::DenseKernel::kAuto);
}
BENCHMARK(BM_DenseKernelDouble)->Arg(2000)->Arg(4000)
    ->UseRealTime()->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DenseKernelFloat)->Arg(2000)->Arg(4000)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

// --- kNN imputation -------------------------------------------------------

void BM_KnnImputeEngine(benchmark::State& state) {
  const auto& m = genes_matrix(static_cast<std::size_t>(state.range(0)),
                               kMissingRate);
  fv::par::ThreadPool pool(1);
  for (auto _ : state) {
    ex::ExpressionMatrix work = m;
    const std::size_t imputed = ex::knn_impute(work, kNeighbors, pool);
    benchmark::DoNotOptimize(imputed);
  }
}
BENCHMARK(BM_KnnImputeEngine)->Arg(1000)->Arg(2000)->Arg(4000)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

// --- Epilogue: the issue's acceptance numbers -----------------------------

void report_issue_targets() {
  constexpr std::size_t kGenes = 4000;
  const auto& m = genes_matrix(kGenes, kMissingRate);
  fv::par::ThreadPool pool(1);
  const auto engine = sm::SimilarityEngine::from_rows(m, sm::Metric::kPearson);

  // Memory: RSS actually resident for the distance phase of each path. The
  // engine's padded rows are identical on both paths and built above, so
  // the deltas isolate what each consumer materializes: condensed storage
  // (n(n-1)/2 floats) vs the top-k table plus its transient per-thread
  // heap slab. Fresh mmaps for the big buffer so glibc cannot satisfy it
  // from already-resident arena pages.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  const std::size_t rss0 = current_rss_bytes();
  std::vector<float> condensed(fv::condensed_size(kGenes), 0.0f);
  engine.condensed_distances(condensed, pool);
  benchmark::DoNotOptimize(condensed.data());
  const std::size_t condensed_rss = current_rss_bytes() - rss0;
  condensed.clear();
  condensed.shrink_to_fit();

  const std::size_t rss1 = current_rss_bytes();
  const auto table = engine.top_k_neighbors(kNeighbors, pool);
  benchmark::DoNotOptimize(table.indices.data());
  const std::size_t topk_rss =
      current_rss_bytes() > rss1 ? current_rss_bytes() - rss1 : 0;

  // Imputation: seed scalar path vs the engine-backed top-k path.
  fv::Timer timer;
  ex::ExpressionMatrix seed_work = m;
  const std::size_t seed_imputed = seed_knn_impute(seed_work, kNeighbors);
  const double seed_seconds = timer.seconds();
  timer.reset();
  ex::ExpressionMatrix engine_work = m;
  const std::size_t engine_imputed =
      ex::knn_impute(engine_work, kNeighbors, pool);
  const double engine_seconds = timer.seconds();

  // Float kernel: measured max error vs the double reference on the dense
  // benchmark shape (full fast-path coverage), plus the auto policy state
  // for these rows.
  const auto& dense_m = genes_matrix(2000, 0.0);
  const auto engine_f =
      sm::SimilarityEngine::from_rows(dense_m, sm::Metric::kPearson);
  const auto engine_d = sm::SimilarityEngine::from_rows(
      dense_m, sm::Metric::kPearson, sm::Precompute::kAllPairs,
      sm::DenseKernel::kDouble);
  std::vector<float> dist_f(fv::condensed_size(dense_m.rows()));
  std::vector<float> dist_d(dist_f.size());
  engine_f.condensed_distances(dist_f, pool);
  engine_d.condensed_distances(dist_d, pool);
  double max_error = 0.0;
  for (std::size_t p = 0; p < dist_f.size(); ++p) {
    max_error = std::max(
        max_error, std::abs(static_cast<double>(dist_f[p]) - dist_d[p]));
  }

  const double mem_ratio =
      static_cast<double>(topk_rss) / static_cast<double>(condensed_rss);
  const double speedup = seed_seconds / engine_seconds;
  std::printf(
      "\n[ISSUE 3 targets @ %zu genes x %zu conditions, %.0f%% missing, "
      "k = %zu, 1 thread]\n"
      "  distance-phase RSS: condensed %.1f MiB -> top-k %.2f MiB "
      "(%.1f%% of condensed; target < 10%%: %s)\n"
      "  kNN imputation: seed %.2f s -> engine %.2f s (%.1fx; target >= 3x: "
      "%s; imputed %zu/%zu cells)\n"
      "  float kernel max |error| vs double reference (2000 dense genes): "
      "%.3g (1e-6 contract: %s; kAuto at %zu-condition rows engages: %s)\n",
      kGenes, kConditions, kMissingRate * 100.0, kNeighbors,
      static_cast<double>(condensed_rss) / (1024.0 * 1024.0),
      static_cast<double>(topk_rss) / (1024.0 * 1024.0), 100.0 * mem_ratio,
      mem_ratio < 0.10 ? "PASS" : "FAIL", seed_seconds, engine_seconds,
      speedup, speedup >= 3.0 ? "PASS" : "FAIL", engine_imputed,
      seed_imputed, max_error, max_error < 1e-6 ? "PASS" : "FAIL",
      kConditions, engine_f.float_kernel_active() ? "yes" : "no");
}

// --- Epilogue: the issue-5 pruned-strategy gate ---------------------------

void report_issue5_targets() {
  constexpr std::size_t kGenes = 4000;
  const auto& m = module_block_matrix(kGenes);
  fv::par::ThreadPool pool(1);
  const auto engine = sm::SimilarityEngine::from_rows(m, sm::Metric::kPearson);

  fv::Timer timer;
  const auto exact =
      engine.top_k_neighbors(kNeighbors, pool, 0, sm::TopKStrategy::kExact);
  const double exact_seconds = timer.seconds();
  timer.reset();
  sm::TopKStats stats;
  const auto pruned = engine.top_k_neighbors(
      kNeighbors, pool, 0, sm::TopKStrategy::kPruned, &stats);
  const double pruned_seconds = timer.seconds();

  // The whole point of bound pruning: the table is the SAME table.
  const bool identical = pruned.indices == exact.indices &&
                         pruned.distances == exact.distances &&
                         pruned.valid == exact.valid;
  const double speedup = exact_seconds / pruned_seconds;
  std::printf(
      "\n[ISSUE 5 targets @ %zu genes x %zu conditions (dataset-block "
      "modules), k = %zu, 1 thread]\n"
      "  pruned NeighborTable bit-identical to exact: %s\n"
      "  distance phase: exact %.3f s -> pruned %.3f s (%.2fx; target >= "
      "2x: %s)\n"
      "  prune statistics: %zu/%zu tiles skipped (%.1f%%), %zu bounds "
      "checked\n",
      kGenes, kConditions, kNeighbors, identical ? "PASS" : "FAIL",
      exact_seconds, pruned_seconds, speedup,
      speedup >= 2.0 ? "PASS" : "FAIL", stats.tiles_pruned,
      stats.tiles_total,
      100.0 * static_cast<double>(stats.tiles_pruned) /
          static_cast<double>(stats.tiles_total),
      stats.bounds_checked);
}

// --- Epilogue: row-prefix top-k ------------------------------------------

/// Returns false when a prefix table differs from the full table's rows.
bool report_rows_prefix() {
  constexpr std::size_t kGenes = 4000;
  const auto& m = module_block_matrix(kGenes);
  fv::par::ThreadPool pool(1);
  const auto engine = sm::SimilarityEngine::from_rows(m, sm::Metric::kPearson);

  fv::Timer timer;
  sm::TopKStats full_stats;
  const auto full = engine.top_k_neighbors(
      kNeighbors, pool, 0, sm::TopKStrategy::kPruned, &full_stats);
  const double full_seconds = timer.seconds();
  std::printf("\n[row-prefix top-k @ %zu genes x %zu conditions (dataset-"
              "block modules), k = %zu, kPruned, 1 thread]\n"
              "  full table: %zu/%zu tiles computed, %.3f s\n",
              kGenes, kConditions, kNeighbors, full_stats.tiles_computed,
              full_stats.tiles_total, full_seconds);
  bool all_identical = true;
  for (const std::size_t rows : {16u, 256u, 4000u}) {
    timer.reset();
    sm::TopKStats stats;
    const auto prefix =
        engine.top_k_neighbors(kNeighbors, pool, 0, sm::TopKStrategy::kPruned,
                               &stats, sm::LshParams{}, nullptr, rows);
    const double seconds = timer.seconds();
    const std::size_t slots = rows * full.k;
    const bool identical =
        prefix.count == rows &&
        std::memcmp(prefix.valid.data(), full.valid.data(),
                    rows * sizeof(std::uint32_t)) == 0 &&
        std::memcmp(prefix.indices.data(), full.indices.data(),
                    slots * sizeof(std::uint32_t)) == 0 &&
        std::memcmp(prefix.distances.data(), full.distances.data(),
                    slots * sizeof(float)) == 0;
    all_identical = all_identical && identical;
    std::printf(
        "  rows %4zu: %4zu/%zu prefix tiles, %4zu computed (%.3f of the "
        "full table's), %.4f s (%.3f of full); prefix == full rows: %s\n",
        rows, stats.tiles_total, full_stats.tiles_total, stats.tiles_computed,
        static_cast<double>(stats.tiles_computed) /
            static_cast<double>(full_stats.tiles_computed),
        seconds, seconds / full_seconds, identical ? "PASS" : "FAIL");
  }
  if (!all_identical) std::printf("  ROW-PREFIX GATE FAILED\n");
  return all_identical;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  report_issue_targets();
  report_issue5_targets();
  return report_rows_prefix() ? 0 : 1;
}
