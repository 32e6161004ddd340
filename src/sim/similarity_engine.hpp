// Blocked pairwise-similarity engine.
//
// Every heavy path in ForestView — gene/array clustering, SPELL query
// scoring, the merged-interface sweep — bottoms out in pairwise Pearson /
// Spearman / Euclidean over row profiles. The engine precomputes per-profile
// state ONCE (unit-norm centered rows for Pearson, normalized rank rows for
// Spearman, missing-value bitmasks, a has-missing flag) and then answers
// every pair from a SIMD-friendly dot-product kernel over contiguous padded
// rows. Rows that actually contain missing cells take a masked slow path
// with the same pairwise-complete semantics as the scalar kernels; results
// agree within the 1e-6 equivalence contract (not bit-for-bit — summation
// order differs and a relative-epsilon guard zeroes near-constant-subset
// variances). See src/sim/README.md for the fast/slow path contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "expr/expression_matrix.hpp"
#include "par/thread_pool.hpp"
#include "sim/engine_storage.hpp"

namespace fv::store {
class EngineCodec;  // store/cached.hpp — persists engine state verbatim
}  // namespace fv::store

namespace fv::spell {
class SpellSearch;  // spell/spell.hpp — scores queries against dot banks
}  // namespace fv::spell

namespace fv::sim {

class LshIndex;  // sim/lsh.hpp — kApprox candidate generator

enum class Metric {
  kPearson,            ///< 1 - Pearson correlation (pairwise complete)
  kUncenteredPearson,  ///< 1 - uncentered correlation
  kSpearman,           ///< 1 - Spearman rank correlation
  kEuclidean,          ///< Euclidean over pairwise-complete coordinates
};

/// How much per-profile state the engine keeps.
enum class Precompute {
  /// Everything: exact pairwise similarity()/distance()/all_distances()
  /// plus the dot bank.
  kAllPairs,
  /// Normalized rows + presence/zscale only — half the memory, for
  /// long-lived one-vs-all scorers (SPELL banks) that never ask for exact
  /// pairwise values. Correlation metrics only.
  kDotBank,
};

/// Which accumulator the dense correlation fast path uses.
enum class DenseKernel {
  /// Float accumulators for every correlation engine: the compensated
  /// block-flush (lane sums drained into doubles every 256 elements) keeps
  /// the worst-case rounding bound at (256/16)·2⁻²⁴ ≈ 9.5e-7 — inside the
  /// 1e-6 equivalence contract — at any row length. See src/sim/README.md.
  kAuto,
  kDouble,  ///< Always the double reference kernel.
};

/// How top_k_neighbors runs its distance phase.
enum class TopKStrategy {
  /// kPruned whenever the engine can prove bounds (correlation metrics,
  /// whose normalized rows carry the Cauchy–Schwarz norm structure),
  /// kExact otherwise (Euclidean). The returned table is identical either
  /// way — pruning skips only pairs *proven* unable to enter any heap.
  /// kAuto never routes to kApprox: approximation is strictly opt-in.
  kAuto,
  /// Stream every tile through the heaps (the unconditional path).
  kExact,
  /// Norm-bound tile pruning: skip whole 64×64 tiles whose Cauchy–Schwarz
  /// distance lower bound cannot beat the current per-row heap thresholds.
  /// Results stay exact and schedule-independent (the exact top-k under
  /// the total (distance, index) order is unique, and only provably-losing
  /// pairs are skipped). Correlation metrics only — Euclidean rows are
  /// unnormalized, so the unit-norm bound does not exist for them.
  kPruned,
  /// Random-hyperplane LSH candidate generation (sim::LshIndex) + exact
  /// rescoring: the schedule is sub-quadratic — O(n) signatures, bucket
  /// collisions instead of all pairs — and every pair that IS returned
  /// carries the bit-identical exact distance (candidates go through the
  /// same kernels as kExact). Rows may MISS true neighbors (measured
  /// recall ≥ 0.95 on module-structured data at the defaults; see
  /// src/sim/README.md §approximate top-k for the failure modes).
  /// Correlation metrics only, rejected on Euclidean like kPruned; k ≥
  /// n−1 falls back to kExact (every pair is needed anyway, and exact is
  /// strictly better when it costs the same).
  kApprox,
};

/// Parameters of the kApprox strategy's LSH layer (sim::LshIndex).
/// Defaults target the compendium module shape: 256 signature bits split
/// into 16 disjoint 16-bit bucket keys, one extra probe per table.
struct LshParams {
  /// Signature width. 64–1024, multiple of 64 (signatures pack into
  /// uint64_t words). More bits = better Hamming ≈ angle fidelity and
  /// sharper buckets, at O(bits) build cost per profile.
  std::size_t bits = 256;
  /// Bucket tables; table t keys on signature bits
  /// [t·bits/tables, (t+1)·bits/tables). More tables = higher recall
  /// (OR-construction) and more candidates. Must divide into bits at ≥ 1
  /// bit per slice (tables ≤ bits).
  std::size_t tables = 16;
  /// Bucket lookups per profile per table: 1 = the exact slice key only;
  /// p > 1 additionally probes the p−1 keys obtained by flipping, one at
  /// a time, the slice bits whose hyperplane projection had the smallest
  /// margin |dot| (the bits most likely to have landed on the wrong side
  /// — classic query-directed multi-probe). At most slice_bits + 1.
  std::size_t probes = 2;
  /// Seeds the Gaussian hyperplane bank (util/rng.hpp xoshiro, so
  /// signatures are reproducible across platforms). Same seed + params ⇒
  /// same signatures, same candidates, same table, under any pool.
  std::uint64_t seed = 0x15bf00d5eedULL;
};

/// Per-call statistics of a top_k_neighbors distance phase, for
/// benchmarking the pruned and approximate strategies. The *table* is
/// deterministic and schedule-independent; the tile counters are exact
/// only under a 1-thread pool (how many tiles prune depends on how tight
/// the shared thresholds were when each tile was checked). The kApprox
/// counters are exact under any pool — candidate generation is
/// deterministic and rescoring counts actual exact-distance evaluations.
/// On a row-limited call the tile counters describe the prefix schedule,
/// while exact_dot_fraction stays relative to all n(n−1)/2 pairs.
struct TopKStats {
  std::size_t tiles_total = 0;     ///< tiles in the (prefix) schedule
  std::size_t tiles_computed = 0;  ///< tiles whose pairs were computed
  std::size_t tiles_pruned = 0;    ///< tiles skipped on a bound proof
  std::size_t bounds_checked = 0;  ///< tiles whose bound was evaluated
  // --- kApprox (zero unless the LSH path actually ran) ---
  std::size_t signatures_built = 0;  ///< profiles signed (n, or 0 on fallback)
  std::size_t buckets_probed = 0;  ///< bucket enumerations + probe lookups
  std::size_t candidates_generated = 0;  ///< collision pairs, pre-dedup
  std::size_t candidates_rescored = 0;   ///< deduped pairs given exact dots
  /// Fraction of the n(n−1)/2 pair distances evaluated exactly, at tile
  /// granularity for the tiled strategies: tiles_computed / tile_count()
  /// (1.0 for a full kExact call), candidates_rescored / (n(n−1)/2) for
  /// kApprox — the sub-quadratic headline number.
  double exact_dot_fraction = 0.0;
};

/// One computed tile of the pairwise-distance upper triangle, handed to a
/// for_each_tile() visitor. `values` is a row-major
/// (row_end - row_begin) x ld block owned by the engine for the duration of
/// the visit only — visitors must copy what they keep. On diagonal tiles
/// (row and column ranges overlap) only strictly-upper cells (j > i) are
/// meaningful; the rest are zero.
struct DistanceTile {
  std::size_t index = 0;      ///< position in the tile schedule (stable)
  std::size_t row_begin = 0, row_end = 0;  ///< i range [row_begin, row_end)
  std::size_t col_begin = 0, col_end = 0;  ///< j range [col_begin, col_end)
  const float* values = nullptr;
  std::size_t ld = 0;         ///< leading dimension of `values`

  /// Distance of pair (i, j); requires i/j inside this tile's ranges and
  /// j > i.
  float at(std::size_t i, std::size_t j) const {
    return values[(i - row_begin) * ld + (j - col_begin)];
  }
};

/// n x k nearest-neighbor table: for each profile, its k nearest other
/// profiles in ascending (distance, index) order. Rows with fewer valid
/// neighbors than k (filtered by min_common, or n - 1 < k) are short;
/// neighbor_count() says how many are real.
struct NeighborTable {
  std::size_t count = 0;  ///< profiles
  std::size_t k = 0;      ///< neighbor slots per profile
  std::vector<std::uint32_t> indices;    ///< count x k
  std::vector<float> distances;          ///< count x k
  std::vector<std::uint32_t> valid;      ///< real neighbors per profile

  std::size_t neighbor_count(std::size_t i) const { return valid[i]; }
  std::span<const std::uint32_t> neighbors(std::size_t i) const {
    return {indices.data() + i * k, valid[i]};
  }
  std::span<const float> neighbor_distances(std::size_t i) const {
    return {distances.data() + i * k, valid[i]};
  }
};

class SimilarityEngine {
 public:
  SimilarityEngine() = default;

  /// Builds the engine over the rows of `matrix` (gene profiles).
  static SimilarityEngine from_rows(const expr::ExpressionMatrix& matrix,
                                    Metric metric,
                                    Precompute precompute =
                                        Precompute::kAllPairs,
                                    DenseKernel kernel = DenseKernel::kAuto);

  /// Builds the engine over the columns of `matrix` (array profiles) by
  /// materializing the transpose once.
  static SimilarityEngine from_columns(const expr::ExpressionMatrix& matrix,
                                       Metric metric);

  /// Builds the engine over `count` contiguous row-major profiles of
  /// `length` values each.
  static SimilarityEngine from_profiles(std::span<const float> flat,
                                        std::size_t count, std::size_t length,
                                        Metric metric,
                                        Precompute precompute =
                                            Precompute::kAllPairs,
                                        DenseKernel kernel =
                                            DenseKernel::kAuto);

  std::size_t size() const noexcept { return count_; }      ///< profiles
  std::size_t length() const noexcept { return length_; }   ///< values each
  /// Padded row length (multiple of the kernel lane width); the tail of
  /// every stored row is zero so kernels never need a remainder loop.
  std::size_t stride() const noexcept { return stride_; }
  Metric metric() const noexcept { return metric_; }

  /// Where this engine's state arrays live: kOwnedHeap for freshly built
  /// engines, kBorrowedMapped for engines restored from the artifact store
  /// (store::EngineCodec::load), whose arrays are read-only spans into a
  /// pinned artifact mapping. Every query and tile path produces
  /// bit-identical results in both modes — this only reports residency.
  EngineStorage storage() const noexcept {
    return pin_ == nullptr ? EngineStorage::kOwnedHeap
                           : EngineStorage::kBorrowedMapped;
  }

  /// Whether the dense correlation fast path runs on float accumulators
  /// (DenseKernel::kAuto — every correlation engine unless kDouble was
  /// forced; the block-flush bound holds at any stride).
  bool float_kernel_active() const noexcept { return float_kernel_; }

  bool row_has_missing(std::size_t i) const { return has_missing_[i] != 0; }
  /// Number of present (non-missing) values in profile i.
  std::size_t present(std::size_t i) const { return present_[i]; }
  /// Whether value `k` of profile `i` was present (non-missing) in the
  /// input — the precomputed bitmask, so consumers (kNN imputation) can
  /// test original presence without keeping their own matrix copy.
  /// Requires Precompute::kAllPairs.
  bool value_present(std::size_t i, std::size_t k) const {
    FV_REQUIRE(precompute_ == Precompute::kAllPairs && i < count_ &&
                   k < length_,
               "value_present() needs kAllPairs and in-range indices");
    return present_at(i, k);
  }

  /// The precomputed transform of profile i (unit-norm centered values for
  /// Pearson, unit-norm raw for uncentered, unit-norm centered mid-ranks for
  /// Spearman; empty span for Euclidean). Length is stride(); entries past
  /// length() and at missing cells are 0. For Pearson this is exactly the
  /// stats::ZProfile z-row divided by zscale(i).
  std::span<const float> normalized_row(std::size_t i) const;

  /// Profile i as stored: the input values with missing cells (and padding
  /// past length()) as 0. Combined with value_present() this reconstructs
  /// the original profile exactly — expr::matrix_from_engine serves
  /// compendium rows straight off a mapped engine through this, without a
  /// separate matrix copy. Requires Precompute::kAllPairs.
  std::span<const float> filled_row(std::size_t i) const;

  /// Multiplier turning normalized_row(i) back into the stats::ZProfile
  /// z-row: sqrt(present - 1), or 0 for degenerate (constant / too-short)
  /// profiles. SPELL's zdot-convention scoring is built from this.
  float zscale(std::size_t i) const { return zscale_[i]; }

  /// Exact correlation between profiles i and j under the metric
  /// (requires a correlation metric and Precompute::kAllPairs). Matches
  /// the scalar stats:: kernels: dense pairs via the precomputed dot
  /// product, pairs with missing cells via the masked pairwise-complete
  /// path.
  double similarity(std::size_t i, std::size_t j) const;

  /// Distance between profiles i and j; matches cluster::profile_distance.
  /// Requires Precompute::kAllPairs.
  float distance(std::size_t i, std::size_t j) const;

  /// Number of tiles in the balanced upper-triangle schedule; tile indices
  /// passed to visitors lie in [0, tile_count()). Lets streaming consumers
  /// preallocate per-tile partials for deterministic reduction.
  std::size_t tile_count() const noexcept;

  /// Streams every pairwise distance through `visit` one computed tile at a
  /// time instead of writing a matrix: the balanced 64x64 upper-triangle
  /// tile schedule runs on the pool (dynamic pull), each worker computes a
  /// tile into a scratch block and hands it to `visit`. At most
  /// pool.thread_count() tile blocks are live at any moment, so a streaming
  /// consumer's distance phase peaks at O(consumer state), never O(n²).
  /// Contract: each unordered pair is delivered exactly once; `visit` runs
  /// concurrently from pool threads (it must synchronize shared state or
  /// keep per-thread/per-tile state — tiles never overlap, and tile.index
  /// is a stable schedule position for ordered reductions); the tile's
  /// values are only valid during the visit.
  void for_each_tile(const std::function<void(const DistanceTile&)>& visit,
                     par::ThreadPool& pool) const;

  /// Serial variant running on the calling thread — for consumers that are
  /// themselves pool tasks (a blocking nested parallel_dynamic on the same
  /// pool would deadlock) or for tiny engines where scheduling outweighs
  /// the work. On a borrowed-mapped engine this is ALSO the streaming tile
  /// driver: tiles run in row-stripe order (ta fixed, tb ascending), the
  /// backing file is re-validated at each stripe start
  /// (fv::CorruptArtifactError instead of a mid-compute SIGBUS if it
  /// shrank), and each visited block's row pages are released behind the
  /// cursor — resident working set stays O(tiles in flight), not O(n·m),
  /// so the distance phase runs at n whose dense engine state exceeds RAM.
  void for_each_tile(
      const std::function<void(const DistanceTile&)>& visit) const;

  /// The k nearest other profiles of every profile — ascending
  /// (distance, index) per row, built by streaming tiles into per-thread
  /// bounded max-heaps merged at the end: O(n·k) memory per thread, never
  /// the O(n²/2) a materialized distance matrix costs. Deterministic under
  /// any thread schedule (the per-slot heaps keep supersets of the global
  /// (distance, index)-smallest k). Pairs whose profiles share fewer than
  /// `min_common` present cells are excluded (0 = keep everything) — kNN
  /// imputation uses this to drop meaninglessly-overlapping neighbors.
  ///
  /// `strategy` selects the distance phase: under TopKStrategy::kPruned
  /// (or kAuto on a correlation metric) tiles whose Cauchy–Schwarz
  /// distance lower bound — from precomputed per-row blocked segment
  /// norms — provably cannot beat the current per-row heap thresholds are
  /// skipped whole, without computing a single pair. The table is
  /// bit-identical to kExact (prune on proof only; see src/sim/README.md
  /// for the derivation). Under TopKStrategy::kApprox the quadratic tile
  /// schedule is replaced by LSH candidate generation (`lsh` parameters;
  /// sim::LshIndex) with exact rescoring: every returned pair's distance
  /// is bit-identical to the exact path's, but true neighbors can be
  /// missed — opt-in only, never chosen by kAuto. min_common is enforced
  /// at rescoring (the candidate stage sees signatures only). `stats`,
  /// when non-null, receives the per-call prune/LSH counters.
  ///
  /// `lsh_index`, when non-null, is a prebuilt signature index over THIS
  /// engine (it must have size() == size()) that the kApprox path reuses
  /// instead of building one — the artifact store hands warm-reopened
  /// indexes in through here, skipping the O(n·bits) signature build.
  /// Ignored by the exact strategies. A borrowed index's backing is
  /// checked like the engine's own.
  ///
  /// `rows` limits the table to profiles [0, rows) (count = min(rows, n)):
  /// only the tiles whose row block reaches those profiles are scheduled —
  /// a prefix of the row-major upper-triangle schedule, since every pair
  /// (i < j) touching a queried profile has its i there — and the heaps
  /// and merge hold rows × k entries. Each returned row is bit-identical
  /// to the same row of the full table (same pairs, same kernels, same
  /// i < j orientation). The default computes every profile.
  NeighborTable top_k_neighbors(
      std::size_t k, par::ThreadPool& pool, std::size_t min_common = 0,
      TopKStrategy strategy = TopKStrategy::kAuto, TopKStats* stats = nullptr,
      const LshParams& lsh = LshParams{}, const LshIndex* lsh_index = nullptr,
      std::size_t rows = std::numeric_limits<std::size_t>::max()) const;

  /// Mean of all n(n-1)/2 pairwise distances, streamed tile by tile on the
  /// calling thread (no matrix materialized), so it is safe inside pool
  /// tasks. 0 when size() < 2. Query-coherence weights (SPELL, the merged
  /// interface) are 1 minus this under correlation metrics.
  double mean_pairwise_distance() const;

  /// Fills `out` (size() x size(), row-major) with all pairwise distances:
  /// symmetric, zero diagonal — a trivial for_each_tile visitor kept for
  /// callers that genuinely need the dense mirrored form. Prefer
  /// condensed_distances() (half the memory) or top_k_neighbors() /
  /// for_each_tile() (no matrix at all) on memory-bound paths.
  void all_distances(std::span<float> out, par::ThreadPool& pool) const;

  /// Fills `out` (condensed_size(size()) floats, fv::condensed_index
  /// layout) with the strict upper triangle of the pairwise distance
  /// matrix, emitting each tile directly into condensed storage — no dense
  /// n x n staging buffer exists at any point, so the distance phase peaks
  /// at half the dense layout's memory. Same tile schedule and same values
  /// as all_distances(); tiles own disjoint condensed ranges per row
  /// segment, so writes never race.
  void condensed_distances(std::span<float> out, par::ThreadPool& pool) const;

  /// Serial condensed_distances — same values, same condensed layout, no
  /// pool. This is the out-of-core distance phase: on a borrowed-mapped
  /// engine it inherits the serial for_each_tile streaming contract (page
  /// release behind the cursor, per-stripe backing checks), so peak
  /// transient memory is the condensed output plus one tile block.
  void condensed_distances(std::span<float> out) const;

  /// condensed_distances() with every cell squared — the input form the
  /// Lance–Williams recurrences of Ward/centroid/median hierarchical
  /// clustering operate on. Each value is exactly the float square of the
  /// corresponding condensed_distances() cell (same tiles, same schedule,
  /// same memory profile — no dense staging buffer). Euclidean engines
  /// only: squaring a correlation distance has no Lance–Williams meaning.
  void condensed_squared_distances(std::span<float> out,
                                   par::ThreadPool& pool) const;

  /// out[i] = dot(normalized_row(i), query) for every profile — the
  /// one-vs-all kernel behind SPELL scoring. `query` must have stride()
  /// entries (zero-padded past length()). Pearson-family metrics only:
  /// a Spearman bank has no normalized rows for profiles with missing
  /// cells, so a dot there would silently score them 0. On a borrowed
  /// engine whose artifact shrank after open, throws
  /// fv::CorruptArtifactError before reading a row.
  void dot_all(std::span<const float> query, std::span<double> out) const;

 private:
  /// The artifact store's codec (store/cached.hpp) persists and restores
  /// every private field verbatim — serialization stays out of this class,
  /// state stays out of the public API.
  friend class fv::store::EngineCodec;
  /// SPELL reads a few query rows to build its centroid before dot_all,
  /// so it runs the same backing check first (check_backing below).
  friend class fv::spell::SpellSearch;

  Metric metric_ = Metric::kPearson;
  Precompute precompute_ = Precompute::kAllPairs;
  bool float_kernel_ = false;
  std::size_t count_ = 0;
  std::size_t length_ = 0;
  std::size_t stride_ = 0;
  std::size_t mask_words_ = 0;
  /// Engine state arrays are ArrayRef (sim/engine_storage.hpp): owned
  /// std::vectors on built engines, read-only spans into the artifact
  /// mapping held alive by pin_ on restored ones. All read paths below are
  /// mode-blind; only build() mutates, and only in owned mode.
  ///
  /// count x stride with NaNs preserved; only the Spearman masked fallback
  /// needs original missing markers, so this stays empty otherwise (every
  /// other path reads present cells, where filled_ is identical).
  ArrayRef<float> raw_;
  ArrayRef<float> filled_;  ///< count x stride, missing cells as 0
  ArrayRef<float> normalized_;  ///< count x stride (correlation metrics)
  ArrayRef<std::uint64_t> mask_;  ///< present bitmask, count x mask_words
  ArrayRef<std::uint32_t> present_;
  ArrayRef<std::uint8_t> has_missing_;
  /// Dense fast path must report r = 0 for this row (constant profile or
  /// fewer than stats::kMinCompletePairs values).
  ArrayRef<std::uint8_t> degenerate_;
  ArrayRef<float> zscale_;
  /// Missing cell indices per row, CSR layout: row i's missing indices are
  /// missing_idx_[missing_begin_[i] .. missing_begin_[i+1]). The masked
  /// path is one dot product over filled_ plus O(#missing) corrections
  /// driven by these lists, so sparsely-missing rows stay near dense speed.
  ArrayRef<std::uint32_t> missing_idx_;
  ArrayRef<std::uint32_t> missing_begin_;
  ArrayRef<double> own_sum_;    ///< sum of present values per row
  ArrayRef<double> own_sumsq_;  ///< sum of squared present values
  /// Blocked segment norms of the normalized rows (correlation metrics
  /// with kAllPairs only): count x seg_count_, seg_norms_[i * seg_count_
  /// + s] >= ||normalized_row(i)[s*16 .. (s+1)*16)|| (inflated a hair past
  /// the double-precision norm so the stored float can never round below
  /// the true value). The Cauchy–Schwarz tile bound of the pruned top-k
  /// path is built from these.
  ArrayRef<float> seg_norms_;
  std::size_t seg_count_ = 0;  ///< stride_ / 16 segments per row
  /// Everything the computed float distance can fall below the
  /// exact-arithmetic Cauchy–Schwarz chain by: kernel rounding (the float
  /// kernel's block-flush bound when active) + the double->float cast of
  /// the distance + margin. The pruned path subtracts this from every
  /// bound, so "bound > threshold" is a proof about *computed* distances.
  float prune_slack_ = 0.0f;
  /// Set only on borrowed-mapped engines: keeps the backing mapping alive
  /// as long as this engine (and any copy of it — shared_ptr semantics),
  /// drops pages the streaming tile driver is done with, and re-validates
  /// the backing file before compute phases (engine_storage.hpp).
  std::shared_ptr<const EngineStoragePin> pin_;

  void build(std::span<const float> flat, std::size_t count,
             std::size_t length, Metric metric, Precompute precompute,
             DenseKernel kernel);
  /// The pooled for_each_tile over schedule positions [0, tiles) only —
  /// the row-limited top-k streams the prefix through this.
  void for_each_tile(const std::function<void(const DistanceTile&)>& visit,
                     par::ThreadPool& pool, std::size_t tiles) const;
  /// Computes tile `t` of the schedule into `scratch` (>= kTile*kTile
  /// floats) and fills `tile` to describe it.
  void compute_tile(std::size_t t, float* scratch, DistanceTile& tile) const;
  /// distance()/similarity() without the per-pair argument checks — the
  /// tile loop calls these O(n²) times with schedule-guaranteed indices,
  /// and the check branches are measurable next to a 96-element dot
  /// product. One shared dispatch so the public and tile paths cannot
  /// drift.
  float distance_unchecked(std::size_t i, std::size_t j) const;
  double similarity_unchecked(std::size_t i, std::size_t j) const;
  bool present_at(std::size_t i, std::size_t k) const {
    return (mask_[i * mask_words_ + k / 64] >>
            (k % 64) & 1) != 0;
  }
  std::size_t common_present(std::size_t i, std::size_t j) const;
  double masked_similarity(std::size_t i, std::size_t j) const;
  float euclidean_distance(std::size_t i, std::size_t j) const;
  /// Streaming residency hooks — no-ops on owned engines. check_backing()
  /// turns a foreign truncation of the mapped artifact into a typed
  /// fv::CorruptArtifactError at a phase boundary; release_row_pages()
  /// drops rows [begin, end) of the big per-row slabs (raw_/filled_/
  /// normalized_) from the resident set once the tile cursor is past them.
  void check_backing() const {
    if (pin_ != nullptr) pin_->check_backing();
  }
  void release_row_pages(std::size_t begin, std::size_t end) const;
};

/// Query-coherence of `count` stacked row-major profiles of `length`
/// values each: mean pairwise Pearson over all pairs, clamped at zero
/// (anti-coherent sets carry no evidence). Built on a throwaway sub-engine
/// whose tiles stream serially, so it is safe to call from inside pool
/// tasks — SPELL's dataset weighting and the merged interface's dataset
/// ordering both score query gene sets with this. 0 when count < 2.
double profile_coherence(std::span<const float> flat, std::size_t count,
                         std::size_t length);

/// Convenience overload for non-contiguous sources (selected dataset
/// rows): stacks the profile spans into one flat buffer internally. Every
/// span must have `length` values.
double profile_coherence(std::span<const std::span<const float>> profiles,
                         std::size_t length);

}  // namespace fv::sim
