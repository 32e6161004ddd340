#include "sim/similarity_engine.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>

#include "sim/lsh.hpp"
#include "stats/correlation.hpp"
#include "stats/descriptive.hpp"
#include "stats/ranking.hpp"
#include "util/error.hpp"
#include "util/triangular.hpp"

namespace fv::sim {

namespace {

/// Kernel lane width: rows are padded to a multiple of this so the hot
/// loops below carry independent accumulator chains the compiler can keep
/// in vector registers (no remainder loop, no reassociation needed).
constexpr std::size_t kLanes = 16;

/// Pair-block edge for all_distances: 64 rows x 96 floats = 24 KiB per
/// side, so one tile's working set stays L1/L2 resident while its
/// 64 x 64 pairs reuse it.
constexpr std::size_t kTile = 64;

/// Segment width of the blocked row norms the pruned top-k bound uses: one
/// kernel lane block. Finer segments only tighten the Cauchy–Schwarz bound
/// (splitting a segment can never increase Σ_s ||a_s||·||b_s|| — apply
/// Cauchy–Schwarz to the sub-norm pairs), and 16 matches the condition-
/// block granularity of compendium data (datasets enter as groups of
/// adjacent columns); the cost is one float per 16 row elements.
constexpr std::size_t kBoundSegment = kLanes;

double dot_padded(const float* a, const float* b, std::size_t stride) {
  double acc[kLanes] = {};
  for (std::size_t k = 0; k < stride; k += kLanes) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      acc[l] += static_cast<double>(a[k + l]) * static_cast<double>(b[k + l]);
    }
  }
  double total = 0.0;
  for (std::size_t l = 0; l < kLanes; ++l) total += acc[l];
  return total;
}

/// Elements between double flushes of the float kernel's lane array. Each
/// float lane sums kFloatFlushBlock / 16 products sequentially before the
/// block's lane sums drain into double accumulators and the float lanes
/// reset; on unit-norm inputs (the normalized rows) the per-block absolute
/// product sums add up to Σ|a_k b_k| <= 1 over the whole row by
/// Cauchy–Schwarz, so the total rounding error is bounded by
/// (kFloatFlushBlock / 16) * 2^-24 ≈ 9.5e-7 at ANY stride — always inside
/// the 1e-6 equivalence contract. (Before the flush existed the bound was
/// (stride / 16) * 2^-24 and kAuto had to fall back past stride 256; the
/// flush is what removed the ceiling.) Must be a multiple of the unrolled
/// step, kLanes * kUnroll = 64. Measured error on random profiles is
/// ~100x below the bound; see the error-bound study in tests/topk_test.cpp
/// and src/sim/README.md.
constexpr std::size_t kFloatFlushBlock = 256;

/// Float-accumulator dense dot: the double kernel's 16-lane accumulator
/// array in float, with the main loop unrolled 4 vector blocks deep (64
/// elements per iteration into the same 16 chains — unrolling does not
/// change the per-lane summation order, so the error analysis above holds
/// for any blocking). Floats halve the bytes per element the vector units
/// move, so dense rows retire ~2x the elements per cycle (measured 1.7x at
/// 96 conditions, 2.9x at 512, AVX-512 host; wider accumulator arrays
/// spill and lose). Every kFloatFlushBlock elements the lanes flush into
/// double accumulators (for stride <= 256 that is a single flush, i.e. the
/// exact pre-flush arithmetic); the final 16-way reduction is in double.
double dot_padded_float(const float* a, const float* b, std::size_t stride) {
  constexpr std::size_t kUnroll = 4;
  double flushed[kLanes] = {};
  for (std::size_t base = 0; base < stride; base += kFloatFlushBlock) {
    const std::size_t end = std::min(stride, base + kFloatFlushBlock);
    float acc[kLanes] = {};
    std::size_t k = base;
    for (; k + kLanes * kUnroll <= end; k += kLanes * kUnroll) {
      for (std::size_t u = 0; u < kUnroll; ++u) {
        for (std::size_t l = 0; l < kLanes; ++l) {
          acc[l] += a[k + u * kLanes + l] * b[k + u * kLanes + l];
        }
      }
    }
    for (; k < end; k += kLanes) {
      for (std::size_t l = 0; l < kLanes; ++l) {
        acc[l] += a[k + l] * b[k + l];
      }
    }
    for (std::size_t l = 0; l < kLanes; ++l) {
      flushed[l] += static_cast<double>(acc[l]);
    }
  }
  double total = 0.0;
  for (std::size_t l = 0; l < kLanes; ++l) {
    total += flushed[l];
  }
  return total;
}

double squared_diff_padded(const float* a, const float* b,
                           std::size_t stride) {
  double acc[kLanes] = {};
  for (std::size_t k = 0; k < stride; k += kLanes) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      const double diff =
          static_cast<double>(a[k + l]) - static_cast<double>(b[k + l]);
      acc[l] += diff * diff;
    }
  }
  double total = 0.0;
  for (std::size_t l = 0; l < kLanes; ++l) total += acc[l];
  return total;
}

/// Pairwise-complete moment sums over the common-present cells of two rows.
struct PairSums {
  std::size_t n = 0;
  double sum_a = 0, sum_b = 0, sum_aa = 0, sum_bb = 0, sum_ab = 0;
};

double finish_centered(const PairSums& s) {
  if (s.n < stats::kMinCompletePairs) return 0.0;
  const double n = static_cast<double>(s.n);
  const double cov = s.sum_ab - s.sum_a * s.sum_b / n;
  const double var_a = s.sum_aa - s.sum_a * s.sum_a / n;
  const double var_b = s.sum_bb - s.sum_b * s.sum_b / n;
  // Relative zero guard: the subtraction-based masked sums can leave a
  // ~1e-13 residue where the scalar reference computes an exact 0 variance
  // (constant-over-common-subset profiles). Purely relative to the row's
  // energy, so small-magnitude but genuinely varying profiles still
  // correlate (sum_aa >= var_a >= 0 always, making eps = 0 exactly when
  // the subset is all zeros).
  if (var_a <= 1e-12 * s.sum_aa || var_b <= 1e-12 * s.sum_bb) return 0.0;
  return std::clamp(cov / std::sqrt(var_a * var_b), -1.0, 1.0);
}

double finish_uncentered(const PairSums& s) {
  if (s.n < stats::kMinCompletePairs) return 0.0;
  if (s.sum_aa <= 0.0 || s.sum_bb <= 0.0) return 0.0;
  return std::clamp(s.sum_ab / std::sqrt(s.sum_aa * s.sum_bb), -1.0, 1.0);
}

}  // namespace

SimilarityEngine SimilarityEngine::from_rows(
    const expr::ExpressionMatrix& matrix, Metric metric,
    Precompute precompute, DenseKernel kernel) {
  SimilarityEngine engine;
  engine.build(matrix.data(), matrix.rows(), matrix.cols(), metric,
               precompute, kernel);
  return engine;
}

SimilarityEngine SimilarityEngine::from_columns(
    const expr::ExpressionMatrix& matrix, Metric metric) {
  // One transpose up front beats a column() allocation per profile fetch.
  return from_rows(matrix.transposed(), metric);
}

SimilarityEngine SimilarityEngine::from_profiles(std::span<const float> flat,
                                                 std::size_t count,
                                                 std::size_t length,
                                                 Metric metric,
                                                 Precompute precompute,
                                                 DenseKernel kernel) {
  FV_REQUIRE(flat.size() == count * length,
             "profile buffer size must be count * length");
  SimilarityEngine engine;
  engine.build(flat, count, length, metric, precompute, kernel);
  return engine;
}

void SimilarityEngine::build(std::span<const float> flat, std::size_t count,
                             std::size_t length, Metric metric,
                             Precompute precompute, DenseKernel kernel) {
  FV_REQUIRE(precompute == Precompute::kAllPairs ||
                 metric == Metric::kPearson ||
                 metric == Metric::kUncenteredPearson,
             "a dot bank requires a Pearson-family metric");
  metric_ = metric;
  precompute_ = precompute;
  count_ = count;
  length_ = length;
  stride_ = ((length + kLanes - 1) / kLanes) * kLanes;
  if (stride_ == 0) stride_ = kLanes;
  // The float kernel's error bound only holds for unit-norm inputs, so it
  // serves the correlation fast path; Euclidean rows are unnormalized and
  // always take the double kernel. The compensated block flush keeps the
  // bound inside the 1e-6 contract at any stride, so kAuto no longer
  // falls back on long rows.
  float_kernel_ =
      metric != Metric::kEuclidean && kernel == DenseKernel::kAuto;
  mask_words_ = (length + 63) / 64;
  if (mask_words_ == 0) mask_words_ = 1;

  // A dot bank keeps only what dot_all-style scoring reads (normalized
  // rows + presence/zscale); the pairwise-only state below stays empty.
  const bool all_pairs = precompute == Precompute::kAllPairs;
  raw_.assign(metric == Metric::kSpearman ? count * stride_ : 0, 0.0f);
  filled_.assign(all_pairs ? count * stride_ : 0, 0.0f);
  mask_.assign(all_pairs ? count * mask_words_ : 0, 0);
  present_.assign(count, 0);
  has_missing_.assign(count, 0);
  degenerate_.assign(count, 0);
  zscale_.assign(count, 0.0f);
  own_sum_.assign(all_pairs ? count : 0, 0.0);
  own_sumsq_.assign(all_pairs ? count : 0, 0.0);
  missing_idx_.clear();
  missing_begin_.assign(all_pairs ? count + 1 : 0, 0);
  const bool correlation = metric != Metric::kEuclidean;
  normalized_.assign(correlation ? count * stride_ : 0, 0.0f);

  std::vector<double> ranks;  // scratch for Spearman
  for (std::size_t i = 0; i < count; ++i) {
    const float* src = flat.data() + i * length;
    float* raw = raw_.empty() ? nullptr : raw_.data() + i * stride_;
    float* filled = all_pairs ? filled_.data() + i * stride_ : nullptr;
    std::uint64_t* mask = all_pairs ? mask_.data() + i * mask_words_
                                    : nullptr;
    std::size_t present = 0;
    double own_sum = 0.0;
    double own_sumsq = 0.0;
    for (std::size_t k = 0; k < length; ++k) {
      if (raw != nullptr) raw[k] = src[k];
      if (stats::is_missing(src[k])) {
        if (all_pairs) missing_idx_.push_back(static_cast<std::uint32_t>(k));
        continue;
      }
      if (filled != nullptr) filled[k] = src[k];
      if (mask != nullptr) mask[k / 64] |= std::uint64_t{1} << (k % 64);
      ++present;
      own_sum += src[k];
      own_sumsq += static_cast<double>(src[k]) * src[k];
    }
    if (all_pairs) {
      missing_begin_[i + 1] = static_cast<std::uint32_t>(missing_idx_.size());
      own_sum_[i] = own_sum;
      own_sumsq_[i] = own_sumsq;
    }
    present_[i] = static_cast<std::uint32_t>(present);
    has_missing_[i] = present != length ? 1 : 0;
    if (!correlation) continue;

    float* norm_row = normalized_.data() + i * stride_;
    const bool center = metric != Metric::kUncenteredPearson;

    if (metric == Metric::kSpearman) {
      // Rank rows are only consulted on the dense fast path (both rows
      // complete); pairs with missing cells must re-rank the complete
      // subset per pair, which the masked path does via stats::spearman.
      if (has_missing_[i] != 0) continue;
      ranks = stats::midranks(std::span<const float>(src, length));
      double mean = 0.0;
      for (const double r : ranks) mean += r;
      mean = length > 0 ? mean / static_cast<double>(length) : 0.0;
      double sumsq = 0.0;
      for (const double r : ranks) sumsq += (r - mean) * (r - mean);
      if (length < stats::kMinCompletePairs || sumsq <= 0.0) {
        degenerate_[i] = 1;
        continue;
      }
      const double inv_norm = 1.0 / std::sqrt(sumsq);
      for (std::size_t k = 0; k < length; ++k) {
        norm_row[k] = static_cast<float>((ranks[k] - mean) * inv_norm);
      }
      continue;
    }

    // Pearson / uncentered: store (x - mean) / ||x - mean|| with missing
    // cells as 0 — the unit-norm form of the stats::ZProfile z-row. The
    // norm comes from a second centered pass rather than own_sumsq so
    // cancellation cannot inflate it.
    const double mean =
        center && present > 0 ? own_sum / static_cast<double>(present) : 0.0;
    double sumsq = 0.0;
    for (std::size_t k = 0; k < length; ++k) {
      if (stats::is_missing(src[k])) continue;
      const double d = static_cast<double>(src[k]) - mean;
      sumsq += d * d;
    }
    if (present < stats::kMinCompletePairs || sumsq <= 0.0) {
      degenerate_[i] = 1;
      continue;
    }
    const double inv_norm = 1.0 / std::sqrt(sumsq);
    for (std::size_t k = 0; k < length; ++k) {
      if (stats::is_missing(src[k])) continue;
      norm_row[k] =
          static_cast<float>((static_cast<double>(src[k]) - mean) * inv_norm);
    }
    if (present >= 2) {
      zscale_[i] =
          static_cast<float>(std::sqrt(static_cast<double>(present - 1)));
    }
  }

  // Blocked segment norms for the pruned top-k bound (correlation engines
  // that answer pairwise queries). Computed in double and inflated by one
  // part in 2^20 before the float store, so a stored norm can never round
  // below the true segment norm — the tile bound stays a proof. Rows with
  // missing cells get norms too, but the pruned path never consults them
  // (their pairwise-complete re-centering is unbounded by the full-row
  // norms, so blocks containing them are never pruned).
  if (correlation && all_pairs) {
    seg_count_ = stride_ / kBoundSegment;
    seg_norms_.assign(count * seg_count_, 0.0f);
    for (std::size_t i = 0; i < count; ++i) {
      const float* row = normalized_.data() + i * stride_;
      float* out = seg_norms_.data() + i * seg_count_;
      for (std::size_t s = 0; s < seg_count_; ++s) {
        double sumsq = 0.0;
        for (std::size_t k = 0; k < kBoundSegment; ++k) {
          const double v = row[s * kBoundSegment + k];
          sumsq += v * v;
        }
        out[s] = static_cast<float>(std::sqrt(sumsq) *
                                    (1.0 + std::ldexp(1.0, -20)));
      }
    }
    // How far the computed float distance can fall below the exact-
    // arithmetic Cauchy–Schwarz chain: kernel rounding (the float kernel's
    // block-flush bound when active, the double kernel's negligible one
    // otherwise) plus the double->float cast of 1 - dot (values <= 2, so
    // one ulp is 2^-23) plus margin for the double arithmetic of the bound
    // itself. Subtracted from every tile bound before the threshold test.
    const double kernel_error =
        float_kernel_
            ? static_cast<double>(std::min(stride_, kFloatFlushBlock) /
                                  kLanes) *
                  std::ldexp(1.0, -24)
            : static_cast<double>(stride_ / kLanes) * std::ldexp(1.0, -52);
    prune_slack_ =
        static_cast<float>(kernel_error + 4.0 * std::ldexp(1.0, -23));
  }
}

std::span<const float> SimilarityEngine::normalized_row(std::size_t i) const {
  FV_REQUIRE(i < count_, "profile index out of range");
  if (normalized_.empty()) return {};
  return {normalized_.data() + i * stride_, stride_};
}

std::span<const float> SimilarityEngine::filled_row(std::size_t i) const {
  FV_REQUIRE(i < count_, "profile index out of range");
  FV_REQUIRE(precompute_ == Precompute::kAllPairs,
             "filled_row() requires Precompute::kAllPairs");
  return {filled_.data() + i * stride_, stride_};
}

std::size_t SimilarityEngine::common_present(std::size_t i,
                                             std::size_t j) const {
  const std::uint64_t* ma = mask_.data() + i * mask_words_;
  const std::uint64_t* mb = mask_.data() + j * mask_words_;
  std::size_t n = 0;
  for (std::size_t w = 0; w < mask_words_; ++w) {
    n += static_cast<std::size_t>(std::popcount(ma[w] & mb[w]));
  }
  return n;
}

double SimilarityEngine::masked_similarity(std::size_t i, std::size_t j) const {
  if (metric_ == Metric::kSpearman) {
    // Ranks depend on the pairwise-complete subset, so each pair must be
    // re-ranked; the scalar kernel (on the NaN-preserving rows) is the
    // only exact option here.
    return stats::spearman({raw_.data() + i * stride_, length_},
                           {raw_.data() + j * stride_, length_});
  }
  // All reads below hit present cells only, where filled_ == the input.
  const float* a = filled_.data() + i * stride_;
  const float* b = filled_.data() + j * stride_;
  PairSums s;
  s.n = common_present(i, j);
  if (s.n < stats::kMinCompletePairs) return 0.0;
  // Pairwise-complete sums = each row's own sums minus the cells the other
  // row is missing: one vectorized dot over the zero-filled rows plus
  // O(#missing) scalar corrections, instead of a branch per element.
  s.sum_ab = dot_padded(filled_.data() + i * stride_,
                        filled_.data() + j * stride_, stride_);
  s.sum_a = own_sum_[i];
  s.sum_aa = own_sumsq_[i];
  for (std::uint32_t m = missing_begin_[j]; m < missing_begin_[j + 1]; ++m) {
    const std::size_t k = missing_idx_[m];
    if (!present_at(i, k)) continue;
    s.sum_a -= a[k];
    s.sum_aa -= static_cast<double>(a[k]) * a[k];
  }
  s.sum_b = own_sum_[j];
  s.sum_bb = own_sumsq_[j];
  for (std::uint32_t m = missing_begin_[i]; m < missing_begin_[i + 1]; ++m) {
    const std::size_t k = missing_idx_[m];
    if (!present_at(j, k)) continue;
    s.sum_b -= b[k];
    s.sum_bb -= static_cast<double>(b[k]) * b[k];
  }
  return metric_ == Metric::kPearson ? finish_centered(s)
                                     : finish_uncentered(s);
}

double SimilarityEngine::similarity(std::size_t i, std::size_t j) const {
  FV_REQUIRE(metric_ != Metric::kEuclidean,
             "similarity() requires a correlation metric");
  FV_REQUIRE(precompute_ == Precompute::kAllPairs,
             "similarity() requires Precompute::kAllPairs");
  FV_REQUIRE(i < count_ && j < count_, "profile index out of range");
  return similarity_unchecked(i, j);
}

double SimilarityEngine::similarity_unchecked(std::size_t i,
                                              std::size_t j) const {
  if (has_missing_[i] != 0 || has_missing_[j] != 0) {
    return masked_similarity(i, j);
  }
  if (degenerate_[i] != 0 || degenerate_[j] != 0) return 0.0;
  const float* a = normalized_.data() + i * stride_;
  const float* b = normalized_.data() + j * stride_;
  const double dot = float_kernel_ ? dot_padded_float(a, b, stride_)
                                   : dot_padded(a, b, stride_);
  return std::clamp(dot, -1.0, 1.0);
}

float SimilarityEngine::euclidean_distance(std::size_t i,
                                           std::size_t j) const {
  // filled_ equals the input at every present cell, which is all either
  // path below reads.
  const float* a = filled_.data() + i * stride_;
  const float* b = filled_.data() + j * stride_;
  if (has_missing_[i] == 0 && has_missing_[j] == 0) {
    // Padding is 0 on both sides, so the tail contributes nothing.
    return static_cast<float>(std::sqrt(squared_diff_padded(a, b, stride_)));
  }
  const std::size_t pairs = common_present(i, j);
  if (pairs == 0) return 0.0f;
  // Over the zero-filled rows, a cell missing on exactly one side leaks its
  // present value squared into the diff sum; subtract those back out.
  double sum = squared_diff_padded(a, b, stride_);
  for (std::uint32_t m = missing_begin_[j]; m < missing_begin_[j + 1]; ++m) {
    const std::size_t k = missing_idx_[m];
    if (present_at(i, k)) sum -= static_cast<double>(a[k]) * a[k];
  }
  for (std::uint32_t m = missing_begin_[i]; m < missing_begin_[i + 1]; ++m) {
    const std::size_t k = missing_idx_[m];
    if (present_at(j, k)) sum -= static_cast<double>(b[k]) * b[k];
  }
  sum = std::max(sum, 0.0);
  // Coverage scaling, as in cluster::profile_distance (Cluster 3.0).
  return static_cast<float>(std::sqrt(sum * static_cast<double>(length_) /
                                      static_cast<double>(pairs)));
}

float SimilarityEngine::distance(std::size_t i, std::size_t j) const {
  FV_REQUIRE(i < count_ && j < count_, "profile index out of range");
  FV_REQUIRE(precompute_ == Precompute::kAllPairs,
             "distance() requires Precompute::kAllPairs");
  return distance_unchecked(i, j);
}

float SimilarityEngine::distance_unchecked(std::size_t i,
                                           std::size_t j) const {
  if (metric_ == Metric::kEuclidean) return euclidean_distance(i, j);
  return static_cast<float>(1.0 - similarity_unchecked(i, j));
}

namespace {

/// Scratch-block pool for tile streaming: at most one block per concurrent
/// visitor invocation is ever live (blocks are returned after each tile),
/// so the distance phase of a streaming consumer peaks at
/// O(threads * kTile²) floats of transient state, never O(n²). The lock is
/// taken twice per tile — noise next to the tile's 4096 kernel calls.
class TileScratchPool {
 public:
  std::vector<float> acquire() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (!free_.empty()) {
        std::vector<float> block = std::move(free_.back());
        free_.pop_back();
        return block;
      }
    }
    return std::vector<float>(kTile * kTile);
  }
  void release(std::vector<float> block) {
    const std::lock_guard<std::mutex> lock(mutex_);
    free_.push_back(std::move(block));
  }

 private:
  std::mutex mutex_;
  std::vector<std::vector<float>> free_;
};

}  // namespace

std::size_t SimilarityEngine::tile_count() const noexcept {
  const std::size_t tiles = (count_ + kTile - 1) / kTile;
  return tiles * (tiles + 1) / 2;
}

void SimilarityEngine::compute_tile(std::size_t t, float* scratch,
                                    DistanceTile& tile) const {
  const std::size_t n = count_;
  const std::size_t tiles = (n + kTile - 1) / kTile;
  // Recover (ta, tb) from the linearized upper-triangle schedule position.
  std::size_t ta = 0;
  std::size_t base = 0;
  while (base + (tiles - ta) <= t) {
    base += tiles - ta;
    ++ta;
  }
  const std::size_t tb = ta + (t - base);

  tile.index = t;
  tile.row_begin = ta * kTile;
  tile.row_end = std::min<std::size_t>(n, (ta + 1) * kTile);
  tile.col_begin = tb * kTile;
  tile.col_end = std::min<std::size_t>(n, (tb + 1) * kTile);
  tile.ld = tile.col_end - tile.col_begin;
  tile.values = scratch;
  if (ta == tb) {
    // Diagonal tile: only j > i is meaningful; zero the rest so reused
    // scratch blocks never leak another tile's values.
    std::fill(scratch, scratch + (tile.row_end - tile.row_begin) * tile.ld,
              0.0f);
  }
  for (std::size_t i = tile.row_begin; i < tile.row_end; ++i) {
    float* row = scratch + (i - tile.row_begin) * tile.ld;
    for (std::size_t j = ta == tb ? i + 1 : tile.col_begin; j < tile.col_end;
         ++j) {
      row[j - tile.col_begin] = distance_unchecked(i, j);
    }
  }
}

void SimilarityEngine::release_row_pages(std::size_t begin,
                                         std::size_t end) const {
  if (pin_ == nullptr || end <= begin) return;
  // Only the count x stride slabs matter for residency: everything else
  // (masks, CSR lists, per-row scalars) is a few bytes per row and churning
  // madvise on it would cost more than the pages hold.
  const std::size_t bytes = (end - begin) * stride_ * sizeof(float);
  if (!normalized_.empty()) {
    pin_->release_pages(normalized_.data() + begin * stride_, bytes);
  }
  if (!filled_.empty()) {
    pin_->release_pages(filled_.data() + begin * stride_, bytes);
  }
  if (!raw_.empty()) {
    pin_->release_pages(raw_.data() + begin * stride_, bytes);
  }
}

void SimilarityEngine::for_each_tile(
    const std::function<void(const DistanceTile&)>& visit,
    par::ThreadPool& pool) const {
  for_each_tile(visit, pool, tile_count());
}

void SimilarityEngine::for_each_tile(
    const std::function<void(const DistanceTile&)>& visit,
    par::ThreadPool& pool, std::size_t tiles) const {
  FV_REQUIRE(precompute_ == Precompute::kAllPairs,
             "for_each_tile() requires Precompute::kAllPairs");
  if (count_ < 2) return;
  // One backing check for the whole phase: the pooled path keeps no page
  // cursor (workers touch tiles in pull order), so pages stay resident
  // until the phase ends — residency streaming is the SERIAL driver's job.
  check_backing();
  TileScratchPool scratch;
  par::parallel_dynamic(pool, 0, tiles, [&](std::size_t t) {
    std::vector<float> block = scratch.acquire();
    DistanceTile tile;
    compute_tile(t, block.data(), tile);
    visit(tile);
    scratch.release(std::move(block));
  });
}

void SimilarityEngine::for_each_tile(
    const std::function<void(const DistanceTile&)>& visit) const {
  FV_REQUIRE(precompute_ == Precompute::kAllPairs,
             "for_each_tile() requires Precompute::kAllPairs");
  if (count_ < 2) return;
  std::vector<float> block(kTile * kTile);
  // The same linear schedule positions t = 0, 1, 2, … the pooled driver
  // uses, walked as explicit row stripes (ta fixed, tb ascending) so a
  // borrowed-mapped engine can stream: rows enter the resident set when
  // the cursor reaches them and leave right after their last pair in the
  // stripe. Visit order — and therefore every visitor's reduction order —
  // is identical to the plain `for t` loop this replaces.
  const std::size_t blocks = (count_ + kTile - 1) / kTile;
  std::size_t t = 0;
  for (std::size_t ta = 0; ta < blocks; ++ta) {
    // Per-stripe, not per-phase: a stripe is the unit after which pages
    // are dropped, so each stripe re-proves the file still backs the
    // pages it is about to fault in (typed error, never SIGBUS).
    check_backing();
    for (std::size_t tb = ta; tb < blocks; ++tb, ++t) {
      DistanceTile tile;
      compute_tile(t, block.data(), tile);
      visit(tile);
      // The column block's rows are done for THIS stripe; later stripes
      // refault them from the page cache on demand. Keeping the diagonal
      // block resident across its own stripe avoids thrashing the rows
      // every inner tile reads.
      if (tb != ta) release_row_pages(tile.col_begin, tile.col_end);
    }
    release_row_pages(ta * kTile, std::min(count_, (ta + 1) * kTile));
  }
}

void SimilarityEngine::all_distances(std::span<float> out,
                                     par::ThreadPool& pool) const {
  const std::size_t n = count_;
  FV_REQUIRE(out.size() == n * n, "output must be size() x size()");
  if (n == 0) return;

  // Trivial tile visitor: mirror each tile into both triangles of the
  // dense layout. Tiles cover disjoint (i, j) ranges, so writes never race.
  float* d = out.data();
  for_each_tile(
      [&](const DistanceTile& tile) {
        for (std::size_t i = tile.row_begin; i < tile.row_end; ++i) {
          const std::size_t j_first =
              std::max(tile.col_begin, i + 1);
          for (std::size_t j = j_first; j < tile.col_end; ++j) {
            const float dist = tile.at(i, j);
            d[i * n + j] = dist;
            d[j * n + i] = dist;
          }
        }
      },
      pool);
  for (std::size_t i = 0; i < n; ++i) d[i * n + i] = 0.0f;
}

namespace {

/// Shared condensed-layout tile visitor: each (i, j) pair lands exactly
/// once at its condensed offset, through `transform`. Within one row
/// segment the condensed indices are contiguous (offset(i, j+1) =
/// offset(i, j) + 1), so the inner loop is a linear store stream; distinct
/// tiles cover disjoint (i, j-range) segments, so writes never race.
template <typename Transform>
auto condensed_tile_writer(float* d, std::size_t n, Transform transform) {
  return [d, n, transform](const DistanceTile& tile) {
    for (std::size_t i = tile.row_begin; i < tile.row_end; ++i) {
      const std::size_t j_first = std::max(tile.col_begin, i + 1);
      if (j_first >= tile.col_end) continue;
      // row[j - j_first] is pair (i, j)'s condensed cell; the base stays
      // inside the buffer so the pointer arithmetic is defined
      // (UBSan-clean) even for the first row segment.
      float* row = d + condensed_index(i, j_first, n);
      for (std::size_t j = j_first; j < tile.col_end; ++j) {
        row[j - j_first] = transform(tile.at(i, j));
      }
    }
  };
}

}  // namespace

void SimilarityEngine::condensed_distances(std::span<float> out,
                                           par::ThreadPool& pool) const {
  const std::size_t n = count_;
  FV_REQUIRE(out.size() == condensed_size(n),
             "output must hold condensed_size(size()) values");
  if (n < 2) return;
  for_each_tile(
      condensed_tile_writer(out.data(), n, [](float d) { return d; }), pool);
}

void SimilarityEngine::condensed_distances(std::span<float> out) const {
  const std::size_t n = count_;
  FV_REQUIRE(out.size() == condensed_size(n),
             "output must hold condensed_size(size()) values");
  if (n < 2) return;
  for_each_tile(
      condensed_tile_writer(out.data(), n, [](float d) { return d; }));
}

void SimilarityEngine::condensed_squared_distances(
    std::span<float> out, par::ThreadPool& pool) const {
  FV_REQUIRE(metric_ == Metric::kEuclidean,
             "condensed_squared_distances() squares Euclidean distances; "
             "correlation metrics have no squared-distance form");
  const std::size_t n = count_;
  FV_REQUIRE(out.size() == condensed_size(n),
             "output must hold condensed_size(size()) values");
  if (n < 2) return;
  // Same writer with each cell squared on the way out — the cheapest point
  // to square is the already-L1-resident tile.
  for_each_tile(
      condensed_tile_writer(out.data(), n, [](float d) { return d * d; }),
      pool);
}

namespace {

/// One nearest-neighbor candidate in a bounded per-row heap. Ordered
/// lexicographically by (distance, index): the global top-k under this
/// total order is what top_k_neighbors returns, which makes results
/// deterministic under any thread schedule (every global top-k entry is
/// among the k (distance, index)-smallest of whichever slot saw it, so the
/// union of slot heaps always contains the true top-k).
struct NeighborEntry {
  float d = 0.0f;
  std::uint32_t idx = 0;
  bool operator<(const NeighborEntry& o) const {
    return d != o.d ? d < o.d : idx < o.idx;
  }
};

/// Per-thread top-k state: one bounded max-heap per queried row in one
/// slab. Slots are checked out per tile visit, so at most
/// pool.thread_count() exist.
struct TopKSlot {
  std::vector<NeighborEntry> heap;  ///< rows x k slab
  std::vector<std::uint32_t> size;  ///< live entries per row

  TopKSlot(std::size_t n, std::size_t k) : heap(n * k), size(n, 0) {}

  void push(std::size_t row, std::size_t k, NeighborEntry e) {
    NeighborEntry* base = heap.data() + row * k;
    std::uint32_t& s = size[row];
    if (s < k) {
      base[s++] = e;
      std::push_heap(base, base + s);
    } else if (e < base[0]) {
      std::pop_heap(base, base + k);
      base[k - 1] = e;
      std::push_heap(base, base + k);
    }
  }
};

/// Monotone-decreasing publish of a row's heap threshold. Stale (larger)
/// values only cost prunes, never correctness, so relaxed order suffices.
void publish_min(std::atomic<float>& slot, float value) {
  float current = slot.load(std::memory_order_relaxed);
  while (value < current &&
         !slot.compare_exchange_weak(current, value,
                                     std::memory_order_relaxed)) {
  }
}

}  // namespace

NeighborTable SimilarityEngine::top_k_neighbors(std::size_t k,
                                                par::ThreadPool& pool,
                                                std::size_t min_common,
                                                TopKStrategy strategy,
                                                TopKStats* stats,
                                                const LshParams& lsh,
                                                const LshIndex* lsh_index,
                                                std::size_t rows) const {
  FV_REQUIRE(precompute_ == Precompute::kAllPairs,
             "top_k_neighbors() requires Precompute::kAllPairs");
  FV_REQUIRE(k >= 1, "top_k_neighbors() needs k >= 1");
  FV_REQUIRE(
      strategy != TopKStrategy::kPruned || metric_ != Metric::kEuclidean,
      "TopKStrategy::kPruned needs a correlation metric — Euclidean rows "
      "are unnormalized, so the Cauchy–Schwarz norm bound does not exist; "
      "use kAuto (which falls back to kExact) instead");
  FV_REQUIRE(
      strategy != TopKStrategy::kApprox || metric_ != Metric::kEuclidean,
      "TopKStrategy::kApprox needs a correlation metric — hyperplane "
      "signatures estimate the angle, which is not the Euclidean metric; "
      "use kAuto (which falls back to kExact) instead");
  if (strategy == TopKStrategy::kAuto) {
    strategy = metric_ == Metric::kEuclidean ? TopKStrategy::kExact
                                             : TopKStrategy::kPruned;
  }
  // The pruned and kApprox phases below run their own schedules (they do
  // not pass through for_each_tile), so prove the mapped backing is intact
  // once here before any of them walks unfaulted pages.
  check_backing();
  const std::size_t n = count_;
  // Queried rows [0, queried): every pair (i < j) touching one has its i
  // there, so the tiles with row block ta < row_blocks — a prefix of the
  // row-major schedule — hold every pair the table needs.
  const std::size_t queried = std::min(rows, n);
  NeighborTable table;
  table.count = queried;
  table.k = n > 0 ? std::min(k, n - 1) : 0;
  table.valid.assign(queried, 0);
  if (stats != nullptr) *stats = TopKStats{};
  if (n < 2 || table.k == 0 || queried == 0) return table;
  const std::size_t blocks = (n + kTile - 1) / kTile;
  const std::size_t row_blocks = (queried + kTile - 1) / kTile;
  const std::size_t prefix_tiles =
      row_blocks * blocks - row_blocks * (row_blocks - 1) / 2;
  // k >= n-1 asks for EVERY neighbor of every row — a candidate stage can
  // only lose recall there, never work. Fall back honestly to the exact
  // path (stats report it: signatures_built stays 0).
  if (strategy == TopKStrategy::kApprox && table.k == n - 1) {
    strategy = TopKStrategy::kExact;
  }
  const std::size_t kk = table.k;
  table.indices.assign(queried * kk, 0);
  table.distances.assign(queried * kk, 0.0f);

  // Slot checkout mirrors the scratch-block pool: one slot per concurrent
  // visitor, so peak state is O(threads * rows * k) — for the
  // single-threaded CI host exactly one slot plus the merged table.
  std::mutex slots_mutex;
  std::vector<std::unique_ptr<TopKSlot>> slots;
  std::vector<TopKSlot*> free_slots;
  const auto acquire = [&]() -> TopKSlot* {
    {
      const std::lock_guard<std::mutex> lock(slots_mutex);
      if (!free_slots.empty()) {
        TopKSlot* slot = free_slots.back();
        free_slots.pop_back();
        return slot;
      }
    }
    auto fresh = std::make_unique<TopKSlot>(queried, kk);
    TopKSlot* raw = fresh.get();
    const std::lock_guard<std::mutex> lock(slots_mutex);
    slots.push_back(std::move(fresh));
    return raw;
  };
  const auto release = [&](TopKSlot* slot) {
    const std::lock_guard<std::mutex> lock(slots_mutex);
    free_slots.push_back(slot);
  };

  // Pushes every surviving pair of one computed tile into the heaps of
  // its queried ends. Shared verbatim by both tiled strategies, so they
  // cannot drift. Rows past `queried` (the tail of the last row block)
  // have no heap and, as i < j, no queried partner either.
  const auto consume_tile = [&](const DistanceTile& tile, TopKSlot& slot) {
    const std::size_t row_end = std::min(tile.row_end, queried);
    for (std::size_t i = tile.row_begin; i < row_end; ++i) {
      const std::size_t j_first = std::max(tile.col_begin, i + 1);
      const bool i_missing = has_missing_[i] != 0;
      for (std::size_t j = j_first; j < tile.col_end; ++j) {
        if (min_common > 0) {
          // Dense pairs share all length() cells; only pairs touching a
          // masked row pay the popcount.
          const std::size_t common =
              i_missing || has_missing_[j] != 0 ? common_present(i, j)
                                                : length_;
          if (common < min_common) continue;
        }
        const float dist = tile.at(i, j);
        slot.push(i, kk, {dist, static_cast<std::uint32_t>(j)});
        if (j < queried) {
          slot.push(j, kk, {dist, static_cast<std::uint32_t>(i)});
        }
      }
    }
  };

  if (strategy == TopKStrategy::kApprox) {
    // --- LSH candidates + exact rescoring ---------------------------
    // The signature layer proposes pairs; everything REPORTED still goes
    // through distance_unchecked — the same call, in the same (i < j)
    // orientation, the tile path makes — so returned distances are
    // bit-identical to kExact and only recall is approximate. min_common
    // is enforced here, at rescoring, never in the candidate stage:
    // signatures know nothing about masks, so filtering there would
    // silently change which pairs even get considered.
    // A caller-supplied prebuilt index (warm-reopened from the artifact
    // store) skips the signature build.
    FV_REQUIRE(lsh_index == nullptr || lsh_index->size() == n,
               "prebuilt LSH index covers a different profile count than "
               "this engine");
    // A borrowed prebuilt index walks its own mapping: same guard.
    if (lsh_index != nullptr) lsh_index->check_backing();
    std::optional<LshIndex> built;
    if (lsh_index == nullptr) built.emplace(*this, lsh, pool);
    const LshIndex& index = lsh_index != nullptr ? *lsh_index : *built;
    LshIndex::CandidateStats cstats;
    const auto pairs = index.candidate_pairs(&cstats);
    // Pairs come sorted by i (< j), so the ones with an end among the
    // queried rows are exactly the prefix with i < queried.
    const std::size_t relevant = static_cast<std::size_t>(
        std::partition_point(pairs.begin(), pairs.end(),
                             [&](const auto& p) { return p.first < queried; }) -
        pairs.begin());
    std::atomic<std::size_t> rescored{0};
    // Chunked dynamic schedule over the deduped pair list: each chunk
    // checks out a slot, so the heap state stays O(threads * rows * k).
    constexpr std::size_t kPairChunk = 2048;
    const std::size_t chunks = (relevant + kPairChunk - 1) / kPairChunk;
    par::parallel_dynamic(pool, 0, chunks, [&](std::size_t c) {
      TopKSlot* slot = acquire();
      std::size_t local = 0;
      const std::size_t begin = c * kPairChunk;
      const std::size_t end = std::min(relevant, begin + kPairChunk);
      for (std::size_t p = begin; p < end; ++p) {
        const std::size_t i = pairs[p].first;
        const std::size_t j = pairs[p].second;
        if (min_common > 0) {
          const std::size_t common =
              has_missing_[i] != 0 || has_missing_[j] != 0
                  ? common_present(i, j)
                  : length_;
          if (common < min_common) continue;
        }
        const float dist = distance_unchecked(i, j);
        ++local;
        slot->push(i, kk, {dist, static_cast<std::uint32_t>(j)});
        if (j < queried) {
          slot->push(j, kk, {dist, static_cast<std::uint32_t>(i)});
        }
      }
      rescored.fetch_add(local, std::memory_order_relaxed);
      release(slot);
    });
    if (stats != nullptr) {
      // 0 under a prebuilt index: no signatures were built THIS call —
      // how tests observe that a warm-reopened index was actually reused.
      stats->signatures_built = lsh_index == nullptr ? n : 0;
      stats->buckets_probed = cstats.buckets_probed;
      stats->candidates_generated = cstats.candidates_generated;
      stats->candidates_rescored = rescored.load();
      stats->exact_dot_fraction =
          static_cast<double>(rescored.load()) /
          static_cast<double>(condensed_size(n));
    }
  } else if (strategy == TopKStrategy::kExact) {
    if (stats != nullptr) {
      stats->tiles_total = prefix_tiles;
      stats->tiles_computed = prefix_tiles;
      stats->exact_dot_fraction = static_cast<double>(prefix_tiles) /
                                  static_cast<double>(tile_count());
    }
    for_each_tile(
        [&](const DistanceTile& tile) {
          TopKSlot* slot = acquire();
          consume_tile(tile, *slot);
          release(slot);
        },
        pool, prefix_tiles);
  } else {
    // --- Norm-bound tile pruning ------------------------------------
    // Per 64-row block: the segment-wise max norms of its rows (an
    // envelope) and whether every row is dense. For blocks A, B the dot
    // of any cross pair (i in A, j in B) obeys
    //   dot(a_i, a_j) <= Σ_s ||a_i[s]||·||a_j[s]||   (Cauchy–Schwarz per
    //                                                 segment)
    //                 <= Σ_s amax[s]·bmax[s]          (the envelope),
    // so every pair distance in tile (A, B) is at least
    // 1 - Σ_s amax[s]·bmax[s] - slack, where the slack covers kernel and
    // cast rounding (see build()). A tile whose bound strictly beats the
    // published heap threshold of every row it touches cannot contribute
    // a single heap entry and is skipped whole.
    std::vector<float> block_max(blocks * seg_count_, 0.0f);
    std::vector<std::uint8_t> block_prunable(blocks, 1);
    for (std::size_t b = 0; b < blocks; ++b) {
      const std::size_t row_end = std::min(n, (b + 1) * kTile);
      float* bmax = block_max.data() + b * seg_count_;
      for (std::size_t i = b * kTile; i < row_end; ++i) {
        if (has_missing_[i] != 0) {
          // A masked pair's correlation re-centers over the pairwise-
          // complete subset; no full-row norm bounds it. Every tile
          // touching this block computes exactly.
          block_prunable[b] = 0;
          break;
        }
        const float* sn = seg_norms_.data() + i * seg_count_;
        for (std::size_t s = 0; s < seg_count_; ++s) {
          bmax[s] = std::max(bmax[s], sn[s]);
        }
      }
    }

    // Shared per-row heap thresholds: the k-th-smallest distance any one
    // slot has seen so far for the row (+inf until some slot's heap is
    // full). The k-th smallest of a SUBSET of a row's candidates can only
    // overestimate the k-th smallest of all of them, so pruning against a
    // published threshold — even a stale or partial-slot one — never
    // drops a true top-k pair. The feedback only decides how much is
    // pruned, never what is returned: the exact top-k under the total
    // (distance, index) order is unique, hence schedule-independent.
    // Only queried rows have heaps, so only they carry a threshold.
    std::vector<std::atomic<float>> thresholds(queried);
    for (auto& t : thresholds) {
      t.store(std::numeric_limits<float>::infinity(),
              std::memory_order_relaxed);
    }

    // Diagonal-first schedule: sweep the block offset d = tb - ta
    // outward, so near-diagonal tiles (same-module pairs on clustered
    // compendia) fill the heaps with tight thresholds before the far
    // tiles — the prunable bulk — are checked. Exactly-once delivery
    // holds by construction: the permutation visits each prefix tile index
    // (ta < row_blocks) once. Each entry carries its (ta, tb) so workers
    // never re-decode the linearization; `index` is the row-major
    // upper-triangle position compute_tile expects (base of block-row ta,
    // plus the offset d).
    struct TileRef {
      std::size_t index, ta, tb;
    };
    std::vector<TileRef> order;
    order.reserve(prefix_tiles);
    for (std::size_t d = 0; d < blocks; ++d) {
      for (std::size_t ta = 0; ta < row_blocks && ta + d < blocks; ++ta) {
        order.push_back({ta * blocks - ta * (ta - 1) / 2 + d, ta, ta + d});
      }
    }

    std::atomic<std::size_t> pruned_tiles{0};
    std::atomic<std::size_t> checked_bounds{0};
    TileScratchPool scratch;
    par::parallel_dynamic(pool, 0, order.size(), [&](std::size_t pos) {
      const auto [t, ta, tb] = order[pos];
      // The proof and the publish cover the queried rows only: the rest
      // have no heap, and no pair of theirs is consumed.
      const std::size_t row_begin = ta * kTile;
      const std::size_t row_end = std::min(queried, row_begin + kTile);
      const std::size_t col_begin = tb * kTile;
      const std::size_t col_end = std::min(queried, col_begin + kTile);

      if (block_prunable[ta] != 0 && block_prunable[tb] != 0) {
        checked_bounds.fetch_add(1, std::memory_order_relaxed);
        const float* amax = block_max.data() + ta * seg_count_;
        const float* bmax = block_max.data() + tb * seg_count_;
        double dot_bound = 0.0;
        for (std::size_t s = 0; s < seg_count_; ++s) {
          dot_bound += static_cast<double>(amax[s]) * bmax[s];
        }
        const double lower_distance = 1.0 - dot_bound - prune_slack_;
        // Strictly beating every touched row's threshold proves no pair
        // in the tile can displace a heap entry (a tie in distance could
        // still enter on a smaller index, so equality never prunes).
        bool skip = true;
        for (std::size_t i = row_begin; skip && i < row_end; ++i) {
          skip =
              lower_distance > thresholds[i].load(std::memory_order_relaxed);
        }
        for (std::size_t j = col_begin; skip && j < col_end; ++j) {
          skip =
              lower_distance > thresholds[j].load(std::memory_order_relaxed);
        }
        if (skip) {
          pruned_tiles.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }

      std::vector<float> block = scratch.acquire();
      DistanceTile tile;
      compute_tile(t, block.data(), tile);
      TopKSlot* slot = acquire();
      consume_tile(tile, *slot);
      // Broadcast the freshly-tightened heap minima back into the
      // schedule so later tiles prune against them. Only full heaps
      // publish — a short heap's max says nothing about the k-th-best.
      const auto publish = [&](std::size_t r) {
        if (slot->size[r] == kk) {
          publish_min(thresholds[r], slot->heap[r * kk].d);
        }
      };
      for (std::size_t i = row_begin; i < row_end; ++i) publish(i);
      if (tb != ta) {
        for (std::size_t j = col_begin; j < col_end; ++j) publish(j);
      }
      release(slot);
      scratch.release(std::move(block));
    });
    if (stats != nullptr) {
      stats->tiles_total = order.size();
      stats->tiles_pruned = pruned_tiles.load();
      stats->tiles_computed = order.size() - stats->tiles_pruned;
      stats->bounds_checked = checked_bounds.load();
      stats->exact_dot_fraction =
          static_cast<double>(stats->tiles_computed) /
          static_cast<double>(tile_count());
    }
  }

  // Merge: per row, the union of slot heaps contains the global
  // (distance, index)-smallest k; sort it and keep the head. Rows are
  // independent, so the merge itself parallelizes statically.
  par::parallel_for(pool, 0, queried, 64, [&](std::size_t i) {
    std::vector<NeighborEntry> candidates;
    for (const auto& slot : slots) {
      const NeighborEntry* base = slot->heap.data() + i * kk;
      candidates.insert(candidates.end(), base, base + slot->size[i]);
    }
    std::sort(candidates.begin(), candidates.end());
    const std::size_t keep = std::min(kk, candidates.size());
    table.valid[i] = static_cast<std::uint32_t>(keep);
    for (std::size_t s = 0; s < keep; ++s) {
      table.indices[i * kk + s] = candidates[s].idx;
      table.distances[i * kk + s] = candidates[s].d;
    }
  });
  return table;
}

namespace {

/// Sums a tile's meaningful cells (the strict upper triangle) in double.
double tile_distance_sum(const DistanceTile& tile) {
  double sum = 0.0;
  for (std::size_t i = tile.row_begin; i < tile.row_end; ++i) {
    for (std::size_t j = std::max(tile.col_begin, i + 1); j < tile.col_end;
         ++j) {
      sum += tile.at(i, j);
    }
  }
  return sum;
}

}  // namespace

double SimilarityEngine::mean_pairwise_distance() const {
  if (count_ < 2) return 0.0;
  double total = 0.0;
  for_each_tile(
      [&](const DistanceTile& tile) { total += tile_distance_sum(tile); });
  return total / static_cast<double>(condensed_size(count_));
}

double profile_coherence(std::span<const float> flat, std::size_t count,
                         std::size_t length) {
  if (count < 2) return 0.0;
  const auto engine = SimilarityEngine::from_profiles(flat, count, length,
                                                      Metric::kPearson);
  // Mean r = 1 - mean (1 - r); engine distances match stats::pearson
  // within the 1e-6 contract.
  return std::max(0.0, 1.0 - engine.mean_pairwise_distance());
}

double profile_coherence(std::span<const std::span<const float>> profiles,
                         std::size_t length) {
  if (profiles.size() < 2) return 0.0;
  std::vector<float> flat(profiles.size() * length);
  for (std::size_t q = 0; q < profiles.size(); ++q) {
    FV_REQUIRE(profiles[q].size() == length,
               "every profile must have `length` values");
    std::copy(profiles[q].begin(), profiles[q].end(),
              flat.begin() + q * length);
  }
  return profile_coherence(flat, profiles.size(), length);
}

void SimilarityEngine::dot_all(std::span<const float> query,
                               std::span<double> out) const {
  // Spearman is excluded deliberately: its bank has no normalized rows for
  // profiles with missing cells, so dots would silently score them 0.
  FV_REQUIRE(metric_ == Metric::kPearson ||
                 metric_ == Metric::kUncenteredPearson,
             "dot_all() requires a Pearson-family metric");
  FV_REQUIRE(query.size() == stride_, "query must have stride() entries");
  FV_REQUIRE(out.size() == count_, "output must have size() entries");
  check_backing();
  for (std::size_t i = 0; i < count_; ++i) {
    out[i] = dot_padded(normalized_.data() + i * stride_, query.data(),
                        stride_);
  }
}

}  // namespace fv::sim
