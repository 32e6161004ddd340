// Random-hyperplane LSH signatures over the similarity engine's rows.
//
// Every exact path in sim is O(n²) pairs; bound pruning (top_k_neighbors
// kPruned) skips provably-losing tiles but the schedule itself still
// scales quadratically, capping practical n around 10⁴–10⁵. This layer is
// the sub-quadratic candidate generator: each profile's already-normalized
// row is projected onto a seeded bank of Gaussian hyperplanes and the
// projection signs pack into a `bits`-wide signature (uint64_t words). For
// unit vectors, P[sign(h·a) ≠ sign(h·b)] = θ(a,b)/π, so Hamming distance
// on signatures estimates angle — and on the engine's rows angle IS the
// metric (1 − cos θ is Pearson/uncentered/Spearman distance). Candidate
// pairs come from multi-probe bucket collisions over disjoint signature
// slices; consumers then rescore candidates through the exact kernels
// (SimilarityEngine::top_k_neighbors TopKStrategy::kApprox), so every
// *returned* distance is bit-identical to the exact path — only recall is
// approximate. See src/sim/README.md §approximate top-k.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "par/thread_pool.hpp"
#include "sim/engine_storage.hpp"
#include "sim/similarity_engine.hpp"

namespace fv::store {
class LshCodec;  // store/cached.hpp — persists signature banks verbatim
}  // namespace fv::store

namespace fv::sim {

/// Hamming distance between two packed bit rows of `words` uint64_t each.
/// Compiles to one POPCNT per word on x86-64 with -march=native (via
/// std::popcount); on ISAs without a population-count instruction the
/// compiler lowers the same intrinsic to SWAR arithmetic.
std::size_t hamming_words(const std::uint64_t* a, const std::uint64_t* b,
                          std::size_t words);

/// The explicit SWAR (shift-and-add) Hamming kernel: no popcount intrinsic
/// anywhere, so it pins the semantics hamming_words must match on every
/// platform (tests assert equivalence; the bench measures the gap).
std::size_t hamming_words_portable(const std::uint64_t* a,
                                   const std::uint64_t* b, std::size_t words);

/// LSH signature index over a similarity engine's profiles.
///
/// Construction is one pass: O(n · bits) hyperplane projections over the
/// engine's unit-norm rows (deterministic for a fixed LshParams::seed —
/// the hyperplane bank comes from fv::Rng, and per-row work is
/// schedule-independent, so any pool yields the same signatures), then
/// `tables` bucket tables, each keyed on a disjoint `bits/tables`-bit
/// signature slice (slices hash to 64-bit keys; hash collisions only ADD
/// candidates, never lose one, since equal slices always hash equal).
///
/// Honest failure modes, by construction:
///  * Rows with missing cells project their zero-filled normalized row —
///    the angle estimate degrades with missingness (rescoring stays
///    exact, so only recall suffers).
///  * Spearman rows with missing cells and degenerate (constant) rows
///    have all-zero normalized rows: every projection ties at 0, they all
///    share one signature and collide with each other — correct (their
///    mutual distances are 1) but a large such group rescans itself.
///  * Identical rows collide in every table; a bucket of B identical rows
///    honestly yields B(B−1)/2 candidates (they ARE mutual nearest
///    neighbors).
class LshIndex {
 public:
  /// Builds signatures for every profile of `engine` on `pool`. Requires
  /// a correlation metric (Euclidean rows are unnormalized — angle is not
  /// the metric); throws fv::InvalidArgument on that and on
  /// out-of-contract params (bits not a multiple of 64 or outside
  /// [64, 1024], tables outside [1, bits], probes outside
  /// [1, slice_bits + 1]). Needs only the engine's normalized rows, so
  /// any Precompute mode works; rescoring consumers add their own
  /// requirements.
  LshIndex(const SimilarityEngine& engine, const LshParams& params,
           par::ThreadPool& pool);

  std::size_t size() const noexcept { return count_; }   ///< profiles
  std::size_t bits() const noexcept { return bits_; }    ///< signature bits
  std::size_t words() const noexcept { return words_; }  ///< uint64s per row
  std::size_t slice_bits() const noexcept { return slice_bits_; }

  /// Where the signature bank and bucket tables live: kOwnedHeap for built
  /// indexes, kBorrowedMapped for indexes restored from the artifact store
  /// (store::LshCodec::load) as spans into a pinned artifact mapping.
  /// Candidate generation is identical in both modes.
  EngineStorage storage() const noexcept {
    return pin_ == nullptr ? EngineStorage::kOwnedHeap
                           : EngineStorage::kBorrowedMapped;
  }

  /// Profile i's packed signature (words() uint64_t).
  std::span<const std::uint64_t> signature(std::size_t i) const;

  /// Hamming distance between two profiles' signatures.
  std::size_t hamming(std::size_t i, std::size_t j) const;

  /// The signature-only distance estimate: 1 − cos(π · hamming/bits).
  /// Monotone in the Hamming distance; NOT exact — consumers that report
  /// distances must rescore through the engine's exact kernels.
  double estimated_distance(std::size_t i, std::size_t j) const;

  /// Counters of one candidate_pairs() sweep.
  struct CandidateStats {
    std::size_t buckets_probed = 0;  ///< bucket enumerations + probe lookups
    std::size_t candidates_generated = 0;  ///< collision pairs, pre-dedup
    std::size_t pairs = 0;                 ///< deduped pairs returned
  };

  /// Every unordered profile pair that collides in at least one table
  /// (same slice key, or reached via a multi-probe flipped key), deduped,
  /// as (i, j) with i < j, sorted — a deterministic function of the
  /// signatures alone. Built row by row: each row's partners are
  /// gathered from every table, deduped and sorted on their own, so no
  /// collision list is ever materialized or globally sorted, and peak
  /// memory is the output plus O(tables · n · probes) lookup arrays.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> candidate_pairs(
      CandidateStats* stats = nullptr) const;

 private:
  /// The artifact store's codec restores a persisted index through the
  /// default constructor + direct field access; a warm reopen must never
  /// re-project n × bits hyperplanes (that build cost is what it saves).
  friend class fv::store::LshCodec;
  /// top_k_neighbors re-validates a prebuilt index's backing before its
  /// candidate sweep walks the borrowed tables.
  friend class SimilarityEngine;

  LshIndex() = default;

  /// No-op on built indexes; on borrowed ones throws
  /// fv::CorruptArtifactError if the artifact shrank under the mapping.
  void check_backing() const {
    if (pin_ != nullptr) pin_->check_backing();
  }

  /// One bucket table: profile ids sorted by (slice key, id); a bucket is
  /// a run of equal keys, looked up by binary search. Sorted storage keeps
  /// iteration order deterministic (no unordered_map iteration order).
  /// ArrayRef so a warm reopen can serve each table as a borrowed slice of
  /// the persisted flat key/row banks instead of copying them.
  struct Table {
    ArrayRef<std::uint64_t> keys;  ///< sorted, one per profile
    ArrayRef<std::uint32_t> rows;  ///< profile ids, same order
  };

  std::uint64_t slice_key(std::size_t row, std::size_t table,
                          std::size_t flip_bit) const;

  std::size_t count_ = 0;
  std::size_t bits_ = 0;
  std::size_t words_ = 0;
  std::size_t slice_bits_ = 0;
  std::size_t tables_ = 0;
  std::size_t probes_ = 0;
  ArrayRef<std::uint64_t> signatures_;  ///< count x words
  std::vector<Table> tables_storage_;
  /// Per (row, table): the probes−1 slice-bit indices with the smallest
  /// projection margin, in flip order. Empty when probes == 1.
  ArrayRef<std::uint16_t> probe_bits_;
  /// Set only on borrowed-mapped indexes (store::LshCodec::load): keeps
  /// the artifact mapping alive as long as this index.
  std::shared_ptr<const EngineStoragePin> pin_;
};

}  // namespace fv::sim
